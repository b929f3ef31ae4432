"""One Hypothesis profile for the whole suite: derandomized, so every run
draws the same examples; no deadline, since a numeric example can take a
while on a slow host; and no example database, so no run depends on what
an earlier one stored.  Property tests state only ``max_examples``."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
