"""Arithmetic behind the numbers the benchmark reports.

Pure functions over plain lists, with no dependency on syncprobe, so the
benchmark's own tests can check them in isolation.
"""

import itertools
import math
import statistics

import numpy as np

# Candidate tail percentiles, lowest first.  The reported tail is the highest
# of these that still has at least MIN_BEYOND samples above it.
TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the p-th percentile of n samples."""
    return n - 1 - math.floor(p / 100.0 * (n - 1))


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond.

    None when there are too few samples for any candidate percentile.
    """
    n = len(values)
    best = None
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return None if best is None else (best, float(np.percentile(values, best)))


def min_tail_samples() -> int:
    """Fewest samples for which ``tail`` reports a percentile."""
    return next(n for n in itertools.count(1)
                if samples_beyond(n, TAIL_PERCENTILES[0]) >= MIN_BEYOND)


def summary(values) -> dict:
    """Median, tail and sample count of one timing."""
    t = tail(values)
    return {"median": statistics.median(values), "n": len(values),
            "tail_pct": None if t is None else t[0],
            "tail": None if t is None else t[1]}


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part of it its child spans cover.

    Spans are indexed in order of their start; ``parents[i]`` is the index
    of span i's parent, or -1 for a root.  Children of one parent may
    overlap each other (then their union is subtracted) but are clipped to
    the parent's interval.
    """
    n = len(starts)
    covered = [0] * n
    cursor = {}
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], cursor.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            cursor[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def pool_scaling(serial_wall: float, parallel_wall: float, workers: int):
    """(speedup, efficiency) of a run at ``workers`` against the serial run."""
    if serial_wall <= 0 or parallel_wall <= 0 or workers < 1:
        raise ValueError("wall times must be positive and workers >= 1")
    speedup = serial_wall / parallel_wall
    return speedup, speedup / workers


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"need 0 <= failed <= attempted >= 1, got "
                         f"{failed}/{attempted}")
    return failed / attempted

