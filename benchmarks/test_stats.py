"""Tests of the benchmark's own arithmetic.

    python3 -m pytest benchmarks
"""

import time
import types

import numpy as np
import pytest

import stats
from tracing import Tracer


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    assert stats.tail(list(range(10))) is None          # nothing qualifies
    # 11 samples: p75 has 11 - 1 - floor(7.5) = 3 beyond, still too few.
    assert stats.tail(list(range(11))) is None
    # 41 samples: p75 has exactly 10 beyond, p90 only 4.
    pct, value = stats.tail(list(range(41)))
    assert (pct, value) == (75.0, 30.0)
    # 100 samples: p90 has 10 beyond (ranks 90..99), p95 only 5.
    pct, value = stats.tail(list(range(100)))
    assert pct == 90.0 and value == pytest.approx(89.1)
    assert stats.samples_beyond(100, 90.0) == 10
    # 10 001 samples reach p99.9 with exactly 10 beyond.
    assert stats.tail(list(range(10_001)))[0] == 99.9
    # 38 samples are the fewest with 10 beyond p75 (37 - floor(27.75)).
    assert stats.min_tail_samples() == 38
    assert stats.tail(list(range(37))) is None
    assert stats.tail(list(range(38)))[0] == 75.0


def test_summary_reports_count_and_tail():
    s = stats.summary([3.0, 1.0, 2.0])
    assert s == {"median": 2.0, "n": 3, "tail_pct": None, "tail": None}


def test_self_time_subtracts_nested_children():
    # root [0, 100] > a [10, 40] > b [15, 25]; root > c [50, 90]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    assert stats.self_times(starts, ends, parents) == [30, 20, 10, 40]


def test_self_time_counts_overlapping_children_once():
    # Two children overlapping on [20, 30] cover [10, 40]: 30 of 50.
    assert stats.self_times([0, 10, 20], [50, 30, 40], [-1, 0, 0])[0] == 20
    # A child sticking out of its parent is clipped to the parent.
    assert stats.self_times([0, 5], [10, 20], [-1, 0])[0] == 5


def test_tracer_spans_nest_and_self_times_add_up():
    tr = Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_t = tr.wrap("leaf", leaf)

    def mid():
        leaf_t()
        leaf_t()

    root = tr.wrap("root", tr.wrap("mid", mid))
    root()
    names = [tr.names[c] for c in tr.code]
    assert names == ["root", "mid", "leaf", "leaf"]
    assert list(tr.parent) == [-1, 0, 1, 1]
    own = stats.self_times(list(tr.start), list(tr.end), list(tr.parent))
    assert sum(own) == tr.end[0] - tr.start[0]
    assert own[2] >= 2_000_000 and own[3] >= 2_000_000


def test_tracer_records_work_count():
    mod = types.SimpleNamespace(f=lambda n: list(range(n)))
    tr = Tracer()
    tr.patch(mod, "f", "f", items=lambda args, kwargs, out: len(out))
    assert mod.f(7) == list(range(7))
    assert list(tr.items) == [7]


def test_tracer_fails_on_missing_boundary_or_count():
    mod = types.SimpleNamespace(__name__="mod", f=lambda: None)
    tr = Tracer()
    with pytest.raises(AttributeError, match="does not bind gone"):
        tr.patch(mod, "gone", "gone")
    # A count that cannot be computed fails the call instead of reading 0.
    tr.patch(mod, "f", "f", items=lambda args, kwargs, out: len(out))
    with pytest.raises(TypeError):
        mod.f()


def test_pool_efficiency():
    speedup, eff = stats.pool_scaling(10.0, 5.2, 2)
    assert speedup == pytest.approx(10.0 / 5.2)
    assert eff == pytest.approx(10.0 / 5.2 / 2)
    assert stats.pool_scaling(3.0, 3.0, 1) == (1.0, 1.0)
    with pytest.raises(ValueError):
        stats.pool_scaling(1.0, 0.0, 2)


def test_failed_frac():
    assert stats.failed_frac(0, 425) == 0.0
    assert stats.failed_frac(3, 12) == 0.25
    for bad in ((1, 0), (-1, 5), (6, 5)):
        with pytest.raises(ValueError):
            stats.failed_frac(*bad)

