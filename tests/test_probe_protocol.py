import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncprobe.bath import (
    KAPPA_DEFAULT,
    PowerLawCutoff,
    evaluate_J,
    lindblad_rates,
)
from syncprobe.cli import _bath_from_config, _record
from syncprobe.dynamics import default_time_grid
from syncprobe import probe_protocol
from syncprobe.probe_protocol import (
    InsufficientSpectrumError,
    InversionError,
    LinewidthDatum,
    NoTransitionError,
    RankDeficiencyError,
    ResolutionError,
    ScanConfig,
    TransitionPoint,
    _classify_point,
    collect_constraints,
    default_scan_grid,
    fit_spectral_density,
    infer_system_params,
    predict_transition,
    scan_transition,
    simulate,
    transition_point,
)
from syncprobe.signal_analysis import (
    ANTI_PHASE,
    IN_PHASE,
    Peak,
    SpectrumEstimate,
    SyncConfig,
    detect_sync,
    late_span,
    sync_plan,
    windowed_fft,
)
from syncprobe.spin_model import QubitPairParams, diagonalize

OHMIC = PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=20.0)
QUARTIC = PowerLawCutoff(gamma0=0.01, s=2.0, omega_c=20.0)
QUARTIC_PURE = PowerLawCutoff(gamma0=0.01, s=2.0)

# Roots of the rate balance at lam=0.2, solved independently with brentq on
# the explicit angle/J formulas and frozen here.
ROOT_S05_CUT = 0.9598132695500611
ROOT_S2_PURE = 1.0770329614269007
ROOT_S2_CUT = 1.0760395671523406
ROOT_S2_CUT_T1 = 1.0110142629349934
CUTOFF_DISPLACEMENT = -0.0009933942745601332

_scans = {}


def _scan(model_key):
    """Memoized signal-level scan at lam=0.2, T=0."""
    if model_key not in _scans:
        model, lo, hi = {
            "ohmic": (OHMIC, 0.85, 1.16),
            "quartic": (QUARTIC, 0.92, 1.24),
        }[model_key]
        _scans[model_key] = scan_transition(model, QubitPairParams(lam=0.2),
                                            np.arange(lo, hi, 0.05))
    return _scans[model_key]


def _constraints(model, lams, *args, **kwargs):
    """collect_constraints' points, where every coupling must yield one."""
    points, failures = collect_constraints(model, lams, *args, **kwargs)
    assert failures == []
    return points


def _forward(model, omega_p, t_max=2000.0):
    return simulate(QubitPairParams(omega_p=omega_p, lam=0.2), model,
                    default_time_grid(t_max, 0.05))


def _closed_form_exponent(omega_p, lam):
    eig = diagonalize(QubitPairParams(omega_p=omega_p, lam=lam))
    sigma = eig.theta_plus + eig.theta_minus
    return np.log(np.tan(sigma) ** 2) / np.log(eig.E1 / eig.E2)


def test_power_law_line_self_consistency():
    """Without a cutoff the root reproduces the closed-form exponent line."""
    for s in (0.5, 1.0, 1.5, 2.0, 2.5):
        for lam in (0.05, 0.2, 0.4):
            model = PowerLawCutoff(gamma0=0.01, s=s)
            root = predict_transition(model, QubitPairParams(lam=lam))
            assert abs(_closed_form_exponent(root, lam) - s) < 1e-6


def test_rates_equal_at_root():
    root = predict_transition(PowerLawCutoff(gamma0=0.01, s=1.5, omega_c=20.0),
                              QubitPairParams(lam=0.25))
    rates = lindblad_rates(
        diagonalize(QubitPairParams(omega_p=root, lam=0.25)),
        PowerLawCutoff(gamma0=0.01, s=1.5, omega_c=20.0), 0.0)
    assert rates.g1_down == pytest.approx(rates.g2_down, rel=1e-9)
    assert rates.g1_total == pytest.approx(rates.g2_total, rel=1e-9)


def test_roots_match_independent_solver():
    assert predict_transition(QUARTIC_PURE, QubitPairParams(lam=0.2)) == \
        pytest.approx(ROOT_S2_PURE, abs=1e-9)
    assert predict_transition(QUARTIC, QubitPairParams(lam=0.2)) == \
        pytest.approx(ROOT_S2_CUT, abs=1e-9)
    assert predict_transition(PowerLawCutoff(gamma0=0.01, s=0.5, omega_c=20.0),
                              QubitPairParams(lam=0.2)) == \
        pytest.approx(ROOT_S05_CUT, abs=1e-9)


def test_cutoff_displaces_root():
    shift = (predict_transition(QUARTIC, QubitPairParams(lam=0.2))
             - predict_transition(QUARTIC_PURE, QubitPairParams(lam=0.2)))
    assert shift == pytest.approx(CUTOFF_DISPLACEMENT, abs=1e-8)


def test_no_crossing_in_bracket_raises():
    with pytest.raises(NoTransitionError):
        predict_transition(OHMIC, QubitPairParams(lam=0.2), bracket=(1.2, 1.4))


def test_reversed_bracket_raises():
    with pytest.raises(ValueError, match=r"^bracket must satisfy 0 < lo < hi, "
                                         r"got \(1.2, 1.1\)$"):
        predict_transition(OHMIC, QubitPairParams(lam=0.2), bracket=(1.2, 1.1))


def test_dark_mode_raises():
    # lam=0 leaves mode 2 uncoupled from the observable channel: no crossing.
    with pytest.raises(NoTransitionError):
        predict_transition(OHMIC, QubitPairParams(lam=0.0))


def test_finite_temperature_root_uses_total_rates():
    """At T>0 the crossing moves, and it equalizes the totals, not the downs."""
    root = predict_transition(QUARTIC, QubitPairParams(lam=0.2), T=1.0)
    assert root == pytest.approx(ROOT_S2_CUT_T1, abs=1e-9)
    assert abs(root - ROOT_S2_CUT) > 0.01
    rates = lindblad_rates(diagonalize(QubitPairParams(omega_p=root, lam=0.2)),
                           QUARTIC, 1.0)
    assert rates.g1_total == pytest.approx(rates.g2_total, rel=1e-9)
    assert abs(rates.g1_down - rates.g2_down) > 1e-4 * rates.g1_down


def test_temperature_defaults_to_the_pair():
    """Without T the root is that of params.temperature; a T overrides it."""
    warm = QubitPairParams(omega_p=1.0, lam=0.2, temperature=1.0)
    assert predict_transition(QUARTIC, warm) == \
        pytest.approx(ROOT_S2_CUT_T1, abs=1e-9)
    assert predict_transition(QUARTIC, warm, T=0.0) == \
        pytest.approx(ROOT_S2_CUT, abs=1e-9)


def test_transition_point_ratio_is_tan_squared_at_t0():
    tp = transition_point(QubitPairParams(omega_p=ROOT_S2_CUT, lam=0.2))
    eig = diagonalize(QubitPairParams(omega_p=ROOT_S2_CUT, lam=0.2))
    sigma = eig.theta_plus + eig.theta_minus
    assert tp.ratio == pytest.approx(np.tan(sigma) ** 2, rel=1e-12)
    assert tp.ratio == pytest.approx(2.1708171712496855, rel=1e-9)
    assert tp.E1 == pytest.approx(1.2606933530646363, rel=1e-12)
    assert tp.E2 == pytest.approx(0.8535299758157543, rel=1e-12)
    assert tp.n1 == 0.0 and tp.n2 == 0.0


def test_transition_point_validation():
    with pytest.raises(ValueError):
        TransitionPoint(lam=0.2, omega_p_bar=1.0, E1=1.3, E2=0.9, ratio=-1.0)
    with pytest.raises(ValueError):
        TransitionPoint(lam=0.2, omega_p_bar=1.0, E1=0.9, E2=1.3, ratio=2.0)
    with pytest.raises(ValueError):
        TransitionPoint(lam=0.2, omega_p_bar=1.0, E1=1.3, E2=0.9, ratio=2.0,
                        uncertainty=-0.1)
    good = dict(lam=0.2, omega_p_bar=1.0, E1=1.3, E2=0.9, ratio=2.0,
                n1=0.0, n2=0.0, uncertainty=0.01)
    for field in good:
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                TransitionPoint(**dict(good, **{field: bad}))


def test_default_bracket_and_grid_in_units_of_omega_q():
    # the crossing near omega_p = 2 lies outside an absolute (0.5, 1.5)
    pair = QubitPairParams(omega_q=2.0)
    (analytic,) = _constraints(OHMIC, [0.4], pair, method="analytic")
    assert analytic.omega_p_bar == pytest.approx(1.99684, abs=1e-4)
    (signal,) = _constraints(OHMIC, [0.4], pair, method="signal")
    assert abs(signal.omega_p_bar - analytic.omega_p_bar) < 0.01


def test_scan_matches_prediction():
    tp = _scan("quartic")
    assert abs(tp.omega_p_bar - ROOT_S2_CUT) < 0.05
    assert tp.uncertainty is not None and tp.uncertainty < 0.02
    # eigenfrequency product identity: E1 E2 = omega_q omega_p with omega_q=1
    assert tp.E1 * tp.E2 == pytest.approx(tp.omega_p_bar, rel=1e-9)


def test_scan_jump_magnitude():
    """omega_sync jumps by E1 - E2 across the located crossing."""
    tp = _scan("ohmic")
    eig_bar = diagonalize(QubitPairParams(omega_p=tp.omega_p_bar, lam=0.2))
    cfg = SyncConfig(late_window=(1600.0, 1910.0), noise_floor=0.0)
    sides = {}
    for key, wp in (("below", tp.omega_p_bar - 0.02),
                    ("above", tp.omega_p_bar + 0.02)):
        sim = _forward(OHMIC, wp)
        sides[key] = (detect_sync(sim.traj, cfg), sim.eig)
    below, above = sides["below"][0], sides["above"][0]
    assert below.regime == ANTI_PHASE
    assert above.regime == IN_PHASE
    assert abs(below.omega_sync - sides["below"][1].E2) < 0.01
    assert abs(above.omega_sync - sides["above"][1].E1) < 0.01
    jump = abs(above.omega_sync - below.omega_sync)
    # two natural FFT bins of the 310-long late window
    assert abs(jump - (eig_bar.E1 - eig_bar.E2)) < 2.0 * 2.0 * np.pi / 310.0


@pytest.mark.parametrize("model, lo, hi", [(OHMIC, 0.85, 1.16),
                                           (QUARTIC, 0.92, 1.24)])
def test_classify_point_same_label_on_late_span(model, lo, hi):
    """A scan classifies on the 6 240-sample late span; every label on the
    test grids is the one the whole 40 001-sample grid gives."""
    cfg = ScanConfig()
    sync_cfg = cfg.sync_config(1.0)
    full = default_time_grid(cfg.t_max, cfg.dt)
    part = full[late_span(full, sync_cfg)]
    assert (full.size, part.size) == (40001, 6240)
    labels = []
    for w in np.arange(lo, hi, 0.05):
        pair = QubitPairParams(omega_p=w, lam=0.2)
        labels.append(_classify_point(
            model, pair, sync_plan(full, sync_cfg, slice(None)), cfg.kappa))
        assert _classify_point(model, pair, sync_plan(full, sync_cfg),
                               cfg.kappa) == labels[-1], w
    assert {1, 2} <= set(labels)


@settings(max_examples=150)
@given(s=st.floats(0.5, 3.0), lam=st.floats(0.05, 0.4),
       omega_p=st.floats(0.6, 1.4))
def test_classify_point_follows_the_rate_criterion(s, lam, omega_p):
    """The paper's criterion: the mode with the smaller total rate survives.
    The detector never names the faster-decaying mode, and names the slower
    one wherever the rates differ by a tenth in log."""
    cfg = ScanConfig()
    sync_cfg = cfg.sync_config(1.0)
    full = default_time_grid(cfg.t_max, cfg.dt)
    model = PowerLawCutoff(gamma0=0.01, s=s, omega_c=20.0)
    pair = QubitPairParams(omega_p=omega_p, lam=lam)
    rates = lindblad_rates(diagonalize(pair), model, 0.0, cfg.kappa)
    log_ratio = math.log(rates.g1_total / rates.g2_total)
    label = _classify_point(model, pair, sync_plan(full, sync_cfg), cfg.kappa)
    assert label != (2 if log_ratio < 0 else 1), log_ratio
    if abs(log_ratio) >= 0.1:
        assert label == (1 if log_ratio < 0 else 2), log_ratio


def test_scan_single_branch_raises():
    with pytest.raises(NoTransitionError):
        scan_transition(QUARTIC, QubitPairParams(lam=0.2),
                        np.array([1.15, 1.20, 1.25]))


def test_scan_band_below_grid_step_raises():
    grid = ROOT_S2_CUT + 0.008 * np.arange(-3, 4)
    with pytest.raises(ResolutionError):
        scan_transition(QUARTIC, QubitPairParams(lam=0.2), grid)


def test_scan_grid_validation():
    with pytest.raises(ValueError):
        scan_transition(OHMIC, QubitPairParams(lam=0.2), np.array([1.0]))
    with pytest.raises(ValueError):
        scan_transition(OHMIC, QubitPairParams(lam=0.2),
                        np.array([1.0, 0.9, 1.1]))


# Fake classifiers for scan_transition: (edge, label) steps in omega_p /
# omega_q, label 1 above the last edge.  Expected values were recorded on
# the three-loop bisection this scan replaced; a lock on the far side's mode
# inside a band-edge bracket raises ResolutionError instead.
FAKE_GRID = np.array([0.9, 0.95, 1.0, 1.05, 1.1])
FAKE_SCANS = {
    "clean crossing": ([(1.0123, 2)],
                       1.01171875, 0.0007812500000000666, 9),
    "band found by bisection": ([(1.01, 2), (1.016, 0)],
                                1.01328125, 0.0031250000000000444, 12),
    "band on the grid": ([(1.04, 2), (1.06, 0)],
                         1.05, 0.010156249999999867, 15),
    # a mode-1 pocket below the band leaves its lower edge undefined
    "far side below the band": ([(1.005, 2), (1.0075, 1), (1.01, 2),
                                 (1.016, 0)],
                                "1.00625 locks on mode 1 between labels "
                                "2 at 1 and 0 at 1.0125", None, 7),
    # a mode-2 pocket above the band leaves its upper edge undefined
    "far side above the band": ([(1.01, 2), (1.016, 0), (1.018, 1),
                                 (1.02, 2)],
                                "1.01875 locks on mode 2 between labels "
                                "0 at 1.0125 and 1 at 1.025", None, 10),
}


def _fake_classifier(monkeypatch, edges):
    seen = []

    def classify(model, params, plan, kappa):
        seen.append(params)
        for edge, label in edges:
            if params.omega_p / params.omega_q < edge:
                return label
        return 1

    monkeypatch.setattr(probe_protocol, "_classify_point", classify)
    return seen


@pytest.mark.parametrize("case", list(FAKE_SCANS))
def test_scan_bisection_paths(monkeypatch, case):
    edges, omega_p_bar, uncertainty, calls = FAKE_SCANS[case]
    seen = _fake_classifier(monkeypatch, edges)
    if isinstance(omega_p_bar, str):
        # a far-side lock stops the scan at that classification
        with pytest.raises(ResolutionError, match=omega_p_bar):
            scan_transition(QUARTIC, QubitPairParams(lam=0.2), FAKE_GRID)
        assert len(seen) == calls
        return
    tp = scan_transition(QUARTIC, QubitPairParams(lam=0.2), FAKE_GRID)
    assert (tp.omega_p_bar, tp.uncertainty, len(seen)) == \
        (omega_p_bar, uncertainty, calls)


def test_scan_classifies_no_grid_point_past_the_first_switch(monkeypatch):
    """The clean crossing switches at 1.05: 1.1 is never classified, and a
    point there that would raise (say, outside a tabulated bath's range)
    does not fail the scan."""
    edges, omega_p_bar, uncertainty, calls = FAKE_SCANS["clean crossing"]
    seen = _fake_classifier(monkeypatch, edges)
    scan_transition(QUARTIC, QubitPairParams(lam=0.2), FAKE_GRID)
    assert [p.omega_p for p in seen[:4]] == list(FAKE_GRID[:4])
    assert max(p.omega_p for p in seen) == 1.05

    classify = probe_protocol._classify_point

    def raising_past_the_switch(model, params, *args):
        if params.omega_p > 1.06:
            raise ValueError("omega_p outside the bath's range")
        return classify(model, params, *args)

    monkeypatch.setattr(probe_protocol, "_classify_point",
                        raising_past_the_switch)
    tp = scan_transition(QUARTIC, QubitPairParams(lam=0.2), FAKE_GRID)
    assert (tp.omega_p_bar, tp.uncertainty, len(seen)) == \
        (omega_p_bar, uncertainty, 2 * calls)


def test_scan_with_no_locked_grid_point(monkeypatch):
    seen = _fake_classifier(monkeypatch, [(2.0, 0)])
    with pytest.raises(NoTransitionError,
                       match="no grid point shows a locked regime"):
        scan_transition(QUARTIC, QubitPairParams(lam=0.2), FAKE_GRID)
    assert len(seen) == len(FAKE_GRID)


def test_bisect_stops_when_no_double_lies_between():
    """A tolerance below one ulp of the bracket still ends: the bisection
    stops once the midpoint rounds onto an end."""
    seen = []

    def classify(w):
        seen.append(w)
        return 2 if w < 1.0123 else 1

    a, b, band = probe_protocol._bisect(classify, 1.0, 2, 1.05, 1, 1e-300)
    assert band is None and a < 1.0123 <= b
    assert np.nextafter(a, 2.0) == b and len(seen) < 60


def test_scan_with_tolerance_below_an_ulp_finishes(monkeypatch):
    seen = _fake_classifier(monkeypatch, FAKE_SCANS["band found by bisection"][0])
    tp = scan_transition(QUARTIC, QubitPairParams(lam=0.2), FAKE_GRID,
                         config=ScanConfig(refine_tol=1e-300))
    # both band edges, 1.01 and 1.016, to the last bit
    assert tp.omega_p_bar == pytest.approx(1.013, abs=1e-15)
    assert tp.uncertainty == pytest.approx(0.003, abs=1e-15)
    assert len(seen) < 200


def test_scan_passes_the_pair_to_every_classification(monkeypatch):
    """At omega_q = 2 on the doubled grid, the scan probes the points of
    the omega_q = 1 scan doubled: refine_tol is in units of omega_q."""
    edges, omega_p_bar, uncertainty, calls = FAKE_SCANS["band found by bisection"]
    seen = _fake_classifier(monkeypatch, edges)
    pair = QubitPairParams(omega_q=2.0, omega_p=7.0, lam=0.3, temperature=0.4)
    tp = scan_transition(QUARTIC, pair, 2.0 * FAKE_GRID)
    assert {replace(p, omega_p=1.0) for p in seen} == \
        {replace(pair, omega_p=1.0)}
    assert len(seen) == calls
    assert (tp.lam, tp.omega_p_bar, tp.uncertainty, tp.ratio) == \
        (0.3, 2.0 * omega_p_bar, 2.0 * uncertainty, 1.5023349829800612)
    assert (tp.n1, tp.n2) == (0.0029187630704018332, 0.013234972725500537)


def test_two_undecidable_grid_points_raise_resolution_error(monkeypatch):
    labels = dict(zip([0.9, 1.0, 1.1, 1.2], [1, 0, 0, 2]))
    monkeypatch.setattr(probe_protocol, "_classify_point",
                        lambda model, params, *rest: labels[params.omega_p])
    with pytest.raises(ResolutionError, match="^2 consecutive grid points "
                                              "between 0.9 and 1.2"):
        scan_transition(QUARTIC, QubitPairParams(lam=0.2), list(labels))


def test_scan_classifies_python_floats(monkeypatch):
    """Grid points reach the classifier as the float that QubitPairParams
    declares, like the bisection's midpoints, not as numpy scalars."""
    seen = _fake_classifier(monkeypatch, FAKE_SCANS["band found by bisection"][0])
    scan_transition(QUARTIC, QubitPairParams(lam=0.2), FAKE_GRID)
    assert {type(p.omega_p) for p in seen} == {float}


def _scaled_scan(k, s, lam, temperature, omega_c):
    """(labels in probe order, omega_p_bar / omega_q, uncertainty / omega_q),
    or the error's type, of a default-grid scan of one physics in the unit
    where omega_q = k: frequencies times k, gamma0 times k^(1 - s) and
    omega_c times k^s, so that J scales by k too."""
    model = PowerLawCutoff(gamma0=0.01 * k ** (1.0 - s), s=s,
                           omega_c=None if omega_c is None else omega_c * k ** s)
    pair = QubitPairParams(omega_q=k, omega_p=k, lam=lam * k,
                           temperature=temperature * k)
    labels = []

    def classify(*args):
        labels.append(_classify_point(*args))
        return labels[-1]

    root = predict_transition(model, pair)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(probe_protocol, "_classify_point", classify)
            tp = scan_transition(model, pair, default_scan_grid(root, k))
    except ValueError as exc:
        return labels, type(exc)
    return labels, tp.omega_p_bar / k, tp.uncertainty / k


@settings(max_examples=8)
@given(k=st.sampled_from([0.25, 2.0, 8.0]) | st.floats(0.1, 10.0),
       s=st.sampled_from([1.0, 2.0, 3.0]) | st.floats(0.5, 3.0),
       lam=st.floats(0.1, 0.3), temperature=st.sampled_from([0.0, 0.3]),
       omega_c=st.sampled_from([None, 20.0]))
@example(k=2.0, s=2.0, lam=0.2, temperature=0.3, omega_c=20.0)
@example(k=10.0, s=2.0, lam=0.2, temperature=0.3, omega_c=20.0)
@example(k=0.1, s=2.0, lam=0.2, temperature=0.3, omega_c=20.0)
def test_scan_is_unit_free(k, s, lam, temperature, omega_c):
    """A scan in units where omega_q = k probes the same labels and finds
    omega_p_bar / omega_q within a few ulp, exactly for a power of two k
    and an integer s, where every scaled number is exact."""
    one = _scaled_scan(1.0, s, lam, temperature, omega_c)
    other = _scaled_scan(k, s, lam, temperature, omega_c)
    assert other[0] == one[0]
    if isinstance(one[1], type):
        assert other[1] is one[1]
        return
    if math.frexp(k)[0] == 0.5 and s.is_integer():
        assert other == one
    # a few ulp of numbers near 1; the uncertainty is half a difference
    # of two of them
    assert abs(other[1] - one[1]) <= 1e-15
    assert abs(other[2] - one[2]) <= 1e-15


@settings(max_examples=12)
@given(s=st.floats(0.5, 3.0), omega_c=st.sampled_from([None, 20.0]),
       temperature=st.sampled_from([0.0, 0.3]), lam=st.floats(0.1, 0.3),
       offset=st.floats(0.0, 1.0, exclude_max=True))
def test_scan_band_contains_the_rate_root(s, omega_c, temperature, lam,
                                          offset):
    """[omega_p_bar - uncertainty, omega_p_bar + uncertainty] holds the rate
    root, on the default grid and on one offset by a fraction of its step."""
    model = PowerLawCutoff(gamma0=0.01, s=s, omega_c=omega_c)
    pair = QubitPairParams(lam=lam, temperature=temperature)
    root = predict_transition(model, pair)
    grid = default_scan_grid(root, pair.omega_q)
    for shift in (0.0, offset * (grid[1] - grid[0])):
        tp = scan_transition(model, pair, grid + shift)
        assert abs(tp.omega_p_bar - root) <= tp.uncertainty, shift


def _fake_spectrum(peak_freqs):
    peaks = [Peak(frequency=f, height=h)
             for f, h in zip(peak_freqs, (1.0, 0.8, 0.5))]
    return SpectrumEstimate(freqs=np.asarray(peak_freqs, dtype=float),
                            magnitude=np.ones(len(peak_freqs)),
                            peaks=peaks, window=(0.0, 110.0))


def test_inversion_exact_pair():
    wq, lam = infer_system_params(_fake_spectrum([1.341641, 0.894427]), 1.2)
    assert wq == pytest.approx(1.0, abs=1e-6)
    assert lam == pytest.approx(0.2, abs=1e-6)


def test_inversion_uncoupled_pair():
    wq, lam = infer_system_params(_fake_spectrum([1.0, 0.8]), 0.8)
    assert wq == pytest.approx(1.0, abs=1e-12)
    assert lam == 0.0


def test_inversion_inconsistent_pair():
    with pytest.raises(InversionError):
        infer_system_params(_fake_spectrum([1.0, 0.9]), 3.0)


@pytest.mark.parametrize("count, omega_ps, message", [
    (1, [1.2, 0.8], "need one omega_p per spectrum"),
    (0, [], "need at least one spectrum"),
])
def test_inversion_needs_matched_inputs(count, omega_ps, message):
    spectra = [_fake_spectrum([1.341641, 0.894427])] * count
    with pytest.raises(ValueError, match=f"^{message}$"):
        infer_system_params(spectra, omega_ps)


def test_inversion_needs_two_peaks():
    with pytest.raises(InsufficientSpectrumError):
        infer_system_params(_fake_spectrum([1.0]), 0.8)


def test_inversion_from_simulated_spectrum():
    traj = _forward(OHMIC, 1.2, t_max=320.0).traj
    spec = windowed_fft(traj.sx_p, traj.times, 0.0, 110.0)
    wq, lam = infer_system_params(spec, 1.2)
    assert abs(wq - 1.0) < 0.02
    assert abs(lam - 0.2) / 0.2 < 0.05


def test_inversion_joint_two_settings():
    spectra, settings = [], []
    for wp in (1.2, 0.8):
        traj = _forward(OHMIC, wp, t_max=320.0).traj
        spectra.append(windowed_fft(traj.sx_p, traj.times, 0.0, 110.0))
        settings.append(wp)
    wq, lam = infer_system_params(spectra, settings)
    assert abs(wq - 1.0) < 0.02
    assert abs(lam - 0.2) / 0.2 < 0.05


def test_inversion_forward_identity_randomized():
    """Closed-form inversion undoes exact forward spectra across the plane."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        wp = float(rng.uniform(0.6, 1.4))
        lam = float(rng.uniform(0.1, 0.3))
        eig = diagonalize(QubitPairParams(omega_p=wp, lam=lam))
        wq_hat, lam_hat = infer_system_params(
            _fake_spectrum([eig.E1, eig.E2]), wp)
        assert wq_hat == pytest.approx(1.0, abs=1e-9)
        assert lam_hat == pytest.approx(lam, abs=1e-9)


def test_collect_analytic_constraints():
    pts = _constraints(QUARTIC, [0.3, 0.1, 0.2, 0.25, 0.15],
                       method="analytic")
    assert [tp.lam for tp in pts] == [0.1, 0.15, 0.2, 0.25, 0.3]
    pairs = {(round(tp.E1, 9), round(tp.E2, 9)) for tp in pts}
    assert len(pairs) == 5
    for tp in pts:
        implied = evaluate_J(QUARTIC, tp.E1) / evaluate_J(QUARTIC, tp.E2)
        assert tp.ratio == pytest.approx(implied, rel=1e-9)


@pytest.mark.parametrize("method", ["analytic", "signal"])
@pytest.mark.parametrize("temperature", [0.0, 0.3])
def test_transition_points_hold_python_floats(method, temperature):
    (tp,) = _constraints(QUARTIC, [0.2], QubitPairParams(temperature=temperature),
                         method=method)
    assert [type(v) for v in (tp.E1, tp.E2, tp.n1, tp.n2)] == [float] * 4


def test_collect_reports_partial_failures():
    dark = "a mode has zero total rate (dark mode); the rate ratio has no crossing"
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # failures are values, not warnings
        pts, failures = collect_constraints(QUARTIC, [0.2, 0.0],
                                            method="analytic")
        assert [tp.lam for tp in pts] == [0.2]
        assert failures == [(0.0, dark)]
        assert collect_constraints(QUARTIC, [0.0], method="analytic") == \
            ([], [(0.0, dark)])


def _exact_datum(model, omega_p=1.2, lam=0.2):
    eig = diagonalize(QubitPairParams(omega_p=omega_p, lam=lam))
    rates = lindblad_rates(eig, model, 0.0)
    sigma = eig.theta_plus + eig.theta_minus
    return LinewidthDatum(fwhm=rates.g1_total, omega=eig.E1,
                          trig_sq=float(np.cos(sigma) ** 2))


@settings(max_examples=40)
@given(s=st.floats(0.5, 3.0), temperature=st.sampled_from([0.0, 0.3]),
       omega_c=st.sampled_from([None, 20.0]))
def test_analytic_constraints_recover_s(s, temperature, omega_c):
    model = PowerLawCutoff(gamma0=0.01, s=s, omega_c=omega_c)
    pts = _constraints(model, np.linspace(0.1, 0.3, 5),
                       QubitPairParams(temperature=temperature),
                       method="analytic")
    assert abs(fit_spectral_density(pts, omega_c=omega_c).s - s) <= 1e-9


def test_power_law_fit_closed_loop():
    pts = _constraints(QUARTIC, [0.1, 0.15, 0.2, 0.25, 0.3],
                       method="analytic")
    fit = fit_spectral_density(pts, omega_c=20.0)
    assert fit.s == pytest.approx(2.0, abs=1e-6)
    assert fit.residuals.shape == (5,)
    assert fit.gamma0 is None and fit.model is None

    pts_pure = _constraints(QUARTIC_PURE, [0.1, 0.2, 0.3],
                            method="analytic")
    fit_pure = fit_spectral_density(pts_pure)
    assert fit_pure.s == pytest.approx(2.0, abs=1e-8)
    assert fit_pure.diagnostics["method"] == "closed-form"


@pytest.mark.parametrize("omega_c", [float("inf"), 1e300])
def test_fit_overflowing_cutoff_is_no_cutoff(omega_c):
    pts = _constraints(QUARTIC, [0.1, 0.2, 0.3], method="analytic")
    datum = _exact_datum(QUARTIC)
    assert _record(fit_spectral_density(
        pts, datum=datum, omega_c=omega_c)) == _record(
        fit_spectral_density(pts, datum=datum, omega_c=None))


def test_cutoff_fit_is_a_function_of_the_ratios():
    """With omega_c given, s moves by rounding only when the ratios move by
    one part in 1e15, also when the constraints do not fit exactly."""
    pts = _constraints(QUARTIC, [0.1, 0.15, 0.2, 0.25, 0.3],
                       method="analytic")
    noisy = [replace(c, ratio=c.ratio * np.exp(0.01 * (-1) ** k))
             for k, c in enumerate(pts)]
    bumped = [replace(c, ratio=c.ratio * (1.0 + 1e-15)) for c in noisy]
    s_fit = fit_spectral_density(noisy, omega_c=20.0).s
    assert abs(fit_spectral_density(bumped, omega_c=20.0).s - s_fit) <= 1e-13


def test_fit_is_kappa_invariant():
    base = _constraints(QUARTIC, [0.1, 0.2, 0.3], method="analytic")
    other = _constraints(QUARTIC, [0.1, 0.2, 0.3], method="analytic",
                         config=ScanConfig(kappa=5.0))
    s_base = fit_spectral_density(base, omega_c=20.0).s
    s_other = fit_spectral_density(other, omega_c=20.0).s
    assert s_base == pytest.approx(s_other, rel=1e-12)


def test_fit_ignores_overall_amplitude():
    """Rescaling gamma0 of the ground truth leaves the fitted exponent alone."""
    bright = PowerLawCutoff(gamma0=0.03, s=2.0, omega_c=20.0)
    s_dim = fit_spectral_density(
        _constraints(QUARTIC, [0.1, 0.2, 0.3], method="analytic"),
        omega_c=20.0).s
    s_bright = fit_spectral_density(
        _constraints(bright, [0.1, 0.2, 0.3], method="analytic"),
        omega_c=20.0).s
    assert s_dim == pytest.approx(s_bright, rel=1e-12)


def test_gamma0_from_linewidth_datum():
    pts = _constraints(QUARTIC, [0.1, 0.15, 0.2, 0.25, 0.3],
                       method="analytic")
    fit = fit_spectral_density(pts, datum=_exact_datum(QUARTIC), omega_c=20.0)
    assert fit.gamma0 == pytest.approx(0.01, rel=0.01)
    assert isinstance(fit.model, PowerLawCutoff)
    assert fit.model.s == fit.s and fit.model.omega_c == 20.0


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_spectral_density([])
    with pytest.raises(ValueError):
        fit_spectral_density([transition_point(QubitPairParams(lam=0.2))],
                             family="spline")
    falling = TransitionPoint(lam=0.2, omega_p_bar=1.0, E1=1.3, E2=0.9,
                              ratio=0.5)
    with pytest.raises(InversionError):
        fit_spectral_density([falling])
    with pytest.raises(InversionError):
        fit_spectral_density([falling], omega_c=20.0)


def test_tabulated_fit_tracks_truth():
    pts = _constraints(QUARTIC, [0.1, 0.15, 0.2, 0.25, 0.3],
                       method="analytic")
    fit = fit_spectral_density(pts, family="tabulated",
                               datum=_exact_datum(QUARTIC))
    assert fit.residuals.shape == (5,)
    truth = evaluate_J(QUARTIC, fit.model.omegas)
    assert np.max(np.abs(fit.model.js - truth) / truth) < 5e-3
    again = fit_spectral_density(pts, family="tabulated",
                                 datum=_exact_datum(QUARTIC))
    assert np.array_equal(fit.model.js, again.model.js)


def test_tabulated_fit_rank_errors():
    pts = _constraints(QUARTIC, [0.1, 0.2, 0.3], method="analytic")
    datum = _exact_datum(QUARTIC)
    with pytest.raises(RankDeficiencyError):
        fit_spectral_density(pts[:1], family="tabulated", datum=datum)
    with pytest.raises(RankDeficiencyError):
        fit_spectral_density(pts, family="tabulated", datum=None)
    with pytest.raises(RankDeficiencyError) as info:
        fit_spectral_density(pts, family="tabulated", datum=datum,
                             grid=np.geomspace(0.5, 10.0, 24))
    assert len(info.value.nodes) > 0
    with pytest.raises(ValueError):
        fit_spectral_density(pts, family="tabulated", datum=datum,
                             grid=np.array([0.7, 0.75, 0.78]))
    with pytest.raises(ValueError, match="^grid must be a 1-d array with at "
                                         "least 2 nodes$"):
        fit_spectral_density(pts, family="tabulated", datum=datum,
                             grid=np.array([1.0]))
    with pytest.raises(ValueError, match="^grid must be positive and strictly "
                                         "increasing$"):
        fit_spectral_density(pts, family="tabulated", datum=datum,
                             grid=np.array([0.5, 2.0, 1.0, 3.0]))


def test_collect_constraints_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="^unknown method 'x'$"):
        collect_constraints(QUARTIC, [0.2], method="x")


def test_records_round_trip_json():
    tp = _scan("quartic")
    rec = _record(tp)
    assert json.loads(json.dumps(rec))["lambda"] == 0.2
    assert rec["omega_p_bar"] == tp.omega_p_bar

    pts = _constraints(QUARTIC, [0.1, 0.2, 0.3], method="analytic")
    fit = fit_spectral_density(pts, datum=_exact_datum(QUARTIC), omega_c=20.0)
    rec = json.loads(json.dumps(_record(fit)))
    assert rec["family"] == "power-law"
    assert len(rec["residuals"]) == 3
    restored = _bath_from_config(rec["model"])
    assert restored == fit.model


# --------------------------------------------------------------------- roots

def _sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=25)
@given(lam=st.floats(0.05, 0.5), s=st.floats(0.5, 3.0),
       omega_c=st.one_of(st.none(), st.floats(2.0, 50.0)),
       temperature=st.sampled_from([0.0, 0.3, 1.0]))
def test_predicted_root_sits_on_a_sign_change(lam, s, omega_c, temperature):
    """The root is an exact zero of the rate balance or one end of a sign
    change between adjacent doubles, and agrees with scipy's brentq."""
    import scipy.optimize
    model = PowerLawCutoff(gamma0=0.01, s=s, omega_c=omega_c)
    pair = QubitPairParams(lam=lam, temperature=temperature)

    def f(w):
        return probe_protocol._rate_balance(model, replace(pair, omega_p=w),
                                            KAPPA_DEFAULT)

    if _sign(f(0.5)) == _sign(f(1.5)):
        with pytest.raises(NoTransitionError):
            predict_transition(model, pair)
        return
    root = predict_transition(model, pair)
    signs = [_sign(f(w)) for w in (np.nextafter(root, 0.0), root,
                                   np.nextafter(root, 2.0))]
    assert signs[1] == 0 or signs[0] != signs[1] or signs[1] != signs[2]
    assert abs(root - scipy.optimize.brentq(f, 0.5, 1.5, xtol=1e-15)) <= 1e-13


@pytest.mark.parametrize("model, temperature", [
    (QUARTIC, 0.0), (QUARTIC_PURE, 0.0), (QUARTIC, 1.0), (OHMIC, 0.3)])
def test_predict_transition_never_evaluates_a_point_twice(
        monkeypatch, model, temperature):
    """The bracket ends are evaluated once, for the sign check and the
    bisection alike, and each rate evaluation is at a new omega_p."""
    probed, calls = [], []
    diag, rates = probe_protocol.diagonalize, probe_protocol.lindblad_rates
    monkeypatch.setattr(probe_protocol, "diagonalize",
                        lambda p: probed.append(p.omega_p) or diag(p))
    monkeypatch.setattr(probe_protocol, "lindblad_rates",
                        lambda *a: calls.append(a) or rates(*a))
    predict_transition(model, QubitPairParams(lam=0.2,
                                              temperature=temperature))
    assert probed[:2] == [0.5, 1.5]
    assert len(set(probed)) == len(probed) == len(calls) < 60


def _fake_balance(monkeypatch, f):
    """predict_transition over a made-up rate balance f(omega_p)."""
    seen = []
    monkeypatch.setattr(probe_protocol, "_rate_balance",
                        lambda model, params, kappa:
                        seen.append(params.omega_p) or f(params.omega_p))
    return seen


@pytest.mark.parametrize("f, root, evaluations", [
    (lambda w: w - 0.5, 0.5, 2),     # an exact zero at an end is returned
    (lambda w: 1.5 - w, 1.5, 2),
    (lambda w: w - 1.0, 1.0, 3),     # ... and at the first midpoint
    (lambda w: w - 1.0123, 1.0123, None),
])
def test_root_exact_zeros(monkeypatch, f, root, evaluations):
    seen = _fake_balance(monkeypatch, f)
    assert predict_transition(QUARTIC, QubitPairParams()) == root
    if evaluations is not None:
        assert len(seen) == evaluations


@pytest.mark.parametrize("f, error", [
    (lambda w: w * w + 1.0, NoTransitionError),      # one sign
    (lambda w: 1e-200, NoTransitionError),           # product underflows to 0
    (lambda w: -1e-200 * w, NoTransitionError),
    (lambda w: math.nan if w > 1.2 else w - 1.3, ValueError),  # NaN at an end
    (lambda w: math.nan if w > 0.9 else w - 1.3, ValueError),  # ... inside
    (lambda w: math.nan, ValueError),
])
def test_root_refuses_what_has_no_sign_change(monkeypatch, f, error):
    _fake_balance(monkeypatch, f)
    with pytest.raises(error):
        predict_transition(QUARTIC, QubitPairParams())


def test_bisect_stops_on_an_exact_zero():
    """With signs for labels, a midpoint where the function is 0 ends the
    halving and comes back as the third item."""
    assert probe_protocol._bisect(lambda x: _sign(x - 1.0), 0.5, -1, 1.5, 1,
                                  0.0) == (0.5, 1.5, 1.0)


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_cutoff_fit_gradient_changes_sign_next_to_s(monkeypatch, noise):
    """The fitted exponent is an exact zero of the gradient of the squared
    residuals, or one end of its sign change between adjacent doubles."""
    pts = _constraints(QUARTIC, [0.1, 0.15, 0.2, 0.25, 0.3],
                       method="analytic")
    pts = [replace(c, ratio=c.ratio * np.exp(noise * (-1) ** k))
           for k, c in enumerate(pts)]
    signs = []
    bisect = probe_protocol._bisect

    def spy(classify, *args):
        signs.append(classify)
        return bisect(classify, *args)

    monkeypatch.setattr(probe_protocol, "_bisect", spy)
    fit = fit_spectral_density(pts, omega_c=20.0)
    assert fit.diagnostics == {"n_constraints": 5, "method": "bisection"}
    (sign,) = signs
    around = [sign(s) for s in (np.nextafter(fit.s, 0.0), fit.s,
                                np.nextafter(fit.s, 10.0))]
    assert around[1] == 0 or around[0] != around[1] or around[1] != around[2]


def test_simulate_memory_per_sample():
    """simulate returns signals only: its peak allocation stays near the
    few float arrays a trajectory needs (about 26 B per sample), where
    (n, 4, 4) complex states alone would take 256 B per sample."""
    times = default_time_grid(20000.0, 0.1)
    assert times.size == 200_001
    tracemalloc.start()
    try:
        simulate(QubitPairParams(omega_p=1.2, lam=0.2), OHMIC, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * times.size


def test_sweep_batch_memory_per_point():
    """One full sweep batch on figD's grid (the benchmark's sweep-map
    shape: 2 250-sample late spans) peaks at about 190 KB per point,
    mostly the correlation windows it copies, so the batch's peak grows
    with the batch size.  Its points together stay under 1.7 MB, 5 % of a
    34 MB peak RSS: a larger batch constant fails here before it costs the
    benchmark's peak_rss_mb.  The bound holds for figD's recordables and
    for figcorr's, whose correlator is evolved after the verdict."""
    from syncprobe import cli
    from syncprobe.presets import get_preset

    spec = cli.parse_sweep_spec(get_preset("figD"))
    plan = sync_plan(spec.base.time_grid.times(), spec.base.analysis)
    points = [(0.5 + 0.01 * k, 0.2) for k in range(cli._SWEEP_BATCH)]
    for record in (spec.record, tuple(get_preset("figcorr")["record"])):
        task = (spec.base, ["omega_p", "lambda"], points, record, plan)
        cli._sweep_task(task)   # the taper cache, built on the first spectrum
        tracemalloc.start()
        try:
            rows = cli._sweep_task(task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(err is None for _, err in rows)
        assert peak <= 200_000 * len(points), record
        assert peak <= 1_700_000, record
