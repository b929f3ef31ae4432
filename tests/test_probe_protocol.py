import json
from dataclasses import replace

import numpy as np
import pytest

from syncprobe.bath import (
    PowerLawCutoff,
    evaluate_J,
    lindblad_rates,
    model_from_config,
)
from syncprobe.dynamics import default_time_grid
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
    fit_spectral_density,
    infer_system_params,
    predict_transition,
    reconstruction_to_record,
    scan_transition,
    simulate,
    transition_point,
    transition_point_to_record,
)
from syncprobe.signal_analysis import (
    ANTI_PHASE,
    IN_PHASE,
    Peak,
    SpectrumEstimate,
    SyncConfig,
    detect_sync,
    late_span,
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
        _scans[model_key] = scan_transition(model, 0.2, 0.0,
                                            np.arange(lo, hi, 0.05))
    return _scans[model_key]


def _forward(model, omega_p, t_max=2000.0):
    return simulate(QubitPairParams(omega_p=omega_p, lam=0.2), model,
                    default_time_grid(t_max))


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


def test_transition_point_ratio_is_tan_squared_at_t0():
    tp = transition_point(0.2, 0.0, ROOT_S2_CUT)
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
    (analytic,) = collect_constraints(OHMIC, [0.4], method="analytic",
                                      omega_q=2.0)
    assert analytic.omega_p_bar == pytest.approx(1.99684, abs=1e-4)
    (signal,) = collect_constraints(OHMIC, [0.4], method="signal", omega_q=2.0)
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
    sync_cfg = cfg.sync_config()
    full = default_time_grid(cfg.t_max, cfg.dt)
    part = full[late_span(full, sync_cfg)]
    assert (full.size, part.size) == (40001, 6240)
    labels = []
    for w in np.arange(lo, hi, 0.05):
        labels.append(_classify_point(model, 0.2, 0.0, w, 1.0, full,
                                      sync_cfg, cfg.kappa))
        assert _classify_point(model, 0.2, 0.0, w, 1.0, part, sync_cfg,
                               cfg.kappa) == labels[-1], w
    assert {1, 2} <= set(labels)


def test_scan_single_branch_raises():
    with pytest.raises(NoTransitionError):
        scan_transition(QUARTIC, 0.2, 0.0, np.array([1.15, 1.20, 1.25]))


def test_scan_band_below_grid_step_raises():
    grid = ROOT_S2_CUT + 0.008 * np.arange(-3, 4)
    with pytest.raises(ResolutionError):
        scan_transition(QUARTIC, 0.2, 0.0, grid)


def test_scan_grid_validation():
    with pytest.raises(ValueError):
        scan_transition(OHMIC, 0.2, 0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        scan_transition(OHMIC, 0.2, 0.0, np.array([1.0, 0.9, 1.1]))


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
    pts = collect_constraints(QUARTIC, [0.3, 0.1, 0.2, 0.25, 0.15],
                              method="analytic")
    assert [tp.lam for tp in pts] == [0.1, 0.15, 0.2, 0.25, 0.3]
    pairs = {(round(tp.E1, 9), round(tp.E2, 9)) for tp in pts}
    assert len(pairs) == 5
    for tp in pts:
        implied = evaluate_J(QUARTIC, tp.E1) / evaluate_J(QUARTIC, tp.E2)
        assert tp.ratio == pytest.approx(implied, rel=1e-9)


def test_collect_reports_partial_failures():
    failures = []
    with pytest.warns(UserWarning, match="lam=0"):
        pts = collect_constraints(QUARTIC, [0.0, 0.2], method="analytic",
                                  failures=failures)
    assert len(pts) == 1 and pts[0].lam == 0.2
    assert len(failures) == 1 and failures[0][0] == 0.0
    with pytest.raises(NoTransitionError):
        with pytest.warns(UserWarning):
            collect_constraints(QUARTIC, [0.0], method="analytic")


def _exact_datum(model, omega_p=1.2, lam=0.2):
    eig = diagonalize(QubitPairParams(omega_p=omega_p, lam=lam))
    rates = lindblad_rates(eig, model, 0.0)
    sigma = eig.theta_plus + eig.theta_minus
    return LinewidthDatum(fwhm=rates.g1_total, omega=eig.E1,
                          trig_sq=float(np.cos(sigma) ** 2))


def test_power_law_fit_closed_loop():
    pts = collect_constraints(QUARTIC, [0.1, 0.15, 0.2, 0.25, 0.3],
                              method="analytic")
    fit = fit_spectral_density(pts, omega_c=20.0)
    assert fit.s == pytest.approx(2.0, abs=1e-6)
    assert fit.residuals.shape == (5,)
    assert fit.gamma0 is None and fit.model is None

    pts_pure = collect_constraints(QUARTIC_PURE, [0.1, 0.2, 0.3],
                                   method="analytic")
    fit_pure = fit_spectral_density(pts_pure)
    assert fit_pure.s == pytest.approx(2.0, abs=1e-8)
    assert fit_pure.diagnostics["method"] == "closed-form"


def test_cutoff_fit_is_a_function_of_the_ratios():
    """With omega_c given, s moves by rounding only when the ratios move by
    one part in 1e15, also when the constraints do not fit exactly."""
    pts = collect_constraints(QUARTIC, [0.1, 0.15, 0.2, 0.25, 0.3],
                              method="analytic")
    noisy = [replace(c, ratio=c.ratio * np.exp(0.01 * (-1) ** k))
             for k, c in enumerate(pts)]
    bumped = [replace(c, ratio=c.ratio * (1.0 + 1e-15)) for c in noisy]
    s_fit = fit_spectral_density(noisy, omega_c=20.0).s
    assert abs(fit_spectral_density(bumped, omega_c=20.0).s - s_fit) <= 1e-13


def test_fit_is_kappa_invariant():
    base = collect_constraints(QUARTIC, [0.1, 0.2, 0.3], method="analytic")
    other = collect_constraints(QUARTIC, [0.1, 0.2, 0.3], method="analytic",
                                config=ScanConfig(kappa=5.0))
    s_base = fit_spectral_density(base, omega_c=20.0).s
    s_other = fit_spectral_density(other, omega_c=20.0).s
    assert s_base == pytest.approx(s_other, rel=1e-12)


def test_fit_ignores_overall_amplitude():
    """Rescaling gamma0 of the ground truth leaves the fitted exponent alone."""
    bright = PowerLawCutoff(gamma0=0.03, s=2.0, omega_c=20.0)
    s_dim = fit_spectral_density(
        collect_constraints(QUARTIC, [0.1, 0.2, 0.3], method="analytic"),
        omega_c=20.0).s
    s_bright = fit_spectral_density(
        collect_constraints(bright, [0.1, 0.2, 0.3], method="analytic"),
        omega_c=20.0).s
    assert s_dim == pytest.approx(s_bright, rel=1e-12)


def test_gamma0_from_linewidth_datum():
    pts = collect_constraints(QUARTIC, [0.1, 0.15, 0.2, 0.25, 0.3],
                              method="analytic")
    fit = fit_spectral_density(pts, datum=_exact_datum(QUARTIC), omega_c=20.0)
    assert fit.gamma0 == pytest.approx(0.01, rel=0.01)
    assert isinstance(fit.model, PowerLawCutoff)
    assert fit.model.s == fit.s and fit.model.omega_c == 20.0


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_spectral_density([])
    with pytest.raises(ValueError):
        fit_spectral_density([transition_point(0.2, 0.0, 1.0)], family="spline")
    falling = TransitionPoint(lam=0.2, omega_p_bar=1.0, E1=1.3, E2=0.9,
                              ratio=0.5)
    with pytest.raises(InversionError):
        fit_spectral_density([falling])
    with pytest.raises(InversionError):
        fit_spectral_density([falling], omega_c=20.0)


def test_tabulated_fit_tracks_truth():
    pts = collect_constraints(QUARTIC, [0.1, 0.15, 0.2, 0.25, 0.3],
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
    pts = collect_constraints(QUARTIC, [0.1, 0.2, 0.3], method="analytic")
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


def test_records_round_trip_json():
    tp = _scan("quartic")
    rec = transition_point_to_record(tp)
    assert json.loads(json.dumps(rec))["lambda"] == 0.2
    assert rec["omega_p_bar"] == tp.omega_p_bar

    pts = collect_constraints(QUARTIC, [0.1, 0.2, 0.3], method="analytic")
    fit = fit_spectral_density(pts, datum=_exact_datum(QUARTIC), omega_c=20.0)
    rec = json.loads(json.dumps(reconstruction_to_record(fit)))
    assert rec["family"] == "power-law"
    assert len(rec["residuals"]) == 3
    restored = model_from_config(rec["model"])
    assert restored == fit.model
