import io
import json

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from syncprobe import (
    ANTI_PHASE,
    IN_PHASE,
    NO_SYNC,
    NotResolvableError,
    PowerLawCutoff,
    QubitPairParams,
    SyncConfig,
    Tabulated,
    Trajectory,
    default_time_grid,
    detect_sync,
    diagonalize,
    direct_diagonalize,
    eigenmode_transform,
    evaluate_J,
    late_span,
    lindblad_rates,
    mutual_information,
    peak_linewidth,
    simulate,
    spectrum_to_csv,
    spin_correlator,
    steady_state,
    sync_measure,
    sync_metrics_to_record,
    to_computational_basis,
    windowed_fft,
)

OHMIC = PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=20.0)

_cache: dict = {}


def _reference(omega_p, gamma0=0.01):
    """Simulation of the shared demo setup, memoized across tests."""
    key = (omega_p, gamma0)
    if key not in _cache:
        _cache[key] = simulate(
            QubitPairParams(omega_p=omega_p, lam=0.2, temperature=0.0),
            PowerLawCutoff(gamma0=gamma0, s=1.0, omega_c=20.0),
            default_time_grid(320.0))
    return _cache[key]


# ---------------------------------------------------------------- sync_measure

def test_sync_measure_identical_and_negated():
    t = np.linspace(0.0, 20.0, 200)
    f = np.sin(t)
    assert sync_measure(f, f, 0, 200) == pytest.approx(1.0, abs=1e-14)
    assert sync_measure(f, -f, 0, 200) == pytest.approx(-1.0, abs=1e-14)


def test_sync_measure_quadrature_orthogonal():
    # integer number of periods on the grid: discrete sum vanishes exactly
    n = 64
    t = np.arange(n) * (4 * 2 * np.pi / n)
    c = sync_measure(np.sin(t), np.cos(t), 0, n)
    assert abs(c) < 1e-10


def test_sync_measure_affine_invariance_and_symmetry():
    rng = np.random.default_rng(3)
    f = rng.normal(size=120)
    g = rng.normal(size=120)
    c = sync_measure(f, g, 7, 64)
    assert abs(c) <= 1.0
    assert sync_measure(g, f, 7, 64) == c
    assert sync_measure(3.7 * f + 2.0, g, 7, 64) == pytest.approx(c, abs=1e-12)
    assert sync_measure(-0.4 * f + 1.0, g, 7, 64) == pytest.approx(-c, abs=1e-12)


def test_sync_measure_zero_variance_is_none():
    f = np.ones(50)
    g = np.sin(np.linspace(0, 5, 50))
    assert sync_measure(f, g, 0, 50) is None
    assert sync_measure(g, f, 0, 50) is None


def test_sync_measure_window_validation():
    f = np.zeros(20)
    with pytest.raises(ValueError):
        sync_measure(f, f, 0, 7)
    with pytest.raises(ValueError):
        sync_measure(f, f, 15, 8)


# ---------------------------------------------------------------- windowed_fft

def test_single_synthetic_peak_within_one_bin():
    e2 = 0.894427190999916
    times = default_time_grid(110.0)
    sig = np.exp(-0.01 * times) * np.cos(e2 * times)
    est = windowed_fft(sig, times, 0.0, 110.0)
    df = est.freqs[1] - est.freqs[0]
    assert len(est.peaks) == 1
    assert abs(est.peaks[0].frequency - e2) < df


def test_two_synthetic_modes_sorted_by_height():
    times = default_time_grid(110.0)
    sig = (0.7 * np.exp(-0.02 * times) * np.cos(1.34 * times)
           + 0.4 * np.exp(-0.02 * times) * np.cos(0.89 * times))
    est = windowed_fft(sig, times, 0.0, 110.0)
    assert len(est.peaks) == 2
    heights = [p.height for p in est.peaks]
    assert heights == sorted(heights, reverse=True)
    found = sorted(p.frequency for p in est.peaks)
    assert found[0] == pytest.approx(0.89, abs=0.01)
    assert found[1] == pytest.approx(1.34, abs=0.01)


def test_early_window_shows_both_modes():
    eig, _, _, traj = _reference(1.2)
    est = windowed_fft(traj.sx_p, traj.times, 0.0, 110.0)
    assert len(est.peaks) == 2
    found = sorted(p.frequency for p in est.peaks)
    assert found[0] == pytest.approx(eig.E2, abs=0.02)
    assert found[1] == pytest.approx(eig.E1, abs=0.02)


def test_late_window_single_surviving_mode():
    eig, _, _, traj = _reference(1.2)
    est = windowed_fft(traj.sx_p, traj.times, 200.0, 310.0)
    assert len(est.peaks) == 1
    assert est.peaks[0].frequency == pytest.approx(eig.E1, abs=0.02)
    assert np.all(est.magnitude >= 0.0)


def test_windowed_fft_input_validation():
    times = default_time_grid(110.0)
    sig = np.cos(times)
    with pytest.raises(ValueError):
        windowed_fft(sig, times ** 1.01, 0.0, 110.0)
    with pytest.raises(ValueError):
        windowed_fft(sig, times, 0.0, 1.0)


def test_windowed_fft_peaks_match_height_floor_filter(monkeypatch):
    """Filtering on height=prom keeps exactly the peaks height=floor kept."""
    real = scipy.signal.find_peaks
    calls = []

    def recording(x, **kwargs):
        idx, props = real(x, **kwargs)
        calls.append((np.array(x), idx))
        return idx, props

    monkeypatch.setattr(scipy.signal, "find_peaks", recording)
    rng = np.random.default_rng(11)
    times = default_time_grid(320.0)
    _, _, _, traj = _reference(1.2)
    signals = [
        (traj.sx_p, 0.0, 110.0), (traj.sx_p, 200.0, 310.0),
        (traj.sx_q, 100.0, 210.0),
        (rng.normal(size=times.size), 0.0, 110.0),
        (np.cos(1.1 * times) + 0.3 * rng.normal(size=times.size), 0.0, 320.0),
        (sum(np.cos(w * times) for w in (0.5, 0.9, 1.3, 2.2)), 50.0, 150.0),
        # a weak line just above the prominence floor (5% of the main one)
        (np.cos(times) + 0.06 * np.cos(1.6 * times), 0.0, 320.0),
    ]
    for sig, a, b in signals:
        windowed_fft(sig, times, a, b)
    assert len(calls) == len(signals)
    assert max(idx.size for _, idx in calls) > 2
    for spec, idx in calls:
        floor = 5.0 * float(np.median(spec))
        prom = max(floor, 0.05 * float(np.max(spec)))
        ref, _ = real(spec, height=floor, prominence=prom)
        np.testing.assert_array_equal(idx, ref)


def test_windowed_fft_step_from_whole_grid():
    """An offset slice of a grid gives the frequencies of the grid itself;
    its first difference alone is a few ulps of t = 1600 off."""
    times = default_time_grid(2000.0)
    part = slice(31980, 38220)
    assert abs((times[31981] - times[31980]) - 0.05) > 1e-13
    sig = np.cos(1.1 * times)
    full = windowed_fft(sig, times, 1600.0, 1910.0)
    cut = windowed_fft(sig[part], times[part], 1600.0, 1910.0)
    np.testing.assert_array_equal(cut.magnitude, full.magnitude)
    np.testing.assert_allclose(cut.freqs, full.freqs, rtol=1e-15, atol=0.0)


# -------------------------------------------------------------- peak_linewidth

def test_linewidth_synthetic_long_window():
    times = default_time_grid(400.0)
    sig = np.exp(-0.5 * 0.05 * times) * np.cos(1.0 * times)
    est = windowed_fft(sig, times, 0.0, 400.0)
    assert peak_linewidth(est, 0) == pytest.approx(0.05, rel=0.10)


def test_linewidth_synthetic_short_window_corrected():
    # window length only ~1.1 amplitude-decay times: the finite-window
    # convolution dominates the raw shape, and must not bias the estimate
    times = default_time_grid(110.0)
    sig = np.exp(-0.5 * 0.02 * times) * np.cos(1.0 * times)
    est = windowed_fft(sig, times, 0.0, 110.0)
    assert peak_linewidth(est, 0) == pytest.approx(0.02, rel=0.10)


def test_linewidth_close_peaks_not_resolvable():
    times = default_time_grid(400.0)
    sig = (np.exp(-0.025 * times) * np.cos(1.0 * times)
           + 0.8 * np.exp(-0.025 * times) * np.cos(1.25 * times))
    est = windowed_fft(sig, times, 0.0, 400.0)
    assert len(est.peaks) == 2
    with pytest.raises(NotResolvableError):
        peak_linewidth(est, 0)


def test_linewidth_two_mode_early_window_not_resolvable():
    _, _, _, traj = _reference(1.2, gamma0=2.5e-2)
    est = windowed_fft(traj.sx_p, traj.times, 0.0, 110.0)
    with pytest.raises(NotResolvableError):
        peak_linewidth(est, 0)


def test_linewidth_matches_surviving_rate():
    _, rates, _, traj = _reference(1.2, gamma0=2.5e-2)
    est = windowed_fft(traj.sx_p, traj.times, 200.0, 310.0)
    fwhm = peak_linewidth(est, 0)
    slowest = min(rates.g1_total, rates.g2_total)
    assert fwhm == pytest.approx(slowest, rel=0.15)


# ---------------------------------------------------- state-based indicators

def test_mutual_information_product_state():
    rho_q = np.diag([0.7, 0.3])
    rho_p = np.array([[0.5, 0.2], [0.2, 0.5]])
    assert mutual_information(np.kron(rho_q, rho_p)) < 1e-12


def test_mutual_information_bell_state():
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = np.outer(psi, psi)
    assert mutual_information(rho) == pytest.approx(2 * np.log(2), abs=1e-12)


def test_mutual_information_local_unitary_invariance():
    rng = np.random.default_rng(11)

    def haar2(r):
        a = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
        q, rr = np.linalg.qr(a)
        return q * (np.diag(rr) / np.abs(np.diag(rr)))

    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        u = np.kron(haar2(rng), haar2(rng))
        before = mutual_information(rho)
        after = mutual_information(u @ rho @ u.conj().T)
        assert after == pytest.approx(before, abs=1e-10)


def test_steady_state_mi_ignores_bath_model():
    p = QubitPairParams(omega_p=1.2, lam=0.2, temperature=0.0)
    eig = diagonalize(p)
    grid = np.linspace(0.2, 3.0, 40)
    models = [
        OHMIC,
        PowerLawCutoff(gamma0=5e-3, s=2.0, omega_c=10.0),
        Tabulated(omegas=grid, js=evaluate_J(OHMIC, grid)),
    ]
    mis = []
    for model in models:
        rates = lindblad_rates(eig, model, T=0.0)
        rho = to_computational_basis(steady_state(rates),
                                     eigenmode_transform(p, eig))
        mis.append(mutual_information(rho))
    assert max(mis) - min(mis) < 1e-12
    # the T=0 steady state is the ground state of the coupled pair
    _, evecs = direct_diagonalize(p)
    ground = np.outer(evecs[:, 0], evecs[:, 0].conj())
    assert mis[0] == pytest.approx(mutual_information(ground), abs=1e-12)
    assert mis[0] > 0.05


def test_spin_correlator_reference_values():
    assert spin_correlator(0.25 * np.eye(4)) == 0.0
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    c = spin_correlator(np.outer(psi, psi))
    assert c == pytest.approx(0.5 + 0.0j, abs=1e-15)


# ----------------------------------------------------------------- detect_sync

def test_detect_sync_reference_regimes():
    eig12, _, _, traj12 = _reference(1.2)
    eig08, _, _, traj08 = _reference(0.8)
    _, _, _, traj10 = _reference(1.0)

    m12 = detect_sync(traj12)
    assert m12.regime == IN_PHASE
    assert m12.c_floor > 0.95
    assert abs(m12.omega_sync - eig12.E1) < 0.02

    m08 = detect_sync(traj08)
    assert m08.regime == ANTI_PHASE
    assert m08.c_ceil < -0.95
    assert abs(m08.omega_sync - eig08.E2) < 0.02

    m10 = detect_sync(traj10)
    assert m10.regime == NO_SYNC
    assert m10.c_min_abs < 0.3
    assert m10.omega_sync is None

    for m in (m12, m08, m10):
        vals = m.c_values[~np.isnan(m.c_values)]
        assert np.all(vals >= -1.0) and np.all(vals <= 1.0)


def test_detect_sync_window_insensitive_within_factor_two():
    for omega_p, expected in ((1.2, IN_PHASE), (0.8, ANTI_PHASE), (1.0, NO_SYNC)):
        _, _, _, traj = _reference(omega_p)
        for window in (1.5, 3.0, 6.0):
            m = detect_sync(traj, SyncConfig(window=window))
            assert m.regime == expected, (omega_p, window, m.regime)


def _per_window_reference(traj, config):
    """The one-window-at-a-time sync_measure loop, as a reference."""
    times = traj.times
    dt = times[1] - times[0]
    win_n = max(8, int(round(config.window / dt)))
    step = config.step if config.step is not None else config.window / 4.0
    step_n = max(1, int(round(step / dt)))
    starts = range(0, times.size - win_n + 1, step_n)
    c_times = np.array([times[s] + 0.5 * config.window for s in starts])
    c_values = np.array([np.nan if (c := sync_measure(traj.sx_q, traj.sx_p,
                                                      s, win_n)) is None
                         else c for s in starts])
    return c_times, c_values


def test_detect_sync_matches_per_window_reference():
    times = default_time_grid(320.0)
    # zero-variance stretches in each channel, then constant ones in both
    sx_q = 0.8 * np.cos(0.9 * times)
    sx_p = 0.5 * np.cos(0.9 * times + 0.4) * np.exp(-0.01 * times)
    sx_q[1000:1400] = 0.0
    sx_p[1700:1900] = 0.0
    sx_p[2000:2300] = 0.25
    sx_q[2000:2300] = -0.5
    flat = Trajectory(times=times, sx_q=sx_q, sx_p=sx_p)
    cases = [(_reference(w)[3], cfg) for w in (0.8, 1.0, 1.2)
             for cfg in (SyncConfig(), SyncConfig(window=1.7, step=0.35))]
    cases += [(flat, SyncConfig()), (flat, SyncConfig(window=0.2, step=0.05))]
    saw_nan = False
    for traj, cfg in cases:
        m = detect_sync(traj, cfg)
        ref_t, ref_c = _per_window_reference(traj, cfg)
        np.testing.assert_array_equal(m.c_times, ref_t)
        nan = np.isnan(ref_c)
        np.testing.assert_array_equal(np.isnan(m.c_values), nan)
        assert np.max(np.abs(m.c_values[~nan] - ref_c[~nan])) < 1e-12
        saw_nan = saw_nan or bool(nan.any())
    assert saw_nan


def test_detect_sync_dead_signal_is_nosync():
    times = default_time_grid(320.0)
    sig = 0.5 * np.exp(-0.12 * times) * np.cos(times)
    traj = Trajectory(times=times, sx_q=sig, sx_p=sig.copy())
    m = detect_sync(traj)
    assert m.regime == NO_SYNC
    assert m.omega_sync is None


def test_detect_sync_needs_late_window():
    times = default_time_grid(100.0)
    traj = Trajectory(times=times, sx_q=np.cos(times), sx_p=np.cos(times))
    with pytest.raises(ValueError):
        detect_sync(traj)


# ------------------------------------------------------------------- late_span

def _span_pair(times, cfg, omega_p=1.1, gamma0=0.01, lam=0.2):
    """detect_sync on the whole grid and on its late span, each evolved on
    its own grid as the scans and sweeps do."""
    p = QubitPairParams(omega_p=omega_p, lam=lam, temperature=0.0)
    model = PowerLawCutoff(gamma0=gamma0, s=1.0, omega_c=20.0)
    span = late_span(times, cfg)
    full = detect_sync(simulate(p, model, times).traj, cfg)
    part = detect_sync(simulate(p, model, times[span]).traj, cfg)
    return full, part, span


def _assert_same_verdict(full, part, rtol=1e-15):
    assert part.regime == full.regime
    assert part.below_floor == full.below_floor
    for name in ("c_floor", "c_ceil", "c_min_abs"):
        assert getattr(part, name) == getattr(full, name), name
    if full.omega_sync is None:
        assert part.omega_sync is None
    else:
        assert abs(part.omega_sync - full.omega_sync) \
            <= rtol * abs(full.omega_sync)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(window=st.floats(0.4, 6.0),
       step_frac=st.one_of(st.none(), st.floats(0.05, 1.5)),
       dt=st.floats(0.01, 0.2), t_max=st.floats(60.0, 400.0),
       lo_frac=st.floats(0.0, 0.9), width_frac=st.floats(0.0, 1.0),
       omega_p=st.floats(0.6, 1.4), gamma0=st.floats(0.005, 0.05))
def test_late_span_keeps_detect_sync_verdict(window, step_frac, dt, t_max,
                                             lo_frac, width_frac, omega_p,
                                             gamma0):
    """Same windows, regime and c values on the span, bit for bit.

    omega_sync scales with the grid step, which the span reads from its
    end points t_a and t_b: each carries half an ulp, so the step is good
    to u (t_a + t_b) / (t_b - t_a), plus a few roundings of the frequency
    axis.  On the scan and sweep grids that is under 1e-15 (checked
    there); a narrow late window far from t = 0 allows more.
    """
    times = default_time_grid(t_max, dt)
    end = float(times[-1])
    lo = lo_frac * end
    # at least the 64 samples windowed_fft needs, never past the grid
    width = max(width_frac * (end - lo), 70.0 * dt)
    hi = min(lo + width, end)
    lo = min(lo, hi - 70.0 * dt)
    step = None if step_frac is None else step_frac * window
    cfg = SyncConfig(window=window, step=step, late_window=(lo, hi))
    full, part, span = _span_pair(times, cfg, omega_p=omega_p, gamma0=gamma0)
    t_a, t_b = times[span.start], times[span.stop - 1]
    u = np.finfo(float).eps / 2
    _assert_same_verdict(full, part,
                         rtol=u * ((t_a + t_b) / (t_b - t_a) + 10.0))
    assert span.start <= np.searchsorted(times, lo - 1e-12)
    late = [(m.c_times >= lo) & (m.c_times <= hi) for m in (full, part)]
    np.testing.assert_array_equal(part.c_times[late[1]],
                                  full.c_times[late[0]])
    np.testing.assert_array_equal(part.c_values[late[1]],
                                  full.c_values[late[0]])


def test_late_span_without_late_centre_is_whole_grid():
    # centres at 0.5 + 3k skip the late window: the verdict falls back to
    # the last defined c of the whole trace
    times = default_time_grid(20.0, 0.005)
    cfg = SyncConfig(window=1.0, step=3.0, late_window=(10.6, 11.1))
    full, part, span = _span_pair(times, cfg)
    assert span == slice(0, times.size)
    assert not np.any((full.c_times >= 10.6) & (full.c_times <= 11.1))
    defined = full.c_values[~np.isnan(full.c_values)]
    assert full.c_floor == full.c_ceil == defined[-1]
    _assert_same_verdict(full, part)


def test_late_span_window_longer_than_trajectory():
    times = default_time_grid(400.0)
    cfg = SyncConfig(window=500.0)
    full, part, span = _span_pair(times, cfg)
    assert span == slice(0, times.size)
    assert full.c_times.size == 0 and full.regime == "Indeterminate"
    _assert_same_verdict(full, part)


def test_late_span_sparse_windows():
    # step > window / 2: the first late-centred window starts after the
    # late window opens, so the span starts one stride earlier; the last
    # one ends before the late window does, so the span runs on to the
    # first sample past 311.13
    times = default_time_grid(400.0)
    cfg = SyncConfig(window=2.0, step=1.6, late_window=(201.05, 311.13))
    full, part, span = _span_pair(times, cfg)
    assert span == slice(4000, 6224)
    _assert_same_verdict(full, part)


def test_late_span_late_window_from_start():
    # late window opens before the first window centre (window / 2)
    times = default_time_grid(100.0)
    cfg = SyncConfig(window=3.0, late_window=(0.5, 60.0))
    full, part, span = _span_pair(times, cfg, gamma0=0.05)
    assert span.start == 0
    _assert_same_verdict(full, part)


def test_late_span_default_grids():
    """The scan and sweep defaults evolve 6 240 and 2 250 samples."""
    scan = SyncConfig(late_window=(1600.0, 1910.0))
    assert late_span(default_time_grid(2000.0), scan) == slice(31980, 38220)
    assert late_span(default_time_grid(400.0)) == slice(3975, 6225)


def test_regime_agrees_with_rate_comparison():
    # randomized sweep against the analytic rate prediction; the horizon is
    # scaled per draw so the slow mode has had time to win (12 differential
    # decay times), and the noise floor is disabled since the synthetic
    # signal is noiseless no matter how small it gets
    rng = np.random.default_rng(7)
    total = agree = attempts = 0
    while total < 40 and attempts < 400:
        attempts += 1
        p = QubitPairParams(omega_p=rng.uniform(0.6, 1.4),
                            lam=rng.uniform(0.08, 0.3),
                            temperature=0.0)
        model = PowerLawCutoff(gamma0=rng.uniform(0.01, 0.02),
                               s=float(rng.choice([0.5, 1.0, 1.5, 2.0])),
                               omega_c=20.0)
        rates = lindblad_rates(diagonalize(p), model, T=0.0)
        gap = abs(rates.g1_total - rates.g2_total)
        # asymptotic_form's sync_expected: the rates differ by over 5 %
        if not gap > 0.05 * max(rates.g1_total, rates.g2_total):
            continue
        t_star = min(12.0 / gap, 20000.0)
        n = int(round((t_star + 115.0) / 0.1))
        times = np.linspace(0.0, n * 0.1, n + 1)
        traj = simulate(p, model, times).traj
        m = detect_sync(traj, SyncConfig(late_window=(t_star, t_star + 110.0),
                                         noise_floor=0.0))
        want = IN_PHASE if rates.g1_total < rates.g2_total else ANTI_PHASE
        total += 1
        agree += m.regime == want
    assert total == 40
    assert agree / total >= 0.95


# --------------------------------------------------------------------- exports

def test_spectrum_csv_roundtrip():
    _, _, _, traj = _reference(1.2)
    est = windowed_fft(traj.sx_p, traj.times, 200.0, 310.0)
    buf = io.StringIO()
    spectrum_to_csv(est, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "freq,magnitude"
    assert len(lines) == est.freqs.size + 1
    f9, m9 = map(float, lines[9].split(","))
    assert f9 == est.freqs[8]
    assert m9 == est.magnitude[8]
    assert lines[1:] == [f"{f:.17g},{m:.17g}"
                         for f, m in zip(est.freqs, est.magnitude)]


def test_sync_metrics_record_is_json_ready():
    _, _, _, traj = _reference(1.2)
    rec = sync_metrics_to_record(detect_sync(traj))
    text = json.dumps(rec, sort_keys=True)
    back = json.loads(text)
    assert back["regime"] == IN_PHASE
    assert back["window"] == 3.0
    assert back["c_floor"] > 0.95
    assert len(back["c_values"]) == len(back["c_times"])

    # undefined correlations serialize as nulls, not NaN
    times = default_time_grid(320.0)
    flat = Trajectory(times=times, sx_q=np.zeros_like(times),
                      sx_p=np.zeros_like(times))
    rec = sync_metrics_to_record(detect_sync(flat))
    assert json.dumps(rec) is not None
    assert all(v is None for v in rec["c_values"])
