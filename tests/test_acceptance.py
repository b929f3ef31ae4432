"""Acceptance gate: one test per shipping criterion, in order.

Each test prints a `[criterion NN] <label>: PASS/FAIL` line (shown by
pytest on failure or with -rA; the -v status line carries the same verdict
through the test name).  Trajectories are cached in a shared bank so the
physicality sweep in criterion 9 covers exactly the states the earlier
criteria were judged on.
"""

import contextlib
import csv
import json
import time

import numpy as np
import pytest

from syncprobe.bath import (
    KAPPA_DEFAULT,
    PowerLawCutoff,
    Tabulated,
    lindblad_rates,
)
from syncprobe.cli import main as cli_main
from syncprobe.dynamics import (
    default_time_grid,
    evolve_numeric,
    plus_plus_state,
    steady_state,
    to_computational_basis,
    to_eigenmode_basis,
)
from syncprobe.probe_protocol import (
    LinewidthDatum,
    collect_constraints,
    fit_spectral_density,
    infer_system_params,
    predict_transition,
    scan_transition,
    simulate,
)
from syncprobe.signal_analysis import (
    NotResolvableError,
    SyncConfig,
    detect_sync,
    mutual_information,
    peak_linewidth,
    spin_correlator,
    windowed_fft,
)
from syncprobe.spin_model import (
    QubitPairParams,
    diagonalize,
    eigenmode_transform,
)

from oracles import eigenmode_states

OHMIC = PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=20.0)
QUARTIC = PowerLawCutoff(gamma0=0.01, s=2.0, omega_c=20.0)
LAMS = [0.1, 0.15, 0.2, 0.25, 0.3]

# long-horizon analysis window used near the transition, where both decay
# rates are within a factor of ~1.5 of each other and need time to separate
LONG = SyncConfig(window=3.0, late_window=(1600.0, 1910.0), noise_floor=0.0)


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {label}: FAIL")
        raise
    print(f"[criterion {num:02d}] {label}: PASS")


# ---------------------------------------------------------------------------
# shared trajectory bank (criterion 9 re-checks everything simulated here)

_BANK: dict = {}


def _sim(omega_p, lam=0.2, model=OHMIC, T=0.0, t_max=400.0):
    key = (omega_p, lam, model, T, t_max)
    if key not in _BANK:
        params = QubitPairParams(omega_p=omega_p, lam=lam, temperature=T)
        _BANK[key] = simulate(params, model, default_time_grid(t_max, 0.05))
    return _BANK[key]


def _states(entry):
    """The banked run's eigenmode-basis states, from |++>."""
    return eigenmode_states(
        entry.eig, entry.rates,
        to_eigenmode_basis(plus_plus_state(), entry.transform), entry.traj.times)


def _late_corr(entry):
    sel = (entry.traj.times >= 200.0) & (entry.traj.times <= 310.0)
    return float(np.mean([
        abs(spin_correlator(to_computational_basis(rho, entry.transform)))
        for rho in _states(entry)[sel]]))


# ---------------------------------------------------------------------------

def test_criterion_01_oracle_equivalence():
    with criterion(1, "closed-form propagator matches dense numeric "
                      "solver to 1e-8"):
        t0 = time.perf_counter()
        fig1 = _sim(1.2)
        numeric = evolve_numeric(QubitPairParams(omega_p=1.2, lam=0.2),
                                 OHMIC, 0.0, plus_plus_state(),
                                 fig1.traj.times)
        assert np.max(np.abs(fig1.traj.sx_q - numeric.sx_q)) <= 1e-8
        assert np.max(np.abs(fig1.traj.sx_p - numeric.sx_p)) <= 1e-8

        rng = np.random.default_rng(7)
        times = default_time_grid(40.0, 0.1)
        for _ in range(20):
            params = QubitPairParams(
                omega_p=rng.uniform(0.6, 1.4),
                lam=rng.uniform(0.05, 0.4),
                temperature=float(rng.choice([0.0, rng.uniform(0.2, 2.0)])))
            model = PowerLawCutoff(gamma0=rng.uniform(0.005, 0.03),
                                   s=rng.uniform(0.5, 2.0), omega_c=20.0)
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            rho0 = np.outer(psi, psi.conj())
            ana = simulate(params, model, times, rho0).traj
            num = evolve_numeric(params, model, None, rho0, times)
            assert np.max(np.abs(ana.sx_q - num.sx_q)) <= 1e-8
            assert np.max(np.abs(ana.sx_p - num.sx_p)) <= 1e-8
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_sync_regimes_flank_resonance():
    with criterion(2, "late-window |c| > 0.95 with opposite signs at "
                      "omega_p = 0.8/1.2, |c| < 0.3 at 1.0"):
        below = detect_sync(_sim(0.8).traj)
        above = detect_sync(_sim(1.2).traj)
        at = detect_sync(_sim(1.0).traj)
        assert below.regime == "AntiPhase" and below.c_ceil <= -0.95
        assert above.regime == "InPhase" and above.c_floor >= 0.95
        assert below.c_ceil * above.c_floor < 0.0   # opposite signs
        assert at.regime == "NoSync" and at.c_min_abs < 0.3


def test_criterion_03_transition_line():
    with criterion(3, "signal-detected transition within 0.05 of the "
                      "rate-balance prediction; pure power law closes "
                      "the tan^2 identity to 1e-6"):
        t0 = time.perf_counter()
        probe = QubitPairParams(omega_p=1.0, lam=0.2)
        for s in (0.5, 1.0, 1.5, 2.0):
            model = PowerLawCutoff(gamma0=0.01, s=s, omega_c=20.0)
            root = predict_transition(model, probe)
            tp = scan_transition(model, probe,
                                 root + np.linspace(-0.15, 0.15, 7))
            assert abs(tp.omega_p_bar - root) <= 0.05

            pure = PowerLawCutoff(gamma0=0.01, s=s)
            root_pure = predict_transition(pure, probe)
            eig = diagonalize(QubitPairParams(omega_p=root_pure, lam=0.2))
            lhs = np.tan(eig.theta_plus + eig.theta_minus) ** 2
            rhs = (eig.E1 / eig.E2) ** s
            assert abs(lhs - rhs) / rhs <= 1e-6
        assert time.perf_counter() - t0 < 120.0


def test_criterion_04_frequency_jump():
    with criterion(4, "omega_sync jumps by |E1 - E2| at the s = 2 "
                      "transition, within 2 FFT bins"):
        root = predict_transition(QUARTIC, QubitPairParams(omega_p=1.0, lam=0.2))
        below = _sim(root - 0.02, model=QUARTIC, t_max=2000.0)
        above = _sim(root + 0.02, model=QUARTIC, t_max=2000.0)
        m_below = detect_sync(below.traj, LONG)
        m_above = detect_sync(above.traj, LONG)
        assert m_below.regime == "AntiPhase"
        assert m_above.regime == "InPhase"
        # each flank locks onto its own surviving branch
        assert abs(m_below.omega_sync - below.eig.E2) < 0.02
        assert abs(m_above.omega_sync - above.eig.E1) < 0.02

        eig_bar = diagonalize(QubitPairParams(omega_p=root, lam=0.2))
        jump = abs(m_above.omega_sync - m_below.omega_sync)
        bin_width = 2.0 * np.pi / (LONG.late_window[1] - LONG.late_window[0])
        assert abs(jump - (eig_bar.E1 - eig_bar.E2)) <= 2.0 * bin_width


def test_criterion_05_spectral_windows():
    with criterion(5, "early window resolves E1 and E2 within one "
                      "interpolated bin; late window keeps one dominant "
                      "line off resonance, two comparable at 1.0"):
        for omega_p in (0.8, 1.2):
            entry = _sim(omega_p)
            early = windowed_fft(entry.traj.sx_p, entry.traj.times, 0.0, 110.0)
            df = early.freqs[1] - early.freqs[0]
            assert len(early.peaks) >= 2
            lo, hi = sorted(p.frequency for p in early.peaks[:2])
            assert abs(lo - entry.eig.E2) <= df
            assert abs(hi - entry.eig.E1) <= df

            late = windowed_fft(entry.traj.sx_p, entry.traj.times, 200.0, 310.0)
            assert late.peaks
            if len(late.peaks) > 1:
                assert late.peaks[0].height >= 3.0 * late.peaks[1].height

        entry = _sim(1.0)
        late = windowed_fft(entry.traj.sx_p, entry.traj.times, 200.0, 310.0)
        assert len(late.peaks) >= 2
        assert late.peaks[0].height < 3.0 * late.peaks[1].height


def test_criterion_06_linewidth():
    with criterion(6, "surviving-line FWHM matches the slowest Lindblad "
                      "rate within 15%; early two-mode window reports "
                      "not resolvable"):
        strong = PowerLawCutoff(gamma0=2.5e-2, s=1.0, omega_c=20.0)
        entry = _sim(1.2, model=strong)
        late = windowed_fft(entry.traj.sx_p, entry.traj.times, 200.0, 310.0)
        fwhm = peak_linewidth(late, 0)
        slowest = min(entry.rates.g1_total, entry.rates.g2_total)
        assert abs(fwhm - slowest) / slowest <= 0.15

        early = windowed_fft(entry.traj.sx_p, entry.traj.times, 0.0, 110.0)
        with pytest.raises(NotResolvableError):
            peak_linewidth(early, 0)


def test_criterion_07_closed_loop_reconstruction():
    with criterion(7, "s = 2 truth recovered to 1e-4 (analytic "
                      "constraints), 0.1 (signal path), gamma0 to 20% "
                      "from a measured linewidth"):
        analytic, failures = collect_constraints(QUARTIC, LAMS,
                                                 method="analytic")
        assert not failures
        fit = fit_spectral_density(analytic, family="power-law", omega_c=20.0)
        assert abs(fit.s - 2.0) <= 1e-4

        signal, failures = collect_constraints(QUARTIC, LAMS, method="signal")
        assert not failures
        fit_sig = fit_spectral_density(signal, family="power-law",
                                       omega_c=20.0)
        assert abs(fit_sig.s - 2.0) <= 0.1

        entry = _sim(1.2, model=QUARTIC)
        late = windowed_fft(entry.traj.sx_p, entry.traj.times, 200.0, 310.0)
        datum = LinewidthDatum(
            fwhm=peak_linewidth(late, 0),
            omega=late.peaks[0].frequency,
            trig_sq=float(np.cos(entry.eig.theta_plus
                                 + entry.eig.theta_minus) ** 2))
        fit_datum = fit_spectral_density(analytic, family="power-law",
                                         datum=datum, omega_c=20.0)
        assert abs(fit_datum.gamma0 - 0.01) / 0.01 <= 0.20


def test_criterion_08_parameter_inference():
    with criterion(8, "omega_q within 2% and lambda within 5% from "
                      "early-window spectra at two probe settings"):
        settings = (0.9, 1.2)
        spectra = []
        for omega_p in settings:
            entry = _sim(omega_p)
            spectra.append(windowed_fft(entry.traj.sx_p, entry.traj.times,
                                        0.0, 110.0))
        omega_q, lam = infer_system_params(spectra, settings)
        assert abs(omega_q - 1.0) <= 0.02
        assert abs(lam - 0.2) <= 0.05 * 0.2


def test_criterion_09_cptp_and_detailed_balance():
    with criterion(9, "trace, Hermiticity, positivity to 1e-10 along all "
                      "banked trajectories; detailed balance to 1e-12"):
        # make sure the bank holds the states criteria 1-7 were judged on
        for omega_p in (0.8, 1.0, 1.2):
            _sim(omega_p)
        _sim(1.2, model=QUARTIC)
        _sim(1.2, model=PowerLawCutoff(gamma0=2.5e-2, s=1.0, omega_c=20.0))
        root = predict_transition(QUARTIC, QubitPairParams(omega_p=1.0, lam=0.2))
        _sim(root - 0.02, model=QUARTIC, t_max=2000.0)
        _sim(root + 0.02, model=QUARTIC, t_max=2000.0)

        assert len(_BANK) >= 7
        for entry in _BANK.values():
            states = _states(entry)
            traces = np.einsum("nii->n", states)
            assert np.max(np.abs(traces - 1.0)) <= 1e-10
            assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) <= 1e-10
            assert np.min(np.linalg.eigvalsh(states)) >= -1e-10

        # numeric solver obeys the same physicality contract
        numeric = evolve_numeric(QubitPairParams(omega_p=1.2, lam=0.2),
                                 OHMIC, 0.0, plus_plus_state(),
                                 default_time_grid(40.0, 0.1))
        traces = np.einsum("nii->n", numeric.states)
        assert np.max(np.abs(traces - 1.0)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(numeric.states)) >= -1e-10

        for T in (0.5, 1.0, 10.0):
            for omega_p, lam in ((0.8, 0.2), (1.2, 0.3), (1.05, 0.1)):
                eig = diagonalize(QubitPairParams(omega_p=omega_p, lam=lam,
                                                  temperature=T))
                rates = lindblad_rates(eig, OHMIC, T)
                for up, down, energy in (
                        (rates.g1_up, rates.g1_down, eig.E1),
                        (rates.g2_up, rates.g2_down, eig.E2)):
                    target = np.exp(-energy / T)
                    assert abs(up / down - target) <= 1e-12 * target


def test_criterion_10_negative_controls():
    with criterion(10, "steady-state MI blind to J and smooth across the "
                       "jump; interspin correlator enhanced in every "
                       "synchronized regime"):
        # MI of the T = 0 fixed point must not care which bath drove it there
        params = QubitPairParams(omega_p=0.9, lam=0.2)
        eig = diagonalize(params)
        v = eigenmode_transform(params, eig)
        baths = (OHMIC, QUARTIC,
                 Tabulated(omegas=[0.5, 1.0, 2.0], js=[0.01, 0.02, 0.03]))
        mis = []
        for model in baths:
            rates = lindblad_rates(eig, model, 0.0)
            mis.append(mutual_information(
                to_computational_basis(steady_state(rates), v)))
        assert max(mis) - min(mis) <= 1e-12

        # continuity across the transition, against a jumping omega_sync
        root = predict_transition(QUARTIC, QubitPairParams(omega_p=1.0, lam=0.2))
        grid = root + np.arange(-5, 6) * 0.01
        mi_line = []
        for omega_p in grid:
            p = QubitPairParams(omega_p=omega_p, lam=0.2)
            eig_p = diagonalize(p)
            r = lindblad_rates(eig_p, QUARTIC, 0.0)
            mi_line.append(mutual_information(to_computational_basis(
                steady_state(r), eigenmode_transform(p, eig_p))))
        assert np.max(np.abs(np.diff(mi_line))) < 0.05
        m_below = detect_sync(_sim(root - 0.02, model=QUARTIC,
                                   t_max=2000.0).traj, LONG)
        m_above = detect_sync(_sim(root + 0.02, model=QUARTIC,
                                   t_max=2000.0).traj, LONG)
        assert abs(m_above.omega_sync - m_below.omega_sync) > 0.3

        # the correlator, unlike MI, does see the transition
        for s in (0.5, 1.0, 1.5, 2.0):
            model = PowerLawCutoff(gamma0=0.01, s=s, omega_c=20.0)
            root_s = predict_transition(model,
                                        QubitPairParams(omega_p=1.0, lam=0.2))
            anti = _sim(root_s - 0.15, model=model)
            none = _sim(root_s, model=model)
            inph = _sim(root_s + 0.15, model=model)
            assert detect_sync(anti.traj).regime == "AntiPhase"
            assert detect_sync(none.traj).regime == "NoSync"
            assert detect_sync(inph.traj).regime == "InPhase"
            c_none = _late_corr(none)
            assert _late_corr(anti) > c_none
            assert _late_corr(inph) > c_none


def test_criterion_11_temperature_ladder():
    with criterion(11, "antiphase lock at T = 0 and T = 1; T = 10 decays "
                       "below the detection floor (NoSync-by-decay)"):
        cold = detect_sync(_sim(0.8, T=0.0).traj)
        warm = detect_sync(_sim(0.8, T=1.0).traj)
        hot = detect_sync(_sim(0.8, T=10.0).traj)
        assert cold.regime == "AntiPhase" and cold.c_ceil <= -0.9
        assert warm.regime == "AntiPhase" and warm.c_ceil <= -0.9
        assert not cold.below_floor and not warm.below_floor
        assert hot.regime == "NoSync" and hot.below_floor


# Every artifact-producing command once, each job under its command name
# (a "-signal" suffix runs the same command); criterion 12 and the digest
# pin in test_artifact_digests.py both run these.
_OHMIC_CFG = {"kind": "power-law", "gamma0": 0.01, "s": 1.0,
              "omega_c": 20.0}
_BASE = {"params": {"omega_p": 1.2, "lambda": 0.2},
         "bath": _OHMIC_CFG,
         "time_grid": {"t_max": 400.0, "dt": 0.05}}
BYTE_JOBS = {
    "evolve": dict(_BASE),
    "spectrum": dict(_BASE, windows=[[0.0, 110.0], [200.0, 310.0]]),
    "sweep": {
        "base": dict(_BASE),
        "axes": [{"name": "omega_p", "values": [0.8, 1.2]},
                 {"name": "lambda", "values": [0.15, 0.25]}],
        "record": ["c", "omega_sync", "regime"],
    },
    "scan-transition": {
        "lambda": 0.2, "bath": _OHMIC_CFG,
        "grid": {"lo": 0.93, "hi": 1.07, "steps": 5},
    },
    "reconstruct": {
        "bath": {"kind": "power-law", "gamma0": 0.01, "s": 2.0,
                 "omega_c": 20.0},
        "lambdas": LAMS, "method": "analytic",
        "fit": {"family": "power-law", "omega_c": 20.0},
    },
    # lam = 1 has no crossing in the bracket: exit 1, one warning
    "reconstruct-signal": {
        "bath": {"kind": "power-law", "gamma0": 0.01, "s": 2.0,
                 "omega_c": 20.0},
        "lambdas": [1.0] + LAMS, "method": "signal",
        "fit": {"family": "power-law", "omega_c": 20.0},
    },
}


def test_criterion_12_byte_determinism(tmp_path, capsys):
    with criterion(12, "repeated runs of every artifact-producing command "
                       "are byte-identical"):
        expected_warnings = {"reconstruct-signal": [
            "warning: lam=1: rate ratio does not change sign on [0.5, 1.5] "
            "(log ratio 3.13 -> 0.774)"]}
        for name, cfg in BYTE_JOBS.items():
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            outs = []
            for attempt, workers in (("a", "1"), ("b", "2")):
                out = tmp_path / f"{name}-{attempt}"
                code = cli_main([name.removesuffix("-signal"), "--config",
                                 str(cfg_path), "--out", str(out),
                                 "--workers", workers])
                warned = [line for line in capsys.readouterr().err.splitlines()
                          if line.startswith("warning:")]
                assert warned == expected_warnings.get(name, []), name
                assert code == (1 if warned else 0), f"{name} exited {code}"
                outs.append(out)
            files_a = sorted(p.name for p in outs[0].iterdir())
            files_b = sorted(p.name for p in outs[1].iterdir())
            assert files_a == files_b and files_a, f"{name} wrote nothing"
            for fname in files_a:
                assert (outs[0] / fname).read_bytes() == \
                    (outs[1] / fname).read_bytes(), f"{name}/{fname} differs"
