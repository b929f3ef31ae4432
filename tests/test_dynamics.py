from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncprobe import dynamics
from syncprobe import (
    LindbladRates,
    NoUniqueSteadyStateError,
    PairBatch,
    PowerLawCutoff,
    QubitPairParams,
    StateValidationError,
    Tabulated,
    Trajectory,
    asymptotic_form,
    build_operators,
    default_time_grid,
    diagonalize,
    direct_diagonalize,
    evolve_analytic,
    evolve_correlator,
    evolve_numeric,
    fock_observable_weights,
    plus_plus_state,
    simulate,
    spin_correlator,
    steady_state,
    to_computational_basis,
    to_eigenmode_basis,
    validate_density_matrix,
)
from syncprobe.cli import _write_columns
from syncprobe.probe_protocol import pair_setup
from syncprobe.spin_model import ID2, SIGMA_X

from oracles import (direct_oscillations, eigenmode_states,
                     null_vector_transform)

OHMIC = PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=20.0)


# for tests that read only the eigenstructure, rates or transform
SHORT = default_time_grid(1.0, 0.5)


def _setup(omega_p, lam=0.2, T=0.0, model=OHMIC, times=SHORT, rho0=None):
    """The pair and its simulation."""
    p = QubitPairParams(omega_p=omega_p, lam=lam, temperature=T)
    return p, simulate(p, model, times, rho0)


def _states(sim):
    """The closed-form states of ``sim`` from |++>, in the eigenmode basis."""
    return eigenmode_states(sim.eig, sim.rates,
                            to_eigenmode_basis(plus_plus_state(), sim.transform),
                            sim.traj.times)


def _random_state(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_ground_state_is_stationary():
    _, sim = _setup(1.2)
    rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)  # eigenmode vacuum
    times = default_time_grid(50.0, 0.5)
    traj = evolve_analytic(sim.eig, sim.rates, rho0, times)
    states = eigenmode_states(sim.eig, sim.rates, rho0, times)
    np.testing.assert_allclose(traj.sx_q, 0.0, atol=1e-14)
    np.testing.assert_allclose(traj.sx_p, 0.0, atol=1e-14)
    assert np.max(np.abs(states - states[0][None])) < 1e-14


def test_maximally_mixed_relaxes_without_coherence():
    _, sim = _setup(1.2)
    rho0 = 0.25 * np.eye(4, dtype=complex)
    times = default_time_grid(400.0, 1.0)
    traj = evolve_analytic(sim.eig, sim.rates, rho0, times)
    states = eigenmode_states(sim.eig, sim.rates, rho0, times)
    # coherence blocks stay identically zero; observables vanish
    np.testing.assert_allclose(traj.sx_q, 0.0, atol=1e-14)
    for state in states:
        assert np.max(np.abs(state - np.diag(np.diag(state)))) < 1e-14
    # populations head for the vacuum monotonically in trace distance
    target = np.diag([1.0, 0, 0, 0])
    dist = [0.5 * np.sum(np.abs(np.linalg.eigvalsh(s - target)))
            for s in states]
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dist, dist[1:]))
    assert dist[-1] < 1e-5


@pytest.mark.parametrize("omega_p, t_max", [(1.2, 400.0), (0.8, 100.0)])
def test_oracle_equivalence_reference_setup(omega_p, t_max):
    times = default_time_grid(t_max, 0.05)
    p, sim = _setup(omega_p, times=times)
    ta = sim.traj
    tn = evolve_numeric(p, OHMIC, 0.0, plus_plus_state(), times)
    assert np.max(np.abs(ta.sx_q - tn.sx_q)) < 1e-8
    assert np.max(np.abs(ta.sx_p - tn.sx_p)) < 1e-8


def test_oracle_reads_none_of_the_closed_form(monkeypatch):
    """evolve_numeric builds its Liouvillian from the raw eigenvectors, so it
    still runs, and still matches simulate, with every closed-form piece of
    the pair's algebra made to raise where dynamics could reach it."""
    times = default_time_grid(40.0, 0.1)
    p, sim = _setup(0.8, T=0.5, times=times)

    def forbidden(*args, **kwargs):
        raise AssertionError("the numeric oracle read the closed form")

    for name in ("diagonalize", "build_operators", "eigenmode_transform",
                 "fock_observable_weights"):
        monkeypatch.setattr(dynamics, name, forbidden, raising=False)
    tn = evolve_numeric(p, OHMIC, 0.5, plus_plus_state(), times)
    assert np.max(np.abs(sim.traj.sx_q - tn.sx_q)) < 1e-12
    assert np.max(np.abs(sim.traj.sx_p - tn.sx_p)) < 1e-12


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(23)
    times = default_time_grid(50.0, 0.1)
    worst = 0.0
    for _ in range(24):
        T = float(rng.choice([0.0, 0.5, 2.0]))
        omega_p = float(rng.uniform(0.3, 2.0))
        lam = float(rng.uniform(0.05, 0.6))
        rho0c = _random_state(rng)
        p, sim = _setup(omega_p, lam=lam, T=T, times=times, rho0=rho0c)
        ta = sim.traj
        tn = evolve_numeric(p, OHMIC, T, rho0c, times)
        worst = max(worst,
                    np.max(np.abs(ta.sx_q - tn.sx_q)),
                    np.max(np.abs(ta.sx_p - tn.sx_p)))
    assert worst < 1e-8, worst


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=40)
@given(omega_p=st.floats(0.3, 2.0), lam=st.floats(0.05, 0.6),
       T=st.floats(0.05, 3.0), s=st.floats(0.5, 3.0),
       amps=st.lists(_unit, min_size=8, max_size=8).filter(
           lambda a: np.linalg.norm(a) > 0.1))
def test_analytic_matches_numeric_property(omega_p, lam, T, s, amps):
    """Closed form against the dense Liouvillian, for any pure start."""
    model = PowerLawCutoff(gamma0=0.01, s=s, omega_c=20.0)
    vec = np.array(amps[:4]) + 1j * np.array(amps[4:])
    vec /= np.linalg.norm(vec)
    rho0c = np.outer(vec, vec.conj())
    times = default_time_grid(20.0, 0.1)
    p, sim = _setup(omega_p, lam=lam, T=T, model=model, times=times,
                    rho0=rho0c)
    ta = sim.traj
    tn = evolve_numeric(p, model, T, rho0c, times)
    assert np.max(np.abs(ta.sx_q - tn.sx_q)) < 1e-12
    assert np.max(np.abs(ta.sx_p - tn.sx_p)) < 1e-12


def test_decoupled_bath_keeps_eigenmode_populations():
    """With gamma0 = 0 every rate vanishes, so the population propagators
    are the identity at every time (the ``tot == 0`` branch)."""
    dead = PowerLawCutoff(gamma0=0.0, s=1.0, omega_c=None)
    _, sim = _setup(1.2, T=0.3, model=dead, times=default_time_grid(60.0, 0.5))
    rho0 = _random_state(np.random.default_rng(7))
    states = eigenmode_states(sim.eig, sim.rates, rho0, sim.traj.times)
    pops = np.real(np.diagonal(states, axis1=1, axis2=2))
    np.testing.assert_array_equal(pops, np.broadcast_to(
        np.real(np.diag(rho0)), pops.shape))


def test_zero_coupling_gives_unitary_beat():
    dead = PowerLawCutoff(gamma0=0.0, s=1.0, omega_c=None)
    times = default_time_grid(60.0, 0.03)
    p, sim = _setup(1.2, model=dead, times=times)
    eig = sim.eig
    rho0c = plus_plus_state()
    rho0e = to_eigenmode_basis(rho0c, sim.transform)
    tn = evolve_numeric(p, dead, 0.0, rho0c, times)
    # closed-form two-frequency beat from the initial eigenmode coherences
    s_ang = eig.theta_plus + eig.theta_minus
    c1 = rho0e[0, 2] + rho0e[1, 3]
    c2 = rho0e[0, 1] - rho0e[2, 3]
    beat = 2.0 * np.real(np.cos(s_ang) * c1 * np.exp(1j * eig.E1 * times)
                         + np.sin(s_ang) * c2 * np.exp(1j * eig.E2 * times))
    np.testing.assert_allclose(tn.sx_q, beat, atol=1e-10)
    # analytic path agrees too (all rates vanish)
    np.testing.assert_allclose(sim.traj.sx_q, beat, atol=1e-12)


def test_basis_consistency_of_stored_states():
    times = default_time_grid(40.0, 0.1)
    p, sim = _setup(0.8, T=0.5, times=times)
    states = _states(sim)
    tn = evolve_numeric(p, OHMIC, 0.5, plus_plus_state(), times)
    for n in range(times.size):
        back = to_computational_basis(states[n], sim.transform)
        assert np.max(np.abs(back - tn.states[n])) < 1e-10


def test_cptp_along_trajectories():
    times = default_time_grid(100.0, 0.25)
    p, sim = _setup(1.2, T=1.0, times=times)
    for states in (_states(sim),
                   evolve_numeric(p, OHMIC, 1.0, plus_plus_state(), times).states):
        for s in states:
            assert abs(np.trace(s) - 1.0) < 1e-10
            assert np.max(np.abs(s - s.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(s)[0] > -1e-10


def test_monotone_relaxation_to_steady_state():
    p, sim = _setup(1.2, T=0.5)
    target = to_computational_basis(steady_state(sim.rates), sim.transform)
    times = default_time_grid(400.0, 1.0)
    traj = evolve_numeric(p, OHMIC, 0.5, plus_plus_state(), times)
    dist = [0.5 * np.sum(np.abs(np.linalg.eigvalsh(s - target)))
            for s in traj.states]
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dist, dist[1:]))
    # slowest envelope decays at half the mode-1 total rate (~0.02 here)
    assert dist[-1] < 1e-3


def test_steady_state_zero_temperature_is_ground_state():
    p, sim = _setup(1.2)
    ss_e = steady_state(sim.rates)
    np.testing.assert_allclose(ss_e, np.diag([1.0, 0, 0, 0]), atol=1e-14)
    # computational-basis version is the projector on the H_S ground state
    ss_c = to_computational_basis(ss_e, sim.transform)
    evals, evecs = direct_diagonalize(p)
    ground = evecs[:, 0]
    np.testing.assert_allclose(ground.conj() @ ss_c @ ground, 1.0, atol=1e-12)


def test_steady_state_is_gibbs_at_finite_T():
    T = 1.0
    _, (eig, rates, _, _) = _setup(1.2, T=T)
    ss = steady_state(rates)
    pops = np.real(np.diag(ss))
    boltz = np.array([1.0,
                      np.exp(-eig.E2 / T),
                      np.exp(-eig.E1 / T),
                      np.exp(-(eig.E1 + eig.E2) / T)])
    np.testing.assert_allclose(pops, boltz / boltz.sum(), rtol=1e-12)

    # cross-check: null vector of the population generator assembled by hand
    g = np.array([
        [-(rates.g1_up + rates.g2_up), rates.g2_down, rates.g1_down, 0.0],
        [rates.g2_up, -(rates.g1_up + rates.g2_down), 0.0, rates.g1_down],
        [rates.g1_up, 0.0, -(rates.g1_down + rates.g2_up), rates.g2_down],
        [0.0, rates.g1_up, rates.g2_up, -(rates.g1_down + rates.g2_down)]])
    np.testing.assert_allclose(g @ pops, 0.0, atol=1e-14)


def test_steady_state_high_T_is_maximally_mixed():
    _, sim = _setup(1.2, T=1e6)
    ss = steady_state(sim.rates)
    assert 0.5 * np.sum(np.abs(np.linalg.eigvalsh(ss - 0.25 * np.eye(4)))) < 1e-3


def test_steady_state_needs_both_modes_coupled():
    dead = LindbladRates(g1_down=0.1, g1_up=0.0, g2_down=0.0, g2_up=0.0)
    with pytest.raises(NoUniqueSteadyStateError):
        steady_state(dead)


def test_asymptotic_decay_rates_and_frequencies():
    _, (eig, rates, v, _) = _setup(0.8)
    rho0 = to_eigenmode_basis(plus_plus_state(), v)
    form_q, form_p = asymptotic_form(eig, rates, rho0)
    for form in (form_q, form_p):
        freqs = sorted(t.frequency for t in form.terms)
        np.testing.assert_allclose(freqs, sorted([eig.E1, eig.E2]), rtol=1e-12)
        decays = {round(t.frequency, 9): t.decay for t in form.terms}
        np.testing.assert_allclose(decays[round(eig.E1, 9)],
                                   0.5 * rates.g1_down, rtol=1e-12)
        np.testing.assert_allclose(decays[round(eig.E2, 9)],
                                   0.5 * rates.g2_down, rtol=1e-12)
        assert form.sync_expected


def test_asymptotic_matches_late_time_waveform():
    times = default_time_grid(400.0, 0.05)
    _, (eig, rates, v, traj) = _setup(1.2, times=times)
    rho0 = to_eigenmode_basis(plus_plus_state(), v)
    form_q, form_p = asymptotic_form(eig, rates, rho0)
    late = times >= 250.0
    assert np.max(np.abs(form_q.evaluate(times[late]) - traj.sx_q[late])) < 1e-7
    # the probe waveform has no fast component at all: exact from t=0
    assert np.max(np.abs(form_p.evaluate(times) - traj.sx_p)) < 1e-12


@settings(max_examples=60)
@given(omega_p=st.floats(0.5, 1.5), lam=st.floats(0.1, 0.5),
       T=st.just(0.0) | st.floats(0.05, 1.0), s=st.floats(0.5, 3.0))
def test_asymptotic_form_matches_numeric_late_waveform(omega_p, lam, T, s):
    """asymptotic_form reads the same block table as evolve_analytic, so hold
    it to the dense Liouvillian, which shares neither: from 40 / (g1 + g2)
    on, each fast part is below exp(-20) of the slower term, and both late
    waveforms match it."""
    model = PowerLawCutoff(gamma0=0.01, s=s, omega_c=20.0)
    p, (eig, rates, v, _) = _setup(omega_p, lam=lam, T=T, model=model)
    times = 40.0 / (rates.g1_total + rates.g2_total) + 0.1 * np.arange(200)
    forms = asymptotic_form(eig, rates, to_eigenmode_basis(plus_plus_state(), v))
    tn = evolve_numeric(p, model, None, plus_plus_state(), times)
    for form, signal in zip(forms, (tn.sx_q, tn.sx_p)):
        late = form.evaluate(times)
        assert np.max(np.abs(late - signal)) < 1e-6 * np.max(np.abs(late))


def test_surviving_mode_amplitude_ratio_signs():
    # rate-asymmetry selects E1 above resonance, E2 below; the probe/qubit
    # amplitude ratio of the surviving term fixes in-phase vs antiphase
    for omega_p, expect_freq, expect_sign in ((1.2, "E1", +1), (0.8, "E2", -1)):
        _, (eig, rates, v, _) = _setup(omega_p)
        rho0 = to_eigenmode_basis(plus_plus_state(), v)
        form_q, form_p = asymptotic_form(eig, rates, rho0)
        dom_q, dom_p = form_q.dominant(), form_p.dominant()
        target = eig.E1 if expect_freq == "E1" else eig.E2
        np.testing.assert_allclose(dom_q.frequency, target, rtol=1e-12)
        ratio = (dom_p.amplitude / dom_q.amplitude).real
        assert np.sign(ratio) == expect_sign
        # magnitude follows the trigonometric rule at T=0
        s_ang = eig.theta_plus + eig.theta_minus
        d_ang = eig.theta_plus - eig.theta_minus
        if expect_freq == "E1":
            np.testing.assert_allclose(abs(ratio),
                                       abs(np.sin(d_ang) / np.cos(s_ang)),
                                       rtol=1e-12)
        else:
            np.testing.assert_allclose(abs(ratio),
                                       abs(np.cos(d_ang) / np.sin(s_ang)),
                                       rtol=1e-12)


def test_near_degenerate_rates_flagged():
    _, (eig, rates, v, _) = _setup(1.0)
    rho0 = to_eigenmode_basis(plus_plus_state(), v)
    form_q, _ = asymptotic_form(eig, rates, rho0)
    assert not form_q.sync_expected


def test_finite_temperature_sync_persists():
    # moderate temperature broadens but does not equalize the two rates
    times = default_time_grid(300.0, 0.05)
    _, (eig, rates, v, traj) = _setup(0.8, T=1.0, times=times)
    assert abs(rates.g1_total - rates.g2_total) > 0.05 * rates.g1_total
    rho0 = to_eigenmode_basis(plus_plus_state(), v)
    form_q, form_p = asymptotic_form(eig, rates, rho0)
    late = times >= 200.0
    # late probe signal is the surviving single damped cosine
    dom = form_p.dominant()
    single = 2.0 * np.real(dom.amplitude
                           * np.exp((1j * dom.frequency - dom.decay)
                                    * times[late]))
    resid = np.max(np.abs(single - traj.sx_p[late]))
    assert resid < 1e-6
    np.testing.assert_allclose(dom.frequency, eig.E2, rtol=1e-12)


def test_kappa_rescales_envelopes_only():
    p, (eig, rates1, v, _) = _setup(1.2)
    rates2 = simulate(p, OHMIC, SHORT, kappa=4.0 * np.pi).rates
    rho0 = to_eigenmode_basis(plus_plus_state(), v)
    fq1, fp1 = asymptotic_form(eig, rates1, rho0)
    fq2, fp2 = asymptotic_form(eig, rates2, rho0)
    for t1, t2 in zip(fq1.terms, fq2.terms):
        np.testing.assert_allclose(t1.frequency, t2.frequency, rtol=1e-12)
        np.testing.assert_allclose(2.0 * t1.decay, t2.decay, rtol=1e-12)
    r1 = (fp1.dominant().amplitude / fq1.dominant().amplitude).real
    r2 = (fp2.dominant().amplitude / fq2.dominant().amplitude).real
    np.testing.assert_allclose(r1, r2, rtol=1e-12)


def test_weight_matrices_angle_route_matches_conjugation():
    rng = np.random.default_rng(5)
    for _ in range(40):
        p = QubitPairParams(omega_p=float(rng.uniform(0.2, 2.5)),
                            lam=float(rng.uniform(0.0, 0.8)))
        eig = diagonalize(p)
        v = null_vector_transform(build_operators(p, eig))
        w_q_num = v.conj().T @ np.kron(SIGMA_X, ID2) @ v
        w_p_num = v.conj().T @ np.kron(ID2, SIGMA_X) @ v
        w_q, w_p = fock_observable_weights(eig)
        assert np.max(np.abs(w_q_num - w_q)) < 1e-12
        assert np.max(np.abs(w_p_num - w_p)) < 1e-12


def test_temperature_default_comes_from_params():
    p = QubitPairParams(omega_p=0.8, lam=0.2, temperature=0.7)
    times = default_time_grid(20.0, 0.1)
    t_none = evolve_numeric(p, OHMIC, None, plus_plus_state(), times)
    t_exp = evolve_numeric(p, OHMIC, 0.7, plus_plus_state(), times)
    np.testing.assert_array_equal(t_none.sx_q, t_exp.sx_q)


def test_analytic_accepts_nonuniform_grid():
    sparse_times = np.array([0.0, 1.0, 2.5, 7.0, 20.0, 40.0])
    dense = _setup(1.2, times=default_time_grid(40.0, 0.05))[1].traj
    sparse = _setup(1.2, times=sparse_times)[1].traj
    for t, q in zip(sparse_times, sparse.sx_q):
        i = int(round(t / 0.05))
        np.testing.assert_allclose(q, dense.sx_q[i], atol=1e-12)


@pytest.mark.parametrize("chunk", [64, 2048])
def test_analytic_chunks_change_no_bit(monkeypatch, chunk):
    """Signals are elementwise in time, so evaluating them chunk by chunk
    gives the whole-grid result to the bit.  The grid's 8 193 samples leave
    one over, which the last chunk takes rather than a chunk of its own."""
    rho0 = _random_state(np.random.default_rng(3))
    times = default_time_grid(409.6, 0.05)
    monkeypatch.setattr(dynamics, "_EVOLVE_CHUNK", times.size)
    whole = _setup(1.2, T=0.4, times=times, rho0=rho0)[1].traj
    monkeypatch.setattr(dynamics, "_EVOLVE_CHUNK", chunk)
    parts = _setup(1.2, T=0.4, times=times, rho0=rho0)[1].traj
    for name in ("sx_q", "sx_p"):
        assert getattr(whole, name).tobytes() == getattr(parts, name).tobytes()


def _terms(omega_p, lam, T, s, seed):
    """(eig, rates, eigenmode-basis rho0, amps, exponents) of one pair from
    a random state."""
    p = QubitPairParams(omega_p=omega_p, lam=lam, temperature=T)
    sim = simulate(p, PowerLawCutoff(gamma0=0.01, s=s, omega_c=20.0), SHORT)
    rho0 = _random_state(np.random.default_rng(seed))
    amps, exponents = dynamics._signal_terms(
        dynamics._blocks(sim.eig, sim.rates, rho0),
        fock_observable_weights(sim.eig))
    return sim.eig, sim.rates, rho0, amps, exponents


@st.composite
def _uniform_grids(draw):
    """np.linspace grids, as default_time_grid builds them, from 0 or a
    later start: four table rows up to 40 001 samples, ending by t = 2000."""
    n = draw(st.integers(4 * dynamics._ROW, 40001))
    end = draw(st.floats(1.0, 2000.0))
    start = draw(st.just(0.0) | st.floats(0.0, 0.9)) * end
    return np.linspace(start, end, n)


_PAIRS = dict(omega_p=st.floats(0.5, 1.5), lam=st.floats(0.05, 0.45),
              T=st.sampled_from([0.0, 0.5]), s=st.floats(0.5, 3.0),
              seed=st.integers(0, 2 ** 16))


@settings(max_examples=40)
@given(times=_uniform_grids(), **_PAIRS)
def test_tables_match_direct_exponentials(times, omega_p, lam, T, s, seed):
    """On uniform grids the signals come from the coarse and fine tables,
    within 1e-12 of np.exp at every sample (the oracle)."""
    *_, amps, exponents = _terms(omega_p, lam, T, s, seed)
    assert dynamics._uniform(times)
    tables = dynamics._oscillations(amps[None], exponents[None], times,
                                    slice(None))
    direct = direct_oscillations(amps[None], exponents[None], times)
    assert np.max(np.abs(tables - direct)) <= 1e-12


@settings(max_examples=40)
@given(times=_uniform_grids(), a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
       **_PAIRS)
def test_span_has_the_bits_of_the_whole_grid(times, a, b, omega_p, lam, T, s,
                                             seed):
    """Tables are anchored on the whole grid, so any span of it, however
    it cuts the table rows, evaluates each of its samples to the bit."""
    eig, rates, rho0, *_ = _terms(omega_p, lam, T, s, seed)
    start = int(a * (times.size - 2))
    span = slice(start, start + 2 + int(b * (times.size - start - 2)))
    whole = evolve_analytic(eig, rates, rho0, times)
    part = evolve_analytic(eig, rates, rho0, times, span)
    assert part.times.tobytes() == times[span].tobytes()
    for name in ("sx_q", "sx_p"):
        assert getattr(part, name).tobytes() == \
            getattr(whole, name)[span].tobytes()


@settings(max_examples=20)
@given(n=st.integers(4 * dynamics._ROW, 5000), nudge=st.integers(0, 4999),
       jitter=st.booleans(), **_PAIRS)
def test_nonuniform_grid_takes_direct_exponentials(n, nudge, jitter, omega_p,
                                                   lam, T, s, seed):
    """A long grid that is not uniform (random samples, or a uniform one
    with one sample moved by 1e-9) is still evolved: in one-sample rows,
    each sample by np.exp, to the bit of the oracle."""
    eig, rates, rho0, amps, exponents = _terms(omega_p, lam, T, s, seed)
    if jitter:
        times = np.unique(np.random.default_rng(seed).uniform(0.0, 2000.0, n))
    else:
        times = default_time_grid(0.05 * (n - 1), 0.05)
        times[1 + nudge % (n - 2)] += 1e-9
    assert not dynamics._uniform(times)
    traj = evolve_analytic(eig, rates, rho0, times)
    (direct,) = direct_oscillations(amps[None], exponents[None], times)
    assert traj.sx_q.tobytes() == direct[0].tobytes()
    assert traj.sx_p.tobytes() == direct[1].tobytes()


@st.composite
def _one_sample_row_grids(draw):
    """Grids evolved in one-sample rows: uniform ones of under four table
    rows, and random ones up to 5 000 samples."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        return np.linspace(0.0, draw(st.floats(1.0, 2000.0)),
                           draw(st.integers(1, 4 * dynamics._ROW - 1)))
    return np.unique(rng.uniform(0.0, 2000.0, draw(st.integers(2, 5000))))


@settings(max_examples=60)
@given(times=_one_sample_row_grids(), a=st.floats(0.0, 1.0),
       b=st.floats(0.0, 1.0), points=st.integers(1, 9),
       seed=st.integers(0, 2 ** 16))
def test_one_sample_rows_match_the_oracle_in_spans_and_batches(
        times, a, b, points, seed):
    """On grids without tables, every span (cutting chunks anywhere) of
    every batch of damped exponentials has, per point, the bits of np.exp
    at each of its samples."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(points, 2, 4)) + 1j * rng.normal(size=(points, 2, 4))
    exponents = (1j * rng.uniform(0.0, 3.0, (points, 4))
                 - rng.uniform(0.0, 0.05, (points, 4)))
    start = int(a * (times.size - 1))
    span = slice(start, start + 1 + int(b * (times.size - start - 1)))
    got = dynamics._oscillations(amps, exponents, times, span)
    assert got.tobytes() == \
        direct_oscillations(amps, exponents, times[span]).tobytes()


_CORRELATOR_BATHS = {
    "cutoff": OHMIC,
    "no cutoff": PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=None),
    # J = 0.02 w^1.5 tabulated over every E1 and E2 drawn below
    "tabulated": Tabulated(omegas=np.geomspace(0.05, 5.0, 30),
                           js=0.02 * np.geomspace(0.05, 5.0, 30) ** 1.5),
    "no rate": PowerLawCutoff(gamma0=0.0, s=1.0, omega_c=None),
}


def _point(x, i: int):
    """Entry ``i`` of a batch EigenStructure or LindbladRates."""
    return type(x)(*(getattr(x, f.name)[i] for f in fields(x)))


@settings(max_examples=40)
@given(bath=st.sampled_from(sorted(_CORRELATOR_BATHS)), s=st.floats(0.5, 3.0),
       pairs=st.lists(st.tuples(st.floats(0.5, 1.5), st.floats(0.05, 0.45),
                                st.just(0.0) | st.floats(0.0, 2.0)),
                      min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 16), a=st.floats(0.0, 1.0),
       b=st.floats(0.0, 1.0))
def test_correlator_matches_the_dense_state_oracle(bath, s, pairs, seed, a, b):
    """evolve_correlator gives, point by point, spin_correlator of every
    dense oracle state rotated back to the computational basis, within
    1e-12 of its largest magnitude: over power-law baths with and without
    a cutoff, a tabulated bath and a bath with no rate at all, T = 0 and
    T > 0, and random density-matrix states.  A row of a batch, and any
    span of it, has the bits of the point in a batch of its own."""
    model = _CORRELATOR_BATHS[bath]
    if isinstance(model, PowerLawCutoff):
        model = replace(model, s=s)
    rho0 = _random_state(np.random.default_rng(seed))
    times = default_time_grid(60.0, 0.2)        # 301 samples: table rows
    start = int(a * (times.size - 2))
    span = slice(start, start + 2 + int(b * (times.size - start - 2)))

    def setup(chosen):
        wp, lam, temp = (np.array(x) for x in zip(*chosen))
        eig, rates, v = pair_setup(PairBatch(np.ones(wp.size), wp, lam, temp),
                                   model)
        return eig, rates, to_eigenmode_basis(rho0, v), v

    batch = setup(pairs)
    got = evolve_correlator(*batch, times)
    for i, pair in enumerate(pairs):
        alone = setup([pair])
        assert evolve_correlator(*alone, times)[0].tobytes() == got[i].tobytes()
        assert evolve_correlator(*alone, times, span)[0].tobytes() == \
            got[i][span].tobytes()
        eig, rates = _point(batch[0], i), _point(batch[1], i)
        rho, v = batch[2][i], batch[3][i]
        want = np.array([spin_correlator(to_computational_basis(state, v))
                         for state in eigenmode_states(eig, rates, rho, times)])
        assert np.max(np.abs(got[i] - want)) <= 1e-12 * np.max(np.abs(want))
        single = evolve_correlator(eig, rates, rho, v, times)
        assert single.shape == times.shape
        assert np.max(np.abs(single - want)) <= 1e-12 * np.max(np.abs(want))


def test_numeric_rejects_nonuniform_grid():
    p = QubitPairParams(omega_p=1.2, lam=0.2)
    with pytest.raises(ValueError):
        evolve_numeric(p, OHMIC, 0.0, plus_plus_state(),
                       np.array([0.0, 0.1, 0.3, 0.4]))


def test_state_validation():
    bad_herm = np.diag([1.0, 0, 0, 0]).astype(complex)
    bad_herm[0, 1] = 0.5
    with pytest.raises(StateValidationError):
        validate_density_matrix(bad_herm)
    with pytest.raises(StateValidationError):
        validate_density_matrix(0.5 * np.eye(4, dtype=complex))
    neg = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(StateValidationError):
        validate_density_matrix(neg)
    validate_density_matrix(plus_plus_state())


def test_state_validation_names_a_nan_entry():
    """NaN compares false, so each check is written to fail on it: a state
    with NaN off-diagonals is rejected as such, not evolved into signals
    that are not finite."""
    rho = plus_plus_state()
    rho[0, 1] = rho[1, 0] = np.nan
    with pytest.raises(StateValidationError, match="Hermiticity defect nan"):
        validate_density_matrix(rho)
    with pytest.raises(StateValidationError, match="Hermiticity defect nan"):
        simulate(QubitPairParams(omega_p=1.2, lam=0.2), OHMIC, SHORT, rho)


def test_state_validation_eigenvalue_floor_is_1e_10():
    """A -1e-9 eigenvalue is a broken state, not rounding."""
    with pytest.raises(StateValidationError, match="negative eigenvalue -1e-09"):
        validate_density_matrix(np.diag([0.5 + 1e-9, 0.5, 0.0, -1e-9]))


def _trajectory_csv(traj, tmp_path) -> str:
    """The text of the CLI's trajectory.csv for ``traj``."""
    path = tmp_path / "trajectory.csv"
    _write_columns(path, ("t", "sx_q", "sx_p"), traj.times, traj.sx_q, traj.sx_p)
    return path.read_text()


def test_trajectory_csv_round_trip(tmp_path):
    traj = _setup(1.2, times=default_time_grid(5.0, 0.5))[1].traj
    lines = _trajectory_csv(traj, tmp_path).splitlines()
    assert lines[0] == "t,sx_q,sx_p"
    data = np.loadtxt(lines[1:], delimiter=",")
    np.testing.assert_array_equal(data[:, 0], traj.times)
    np.testing.assert_array_equal(data[:, 1], traj.sx_q)
    np.testing.assert_array_equal(data[:, 2], traj.sx_p)


def test_trajectory_csv_keeps_reference_format(tmp_path):
    """Rows are the '%.17g' text of each value, also across the writer's
    65 536-row chunks and for signed zero and subnormals."""
    times = np.linspace(0.0, 7000.0, 70001)
    sx = np.random.default_rng(3).uniform(-1.0, 1.0, times.size)
    sx[:4] = [-0.0, 5e-324, 1.0, -1e-300]
    traj = Trajectory(times=times, sx_q=sx, sx_p=sx[::-1].copy())
    assert _trajectory_csv(traj, tmp_path) == "t,sx_q,sx_p\n" + "".join(
        f"{t:.17g},{q:.17g},{p:.17g}\n"
        for t, q, p in zip(traj.times, traj.sx_q, traj.sx_p))


def test_default_time_grid_shape():
    g = default_time_grid(400.0, 0.05)
    assert g[0] == 0.0 and g[-1] == 400.0 and g.size == 8001
    assert np.allclose(np.diff(g), 0.05)
