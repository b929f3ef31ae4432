from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncprobe.spin_model import (
    ConventionError,
    QubitPairParams,
    _hamiltonian_matrix,
    build_operators,
    diagonalize,
    direct_diagonalize,
    eigenmode_transform,
)

from oracles import null_vector_transform

# Frozen oracle values, computed once by dense diagonalization of the 4x4
# Hamiltonian and kept as literals so a regression in the closed form cannot
# hide behind a regression in the oracle.
E1_FIG1 = 1.3416407864998738   # omega_p = 1.2, lam = 0.2
E2_FIG1 = 0.8944271909999159
DELTA_RES = 2.0396078054371138  # omega_p = 1.0, lam = 0.2
E1_RES = 1.2198039027185569
E2_RES = 0.8198039027185569


def test_decoupled_pair_is_trivial():
    eig = diagonalize(QubitPairParams(omega_p=0.5, lam=0.0))
    assert eig.E1 == pytest.approx(1.0, abs=1e-15)
    assert eig.E2 == pytest.approx(0.5, abs=1e-15)
    assert eig.theta_plus == 0.0
    assert eig.theta_minus == 0.0


def test_closed_form_matches_frozen_values():
    eig = diagonalize(QubitPairParams(omega_p=1.2, lam=0.2))
    assert eig.E1 == pytest.approx(E1_FIG1, abs=1e-12)
    assert eig.E2 == pytest.approx(E2_FIG1, abs=1e-12)
    assert eig.E1 == pytest.approx(0.5 * (eig.Delta + eig.delta), abs=1e-15)
    assert eig.E2 == pytest.approx(0.5 * (eig.Delta - eig.delta), abs=1e-15)


def test_resonance_forces_theta_minus_pi4():
    eig = diagonalize(QubitPairParams(omega_p=1.0, lam=0.2))
    assert eig.Delta == pytest.approx(DELTA_RES, abs=1e-12)
    assert eig.delta == pytest.approx(0.4, abs=1e-15)
    assert eig.E1 == pytest.approx(E1_RES, abs=1e-12)
    assert eig.E2 == pytest.approx(E2_RES, abs=1e-12)
    assert eig.theta_minus == pytest.approx(np.pi / 4, abs=1e-15)


def test_direct_diagonalize_decoupled_spectrum():
    evals, evecs = direct_diagonalize(QubitPairParams(omega_p=0.5, lam=0.0))
    np.testing.assert_allclose(evals, [-0.75, -0.25, 0.25, 0.75], atol=1e-14)
    # Columns are eigenvectors of H_S
    assert np.allclose(evecs.conj().T @ evecs, np.eye(4), atol=1e-14)


def test_direct_diagonalize_traceless():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = QubitPairParams(omega_p=rng.uniform(0.1, 3.0),
                            lam=rng.uniform(0.0, 1.0))
        evals, _ = direct_diagonalize(p)
        assert abs(np.sum(evals)) < 1e-12


def test_closed_form_spectrum_vs_direct():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = QubitPairParams(omega_p=rng.uniform(0.1, 3.0),
                            lam=rng.uniform(0.0, 1.0))
        eig = diagonalize(p)
        evals, _ = direct_diagonalize(p)
        predicted = np.sort([-(eig.E1 + eig.E2) / 2, -(eig.E1 - eig.E2) / 2,
                             (eig.E1 - eig.E2) / 2, (eig.E1 + eig.E2) / 2])
        np.testing.assert_allclose(evals, predicted, atol=1e-10)


def test_operator_identities_random_sweep():
    """Anticommutation, parity, and both sigma-x decompositions at 1e-12."""
    rng = np.random.default_rng(42)
    eye = np.eye(4)
    for _ in range(100):
        p = QubitPairParams(omega_p=rng.uniform(0.1, 3.0),
                            lam=rng.uniform(0.0, 1.0))
        eig = diagonalize(p)
        ops = build_operators(p, eig)
        e1, e2 = ops.eta1, ops.eta2
        e1d, e2d = e1.conj().T, e2.conj().T
        assert np.max(np.abs(e1 @ e1)) < 1e-12
        assert np.max(np.abs(e1 @ e2 + e2 @ e1)) < 1e-12
        assert np.max(np.abs(e1 @ e2d + e2d @ e1)) < 1e-12
        assert np.max(np.abs(e1 @ e1d + e1d @ e1 - eye)) < 1e-12
        assert np.max(np.abs(e2 @ e2d + e2d @ e2 - eye)) < 1e-12

        n1, n2 = e1d @ e1, e2d @ e2
        h_re = eig.E1 * (n1 - eye / 2) + eig.E2 * (n2 - eye / 2)
        assert np.max(np.abs(h_re - ops.h_s)) < 1e-12
        assert np.max(np.abs(ops.h_s @ n1 - n1 @ ops.h_s)) < 1e-12

        par = (eye - 2 * n1) @ (eye - 2 * n2)
        assert np.max(np.abs(par - ops.parity)) < 1e-12
        assert np.max(np.abs(par @ par - eye)) < 1e-12

        s = eig.theta_plus + eig.theta_minus
        d = eig.theta_plus - eig.theta_minus
        sxq = np.cos(s) * (e1d + e1) + np.sin(s) * (e2d + e2)
        assert np.max(np.abs(sxq - ops.sx_q)) < 1e-12
        t1, t2 = ops.eta1_tilde, ops.eta2_tilde
        sxp = (np.sin(d) * (t1.conj().T + t1)
               + np.cos(d) * (t2.conj().T + t2))
        assert np.max(np.abs(sxp - ops.sx_p)) < 1e-12


def test_decomposition_coefficients_normalized():
    eig = diagonalize(QubitPairParams(omega_p=1.2, lam=0.2))
    s = eig.theta_plus + eig.theta_minus
    assert np.cos(s) ** 2 + np.sin(s) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_lam_zero_modes_are_bare_ladder_operators():
    # omega_q > omega_p: eta1 is the qubit mode
    p = QubitPairParams(omega_p=0.5, lam=0.0)
    ops = build_operators(p, diagonalize(p))
    c1 = np.kron(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2))
    np.testing.assert_allclose(ops.eta1, c1.conj().T, atol=1e-15)
    np.testing.assert_allclose(ops.parity, ops.sz_q @ ops.sz_p, atol=1e-15)
    # omega_p > omega_q: the angle branch relabels so eta1 is the probe mode
    p = QubitPairParams(omega_p=1.2, lam=0.0)
    ops = build_operators(p, diagonalize(p))
    c2 = np.kron(np.diag([1.0, -1.0]).astype(complex),
                 np.array([[0, 1], [0, 0]], dtype=complex))
    np.testing.assert_allclose(ops.eta1, -c2.conj().T, atol=1e-15)


def test_hamiltonian_reconstruction_fig1():
    p = QubitPairParams(omega_p=1.2, lam=0.2)
    eig = diagonalize(p)
    ops = build_operators(p, eig)
    eye = np.eye(4)
    n1 = ops.eta1.conj().T @ ops.eta1
    n2 = ops.eta2.conj().T @ ops.eta2
    h_re = eig.E1 * (n1 - eye / 2) + eig.E2 * (n2 - eye / 2)
    assert np.max(np.abs(h_re - ops.h_s)) < 1e-12


def _kron_hamiltonian(p):
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return (0.5 * p.omega_q * np.kron(sz, np.eye(2))
            + 0.5 * p.omega_p * np.kron(np.eye(2), sz)
            + p.lam * np.kron(sx, sx))


def test_hamiltonian_matrix_is_the_kronecker_sum():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = QubitPairParams(omega_q=rng.uniform(0.1, 5.0),
                            omega_p=rng.uniform(0.1, 5.0),
                            lam=rng.uniform(0.0, 2.0))
        np.testing.assert_array_equal(_hamiltonian_matrix(p),
                                      _kron_hamiltonian(p))


def test_eigenmode_transform_diagonalizes():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = QubitPairParams(omega_p=rng.uniform(0.2, 2.5),
                            lam=rng.uniform(0.0, 0.8))
        eig = diagonalize(p)
        v = eigenmode_transform(p, eig)
        assert v.dtype == np.float64
        assert np.max(np.abs(v.T @ v - np.eye(4))) < 1e-14
        hd = v.T @ _kron_hamiltonian(p) @ v
        want = np.diag([-(eig.E1 + eig.E2) / 2, (eig.E2 - eig.E1) / 2,
                        (eig.E1 - eig.E2) / 2, (eig.E1 + eig.E2) / 2])
        assert np.max(np.abs(hd - want)) < 1e-14


_freq = st.floats(0.1, 5.0)


@settings(max_examples=200)
@given(omega_q=_freq, omega_p=_freq,
       lam=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       resonant=st.booleans())
@example(omega_q=1.0, omega_p=1.0, lam=0.0, resonant=True)
@example(omega_q=1.0, omega_p=0.5, lam=0.0, resonant=False)
@example(omega_q=1.0, omega_p=1.2, lam=0.0, resonant=False)
@example(omega_q=0.1, omega_p=0.1, lam=2.0, resonant=True)
def test_closed_form_transform_matches_null_vector_oracle(omega_q, omega_p,
                                                          lam, resonant):
    """The closed-form columns are the numeric Fock states, signs included,
    over the whole parameter box: lam = 0 and omega_p = omega_q too."""
    if resonant:
        omega_p = omega_q
    p = QubitPairParams(omega_q=omega_q, omega_p=omega_p, lam=lam)
    eig = diagonalize(p)
    oracle = null_vector_transform(build_operators(p, eig))
    assert np.max(np.abs(eigenmode_transform(p, eig) - oracle)) <= 1e-14


@pytest.mark.parametrize("corrupt", [
    lambda e: replace(e, theta_minus=-e.theta_minus),
    lambda e: replace(e, theta_plus=e.theta_minus, theta_minus=e.theta_plus),
    lambda e: replace(e, E1=e.E2, E2=e.E1),
    lambda e: diagonalize(QubitPairParams(omega_p=1.3, lam=0.2)),
], ids=["theta_minus_flipped", "thetas_swapped", "energies_swapped",
        "other_params"])
def test_corrupted_eigenstructure_raises(corrupt):
    p = QubitPairParams(omega_p=1.2, lam=0.2)
    bad = corrupt(diagonalize(p))
    with pytest.raises(ConventionError, match="eigenmode transform"):
        eigenmode_transform(p, bad)


@pytest.mark.parametrize("k", [1.0, 1e7])
def test_relative_checks_pass_at_any_scale_and_still_catch_a_flipped_sign(k):
    """The self-checks divide each defect by max(1, the largest entry of
    its operator): the pair scaled by 1e7 passes, in both the transform and
    the operator algebra, and a flipped theta_minus still fails."""
    p = QubitPairParams(omega_q=k, omega_p=1.2 * k, lam=0.2 * k)
    eig = diagonalize(p)
    eigenmode_transform(p, eig)
    build_operators(p, eig)
    with pytest.raises(ConventionError, match="eigenmode transform"):
        eigenmode_transform(p, replace(eig, theta_minus=-eig.theta_minus))
    with pytest.raises(ConventionError):
        build_operators(p, replace(eig, theta_minus=-eig.theta_minus))


@pytest.mark.parametrize("omega_p, lam", [(1e-8, 0.2), (1.0, 1e8),
                                          (1e-300, 0.2), (1e300, 0.2)])
def test_e2_is_exact_where_the_difference_cancels(omega_p, lam):
    """E2 = omega_q omega_p / E1 keeps its digits where (Delta - delta)/2
    loses them or rounds to 0: within 4 ulps of a 60-digit evaluation."""
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    wq, wp, lm = Decimal(1), Decimal(omega_p), Decimal(lam)
    big = ((2 * lm) ** 2 + (wq + wp) ** 2).sqrt()
    small = ((2 * lm) ** 2 + (wq - wp) ** 2).sqrt()
    want = float(wq * wp / ((big + small) / 2))
    got = diagonalize(QubitPairParams(omega_p=omega_p, lam=lam)).E2
    assert want > 0.0 and abs(got - want) <= 4 * np.spacing(want)


def test_param_validation():
    with pytest.raises(ValueError, match="omega_p"):
        QubitPairParams(omega_p=-1.0)
    with pytest.raises(ValueError, match="lam"):
        QubitPairParams(omega_p=1.0, lam=-0.1)
    with pytest.raises(ValueError, match="temperature"):
        QubitPairParams(omega_p=1.0, temperature=-2.0)
