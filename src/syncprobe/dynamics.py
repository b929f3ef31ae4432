"""Time evolution of the 4x4 density matrix under the secular master equation.

Two independent evolution paths are kept first class and are cross-checked in
the tests:

* ``evolve_analytic`` solves the decoupled blocks of the secular equation in
  the eigenmode (quasiparticle Fock) basis by exact eigendecomposition of
  constant 2x2 coefficient matrices, then reinstates the Hamiltonian phases.
  The signals read only the four parity-allowed coherences, so that is all
  it evaluates unless the caller asks for the full states.
* ``evolve_numeric`` vectorizes the full Liouvillian (column stacking) and
  steps it with the matrix exponential.  It never touches the block algebra,
  so agreement between the two is a real check, not bookkeeping.

Bases and picture
-----------------
``evolve_analytic``, ``asymptotic_form`` and ``steady_state`` work in the
eigenmode basis, Fock order |00>, |01> (mode 2), |10> (mode 1), |11>; only
``probe_protocol.simulate`` rotates a computational-basis state into it.
``evolve_numeric`` expects the computational basis.  Both report observables
in the Schroedinger picture, with all Hamiltonian phases reinstated.  Stored
states keep the basis of the input; ``Trajectory.basis`` records which.

Expectation-value weights and the eigenmode transform are closed form in the
Bogoliubov angles (``fock_observable_weights``, ``eigenmode_transform``).  The
numeric transform, the common null vector of the two annihilators, survives
only as the test oracle both are held to.  All rates are plain angular
frequencies in units of omega_q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bath import (KAPPA_DEFAULT, LindbladRates, SpectralDensityModel,
                   bose_occupation, evaluate_J)
from .spin_model import (ID2, SIGMA_X, EigenStructure, QubitPairParams,
                         build_operators, diagonalize, direct_diagonalize,
                         fock_energies, fock_observable_weights)


class StateValidationError(ValueError):
    """Input matrix is not a physical density matrix."""


class NoUniqueSteadyStateError(ValueError):
    """A mode is completely decoupled from the bath; fixed point not unique."""


def validate_density_matrix(rho: np.ndarray, herm_tol: float = 1e-12,
                            trace_tol: float = 1e-12,
                            eig_floor: float = -1e-10) -> None:
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise StateValidationError(f"expected a 4x4 matrix, got {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > herm_tol:
        raise StateValidationError(f"Hermiticity defect {herm:.3g} > {herm_tol:g}")
    tr = abs(np.trace(rho) - 1.0)
    if tr > trace_tol:
        raise StateValidationError(f"trace deviates from 1 by {tr:.3g}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < eig_floor:
        raise StateValidationError(f"negative eigenvalue {lo:.3g}")


@dataclass(frozen=True)
class Trajectory:
    """Observable record of one evolution; states are optional extras."""

    times: np.ndarray
    sx_q: np.ndarray
    sx_p: np.ndarray
    states: np.ndarray | None = None
    basis: str = "computational"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2 or not np.all(np.diff(t) > 0):
            raise ValueError("times must be a strictly increasing 1-d grid")
        for name in ("sx_q", "sx_p"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != t.shape:
                raise ValueError(f"{name} length does not match times")
            if np.max(np.abs(v)) > 1.0 + 1e-9:
                raise ValueError(f"{name} exceeds the Pauli bound")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "times", t)
        if self.states is not None and self.states.shape != (t.size, 4, 4):
            raise ValueError("states must have shape (len(times), 4, 4)")


@dataclass(frozen=True)
class AsymptoticTerm:
    amplitude: complex
    frequency: float
    decay: float


@dataclass(frozen=True)
class AsymptoticForm:
    """Late-time model: sum over terms of 2*Re[amp*exp((i*freq - decay)*t)].

    ``sync_expected`` is False when the two decay rates are within 5% of each
    other, in which case neither oscillation outlives the other and no
    synchronized regime should be read off this form.
    """

    terms: tuple[AsymptoticTerm, ...]
    sync_expected: bool

    def evaluate(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        out = np.zeros_like(t)
        for term in self.terms:
            out = out + 2.0 * np.real(
                term.amplitude * np.exp((1j * term.frequency - term.decay) * t))
        return out

    def dominant(self) -> AsymptoticTerm:
        """The slower-decaying term (the one that survives)."""
        return min(self.terms, key=lambda term: term.decay)


def _two_state_propagators(up: float, down: float, times: np.ndarray):
    """exp(t*[[-up, down], [up, -down]]) for every t, shape (n, 2, 2).

    ``up`` pumps occupation 0 -> 1, ``down`` relaxes 1 -> 0.  Rank-1 plus
    projector structure; handles the decoupled case up = down = 0.
    """
    tot = up + down
    n = times.size
    if tot == 0.0:
        return np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
    p_eq = np.array([[down, down], [up, up]]) / tot
    rest = np.eye(2) - p_eq
    damp = np.exp(-tot * times)
    return p_eq[None, :, :] + damp[:, None, None] * rest[None, :, :]


def _coherence_block(slow_rates: np.ndarray, total: float, x: np.ndarray,
                     freq: float, dephase: float, times: np.ndarray):
    """One 2x2 coherence block from its initial pair ``x``, at every time.

    ``slow_rates / total`` projects onto the slow (non-decaying) mode of the
    block's rate matrix, so the pair evolves as exp((i*freq - dephase)*t)
    times slow + exp(-total*t) * fast.
    """
    if total == 0.0:
        slow, fast = x, np.zeros(2)
    else:
        slow = (slow_rates / total) @ x
        fast = x - slow
    rot = np.exp((1j * freq - dephase) * times)
    damp = np.exp(-total * times)
    return rot * (slow[0] + damp * fast[0]), rot * (slow[1] + damp * fast[1])


def _coherences(eig: EigenStructure, rates: LindbladRates, rho0: np.ndarray,
                times: np.ndarray):
    """rho_01, rho_23, rho_02, rho_13 at every time, Schroedinger picture.

    Block A couples (rho_01, rho_23) through mode-1 rates, is damped by half
    the mode-2 total rate and rotates at E2; block B couples (rho_02, rho_13)
    with the roles of the modes exchanged and sign-flipped cross terms, and
    rotates at E1.  These are the only entries a parity-odd observable reads.
    """
    g1u, g1d = rates.g1_up, rates.g1_down
    g2u, g2d = rates.g2_up, rates.g2_down
    t1, t2 = rates.g1_total, rates.g2_total
    rho01, rho23 = _coherence_block(np.array([[g1d, g1d], [g1u, g1u]]), t1,
                                    np.array([rho0[0, 1], rho0[2, 3]]),
                                    eig.E2, 0.5 * t2, times)
    rho02, rho13 = _coherence_block(np.array([[g2d, -g2d], [-g2u, g2u]]), t2,
                                    np.array([rho0[0, 2], rho0[1, 3]]),
                                    eig.E1, 0.5 * t1, times)
    return rho01, rho23, rho02, rho13


def _expectation(coherences, w: np.ndarray) -> np.ndarray:
    """Tr(rho W) for a real symmetric parity-odd W: twice the real part of
    the four allowed coherences against their weights."""
    rho01, rho23, rho02, rho13 = coherences
    return 2.0 * np.real(w[1, 0] * rho01 + w[3, 2] * rho23
                         + w[2, 0] * rho02 + w[3, 1] * rho13)


def _dense_states(eig: EigenStructure, rates: LindbladRates, rho0: np.ndarray,
                  times: np.ndarray, coherences) -> np.ndarray:
    """Full (n, 4, 4) eigenmode-basis states around the given coherences."""
    n = times.size
    diag0 = np.real(np.diag(rho0))
    u1 = _two_state_propagators(rates.g1_up, rates.g1_down, times)
    u2 = _two_state_propagators(rates.g2_up, rates.g2_down, times)
    # population propagator is the Kronecker product of the per-mode ones
    pop = np.einsum("nab,ncd->nacbd", u1, u2).reshape(n, 4, 4) @ diag0

    # the two parity-even coherences only dephase, at the full total rate
    eps = fock_energies(eig)
    anti = -0.5 * (rates.g1_total + rates.g2_total)
    rho_t = np.zeros((n, 4, 4), dtype=complex)
    for k in range(4):
        rho_t[:, k, k] = pop[:, k]
    for (j, k), val in zip(((0, 1), (2, 3), (0, 2), (1, 3)), coherences):
        rho_t[:, j, k] = val
    for j, k in ((0, 3), (1, 2)):
        rho_t[:, j, k] = rho0[j, k] * np.exp(
            (anti - 1j * (eps[j] - eps[k])) * times)
    iu = np.triu_indices(4, k=1)
    rho_t[:, iu[1], iu[0]] = np.conj(rho_t[:, iu[0], iu[1]])
    return rho_t


def evolve_analytic(eig: EigenStructure, rates: LindbladRates,
                    rho0: np.ndarray, times: np.ndarray,
                    store_states: bool = False) -> Trajectory:
    """Exact block solution; ``rho0`` must be given in the eigenmode basis.

    Works on any increasing time grid (the closed form needs no stepping).
    The signals read only the four parity-allowed coherences, evaluated as
    O(n) vectors; the dense (n, 4, 4) states are built only for
    ``store_states``.
    """
    validate_density_matrix(rho0)
    times = np.asarray(times, dtype=float)
    coherences = _coherences(eig, rates, rho0, times)
    w_q, w_p = fock_observable_weights(eig)
    states = (_dense_states(eig, rates, rho0, times, coherences)
              if store_states else None)
    return Trajectory(times=times, sx_q=_expectation(coherences, w_q),
                      sx_p=_expectation(coherences, w_p), states=states,
                      basis="eigenmode")


def _liouvillian(h: np.ndarray, collapse: list[np.ndarray]) -> np.ndarray:
    eye = np.eye(h.shape[0])
    lv = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in collapse:
        cdc = c.conj().T @ c
        lv = lv + (np.kron(c.conj(), c)
                   - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye)))
    return lv


def _secular_collapse_ops(params: QubitPairParams, model: SpectralDensityModel,
                          temp: float, kappa: float, paranoia: bool):
    """Collapse operators (computational basis) and the Hamiltonian used."""
    if not paranoia:
        eig = diagonalize(params)
        ops = build_operators(params, eig)
        s_ang = eig.theta_plus + eig.theta_minus
        pieces = [(eig.E1, np.cos(s_ang) * ops.eta1),
                  (eig.E2, np.sin(s_ang) * ops.eta2)]
        h = ops.h_s
    else:
        # independent route: raw eigenvectors, eigenoperator projections
        evals, evecs = direct_diagonalize(params)
        sx_q = np.kron(SIGMA_X, ID2)
        sx_eig = evecs.conj().T @ sx_q @ evecs
        gaps = {}
        for a in range(4):
            for b in range(4):
                w = evals[b] - evals[a]
                if w > 1e-9 and abs(sx_eig[a, b]) > 1e-12:
                    # group equal gaps by a rounded key, but keep the exact
                    # gap as the frequency the bath is evaluated at
                    _, op = gaps.setdefault(
                        round(w, 9), (w, np.zeros((4, 4), dtype=complex)))
                    op += sx_eig[a, b] * np.outer(evecs[:, a],
                                                  evecs[:, b].conj())
        pieces = [(float(w), op) for w, op in gaps.values()]
        h = evecs @ np.diag(evals) @ evecs.conj().T

    collapse = []
    for freq, op in pieces:
        j = evaluate_J(model, freq)
        if j == 0.0:
            continue
        occ = bose_occupation(freq, temp)
        collapse.append(np.sqrt(kappa * j * (1.0 + occ)) * op)
        if occ > 0.0:
            collapse.append(np.sqrt(kappa * j * occ) * op.conj().T)
    return h, collapse


def evolve_numeric(params: QubitPairParams, model: SpectralDensityModel,
                   T: float | None, rho0: np.ndarray, times: np.ndarray,
                   kappa: float = KAPPA_DEFAULT, paranoia: bool = False,
                   store_states: bool = False) -> Trajectory:
    """Vectorized-Liouvillian evolution; ``rho0`` in the computational basis.

    Requires a uniform time grid (the propagator for one step is exponentiated
    once and reused).  ``T=None`` falls back to ``params.temperature``.  With
    ``paranoia=True`` the jump operators are rebuilt from scratch out of raw
    eigenvector projections, bypassing the closed-form quasiparticle algebra.
    """
    validate_density_matrix(rho0)
    times = np.asarray(times, dtype=float)
    steps = np.diff(times)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("evolve_numeric needs a uniform time grid")
    temp = params.temperature if T is None else float(T)

    h, collapse = _secular_collapse_ops(params, model, temp, kappa, paranoia)
    lv = _liouvillian(h, collapse)
    prop = scipy.linalg.expm(lv * dt)

    vec = rho0.astype(complex).flatten(order="F")
    if times[0] != 0.0:
        vec = scipy.linalg.expm(lv * times[0]) @ vec

    n = times.size
    rho_t = np.empty((n, 4, 4), dtype=complex)
    sx_q_mat = np.kron(SIGMA_X, ID2)
    sx_p_mat = np.kron(ID2, SIGMA_X)
    for i in range(n):
        rho_t[i] = vec.reshape(4, 4, order="F")
        if i < n - 1:
            vec = prop @ vec
    sx_q = np.real(np.einsum("njk,kj->n", rho_t, sx_q_mat))
    sx_p = np.real(np.einsum("njk,kj->n", rho_t, sx_p_mat))
    return Trajectory(times=times, sx_q=sx_q, sx_p=sx_p,
                      states=rho_t if store_states else None,
                      basis="computational")


def asymptotic_form(eig: EigenStructure, rates: LindbladRates,
                    rho0: np.ndarray) -> tuple[AsymptoticForm, AsymptoticForm]:
    """Slow-mode projection of the coherence blocks; ``rho0`` eigenmode basis.

    Returns the late-time two-term damped-oscillation coefficients for
    (sigma_q^x, sigma_p^x).  After the first transient each coherence block is
    left with its slow eigenprojection only: an oscillation at E1 damped at
    half the mode-1 total rate, and one at E2 damped at half the mode-2 total
    rate.  Thermal occupation enters through the rates themselves.
    """
    validate_density_matrix(rho0)
    w_q, w_p = fock_observable_weights(eig)

    g1u, g1d, g2u, g2d = rates.g1_up, rates.g1_down, rates.g2_up, rates.g2_down
    t1, t2 = rates.g1_total, rates.g2_total

    # block B (rho_02, rho_13): oscillates at E1, slow decay at t1/2;
    # slow left/right eigenvectors are (1, -1) and (g2_down, -g2_up)
    x0, y0 = rho0[0, 2], rho0[1, 3]
    if t2 > 0.0:
        wgt = (x0 - y0) / t2
        slow_02, slow_13 = wgt * g2d, -wgt * g2u
    else:
        slow_02, slow_13 = x0, y0          # block B undamped internally
    amp_q1 = slow_02 * w_q[2, 0] + slow_13 * w_q[3, 1]
    amp_p1 = slow_02 * w_p[2, 0] + slow_13 * w_p[3, 1]

    # block A (rho_01, rho_23): oscillates at E2, slow decay at t2/2;
    # slow eigenvectors are (1, 1) and (g1_down, g1_up)
    x0, y0 = rho0[0, 1], rho0[2, 3]
    if t1 > 0.0:
        wgt = (x0 + y0) / t1
        slow_01, slow_23 = wgt * g1d, wgt * g1u
    else:
        slow_01, slow_23 = x0, y0
    amp_q2 = slow_01 * w_q[1, 0] + slow_23 * w_q[3, 2]
    amp_p2 = slow_01 * w_p[1, 0] + slow_23 * w_p[3, 2]

    hi = max(t1, t2)
    sync_expected = hi > 0.0 and abs(t1 - t2) > 0.05 * hi
    term = AsymptoticTerm
    form_q = AsymptoticForm(terms=(term(complex(amp_q1), eig.E1, 0.5 * t1),
                                   term(complex(amp_q2), eig.E2, 0.5 * t2)),
                            sync_expected=sync_expected)
    form_p = AsymptoticForm(terms=(term(complex(amp_p1), eig.E1, 0.5 * t1),
                                   term(complex(amp_p2), eig.E2, 0.5 * t2)),
                            sync_expected=sync_expected)
    return form_q, form_p


def steady_state(rates: LindbladRates) -> np.ndarray:
    """Unique fixed point, in the eigenmode basis: product of per-mode
    thermal occupations.

    The occupations are read off the rates through detailed balance, so the
    result is consistent with whatever bath produced them.  Rotate it to
    the computational basis with ``simulate(...).transform``.
    """
    if rates.g1_total <= 0.0 or rates.g2_total <= 0.0:
        raise NoUniqueSteadyStateError(
            "a mode with zero total rate conserves its occupation; "
            "steady state is not unique")
    q1 = rates.g1_up / rates.g1_total
    q2 = rates.g2_up / rates.g2_total
    diag = np.array([(1 - q1) * (1 - q2), (1 - q1) * q2,
                     q1 * (1 - q2), q1 * q2])
    return np.diag(diag).astype(complex)


def plus_plus_state() -> np.ndarray:
    """(|0>+|1>)(|0>+|1>)/2 as a computational-basis density matrix."""
    vec = 0.5 * np.ones(4)
    return np.outer(vec, vec).astype(complex)


def to_eigenmode_basis(rho_comp: np.ndarray, transform: np.ndarray) -> np.ndarray:
    return transform.conj().T @ rho_comp @ transform


def to_computational_basis(rho_eig: np.ndarray, transform: np.ndarray) -> np.ndarray:
    return transform @ rho_eig @ transform.conj().T


def default_time_grid(t_max: float = 400.0, dt: float = 0.05) -> np.ndarray:
    n = int(round(t_max / dt))
    return np.linspace(0.0, n * dt, n + 1)


def trajectory_to_csv(traj: Trajectory, fh) -> None:
    """Write t, sx_q, sx_p rows in full double precision."""
    fh.write("t,sx_q,sx_p\n")
    # Python floats format faster than numpy scalars; chunks bound the copies
    cols = (traj.times, traj.sx_q, traj.sx_p)
    for i in range(0, traj.times.size, 65536):
        for row in zip(*(c[i:i + 65536].tolist() for c in cols)):
            fh.write("%.17g,%.17g,%.17g\n" % row)
