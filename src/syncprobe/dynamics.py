"""Time evolution of the 4x4 density matrix under the secular master equation.

Two independent evolution paths are kept first class and are cross-checked in
the tests:

* ``evolve_analytic`` solves the decoupled blocks of the secular equation in
  the eigenmode (quasiparticle Fock) basis by exact eigendecomposition of
  constant 2x2 coefficient matrices, then reinstates the Hamiltonian phases.
  The signals read only the four parity-allowed coherences, so that is all
  it evaluates; ``eigenmode_states`` builds the full states around them.
* ``evolve_numeric`` vectorizes the full Liouvillian (column stacking) and
  steps it with the matrix exponential.  Its jump operators come from the raw
  ``eigh`` eigenvectors, never the block algebra or the Bogoliubov angles,
  so agreement between the two is a real check, not bookkeeping.

Bases and picture
-----------------
``evolve_analytic``, ``asymptotic_form`` and ``steady_state`` work in the
eigenmode basis, Fock order |00>, |01> (mode 2), |10> (mode 1), |11>;
``to_eigenmode_basis`` rotates a computational-basis state into it.
``evolve_numeric`` expects the computational basis.  Both report observables
in the Schroedinger picture, with all Hamiltonian phases reinstated.  Only
``evolve_numeric`` stores states in its ``Trajectory``, in the computational
basis; ``eigenmode_states`` returns the closed form's in the eigenmode basis.

Expectation-value weights and the eigenmode transform are closed form in the
Bogoliubov angles (``fock_observable_weights``, ``eigenmode_transform``).  The
numeric transform, the common null vector of the two annihilators that
``build_operators`` writes out, survives only as the test oracle both are
held to.  All rates are plain angular frequencies in units of omega_q.
Results are arrays and dataclasses; trajectory.csv is written by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bath import (KAPPA_DEFAULT, LindbladRates, SpectralDensityModel,
                   bose_occupation, evaluate_J)
from .spin_model import (ID2, SIGMA_X, EigenStructure, QubitPairParams,
                         direct_diagonalize, fock_energies,
                         fock_observable_weights)


class StateValidationError(ValueError):
    """Input matrix is not a physical density matrix."""


class NoUniqueSteadyStateError(ValueError):
    """A mode is completely decoupled from the bath; fixed point not unique."""


def validate_density_matrix(rho: np.ndarray) -> None:
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise StateValidationError(f"expected a 4x4 matrix, got {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > 1e-12:
        raise StateValidationError(f"Hermiticity defect {herm:.3g} > 1e-12")
    tr = abs(np.trace(rho) - 1.0)
    if tr > 1e-12:
        raise StateValidationError(f"trace deviates from 1 by {tr:.3g}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -1e-10:
        raise StateValidationError(f"negative eigenvalue {lo:.3g}")


@dataclass(frozen=True)
class Trajectory:
    """Observable record of one evolution, or of a batch of them; only the
    numeric oracle stores its (computational-basis) states.

    ``sx_q`` and ``sx_p`` hold one value per time, or, for a batch (see
    ``evolve_analytic``), one row of them per point."""

    times: np.ndarray
    sx_q: np.ndarray
    sx_p: np.ndarray
    states: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2 or not np.all(np.diff(t) > 0):
            raise ValueError("times must be a strictly increasing 1-d grid")
        for name in ("sx_q", "sx_p"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape[-1:] != t.shape or v.ndim > 2:
                raise ValueError(f"{name} length does not match times")
            if not np.max(np.abs(v)) <= 1.0 + 1e-9:
                raise ValueError(f"{name} is not finite or exceeds the Pauli bound")
            object.__setattr__(self, name, v)
        if self.sx_q.shape != self.sx_p.shape:
            raise ValueError("sx_q and sx_p hold different numbers of rows")
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


class _Block(NamedTuple):
    """One parity-odd coherence block: its two entries (row, column), their
    initial values ``x``, the slow part of ``x``, the internal rate at which
    the fast part ``x - slow`` decays, and the rotation frequency and the
    dephasing rate the whole pair shares."""

    entries: tuple[tuple[int, int], tuple[int, int]]
    x: np.ndarray
    slow: np.ndarray
    rate: float
    freq: float
    dephase: float


def _blocks(eig: EigenStructure, rates: LindbladRates,
            rho0: np.ndarray) -> tuple[_Block, _Block]:
    """The two coherence blocks, the only entries a parity-odd observable reads.

    Block A couples (rho_01, rho_23) through mode-1 rates, is damped by half
    the mode-2 total rate and rotates at E2; block B couples (rho_02, rho_13)
    with the roles of the modes exchanged and sign-flipped cross terms, and
    rotates at E1.  ``slow_rates / rate`` projects onto the slow
    (non-decaying) mode of a block's rate matrix; a block with no internal
    rate is all slow.
    """
    g1u, g1d = rates.g1_up, rates.g1_down
    g2u, g2d = rates.g2_up, rates.g2_down
    t1, t2 = rates.g1_total, rates.g2_total
    table = []
    for entries, slow_rates, rate, freq, dephase in (
            (((0, 1), (2, 3)), [[g1d, g1d], [g1u, g1u]], t1, eig.E2, 0.5 * t2),
            (((0, 2), (1, 3)), [[g2d, -g2d], [-g2u, g2u]], t2, eig.E1, 0.5 * t1)):
        x = np.array([rho0[j, k] for j, k in entries])
        slow = x if rate == 0.0 else (np.array(slow_rates) / rate) @ x
        table.append(_Block(entries, x, slow, rate, freq, dephase))
    return tuple(table)


def _coherences(blocks, times: np.ndarray) -> dict:
    """Each block entry at every time, Schroedinger picture, keyed by
    (row, column): the pair evolves as exp((i*freq - dephase)*t) times
    slow + exp(-rate*t) * fast."""
    out = {}
    for b in blocks:
        rot = np.exp((1j * b.freq - b.dephase) * times)
        damp = np.exp(-b.rate * times)
        for entry, slow, fast in zip(b.entries, b.slow, b.x - b.slow):
            out[entry] = rot * (slow + damp * fast)
    return out


def _signal_terms(blocks, weights) -> tuple[np.ndarray, np.ndarray]:
    """(amps, exponents) with Tr(rho(t) W) = Re[amps[s] @ exp(exponents*t)]
    for the s-th real symmetric parity-odd W of ``weights``.

    Each block gives two exponentials, its rotation i*freq - dephase alone
    and with its internal decay rate, and per signal two amplitudes: the
    slow and the fast part of its entries against their weights, doubled
    for the conjugate entries."""
    exponents = np.array([1j * b.freq - b.dephase - r
                          for b in blocks for r in (0.0, b.rate)])
    amps = np.array([[2.0 * sum(w[k, j] * v for (j, k), v in zip(b.entries, part))
                      for b in blocks for part in (b.slow, b.x - b.slow)]
                     for w in weights])
    return amps, exponents


def eigenmode_states(eig: EigenStructure, rates: LindbladRates,
                     rho0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Full (n, 4, 4) states of the closed form, in the eigenmode basis like
    ``rho0``; ``evolve_analytic`` reads the same coherences for its signals.
    Rotate them back with ``to_computational_basis(rho, transform)``."""
    validate_density_matrix(rho0)
    times = np.asarray(times, dtype=float)
    n = times.size
    diag0 = np.real(np.diag(rho0))
    # decay exponents have real part <= 0: an overflow is -inf, exp gives 0
    with np.errstate(over="ignore"):
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
        for (j, k), val in _coherences(_blocks(eig, rates, rho0),
                                       times).items():
            rho_t[:, j, k] = val
        for j, k in ((0, 3), (1, 2)):
            rho_t[:, j, k] = rho0[j, k] * np.exp(
                (anti - 1j * (eps[j] - eps[k])) * times)
    iu = np.triu_indices(4, k=1)
    rho_t[:, iu[1], iu[0]] = np.conj(rho_t[:, iu[0], iu[1]])
    return rho_t


# Samples per chunk of evolve_analytic, over all the points of a batch.
# Chunks bound each temporary (128 KB with 64-sample rows), so long grids and
# large batches take little memory, a batch's kernel passes over
# temporaries that stay in cache, and a scan's repeated classifications
# reuse the same heap memory: whole-grid
# temporaries (640 KB each on a 40 001-sample grid) went back to the system
# and were faulted in again on every classification.  A chunk holds a
# scan's 6 240-sample late span whole.  Every operation is elementwise in
# time, so chunks change no bit (test_analytic_chunks_change_no_bit).
_EVOLVE_CHUNK = 8192
# Samples per row of the exponential tables; it divides 64, so a chunk of
# _EVOLVE_CHUNK samples is whole rows.
_ROW = 64


def _oscillations(amps: np.ndarray, exponents: np.ndarray, times: np.ndarray,
                  span: slice) -> np.ndarray:
    """Re[amps[p] @ exp(exponents[p] * t)] at every t of ``times[span]``
    for each point p of a batch, shape (P, S, span length): ``amps`` is
    (P, S, K), one row per signal and one column per exponent, and
    ``exponents`` is (P, K).

    Sample m*row + j of the whole grid takes exp(z*t) as the product of a
    coarse table, exp(z*times[m*row]), and a fine one, exp(z*j*dt), which
    also carries the amplitudes: one exponential per row instead of one
    per sample.  Rows hold _ROW samples on a grid of at least four rows
    that is uniform over the span's rows, and one sample on any other
    grid, whose fine table is then the amplitudes themselves.  The tables
    are anchored on the whole grid, and every product and sum is
    elementwise along the point axis, so a sample has the same bits in
    every span, chunk and batch that holds it.  Decay exponents have real
    part <= 0, so an overflowing product is -inf and its exponential 0.
    """
    n = times.size
    start, stop, step = span.indices(n)
    if step != 1:
        raise ValueError("span must be a slice of consecutive samples")
    points, signals, _ = amps.shape
    out = np.empty((points, signals, max(stop - start, 0)))
    uniform = n >= 4 * _ROW and _uniform(times[start - start % _ROW:stop])
    row = _ROW if uniform else 1
    first = start - start % row             # the span's first row
    fine = amps.transpose(0, 2, 1)
    with np.errstate(over="ignore"):
        if row > 1:
            dt = (times[-1] - times[0]) / (n - 1)
            fine = fine[:, :, :, None] * np.exp(
                exponents[:, :, None] * (np.arange(row) * dt))[:, :, None, :]
        fine = _parts(fine.reshape(points, exponents.shape[1], -1))
        rows = max(1, _EVOLVE_CHUNK // (row * points))
        for a in range(first, stop, rows * row):
            anchors = times[a:min(a + rows * row, stop):row]
            part = _real_sum(np.exp(exponents[:, :, None] * anchors), fine)
            part = part.reshape(points, anchors.size, signals, row)
            part = part.transpose(0, 2, 1, 3).reshape(points, signals, -1)
            lo, hi = max(a, start), min(a + part.shape[2], stop)
            out[:, :, lo - start:hi - start] = part[:, :, lo - a:hi - a]
    return out


def _uniform(t: np.ndarray) -> bool:
    """Whether t[i] = t[0] + i*dt to 4 ulps of the largest |t|, with the
    step dt of the end points."""
    if t.size < 2:
        return True
    dev = np.arange(t.size, dtype=float)
    dev *= (t[-1] - t[0]) / (t.size - 1)
    dev += t[0]
    dev -= t
    bound = 4.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
    return bool(np.max(np.abs(dev)) <= bound)


def _parts(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of ``z`` as contiguous arrays."""
    return np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)


def _real_sum(c: np.ndarray, g: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Re[sum_k c[p, k, m] * g[p, k, i]] for every (p, m, i), g given as
    its ``_parts``.  Each product is one IEEE multiplication (einsum's
    outer product, faster here than a broadcast multiply) and the sum runs
    in a fixed order, so an entry's bits depend on its own c and g alone."""
    cr, ci = _parts(c)
    gr, gi = g
    out = np.einsum("pi,pj->pij", cr[:, 0], gr[:, 0])
    tmp = np.empty_like(out)
    for k in range(c.shape[1]):
        if k:
            out += np.einsum("pi,pj->pij", cr[:, k], gr[:, k], out=tmp)
        out -= np.einsum("pi,pj->pij", ci[:, k], gi[:, k], out=tmp)
    return out


def evolve_analytic(eig, rates, rho0, times: np.ndarray,
                    span: slice | None = None) -> Trajectory:
    """Exact block solution; ``rho0`` must be given in the eigenmode basis.

    ``eig``, ``rates`` and ``rho0`` describe one setup (an EigenStructure,
    its LindbladRates and a state), or are equal-length sequences of them,
    a batch of setups on one grid: the Trajectory then holds one row of
    signals per setup, each with the bits it has alone.  Works on any
    increasing time grid (the closed form needs no stepping).  ``times``
    is the whole grid and ``span`` the part of it to evaluate, by default
    all of it; the Trajectory holds the span alone.  Returns the signals
    only: they read only the four parity-allowed coherences, two damped
    exponentials per coherence block, evaluated chunk by chunk
    (_EVOLVE_CHUNK) from tables anchored on the whole grid
    (``_oscillations``), so a sample has the same bits in any span of a
    uniform grid.  The dense (n, 4, 4) states come from
    ``eigenmode_states``.
    """
    batch = not isinstance(eig, EigenStructure)
    setups = zip(eig, rates, rho0, strict=True) if batch else [(eig, rates, rho0)]
    terms = []
    for e, r, rho in setups:
        validate_density_matrix(rho)
        terms.append(_signal_terms(_blocks(e, r, rho), fock_observable_weights(e)))
    times = np.asarray(times, dtype=float)
    span = slice(None) if span is None else span
    signals = _oscillations(np.array([a for a, _ in terms]),
                            np.array([z for _, z in terms]), times, span)
    if not batch:
        signals = signals[0]
    return Trajectory(times=times[span], sx_q=signals[..., 0, :],
                      sx_p=signals[..., 1, :])


def _liouvillian(h: np.ndarray, collapse: list[np.ndarray]) -> np.ndarray:
    eye = np.eye(h.shape[0])
    lv = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in collapse:
        cdc = c.conj().T @ c
        lv = lv + (np.kron(c.conj(), c)
                   - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye)))
    return lv


def _secular_collapse_ops(params: QubitPairParams, model: SpectralDensityModel,
                          temp: float, kappa: float):
    """The Hamiltonian and collapse operators (computational basis) from the
    raw eigenvectors: sigma_q^x projected onto each positive gap is the jump
    operator at that gap."""
    evals, evecs = direct_diagonalize(params)
    sx_eig = evecs.conj().T @ np.kron(SIGMA_X, ID2) @ evecs
    gaps = {}
    for a in range(4):
        for b in range(4):
            w = evals[b] - evals[a]
            if w > 1e-9 and abs(sx_eig[a, b]) > 1e-12:
                # group equal gaps by a rounded key, but keep the exact
                # gap as the frequency the bath is evaluated at
                _, op = gaps.setdefault(
                    round(w, 9), (float(w), np.zeros((4, 4), dtype=complex)))
                op += sx_eig[a, b] * np.outer(evecs[:, a], evecs[:, b].conj())

    collapse = []
    for freq, op in gaps.values():
        j = evaluate_J(model, freq)
        if j == 0.0:
            continue
        occ = bose_occupation(freq, temp)
        collapse.append(np.sqrt(kappa * j * (1.0 + occ)) * op)
        if occ > 0.0:
            collapse.append(np.sqrt(kappa * j * occ) * op.conj().T)
    return evecs @ np.diag(evals) @ evecs.conj().T, collapse


def uniform_step(times: np.ndarray) -> float:
    # The mean step, not the first difference: on a grid that does not start
    # at 0 one difference is off by up to a few ulps of the absolute time.
    # On a linspace grid from 0 this is t[1] - t[0] bit for bit.
    if times.size < 2:
        raise ValueError("time grid needs at least 2 samples")
    dt = (times[-1] - times[0]) / (times.size - 1)
    # np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-12), without its
    # per-element isclose passes
    if not np.max(np.abs(np.diff(times) - dt)) <= 1e-12 + 1e-9 * abs(dt):
        raise ValueError("time grid must be uniform")
    return float(dt)


def evolve_numeric(params: QubitPairParams, model: SpectralDensityModel,
                   T: float | None, rho0: np.ndarray, times: np.ndarray,
                   kappa: float = KAPPA_DEFAULT) -> Trajectory:
    """Vectorized-Liouvillian evolution; ``rho0`` in the computational basis.

    Requires a uniform time grid (the propagator for one step is exponentiated
    once and reused).  ``T=None`` falls back to ``params.temperature``.  It
    shares nothing with the closed form (see the module docstring) and always
    returns the (n, 4, 4) states.
    """
    validate_density_matrix(rho0)
    times = np.asarray(times, dtype=float)
    dt = uniform_step(times)
    temp = params.temperature if T is None else float(T)

    import scipy.linalg  # here: no CLI path runs the numeric oracle

    h, collapse = _secular_collapse_ops(params, model, temp, kappa)
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
    return Trajectory(times=times, sx_q=sx_q, sx_p=sx_p, states=rho_t)


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
    blocks = _blocks(eig, rates, rho0)[::-1]       # E1's term first
    t1, t2 = rates.g1_total, rates.g2_total
    hi = max(t1, t2)
    sync_expected = hi > 0.0 and abs(t1 - t2) > 0.05 * hi
    forms = []
    for w in fock_observable_weights(eig):
        # a block's slow part against its entries' weights is its amplitude
        terms = tuple(
            AsymptoticTerm(complex(b.slow @ [w[k, j] for j, k in b.entries]),
                           b.freq, b.dephase) for b in blocks)
        forms.append(AsymptoticForm(terms=terms, sync_expected=sync_expected))
    return tuple(forms)


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


def default_time_grid(t_max: float, dt: float) -> np.ndarray:
    n = int(round(t_max / dt))
    return np.linspace(0.0, n * dt, n + 1)

