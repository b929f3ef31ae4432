"""Time evolution of the 4x4 density matrix under the secular master equation.

Two independent evolution paths are kept first class and are cross-checked in
the tests:

* ``evolve_analytic`` solves the decoupled blocks of the secular equation in
  the eigenmode (quasiparticle Fock) basis by exact eigendecomposition of
  constant 2x2 coefficient matrices, then reinstates the Hamiltonian phases.
  The signals read only the four parity-allowed coherences, so that is all
  it evaluates.  ``evolve_correlator`` gives the interspin correlator the
  same way, from the singly excited populations and their coherence; no
  path builds the closed form's dense (n, 4, 4) states.
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
basis.

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
                         direct_diagonalize, fock_observable_weights)


class StateValidationError(ValueError):
    """Input matrix is not a physical density matrix."""


class NoUniqueSteadyStateError(ValueError):
    """A mode is completely decoupled from the bath; fixed point not unique."""


def validate_density_matrix(rho: np.ndarray) -> None:
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise StateValidationError(f"expected a 4x4 matrix, got {rho.shape}")
    # each check written to fail on NaN, which compares false
    herm = np.max(np.abs(rho - rho.conj().T))
    if not herm <= 1e-12:
        raise StateValidationError(f"Hermiticity defect {herm:.3g} > 1e-12")
    tr = abs(np.trace(rho) - 1.0)
    if not tr <= 1e-12:
        raise StateValidationError(f"trace deviates from 1 by {tr:.3g}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if not lo >= -1e-10:
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


# The two parity-odd coherence blocks, the only entries a parity-odd
# observable reads: block A, (rho_01, rho_23), and block B, (rho_02, rho_13),
# as (row, column) pairs, and as row and column index arrays (block, entry).
_BLOCK_ENTRIES = (((0, 1), (2, 3)), ((0, 2), (1, 3)))
_ROWS, _COLS = np.array(_BLOCK_ENTRIES).transpose(2, 0, 1)


def _leading(a: np.ndarray, k: int) -> np.ndarray:
    """``a`` with its last ``k`` axes moved in front of the others."""
    return a.transpose(*range(a.ndim - k, a.ndim), *range(a.ndim - k))


class _Blocks(NamedTuple):
    """The coherence blocks, A then B, along the first axis of every field:
    the initial values ``x`` of their two entries and the slow part of
    ``x`` (entries second), the internal rate at which the fast part
    ``x - slow`` decays, and the rotation frequency and the dephasing rate
    each block's pair shares.  A batch adds a last axis of one entry per
    point."""

    x: np.ndarray
    slow: np.ndarray
    rate: np.ndarray
    freq: np.ndarray
    dephase: np.ndarray


def _blocks(eig: EigenStructure, rates: LindbladRates,
            rho0: np.ndarray) -> _Blocks:
    """The two coherence blocks of ``rho0`` (eigenmode basis; a batch has
    one (4, 4) state per point, first).

    Block A couples (rho_01, rho_23) through mode-1 rates, is damped by half
    the mode-2 total rate and rotates at E2; block B couples (rho_02, rho_13)
    with the roles of the modes exchanged and sign-flipped cross terms, and
    rotates at E1.  ``slow_rates / rate`` projects onto the slow
    (non-decaying) mode of a block's rate matrix; a block with no internal
    rate is all slow.  For a batch (array fields) every operation is
    elementwise over the points, so each has the bits it has alone.
    """
    g1u, g1d = rates.g1_up, rates.g1_down
    g2u, g2d = rates.g2_up, rates.g2_down
    x = _leading(rho0[..., _ROWS, _COLS], 2)
    rate = np.array([rates.g1_total, rates.g2_total])
    # slow_rates[block, row, entry]
    slow_rates = np.array([[[g1d, g1d], [g1u, g1u]],
                           [[g2d, -g2d], [-g2u, g2u]]])
    with np.errstate(divide="ignore", invalid="ignore"):   # rate 0: unused
        proj = slow_rates / rate[:, None, None]
    slow = proj[:, :, 0] * x[:, None, 0] + proj[:, :, 1] * x[:, None, 1]
    if not rate.all():
        slow = np.where(rate[:, None] == 0.0, x, slow)
    return _Blocks(x, slow, rate, np.array([eig.E2, eig.E1]), 0.5 * rate[::-1])


def _signal_terms(blocks: _Blocks, weights) -> tuple[np.ndarray, np.ndarray]:
    """(amps, exponents) with Tr(rho(t) W) = Re[amps[..., s, :] @
    exp(exponents * t)] for the s-th real symmetric parity-odd W of
    ``weights``: amps (..., 2, 4) and exponents (..., 4), with a leading
    point axis for a batch.

    Each block gives two exponentials, its rotation i*freq - dephase alone
    and with its internal decay rate, and per signal two amplitudes: the
    slow and the fast part of its entries against their weights, doubled
    for the conjugate entries."""
    # exponents[block, part], parts[block, part, entry] and
    # w[signal, block, entry] = W[column, row] of the entry, points last
    rotation = 1j * blocks.freq - blocks.dephase
    exponents = np.array([rotation, rotation - blocks.rate]).swapaxes(0, 1)
    parts = np.array([blocks.slow, blocks.x - blocks.slow]).swapaxes(0, 1)
    w = np.array(weights)[..., _COLS, _ROWS]
    w = w.transpose(0, w.ndim - 2, w.ndim - 1, *range(1, w.ndim - 2))
    amps = 2.0 * (w[:, :, None, 0] * parts[None, :, :, 0]
                  + w[:, :, None, 1] * parts[None, :, :, 1])
    points = rotation.shape[1:]
    return (_leading(amps.reshape((2, 4) + points), len(points)).copy(),
            _leading(exponents.reshape((4,) + points), len(points)).copy())


def _relaxation(up, down) -> tuple[np.ndarray, np.ndarray]:
    """(eq, rest), points first, with eq + exp(-(up + down)*t) * rest the
    population propagator exp(t*[[-up, down], [up, -down]]) of one mode:
    ``up`` pumps occupation 0 -> 1, ``down`` relaxes 1 -> 0.  A mode with
    no rate is all eq, the identity."""
    tot = np.asarray(up + down)[..., None, None]
    eq = np.array([[down, down], [up, up]], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):   # rate 0: unused
        eq = np.where(tot == 0.0, np.eye(2), _leading(eq, eq.ndim - 2) / tot)
    return eq, np.eye(2) - eq


def _correlator_terms(eig: EigenStructure, rates: LindbladRates,
                      rho0: np.ndarray, transform: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(amps, exponents), each (..., 6) with a leading point axis for a
    batch, with Tr(rho(t) op) = amps @ exp(exponents * t) for op = V^T
    (sigma_q^+ sigma_p^-) V, V = ``transform``.

    op = outer(V[1], V[2]) reads only the singly excited Fock states |01>
    and |10>: their populations, which relax as the product of the two
    modes' propagators (exponents 0, -t2, -t1 and -(t1 + t2), t_i the
    mode-i total rate), and the coherence rho_12 and its conjugate, which
    only dephase, at -(t1 + t2)/2 +- i(E1 - E2)."""
    # w[j, k] = op[k, j] over |01>, |10>, so Tr(rho op) = sum rho_jk w[j, k]
    w = transform[..., 2, 1:3, None] * transform[..., 1, None, 1:3]
    pops = np.real(np.diagonal(rho0, axis1=-2, axis2=-1))
    pops = pops.reshape(pops.shape[:-1] + (2, 2))           # [n1, n2]
    eq1, rest1 = _relaxation(rates.g1_up, rates.g1_down)
    eq2, rest2 = _relaxation(rates.g2_up, rates.g2_down)
    amps = []
    for u1, u2 in ((eq1, eq2), (eq1, rest2), (rest1, eq2), (rest1, rest2)):
        # the populations [n1, n2] this part of the propagator carries
        part = u1 @ pops @ u2.swapaxes(-1, -2)
        amps.append(w[..., 0, 0] * part[..., 0, 1]
                    + w[..., 1, 1] * part[..., 1, 0])
    amps += [rho0[..., 1, 2] * w[..., 0, 1], rho0[..., 2, 1] * w[..., 1, 0]]
    t1, t2 = rates.g1_total, rates.g2_total
    coherence = -0.5 * (t1 + t2) + 1j * (eig.E1 - eig.E2)
    exponents = [np.zeros_like(t1 + t2), -t2, -t1, -(t1 + t2),
                 coherence, np.conj(coherence)]
    return (np.moveaxis(np.array(amps, dtype=complex), 0, -1),
            np.moveaxis(np.array(exponents, dtype=complex), 0, -1))


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
    """Exact block solution; ``rho0`` is a density matrix in the eigenmode
    basis, which this does not check: ``probe_protocol.simulate`` and the
    sweep validate the computational-basis state it is rotated from.

    ``eig`` and ``rates`` describe one setup, with ``rho0`` (4, 4), or a
    batch of setups on one grid: array fields with one entry per point and
    ``rho0`` (P, 4, 4).  The Trajectory then holds one row of signals per
    point, each with the bits it has alone.  Works on any increasing time
    grid (the closed form needs no stepping).  ``times`` is the whole grid
    and ``span`` the part of it to evaluate, by default all of it; the
    Trajectory holds the span alone.  Returns the signals only: they read
    only the four parity-allowed coherences, two damped exponentials per
    coherence block (``_signal_terms``), evaluated chunk by chunk
    (_EVOLVE_CHUNK) from tables anchored on the whole grid
    (``_oscillations``), so a sample has the same bits in any span of a
    uniform grid.  No path builds the dense (n, 4, 4) states; the
    correlator comes from ``evolve_correlator``.
    """
    amps, exponents = _signal_terms(_blocks(eig, rates, rho0), eig.weights)
    times = np.asarray(times, dtype=float)
    span = slice(None) if span is None else span
    signals = _oscillations(amps.reshape(-1, 2, 4), exponents.reshape(-1, 4),
                            times, span)
    if amps.ndim == 2:
        signals = signals[0]
    return Trajectory(times=times[span], sx_q=signals[..., 0, :],
                      sx_p=signals[..., 1, :])


def evolve_correlator(eig, rates, rho0, transform: np.ndarray,
                      times: np.ndarray, span: slice | None = None
                      ) -> np.ndarray:
    """The complex interspin correlator Tr(rho(t) op), op = V^T
    (sigma_q^+ sigma_p^-) V, at every t of ``times[span]`` (by default all
    of it): ``signal_analysis.spin_correlator`` of each state rotated back
    to the computational basis.  ``eig``, ``rates`` and ``rho0``
    (eigenmode basis) are as for ``evolve_analytic``, and ``transform`` is
    V, or one V per point of a batch, which then gives one row per point.

    Its six damped exponentials (``_correlator_terms``) run through the
    signal kernel, ``_oscillations``, with the real and the imaginary part
    as its two signals, so a sample has the same bits in any span and any
    batch."""
    amps, exponents = _correlator_terms(eig, rates, rho0, transform)
    times = np.asarray(times, dtype=float)
    span = slice(None) if span is None else span
    parts = _oscillations(np.stack((amps, -1j * amps), -2).reshape(-1, 2, 6),
                          exponents.reshape(-1, 6), times, span)
    # filled in place: a complex temporary per part raised a figcorr
    # sweep's peak RSS by 0.4 MB
    corr = np.empty(parts.shape[::2], dtype=complex)
    corr.real, corr.imag = parts[:, 0], parts[:, 1]
    return corr[0] if amps.ndim == 1 else corr


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
    blocks = _blocks(eig, rates, rho0)
    t1, t2 = rates.g1_total, rates.g2_total
    hi = max(t1, t2)
    sync_expected = hi > 0.0 and abs(t1 - t2) > 0.05 * hi
    forms = []
    for w in fock_observable_weights(eig):
        # a block's slow part against its entries' weights is its
        # amplitude; block B, E1's term, first
        terms = tuple(
            AsymptoticTerm(complex(blocks.slow[b] @ w[_COLS[b], _ROWS[b]]),
                           blocks.freq[b], blocks.dephase[b]) for b in (1, 0))
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
    """V^dag rho V; a stack of transforms (P, 4, 4) rotates ``rho_comp`` into
    each, and every rotation has the bits it has alone."""
    return transform.conj().swapaxes(-1, -2) @ rho_comp @ transform


def to_computational_basis(rho_eig: np.ndarray, transform: np.ndarray) -> np.ndarray:
    return transform @ rho_eig @ transform.conj().T


def default_time_grid(t_max: float, dt: float) -> np.ndarray:
    n = int(round(t_max / dt))
    return np.linspace(0.0, n * dt, n + 1)

