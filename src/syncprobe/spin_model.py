"""Coupled qubit-probe pair: closed-form diagonalization and operator algebra.

Model
-----
Two spins 1/2 (the system qubit q and the tunable probe p) with

    H_S = (omega_q/2) sz_q + (omega_p/2) sz_p + lam * sx_q sx_p

in units of the qubit frequency (omega_q = 1 internally, hbar = k_B = 1).

Conventions (load-bearing; every sign downstream depends on these)
------------------------------------------------------------------
* Computational basis |b_q b_p> ordered |00>, |01>, |10>, |11> with
  sz|0> = +|0>.  The bare single-spin ground state is therefore |1>.
* Jordan-Wigner ladder operators:

      c1 = sp (x) I,      c2 = sz (x) sp,      sp = |0><1|

  so c_i *annihilates* a fermion, the occupation n_i = c_i^dag c_i equals the
  bit value, and sx_q = c1 + c1^dag, sx_p = (1 - 2 n1)(c2 + c2^dag).
* Quasiparticle (Bogoliubov) modes, with tp = theta_plus, tm = theta_minus:

      eta1 =  cos(tm)cos(tp) c1^dag - cos(tm)sin(tp) c2
             - sin(tm)cos(tp) c2^dag - sin(tm)sin(tp) c1
      eta2 =  sin(tm)cos(tp) c1^dag - sin(tm)sin(tp) c2
             + cos(tm)cos(tp) c2^dag + cos(tm)sin(tp) c1

  These satisfy canonical anticommutation for any angles; the rotation angles

      2*theta_pm = atan2(2*lam, omega_q +/- omega_p)

  are the unique choice (up to relabeling) that makes

      H_S = E1 (eta1^dag eta1 - 1/2) + E2 (eta2^dag eta2 - 1/2)

  a matrix identity, with E1 = (Delta+delta)/2 >= E2 = (Delta-delta)/2,
  Delta = sqrt(4 lam^2 + (omega_q+omega_p)^2), delta likewise with the
  difference frequency.  Keeping the sign of omega_q - omega_p inside atan2
  puts 2*theta_minus in (pi/2, pi] when omega_p > omega_q, which relabels the
  modes automatically so that eta1 always carries the larger energy E1
  (at lam = 0 and omega_p > omega_q this gives eta1 = -c2^dag; the phase is
  conventional and cancels in every observable).
* Parity P = (1 - 2 n_eta1)(1 - 2 n_eta2) = sz_q sz_p; the probe observable
  decomposes over the parity-dressed modes et_i = eta_i P as

      sx_q = cos(tp+tm) (eta1^dag + eta1) + sin(tp+tm) (eta2^dag + eta2)
      sx_p = sin(tp-tm) (et1^dag + et1) + cos(tp-tm) (et2^dag + et2).

  The dressing is applied from the right.  P anticommutes with each eta_i, so
  eta_i P = -P eta_i: the left-dressed choice is the same operator pair with
  both probe coefficients negated, and no observable depends on which of the
  two is used.  The right-dressed form is the one for which the sx_p identity
  above holds with these angle signs.  Every eigenmode_transform call checks
  it, as V^T sx_p V = W_p with W_p from fock_observable_weights.
* The quasiparticle Fock states are real in the computational basis, so the
  eigenmode transform is a closed-form rotation in the angles.  The operator
  matrices of build_operators are the algebra reference the tests use.

Everything here is a pure function of its inputs; all arrays are fresh and
safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
ID2 = np.eye(2, dtype=complex)


class ConventionError(RuntimeError):
    """A quasiparticle branch/sign convention check failed: a bug."""


class FieldError(ValueError):
    """A config dataclass field out of range; ``field`` names it."""

    def __init__(self, name: str, message: str):
        self.field, self.message = name, message
        super().__init__(f"{name} {message}")


class Bounds(NamedTuple):
    """A config field's default and range: above ``minimum`` (or at it,
    unless ``strict``), at most ``maximum``, finite unless ``infinite``."""

    default: object = MISSING
    minimum: float | None = None
    strict: bool = False
    maximum: float | None = None
    infinite: bool = False

    def error(self, value) -> str | None:
        """The bound ``value`` breaks, as "> 0" or "<= 1", or None; NaN
        breaks every bound."""
        lo = self.minimum
        if lo is not None and not (value > lo if self.strict else value >= lo):
            return f"{'>' if self.strict else '>='} {lo:g}"
        if self.maximum is not None and not value <= self.maximum:
            return f"<= {self.maximum:g}"
        return None


def bounded(default=MISSING, *, above=None, at_least=None, at_most=None,
            infinite=False):
    """A dataclass field held to its Bounds by ``check_fields``; a field
    whose default is None may also be None."""
    return field(default=default, metadata={"bounds": Bounds(
        default, at_least if above is None else above, above is not None,
        at_most, infinite)})


@cache
def field_bounds(cls) -> dict:
    """Field name -> Bounds of dataclass ``cls``'s bounded fields, in order."""
    return {f.name: f.metadata["bounds"] for f in fields(cls)
            if "bounds" in f.metadata}


def check_fields(obj) -> None:
    """Raise FieldError for the first bounded field of dataclass ``obj``
    outside its Bounds; each class's ``__post_init__`` calls it."""
    for name, b in field_bounds(type(obj)).items():
        value = getattr(obj, name)
        if value is None and b.default is None:
            continue
        if value is None or not (b.infinite or math.isfinite(value)):
            raise FieldError(name, f"must be finite, got {value}")
        broken = b.error(value)
        if broken:
            none = " or None" if b.default is None else ""
            raise FieldError(name, f"must be {broken}{none}, got {value}")


@dataclass(frozen=True)
class QubitPairParams:
    """Knobs of the pair Hamiltonian. lam is the XX coupling strength."""

    omega_q: float = bounded(1.0, above=0.0)
    omega_p: float = bounded(1.0, above=0.0)
    lam: float = bounded(0.0, at_least=0.0)
    temperature: float = bounded(0.0, at_least=0.0)

    __post_init__ = check_fields


class PairBatch(NamedTuple):
    """The fields of QubitPairParams as arrays, one entry per pair of a
    batch, taken as they are: their values were checked where they were
    parsed.  ``diagonalize``, ``eigenmode_transform`` and
    ``probe_protocol.pair_setup`` broadcast over them."""

    omega_q: np.ndarray
    omega_p: np.ndarray
    lam: np.ndarray
    temperature: np.ndarray


@dataclass(frozen=True)
class EigenStructure:
    """Closed-form spectrum and rotation angles of H_S: floats, or arrays
    with one entry per pair of a PairBatch."""

    E1: float
    E2: float
    theta_plus: float
    theta_minus: float
    Delta: float
    delta: float

    @cached_property
    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """``fock_observable_weights(self)``, computed once: the transform's
        self-check and the signals both read them."""
        return fock_observable_weights(self)


@dataclass(frozen=True)
class OperatorSet:
    """All 4x4 matrices in the computational basis."""

    eta1: np.ndarray
    eta2: np.ndarray
    eta1_tilde: np.ndarray
    eta2_tilde: np.ndarray
    parity: np.ndarray
    sx_q: np.ndarray
    sx_p: np.ndarray
    sz_q: np.ndarray
    sz_p: np.ndarray
    h_s: np.ndarray


def diagonalize(params) -> EigenStructure:
    """Closed-form eigenfrequencies and Bogoliubov angles of H_S.

    ``params`` is a QubitPairParams, or a PairBatch whose fields are
    arrays: the EigenStructure then holds one entry per pair in each field,
    each with the bits it has alone.  E1 >= E2 >= 0 always; the degenerate
    corner (equal frequencies at zero coupling) yields E1 = E2 and is legal
    here.  E2 is omega_q * omega_p / E1 (E1 E2 = omega_q omega_p), not
    (Delta - delta)/2, which cancels when E2 << E1; it is 0 only where that
    quotient underflows, which ``lindblad_rates`` rejects.
    """
    wq, wp, lam = params.omega_q, params.omega_p, params.lam
    w_sum = wq + wp
    w_dif = wq - wp
    Delta = np.hypot(2.0 * lam, w_sum)
    delta = np.hypot(2.0 * lam, w_dif)
    # atan2 keeps the sign of w_dif: 2*theta_minus in (pi/2, pi] when
    # omega_p > omega_q, which is what relabels the modes so E1 stays with
    # eta1. At lam = 0 the angles are exactly 0 or pi/2, never 0/0.
    theta_plus = 0.5 * np.arctan2(2.0 * lam, w_sum)
    theta_minus = 0.5 * np.arctan2(2.0 * lam, w_dif)
    E1 = 0.5 * (Delta + delta)
    # E1 >= max(omega_q, omega_p), so omega_p / E1 <= 1 and only an E2
    # below the smallest double underflows
    E2 = wq * (wp / E1)
    return EigenStructure(E1=E1, E2=E2, theta_plus=theta_plus,
                          theta_minus=theta_minus, Delta=Delta, delta=delta)


def _hamiltonian_matrix(params) -> np.ndarray:
    """H_S in the computational basis, entry by entry (a stack of them for
    a PairBatch).

    Bit for bit the Kronecker-product sum (omega_q/2) sz (x) I
    + (omega_p/2) I (x) sz + lam sx (x) sx, without forming the products.
    """
    a, b = 0.5 * np.asarray(params.omega_q), 0.5 * np.asarray(params.omega_p)
    h = np.zeros(a.shape + (4, 4), dtype=complex)
    h[..., 0, 0], h[..., 1, 1] = a + b, a - b
    h[..., 2, 2], h[..., 3, 3] = b - a, -a - b
    h[..., 0, 3] = h[..., 1, 2] = h[..., 2, 1] = h[..., 3, 0] = params.lam
    return h


def build_operators(params: QubitPairParams, eig: EigenStructure) -> OperatorSet:
    """Construct eta_i, parity, and the Pauli/Hamiltonian matrices.

    Raises ConventionError if the canonical anticommutation relations or the
    H_S reconstruction identity fail at _CHECK_TOL, relative to the operator
    each rebuilds (that would mean a branch-sign bug, not a numerical
    accident: all formulas are closed-form).
    """
    c1 = np.kron(SIGMA_PLUS, ID2)
    c2 = np.kron(SIGMA_Z, SIGMA_PLUS)

    tp, tm = eig.theta_plus, eig.theta_minus
    ctp, stp = np.cos(tp), np.sin(tp)
    ctm, stm = np.cos(tm), np.sin(tm)

    c1d, c2d = c1.conj().T, c2.conj().T
    eta1 = ctm * ctp * c1d - ctm * stp * c2 - stm * ctp * c2d - stm * stp * c1
    eta2 = stm * ctp * c1d - stm * stp * c2 + ctm * ctp * c2d + ctm * stp * c1

    sz_q = np.kron(SIGMA_Z, ID2)
    sz_p = np.kron(ID2, SIGMA_Z)
    sx_q = np.kron(SIGMA_X, ID2)
    sx_p = np.kron(ID2, SIGMA_X)
    h_s = _hamiltonian_matrix(params)

    n1 = eta1.conj().T @ eta1
    n2 = eta2.conj().T @ eta2
    parity = (np.eye(4) - 2.0 * n1) @ (np.eye(4) - 2.0 * n2)
    eta1_tilde = eta1 @ parity
    eta2_tilde = eta2 @ parity

    # Convention self-checks. Cheap (a handful of 4x4 products) and they turn
    # a wrong branch choice into a loud failure instead of a subtly wrong
    # trajectory.  Each defect is relative to max(1, the largest entry of
    # the operator it rebuilds), so rounding at a large energy scale passes.
    def _anti(a, b):
        return a @ b + b @ a

    eye = np.eye(4)
    eta1d, eta2d = eta1.conj().T, eta2.conj().T
    defects = {
        "{eta1,eta1}": _anti(eta1, eta1),
        "{eta2,eta2}": _anti(eta2, eta2),
        "{eta1,eta2}": _anti(eta1, eta2),
        "{eta1,eta2d}": _anti(eta1, eta2d),
        "{eta1,eta1d}-I": _anti(eta1, eta1d) - eye,
        "{eta2,eta2d}-I": _anti(eta2, eta2d) - eye,
    }
    for name, mat in defects.items():
        if np.max(np.abs(mat)) > _CHECK_TOL:
            raise ConventionError(f"anticommutation failed: {name}")

    h_rebuilt = eig.E1 * (n1 - 0.5 * eye) + eig.E2 * (n2 - 0.5 * eye)
    if _relative_defect(h_rebuilt - h_s, h_s) > _CHECK_TOL:
        raise ConventionError(
            "H_S != E1 (n1 - 1/2) + E2 (n2 - 1/2); branch convention broken")

    s_ang = eig.theta_plus + eig.theta_minus
    d_ang = eig.theta_plus - eig.theta_minus
    sxq_rebuilt = (np.cos(s_ang) * (eta1d + eta1)
                   + np.sin(s_ang) * (eta2d + eta2))
    if _relative_defect(sxq_rebuilt - sx_q, sx_q) > _CHECK_TOL:
        raise ConventionError("sx_q quasiparticle decomposition broken")
    sxp_rebuilt = (np.sin(d_ang) * (eta1_tilde.conj().T + eta1_tilde)
                   + np.cos(d_ang) * (eta2_tilde.conj().T + eta2_tilde))
    if _relative_defect(sxp_rebuilt - sx_p, sx_p) > _CHECK_TOL:
        raise ConventionError("sx_p parity-dressed decomposition broken")

    return OperatorSet(eta1=eta1, eta2=eta2, eta1_tilde=eta1_tilde,
                       eta2_tilde=eta2_tilde, parity=parity,
                       sx_q=sx_q, sx_p=sx_p, sz_q=sz_q, sz_p=sz_p, h_s=h_s)


def direct_diagonalize(params: QubitPairParams):
    """Dense numerical diagonalization of the 4x4 H_S (the oracle).

    Returns (eigenvalues ascending, unitary whose columns are eigenvectors).
    """
    evals, evecs = np.linalg.eigh(_hamiltonian_matrix(params))
    return evals, evecs


def fock_energies(eig: EigenStructure) -> np.ndarray:
    """H_S eigenvalues of the Fock states |00>, |01>, |10>, |11>, along the
    last axis."""
    half = 0.5 * (eig.E1 + eig.E2)
    energies = np.array([-half, 0.5 * (eig.E2 - eig.E1),
                         0.5 * (eig.E1 - eig.E2), half])
    return energies.transpose(*range(1, energies.ndim), 0)


def fock_observable_weights(eig: EigenStructure):
    """(W_q, W_p): sigma_x matrices in the eigenmode basis, from the angles
    (a stack of them for a batch EigenStructure).

    Closed form, from the sx_q and sx_p decompositions in the module
    docstring.  sigma^x flips quasiparticle parity, so the only nonzero
    entries connect the even states {vac, doubly excited} with the odd
    singly-excited pair.
    """
    cs = np.cos(eig.theta_plus + eig.theta_minus)
    ss = np.sin(eig.theta_plus + eig.theta_minus)
    cd = np.cos(eig.theta_plus - eig.theta_minus)
    sd = np.sin(eig.theta_plus - eig.theta_minus)
    w_q = np.zeros(np.shape(cs) + (4, 4))
    w_q[..., 0, 2] = w_q[..., 1, 3] = cs
    w_q[..., 0, 1] = ss
    w_q[..., 2, 3] = -ss
    w_p = np.zeros(w_q.shape)
    w_p[..., 0, 2] = -sd
    w_p[..., 1, 3] = sd
    w_p[..., 0, 1] = w_p[..., 2, 3] = -cd
    return w_q + w_q.swapaxes(-1, -2), w_p + w_p.swapaxes(-1, -2)


_CHECK_TOL = 1e-10   # of the convention self-checks, relative (_relative_defect)
_EYE4 = np.eye(4)
_SX_Q = np.kron(SIGMA_X, ID2).real
_SX_P = np.kron(ID2, SIGMA_X).real
_TRANSFORM_CHECKS = ("V^T V = I", "V^T H_S V = diag(Fock energies)",
                     "V^T sx_q V = W_q", "V^T sx_p V = W_p")
# the operators of the checks, with H_S (second) set per pair
_TRANSFORM_OPS = np.array([_EYE4, np.zeros((4, 4)), _SX_Q, _SX_P])


def _relative_defect(diff: np.ndarray, op: np.ndarray) -> np.ndarray:
    """The largest entry of |diff| over the last two axes, divided by
    max(1, the largest entry of |op|), the operator whose identity ``diff``
    checks: the operators are of order one except H_S, whose rounding
    grows with the energy scale."""
    return (abs(diff).max(axis=(-2, -1))
            / np.maximum(1.0, abs(op).max(axis=(-2, -1))))


def eigenmode_transform(params, eig: EigenStructure) -> np.ndarray:
    """Real orthogonal V whose columns are the quasiparticle Fock states
    (a stack of them, one per pair, for a PairBatch and its
    EigenStructure).

    Column order is |n1 n2> = |00>, |01>, |10>, |11> (quasiparticle vacuum
    first) in the computational basis, with tp = theta_plus, tm = theta_minus:

        |00>                           = (-sin tp, 0, 0, cos tp)
        |01> = eta2^dag |00>           = (0, sin tm, -cos tm, 0)
        |10> = eta1^dag |00>           = (0, cos tm, sin tm, 0)
        |11> = eta1^dag eta2^dag |00>  = (-cos tp, 0, 0, -sin tp)

    The vacuum's largest entry is positive (0 <= tp < pi/4, so cos tp >
    sin tp); the global sign drops out of every conversion anyway.  A
    density matrix converts as rho_eig = V^T rho V.

    Raises ConventionError unless, for every pair, V^T V = I, V^T H_S V is
    diagonal in the Fock energies, and V^T sx_q V and V^T sx_p V are the
    closed-form weights, each to _CHECK_TOL relative to its operator
    (``_relative_defect``, as in build_operators): everything the
    evolution reads.  A failure means ``eig`` does not belong to ``params``
    or a branch convention is broken.
    """
    ctp, stp = np.cos(eig.theta_plus), np.sin(eig.theta_plus)
    ctm, stm = np.cos(eig.theta_minus), np.sin(eig.theta_minus)
    v = np.zeros(np.shape(ctp) + (4, 4))
    v[..., 0, 0], v[..., 3, 0] = -stp, ctp
    v[..., 1, 1], v[..., 2, 1] = stm, -ctm
    v[..., 1, 2], v[..., 2, 2] = ctm, stm
    v[..., 0, 3], v[..., 3, 3] = -ctp, -stp
    # the operators and what V turns them into, stacked on the third-last axis
    ops = np.empty(v.shape[:-2] + _TRANSFORM_OPS.shape)
    ops[...] = _TRANSFORM_OPS
    ops[..., 1, :, :] = _hamiltonian_matrix(params).real
    want = np.empty(ops.shape)
    want[..., 0, :, :] = _EYE4
    want[..., 1, :, :] = fock_energies(eig)[..., None] * _EYE4
    want[..., 2, :, :], want[..., 3, :, :] = eig.weights
    vt = v.swapaxes(-1, -2)[..., None, :, :]
    defects = _relative_defect(vt @ ops @ v[..., None, :, :] - want, ops)
    if defects.max() > _CHECK_TOL:
        failed = np.argwhere(defects > _CHECK_TOL)   # (point..., check) rows
        raise ConventionError(
            f"eigenmode transform: {_TRANSFORM_CHECKS[failed[0][-1]]} fails "
            f"by {defects[tuple(failed[0])]:.3g}")
    return v
