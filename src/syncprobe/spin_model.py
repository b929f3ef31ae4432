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

from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
ID2 = np.eye(2, dtype=complex)


class ConventionError(RuntimeError):
    """A quasiparticle branch/sign convention check failed at tolerance."""


@dataclass(frozen=True)
class QubitPairParams:
    """Knobs of the pair Hamiltonian. lam is the XX coupling strength."""

    omega_q: float = 1.0
    omega_p: float = 1.0
    lam: float = 0.0
    temperature: float = 0.0

    def __post_init__(self):
        if not self.omega_q > 0:
            raise ValueError(f"omega_q must be > 0, got {self.omega_q}")
        if not self.omega_p > 0:
            raise ValueError(f"omega_p must be > 0, got {self.omega_p}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class EigenStructure:
    """Closed-form spectrum and rotation angles of H_S."""

    E1: float
    E2: float
    theta_plus: float
    theta_minus: float
    Delta: float
    delta: float


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


def diagonalize(params: QubitPairParams) -> EigenStructure:
    """Closed-form eigenfrequencies and Bogoliubov angles of H_S.

    E1 >= E2 >= 0 always; the degenerate corner (equal frequencies at zero
    coupling) yields E1 = E2 and is legal here, flagged only where rates are
    formed downstream.
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
    E2 = 0.5 * (Delta - delta)
    return EigenStructure(E1=E1, E2=E2, theta_plus=theta_plus,
                          theta_minus=theta_minus, Delta=Delta, delta=delta)


def _hamiltonian_matrix(params: QubitPairParams) -> np.ndarray:
    """H_S in the computational basis, entry by entry.

    Bit for bit the Kronecker-product sum (omega_q/2) sz (x) I
    + (omega_p/2) I (x) sz + lam sx (x) sx, without forming the products.
    """
    a, b, lam = 0.5 * params.omega_q, 0.5 * params.omega_p, params.lam
    return np.array([[a + b, 0.0, 0.0, lam],
                     [0.0, a - b, lam, 0.0],
                     [0.0, lam, b - a, 0.0],
                     [lam, 0.0, 0.0, -a - b]], dtype=complex)


def build_operators(params: QubitPairParams, eig: EigenStructure) -> OperatorSet:
    """Construct eta_i, parity, and the Pauli/Hamiltonian matrices.

    Raises ConventionError if the canonical anticommutation relations or the
    H_S reconstruction identity fail at _CHECK_TOL (that would mean a
    branch-sign bug, not a numerical accident: all formulas are closed-form).
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
    # trajectory.
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
    if np.max(np.abs(h_rebuilt - h_s)) > _CHECK_TOL:
        raise ConventionError(
            "H_S != E1 (n1 - 1/2) + E2 (n2 - 1/2); branch convention broken")

    s_ang = eig.theta_plus + eig.theta_minus
    d_ang = eig.theta_plus - eig.theta_minus
    sxq_rebuilt = (np.cos(s_ang) * (eta1d + eta1)
                   + np.sin(s_ang) * (eta2d + eta2))
    if np.max(np.abs(sxq_rebuilt - sx_q)) > _CHECK_TOL:
        raise ConventionError("sx_q quasiparticle decomposition broken")
    sxp_rebuilt = (np.sin(d_ang) * (eta1_tilde.conj().T + eta1_tilde)
                   + np.cos(d_ang) * (eta2_tilde.conj().T + eta2_tilde))
    if np.max(np.abs(sxp_rebuilt - sx_p)) > _CHECK_TOL:
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
    """H_S eigenvalues of the Fock states |00>, |01>, |10>, |11>."""
    half = 0.5 * (eig.E1 + eig.E2)
    return np.array([-half, 0.5 * (eig.E2 - eig.E1),
                     0.5 * (eig.E1 - eig.E2), half])


def fock_observable_weights(eig: EigenStructure):
    """(W_q, W_p): sigma_x matrices in the eigenmode basis, from the angles.

    Closed form, from the sx_q and sx_p decompositions in the module
    docstring.  sigma^x flips quasiparticle parity, so the only nonzero
    entries connect the even states {vac, doubly excited} with the odd
    singly-excited pair.
    """
    cs = np.cos(eig.theta_plus + eig.theta_minus)
    ss = np.sin(eig.theta_plus + eig.theta_minus)
    cd = np.cos(eig.theta_plus - eig.theta_minus)
    sd = np.sin(eig.theta_plus - eig.theta_minus)
    w_q = np.zeros((4, 4))
    w_q[0, 2] = w_q[1, 3] = cs
    w_q[0, 1] = ss
    w_q[2, 3] = -ss
    w_p = np.zeros((4, 4))
    w_p[0, 2] = -sd
    w_p[1, 3] = sd
    w_p[0, 1] = w_p[2, 3] = -cd
    return w_q + w_q.T, w_p + w_p.T


_CHECK_TOL = 1e-10   # of the convention self-checks
_EYE4 = np.eye(4)
_SX_Q = np.kron(SIGMA_X, ID2).real
_SX_P = np.kron(ID2, SIGMA_X).real
_TRANSFORM_CHECKS = ("V^T V = I", "V^T H_S V = diag(Fock energies)",
                     "V^T sx_q V = W_q", "V^T sx_p V = W_p")


def eigenmode_transform(params: QubitPairParams,
                        eig: EigenStructure) -> np.ndarray:
    """Real orthogonal V whose columns are the quasiparticle Fock states.

    Column order is |n1 n2> = |00>, |01>, |10>, |11> (quasiparticle vacuum
    first) in the computational basis, with tp = theta_plus, tm = theta_minus:

        |00>                           = (-sin tp, 0, 0, cos tp)
        |01> = eta2^dag |00>           = (0, sin tm, -cos tm, 0)
        |10> = eta1^dag |00>           = (0, cos tm, sin tm, 0)
        |11> = eta1^dag eta2^dag |00>  = (-cos tp, 0, 0, -sin tp)

    The vacuum's largest entry is positive (0 <= tp < pi/4, so cos tp >
    sin tp); the global sign drops out of every conversion anyway.  A
    density matrix converts as rho_eig = V^T rho V.

    Raises ConventionError unless, to _CHECK_TOL (as in build_operators),
    V^T V = I, V^T H_S V is diagonal in the Fock energies, and V^T sx_q V
    and V^T sx_p V are the closed-form weights: everything the evolution
    reads.  A failure means ``eig`` does not belong to ``params`` or a
    branch convention is broken.
    """
    ctp, stp = np.cos(eig.theta_plus), np.sin(eig.theta_plus)
    ctm, stm = np.cos(eig.theta_minus), np.sin(eig.theta_minus)
    v = np.array([[-stp, 0.0, 0.0, -ctp],
                  [0.0, stm, ctm, 0.0],
                  [0.0, -ctm, stm, 0.0],
                  [ctp, 0.0, 0.0, -stp]])
    w_q, w_p = fock_observable_weights(eig)
    ops = np.array([_EYE4, _hamiltonian_matrix(params).real, _SX_Q, _SX_P])
    want = np.array([_EYE4, np.diag(fock_energies(eig)), w_q, w_p])
    defects = abs(v.T @ ops @ v - want).max(axis=(1, 2))
    for name, defect in zip(_TRANSFORM_CHECKS, defects):
        if defect > _CHECK_TOL:
            raise ConventionError(f"eigenmode transform: {name} fails by "
                                  f"{defect:.3g}")
    return v
