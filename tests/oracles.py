"""Numeric routes kept only as independent oracles for the closed forms.

Imported by the test modules (pytest puts this directory on ``sys.path``).
"""

import numpy as np

from syncprobe.spin_model import ConventionError, OperatorSet


def null_vector_transform(ops: OperatorSet) -> np.ndarray:
    """Eigenmode transform built numerically from the ladder operators.

    The vacuum is the common null vector of eta1 and eta2 (the smallest
    singular direction of the two stacked), with its largest-magnitude entry
    made real positive; the other columns are eta2^dag |00>, eta1^dag |00>
    and eta1^dag eta2^dag |00>.  It never reads the angles directly, so it
    checks ``spin_model.eigenmode_transform`` rather than restating it.
    """
    stacked = np.vstack([ops.eta1, ops.eta2])
    _, sing, vh = np.linalg.svd(stacked)
    if sing[-1] > 1e-10:
        raise ConventionError("no common null vector for eta1, eta2")
    vac = vh[-1].conj()
    k = int(np.argmax(np.abs(vac)))
    vac = vac * (np.abs(vac[k]) / vac[k])
    e1d, e2d = ops.eta1.conj().T, ops.eta2.conj().T
    v = np.column_stack([vac, e2d @ vac, e1d @ vac, e1d @ (e2d @ vac)])
    if np.max(np.abs(v.conj().T @ v - np.eye(4))) > 1e-10:
        raise ConventionError("Fock columns not orthonormal")
    return v


def direct_oscillations(amps: np.ndarray, exponents: np.ndarray,
                        times: np.ndarray) -> np.ndarray:
    """Re[amps[p] @ exp(exponents[p] * t)] at every t of ``times``, shape
    (P, S, n), with ``amps`` (P, S, K) and ``exponents`` (P, K): the
    reference of ``dynamics._oscillations``, with np.exp at every sample
    and no chunks or tables.  The sum runs over the exponents in order,
    each adding the product of the real parts and subtracting that of the
    imaginary ones, one IEEE multiplication each."""
    z = np.exp(exponents[:, None, :, None] * times)     # (P, 1, K, n)
    a = amps[..., None]                                 # (P, S, K, 1)
    out = a[:, :, 0].real * z[:, :, 0].real
    out -= a[:, :, 0].imag * z[:, :, 0].imag
    for k in range(1, amps.shape[2]):
        out += a[:, :, k].real * z[:, :, k].real
        out -= a[:, :, k].imag * z[:, :, k].imag
    return out
