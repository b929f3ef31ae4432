"""Numeric routes kept only as independent oracles for the closed forms.

Imported by the test modules (pytest puts this directory on ``sys.path``).
"""

import math
import sys

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


_LOG_MAX = math.log(sys.float_info.max)


def point_signal_terms(params, model, rho0: np.ndarray, kappa: float):
    """(amps (2, 4), exponents (4,)) of one pair, as ``dynamics._signal_terms``
    gives them, from the scalar formulas of a single setup: the closed-form
    spectrum, angles and transform in Python floats, the rates of each mode
    in turn, ``rho0`` (computational basis) rotated by one matrix product,
    and each coherence block's slow projection as a 2x2 matrix.  It shares
    only ``evaluate_J`` with the batch setup it checks."""
    from syncprobe.bath import evaluate_J

    wq, wp, lam, temp = (params.omega_q, params.omega_p, params.lam,
                         params.temperature)
    big, small = math.hypot(2 * lam, wq + wp), math.hypot(2 * lam, wq - wp)
    tp = 0.5 * math.atan2(2 * lam, wq + wp)
    tm = 0.5 * math.atan2(2 * lam, wq - wp)
    e1 = 0.5 * (big + small)
    e2 = wq * wp / e1
    rates = []
    for energy, trig in ((e1, math.cos(tp + tm)), (e2, math.sin(tp + tm))):
        # past log(max), exp overflows and the occupation is 0.0
        ratio = math.inf if temp == 0 else energy / temp
        occ = 0.0 if ratio > _LOG_MAX else 1.0 / math.expm1(ratio)
        width = kappa * trig ** 2 * float(evaluate_J(model, energy))
        rates.append((width * (1.0 + occ), width * occ))     # (down, up)
    (g1d, g1u), (g2d, g2u) = rates
    t1, t2 = g1d + g1u, g2d + g2u
    ctp, stp, ctm, stm = math.cos(tp), math.sin(tp), math.cos(tm), math.sin(tm)
    v = np.array([[-stp, 0.0, 0.0, -ctp], [0.0, stm, ctm, 0.0],
                  [0.0, -ctm, stm, 0.0], [ctp, 0.0, 0.0, -stp]])
    rho = v.T @ rho0 @ v
    cs, ss = math.cos(tp + tm), math.sin(tp + tm)
    cd, sd = math.cos(tp - tm), math.sin(tp - tm)
    w_q = np.zeros((4, 4))
    w_q[0, 2] = w_q[1, 3] = cs
    w_q[0, 1], w_q[2, 3] = ss, -ss
    w_p = np.zeros((4, 4))
    w_p[0, 2], w_p[1, 3] = -sd, sd
    w_p[0, 1] = w_p[2, 3] = -cd
    weights = (w_q + w_q.T, w_p + w_p.T)
    amps, exponents = [[], []], []
    for entries, slow_rates, rate, freq, dephase in (
            (((0, 1), (2, 3)), [[g1d, g1d], [g1u, g1u]], t1, e2, 0.5 * t2),
            (((0, 2), (1, 3)), [[g2d, -g2d], [-g2u, g2u]], t2, e1, 0.5 * t1)):
        x = np.array([rho[j, k] for j, k in entries])
        slow = x if rate == 0.0 else (np.array(slow_rates) / rate) @ x
        exponents += [1j * freq - dephase, 1j * freq - dephase - rate]
        for signal, w in zip(amps, weights):
            signal += [2.0 * sum(w[k, j] * part[i]
                                 for i, (j, k) in enumerate(entries))
                       for part in (slow, x - slow)]
    return np.array(amps), np.array(exponents)
