"""Bath spectral densities, thermal occupation, and the four secular rates.

The dissipative influence of the environment enters only through J(omega)
evaluated at the two eigenfrequencies, the Bose occupation there, and the
trigonometric weights of the qubit-bath coupling operator.  Everything in
this module is a pure function; models are frozen dataclasses, which the CLI
alone reads from and writes as the ``bath`` config section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_model import EigenStructure, bounded, check_fields

KAPPA_DEFAULT = 2.0 * np.pi


class OutOfDomainError(ValueError):
    """Query frequency outside a tabulated model's grid (no extrapolation)."""


class DegenerateSpectrumError(ValueError):
    """E2 <= 0: mode frequencies degenerate, secular rates undefined."""


@dataclass(frozen=True)
class PowerLawCutoff:
    """J(w) = 2 gamma0 w^s wc^2 / (wc^2 + w^(2s)); omega_c None means no cutoff."""

    gamma0: float = bounded(at_least=0.0)
    s: float = bounded(above=0.0)
    omega_c: float | None = bounded(None, above=0.0, infinite=True)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "omega_c", normalize_cutoff(self.omega_c))


def normalize_cutoff(omega_c: float | None) -> float | None:
    """``omega_c``, or None (no cutoff) where it is inf or its square
    overflows: wc^2 / (wc^2 + w^(2s)) is exactly 1.0 in doubles there for
    any w^(2s) below about 1e292."""
    if omega_c is not None and math.isinf(float(omega_c) * float(omega_c)):
        return None
    return omega_c


@dataclass(frozen=True)
class Tabulated:
    """J given on a strictly increasing grid, log-log interpolated.

    Log-linear interpolation in (log w, log J) is exact for power laws, which
    is the family the tabulated route is meant to approximate point-wise.
    Intervals with a zero endpoint fall back to plain linear interpolation.
    """

    omegas: np.ndarray
    js: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float)
        j = np.asarray(self.js, dtype=float)
        if w.ndim != 1 or w.shape != j.shape or w.size < 2:
            raise ValueError("need matching 1-d grids with at least 2 points")
        if not np.all(np.diff(w) > 0):
            raise ValueError("omega grid must be strictly increasing")
        if np.any(w <= 0):
            raise ValueError("omega grid must be positive")
        if not np.all(np.isfinite(j)):
            raise ValueError("J values must be finite")
        if np.any(j < 0):
            raise ValueError("J values must be >= 0")
        object.__setattr__(self, "omegas", w)
        object.__setattr__(self, "js", j)


SpectralDensityModel = PowerLawCutoff | Tabulated


def evaluate_J(model: SpectralDensityModel, omega):
    """J(omega) for scalar or array omega >= 0."""
    w = np.asarray(omega, dtype=float)
    if (w < 0).any():
        raise ValueError("omega must be >= 0")
    if isinstance(model, PowerLawCutoff):
        base = 2.0 * model.gamma0 * np.power(w, model.s)
        if model.omega_c is not None:
            wc2 = model.omega_c ** 2
            base = base * wc2 / (wc2 + np.power(w, 2.0 * model.s))
        return base if base.ndim else float(base)
    if isinstance(model, Tabulated):
        if np.any(w < model.omegas[0]) or np.any(w > model.omegas[-1]):
            raise OutOfDomainError(
                f"omega outside tabulated range "
                f"[{model.omegas[0]:g}, {model.omegas[-1]:g}]")
        idx = np.clip(np.searchsorted(model.omegas, w, side="right") - 1,
                      0, model.omegas.size - 2)
        w0, w1 = model.omegas[idx], model.omegas[idx + 1]
        j0, j1 = model.js[idx], model.js[idx + 1]
        frac = (np.log(w) - np.log(w0)) / (np.log(w1) - np.log(w0))
        with np.errstate(divide="ignore", invalid="ignore"):
            loggy = np.exp((1.0 - frac) * np.log(j0) + frac * np.log(j1))
        linear = j0 + (j1 - j0) * (w - w0) / (w1 - w0)
        out = np.where((j0 > 0) & (j1 > 0), loggy, linear)
        out = np.where(w == w0, j0, out)  # exact at nodes, zeros included
        return out if out.ndim else float(out)
    raise TypeError(f"unknown spectral density model {type(model).__name__}")


def bose_occupation(omega, T):
    """Thermal occupation 1/(exp(omega/T) - 1); zero at T = 0.  Broadcasts
    over arrays of ``omega`` and ``T``, a float for scalars."""
    w, t = np.asarray(omega, dtype=float), np.asarray(T, dtype=float)
    if not (w > 0).all():
        raise ValueError(f"omega must be > 0, got {omega}")
    if (t < 0).any():
        raise ValueError(f"T must be >= 0, got {T}")
    n = _occupation(w, t)
    return n if n.ndim else float(n)


def _occupation(w: np.ndarray, t) -> np.ndarray:
    """1/(exp(w/t) - 1) for w > 0 and t >= 0, unchecked: omega/T past
    about 709, and T = 0, give exactly 0.0."""
    with np.errstate(over="ignore", divide="ignore"):
        return 1.0 / np.expm1(w / t)


@dataclass(frozen=True)
class LindbladRates:
    """The four secular rates: mode-i decay (down) and thermal pumping (up);
    floats, or arrays with one entry per pair of a batch."""

    g1_down: float
    g1_up: float
    g2_down: float
    g2_up: float

    @property
    def g1_total(self) -> float:
        return self.g1_down + self.g1_up

    @property
    def g2_total(self) -> float:
        return self.g2_down + self.g2_up


def lindblad_rates(eig: EigenStructure, model, T, kappa=KAPPA_DEFAULT
                   ) -> LindbladRates:
    """Secular rates for the two quasiparticle modes.

    g_i_down = kappa * trig_i^2 * J(E_i) * (1 + n(E_i)),
    g_i_up   = kappa * trig_i^2 * J(E_i) * n(E_i),

    with trig_1 = cos(theta_plus + theta_minus), trig_2 = sin(same).  kappa is
    the global golden-rule prefactor; every synchronization/transition result
    downstream depends only on rate ratios, so its value is a unit choice.

    For a batch EigenStructure (array fields) the rates broadcast over its
    pairs, with ``T`` and ``kappa`` scalars or one per pair, and ``model``
    one SpectralDensityModel or a sequence of one per pair; every pair's
    rates have the bits they have alone.  An E2 that is not positive (the
    pair's E2 underflows) raises DegenerateSpectrumError naming
    ``params``; a J, a mode's rates or their sum that is not finite raises
    a ValueError starting with ``bath:``.  In a batch, the first pair that
    fails raises.
    """
    energies = np.array([eig.E1, eig.E2])      # mode first, then any pairs
    lowest = np.min(energies[1])
    if not lowest > 0:
        raise DegenerateSpectrumError(
            f"params: E2 = {lowest:g} <= 0: the pair's lower eigenfrequency "
            "underflows, so its rates are undefined")
    if (np.asarray(T) < 0).any():
        raise ValueError(f"T must be >= 0, got {T}")
    s_ang = eig.theta_plus + eig.theta_minus
    with np.errstate(over="ignore", invalid="ignore"):    # reported below
        if isinstance(model, (list, tuple)):
            j = np.array([evaluate_J(m, e) for m, e in
                          zip(model, energies.T, strict=True)]).T
        else:
            j = evaluate_J(model, energies)
        # An overflow gives inf, and at T = 0 inf * 0 gives nan; both are
        # reported below.
        w = kappa * np.array([np.cos(s_ang) ** 2, np.sin(s_ang) ** 2]) * j
        n = _occupation(energies, T)    # E1 >= E2 > 0 and T >= 0: checked
        down, up = w * (1.0 + n), w * n
        total = down + up
        finite = np.isfinite(total[0] + total[1])
    if finite.all():
        return LindbladRates(g1_down=down[0], g1_up=up[0],
                             g2_down=down[1], g2_up=up[1])
    # the first pair that fails, with its checks in order
    k = (slice(None), *np.unravel_index(np.argmin(finite), finite.shape))
    energies, j, total = (np.broadcast_to(x, energies.shape)[k]
                          for x in (energies, j, total))
    T = np.broadcast_to(T, finite.shape)[k[1:]]
    for mode in (1, 2):
        if not np.isfinite(j[mode - 1]):
            raise ValueError(f"bath: J must be finite at mode {mode} (E{mode} "
                             f"= {energies[mode - 1]:g}), got {j[mode - 1]}")
    for mode in (1, 2):
        if not np.isfinite(total[mode - 1]):
            raise ValueError(f"bath: the mode-{mode} rates overflow (E{mode} "
                             f"= {energies[mode - 1]:g}, T = {T:g})")
    raise ValueError("bath: the summed rates of both modes overflow "
                     f"(E1 = {energies[0]:g}, E2 = {energies[1]:g}, "
                     f"T = {T:g})")
