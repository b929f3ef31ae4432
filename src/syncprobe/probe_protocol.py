"""Transition location and bath-spectrum reconstruction from probe signals.

The synchronized regime flips from antiphase to in-phase where the two
quasiparticle decay rates cross.  Everything in this module works backwards
from that observation: locate the crossing (analytically from the rates, or
from the jump of the locked frequency in simulated probe data), turn each
located crossing into a ratio constraint J(E1)/J(E2), and fit a spectral
density through the collected ratios.  A measured linewidth fixes the one
overall amplitude the ratios cannot see.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import NamedTuple

import numpy as np
import scipy.optimize

from .bath import (
    KAPPA_DEFAULT,
    DegenerateSpectrumError,
    LindbladRates,
    PowerLawCutoff,
    SpectralDensityModel,
    Tabulated,
    bose_occupation,
    lindblad_rates,
    model_to_config,
    normalize_cutoff,
)
from .dynamics import (
    Trajectory,
    default_time_grid,
    evolve_analytic,
    plus_plus_state,
    to_eigenmode_basis,
)
from .signal_analysis import (
    ANTI_PHASE,
    IN_PHASE,
    SyncConfig,
    detect_sync,
    late_span,
)
from .spin_model import (
    EigenStructure,
    QubitPairParams,
    build_operators,  # not called; benchmarks/tracing.py wraps this binding
    diagonalize,
    eigenmode_transform,
)


class NoTransitionError(RuntimeError):
    """The scanned range contains no rate crossing / no regime jump."""


class ResolutionError(RuntimeError):
    """The scan cannot localize the jump at the requested resolution."""


class InversionError(ValueError):
    """Measured frequencies are inconsistent with the pair Hamiltonian."""


class InsufficientSpectrumError(ValueError):
    """A spectrum lacks the resolved peaks the inversion needs."""


class RankDeficiencyError(ValueError):
    """Tabulated fit is underdetermined; ``nodes`` lists uncovered grid nodes."""

    def __init__(self, message: str, nodes=()):
        super().__init__(message)
        self.nodes = list(nodes)


@dataclass(frozen=True)
class TransitionPoint:
    """One located rate crossing and the J-ratio constraint it implies.

    ratio is the implied J(E1)/J(E2).  n1 and n2 are the Bose occupations at
    E1 and E2 (zero at T=0); uncertainty, when present, is the half-width of
    the band inside which the signal-level scan could not classify the regime.
    """

    lam: float
    omega_p_bar: float
    E1: float
    E2: float
    ratio: float
    n1: float = 0.0
    n2: float = 0.0
    uncertainty: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if value is None or not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not self.ratio > 0:
            raise ValueError(f"ratio must be > 0, got {self.ratio}")
        if not self.E1 >= self.E2 > 0:
            raise ValueError(f"need E1 >= E2 > 0, got {self.E1}, {self.E2}")
        if self.uncertainty is not None and self.uncertainty < 0:
            raise ValueError("uncertainty must be >= 0")


# TransitionPoint's record keys in field order; only the coupling is renamed
TRANSITION_RECORD_KEYS = tuple({"lam": "lambda"}.get(f.name, f.name)
                               for f in fields(TransitionPoint))


@dataclass(frozen=True)
class LinewidthDatum:
    """A measured late-time FWHM pinning one absolute value of J.

    The surviving line's full width equals that mode's total rate
    kappa * trig^2 * J(omega) * (1 + 2n), so J(omega) follows once the
    trigonometric weight and the occupation at the line position are known.
    """

    fwhm: float
    omega: float
    trig_sq: float
    occupation: float = 0.0
    kappa: float = KAPPA_DEFAULT

    def __post_init__(self):
        if not self.fwhm > 0:
            raise ValueError(f"fwhm must be > 0, got {self.fwhm}")
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if not 0.0 < self.trig_sq <= 1.0:
            raise ValueError(f"trig_sq must be in (0, 1], got {self.trig_sq}")
        if self.occupation < 0:
            raise ValueError("occupation must be >= 0")
        if not self.kappa > 0:
            raise ValueError("kappa must be > 0")

    def j_value(self) -> float:
        """The absolute J(omega) this measurement fixes."""
        return self.fwhm / (self.kappa * self.trig_sq * (1.0 + 2.0 * self.occupation))


@dataclass(frozen=True)
class ReconstructionResult:
    """Fitted spectral density plus per-constraint residuals.

    model is a full PowerLawCutoff when the amplitude is pinned by a linewidth
    datum (always, for the tabulated family); with ratio data alone only the
    exponent s is determined and model stays None.
    """

    family: str
    s: float | None
    gamma0: float | None
    omega_c: float | None
    model: SpectralDensityModel | None
    residuals: np.ndarray
    diagnostics: dict

    def __post_init__(self):
        if self.s is not None and not self.s > 0:
            raise ValueError(f"fitted s must be > 0, got {self.s}")


@dataclass(frozen=True)
class ScanConfig:
    """Simulation and classification knobs for signal-level transition scans.

    The long default horizon narrows the band around the crossing where the
    two modes decay too similarly for the detector to call a regime; with
    t_max = 2000 the band is a few times 1e-2 wide in omega_p, safely under
    the default grid step.  A scan evolves only the late span of the
    (0, t_max, dt) grid that the verdict reads (``late_span``): 6 240 of the
    40 001 samples with these defaults.
    """

    t_max: float = 2000.0
    dt: float = 0.05
    late_window: tuple[float, float] = (1600.0, 1910.0)
    window: float = 3.0
    refine_tol: float = 2e-3
    kappa: float = KAPPA_DEFAULT

    def sync_config(self) -> SyncConfig:
        # Noise floor off: scans run on noiseless synthetic signals whose
        # late-time amplitude is tiny by construction.
        return SyncConfig(window=self.window, late_window=self.late_window,
                          noise_floor=0.0)


def _rate_balance(model: SpectralDensityModel, params: QubitPairParams,
                  kappa: float) -> float:
    """log of the ratio of the two total mode rates; sign flips at the crossing."""
    rates = lindblad_rates(diagonalize(params), model, params.temperature, kappa)
    if not (rates.g1_total > 0 and rates.g2_total > 0):
        raise NoTransitionError(
            "a mode has zero total rate (dark mode); the rate ratio has no crossing")
    return float(np.log(rates.g1_total / rates.g2_total))


def predict_transition(model: SpectralDensityModel, params: QubitPairParams,
                       T: float | None = None,
                       bracket: tuple[float, float] | None = None,
                       kappa: float = KAPPA_DEFAULT) -> float:
    """Probe frequency at which the two total mode rates are equal.

    Roots log(rate1/rate2) in omega_p over ``bracket`` (default
    (0.5, 1.5) * omega_q; params.omega_p is ignored) with Brent's method
    down to 1e-13 * omega_q, far inside the guaranteed 1e-6 * omega_q.
    ``T=None`` means params.temperature; a number overrides it.  At T=0 both
    rates are pure decay, so the root also satisfies the closed-form
    power-law line s = log(tan^2(theta_+ + theta_-)) / log(E1/E2) when J has
    no cutoff.
    """
    if T is not None:
        params = replace(params, temperature=T)
    if bracket is None:
        bracket = (0.5 * params.omega_q, 1.5 * params.omega_q)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi:
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got {bracket}")

    def f(w: float) -> float:
        return _rate_balance(model, replace(params, omega_p=w), kappa)

    f_lo, f_hi = f(lo), f(hi)
    if f_lo * f_hi > 0:
        raise NoTransitionError(
            f"rate ratio does not change sign on [{lo:g}, {hi:g}] "
            f"(log ratio {f_lo:.3g} -> {f_hi:.3g})")
    return float(scipy.optimize.brentq(f, lo, hi, xtol=1e-13 * params.omega_q))


def default_scan_grid(root: float, omega_q: float) -> np.ndarray:
    """The 7-point omega_p grid of half-width 0.15 * omega_q centred on a
    predicted crossing, used when a signal scan is given no grid."""
    return root + omega_q * np.linspace(-0.15, 0.15, 7)


def transition_point(params: QubitPairParams,
                     uncertainty: float | None = None) -> TransitionPoint:
    """Dress the crossing located at params.omega_p with its constraint.

    At the crossing kappa cancels and
    J(E1) (1 + 2 n(E1)) cos^2(Sigma) = J(E2) (1 + 2 n(E2)) sin^2(Sigma),
    so the implied ratio is tan^2(Sigma) times the occupation correction;
    at T=0 it is tan^2(Sigma) alone.
    """
    eig = diagonalize(params)
    sigma = eig.theta_plus + eig.theta_minus
    n1 = bose_occupation(eig.E1, params.temperature)
    n2 = bose_occupation(eig.E2, params.temperature)
    ratio = float(np.tan(sigma) ** 2 * (1.0 + 2.0 * n2) / (1.0 + 2.0 * n1))
    return TransitionPoint(lam=params.lam, omega_p_bar=params.omega_p,
                           E1=eig.E1, E2=eig.E2, ratio=ratio, n1=n1, n2=n2,
                           uncertainty=uncertainty)


class Simulation(NamedTuple):
    """One closed-form run: the pair's eigenstructure, its rates, the
    rotation into the eigenmode basis, and the trajectory."""

    eig: EigenStructure
    rates: LindbladRates
    transform: np.ndarray
    traj: Trajectory


# Here, not in dynamics, because benchmarks/tracing.py times each layer
# through the bindings of this module (and of cli).
def simulate(params: QubitPairParams, model: SpectralDensityModel,
             times: np.ndarray, rho0: np.ndarray | None = None,
             kappa: float = KAPPA_DEFAULT,
             store_states: bool = False) -> Simulation:
    """Closed-form evolution of ``rho0`` (computational basis; None means
    |++>) at ``params.temperature``: the one path from a setup to signals.
    Stored states stay in the eigenmode basis; ``transform`` rotates them
    back."""
    eig = diagonalize(params)
    rates = lindblad_rates(eig, model, params.temperature, kappa)
    v = eigenmode_transform(params, eig)
    rho0 = plus_plus_state() if rho0 is None else rho0
    traj = evolve_analytic(eig, rates, to_eigenmode_basis(rho0, v), times,
                           store_states=store_states)
    return Simulation(eig, rates, v, traj)


def _classify_point(model, params, times, sync_cfg, kappa):
    """1 if mode 1 survives (in-phase), 2 if mode 2 does, 0 if undecidable."""
    sim = simulate(params, model, times, kappa=kappa)
    m = detect_sync(sim.traj, sync_cfg)
    if m.omega_sync is None:
        return 0
    on_e1 = abs(m.omega_sync - sim.eig.E1) < abs(m.omega_sync - sim.eig.E2)
    if m.regime == IN_PHASE and on_e1:
        return 1
    if m.regime == ANTI_PHASE and not on_e1:
        return 2
    return 0


def _bisect(classify, a: float, label_a: int, b: float, label_b: int,
            tol: float) -> tuple[float, float, float | None]:
    """Halve [a, b], labelled label_a and label_b, down to ``tol`` or until
    no double lies strictly between them; stop early, returning the
    midpoint as third item, on label 0 (undecidable); raise ResolutionError
    on the third mode's label (not monotone)."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        side = classify(mid)
        if side == label_a:
            a = mid
        elif side == label_b:
            b = mid
        elif side == 0:
            return a, b, mid
        else:
            raise ResolutionError(
                f"omega_p = {mid:g} locks on mode {side} between labels "
                f"{label_a} at {a:g} and {label_b} at {b:g}: not monotone")
    return a, b, None


def scan_transition(model: SpectralDensityModel, params: QubitPairParams,
                    omega_p_grid, config: ScanConfig | None = None) -> TransitionPoint:
    """Locate the regime jump from simulated probe signals alone (each grid
    point replaces params.omega_p).

    Every grid point is forward-simulated from the all-plus product state and
    fed to the synchronization detector; the jump sits between the last grid
    point locked on one eigenfrequency branch and the first locked on the
    other.  Local bisection then tightens the bracket until either it is
    narrower than config.refine_tol or a midpoint falls in the undecidable
    band; the midpoint of the final bracket is returned with half its width
    as the uncertainty.  A lock on the other mode inside a band edge's
    bracket raises ResolutionError: the labels are not monotone there.

    The time grid is cut to its late span once per scan, so every
    classification evolves and correlates only the samples its verdict
    reads; the labels are those of the whole grid.
    """
    config = config or ScanConfig()
    grid = np.asarray(omega_p_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("omega_p_grid must be a 1-d grid with at least 2 points")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("omega_p_grid must be strictly increasing")
    sync_cfg = config.sync_config()
    times = default_time_grid(config.t_max, config.dt)
    times = times[late_span(times, sync_cfg)]

    def classify(w: float) -> int:
        return _classify_point(model, replace(params, omega_p=w), times,
                               sync_cfg, config.kappa)

    labels = np.array([classify(w) for w in grid])
    decided = np.flatnonzero(labels != 0)
    if decided.size == 0:
        raise NoTransitionError("no grid point shows a locked regime; widen the "
                                "grid or lengthen the horizon")
    switches = [(i, j) for i, j in zip(decided[:-1], decided[1:])
                if labels[i] != labels[j]]
    if not switches:
        raise NoTransitionError(
            f"all locked grid points sit on the same branch (mode {labels[decided[0]]}); "
            "the scanned range does not contain the jump")
    i, j = switches[0]
    band_points = int(j - i - 1)
    if band_points >= 2:
        raise ResolutionError(
            f"{band_points} consecutive grid points between {grid[i]:g} and "
            f"{grid[j]:g} are undecidable; use a finer grid step there or a "
            "longer simulation horizon to localize the jump")

    lo, hi = float(grid[i]), float(grid[j])
    side_lo, side_hi = int(labels[i]), int(labels[j])
    tol = config.refine_tol
    if band_points == 1:
        u_lo = float(grid[i + 1])
    else:
        lo, hi, u_lo = _bisect(classify, lo, side_lo, hi, side_hi, tol)
        if u_lo is None:
            # Clean crossing, never saw the undecidable band.
            return transition_point(replace(params, omega_p=0.5 * (lo + hi)),
                                    uncertainty=0.5 * (hi - lo))

    # Bisect both band edges so the reported point is the band midpoint.
    u_hi = u_lo
    lo, u_lo, _ = _bisect(classify, lo, side_lo, u_lo, 0, tol)
    u_hi, hi, _ = _bisect(classify, u_hi, 0, hi, side_hi, tol)
    edge_lo = 0.5 * (lo + u_lo)
    edge_hi = 0.5 * (u_hi + hi)
    return transition_point(replace(params, omega_p=0.5 * (edge_lo + edge_hi)),
                            uncertainty=0.5 * (edge_hi - edge_lo))


def _peak_pair(spectrum) -> tuple[float, float]:
    peaks = [p for p in spectrum.peaks]
    if len(peaks) < 2:
        raise InsufficientSpectrumError(
            f"need two resolved peaks, found {len(peaks)}; use an earlier/"
            "longer window where both modes are visible")
    top = sorted(peaks, key=lambda p: p.height, reverse=True)[:2]
    f1, f2 = top[0].frequency, top[1].frequency
    return (max(f1, f2), min(f1, f2))


def _invert_pair(e1: float, e2: float, omega_p: float) -> tuple[float, float]:
    """Closed-form (omega_q, lam) from one resolved pair at known omega_p.

    The sum and difference of the eigenfrequencies give
    (E1+E2)^2 - (E1-E2)^2 = 4 omega_q omega_p, fixing omega_q, and the
    coupling follows from (E1+E2)^2 = (omega_q+omega_p)^2 + 4 lam^2.
    """
    omega_q = e1 * e2 / omega_p
    lam_sq = 0.25 * ((e1 + e2) ** 2 - (omega_q + omega_p) ** 2)
    if lam_sq < -1e-9 * (e1 + e2) ** 2:
        raise InversionError(
            f"peak pair ({e1:g}, {e2:g}) at omega_p={omega_p:g} implies a "
            "negative squared coupling; frequencies are inconsistent")
    return float(omega_q), float(np.sqrt(max(lam_sq, 0.0)))


def infer_system_params(spectrum, omega_p) -> tuple[float, float]:
    """Recover (omega_q, lam) from early-window probe spectra.

    Accepts one SpectrumEstimate with its probe frequency, or matched
    sequences of both.  A single exact spectrum inverts in closed form; with
    several settings the pair (omega_q, lam) is fit jointly by least squares
    on all peak positions, which also removes the omega_q vs omega_p branch
    ambiguity of a lone noisy measurement.
    """
    if hasattr(spectrum, "peaks"):
        spectra = [spectrum]
        omega_ps = [float(omega_p)]
    else:
        spectra = list(spectrum)
        omega_ps = [float(w) for w in omega_p]
        if len(spectra) != len(omega_ps):
            raise ValueError("need one omega_p per spectrum")
    if not spectra:
        raise ValueError("need at least one spectrum")
    pairs = [_peak_pair(sp) for sp in spectra]

    if len(pairs) == 1:
        return _invert_pair(pairs[0][0], pairs[0][1], omega_ps[0])

    measured = np.array(pairs)  # (n, 2): E1_hat, E2_hat per setting
    guesses = []
    for (e1, e2), w in zip(pairs, omega_ps):
        try:
            guesses.append(_invert_pair(e1, e2, w))
        except InversionError:
            continue
    if not guesses:
        raise InversionError("no probe setting admits a consistent closed-form "
                             "inversion; peak estimates are too distorted")
    x0 = np.mean(np.array(guesses), axis=0)

    def resid(x):
        wq, lam = x
        out = np.empty(2 * len(omega_ps))
        for k, wp in enumerate(omega_ps):
            eig = diagonalize(QubitPairParams(omega_q=wq, omega_p=wp, lam=lam))
            out[2 * k] = eig.E1 - measured[k, 0]
            out[2 * k + 1] = eig.E2 - measured[k, 1]
        return out

    sol = scipy.optimize.least_squares(
        resid, np.clip(x0, [1e-6, 0.0], None),
        bounds=([1e-6, 0.0], [np.inf, np.inf]))
    return float(sol.x[0]), float(sol.x[1])


def collect_constraints(model: SpectralDensityModel, lams,
                        params: QubitPairParams = QubitPairParams(),
                        config: ScanConfig | None = None,
                        method: str = "signal",
                        failures: list | None = None) -> list[TransitionPoint]:
    """One TransitionPoint per coupling, aggregated in sorted-lam order.

    Each coupling replaces params.lam; omega_q and the temperature come
    from ``params``, and params.omega_p is ignored.  method="signal" scans a
    7-point grid of half-width 0.15 * omega_q centred on the predicted
    crossing; method="analytic" skips simulation and roots the rate balance
    directly.  Failures for individual lam values are warned about and
    appended to ``failures`` as (lam, message); the call raises only when no
    lam yields a constraint.
    """
    if method not in ("signal", "analytic"):
        raise ValueError(f"unknown method {method!r}")
    config = config or ScanConfig()
    sink = failures if failures is not None else []
    points: list[TransitionPoint] = []
    for lam in sorted(float(v) for v in lams):
        try:
            pair = replace(params, lam=lam)
            root = predict_transition(model, pair, kappa=config.kappa)
            if method == "analytic":
                points.append(transition_point(replace(pair, omega_p=root)))
            else:
                points.append(scan_transition(
                    model, pair, default_scan_grid(root, pair.omega_q),
                    config=config))
        except (NoTransitionError, ResolutionError, DegenerateSpectrumError,
                ValueError) as exc:
            warnings.warn(f"lam={lam:g}: {exc}", stacklevel=2)
            sink.append((lam, str(exc)))
    if not points:
        raise NoTransitionError(
            "every coupling failed to produce a constraint: "
            + "; ".join(f"lam={l:g}: {m}" for l, m in sink))
    return points


def _cutoff_factor(omega, s, omega_c):
    if omega_c is None:
        return np.ones_like(np.asarray(omega, dtype=float))
    w = np.asarray(omega, dtype=float)
    return omega_c ** 2 / (omega_c ** 2 + w ** (2.0 * s))


def _fit_power_law(constraints, datum, omega_c, diagnostics):
    e1 = np.array([c.E1 for c in constraints])
    e2 = np.array([c.E2 for c in constraints])
    l_k = np.log(e1 / e2)
    r_k = np.log([c.ratio for c in constraints])

    def residuals(s):
        return s * l_k + np.log(_cutoff_factor(e1, s, omega_c)
                                / _cutoff_factor(e2, s, omega_c)) - r_k

    s_lin = float(l_k @ r_k / (l_k @ l_k))
    if omega_c is None:
        s_fit = s_lin
        diagnostics["method"] = "closed-form"
    else:
        # Root the gradient of sum(residuals^2) to the last bits, so s does
        # not depend on a solver tolerance; d/ds log c = -2 log(w) (1 - c).
        def gradient(s):
            c1 = _cutoff_factor(e1, s, omega_c)
            c2 = _cutoff_factor(e2, s, omega_c)
            slope = l_k - 2.0 * (np.log(e1) * (1 - c1) - np.log(e2) * (1 - c2))
            return float(residuals(s) @ slope)

        lo = hi = max(s_lin, 1e-3)
        for _ in range(8):
            lo, hi = 0.5 * lo, 2.0 * hi
            if gradient(lo) < 0.0 < gradient(hi):
                break
        else:
            raise InversionError(f"no exponent in [{lo:.3g}, {hi:.3g}] "
                                 "minimizes the ratio residuals")
        s_fit, info = scipy.optimize.brentq(gradient, lo, hi, xtol=1e-300,
                                            full_output=True)
        diagnostics["method"] = "brentq"
        diagnostics["nfev"] = info.function_calls
    if not s_fit > 0:
        raise InversionError(
            f"ratio constraints imply a non-positive exponent ({s_fit:.3g}); "
            "they are inconsistent with a rising power law")
    res = residuals(s_fit)

    gamma0 = None
    model = None
    if datum is not None:
        j_d = datum.j_value()
        gamma0 = float(j_d / (2.0 * datum.omega ** s_fit
                              * _cutoff_factor(datum.omega, s_fit, omega_c)))
        model = PowerLawCutoff(gamma0=gamma0, s=s_fit, omega_c=omega_c)
    return ReconstructionResult(family="power-law", s=s_fit, gamma0=gamma0,
                                omega_c=omega_c, model=model, residuals=res,
                                diagnostics=diagnostics)


def _interp_row(nodes_log: np.ndarray, target: float) -> np.ndarray:
    """Weights expressing log J(target) as a linear blend of node values."""
    row = np.zeros(nodes_log.size)
    t = np.log(target)
    idx = int(np.searchsorted(nodes_log, t))
    if idx == 0:
        row[0] = 1.0
    elif idx >= nodes_log.size:
        row[-1] = 1.0
    else:
        u = (t - nodes_log[idx - 1]) / (nodes_log[idx] - nodes_log[idx - 1])
        row[idx - 1] = 1.0 - u
        row[idx] = u
    return row


def _fit_tabulated(constraints, datum, grid, smoothness, diagnostics):
    if len(constraints) < 2 or datum is None:
        raise RankDeficiencyError(
            "tabulated reconstruction needs at least 2 ratio constraints and "
            "a linewidth datum to pin the amplitude")
    freqs = sorted({round(f, 12) for c in constraints for f in (c.E1, c.E2)}
                   | {round(datum.omega, 12)})
    if grid is None:
        nodes = np.array(freqs, dtype=float)
    else:
        nodes = np.asarray(grid, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid must be a 1-d array with at least 2 nodes")
        if not np.all(np.diff(nodes) > 0) or nodes[0] <= 0:
            raise ValueError("grid must be positive and strictly increasing")
        if freqs[0] < nodes[0] or freqs[-1] > nodes[-1]:
            raise ValueError(
                f"grid [{nodes[0]:g}, {nodes[-1]:g}] does not cover the "
                f"constraint frequencies [{freqs[0]:g}, {freqs[-1]:g}]")
    nodes_log = np.log(nodes)

    rows = []
    rhs = []
    for c in constraints:
        rows.append(_interp_row(nodes_log, c.E1) - _interp_row(nodes_log, c.E2))
        rhs.append(np.log(c.ratio))
    n_constraints = len(rows)
    rows.append(_interp_row(nodes_log, datum.omega))
    rhs.append(np.log(datum.j_value()))
    a_data = np.array(rows)
    b_data = np.array(rhs)

    coverage = np.sum(np.abs(a_data), axis=0)
    dead = np.flatnonzero(coverage < 1e-12)
    if dead.size:
        raise RankDeficiencyError(
            "grid nodes receive no weight from any constraint or datum: "
            + ", ".join(f"{nodes[i]:g}" for i in dead),
            nodes=[float(nodes[i]) for i in dead])

    # Second differences of the divided kind: scaled so they reduce to
    # (1, -2, 1) on a uniform grid but vanish for any log-linear J, i.e. pure
    # power laws cost nothing regardless of how the nodes are spaced.
    penalty = np.zeros((max(nodes.size - 2, 0), nodes.size))
    h = np.diff(nodes_log)
    for i in range(penalty.shape[0]):
        m = 0.5 * (h[i] + h[i + 1])
        penalty[i, i:i + 3] = (m / h[i], -m * (1.0 / h[i] + 1.0 / h[i + 1]),
                               m / h[i + 1])
    a_full = np.vstack([a_data, smoothness * penalty])
    b_full = np.concatenate([b_data, np.zeros(penalty.shape[0])])
    y, _, rank, _ = np.linalg.lstsq(a_full, b_full, rcond=None)
    if rank < nodes.size:
        raise RankDeficiencyError(
            f"tabulated system has rank {rank} for {nodes.size} nodes even "
            "with smoothing; add constraints or coarsen the grid")

    res = a_data[:n_constraints] @ y - b_data[:n_constraints]
    diagnostics.update(method="regularized-lstsq", grid_size=int(nodes.size),
                       smoothness=float(smoothness))
    model = Tabulated(omegas=nodes, js=np.exp(y))
    return ReconstructionResult(family="tabulated", s=None,
                                gamma0=None, omega_c=None, model=model,
                                residuals=res, diagnostics=diagnostics)


def fit_spectral_density(constraints, family: str = "power-law",
                         datum: LinewidthDatum | None = None,
                         omega_c: float | None = None, grid=None,
                         smoothness: float = 1e-2) -> ReconstructionResult:
    """Fit J(omega) through the collected ratio constraints.

    family="power-law" solves the log-ratio residuals, which are linear in
    the exponent when no cutoff is assumed; passing omega_c fits the same
    exponent through the cutoff-corrected ratios, unless ``normalize_cutoff``
    maps it to None (no cutoff).  family="tabulated" solves for log J on a
    frequency grid (default: the constraint frequencies themselves) under a
    second-difference smoothness penalty.  All ratio constraints are
    independent of the global rate prefactor, so only a linewidth datum can
    (and does) set the amplitude.
    """
    constraints = list(constraints)
    if not constraints:
        raise ValueError("need at least one constraint")
    omega_c = normalize_cutoff(omega_c)
    diagnostics = {"n_constraints": len(constraints)}
    if family == "power-law":
        return _fit_power_law(constraints, datum, omega_c, diagnostics)
    if family == "tabulated":
        return _fit_tabulated(constraints, datum, grid, smoothness, diagnostics)
    raise ValueError(f"unknown family {family!r}; use 'power-law' or 'tabulated'")


def transition_point_to_record(tp: TransitionPoint) -> dict:
    """JSON-ready dict keyed by TRANSITION_RECORD_KEYS."""
    return dict(zip(TRANSITION_RECORD_KEYS, astuple(tp)))


def reconstruction_to_record(result: ReconstructionResult) -> dict:
    """JSON-ready dict; the fitted model uses the bath config schema."""
    rec = asdict(result)
    rec.update(model=None if result.model is None
               else model_to_config(result.model),
               residuals=result.residuals.tolist())
    return rec
