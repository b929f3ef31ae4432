"""Transition location and bath-spectrum reconstruction from probe signals.

The synchronized regime flips from antiphase to in-phase where the two
quasiparticle decay rates cross.  Everything in this module works backwards
from that observation: locate the crossing (analytically from the rates, or
from the jump of the locked frequency in simulated probe data), turn each
located crossing into a ratio constraint J(E1)/J(E2), and fit a spectral
density through the collected ratios.  A measured linewidth fixes the one
overall amplitude the ratios cannot see.

An input with no answer raises a ValueError (NoTransitionError,
ResolutionError and the fit's own errors among them); collect_constraints
returns each failed coupling as a value instead.  Nothing here prints or
warns: reporting is the CLI's.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bath import (
    KAPPA_DEFAULT,
    LindbladRates,
    PowerLawCutoff,
    SpectralDensityModel,
    Tabulated,
    bose_occupation,
    lindblad_rates,
    normalize_cutoff,
)
from .dynamics import (
    Trajectory,
    default_time_grid,
    evolve_analytic,
    plus_plus_state,
    to_eigenmode_basis,
    validate_density_matrix,
)
from .signal_analysis import (
    ANTI_PHASE,
    IN_PHASE,
    SyncConfig,
    detect_sync,
    sync_plan,
)
from .spin_model import (
    EigenStructure,
    QubitPairParams,
    bounded,
    build_operators,  # not called; benchmarks/tracing.py wraps this binding
    check_fields,
    diagonalize,
    eigenmode_transform,
)


class NoTransitionError(ValueError):
    """Bad input: the scanned range holds no rate crossing / regime jump."""


class ResolutionError(ValueError):
    """Bad input: the scan cannot localize the jump at its resolution."""


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

    lam: float = bounded(at_least=0.0)
    omega_p_bar: float = bounded(above=0.0)
    E1: float = bounded()
    E2: float = bounded()
    ratio: float = bounded(above=0.0)
    n1: float = bounded(0.0, at_least=0.0)
    n2: float = bounded(0.0, at_least=0.0)
    uncertainty: float | None = bounded(None, at_least=0.0)

    def __post_init__(self):
        check_fields(self)
        if not self.E1 >= self.E2 > 0:
            raise ValueError(f"need E1 >= E2 > 0, got {self.E1}, {self.E2}")


@dataclass(frozen=True)
class LinewidthDatum:
    """A measured late-time FWHM pinning one absolute value of J.

    The surviving line's full width equals that mode's total rate
    kappa * trig^2 * J(omega) * (1 + 2n), so J(omega) follows once the
    trigonometric weight and the occupation at the line position are known.
    """

    fwhm: float = bounded(above=0.0)
    omega: float = bounded(above=0.0)
    trig_sq: float = bounded(above=0.0, at_most=1.0)
    occupation: float = bounded(0.0, at_least=0.0)
    kappa: float = bounded(KAPPA_DEFAULT, above=0.0)

    __post_init__ = check_fields

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


@dataclass(frozen=True)
class ScanConfig:
    """Simulation and classification knobs for signal-level transition scans,
    in units of the scanned pair's omega_q: ``t_max``, ``dt``,
    ``late_window`` and ``window`` are times in units of 1/omega_q, and
    ``refine_tol`` is a frequency in units of omega_q.  A scan of the same
    physics in another unit then probes the same points and labels.

    The long default horizon narrows the band around the crossing where the
    two modes decay too similarly for the detector to call a regime; with
    t_max = 2000 the band is a few times 1e-2 wide in omega_p, safely under
    the default grid step.  A scan evolves only the late span of the
    (0, t_max, dt) grid that the verdict reads (``late_span``): 6 240 of the
    40 001 samples with these defaults, with the bits the whole grid gives
    them.  Its ``sync_plan`` is built once per scan.
    """

    t_max: float = bounded(2000.0, above=0.0)
    dt: float = bounded(0.05, above=0.0)
    late_window: tuple[float, float] = (1600.0, 1910.0)
    window: float = bounded(3.0, above=0.0)
    refine_tol: float = bounded(2e-3, above=0.0)
    kappa: float = bounded(KAPPA_DEFAULT, above=0.0)

    __post_init__ = check_fields

    def times(self, omega_q: float) -> np.ndarray:
        """The (0, t_max, dt) grid in absolute time at ``omega_q``."""
        return default_time_grid(self.t_max / omega_q, self.dt / omega_q)

    def sync_config(self, omega_q: float) -> SyncConfig:
        """The detector's settings in absolute time at ``omega_q``."""
        # Noise floor off: scans run on noiseless synthetic signals whose
        # late-time amplitude is tiny by construction.
        a, b = self.late_window
        return SyncConfig(window=self.window / omega_q,
                          late_window=(a / omega_q, b / omega_q),
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
    (0.5, 1.5) * omega_q; params.omega_p is ignored) by bisection to
    adjacent doubles (``_root``), far inside the guaranteed 1e-6 * omega_q.
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
    if np.sign(f_lo) == np.sign(f_hi) != 0:
        raise NoTransitionError(
            f"rate ratio does not change sign on [{lo:g}, {hi:g}] "
            f"(log ratio {f_lo:.3g} -> {f_hi:.3g})")
    return _root(f, lo, f_lo, hi, f_hi)


def _root(f, lo: float, f_lo: float, hi: float, f_hi: float) -> float:
    """A sign change of ``f`` on [lo, hi], given f (or only its sign) at
    both ends, which must not share a sign: an end where f is 0, else the
    first midpoint ``_bisect`` hits where f is exactly 0, else the midpoint
    of its final bracket, whose ends are adjacent doubles.  ValueError
    where f is NaN."""
    def sign(x: float, fx: float) -> int:
        if math.isnan(fx):
            raise ValueError(f"the function is NaN at {x!r}; it has no sign")
        return (fx > 0) - (fx < 0)

    s_lo, s_hi = sign(lo, f_lo), sign(hi, f_hi)
    if s_lo == 0 or s_hi == 0:
        return lo if s_lo == 0 else hi
    a, b, zero = _bisect(lambda x: sign(x, f(x)), lo, s_lo, hi, s_hi, 0.0)
    return 0.5 * (a + b) if zero is None else zero


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
    e1, e2 = float(eig.E1), float(eig.E2)
    n1 = float(bose_occupation(e1, params.temperature))
    n2 = float(bose_occupation(e2, params.temperature))
    ratio = float(np.tan(sigma) ** 2 * (1.0 + 2.0 * n2) / (1.0 + 2.0 * n1))
    return TransitionPoint(lam=params.lam, omega_p_bar=params.omega_p,
                           E1=e1, E2=e2, ratio=ratio, n1=n1, n2=n2,
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
def pair_setup(params, model, kappa=KAPPA_DEFAULT
               ) -> tuple[EigenStructure, LindbladRates, np.ndarray]:
    """(eig, rates, transform) of a pair at ``params.temperature``: what
    ``simulate`` evolves from.  For a PairBatch ``params`` (and ``model``
    one SpectralDensityModel or one per pair, see ``lindblad_rates``) the
    same calls set up every pair of a sweep batch at once, each with the
    bits it has alone; the first pair that fails a check raises."""
    eig = diagonalize(params)
    rates = lindblad_rates(eig, model, params.temperature, kappa)
    return eig, rates, eigenmode_transform(params, eig)


# The default initial state |++>, valid by construction, so never checked.
_PLUS_PLUS = plus_plus_state()
_PLUS_PLUS.flags.writeable = False


def simulate(params: QubitPairParams, model: SpectralDensityModel,
             times: np.ndarray, rho0: np.ndarray | None = None,
             kappa: float = KAPPA_DEFAULT,
             span: slice | None = None) -> Simulation:
    """Closed-form evolution of ``rho0`` (computational basis, checked by
    ``validate_density_matrix``; None means |++>) at
    ``params.temperature``: the one path from a setup to signals.
    ``times`` is the whole grid and ``span`` the part of it the trajectory
    holds, by default all of it (see ``evolve_analytic``).  The trajectory
    holds the signals only; ``dynamics.eigenmode_states`` builds the states
    from ``eig``, ``rates`` and ``rho0`` rotated by ``transform``."""
    if rho0 is None:
        rho0 = _PLUS_PLUS
    else:
        validate_density_matrix(rho0)
    eig, rates, v = pair_setup(params, model, kappa)
    traj = evolve_analytic(eig, rates, to_eigenmode_basis(rho0, v), times,
                           span)
    return Simulation(eig, rates, v, traj)


def _classify_point(model, params, plan, kappa):
    """1 if mode 1 survives (in-phase), 2 if mode 2 does, 0 if undecidable,
    from the signals over the span of ``plan`` (a ``sync_plan``) and its
    verdict; only a locked verdict builds a spectrum."""
    sim = simulate(params, model, plan.times, kappa=kappa, span=plan.span)
    m = detect_sync(sim.traj, plan.config, plan, locked_only=True)
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
    no double lies strictly between them.  ``classify`` returns a scan's
    mode label (1 or 2) or the sign of a function (-1 or 1); on 0 (an
    undecidable point, or an exact zero) stop early, returning the midpoint
    as third item.  A third label raises ResolutionError (not monotone)."""
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

    Grid points are classified left to right up to the first switch, each
    simulated from the all-plus product state and fed to the sync detector:
    the jump sits between the last point locked on one eigenfrequency branch
    and the first locked on the other.  Bisection then tightens the bracket
    until it is narrower than config.refine_tol * omega_q or a midpoint
    falls in the undecidable band; the midpoint of the final bracket is
    returned with half its width as the uncertainty.  A lock on the other
    mode inside a band edge's bracket raises ResolutionError: the labels
    are not monotone there.

    The late span of the time grid (``config.times`` at params.omega_q) and
    the detector's constants on it (``sync_plan``) are found once per scan,
    so every classification evolves and correlates only the samples its
    verdict reads; they have the bits of the whole grid's, so the labels
    are the whole grid's too.
    """
    config = config or ScanConfig()
    grid = np.asarray(omega_p_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("omega_p_grid must be a 1-d grid with at least 2 points")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("omega_p_grid must be strictly increasing")
    plan = sync_plan(config.times(params.omega_q),
                     config.sync_config(params.omega_q))

    def classify(w: float) -> int:
        return _classify_point(model, replace(params, omega_p=w), plan,
                               config.kappa)

    locked = []   # (index, label) of each locked grid point, up to a switch
    for k, w in enumerate(grid):
        if label := classify(float(w)):
            locked.append((k, label))
            if label != locked[0][1]:
                break
    if not locked:
        raise NoTransitionError("no grid point shows a locked regime; widen the "
                                "grid or lengthen the horizon")
    if locked[-1][1] == locked[0][1]:
        raise NoTransitionError(
            f"all locked grid points sit on the same branch (mode {locked[0][1]}); "
            "the scanned range does not contain the jump")
    (i, side_lo), (j, side_hi) = locked[-2:]
    band_points = j - i - 1
    if band_points >= 2:
        raise ResolutionError(
            f"{band_points} consecutive grid points between {grid[i]:g} and "
            f"{grid[j]:g} are undecidable; use a finer grid step there or a "
            "longer simulation horizon to localize the jump")

    lo, hi = float(grid[i]), float(grid[j])
    tol = config.refine_tol * params.omega_q
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

    import scipy.optimize  # here: no CLI path infers the pair from spectra

    sol = scipy.optimize.least_squares(
        resid, np.clip(x0, [1e-6, 0.0], None),
        bounds=([1e-6, 0.0], [np.inf, np.inf]))
    return float(sol.x[0]), float(sol.x[1])


def run_tasks(fn, tasks, workers: int) -> list:
    """``[fn(t) for t in tasks]`` on a pool of at most ``workers`` processes,
    never more than there are tasks or cores; results come back in task
    order, so they never depend on ``workers``."""
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * workers))
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(fn, tasks, chunksize=chunk)


def _constraint_task(task) -> TransitionPoint | str:
    """One coupling's constraint, or the message of its failure."""
    model, params, lam, config, method = task
    try:
        pair = replace(params, lam=lam)
        root = predict_transition(model, pair, kappa=config.kappa)
        if method == "analytic":
            return transition_point(replace(pair, omega_p=root))
        return scan_transition(
            model, pair, default_scan_grid(root, pair.omega_q), config=config)
    except ValueError as exc:
        return str(exc)


def collect_constraints(model: SpectralDensityModel, lams,
                        params: QubitPairParams = QubitPairParams(),
                        config: ScanConfig | None = None,
                        method: str = "signal",
                        workers: int = 1,
                        ) -> tuple[list[TransitionPoint], list[tuple[float, str]]]:
    """``(points, failures)``: a TransitionPoint per coupling that yields
    one, and a (lam, message) pair per coupling that does not, both in
    sorted-lam order whatever ``workers`` says.

    Each coupling replaces params.lam; omega_q and the temperature come
    from ``params``, and params.omega_p is ignored.  method="signal" scans a
    7-point grid of half-width 0.15 * omega_q centred on the predicted
    crossing; method="analytic" skips simulation and roots the rate balance
    directly.  A coupling fails when it raises a ValueError; the call itself
    raises only for an unknown method, so ``points`` may be empty.  Signal
    scans run on up to ``workers`` processes (an analytic root takes about
    2 ms and stays here).
    """
    if method not in ("signal", "analytic"):
        raise ValueError(f"unknown method {method!r}")
    config = config or ScanConfig()
    lams = sorted(float(v) for v in lams)
    results = run_tasks(_constraint_task,
                        [(model, params, lam, config, method) for lam in lams],
                        workers if method == "signal" else 1)
    points = [out for out in results if not isinstance(out, str)]
    failures = [(lam, out) for lam, out in zip(lams, results)
                if isinstance(out, str)]
    return points, failures


def _cutoff_factor(omega, s, omega_c):
    if omega_c is None:
        return np.ones_like(np.asarray(omega, dtype=float))
    w = np.asarray(omega, dtype=float)
    return omega_c ** 2 / (omega_c ** 2 + w ** (2.0 * s))


def _fit_power_law(constraints, datum, omega_c, diagnostics):
    """The exponent minimizing the squared log-ratio residuals: in closed
    form without a cutoff; with one, the root of their gradient, bracketed
    by doubling around the no-cutoff value and bisected (``_root``) to
    adjacent doubles.  A datum then pins gamma0."""
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
        # Root the gradient of sum(residuals^2) to adjacent doubles, so s
        # depends on no solver tolerance; d/ds log c = -2 log(w) (1 - c).
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
        s_fit = _root(gradient, lo, -1.0, hi, 1.0)   # the signs found above
        diagnostics["method"] = "bisection"
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

