"""Synchronization measure, probe spectra, linewidths, and state correlators.

The synchronization measure is a windowed Pearson correlation between the two
local observables.  Spectra come from a Hann-tapered, zero-padded DFT of a
time window, with parabolic sub-bin peak refinement; linewidths from a fit of
the exact line shape of a damped cosine seen through that taper and window.
Results are arrays and dataclasses; their JSON and CSV forms are the CLI's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import NamedTuple

import numpy as np
# Loaded with this module, not by the first spectrum (np.fft loads lazily).
import numpy.fft  # noqa: F401

from .dynamics import Trajectory, uniform_step
from .spin_model import SIGMA_PLUS, FieldError, bounded, check_fields

IN_PHASE = "InPhase"
ANTI_PHASE = "AntiPhase"
NO_SYNC = "NoSync"
INDETERMINATE = "Indeterminate"


class NotResolvableError(ValueError):
    """Bad input: the peak overlaps a neighbor too strongly for a linewidth."""


@dataclass(frozen=True)
class Peak:
    frequency: float
    height: float


@dataclass(frozen=True)
class SpectrumEstimate:
    freqs: np.ndarray          # angular frequencies, >= 0
    magnitude: np.ndarray
    peaks: tuple[Peak, ...]    # sorted by height, tallest first
    window: tuple[float, float]

    @property
    def duration(self) -> float:
        return self.window[1] - self.window[0]


class SpectrumBatch(NamedTuple):
    """``windowed_fft`` of a batch of signals: the frequency axis the rows
    share, and each row's SpectrumEstimate."""

    freqs: np.ndarray
    rows: tuple[SpectrumEstimate, ...]


@dataclass(frozen=True)
class SyncMetrics:
    c_times: np.ndarray        # window-center times
    c_values: np.ndarray       # windowed correlations, nan where undefined
    omega_sync: float | None
    regime: str
    window: float              # correlation window length (time units)
    c_floor: float | None = None     # min windowed c over the late window
    c_ceil: float | None = None      # max windowed c over the late window
    c_min_abs: float | None = None   # min |c| over the late window
    below_floor: bool = False        # probe amplitude died before the late window


class SyncBatch(NamedTuple):
    """``detect_sync`` of a batch trajectory: the window centres the rows
    share, and each row's SyncMetrics."""

    c_times: np.ndarray
    rows: tuple[SyncMetrics, ...]


def sync_measure(f, g, t_index: int, window: int) -> float | None:
    """Pearson correlation of ``f[t_index:t_index+window]`` against ``g``.

    Returns None when either segment has zero variance (correlation is then
    undefined; None is deliberately distinct from 0).
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if window < 8:
        raise ValueError("need at least 8 samples in the window")
    if t_index < 0 or t_index + window > f.size or t_index + window > g.size:
        raise ValueError("window does not fit inside the sequences")
    a = f[t_index:t_index + window]
    b = g[t_index:t_index + window]
    da = a - a.mean()
    db = b - b.mean()
    na = np.sqrt(da @ da)
    nb = np.sqrt(db @ db)
    if na == 0.0 or nb == 0.0:
        return None
    c = float((da @ db) / (na * nb))
    return min(1.0, max(-1.0, c))


# Fewest samples a spectral window may hold.
MIN_SPECTRUM_SAMPLES = 64
_REACH_TOL = 1e-9   # how far a window may end past its grid's last sample


def window_mask(times: np.ndarray, t_start: float, t_end: float) -> np.ndarray:
    """The samples (or window centres) of ``times`` in [t_start, t_end]."""
    return (times >= t_start - 1e-12) & (times <= t_end + 1e-12)


def check_window(times: np.ndarray, t_start: float, t_end: float) -> None:
    """Raise ValueError unless [t_start, t_end] ends by ``times[-1]`` (to 1e-9)
    and holds MIN_SPECTRUM_SAMPLES samples by ``window_mask``: the one fit
    rule of ``windowed_fft``, ``detect_sync`` and the CLI's parsers."""
    if t_end > times[-1] + _REACH_TOL:
        raise ValueError(f"ends past the time grid's last sample ({times[-1]:g})")
    n = int(np.count_nonzero(window_mask(times, t_start, t_end)))
    if n < MIN_SPECTRUM_SAMPLES:
        raise ValueError(f"holds {n} samples of the time grid, "
                         f"need >= {MIN_SPECTRUM_SAMPLES}")


class _SpectrumPlan(NamedTuple):
    """What ``windowed_fft`` derives from a grid and a window alone: the
    grid (size, first and last sample), the window, its samples, their
    taper, the padded length and the (read-only) frequency axis."""

    grid: tuple[int, float, float]
    window: tuple[float, float]
    part: slice
    taper: np.ndarray
    n_fft: int
    freqs: np.ndarray


def _grid_key(times: np.ndarray) -> tuple[int, float, float]:
    return times.size, float(times[0]), float(times[-1])


def _as_slice(mask: np.ndarray) -> slice:
    """The run of True of a mask over increasing times as a slice."""
    idx = np.flatnonzero(mask)
    return slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0)


def _spectrum_plan(times: np.ndarray, t_start: float,
                   t_end: float) -> _SpectrumPlan:
    dt = uniform_step(times)
    check_window(times, t_start, t_end)
    part = _as_slice(window_mask(times, t_start, t_end))
    n_fft = 4 * (part.stop - part.start)
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    freqs *= 2.0 * np.pi
    freqs.flags.writeable = False
    return _SpectrumPlan(_grid_key(times), (float(t_start), float(t_end)),
                         part, _hann(part.stop - part.start), n_fft, freqs)


def windowed_fft(signal, times, t_start: float, t_end: float,
                 plan: _SpectrumPlan | None = None):
    """Spectrum of the mean-subtracted, Hann-tapered segment [t_start, t_end].

    Zero-pads by 4x for sub-bin interpolation; peaks are local maxima whose
    height and prominence both exceed 5x the median magnitude.  ``plan``,
    a ``SyncPlan``'s ``spectrum``, saves the checks, taper and frequency
    axis of its grid and window (ValueError on another grid or window);
    the spectra of one plan share its read-only ``freqs``.  A 2-d
    ``signal`` is a batch, one signal per row: one rfft covers the rows,
    each with the bits it has alone, and a SpectrumBatch holds their
    estimates.
    """
    signal = np.asarray(signal, dtype=float)
    times = np.asarray(times, dtype=float)
    if plan is None:
        plan = _spectrum_plan(times, t_start, t_end)
    elif plan.grid != _grid_key(times) or plan.window != (t_start, t_end):
        raise ValueError("the spectrum plan is for another grid or window")
    seg = signal[..., plan.part].copy()
    seg -= seg.mean(axis=-1, keepdims=True)
    seg *= plan.taper
    spec = np.abs(np.fft.rfft(seg, n=plan.n_fft, axis=-1))
    window = (float(t_start), float(t_end))
    rows = tuple(SpectrumEstimate(freqs=plan.freqs, magnitude=row,
                                  peaks=_peaks(row, plan.freqs), window=window)
                 for row in spec.reshape(-1, spec.shape[-1]))
    return rows[0] if signal.ndim == 1 else SpectrumBatch(plan.freqs, rows)


def _peaks(spec: np.ndarray, freqs: np.ndarray) -> tuple[Peak, ...]:
    """The peaks of one magnitude spectrum, tallest first."""
    # Height floor per the 5x-median rule; the prominence floor additionally
    # scales with the strongest feature so Hann sidelobe ripples (-31 dB,
    # under 3% of the main lobe) never register as peaks of their own.  The
    # spectrum is >= 0, so no peak's prominence exceeds its height: filtering
    # on height=prom (>= floor) keeps exactly the peaks height=floor would,
    # without scanning the prominence of sidelobes that cannot pass.
    mid = spec.size // 2   # the median of the 2n + 1 bins of a 4n pad
    floor = 5.0 * float(np.partition(spec, mid)[mid])
    prom = max(floor, 0.05 * float(np.max(spec)))
    peaks = []
    for i in _find_peaks(spec, prom):
        # 3-point parabolic refinement
        y0, y1, y2 = spec[i - 1], spec[i], spec[i + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
        f_hat = freqs[i] + shift * (freqs[1] - freqs[0])
        h_hat = y1 - 0.25 * (y0 - y2) * shift
        peaks.append(Peak(frequency=float(f_hat), height=float(h_hat)))
    peaks.sort(key=lambda p: p.height, reverse=True)
    return tuple(peaks)


@cache
def _hann(n: int) -> np.ndarray:
    """``np.hanning(n)``, built once per length and read-only."""
    taper = np.hanning(n)
    taper.flags.writeable = False
    return taper


def _find_peaks(x: np.ndarray, floor: float) -> np.ndarray:
    """Local maxima of ``x`` whose height and prominence are both at least
    ``floor``, as ``scipy.signal.find_peaks(x, height=floor,
    prominence=floor)[0]`` returns them.

    A run of equal samples is one candidate, taken at its midpoint, if both
    neighbouring runs are lower; so a run that starts at the first sample or
    ends at the last is never a peak.  Each prominence side walks out to the
    first strictly higher sample or the edge; the base is the higher of the
    two side minima.  One pass over ``x`` finds every candidate's bases.
    """
    x = np.asarray(x, dtype=float)
    # Runs that reach the floor and rise above the sample before them, and
    # the last sample of each: the first one unless the next repeats it.
    # A run that reaches the last sample is never a peak.
    up = np.flatnonzero(floor <= x[1:]) + 1
    starts = up[x[up - 1] < x[up]]
    ends = starts.copy()
    for k in np.flatnonzero(x[np.minimum(starts + 1, x.size - 1)] == x[starts]):
        rest = np.flatnonzero(x[starts[k] + 1:] != x[starts[k]])
        ends[k] = starts[k] + rest[0] if rest.size else x.size - 1
    starts, ends = starts[ends < x.size - 1], ends[ends < x.size - 1]
    top = x[ends + 1] < x[starts]
    peaks = (starts[top] + ends[top]) // 2
    # Every other local maximum is below the floor, so the first strictly
    # higher sample out from a candidate is on the slope of the nearest
    # strictly higher candidate, or of an edge run, and nothing on that
    # slope is lower than the candidate: a base is the minimum of x between
    # the candidate and that neighbour (or the edge).  gaps[k] is the
    # minimum from candidate k - 1 (or the start) up to candidate k, the
    # last one from the last candidate to the end.
    gaps = np.minimum.reduceat(x, np.concatenate(([0], peaks)))
    heights = x[peaks]
    keep = np.zeros(peaks.size, dtype=bool)
    for k, h in enumerate(heights):
        higher = np.flatnonzero(heights > h)
        i = int(np.searchsorted(higher, k))
        lo = higher[i - 1] + 1 if i > 0 else 0
        hi = higher[i] + 1 if i < higher.size else peaks.size + 1
        keep[k] = floor <= h - max(gaps[lo:k + 1].min(), gaps[k + 1:hi].min())
    return peaks[keep]


def _half_height_span(freqs, mag, i_peak):
    """Frequencies where the magnitude crosses half the peak height, or None."""
    half = 0.5 * mag[i_peak]
    lo = None
    for k in range(i_peak, 0, -1):
        if mag[k - 1] < half:
            frac = (mag[k] - half) / (mag[k] - mag[k - 1])
            lo = freqs[k] - frac * (freqs[k] - freqs[k - 1])
            break
    hi = None
    for k in range(i_peak, freqs.size - 1):
        if mag[k + 1] < half:
            frac = (mag[k] - half) / (mag[k] - mag[k + 1])
            hi = freqs[k] + frac * (freqs[k + 1] - freqs[k])
            break
    if lo is None or hi is None:
        return None
    return lo, hi


def _windowed_line_model(omega, amp, center, gamma, t_win):
    """Magnitude of the Hann-windowed transform of exp(-gamma*t)*cos(center*t)."""
    delta = omega - center
    shift = 2.0 * np.pi / t_win

    def g(d):
        z = gamma + 1j * d
        return (1.0 - np.exp(-z * t_win)) / z

    val = 0.5 * g(delta) - 0.25 * g(delta - shift) - 0.25 * g(delta + shift)
    return amp * np.abs(val)


def peak_linewidth(spectrum: SpectrumEstimate, peak_index: int) -> float:
    """FWHM of one spectral peak, by least-squares line-shape fit.

    Raises NotResolvableError when another detected peak sits within three
    times the broader of the two direct half-height widths, or when the
    neighborhood of the peak is not consistent with a single line (an
    overlapping mode too merged to register as its own peak still distorts
    the shape, and a width read off a blend certifies nothing).  The fitted
    model is the exact transform of a Hann-tapered damped cosine over the
    actual window, which corrects the finite-window convolution for short
    windows and converges to the plain Lorentzian for long ones; the
    observation window can never narrow the estimate below what it can
    resolve.
    """
    peak = spectrum.peaks[peak_index]
    freqs, mag = spectrum.freqs, spectrum.magnitude
    df = freqs[1] - freqs[0]

    spans = {}
    for j, p in enumerate(spectrum.peaks):
        i_bin = int(np.argmin(np.abs(freqs - p.frequency)))
        spans[j] = _half_height_span(freqs, mag, i_bin)
    own = spans[peak_index]
    if own is None:
        raise NotResolvableError("no clean half-height crossing around peak")
    own_w = own[1] - own[0]
    for j, p in enumerate(spectrum.peaks):
        if j == peak_index:
            continue
        other_w = (spans[j][1] - spans[j][0]) if spans[j] else np.inf
        if abs(p.frequency - peak.frequency) < 3.0 * max(own_w, other_w):
            raise NotResolvableError(
                f"neighbor at {p.frequency:.4f} too close to "
                f"{peak.frequency:.4f} for a linewidth fit")

    gamma0 = max(0.5 * own_w, 0.25 * df)
    t_win = spectrum.duration
    fit_sel = np.abs(freqs - peak.frequency) <= max(2.0 * own_w, 6.0 * df)
    x = freqs[fit_sel]
    y = mag[fit_sel]

    def resid(p):
        return _windowed_line_model(x, p[0], p[1], p[2], t_win) - y

    import scipy.optimize  # here: no CLI path fits a linewidth

    p0 = np.array([peak.height * gamma0 * 2.0, peak.frequency, gamma0])
    sol = scipy.optimize.least_squares(
        resid, p0, bounds=([0.0, x[0], 1e-8], [np.inf, x[-1], np.inf]))
    misfit = float(np.sqrt(np.mean(resid(sol.x) ** 2)) / peak.height)
    if misfit > 0.05:
        raise NotResolvableError(
            f"spectrum around {peak.frequency:.4f} is not a single clean "
            f"line (residual {misfit:.1%} of peak height)")

    # A mode merged into this line's skirt may not register as a peak of its
    # own, yet it still bends the tails away from the single-line shape; a
    # width read off such a blend certifies nothing.  Compare data against
    # the fitted model out to several widths, wherever the spectrum is well
    # above the numerical floor, in units of the local magnitude.
    wide = (np.abs(freqs - peak.frequency) <= 5.0 * max(own_w, 3.0 * df)) \
        & (mag >= 0.01 * peak.height)
    model_wide = _windowed_line_model(freqs[wide], *sol.x, t_win)
    rel = np.max(np.abs(model_wide - mag[wide]) / mag[wide])
    if rel > 0.15:
        raise NotResolvableError(
            f"tails around {peak.frequency:.4f} deviate from a single line "
            f"by {rel:.0%}; another mode is blended in")
    return 2.0 * float(sol.x[2])


def _entropy(rho: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(rho)
    vals = np.clip(vals.real, 0.0, 1.0)
    nz = vals[vals > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def mutual_information(rho: np.ndarray) -> float:
    """S(rho_q) + S(rho_p) - S(rho), in nats; computational tensor factors."""
    r = np.asarray(rho).reshape(2, 2, 2, 2)
    rho_q = np.einsum("abcb->ac", r)
    rho_p = np.einsum("abad->bd", r)
    mi = _entropy(rho_q) + _entropy(rho_p) - _entropy(np.asarray(rho))
    return max(0.0, mi)


# sigma_plus(qubit) * sigma_minus(probe), computational basis
CORRELATOR_OP = np.kron(SIGMA_PLUS, SIGMA_PLUS.T)


def spin_correlator(rho: np.ndarray) -> complex:
    """<sigma_plus(qubit) * sigma_minus(probe)> in the computational basis."""
    return complex(np.trace(np.asarray(rho) @ CORRELATOR_OP))


# Window samples per signal that _windowed_correlation copies at once (8 MB).
_CORRELATION_BLOCK = 1 << 20


def _windowed_correlation(f, g, win_n: int, step_n: int) -> np.ndarray:
    """``sync_measure`` of each row of ``f`` against the same row of ``g``
    (both (P, n)) in every window of ``win_n`` samples that starts on a
    multiple of ``step_n``, shape (P, windows), NaN on zero variance.

    Windows are copied out of strided views in blocks of at most
    _CORRELATION_BLOCK samples: whole rows while a row's windows fit a
    block, else part of one row.  Each window's arithmetic is its own, so
    a row has the same bits in any batch and block."""
    points, n = f.shape
    count = len(range(0, n - win_n + 1, step_n))
    c_values = np.full((points, count), np.nan)
    if count == 0:
        return c_values
    views = [np.lib.stride_tricks.sliding_window_view(x, win_n, axis=-1)[:, ::step_n]
             for x in (f, g)]
    most = max(1, _CORRELATION_BLOCK // win_n)     # windows per block
    per = max(1, most // count)                     # rows per block
    for p in range(0, points, per):
        for k in range(0, count, most):
            block = c_values[p:p + per, k:k + most]
            da, db = (v[p:p + per, k:k + most].copy().reshape(-1, win_n)
                      for v in views)
            da -= da.mean(axis=1, keepdims=True)
            db -= db.mean(axis=1, keepdims=True)
            na = np.sqrt(np.einsum("ij,ij->i", da, da))
            nb = np.sqrt(np.einsum("ij,ij->i", db, db))
            num = np.einsum("ij,ij->i", da, db)
            c = np.full(num.size, np.nan)
            defined = (na != 0.0) & (nb != 0.0)
            c[defined] = np.clip(num[defined] / (na[defined] * nb[defined]),
                                 -1.0, 1.0)
            block[...] = c.reshape(block.shape)
    return c_values


@dataclass(frozen=True)
class SyncConfig:
    window: float = bounded(3.0, above=0.0)
    step: float | None = bounded(None, above=0.0)   # None: window/4
    sync_threshold: float = bounded(0.9, above=0.0, at_most=1.0)
    nosync_threshold: float = bounded(0.3, at_least=0.0, at_most=1.0)
    late_window: tuple[float, float] = (200.0, 310.0)
    noise_floor: float = bounded(1e-9, at_least=0.0)

    def __post_init__(self):
        check_fields(self)
        if self.nosync_threshold >= self.sync_threshold:
            raise FieldError("nosync_threshold", "must be below sync_threshold "
                             f"({self.sync_threshold:g})")


def _correlation_windows(times: np.ndarray, config: SyncConfig):
    """(win_n, step_n, window starts, window centre times) on ``times``.
    The one late-window rule: ValueError unless ``check_window`` accepts the
    late window and, if any window fits the grid, one centre lies in it."""
    dt = uniform_step(times)
    lo, hi = config.late_window
    check_window(times, lo, hi)
    win_n = max(8, int(round(config.window / dt)))
    step = config.step if config.step is not None else config.window / 4.0
    step_n = max(1, int(round(step / dt)))
    starts = np.arange(0, times.size - win_n + 1, step_n)
    centres = times[starts] + 0.5 * config.window
    if centres.size and not window_mask(centres, lo, hi).any():
        raise ValueError("holds no correlation window centre (window "
                         f"{config.window:g})")
    return win_n, step_n, starts, centres


def late_span(times, config: SyncConfig = SyncConfig()) -> slice:
    """The part of a uniform time grid that ``detect_sync``'s verdict reads.

    Regime, c_floor/c_ceil/c_min_abs, below_floor and omega_sync depend only
    on the correlation windows centred in ``config.late_window`` and on the
    late-window samples themselves, both as ``window_mask`` picks them.  The
    span starts on a multiple of the window stride, no later than the first
    late-window sample, so the same windows are computed; it ends after the
    last late-centred window or at ``check_window``'s end sample, whichever
    is later, so the check passes on the span iff it does on the grid.
    When no correlation window fits the grid, the span is the whole grid.
    Transition scans and sweeps evolve only this span (``sync_plan`` holds
    it), passing the whole grid and the span to ``simulate``; ``evolve``
    and ``spectrum`` keep the full grid, since they write every sample and
    the whole c-trace.

    Evolved that way, the span's samples have the bits of the whole grid's
    (``dynamics.evolve_analytic``), so ``detect_sync`` on the span agrees
    with the full grid: the same regime and c values, and omega_sync to the
    rounding of the grid step.  Raises the ValueError ``detect_sync``
    raises on a late window that ``check_window`` rejects or that holds no
    correlation window centre.
    """
    times = np.asarray(times, dtype=float)
    win_n, step_n, starts, centres = _correlation_windows(times, config)
    lo, hi = config.late_window
    late = starts[window_mask(centres, lo, hi)]
    if late.size == 0:
        return slice(0, times.size)
    # first/last late sample (whole grid if none); check_window's end sample
    mask = window_mask(times, lo, hi)
    first, last = int(np.argmax(mask)), times.size - int(np.argmax(mask[::-1]))
    reach = min(int(np.searchsorted(times, hi - _REACH_TOL)) + 1, times.size)
    return slice(min(int(late[0]), first - first % step_n),
                 max(int(late[-1]) + win_n, last, reach))


class SyncPlan(NamedTuple):
    """A grid, the span of it that trajectories hold, and what
    ``detect_sync`` derives from that span and a SyncConfig alone: the
    correlation window length and stride (a window starts on every
    multiple of it), the window centres (read-only), the centres in the
    late window, and the late window's spectrum plan, which holds the
    span's size and end samples and the late-window samples.
    ``sync_plan`` builds it."""

    times: np.ndarray
    span: slice
    config: SyncConfig
    win_n: int
    step_n: int
    c_times: np.ndarray
    late_c: slice
    spectrum: _SpectrumPlan


def sync_plan(times, config: SyncConfig = SyncConfig(),
              span: slice | None = None) -> SyncPlan:
    """The plan of a uniform grid, evolved over ``span`` (by default its
    ``late_span``), for a scan or sweep to build once and pass to the
    verdict of every trajectory on ``times[span]``.  Raises the ValueError
    ``late_span`` and ``detect_sync`` raise for that grid and config."""
    times = np.asarray(times, dtype=float)
    span = late_span(times, config) if span is None else span
    part = times[span]
    win_n, step_n, _, c_times = _correlation_windows(part, config)
    lo, hi = config.late_window
    spectrum = _spectrum_plan(part, lo, hi)
    c_times.flags.writeable = False
    return SyncPlan(times, span, config, win_n, step_n, c_times,
                    _as_slice(window_mask(c_times, lo, hi)), spectrum)


def detect_sync(traj: Trajectory, config: SyncConfig = SyncConfig(),
                plan: SyncPlan | None = None, *,
                locked_only: bool = False):
    """Sliding-window correlation, regime label, probe-only peak frequency.

    Classification is a persistence test over every correlation window
    whose center falls in the late window.  A locked pair keeps |c| above
    the sync threshold in all of them (min for in-phase, max for antiphase);
    an unlocked pair beats, so c must pass through small values in at least
    one window.  The window default is deliberately shorter than a beat
    period so that an unlocked c actually gets to swing within the late
    window; locked signals give c = +-1 at any window length.

    omega_sync is the tallest late-window spectral peak of the probe signal
    alone (the qubit is assumed unreadable in the intended setting).  It is
    None for NoSync only, a verdict a probe with no peak also gets, so an
    Indeterminate verdict keeps its peak; with ``locked_only`` only
    InPhase and AntiPhase build a spectrum, and Indeterminate reads None.

    Everything but the c-trace itself is read from ``late_span(traj.times,
    config)``, so transition scans and sweeps pass only that span; the
    c-trace then covers the span alone.  ``plan``, a ``sync_plan`` for
    ``config`` whose span is ``traj.times``, saves rebuilding the
    detector's constants on every call (ValueError for another span or
    config).  ValueError unless ``check_window`` accepts the late window
    and, when any correlation window fits the grid, one is centred in it;
    ``window_mask`` picks its samples and windows.  A late window with no
    defined c (every late window has zero variance) reads Indeterminate,
    or NoSync without a probe peak.

    A batch trajectory (one row of signals per point) gives a SyncBatch:
    one correlation pass and one ``windowed_fft`` over the rows that need
    a spectrum, and per row the SyncMetrics it gets alone.
    """
    times = traj.times
    f, g = np.atleast_2d(traj.sx_q), np.atleast_2d(traj.sx_p)
    if plan is None:
        plan = sync_plan(times, config, slice(None))
    elif plan.config != config or plan.spectrum.grid != _grid_key(times):
        raise ValueError("the sync plan is for another grid or SyncConfig")
    c_values = _windowed_correlation(f, g, plan.win_n, plan.step_n)
    rows = [_verdict(c, probe[plan.spectrum.part], plan, config)
            for c, probe in zip(c_values, g)]
    spectral = [k for k, m in enumerate(rows)
                if not (m.regime == NO_SYNC
                        or locked_only and m.regime == INDETERMINATE)]
    if spectral:
        spectra = windowed_fft(g[spectral], times, *config.late_window,
                               plan.spectrum).rows
        for k, est in zip(spectral, spectra):
            rows[k] = (replace(rows[k], omega_sync=est.peaks[0].frequency)
                       if est.peaks else replace(rows[k], regime=NO_SYNC))
    return rows[0] if traj.sx_q.ndim == 1 else SyncBatch(plan.c_times,
                                                         tuple(rows))


def _verdict(c_values: np.ndarray, late_probe: np.ndarray, plan: SyncPlan,
             config: SyncConfig) -> SyncMetrics:
    """One row's SyncMetrics from its correlations and late-window probe
    samples, before any spectrum: omega_sync is None."""
    # Dead channel, not an unlocked one: the pair never got to show its
    # late-time phase relation at measurable amplitude.
    below_floor = bool(np.max(np.abs(late_probe)) < config.noise_floor)
    vals = c_values[plan.late_c]
    vals = vals[~np.isnan(vals)]
    extremes = (None, None, None)
    if below_floor:
        regime = NO_SYNC
    elif vals.size == 0:
        regime = INDETERMINATE
    else:
        extremes = c_floor, c_ceil, c_min_abs = (
            float(np.min(vals)), float(np.max(vals)),
            float(np.min(np.abs(vals))))
        if c_floor >= config.sync_threshold:
            regime = IN_PHASE
        elif c_ceil <= -config.sync_threshold:
            regime = ANTI_PHASE
        elif c_min_abs <= config.nosync_threshold:
            regime = NO_SYNC
        else:
            regime = INDETERMINATE
    return SyncMetrics(plan.c_times, c_values, None, regime, config.window,
                       *extremes, below_floor)
