"""Synchronization measure, probe spectra, linewidths, and state correlators.

The synchronization measure is a windowed Pearson correlation between the two
local observables.  Spectra come from a Hann-tapered, zero-padded DFT of a
time window, with parabolic sub-bin peak refinement; linewidths from a fit of
the exact line shape of a damped cosine seen through that taper and window.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.optimize
import scipy.signal

from .dynamics import Trajectory, _uniform_step
from .spin_model import SIGMA_PLUS

IN_PHASE = "InPhase"
ANTI_PHASE = "AntiPhase"
NO_SYNC = "NoSync"
INDETERMINATE = "Indeterminate"


class NotResolvableError(RuntimeError):
    """Peak overlaps a neighbor too strongly for a linewidth fit."""


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


def windowed_fft(signal, times, t_start: float, t_end: float) -> SpectrumEstimate:
    """Spectrum of the mean-subtracted, Hann-tapered segment [t_start, t_end].

    Zero-pads by 4x for sub-bin interpolation; peaks are local maxima whose
    height and prominence both exceed 5x the median magnitude.
    """
    signal = np.asarray(signal, dtype=float)
    times = np.asarray(times, dtype=float)
    dt = _uniform_step(times)
    check_window(times, t_start, t_end)
    seg = signal[window_mask(times, t_start, t_end)]
    seg = seg - seg.mean()
    taper = np.hanning(seg.size)
    padded = np.zeros(4 * seg.size)
    padded[:seg.size] = seg * taper
    spec = np.abs(np.fft.rfft(padded))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(padded.size, d=dt)

    # Height floor per the 5x-median rule; the prominence floor additionally
    # scales with the strongest feature so Hann sidelobe ripples (-31 dB,
    # under 3% of the main lobe) never register as peaks of their own.  The
    # spectrum is >= 0, so no peak's prominence exceeds its height: filtering
    # on height=prom (>= floor) keeps exactly the peaks height=floor would,
    # without scanning the prominence of sidelobes that cannot pass.
    floor = 5.0 * float(np.median(spec))
    prom = max(floor, 0.05 * float(np.max(spec)))
    idx, _ = scipy.signal.find_peaks(spec, height=prom, prominence=prom)
    peaks = []
    for i in idx:
        # 3-point parabolic refinement
        y0, y1, y2 = spec[i - 1], spec[i], spec[i + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
        f_hat = freqs[i] + shift * (freqs[1] - freqs[0])
        h_hat = y1 - 0.25 * (y0 - y2) * shift
        peaks.append(Peak(frequency=float(f_hat), height=float(h_hat)))
    peaks.sort(key=lambda p: p.height, reverse=True)
    return SpectrumEstimate(freqs=freqs, magnitude=spec, peaks=tuple(peaks),
                            window=(float(t_start), float(t_end)))


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


def _windowed_correlation(f, g, win_n: int, starts: np.ndarray) -> np.ndarray:
    """``sync_measure`` at each of ``starts``, NaN on zero variance, in blocks
    of starts whose windows hold at most _CORRELATION_BLOCK samples."""
    c_values = np.full(starts.size, np.nan)
    rows = max(1, _CORRELATION_BLOCK // win_n)
    for k in range(0, starts.size, rows):
        da = np.lib.stride_tricks.sliding_window_view(f, win_n)[starts[k:k + rows]]
        db = np.lib.stride_tricks.sliding_window_view(g, win_n)[starts[k:k + rows]]
        da -= da.mean(axis=1, keepdims=True)
        db -= db.mean(axis=1, keepdims=True)
        na = np.sqrt(np.einsum("ij,ij->i", da, da))
        nb = np.sqrt(np.einsum("ij,ij->i", db, db))
        num = np.einsum("ij,ij->i", da, db)
        defined = (na != 0.0) & (nb != 0.0)
        c_values[k:k + rows][defined] = np.clip(
            num[defined] / (na[defined] * nb[defined]), -1.0, 1.0)
    return c_values


@dataclass(frozen=True)
class SyncConfig:
    window: float = 3.0
    step: float | None = None            # default window/4
    sync_threshold: float = 0.9
    nosync_threshold: float = 0.3
    late_window: tuple[float, float] = (200.0, 310.0)
    noise_floor: float = 1e-9


def _correlation_windows(times: np.ndarray, config: SyncConfig):
    """(win_n, step_n, window starts, window centre times) on ``times``."""
    dt = _uniform_step(times)
    win_n = max(8, int(round(config.window / dt)))
    step = config.step if config.step is not None else config.window / 4.0
    step_n = max(1, int(round(step / dt)))
    starts = np.arange(0, times.size - win_n + 1, step_n)
    return win_n, step_n, starts, times[starts] + 0.5 * config.window


def late_span(times, config: SyncConfig = SyncConfig()) -> slice:
    """The part of a uniform time grid that ``detect_sync``'s verdict reads.

    Regime, c_floor/c_ceil/c_min_abs, below_floor and omega_sync depend only
    on the correlation windows centred in ``config.late_window`` and on the
    late-window samples themselves, both as ``window_mask`` picks them.  The
    span starts on a multiple of the window stride, no later than the first
    late-window sample, so the same windows are computed; it ends after the
    last late-centred window or at ``check_window``'s end sample, whichever
    is later, so the check passes on the span iff it does on the grid.
    When no window centre falls in the late window, ``detect_sync`` falls
    back to the last defined c of the whole trace, so the span is the whole
    grid.  Transition scans and sweeps evolve only this span; ``evolve`` and
    ``spectrum`` keep the full grid, since they write every sample and the
    whole c-trace.

    ``detect_sync`` on the span agrees with the full grid: the same regime
    and c values, and omega_sync to the rounding of the grid step.  The one
    exception is a trace whose late windows all have zero variance (signals
    underflowed to exactly 0 with ``noise_floor`` 0): there the full grid
    falls back to an earlier c the span may not hold.
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


def detect_sync(traj: Trajectory, config: SyncConfig = SyncConfig()) -> SyncMetrics:
    """Sliding-window correlation, regime label, probe-only peak frequency.

    Classification is a persistence test over every correlation window
    whose center falls in the late window.  A locked pair keeps |c| above
    the sync threshold in all of them (min for in-phase, max for antiphase);
    an unlocked pair beats, so c must pass through small values in at least
    one window.  The window default is deliberately shorter than a beat
    period so that an unlocked c actually gets to swing within the late
    window; locked signals give c = +-1 at any window length.

    omega_sync is the tallest late-window spectral peak of the probe signal
    alone (the qubit is assumed unreadable in the intended setting), or None
    when no lock survives.

    Everything but the c-trace itself is read from ``late_span(traj.times,
    config)``, so transition scans and sweeps pass only that span; the
    c-trace then covers the span alone.  ValueError unless ``check_window``
    accepts the late window; ``window_mask`` picks its samples and windows.
    """
    times, f, g = traj.times, traj.sx_q, traj.sx_p
    lo, hi = config.late_window
    win_n, _, starts, c_times = _correlation_windows(times, config)
    check_window(times, lo, hi)
    c_values = _windowed_correlation(f, g, win_n, starts)

    if np.max(np.abs(g[window_mask(times, lo, hi)])) < config.noise_floor:
        # Dead channel, not an unlocked one: the pair never got to show its
        # late-time phase relation at measurable amplitude.
        return SyncMetrics(c_times=c_times, c_values=c_values,
                           omega_sync=None, regime=NO_SYNC,
                           window=config.window, below_floor=True)

    est = windowed_fft(g, times, lo, hi)
    omega = est.peaks[0].frequency if est.peaks else None

    vals = c_values[window_mask(c_times, lo, hi)]
    vals = vals[~np.isnan(vals)]
    if vals.size == 0:
        tail = c_values[~np.isnan(c_values)]
        vals = tail[-1:] if tail.size else vals
    if vals.size == 0:
        c_floor = c_ceil = c_min_abs = None
        regime = INDETERMINATE
    else:
        c_floor = float(np.min(vals))
        c_ceil = float(np.max(vals))
        c_min_abs = float(np.min(np.abs(vals)))
        if c_floor >= config.sync_threshold:
            regime = IN_PHASE
        elif c_ceil <= -config.sync_threshold:
            regime = ANTI_PHASE
        elif c_min_abs <= config.nosync_threshold:
            regime = NO_SYNC
        else:
            regime = INDETERMINATE
    if omega is None or regime == NO_SYNC:
        omega = None
        regime = NO_SYNC
    return SyncMetrics(c_times=c_times, c_values=c_values, omega_sync=omega,
                       regime=regime, window=config.window,
                       c_floor=c_floor, c_ceil=c_ceil, c_min_abs=c_min_abs)


def spectrum_to_csv(est: SpectrumEstimate, fh) -> None:
    fh.write("freq,magnitude\n")
    for row in zip(est.freqs.tolist(), est.magnitude.tolist()):
        fh.write("%.17g,%.17g\n" % row)


def sync_metrics_to_record(metrics: SyncMetrics) -> dict:
    """JSON-ready summary (arrays included as lists, nan as None)."""
    rec = asdict(metrics)
    rec.update(c_times=metrics.c_times.tolist(),
               c_values=[None if np.isnan(v) else v
                         for v in metrics.c_values.tolist()])
    return rec
