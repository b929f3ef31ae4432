"""Outside-in spans around syncprobe's layer boundaries.

The traced pass replaces each public function where its caller module binds
it (``cli``, ``probe_protocol``, ``signal_analysis``) with a wrapper that
records a span: name, start, end, parent span and run id, plus an optional
work count.  Nothing inside the package changes.  Spans stay in memory and
are written out once, when the call ends.
"""

import functools
import time
from array import array

import numpy as np


class Tracer:
    """Records spans in compact arrays; span ids are in order of start."""

    def __init__(self):
        # Wall-clock nanoseconds at creation identify the run in saved spans.
        self.run_id = time.time_ns()
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.items = array("q")
        self._stack: list[int] = []

    def wrap(self, name: str, fn, items=None):
        """``fn`` recording a span per call; ``items(args, kwargs, out)``
        gives the work count stored with it."""
        code = self._codes.setdefault(name, len(self._codes))
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.code.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.items.append(0)
            self.end.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if items is not None:
                self.items[i] = items(args, kwargs, out)
            return out

        return traced

    @property
    def names(self) -> list[str]:
        """Span names, indexed by the codes stored per span."""
        return list(self._codes)

    def patch(self, module, attr: str, name: str, items=None) -> None:
        """Wrap ``module.attr``; AttributeError if the module no longer
        binds it, so a renamed boundary fails the traced pass instead of
        reading as a layer that costs nothing."""
        fn = getattr(module, attr, None)
        if fn is None:
            raise AttributeError(f"{module.__name__} does not bind {attr} "
                                 f"(traced as {name})")
        setattr(module, attr, self.wrap(name, fn, items))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), code=np.asarray(self.code),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), items=np.asarray(self.items),
                 run=np.full(len(self.start), self.run_id))


def _evolve_samples(args, kwargs, out):
    return len(out.times)


def _fft_samples(args, kwargs, out):
    # rfft of the segment zero-padded to 4x its length: 2 * seg + 1 bins.
    return (len(out.freqs) - 1) // 2


def _late_windows(args, kwargs, out):
    """Correlation windows whose centre lies in the late window."""
    cfg = args[1] if len(args) > 1 else kwargs.get("config")
    if cfg is None:
        from syncprobe.signal_analysis import SyncConfig
        cfg = SyncConfig()
    lo, hi = cfg.late_window
    c = out.c_times
    return int(np.count_nonzero((c >= lo) & (c <= hi)))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the imported syncprobe package."""
    from syncprobe import cli, probe_protocol, signal_analysis

    for attr in ("_load_config", "parse_run_config", "parse_sweep_spec",
                 "_scan_config_from", "_bath_from_config"):
        tracer.patch(cli, attr, "cli.parse")
    tracer.patch(cli, "_sweep_point", "cli.point")
    for mod in (cli, probe_protocol):
        for attr in ("diagonalize", "build_operators", "eigenmode_transform"):
            tracer.patch(mod, attr, "spin_model.setup")
        tracer.patch(mod, "lindblad_rates", "bath.lindblad_rates")
        tracer.patch(mod, "evolve_analytic", "dynamics.evolve_analytic",
                     _evolve_samples)
        tracer.patch(mod, "detect_sync", "signal_analysis.detect_sync",
                     _late_windows)
        tracer.patch(mod, "scan_transition", "probe_protocol.scan_transition")
        tracer.patch(mod, "predict_transition",
                     "probe_protocol.predict_transition")
    tracer.patch(cli, "collect_constraints",
                 "probe_protocol.collect_constraints")
    tracer.patch(cli, "fit_spectral_density",
                 "probe_protocol.fit_spectral_density")
    tracer.patch(signal_analysis, "sync_measure",
                 "signal_analysis.sync_measure")
    tracer.patch(signal_analysis, "windowed_fft",
                 "signal_analysis.windowed_fft", _fft_samples)
