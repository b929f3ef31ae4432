"""The benchmark's tracer still finds every layer boundary it wraps.

``benchmarks/tracing.py`` replaces functions where ``cli``, ``probe_protocol``
and ``signal_analysis`` bind them, and fails when a binding is gone.  Running
its ``install`` here makes a refactor that unbinds a traced boundary fail the
unit tests, not only the benchmark's traced pass.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from syncprobe import cli, probe_protocol, signal_analysis
from syncprobe.bath import PowerLawCutoff
from syncprobe.dynamics import default_time_grid
from syncprobe.presets import get_preset

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

# spans one forward simulation and its verdict record, per entry point
LAYER_SPANS = {"spin_model.setup": 2, "bath.lindblad_rates": 1,
               "dynamics.evolve_analytic": 1, "signal_analysis.detect_sync": 1}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _installed_tracer(monkeypatch):
    tracing = _load_tracing()
    # register every function binding, so monkeypatch puts the originals
    # back after install has wrapped them
    for module in (cli, probe_protocol, signal_analysis):
        for name, value in list(vars(module).items()):
            if callable(value):
                monkeypatch.setattr(module, name, value)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def _layer_spans(tracer, first):
    names = tracer.names
    counts = Counter(names[code] for code in tracer.code[first:])
    return {name: counts[name] for name in LAYER_SPANS}


def test_tracer_installs_on_every_boundary(monkeypatch):
    original = cli._sweep_point
    tracer = _installed_tracer(monkeypatch)
    assert cli._sweep_point is not original
    assert "dynamics.evolve_analytic" in tracer.names


def test_sweep_point_and_scan_classification_record_layer_spans(monkeypatch):
    """Both entry points simulate through bindings the tracer wraps.  If
    the simulation moved to a module it does not wrap, the benchmark's
    per-layer metrics would read 0; here the span counts fail instead."""
    tracer = _installed_tracer(monkeypatch)
    base = cli.parse_run_config(get_preset("fig1"))
    times = default_time_grid(base.t_max, base.dt)
    times = times[cli.late_span(times, base.analysis)]
    cli._sweep_point(base, ["omega_p"], (1.2,), ("c",), times)
    assert _layer_spans(tracer, 0) == LAYER_SPANS

    first = len(tracer.code)
    scan = probe_protocol.ScanConfig()
    sync_cfg = scan.sync_config()
    times = default_time_grid(scan.t_max, scan.dt)
    times = times[signal_analysis.late_span(times, sync_cfg)]
    model = PowerLawCutoff(gamma0=0.01, s=2.0, omega_c=20.0)
    probe_protocol._classify_point(model, 0.2, 0.0, 1.1, 1.0, times,
                                   sync_cfg, scan.kappa)
    assert _layer_spans(tracer, first) == LAYER_SPANS
