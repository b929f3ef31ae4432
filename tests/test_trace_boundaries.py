"""The benchmark's tracer still finds every layer boundary it wraps.

``benchmarks/tracing.py`` replaces functions where ``cli``, ``probe_protocol``
and ``signal_analysis`` bind them, and fails when a binding is gone.  Running
its ``install`` here makes a refactor that unbinds a traced boundary fail the
unit tests, not only the benchmark's traced pass.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

from syncprobe import cli, probe_protocol, signal_analysis
from syncprobe.bath import PowerLawCutoff
from syncprobe.dynamics import default_time_grid
from syncprobe.presets import get_preset
from syncprobe.spin_model import QubitPairParams

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
    plan = cli.sync_plan(base.time_grid.times(), base.analysis)
    cli._sweep_point(base, ["omega_p"], (1.2,), ("c",), plan)
    assert _layer_spans(tracer, 0) == LAYER_SPANS

    first = len(tracer.code)
    scan = probe_protocol.ScanConfig()
    plan = signal_analysis.sync_plan(default_time_grid(scan.t_max, scan.dt),
                                     scan.sync_config(1.0))
    model = PowerLawCutoff(gamma0=0.01, s=2.0, omega_c=20.0)
    pair = QubitPairParams(omega_p=1.1, lam=0.2)
    probe_protocol._classify_point(model, pair, plan, scan.kappa)
    assert _layer_spans(tracer, first) == LAYER_SPANS


def test_sweep_batches_record_one_setup_and_one_span_per_batch(
        monkeypatch, tmp_path):
    """``sweep`` sets each batch up as arrays through the traced bindings,
    and evolves and classifies it in one span of each: 20 points in
    batches of 8 (two full and a tail of 4) give 3 setups (a diagonalize
    and a transform span each, and a rates span) and 3 evolve and detect
    spans, each evolve span over the 2 250-sample late span."""
    tracer = _installed_tracer(monkeypatch)
    cfg = {"base": get_preset("fig1"), "record": ["c", "omega_sync", "regime"],
           "axes": [{"name": "omega_p", "lo": 0.8, "hi": 1.2, "steps": 4},
                    {"name": "lambda", "lo": 0.1, "hi": 0.3, "steps": 5}]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    assert cli._SWEEP_BATCH == 8
    assert cli.main(["sweep", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--workers", "1"]) == 0
    batches = 3
    assert _layer_spans(tracer, 0) == {
        "spin_model.setup": 2 * batches, "bath.lindblad_rates": batches,
        "dynamics.evolve_analytic": batches,
        "signal_analysis.detect_sync": batches}
    evolve = tracer.names.index("dynamics.evolve_analytic")
    assert [n for c, n in zip(tracer.code, tracer.items)
            if c == evolve] == [2250] * batches
