"""The benchmark's tracer still finds every layer boundary it wraps.

``benchmarks/tracing.py`` replaces functions where ``cli``, ``probe_protocol``
and ``signal_analysis`` bind them, and fails when a binding is gone.  Running
its ``install`` here makes a refactor that unbinds a traced boundary fail the
unit tests, not only the benchmark's traced pass.
"""

import importlib.util
from pathlib import Path

from syncprobe import cli, probe_protocol, signal_analysis

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_boundary(monkeypatch):
    tracing = _load_tracing()
    # register every function binding, so monkeypatch puts the originals
    # back after install has wrapped them
    for module in (cli, probe_protocol, signal_analysis):
        for name, value in list(vars(module).items()):
            if callable(value):
                monkeypatch.setattr(module, name, value)
    original = cli._sweep_point
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert cli._sweep_point is not original
    assert "dynamics.evolve_analytic" in tracer.names
