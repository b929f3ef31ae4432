"""The benchmark's correctness checks still run against the package API.

``benchmarks/checks.py`` holds CLI artifacts to the package's own oracles
(``evolve_numeric``, ``predict_transition``).  Loading it here, with the
workload generator, makes an API change that breaks those checks fail the
unit tests, not only a benchmark run.
"""

import contextlib
import dataclasses
import importlib.util
import io
import json
from pathlib import Path

from syncprobe import cli
from syncprobe.dynamics import default_time_grid
from syncprobe.probe_protocol import simulate

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reconstruct_checks(tmp_path, method):
    checks, workloads = _load("checks"), _load("workloads")
    work = workloads.make("reconstruct-signal", 0)
    work = dataclasses.replace(work, config=dict(work.config, method=method))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(work.config))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["reconstruct", "--config", str(path),
                         "--out", str(out), "--workers", "1"]) == 0
    results, s_err = checks.check_reconstruct(work, out, 0)
    assert len(results) == 3 + work.points
    assert [r for r in results if not r[1]] == []
    assert s_err <= checks.S_TOL


def test_reconstruct_check_passes_on_an_analytic_reconstruct(tmp_path):
    _reconstruct_checks(tmp_path, "analytic")


def test_reconstruct_check_passes_on_a_signal_reconstruct(tmp_path):
    """The workload's own scans, held to the benchmark's uncertainty bound."""
    _reconstruct_checks(tmp_path, "signal")


def test_oracle_agrees_with_the_closed_form_on_a_sweep_point():
    checks, workloads = _load("checks"), _load("workloads")
    point = json.loads(json.dumps(workloads.sweep_map(None, 1).config["base"]))
    point["params"]["omega_p"] = 1.2
    times = default_time_grid(20.0, 0.05)
    numeric, eig, rates, analysis = checks._oracle(point, times)
    rc = cli.parse_run_config(point)
    sim = simulate(rc.params, rc.bath, times, rc.rho0, rc.kappa)
    assert (eig, rates, analysis) == (sim.eig, sim.rates, rc.analysis)
    assert checks._signal_error(sim.traj, numeric) <= checks.SIGNAL_TOL
