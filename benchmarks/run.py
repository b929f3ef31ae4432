"""syncprobe benchmark: drives the CLI from outside, one fresh process per call.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its ``src/``.  Scratch files go to
``.bench_work/`` at the root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 measures the end-to-end metrics with tracing off: CLI calls back
to back (closed loop, one call at a time) and set-up time over fresh
interpreters before and after them, all within --seconds.

--trace 1 is the per-layer pass: one untraced call at the workload's
worker count, one untraced serial call, and one serial call with spans
recorded around each layer boundary (see tracing.py).  The three outputs
must be byte-identical.  Spans are saved to ``.bench_work/<workload>/``.

Both modes run the correctness checks in checks.py; a failed check counts
as a failed operation.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_RUNS = 6            # set-up-only interpreters per --trace 0 run
TIME_LIMIT_S = 170.0      # whole run, so it exits well inside 180 s


def _env() -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"machine": platform.machine(), "system": platform.platform(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "src_lines": src_lines}


class Runner:
    """Launches timed child interpreters inside one run's time limit."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.calls = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def child(self, cli_args, spans=None) -> dict:
        """Result dict of one child; ``error`` set if it did not finish."""
        self.calls += 1
        result_path = self.work / f"result-{self.calls}.json"
        cmd = [sys.executable, str(HERE / "child.py"),
               str(time.monotonic_ns()), str(result_path),
               str(spans) if spans else "-"] + list(cli_args)
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.work,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            # The whole session, pool workers included, goes.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": "timed out"}
        if proc.returncode != 0 or not result_path.exists():
            return {"error": f"child exited {proc.returncode}: "
                             f"{err.strip()[-400:]}"}
        return json.loads(result_path.read_text("utf-8"))

    def cli_call(self, workload, config_path, out: Path, workers: int,
                 spans=None) -> dict:
        args = [workload.command, "--config", str(config_path),
                "--out", str(out), "--workers", str(workers)]
        res = self.child(args, spans)
        res["out"] = out
        if "error" not in res:
            res["digest"] = _digest(out)
            res["bytes"] = sum(p.stat().st_size for p in out.iterdir())
        res["failed"] = _failed_units(workload, res)
        return res


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0")
        with open(p, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _recorded_failures(workload, out: Path) -> int:
    """Per-unit failures the CLI wrote into its artifacts."""
    if workload.command == "sweep":
        return json.loads((out / "sweep_config.json").read_text())["failures"]
    if workload.command == "reconstruct":
        return len(json.loads((out / "reconstruction.json").read_text())
                   ["failures"])
    return 0


def _failed_units(workload, res) -> int:
    """Units of one call that failed: recorded ones, or all if it crashed."""
    if "error" in res or res["exit_code"] not in (0, 1):
        return workload.ops
    recorded = _recorded_failures(workload, res["out"])
    return recorded if recorded or res["exit_code"] == 0 else workload.ops


def _checks(workload, out: Path, seed: int):
    import checks
    if workload.command == "sweep":
        return checks.check_sweep(workload, out, seed), None
    return checks.check_reconstruct(workload, out, seed)


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def layer_metrics(spans) -> dict:
    """Per-layer counts and self times from one traced call's spans."""
    names = [str(n) for n in spans["names"]]
    name = [names[c] for c in spans["code"].tolist()]
    start, end = spans["start"].tolist(), spans["end"].tolist()
    parent, items = spans["parent"].tolist(), spans["items"].tolist()
    own = stats.self_times(start, end, parent)
    by_name = {}
    for i, x in enumerate(name):
        by_name.setdefault(x, []).append(i)

    def of(n):
        return by_name.get(n, [])

    def under(n, p):
        return [i for i in of(n) if parent[i] >= 0 and name[parent[i]] == p]

    def self_ms(idx):
        return sum(own[i] for i in idx) / 1e6

    m = {}
    for layer in ("spin_model.setup", "bath.lindblad_rates",
                  "dynamics.evolve_analytic", "signal_analysis.sync_measure",
                  "signal_analysis.windowed_fft"):
        m[f"{layer}.calls"] = len(of(layer))
    for layer in ("spin_model.setup", "bath.lindblad_rates",
                  "dynamics.evolve_analytic",
                  "signal_analysis.sync_measure", "signal_analysis.detect_sync",
                  "signal_analysis.windowed_fft",
                  "probe_protocol.fit_spectral_density", "cli.parse"):
        m[f"{layer}.self_ms"] = self_ms(of(layer))

    evolve = of("dynamics.evolve_analytic")
    samples = sum(items[i] for i in evolve)
    m["dynamics.evolve_analytic.samples"] = samples
    m["dynamics.evolve_analytic.ns_per_sample"] = (
        sum(own[i] for i in evolve) / samples if samples else 0.0)
    m["signal_analysis.windowed_fft.samples"] = sum(
        items[i] for i in of("signal_analysis.windowed_fft"))
    computed = len(under("signal_analysis.sync_measure",
                         "signal_analysis.detect_sync"))
    used = sum(items[i] for i in of("signal_analysis.detect_sync"))
    m["signal_analysis.detect_sync.windows_used_frac"] = (
        used / computed if computed else 0.0)

    scan = "probe_protocol.scan_transition"
    classified = under("signal_analysis.detect_sync", scan)
    m[f"{scan}.classifications"] = len(classified)
    scan_evolves = under("dynamics.evolve_analytic", scan)
    m[f"{scan}.samples_per_classification"] = (
        sum(items[i] for i in scan_evolves) / len(scan_evolves)
        if scan_evolves else 0.0)
    m["probe_protocol.predict_transition.rate_evals"] = len(
        under("bath.lindblad_rates", "probe_protocol.predict_transition"))

    point_ms = [(end[i] - start[i]) / 1e6 for i in of("cli.point")]
    s = stats.summary(point_ms) if point_ms else None
    m["cli.point_ms.p50"] = s["median"] if s else 0.0
    m["cli.point_ms.tail"] = (s["tail"] or 0.0) if s else 0.0
    m["cli.point_ms.tail_pct"] = (s["tail_pct"] or 0.0) if s else 0.0
    m["cli.point_ms.samples"] = len(point_ms)
    return m


# ---------------------------------------------------------------------------
# the two modes

def measure(workload, runner, config_path, seed, seconds, report):
    """--trace 0: end-to-end metrics with tracing off."""
    setups = []

    def set_up(times):
        for _ in range(times):
            res = runner.child([])
            if "error" in res:
                raise RuntimeError(f"set-up run failed: {res['error']}")
            setups.append(res["setup_s"])

    # The set-up runs share the measured --seconds with the calls: half of
    # them before the calls and half after, so that they sample both ends of
    # the run rather than one stretch of machine load.
    t_end = time.monotonic() + seconds
    set_up(SETUP_RUNS // 2)
    calls = []
    while True:
        out = runner.work / f"out-{len(calls)}"
        t0 = time.monotonic()
        res = runner.cli_call(workload, config_path, out, workload.workers)
        calls.append(res)
        if "setup_s" in res:
            setups.append(res["setup_s"])
        if len(calls) > 1 and "error" not in res:
            shutil.rmtree(out)
        # Room for one more call like this one and the closing set-up runs.
        reserve = (SETUP_RUNS - SETUP_RUNS // 2) * max(setups)
        if ("error" in res or time.monotonic() + (time.monotonic() - t0)
                + reserve > t_end):
            break
    set_up(SETUP_RUNS - SETUP_RUNS // 2)

    ok = [c for c in calls if "error" not in c]
    if not ok:
        raise RuntimeError(f"every CLI call failed: {calls[0]['error']}")
    attempted = workload.ops * len(calls)
    failed = sum(c["failed"] for c in calls)
    digests = {c["digest"] for c in ok}
    check_results = [("artifacts.repeatable", len(digests) == 1,
                      f"{len(digests)} distinct output(s) over {len(ok)} calls")]
    if "error" not in calls[0]:
        check_results += _checks(workload, calls[0]["out"], seed)[0]

    walls = [c["wall_s"] for c in ok]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "points_per_s": workload.points / wall,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in ok),
        "setup_s": statistics.median(setups),
    }
    report_timing(report, "wall_s", walls, "s")
    report_timing(report, "setup_s", setups, "s")
    return metrics, check_results, attempted, failed


def trace(workload, runner, config_path, seed, report):
    """--trace 1: per-layer metrics from a separate traced serial pass."""
    e2e = runner.cli_call(workload, config_path, runner.work / "out-e2e",
                          workload.workers)
    if workload.workers > 1:
        serial = runner.cli_call(workload, config_path,
                                 runner.work / "out-serial", 1)
    else:
        serial = e2e
    spans_path = runner.work / "spans.npz"
    traced = runner.cli_call(workload, config_path, runner.work / "out-traced",
                             1, spans=spans_path)
    calls = [e2e, serial, traced] if serial is not e2e else [e2e, traced]
    attempted = workload.ops * len(calls)
    failed = sum(c["failed"] for c in calls)
    broken = [c["error"] for c in calls if "error" in c]
    if broken:
        raise RuntimeError(f"CLI call failed: {broken[0]}")

    import numpy as np
    with np.load(spans_path) as spans:
        m = layer_metrics(spans)
    speedup, efficiency = stats.pool_scaling(serial["wall_s"], e2e["wall_s"],
                                             workload.workers)
    m["cli.pool.speedup"] = speedup
    m["cli.pool.efficiency"] = efficiency
    m["trace.overhead_frac"] = (traced["wall_s"] - serial["wall_s"]) / serial["wall_s"]
    m["cli.write.bytes"] = e2e["bytes"]
    for c in calls[1:]:
        shutil.rmtree(c["out"])
    check_results = [("artifacts.traced_identical",
                      len({c["digest"] for c in calls}) == 1,
                      "untraced, serial and traced outputs are byte-identical")]
    results, s_err = _checks(workload, e2e["out"], seed)
    check_results += results
    m["s_abs_error"] = 0.0 if s_err is None else s_err
    report.append(f"wall_s: {e2e['wall_s']:.4f} s at --workers "
                  f"{workload.workers}, {serial['wall_s']:.4f} s serial, "
                  f"{traced['wall_s']:.4f} s traced serial")
    report.append(f"spans: {spans_path.relative_to(ROOT)}")
    return m, check_results, attempted, failed


def report_timing(report, name, values, unit):
    s = stats.summary(values)
    tail = (f"none below {stats.min_tail_samples()} samples"
            if s["tail"] is None
            else f"p{s['tail_pct']:g} {s['tail']:.4f} {unit}")
    report.append(f"{name}: median {s['median']:.4f} {unit}, tail {tail}, "
                  f"n = {s['n']} ({', '.join(f'{v:.3f}' for v in values)})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "syncprobe" / "cli.py").is_file():
        print(f"error: no syncprobe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.make(args.workload, args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=2) + "\n",
                           encoding="utf-8")
    runner = Runner(work, deadline)

    report = [f"env: {json.dumps(_env(), sort_keys=True)}",
              f"workload {workload.name} seed {args.seed}: syncprobe "
              f"{workload.command}, {workload.points} {workload.point_kind}, "
              f"--workers {workload.workers}"]
    try:
        if args.trace:
            metrics, results, attempted, failed = trace(
                workload, runner, config_path, args.seed, report)
        else:
            metrics, results, attempted, failed = measure(
                workload, runner, config_path, args.seed, args.seconds, report)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted += len(results)
    failed += sum(not ok for _, ok, _ in results)
    frac = stats.failed_frac(failed, attempted)
    if args.trace:
        metrics["failed_frac"] = frac
    for name, ok, detail in results:
        report.append(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    report.append(f"failed_frac: {frac:.6g} ({failed} of {attempted} "
                  "operations)")
    # Names and units come from BENCHMARK.json, the one list of metrics.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} are "
              "not both declared and measured", file=sys.stderr)
        return 1
    for name, unit in units.items():
        report.append(f"{name}: {metrics[name]:.6g} {unit}")
    for line in report:
        print(f"# {line}")
    print(json.dumps({
        "correct": all(ok for _, ok, _ in results) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
