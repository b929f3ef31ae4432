"""Correctness checks on CLI artifacts against the package's own oracles.

Each check holds for any seed: closed-form signals, which the checks read
from the CLI's own ``evolve`` output, are compared with the
dense-Liouvillian solver ``evolve_numeric``; scanned transitions with the
analytic rate balance ``predict_transition``; the fitted exponent with the
truth.  Every function returns a list of (name, passed, detail).
"""

import contextlib
import csv
import io
import json
import random

import numpy as np

SIGNAL_TOL = 1e-12        # closed form vs dense solver, on signals
C_TOL = 1e-6              # windowed correlations derived from those signals
S_TOL = 0.1               # |fitted s - truth|, acceptance criterion 7
SAMPLED_POINTS = 3


def _oracle(cfg, times):
    """(numeric trajectory, eigenstructure, rates, SyncConfig) for a run config."""
    from syncprobe import (PowerLawCutoff, QubitPairParams, SyncConfig,
                           diagonalize, evolve_numeric, lindblad_rates,
                           plus_plus_state)
    p, b, a = cfg["params"], cfg["bath"], cfg["analysis"]
    params = QubitPairParams(omega_q=p["omega_q"], omega_p=p["omega_p"],
                             lam=p["lambda"], temperature=p["temperature"])
    model = PowerLawCutoff(gamma0=b["gamma0"], s=b["s"], omega_c=b["omega_c"])
    eig = diagonalize(params)
    rates = lindblad_rates(eig, model, params.temperature, kappa=cfg["kappa"])
    numeric = evolve_numeric(params, model, params.temperature,
                             plus_plus_state(), times, kappa=cfg["kappa"])
    analysis = SyncConfig(window=a["window"], step=a["step"],
                          sync_threshold=a["sync_threshold"],
                          nosync_threshold=a["nosync_threshold"],
                          late_window=tuple(a["late_window"]),
                          noise_floor=a["noise_floor"])
    return numeric, eig, rates, analysis


def _read_trajectory(path, max_rows):
    """(first max_rows rows as a Trajectory, total row count, header ok)."""
    from syncprobe import Trajectory
    rows, n = [], 0
    with open(path, encoding="utf-8") as fh:
        header_ok = fh.readline().strip() == "t,sx_q,sx_p"
        for line in fh:
            if n < max_rows:
                rows.append([float(x) for x in line.split(",")])
            n += 1
    arr = np.array(rows)
    return Trajectory(times=arr[:, 0], sx_q=arr[:, 1], sx_p=arr[:, 2]), n, header_ok


def _cli_evolve(cfg, out):
    """Run ``syncprobe evolve`` in this process on one run config."""
    from syncprobe.cli import main
    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["evolve", "--config", str(path), "--out", str(out)])
    metrics = json.loads((out / "sync_metrics.json").read_text("utf-8"))
    return rc, metrics["metrics"]


def _signal_error(a, b) -> float:
    return max(float(np.max(np.abs(a.sx_q - b.sx_q))),
               float(np.max(np.abs(a.sx_p - b.sx_p))))


def _close(cell: str, value, tol: float) -> bool:
    if value is None:
        return cell == ""
    return cell != "" and abs(float(cell) - value) <= tol * max(1.0, abs(value))


def check_sweep(workload, out, seed: int):
    from syncprobe import detect_sync
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((out / "sweep_config.json").read_text("utf-8"))
    results = [("sweep.points", len(rows) == workload.points,
                f"{len(rows)} rows for {workload.points} points"),
               ("sweep.no_errors",
                summary["failures"] == 0 and not any(r["errors"] for r in rows),
                f"{summary['failures']} failures recorded")]
    if len(rows) != workload.points:
        return results

    cfg = workload.config
    for k in random.Random(seed).sample(range(len(rows)), SAMPLED_POINTS):
        row = rows[k]
        point = json.loads(json.dumps(cfg["base"]))
        for axis in cfg["axes"]:
            point["params"][axis["name"]] = float(row[axis["name"]])
        rc, evolved = _cli_evolve(point, out.parent / f"check-{k}")
        closed, _, _ = _read_trajectory(out.parent / f"check-{k}" / "trajectory.csv",
                                        float("inf"))
        numeric, _, _, analysis = _oracle(point, closed.times)
        m = detect_sync(numeric, analysis)
        err = _signal_error(closed, numeric)
        tag = f"point {k}"
        results.append((f"sweep.signals[{k}]", rc == 0 and err <= SIGNAL_TOL,
                        f"{tag}: max |closed form - numeric| = {err:.2e}"))
        results.append((f"sweep.regime[{k}]",
                        row["regime"] == evolved["regime"] == m.regime,
                        f"{tag}: sweep {row['regime']}, evolve "
                        f"{evolved['regime']}, numeric {m.regime}"))
        ok = all(_close(row[c], getattr(m, c), C_TOL)
                 for c in ("c_floor", "c_ceil", "c_min_abs"))
        results.append((f"sweep.c[{k}]", ok, f"{tag}: c within {C_TOL:g}"))
        results.append((f"sweep.omega_sync[{k}]",
                        _close(row["omega_sync"], m.omega_sync, 1e-9),
                        f"{tag}: sweep {row['omega_sync']!r}, "
                        f"numeric {m.omega_sync!r}"))
    return results


def check_reconstruct(workload, out, seed: int):
    """Returns (results, |s - truth|)."""
    from syncprobe import PowerLawCutoff, QubitPairParams, predict_transition
    rec = json.loads((out / "reconstruction.json").read_text("utf-8"))
    truth = workload.config["bath"]
    model = PowerLawCutoff(gamma0=truth["gamma0"], s=truth["s"],
                           omega_c=truth["omega_c"])
    results = [("reconstruct.no_failures", not rec["failures"],
                f"{len(rec['failures'])} coupling(s) failed"),
               ("reconstruct.constraints",
                len(rec["constraints"]) == workload.points,
                f"{len(rec['constraints'])} of {workload.points}")]
    refine_tol = rec["config"]["scan"]["refine_tol"]
    kappa = rec["config"]["scan"]["kappa"]
    for c in rec["constraints"]:
        lam = c["lambda"]
        want = predict_transition(model, QubitPairParams(lam=lam), T=0.0,
                                  kappa=kappa)
        dev = abs(c["omega_p_bar"] - want)
        allowed = (c["uncertainty"] or 0.0) + refine_tol
        results.append((f"reconstruct.omega_p_bar[{lam:.4f}]", dev <= allowed,
                        f"|scan - predicted| = {dev:.2e}, allowed {allowed:.2e}"))
    # A fit without an exponent counts as s = 0, which fails the bound.
    s_err = abs((rec["reconstruction"].get("s") or 0.0) - truth["s"])
    results.append(("reconstruct.s", s_err <= S_TOL,
                    f"|s - {truth['s']:g}| = {s_err:.4g}, allowed {S_TOL:g}"))
    return results, s_err

