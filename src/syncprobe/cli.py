"""Command-line front end: config in, deterministic artifacts out.

Five subcommands cover the workflows the library supports:

* ``evolve``           one trajectory -> trajectory.csv + sync_metrics.json
* ``sweep``            1-2 parameter axes -> long-format sweep.csv
* ``spectrum``         windowed probe spectra -> spectrum_<a>-<b>.csv each
* ``scan-transition``  locate the regime flip -> transition.json
* ``reconstruct``      transition constraints -> reconstruction.json

Every run takes its input from ``--config FILE`` (JSON) or ``--preset NAME``
(see presets.py; run-config presets serve evolve/spectrum, sweep presets serve
sweep).  Outputs land in ``--out DIR``.  Identical inputs produce byte-identical
outputs, whatever ``--workers`` says: the worker pool only distributes points,
results are gathered in grid order.  Exit codes: 0 success, 1 completed with
per-point failures (recorded in the output), 2 invalid input, with a message
naming the offending config field.
"""

import argparse
import csv
import itertools
import json
import multiprocessing
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .bath import (
    KAPPA_DEFAULT,
    PowerLawCutoff,
    SpectralDensityModel,
    model_from_config,
    model_to_config,
)
from .dynamics import (
    StateValidationError,
    default_time_grid,
    plus_plus_state,
    steady_state,
    to_computational_basis,
    trajectory_to_csv,
    validate_density_matrix,
)
from .probe_protocol import (
    LinewidthDatum,
    NoTransitionError,
    ResolutionError,
    ScanConfig,
    TransitionPoint,
    collect_constraints,
    default_scan_grid,
    fit_spectral_density,
    predict_transition,
    reconstruction_to_record,
    scan_transition,
    simulate,
    transition_point_to_record,
)
# Not called here: benchmarks/tracing.py wraps these bindings of this module.
from .probe_protocol import (build_operators, diagonalize, eigenmode_transform,
                             evolve_analytic, lindblad_rates)
from .signal_analysis import (
    NotResolvableError,
    SyncConfig,
    detect_sync,
    late_span,
    mutual_information,
    spectrum_to_csv,
    sync_metrics_to_record,
    windowed_fft,
)
from .presets import get_preset
from .spin_model import SIGMA_PLUS, QubitPairParams


class ConfigError(ValueError):
    """Invalid config value; carries the JSON field path for the message."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}")


_MISSING = object()


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected a JSON object")
    return value


def _reject_unknown(cfg: dict, allowed, path: str) -> None:
    extra = sorted(set(cfg) - set(allowed))
    if extra:
        raise ConfigError(path, f"unknown key(s): {', '.join(extra)}")


def _check_number(v, path: str, minimum=None, strict=False, maximum=None) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"must be a number, got {v!r}")
    v = float(v)
    if not np.isfinite(v):
        raise ConfigError(path, "must be finite")
    if minimum is not None:
        if v < minimum or (strict and v == minimum):
            op = ">" if strict else ">="
            raise ConfigError(path, f"must be {op} {minimum:g}, got {v:g}")
    if maximum is not None and v > maximum:
        raise ConfigError(path, f"must be <= {maximum:g}, got {v:g}")
    return v


def _number(cfg: dict, key: str, path: str, default=_MISSING,
            minimum=None, strict=False, maximum=None, allow_none=False):
    if key not in cfg or cfg[key] is None:
        if key in cfg and allow_none:
            return None
        if default is not _MISSING:
            return default
        raise ConfigError(f"{path}{key}", "missing required number")
    return _check_number(cfg[key], f"{path}{key}", minimum=minimum,
                         strict=strict, maximum=maximum)


def _pair(value, path: str) -> tuple[float, float]:
    ok = (isinstance(value, (list, tuple)) and len(value) == 2
          and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                  for x in value))
    if not ok:
        raise ConfigError(path, "expected a [start, end] pair of numbers")
    a, b = float(value[0]), float(value[1])
    if not (np.isfinite(a) and np.isfinite(b)) or not 0.0 <= a < b:
        raise ConfigError(path, f"need 0 <= start < end, got [{a:g}, {b:g}]")
    return a, b


def _time_grid(cfg: dict, path: str, t_max: float, dt: float) -> tuple[float, float]:
    """(t_max, dt) of a time-grid section at ``path``; the arguments are the
    defaults."""
    t_max = _number(cfg, "t_max", f"{path}.", default=t_max, minimum=0.0, strict=True)
    dt = _number(cfg, "dt", f"{path}.", default=dt, minimum=0.0, strict=True)
    if dt > t_max:
        raise ConfigError(f"{path}.dt", f"exceeds t_max ({t_max:g})")
    if t_max / dt > 5e6:
        raise ConfigError(path, "grid would exceed 5e6 samples")
    return t_max, dt


def _check_end(end: float, t_max: float, path: str) -> None:
    """A [start, end] time window must end inside the simulated horizon."""
    if end > t_max + 1e-9:
        raise ConfigError(path, f"extends past t_max ({t_max:g})")


def _range(cfg: dict, path: str, minimum: float, strict: bool,
           steps=None) -> tuple[float, float, int]:
    """(lo, hi, steps) of a linspace range; ``steps`` is the default count."""
    lo = _number(cfg, "lo", f"{path}.", minimum=minimum, strict=strict)
    hi = _number(cfg, "hi", f"{path}.", minimum=minimum, strict=strict)
    if hi <= lo:
        raise ConfigError(f"{path}.hi", f"must be above lo ({lo:g})")
    steps = cfg.get("steps", steps)
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 2:
        raise ConfigError(f"{path}.steps", f"must be an integer >= 2, got {steps!r}")
    return lo, hi, steps


# ---------------------------------------------------------------------------
# run config (evolve / spectrum, and the base of a sweep)

INITIAL_STATES = {
    "plus-plus": plus_plus_state,
    "mixed": lambda: np.eye(4, dtype=complex) / 4.0,
}

_CHANNELS = ("probe", "qubit")


@dataclass
class RunConfig:
    params: QubitPairParams
    bath: SpectralDensityModel
    initial_state: "str | np.ndarray" = "plus-plus"
    t_max: float = 400.0
    dt: float = 0.05
    analysis: SyncConfig = field(default_factory=SyncConfig)
    channel: str = "probe"
    kappa: float = KAPPA_DEFAULT
    windows: "tuple[tuple[float, float], ...] | None" = None

    @property
    def rho0(self) -> np.ndarray:
        """Computational-basis density matrix of ``initial_state``."""
        state = self.initial_state
        return INITIAL_STATES[state]() if isinstance(state, str) else state


def _params_from_config(cfg) -> QubitPairParams:
    cfg = _expect_mapping(cfg, "params")
    _reject_unknown(cfg, {"omega_q", "omega_p", "lambda", "temperature"}, "params")
    return QubitPairParams(
        omega_q=_number(cfg, "omega_q", "params.", default=1.0, minimum=0.0, strict=True),
        omega_p=_number(cfg, "omega_p", "params.", minimum=0.0, strict=True),
        lam=_number(cfg, "lambda", "params.", default=0.0, minimum=0.0),
        temperature=_number(cfg, "temperature", "params.", default=0.0, minimum=0.0),
    )


def _params_to_config(p: QubitPairParams) -> dict:
    return {"omega_q": p.omega_q, "omega_p": p.omega_p, "lambda": p.lam,
            "temperature": p.temperature}


def _bath_from_config(cfg) -> SpectralDensityModel:
    _expect_mapping(cfg, "bath")
    try:
        return model_from_config(cfg)
    except KeyError as exc:
        raise ConfigError("bath", f"missing required key {exc.args[0]!r}")
    except (ValueError, TypeError) as exc:
        raise ConfigError("bath", str(exc))


def _analysis_from_config(cfg) -> SyncConfig:
    if cfg is None:
        return SyncConfig()
    cfg = _expect_mapping(cfg, "analysis")
    _reject_unknown(cfg, {"window", "step", "sync_threshold", "nosync_threshold",
                          "late_window", "noise_floor"}, "analysis")
    d = SyncConfig()
    sync_thr = _number(cfg, "sync_threshold", "analysis.", default=d.sync_threshold,
                       minimum=0.0, strict=True, maximum=1.0)
    nosync_thr = _number(cfg, "nosync_threshold", "analysis.",
                         default=d.nosync_threshold, minimum=0.0, maximum=1.0)
    if nosync_thr >= sync_thr:
        raise ConfigError("analysis.nosync_threshold",
                          f"must be below sync_threshold ({sync_thr:g})")
    late = d.late_window
    if "late_window" in cfg:
        late = _pair(cfg["late_window"], "analysis.late_window")
    return SyncConfig(
        window=_number(cfg, "window", "analysis.", default=d.window,
                       minimum=0.0, strict=True),
        step=_number(cfg, "step", "analysis.", default=None, allow_none=True,
                     minimum=0.0, strict=True),
        sync_threshold=sync_thr,
        nosync_threshold=nosync_thr,
        late_window=late,
        noise_floor=_number(cfg, "noise_floor", "analysis.", default=d.noise_floor,
                            minimum=0.0),
    )


def _complex_entry(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        z = complex(value)
    elif (isinstance(value, list) and len(value) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in value)):
        z = complex(value[0], value[1])
    else:
        raise ConfigError(path, "entries must be numbers or [re, im] pairs")
    if not np.isfinite(z):
        raise ConfigError(path, f"entries must be finite, got {value!r}")
    return z


def _initial_from_config(value):
    """Preset name, 4-entry state vector, or 4x4 density matrix."""
    if isinstance(value, str):
        if value not in INITIAL_STATES:
            raise ConfigError("initial_state",
                              f"unknown state preset {value!r}; available: "
                              + ", ".join(sorted(INITIAL_STATES)))
        return value
    if not isinstance(value, list) or len(value) != 4:
        raise ConfigError("initial_state",
                          "expected a preset name, a 4-entry state vector, "
                          "or a 4x4 density matrix")
    if all(isinstance(row, list) and len(row) == 4 for row in value):
        rho = np.array([[_complex_entry(x, "initial_state") for x in row]
                        for row in value])
        try:
            validate_density_matrix(rho)
        except StateValidationError as exc:
            raise ConfigError("initial_state", str(exc))
        return rho
    vec = np.array([_complex_entry(x, "initial_state") for x in value])
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ConfigError("initial_state", "state vector has zero norm")
    vec = vec / norm
    return np.outer(vec, vec.conj())


def _initial_to_config(value):
    if isinstance(value, str):
        return value
    return [[[float(x.real), float(x.imag)] for x in row] for row in value]


def parse_run_config(cfg) -> RunConfig:
    cfg = _expect_mapping(cfg, "config")
    _reject_unknown(cfg, {"params", "bath", "initial_state", "time_grid",
                          "analysis", "channel", "kappa", "windows"}, "config")
    if "params" not in cfg:
        raise ConfigError("params", "missing required section")
    if "bath" not in cfg:
        raise ConfigError("bath", "missing required section")
    params = _params_from_config(cfg["params"])
    bath = _bath_from_config(cfg["bath"])

    tg = _expect_mapping(cfg.get("time_grid", {}), "time_grid")
    _reject_unknown(tg, {"t_max", "dt"}, "time_grid")
    t_max, dt = _time_grid(tg, "time_grid", t_max=400.0, dt=0.05)

    channel = cfg.get("channel", "probe")
    if channel not in _CHANNELS:
        raise ConfigError("channel", f"must be one of {', '.join(_CHANNELS)}, "
                                     f"got {channel!r}")

    windows = None
    if cfg.get("windows") is not None:
        raw = cfg["windows"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("windows", "expected a non-empty list of "
                                         "[t_start, t_end] pairs")
        pairs = []
        for i, w in enumerate(raw):
            a, b = _pair(w, f"windows[{i}]")
            _check_end(b, t_max, f"windows[{i}]")
            pairs.append((a, b))
        windows = tuple(pairs)

    return RunConfig(
        params=params,
        bath=bath,
        initial_state=_initial_from_config(cfg.get("initial_state", "plus-plus")),
        t_max=t_max,
        dt=dt,
        analysis=_analysis_from_config(cfg.get("analysis")),
        channel=channel,
        kappa=_number(cfg, "kappa", "", default=KAPPA_DEFAULT,
                      minimum=0.0, strict=True),
        windows=windows,
    )


def run_config_to_dict(rc: RunConfig) -> dict:
    """Canonical JSON form; parse_run_config inverts it exactly."""
    return {
        "params": _params_to_config(rc.params),
        "bath": model_to_config(rc.bath),
        "initial_state": _initial_to_config(rc.initial_state),
        "time_grid": {"t_max": rc.t_max, "dt": rc.dt},
        "analysis": asdict(rc.analysis),
        "channel": rc.channel,
        "kappa": rc.kappa,
        "windows": None if rc.windows is None
                   else [[a, b] for a, b in rc.windows],
    }


# ---------------------------------------------------------------------------
# sweep spec

_AXIS_NAMES = ("omega_p", "lambda", "s", "T")
# lower bound per axis, and whether it is strict
_AXIS_BOUNDS = {"omega_p": (0.0, True), "lambda": (0.0, False),
                "s": (0.0, True), "T": (0.0, False)}
_RECORDABLE = ("c", "omega_sync", "regime", "mi", "correlator", "below_floor")


@dataclass
class SweepAxis:
    name: str                       # JSON name; "lambda" maps to params.lam
    values: tuple[float, ...]
    lo: float | None = None         # set when given as a range, for re-emission
    hi: float | None = None
    steps: int | None = None


@dataclass
class SweepSpec:
    base: RunConfig
    axes: tuple[SweepAxis, ...]
    record: tuple[str, ...]


def _axis_from_config(cfg, i: int) -> SweepAxis:
    path = f"axes[{i}]"
    cfg = _expect_mapping(cfg, path)
    name = cfg.get("name")
    if name not in _AXIS_NAMES:
        raise ConfigError(f"{path}.name",
                          f"must be one of {', '.join(_AXIS_NAMES)}, got {name!r}")
    lo_bound, strict = _AXIS_BOUNDS[name]
    if "values" in cfg:
        _reject_unknown(cfg, {"name", "values"}, path)
        raw = cfg["values"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.values", "expected a non-empty list")
        values = tuple(_check_number(v, f"{path}.values[{j}]",
                                     minimum=lo_bound, strict=strict)
                       for j, v in enumerate(raw))
        return SweepAxis(name=name, values=values)
    _reject_unknown(cfg, {"name", "lo", "hi", "steps"}, path)
    lo, hi, steps = _range(cfg, path, lo_bound, strict)
    values = tuple(float(v) for v in np.linspace(lo, hi, steps))
    return SweepAxis(name=name, values=values, lo=lo, hi=hi, steps=steps)


def parse_sweep_spec(cfg) -> SweepSpec:
    cfg = _expect_mapping(cfg, "config")
    _reject_unknown(cfg, {"base", "axes", "record"}, "config")
    if "base" not in cfg:
        raise ConfigError("base", "missing required section")
    try:
        base = parse_run_config(cfg["base"])
        _check_end(base.analysis.late_window[1], base.t_max,
                   "analysis.late_window")
    except ConfigError as exc:
        raise ConfigError(f"base.{exc.field}", exc.message)

    raw_axes = cfg.get("axes")
    if not isinstance(raw_axes, list) or not 1 <= len(raw_axes) <= 2:
        raise ConfigError("axes", "expected a list of 1 or 2 axis objects")
    axes = tuple(_axis_from_config(a, i) for i, a in enumerate(raw_axes))
    names = [a.name for a in axes]
    if len(set(names)) != len(names):
        raise ConfigError("axes", f"duplicate axis name {names[0]!r}"
                          if names[0] == names[-1] else "duplicate axis names")
    if "s" in names and not isinstance(base.bath, PowerLawCutoff):
        raise ConfigError("axes", "an s axis needs a power-law bath in base")

    raw_rec = cfg.get("record")
    if not isinstance(raw_rec, list) or not raw_rec:
        raise ConfigError("record", "expected a non-empty list of quantities")
    seen = set()
    for q in raw_rec:
        if q not in _RECORDABLE:
            raise ConfigError("record", f"unknown quantity {q!r}; available: "
                              + ", ".join(_RECORDABLE))
        if q in seen:
            raise ConfigError("record", f"duplicate quantity {q!r}")
        seen.add(q)
    return SweepSpec(base=base, axes=axes, record=tuple(raw_rec))


def sweep_spec_to_dict(spec: SweepSpec) -> dict:
    axes = []
    for a in spec.axes:
        if a.steps is not None:
            axes.append({"name": a.name, "lo": a.lo, "hi": a.hi, "steps": a.steps})
        else:
            axes.append({"name": a.name, "values": list(a.values)})
    return {"base": run_config_to_dict(spec.base), "axes": axes,
            "record": list(spec.record)}


# ---------------------------------------------------------------------------
# simulation helpers

def _apply_axes(base: RunConfig, names, values) -> RunConfig:
    params, bath = base.params, base.bath
    for name, val in zip(names, values):
        if name == "omega_p":
            params = replace(params, omega_p=val)
        elif name == "lambda":
            params = replace(params, lam=val)
        elif name == "T":
            params = replace(params, temperature=val)
        else:
            bath = replace(bath, s=val)
    return replace(base, params=params, bath=bath)


def _sweep_columns(record) -> list[str]:
    cols = []
    for q in record:
        cols.extend(("c_floor", "c_ceil", "c_min_abs") if q == "c" else (q,))
    return cols


def _sweep_point(base: RunConfig, names, values, record, times) -> dict:
    rc = _apply_axes(base, names, values)
    sim = simulate(rc.params, rc.bath, times, rc.rho0, rc.kappa,
                   store_states="correlator" in record)
    metrics = detect_sync(sim.traj, rc.analysis)
    out = {}
    for q in record:
        if q == "c":
            out["c_floor"] = metrics.c_floor
            out["c_ceil"] = metrics.c_ceil
            out["c_min_abs"] = metrics.c_min_abs
        elif q == "omega_sync":
            out["omega_sync"] = metrics.omega_sync
        elif q == "regime":
            out["regime"] = metrics.regime
        elif q == "below_floor":
            out["below_floor"] = int(metrics.below_floor)
        elif q == "mi":
            # Exact fixed point, not the last sample: at T=0 it is the
            # dressed vacuum, so MI depends on the pair alone and stays
            # smooth across the transition whatever the bath does.
            rho_ss = to_computational_basis(steady_state(sim.rates),
                                            sim.transform)
            out["mi"] = mutual_information(rho_ss)
        else:
            lo, hi = rc.analysis.late_window
            sel = (sim.traj.times >= lo) & (sim.traj.times <= hi)
            # spin_correlator is Tr(rho op): rotate op into the eigenmode
            # basis once instead of every state out of it
            op = (sim.transform.T @ np.kron(SIGMA_PLUS, SIGMA_PLUS.T)
                  @ sim.transform)
            vals = np.einsum("njk,kj->n", sim.traj.states[sel], op)
            out["correlator"] = float(np.mean(np.abs(vals)))
    return out


def _sweep_task(task):
    """Worker body: one grid point -> (row dict, error string or None)."""
    base, names, values, record, times = task
    try:
        return _sweep_point(base, names, values, record, times), None
    except Exception as exc:                      # recorded, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def _run_tasks(tasks, workers: int):
    # never more processes than there are tasks or cores to run them
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [_sweep_task(t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * workers))
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(_sweep_task, tasks, chunksize=chunk)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


# ---------------------------------------------------------------------------
# output helpers

def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


@contextmanager
def _replacing(path: Path):
    """Text handle on a temporary file beside ``path``, moved onto it once
    fully written and removed if writing fails: an interrupted run never
    leaves a truncated artifact, nor a stray file, in ``--out``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=_json_default)
    with _replacing(path) as fh:
        fh.write(text + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands

def cmd_evolve(cfg: dict, out: Path, args) -> int:
    rc = parse_run_config(cfg)
    _check_end(rc.analysis.late_window[1], rc.t_max, "analysis.late_window")
    times = default_time_grid(rc.t_max, rc.dt)
    traj = simulate(rc.params, rc.bath, times, rc.rho0, rc.kappa).traj
    with _replacing(out / "trajectory.csv") as fh:
        trajectory_to_csv(traj, fh)
    metrics = detect_sync(traj, rc.analysis)
    _write_json(out / "sync_metrics.json",
                {"config": run_config_to_dict(rc),
                 "metrics": sync_metrics_to_record(metrics)})
    print(f"wrote {out / 'trajectory.csv'} and {out / 'sync_metrics.json'} "
          f"(regime: {metrics.regime})")
    return 0


def cmd_sweep(cfg: dict, out: Path, args) -> int:
    spec = parse_sweep_spec(cfg)
    # Every recordable reads the late window or the steady state, and the
    # axes never touch the analysis settings: one span serves every point.
    times = default_time_grid(spec.base.t_max, spec.base.dt)
    times = times[late_span(times, spec.base.analysis)]
    names = [a.name for a in spec.axes]
    points = list(itertools.product(*(a.values for a in spec.axes)))
    tasks = [(spec.base, names, p, spec.record, times) for p in points]
    results = _run_tasks(tasks, args.workers)

    header = names + _sweep_columns(spec.record) + ["errors"]
    value_cols = _sweep_columns(spec.record)
    rows = []
    failures = 0
    for point, (row, err) in zip(points, results):
        cells = [_cell(v) for v in point]
        if err is None:
            cells.extend(_cell(row[c]) for c in value_cols)
            cells.append("")
        else:
            cells.extend("" for _ in value_cols)
            cells.append(err)
            failures += 1
        rows.append(cells)
    _write_csv(out / "sweep.csv", header, rows)
    _write_json(out / "sweep_config.json",
                {"spec": sweep_spec_to_dict(spec),
                 "points": len(points), "failures": failures})
    print(f"wrote {out / 'sweep.csv'}: {len(points)} points, "
          f"{failures} failed")
    return 1 if failures else 0


def cmd_spectrum(cfg: dict, out: Path, args) -> int:
    rc = parse_run_config(cfg)
    if rc.windows is None:
        raise ConfigError("windows",
                          "spectrum needs at least one [t_start, t_end] window")
    times = default_time_grid(rc.t_max, rc.dt)
    traj = simulate(rc.params, rc.bath, times, rc.rho0, rc.kappa).traj
    signal = traj.sx_p if rc.channel == "probe" else traj.sx_q
    summary = []
    for a, b in rc.windows:
        est = windowed_fft(signal, times, a, b)
        name = f"spectrum_{a:g}-{b:g}.csv"
        with _replacing(out / name) as fh:
            spectrum_to_csv(est, fh)
        summary.append({
            "window": [a, b],
            "file": name,
            "peaks": [{"frequency": p.frequency, "height": p.height}
                      for p in est.peaks],
        })
    _write_json(out / "spectra.json",
                {"config": run_config_to_dict(rc), "spectra": summary})
    print(f"wrote {len(summary)} spectra and {out / 'spectra.json'}")
    return 0


def _scan_config_from(cfg) -> ScanConfig:
    if cfg is None:
        return ScanConfig()
    cfg = _expect_mapping(cfg, "scan")
    _reject_unknown(cfg, {"t_max", "dt", "late_window", "window",
                          "refine_tol", "kappa"}, "scan")
    d = ScanConfig()
    late = d.late_window
    if "late_window" in cfg:
        late = _pair(cfg["late_window"], "scan.late_window")
    t_max, dt = _time_grid(cfg, "scan", t_max=d.t_max, dt=d.dt)
    _check_end(late[1], t_max, "scan.late_window")
    return ScanConfig(
        t_max=t_max,
        dt=dt,
        late_window=late,
        window=_number(cfg, "window", "scan.", default=d.window,
                       minimum=0.0, strict=True),
        refine_tol=_number(cfg, "refine_tol", "scan.", default=d.refine_tol,
                           minimum=0.0, strict=True),
        kappa=_number(cfg, "kappa", "scan.", default=d.kappa,
                      minimum=0.0, strict=True),
    )


def cmd_scan_transition(cfg: dict, out: Path, args) -> int:
    cfg = _expect_mapping(cfg, "config")
    _reject_unknown(cfg, {"lambda", "temperature", "omega_q", "bath",
                          "grid", "scan"}, "config")
    if "bath" not in cfg:
        raise ConfigError("bath", "missing required section")
    lam = _number(cfg, "lambda", "", minimum=0.0, strict=True)
    temperature = _number(cfg, "temperature", "", default=0.0, minimum=0.0)
    omega_q = _number(cfg, "omega_q", "", default=1.0, minimum=0.0, strict=True)
    model = _bath_from_config(cfg["bath"])
    scan_cfg = _scan_config_from(cfg.get("scan"))

    params = QubitPairParams(omega_q=omega_q, omega_p=omega_q, lam=lam,
                             temperature=temperature)
    if cfg.get("grid") is not None:
        g = _expect_mapping(cfg["grid"], "grid")
        _reject_unknown(g, {"lo", "hi", "steps"}, "grid")
        lo, hi, steps = _range(g, "grid", 0.0, strict=True, steps=8)
        grid = np.linspace(lo, hi, steps)
        predicted = None
        try:
            predicted = predict_transition(model, params, T=temperature,
                                           bracket=(lo, hi), kappa=scan_cfg.kappa)
        except (NoTransitionError, ValueError):
            pass
    else:
        # No grid given: center a default one on the predicted crossing.
        predicted = predict_transition(model, params, T=temperature,
                                       kappa=scan_cfg.kappa)
        grid = default_scan_grid(predicted, omega_q)

    tp = scan_transition(model, lam, temperature, grid, config=scan_cfg,
                         omega_q=omega_q)
    record = {
        "config": {"lambda": lam, "temperature": temperature,
                   "omega_q": omega_q, "bath": model_to_config(model),
                   "grid": [float(v) for v in grid],
                   "scan": asdict(scan_cfg)},
        "transition": transition_point_to_record(tp),
        "predicted_omega_p_bar": predicted,
        "difference": None if predicted is None
                      else tp.omega_p_bar - predicted,
    }
    _write_json(out / "transition.json", record)
    print(f"wrote {out / 'transition.json'} "
          f"(omega_p_bar = {tp.omega_p_bar:.6g})")
    return 0


_CONSTRAINT_COLUMNS = ("lambda", "omega_p_bar", "E1", "E2", "ratio",
                       "n1", "n2", "uncertainty")


def _constraints_to_rows(constraints):
    rows = []
    for tp in constraints:
        rec = transition_point_to_record(tp)
        rows.append([_cell(rec[c]) for c in _CONSTRAINT_COLUMNS])
    return rows


def _constraints_from_csv(path: Path):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(_CONSTRAINT_COLUMNS) <= set(reader.fieldnames):
                missing = sorted(set(_CONSTRAINT_COLUMNS)
                                 - set(reader.fieldnames or []))
                raise ConfigError("constraints_file",
                                  f"missing column(s): {', '.join(missing)}")
            points = []
            for i, row in enumerate(reader, start=1):
                # DictReader keys surplus cells under None and fills
                # missing ones with None
                if None in row or None in row.values():
                    raise ConfigError("constraints_file", f"row {i}: cell "
                                      "count differs from the header")
                try:
                    # the columns are in TransitionPoint's field order
                    points.append(TransitionPoint(*(
                        None if c == "uncertainty" and not row[c]
                        else float(row[c]) for c in _CONSTRAINT_COLUMNS)))
                except ValueError as exc:
                    raise ConfigError("constraints_file", f"row {i}: {exc}")
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise ConfigError("constraints_file", f"cannot read {path}: {exc}")
    if not points:
        raise ConfigError("constraints_file", "no constraint rows")
    return points


def _datum_from_config(cfg) -> "LinewidthDatum | None":
    if cfg is None:
        return None
    cfg = _expect_mapping(cfg, "datum")
    _reject_unknown(cfg, {"fwhm", "omega", "trig_sq", "occupation", "kappa"},
                    "datum")
    return LinewidthDatum(
        fwhm=_number(cfg, "fwhm", "datum.", minimum=0.0, strict=True),
        omega=_number(cfg, "omega", "datum.", minimum=0.0, strict=True),
        trig_sq=_number(cfg, "trig_sq", "datum.", minimum=0.0, strict=True,
                        maximum=1.0),
        occupation=_number(cfg, "occupation", "datum.", default=0.0, minimum=0.0),
        kappa=_number(cfg, "kappa", "datum.", default=KAPPA_DEFAULT,
                      minimum=0.0, strict=True),
    )


def cmd_reconstruct(cfg: dict, out: Path, args) -> int:
    cfg = _expect_mapping(cfg, "config")
    _reject_unknown(cfg, {"bath", "lambdas", "temperature", "omega_q",
                          "method", "scan", "fit", "datum",
                          "constraints_file"}, "config")
    from_file = "constraints_file" in cfg
    from_model = "bath" in cfg or "lambdas" in cfg
    if from_file == from_model:
        raise ConfigError("config", "give either constraints_file or "
                                    "bath + lambdas, not both")
    if from_file:
        for key in ("temperature", "omega_q", "method", "scan"):
            if key in cfg:
                raise ConfigError(key, "not used with constraints_file")

    fit = _expect_mapping(cfg.get("fit", {}), "fit")
    _reject_unknown(fit, {"family", "omega_c", "grid", "smoothness"}, "fit")
    family = fit.get("family", "power-law")
    if family not in ("power-law", "tabulated"):
        raise ConfigError("fit.family",
                          f"must be power-law or tabulated, got {family!r}")
    omega_c = _number(fit, "omega_c", "fit.", default=None, allow_none=True,
                      minimum=0.0, strict=True)
    smoothness = _number(fit, "smoothness", "fit.", default=1e-2, minimum=0.0)
    grid = None
    if fit.get("grid") is not None:
        raw = fit["grid"]
        if not isinstance(raw, list) or len(raw) < 2:
            raise ConfigError("fit.grid", "expected a list of >= 2 frequencies")
        grid = [_check_number(v, f"fit.grid[{j}]", minimum=0.0, strict=True)
                for j, v in enumerate(raw)]
    datum = _datum_from_config(cfg.get("datum"))
    fit_echo = {"family": family, "omega_c": omega_c, "grid": grid,
                "smoothness": smoothness}
    datum_echo = None if datum is None else asdict(datum)

    truth = None
    failures: list[tuple[float, str]] = []
    if from_file:
        constraints = _constraints_from_csv(Path(cfg["constraints_file"]))
        config_echo = {"constraints_file": str(cfg["constraints_file"]),
                       "fit": fit_echo, "datum": datum_echo}
    else:
        if "bath" not in cfg:
            raise ConfigError("bath", "missing required section")
        truth = _bath_from_config(cfg["bath"])
        raw_lams = cfg.get("lambdas")
        if not isinstance(raw_lams, list) or not raw_lams:
            raise ConfigError("lambdas", "expected a non-empty list of couplings")
        lams = [_check_number(v, f"lambdas[{j}]", minimum=0.0, strict=True)
                for j, v in enumerate(raw_lams)]
        temperature = _number(cfg, "temperature", "", default=0.0, minimum=0.0)
        omega_q = _number(cfg, "omega_q", "", default=1.0, minimum=0.0,
                          strict=True)
        method = cfg.get("method", "analytic")
        if method not in ("analytic", "signal"):
            raise ConfigError("method",
                              f"must be analytic or signal, got {method!r}")
        scan_cfg = _scan_config_from(cfg.get("scan"))
        constraints = collect_constraints(
            truth, lams, T=temperature, config=scan_cfg, method=method,
            omega_q=omega_q, failures=failures)
        _write_csv(out / "constraints.csv", _CONSTRAINT_COLUMNS,
                   _constraints_to_rows(constraints))
        config_echo = {"bath": model_to_config(truth), "lambdas": lams,
                       "temperature": temperature, "omega_q": omega_q,
                       "method": method, "scan": asdict(scan_cfg),
                       "fit": fit_echo, "datum": datum_echo}

    result = fit_spectral_density(constraints, family=family, datum=datum,
                                  omega_c=omega_c, grid=grid,
                                  smoothness=smoothness)

    comparison = None
    if truth is not None and isinstance(truth, PowerLawCutoff) \
            and result.s is not None:
        comparison = {"s_truth": truth.s, "s_error": result.s - truth.s}
        if result.gamma0 is not None:
            comparison["gamma0_truth"] = truth.gamma0
            comparison["gamma0_rel_error"] = (result.gamma0 - truth.gamma0) / truth.gamma0

    record = {
        "config": config_echo,
        "reconstruction": reconstruction_to_record(result),
        "constraints": [transition_point_to_record(tp) for tp in constraints],
        "failures": [{"lambda": lam, "error": msg} for lam, msg in failures],
        "truth": None if truth is None else model_to_config(truth),
        "truth_comparison": comparison,
    }
    _write_json(out / "reconstruction.json", record)
    msg = f"wrote {out / 'reconstruction.json'}"
    if result.s is not None:
        msg += f" (s = {result.s:.6g})"
    if failures:
        msg += f"; {len(failures)} coupling(s) failed"
    print(msg)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
    "scan-transition": cmd_scan_transition,
    "reconstruct": cmd_reconstruct,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncprobe",
        description="Dissipative qubit-pair synchronization and bath probing.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "evolve": "simulate one trajectory and classify its regime",
        "sweep": "run a 1-2 axis parameter sweep into a long-format CSV",
        "spectrum": "windowed probe spectra of one trajectory",
        "scan-transition": "locate the in-phase/antiphase boundary",
        "reconstruct": "fit a spectral density from transition constraints",
    }
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=helps[name])
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=Path, metavar="PATH",
                         help="JSON config file")
        src.add_argument("--preset", metavar="NAME",
                         help="named built-in config (see presets module)")
        sp.add_argument("--out", type=Path, default=Path("out"), metavar="DIR",
                        help="output directory (default: ./out)")
        sp.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for sweeps "
                             "(default: available cores)")
    return parser


def _json_int(text: str):
    """A JSON integer; one beyond the float range reads as +-inf, so the
    finite checks reject it by field name instead of float() overflowing."""
    value = int(text)
    return value if abs(value) <= sys.float_info.max else float(text)


def _load_config(args) -> dict:
    if args.preset is not None:
        try:
            return get_preset(args.preset)
        except KeyError as exc:
            raise ConfigError("preset", exc.args[0])
    try:
        text = args.config.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", f"cannot read {args.config}: {exc}")
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {args.config}: {exc}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.workers is None:
        args.workers = os.cpu_count() or 1
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        cfg = _load_config(args)
        args.out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out, args)
    except (ConfigError, NoTransitionError, ResolutionError,
            NotResolvableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
