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
import math
import multiprocessing
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
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
    TRANSITION_RECORD_KEYS,
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
    CORRELATOR_OP,
    NotResolvableError,
    SyncConfig,
    check_window,
    detect_sync,
    late_span,
    mutual_information,
    spectrum_to_csv,
    sync_metrics_to_record,
    window_mask,
    windowed_fft,
)
from .presets import get_preset
from .spin_model import QubitPairParams


class ConfigError(ValueError):
    """Invalid config value; carries the JSON field path for the message."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}")


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected a JSON object")
    return value


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


def _section(cfg, path: str, spec: dict, defaults: dict, extra=()) -> dict:
    """The numbers of the config section at ``path`` ("" for the top level).

    ``spec`` maps each number's key to its bounds, (minimum, strict) or
    (minimum, strict, maximum); a key left out or null takes its value in
    ``defaults``, and is required if it has none.  ``extra`` names the
    section's other keys, which the caller parses; any further key is an
    error.
    """
    cfg = _expect_mapping(cfg, path or "config")
    unknown = sorted(set(cfg) - set(spec) - set(extra))
    if unknown:
        raise ConfigError(path or "config", f"unknown key(s): {', '.join(unknown)}")
    out = {}
    for key, bounds in spec.items():
        field_path = f"{path}.{key}" if path else key
        if cfg.get(key) is not None:
            out[key] = _check_number(cfg[key], field_path, *bounds)
        elif key in defaults:
            out[key] = defaults[key]
        else:
            raise ConfigError(field_path, "missing required number")
    return out


def _defaults(cls) -> dict:
    """The default of each field of dataclass ``cls`` that has one."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


# Shared by every section that names the pair, and by every time grid.
_PAIR = {"omega_q": (0.0, True), "temperature": (0.0, False)}
_PAIR_DEFAULTS = {"omega_q": 1.0, "temperature": 0.0}
_GRID = {"t_max": (0.0, True), "dt": (0.0, True)}


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


def _time_grid(section: dict, path: str) -> np.ndarray:
    """The time grid of a parsed section's ``_GRID`` numbers, checked."""
    t_max, dt = section["t_max"], section["dt"]
    if dt > t_max:
        raise ConfigError(f"{path}.dt", f"exceeds t_max ({t_max:g})")
    if t_max / dt > 5e6:
        raise ConfigError(path, "grid would exceed 5e6 samples")
    return default_time_grid(t_max, dt)


def _check_window(window, times: np.ndarray, path: str) -> None:
    """``check_window`` on the grid a run will build, naming the field."""
    try:
        check_window(times, *window)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


# Points one sweep or scan grid may hold, about 40 times the fig3b map.
_MAX_GRID_POINTS = 100_000


def _range(cfg, path: str, minimum: float, strict: bool, steps=None,
           extra=()) -> tuple[float, float, int]:
    """(lo, hi, steps) of a linspace range section; ``steps`` is the default
    count and ``extra`` the section's other keys."""
    bounds = (minimum, strict)
    lo, hi = _section(cfg, path, {"lo": bounds, "hi": bounds}, {},
                      extra=("steps", *extra)).values()
    if hi <= lo:
        raise ConfigError(f"{path}.hi", f"must be above lo ({lo:g})")
    steps = cfg.get("steps", steps)
    if (not isinstance(steps, int) or isinstance(steps, bool)
            or not 2 <= steps <= _MAX_GRID_POINTS):
        raise ConfigError(f"{path}.steps", "must be an integer in "
                          f"[2, {_MAX_GRID_POINTS}], got {steps!r}")
    return lo, hi, steps


# ---------------------------------------------------------------------------
# run config (evolve / spectrum, and the base of a sweep)

INITIAL_STATES = {
    "plus-plus": plus_plus_state,
    "mixed": lambda: np.eye(4, dtype=complex) / 4.0,
}

_CHANNELS = ("probe", "qubit")
_SPECTRUM_FILE = "spectrum_{:g}-{:g}.csv"   # the file of one spectrum window


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
    p = _section(cfg, "params", {**_PAIR, "omega_p": (0.0, True),
                                 "lambda": (0.0, False)},
                 {**_PAIR_DEFAULTS, "lambda": 0.0})
    return QubitPairParams(omega_q=p["omega_q"], omega_p=p["omega_p"],
                           lam=p["lambda"], temperature=p["temperature"])


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
    a = _section(cfg, "analysis", {
        "window": (0.0, True), "step": (0.0, True),
        "sync_threshold": (0.0, True, 1.0), "nosync_threshold": (0.0, False, 1.0),
        "noise_floor": (0.0, False)}, _defaults(SyncConfig), extra=("late_window",))
    if a["nosync_threshold"] >= a["sync_threshold"]:
        raise ConfigError("analysis.nosync_threshold",
                          f"must be below sync_threshold ({a['sync_threshold']:g})")
    if "late_window" in cfg:
        a["late_window"] = _pair(cfg["late_window"], "analysis.late_window")
    return SyncConfig(**a)


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
    defaults = _defaults(RunConfig)
    top = _section(cfg, "", {"kappa": (0.0, True)}, defaults,
                   extra=("params", "bath", "initial_state", "time_grid",
                          "analysis", "channel", "windows"))
    for key in ("params", "bath"):
        if key not in cfg:
            raise ConfigError(key, "missing required section")
    params = _params_from_config(cfg["params"])
    bath = _bath_from_config(cfg["bath"])
    grid = _section(cfg.get("time_grid", {}), "time_grid", _GRID, defaults)
    times = _time_grid(grid, "time_grid")

    channel = cfg.get("channel", defaults["channel"])
    if channel not in _CHANNELS:
        raise ConfigError("channel", f"must be one of {', '.join(_CHANNELS)}, "
                                     f"got {channel!r}")

    windows = None
    if cfg.get("windows") is not None:
        raw = cfg["windows"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("windows", "expected a non-empty list of "
                                         "[t_start, t_end] pairs")
        pairs, files = [], {}
        for i, w in enumerate(raw):
            pairs.append(_pair(w, f"windows[{i}]"))
            _check_window(pairs[-1], times, f"windows[{i}]")
            name = _SPECTRUM_FILE.format(*pairs[-1])
            if files.setdefault(name, i) != i:
                raise ConfigError(f"windows[{i}]", f"writes the same file as "
                                  f"windows[{files[name]}] ({name})")
        windows = tuple(pairs)

    return RunConfig(
        params=params,
        bath=bath,
        initial_state=_initial_from_config(
            cfg.get("initial_state", defaults["initial_state"])),
        analysis=_analysis_from_config(cfg.get("analysis")),
        channel=channel,
        windows=windows,
        **grid, **top,
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

# axis name: (RunConfig part, field, lower bound of values, bound is strict)
_AXES = {"omega_p": ("params", "omega_p", 0.0, True),
         "lambda": ("params", "lam", 0.0, False),
         "s": ("bath", "s", 0.0, True),
         "T": ("params", "temperature", 0.0, False)}
_RECORDABLE = ("c", "omega_sync", "regime", "mi", "correlator", "below_floor")


@dataclass
class SweepAxis:
    name: str                       # a key of _AXES
    values: tuple[float, ...]
    echo: dict                      # the parsed axis section, re-emitted


@dataclass
class SweepSpec:
    base: RunConfig
    axes: tuple[SweepAxis, ...]
    record: tuple[str, ...]


def _axis_from_config(cfg, i: int) -> SweepAxis:
    path = f"axes[{i}]"
    name = _expect_mapping(cfg, path).get("name")
    if name not in _AXES:
        raise ConfigError(f"{path}.name",
                          f"must be one of {', '.join(_AXES)}, got {name!r}")
    lo_bound, strict = _AXES[name][2:]
    if "values" in cfg:
        _section(cfg, path, {}, {}, extra=("name", "values"))
        raw = cfg["values"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.values", "expected a non-empty list")
        values = tuple(_check_number(v, f"{path}.values[{j}]",
                                     minimum=lo_bound, strict=strict)
                       for j, v in enumerate(raw))
        return SweepAxis(name, values, {"name": name, "values": list(values)})
    lo, hi, steps = _range(cfg, path, lo_bound, strict, extra=("name",))
    values = tuple(float(v) for v in np.linspace(lo, hi, steps))
    return SweepAxis(name, values, {"name": name, "lo": lo, "hi": hi, "steps": steps})


def parse_sweep_spec(cfg) -> SweepSpec:
    _section(cfg, "", {}, {}, extra=("base", "axes", "record"))
    if "base" not in cfg:
        raise ConfigError("base", "missing required section")
    try:
        base = parse_run_config(cfg["base"])
        times = default_time_grid(base.t_max, base.dt)
        _check_window(base.analysis.late_window, times, "analysis.late_window")
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
    points = math.prod(len(a.values) for a in axes)
    if points > _MAX_GRID_POINTS:
        raise ConfigError("axes", f"{points} grid points, more than "
                                  f"{_MAX_GRID_POINTS}")

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
    return {"base": run_config_to_dict(spec.base),
            "axes": [a.echo for a in spec.axes], "record": list(spec.record)}


# ---------------------------------------------------------------------------
# simulation helpers

def _apply_axes(base: RunConfig, names, values) -> RunConfig:
    parts = {"params": base.params, "bath": base.bath}
    for name, val in zip(names, values):
        part, attr = _AXES[name][:2]
        parts[part] = replace(parts[part], **{attr: val})
    return replace(base, **parts)


def _sweep_columns(record) -> list[str]:
    cols = []
    for q in record:
        cols.extend(("c_floor", "c_ceil", "c_min_abs") if q == "c" else (q,))
    return cols


def _sweep_point(base: RunConfig, names, values, record, times) -> dict:
    rc = _apply_axes(base, names, values)
    sim = simulate(rc.params, rc.bath, times, rc.rho0, rc.kappa,
                   store_states="correlator" in record)
    m = detect_sync(sim.traj, rc.analysis)
    out = {"c_floor": m.c_floor, "c_ceil": m.c_ceil, "c_min_abs": m.c_min_abs,
           "omega_sync": m.omega_sync, "regime": m.regime,
           "below_floor": int(m.below_floor)}
    if "mi" in record:
        # Exact fixed point, not the last sample: at T=0 it is the dressed
        # vacuum, so MI depends on the pair alone and stays smooth across
        # the transition whatever the bath does.
        rho_ss = to_computational_basis(steady_state(sim.rates), sim.transform)
        out["mi"] = mutual_information(rho_ss)
    if "correlator" in record:
        sel = window_mask(sim.traj.times, *rc.analysis.late_window)
        # spin_correlator is Tr(rho op): rotate op into the eigenmode basis
        # once instead of every state out of it
        op = sim.transform.T @ CORRELATOR_OP @ sim.transform
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
    times = default_time_grid(rc.t_max, rc.dt)
    _check_window(rc.analysis.late_window, times, "analysis.late_window")
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

    value_cols = _sweep_columns(spec.record)
    header = names + value_cols + ["errors"]
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
        name = _SPECTRUM_FILE.format(a, b)
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
    scan = _section(cfg, "scan", {**_GRID, "window": (0.0, True),
                                  "refine_tol": (0.0, True), "kappa": (0.0, True)},
                    _defaults(ScanConfig), extra=("late_window",))
    times = _time_grid(scan, "scan")
    if "late_window" in cfg:
        scan["late_window"] = _pair(cfg["late_window"], "scan.late_window")
    scan_cfg = ScanConfig(**scan)
    _check_window(scan_cfg.late_window, times, "scan.late_window")
    return scan_cfg


def cmd_scan_transition(cfg: dict, out: Path, args) -> int:
    echo = _section(cfg, "", {**_PAIR, "lambda": (0.0, True)}, _PAIR_DEFAULTS,
                    extra=("bath", "grid", "scan"))
    if "bath" not in cfg:
        raise ConfigError("bath", "missing required section")
    model = _bath_from_config(cfg["bath"])
    scan_cfg = _scan_config_from(cfg.get("scan"))

    omega_q = echo["omega_q"]
    params = QubitPairParams(omega_q=omega_q, omega_p=omega_q, lam=echo["lambda"],
                             temperature=echo["temperature"])
    if cfg.get("grid") is not None:
        lo, hi, steps = _range(cfg["grid"], "grid", 0.0, strict=True, steps=8)
        grid = np.linspace(lo, hi, steps)
        predicted = None
        try:
            predicted = predict_transition(model, params, bracket=(lo, hi),
                                           kappa=scan_cfg.kappa)
        except (NoTransitionError, ValueError):
            pass
    else:
        # No grid given: center a default one on the predicted crossing.
        predicted = predict_transition(model, params, kappa=scan_cfg.kappa)
        grid = default_scan_grid(predicted, omega_q)

    tp = scan_transition(model, params, grid, config=scan_cfg)
    echo.update(bath=model_to_config(model), grid=[float(v) for v in grid],
                scan=asdict(scan_cfg))
    record = {
        "config": echo,
        "transition": transition_point_to_record(tp),
        "predicted_omega_p_bar": predicted,
        "difference": None if predicted is None
                      else tp.omega_p_bar - predicted,
    }
    _write_json(out / "transition.json", record)
    print(f"wrote {out / 'transition.json'} "
          f"(omega_p_bar = {tp.omega_p_bar:.6g})")
    return 0


# TransitionPoint's record keys, in its field order; an empty cell is None
_CONSTRAINT_COLUMNS = TRANSITION_RECORD_KEYS


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
                    points.append(TransitionPoint(*(
                        float(row[c]) if row[c] else None
                        for c in _CONSTRAINT_COLUMNS)))
                except ValueError as exc:
                    raise ConfigError("constraints_file", f"row {i}: {exc}")
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise ConfigError("constraints_file", f"cannot read {path}: {exc}")
    if not points:
        raise ConfigError("constraints_file", "no constraint rows")
    return points


def cmd_reconstruct(cfg: dict, out: Path, args) -> int:
    pair = _section(cfg, "", _PAIR, _PAIR_DEFAULTS,
                    extra=("bath", "lambdas", "method", "scan", "fit", "datum",
                           "constraints_file"))
    from_file = "constraints_file" in cfg
    from_model = "bath" in cfg or "lambdas" in cfg
    if from_file == from_model:
        raise ConfigError("config", "give either constraints_file or "
                                    "bath + lambdas, not both")
    if from_file:
        for key in ("temperature", "omega_q", "method", "scan"):
            if key in cfg:
                raise ConfigError(key, "not used with constraints_file")

    raw_fit = cfg.get("fit", {})
    fit = _section(raw_fit, "fit", {"omega_c": (0.0, True), "smoothness": (0.0, False)},
                   {"omega_c": None, "smoothness": 1e-2}, extra=("family", "grid"))
    family = raw_fit.get("family", "power-law")
    if family not in ("power-law", "tabulated"):
        raise ConfigError("fit.family",
                          f"must be power-law or tabulated, got {family!r}")
    grid = raw_fit.get("grid")
    if grid is not None:
        if not isinstance(grid, list) or len(grid) < 2:
            raise ConfigError("fit.grid", "expected a list of >= 2 frequencies")
        grid = [_check_number(v, f"fit.grid[{j}]", minimum=0.0, strict=True)
                for j, v in enumerate(grid)]
    fit.update(family=family, grid=grid)
    datum = cfg.get("datum")
    if datum is not None:
        datum = _section(datum, "datum", {
            "fwhm": (0.0, True), "omega": (0.0, True), "trig_sq": (0.0, True, 1.0),
            "occupation": (0.0, False), "kappa": (0.0, True)}, _defaults(LinewidthDatum))
    echo = {"fit": fit, "datum": datum}

    truth = None
    failures: list[tuple[float, str]] = []
    if from_file:
        constraints = _constraints_from_csv(Path(cfg["constraints_file"]))
        echo["constraints_file"] = str(cfg["constraints_file"])
    else:
        if "bath" not in cfg:
            raise ConfigError("bath", "missing required section")
        truth = _bath_from_config(cfg["bath"])
        raw_lams = cfg.get("lambdas")
        if not isinstance(raw_lams, list) or not raw_lams:
            raise ConfigError("lambdas", "expected a non-empty list of couplings")
        lams = [_check_number(v, f"lambdas[{j}]", minimum=0.0, strict=True)
                for j, v in enumerate(raw_lams)]
        method = cfg.get("method", "analytic")
        if method not in ("analytic", "signal"):
            raise ConfigError("method",
                              f"must be analytic or signal, got {method!r}")
        scan_cfg = _scan_config_from(cfg.get("scan"))
        constraints = collect_constraints(
            truth, lams, QubitPairParams(omega_q=pair["omega_q"],
                                         omega_p=pair["omega_q"],
                                         temperature=pair["temperature"]),
            config=scan_cfg, method=method, failures=failures)
        _write_csv(out / "constraints.csv", _CONSTRAINT_COLUMNS,
                   _constraints_to_rows(constraints))
        echo.update(pair, bath=model_to_config(truth), lambdas=lams,
                    method=method, scan=asdict(scan_cfg))

    result = fit_spectral_density(
        constraints, datum=None if datum is None else LinewidthDatum(**datum), **fit)

    comparison = None
    if truth is not None and isinstance(truth, PowerLawCutoff) \
            and result.s is not None:
        comparison = {"s_truth": truth.s, "s_error": result.s - truth.s}
        if result.gamma0 is not None:
            comparison["gamma0_truth"] = truth.gamma0
            comparison["gamma0_rel_error"] = (result.gamma0 - truth.gamma0) / truth.gamma0

    record = {
        "config": echo,
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
    "evolve": (cmd_evolve, "simulate one trajectory and classify its regime"),
    "sweep": (cmd_sweep, "run a 1-2 axis parameter sweep into a long-format CSV"),
    "spectrum": (cmd_spectrum, "windowed probe spectra of one trajectory"),
    "scan-transition": (cmd_scan_transition,
                        "locate the in-phase/antiphase boundary"),
    "reconstruct": (cmd_reconstruct,
                    "fit a spectral density from transition constraints"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncprobe",
        description="Dissipative qubit-pair synchronization and bath probing.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
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
        return _COMMANDS[args.command][0](cfg, args.out, args)
    except (ConfigError, NoTransitionError, ResolutionError,
            NotResolvableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
