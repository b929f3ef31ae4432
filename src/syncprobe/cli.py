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
outputs, whatever ``--workers`` says: the worker pool only distributes sweep
grid points or signal-reconstruct couplings, and results are gathered in input
order (grid order, sorted couplings).  Exit codes: 0 success, 1 completed with
per-point failures (recorded in the output), 2 invalid input, with a message
naming the offending config field.

This module alone knows the file formats: its config readers, ``_record``
(the JSON form of results and config parts) and its CSV writers.  The other
modules return dataclasses and arrays.
"""

import argparse
import csv
import inspect
import itertools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .bath import (
    KAPPA_DEFAULT,
    PowerLawCutoff,
    SpectralDensityModel,
    Tabulated,
    normalize_cutoff,
)
from .dynamics import (
    StateValidationError,
    default_time_grid,
    eigenmode_states,
    plus_plus_state,
    steady_state,
    to_computational_basis,
    to_eigenmode_basis,
    validate_density_matrix,
)
from .probe_protocol import (
    LinewidthDatum,
    NoTransitionError,
    ScanConfig,
    TransitionPoint,
    collect_constraints,
    default_scan_grid,
    fit_spectral_density,
    predict_transition,
    run_tasks,
    scan_transition,
    simulate,
)
# Not called here: benchmarks/tracing.py wraps these bindings of this module.
from .probe_protocol import (build_operators, diagonalize, eigenmode_transform,
                             evolve_analytic, lindblad_rates)
from .signal_analysis import (
    CORRELATOR_OP,
    SyncConfig,
    check_window,
    detect_sync,
    late_span,
    mutual_information,
    window_mask,
    windowed_fft,
)
from .presets import get_preset
from .spin_model import (Bounds, FieldError, QubitPairParams, bounded,
                         check_fields, field_bounds)


def json_name(name: str) -> str:
    """A field's key in configs and records: ``lambda`` (a Python keyword)
    for the coupling ``lam``, the field's own name otherwise."""
    return "lambda" if name == "lam" else name


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


def _is_number(v) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_number(v, path: str, bounds: Bounds = Bounds()) -> float:
    if not _is_number(v):
        raise ConfigError(path, f"must be a number, got {v!r}")
    v = float(v)
    if not (math.isfinite(v) or bounds.infinite and math.isinf(v)):
        raise ConfigError(path, "must be finite")
    broken = bounds.error(v)
    if broken:
        raise ConfigError(path, f"must be {broken}, got {v:g}")
    return v


def _section(cfg, path: str, spec: dict, extra=()) -> dict:
    """The numbers of the config section at ``path`` ("" for the top level).

    ``spec`` maps each number's key to its Bounds; a key left out or null
    takes their default, and is required if it has none.  ``extra`` names
    the section's other keys, which the caller parses; any further key is
    an error.
    """
    cfg = _expect_mapping(cfg, path or "config")
    unknown = sorted(set(cfg) - set(spec) - set(extra))
    if unknown:
        raise ConfigError(path or "config", f"unknown key(s): {', '.join(unknown)}")
    out = {}
    for key, b in spec.items():
        field_path = f"{path}.{key}" if path else key
        if cfg.get(key) is not None:
            out[key] = _check_number(cfg[key], field_path, b)
        elif b.default is not MISSING:
            out[key] = b.default
        else:
            raise ConfigError(field_path, "missing required number")
    return out


def _spec(cls, *names, required=()) -> dict:
    """``_section``'s spec of dataclass ``cls``: the Bounds of its bounded
    fields (or of ``names``) by JSON name; ``required`` ones lose their
    default."""
    table = field_bounds(cls)
    return {json_name(n): table[n]._replace(default=MISSING) if n in required
            else table[n] for n in names or table}


def _build(cls, section: dict, path: str = "", **values):
    """``cls`` from a section keyed by JSON name, plus ``values``; a
    FieldError of a rule across its fields names the field in ``path``."""
    names = {json_name(f.name): f.name for f in fields(cls)}
    try:
        return cls(**{names[k]: v for k, v in section.items()}, **values)
    except FieldError as exc:
        key = json_name(exc.field)
        raise ConfigError(f"{path}.{key}" if path else key, exc.message) from None


def _late_config(cfg, path: str, cls):
    """SyncConfig or ScanConfig ``cls`` from the section at ``path``: its
    numbers and its late window, or its defaults where the section is null."""
    if cfg is None:
        return cls()
    section = _section(cfg, path, _spec(cls), extra=("late_window",))
    if "late_window" in cfg:
        section["late_window"] = _pair(cfg["late_window"], f"{path}.late_window")
    return _build(cls, section, path)


def _defaults(fn) -> dict:
    """The default of each parameter of ``fn`` (a dataclass: of each field)
    that has one."""
    return {p.name: p.default for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty}


def _pair(value, path: str) -> tuple[float, float]:
    ok = (isinstance(value, (list, tuple)) and len(value) == 2
          and all(_is_number(x) for x in value))
    if not ok:
        raise ConfigError(path, "expected a [start, end] pair of numbers")
    a, b = float(value[0]), float(value[1])
    if not (np.isfinite(a) and np.isfinite(b)) or not 0.0 <= a < b:
        raise ConfigError(path, f"need 0 <= start < end, got [{a:g}, {b:g}]")
    return a, b


def _time_grid(t_max: float, dt: float, path: str) -> np.ndarray:
    """The (0, t_max, dt) grid of the section at ``path``, checked."""
    if dt > t_max:
        raise ConfigError(f"{path}.dt", f"exceeds t_max ({t_max:g})")
    if t_max / dt > 5e6:
        raise ConfigError(path, "grid would exceed 5e6 samples")
    return default_time_grid(t_max, dt)


def _checked(path: str, check, *args) -> None:
    """``check(*args)`` on the grid a run will build (``check_window`` for a
    spectral window, ``late_span`` for a late window), its ValueError
    naming the field at ``path``."""
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


# Points one sweep or scan grid may hold, about 40 times the fig3b map.
_MAX_GRID_POINTS = 100_000
_POSITIVE = Bounds(minimum=0.0, strict=True)


def _range(cfg, path: str, minimum: float, strict: bool, steps=None,
           extra=()) -> tuple[float, float, int]:
    """(lo, hi, steps) of a linspace range section; ``steps`` is the default
    count and ``extra`` the section's other keys."""
    bounds = Bounds(minimum=minimum, strict=strict)
    lo, hi = _section(cfg, path, {"lo": bounds, "hi": bounds},
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
    t_max: float = bounded(400.0, above=0.0)
    dt: float = bounded(0.05, above=0.0)
    analysis: SyncConfig = field(default_factory=SyncConfig)
    channel: str = "probe"
    kappa: float = bounded(KAPPA_DEFAULT, above=0.0)
    windows: "tuple[tuple[float, float], ...] | None" = None

    __post_init__ = check_fields

    @property
    def rho0(self) -> np.ndarray:
        """Computational-basis density matrix of ``initial_state``."""
        state = self.initial_state
        return INITIAL_STATES[state]() if isinstance(state, str) else state


def _bath_from_config(cfg) -> SpectralDensityModel:
    """A power-law bath, or a tabulated one from its [omega, J] points."""
    kind = _expect_mapping(cfg, "bath").get("kind")
    if kind == "power-law":
        return _build(PowerLawCutoff, _section(
            cfg, "bath", _spec(PowerLawCutoff), extra=("kind",)), "bath")
    if kind != "tabulated":
        raise ConfigError("bath.kind",
                          f"must be power-law or tabulated, got {kind!r}")
    _section(cfg, "bath", {}, extra=("kind", "points"))
    points = cfg.get("points")
    if not isinstance(points, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in points):
        raise ConfigError("bath.points", "expected a list of [omega, J] pairs")
    pts = np.array([[_check_number(x, f"bath.points[{i}]") for x in p]
                    for i, p in enumerate(points)]).reshape(-1, 2)
    try:
        return Tabulated(omegas=pts[:, 0], js=pts[:, 1])
    except ValueError as exc:
        raise ConfigError("bath.points", str(exc)) from None


def _complex_entry(value, path: str) -> complex:
    if _is_number(value):
        z = complex(value)
    elif (isinstance(value, list) and len(value) == 2
            and all(_is_number(x) for x in value)):
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
    top = _section(cfg, "", _spec(RunConfig, "kappa"),
                   extra=("params", "bath", "initial_state", "time_grid",
                          "analysis", "channel", "windows"))
    for key in ("params", "bath"):
        if key not in cfg:
            raise ConfigError(key, "missing required section")
    params = _build(QubitPairParams, _section(
        cfg["params"], "params", _spec(QubitPairParams, required=("omega_p",))),
        "params")
    bath = _bath_from_config(cfg["bath"])
    grid = _section(cfg.get("time_grid", {}), "time_grid",
                    _spec(RunConfig, "t_max", "dt"))
    times = _time_grid(grid["t_max"], grid["dt"], "time_grid")

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
            _checked(f"windows[{i}]", check_window, times, *pairs[-1])
            name = _SPECTRUM_FILE.format(*pairs[-1])
            if files.setdefault(name, i) != i:
                raise ConfigError(f"windows[{i}]", f"writes the same file as "
                                  f"windows[{files[name]}] ({name})")
        windows = tuple(pairs)

    initial_state = _initial_from_config(
        cfg.get("initial_state", defaults["initial_state"]))
    analysis = _late_config(cfg.get("analysis"), "analysis", SyncConfig)
    _checked("analysis.late_window", late_span, times, analysis)
    return RunConfig(params=params, bath=bath, initial_state=initial_state,
                     analysis=analysis, channel=channel, windows=windows,
                     **grid, **top)


def run_config_to_dict(rc: RunConfig) -> dict:
    """Canonical JSON form; parse_run_config inverts it exactly."""
    return {
        "params": _record(rc.params),
        "bath": _record(rc.bath),
        "initial_state": _initial_to_config(rc.initial_state),
        "time_grid": {"t_max": rc.t_max, "dt": rc.dt},
        "analysis": _record(rc.analysis),
        "channel": rc.channel,
        "kappa": rc.kappa,
        "windows": _record(rc.windows),
    }


# ---------------------------------------------------------------------------
# sweep spec

# axis name: (RunConfig part, its dataclass, field); values keep the
# field's bounds
_AXES = {"omega_p": ("params", QubitPairParams, "omega_p"),
         json_name("lam"): ("params", QubitPairParams, "lam"),
         "s": ("bath", PowerLawCutoff, "s"),
         "T": ("params", QubitPairParams, "temperature")}
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
    _, cls, attr = _AXES[name]
    b = field_bounds(cls)[attr]
    if "values" in cfg:
        _section(cfg, path, {}, extra=("name", "values"))
        raw = cfg["values"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.values", "expected a non-empty list")
        values = tuple(_check_number(v, f"{path}.values[{j}]", b)
                       for j, v in enumerate(raw))
        return SweepAxis(name, values, {"name": name, "values": list(values)})
    lo, hi, steps = _range(cfg, path, b.minimum, b.strict, extra=("name",))
    values = tuple(float(v) for v in np.linspace(lo, hi, steps))
    return SweepAxis(name, values, {"name": name, "lo": lo, "hi": hi, "steps": steps})


def parse_sweep_spec(cfg) -> SweepSpec:
    _section(cfg, "", {}, extra=("base", "axes", "record"))
    if "base" not in cfg:
        raise ConfigError("base", "missing required section")
    try:
        base = parse_run_config(cfg["base"])
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
        part, _, attr = _AXES[name]
        parts[part] = replace(parts[part], **{attr: val})
    return replace(base, **parts)


def _sweep_columns(record) -> list[str]:
    cols = []
    for q in record:
        cols.extend(("c_floor", "c_ceil", "c_min_abs") if q == "c" else (q,))
    return cols


def _sweep_point(base: RunConfig, names, values, record, times) -> dict:
    rc = _apply_axes(base, names, values)
    sim = simulate(rc.params, rc.bath, times, rc.rho0, rc.kappa)
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
        states = eigenmode_states(sim.eig, sim.rates,
                                  to_eigenmode_basis(rc.rho0, sim.transform),
                                  times)
        sel = window_mask(times, *rc.analysis.late_window)
        # spin_correlator is Tr(rho op): rotate op into the eigenmode basis
        # once instead of every state out of it
        op = sim.transform.T @ CORRELATOR_OP @ sim.transform
        vals = np.einsum("njk,kj->n", states[sel], op)
        out["correlator"] = float(np.mean(np.abs(vals)))
    return out


def _sweep_task(task):
    """Worker body: one grid point -> (row dict, error string or None).
    An input error is recorded; any other exception is a bug and propagates."""
    base, names, values, record, times = task
    try:
        return _sweep_point(base, names, values, record, times), None
    except ValueError as exc:
        return None, f"{type(exc).__name__}: {exc}"


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


def _record(obj):
    """The JSON form of a result or a config part: a dataclass as its
    fields by JSON name, a bath model in the bath config schema, an array as
    a list with NaN as null, and lists and tuples item by item."""
    if isinstance(obj, Tabulated):
        return {"kind": "tabulated",
                "points": np.column_stack((obj.omegas, obj.js)).tolist()}
    if is_dataclass(obj):
        kind = {"kind": "power-law"} if isinstance(obj, PowerLawCutoff) else {}
        return kind | {json_name(f.name): _record(getattr(obj, f.name))
                       for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return [None if math.isnan(v) else v for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_record(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with _replacing(path) as fh:
        fh.write(text + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_columns(path: Path, header, *columns) -> None:
    """A CSV of equal-length float columns in full precision ('%.17g')."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        # One % per chunk of Python floats (faster than numpy scalars or a
        # row at a time); chunks bound the copies
        for i in range(0, len(columns[0]), 65536):
            chunk = np.column_stack([c[i:i + 65536] for c in columns])
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


# ---------------------------------------------------------------------------
# subcommands

def cmd_evolve(cfg: dict, out: Path, args) -> int:
    rc = parse_run_config(cfg)
    times = default_time_grid(rc.t_max, rc.dt)
    traj = simulate(rc.params, rc.bath, times, rc.rho0, rc.kappa).traj
    _write_columns(out / "trajectory.csv", ("t", "sx_q", "sx_p"),
                   traj.times, traj.sx_q, traj.sx_p)
    metrics = detect_sync(traj, rc.analysis)
    _write_json(out / "sync_metrics.json",
                {"config": run_config_to_dict(rc), "metrics": _record(metrics)})
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
    results = run_tasks(_sweep_task, tasks, args.workers)

    value_cols = _sweep_columns(spec.record)
    header = names + value_cols + ["errors"]
    rows = []
    for point, (row, err) in zip(points, results):
        values = ([_cell(row[c]) for c in value_cols] if err is None
                  else [""] * len(value_cols))
        rows.append([_cell(v) for v in point] + values + [err or ""])
    failures = sum(err is not None for _, err in results)
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
        _write_columns(out / name, ("freq", "magnitude"),
                       est.freqs, est.magnitude)
        summary.append({
            "window": [a, b],
            "file": name,
            "peaks": _record(est.peaks),
        })
    _write_json(out / "spectra.json",
                {"config": run_config_to_dict(rc), "spectra": summary})
    print(f"wrote {len(summary)} spectra and {out / 'spectra.json'}")
    return 0


def _scan_config_from(cfg) -> ScanConfig:
    scan_cfg = _late_config(cfg, "scan", ScanConfig)
    if cfg is not None:
        times = _time_grid(scan_cfg.t_max, scan_cfg.dt, "scan")
        _checked("scan.late_window", late_span, times, scan_cfg.sync_config())
    return scan_cfg


def cmd_scan_transition(cfg: dict, out: Path, args) -> int:
    pair = _spec(QubitPairParams, "omega_q", "temperature")
    pair[json_name("lam")] = _POSITIVE     # a scan needs a coupling
    echo = _section(cfg, "", pair, extra=("bath", "grid", "scan"))
    if "bath" not in cfg:
        raise ConfigError("bath", "missing required section")
    model = _bath_from_config(cfg["bath"])
    scan_cfg = _scan_config_from(cfg.get("scan"))

    omega_q = echo["omega_q"]
    params = _build(QubitPairParams, echo, omega_p=omega_q)
    if cfg.get("grid") is not None:
        lo, hi, steps = _range(cfg["grid"], "grid", 0.0, strict=True, steps=8)
        grid = np.linspace(lo, hi, steps)
        predicted = None
        try:
            predicted = predict_transition(model, params, bracket=(lo, hi),
                                           kappa=scan_cfg.kappa)
        except ValueError:
            pass
    else:
        # No grid given: center a default one on the predicted crossing.
        predicted = predict_transition(model, params, kappa=scan_cfg.kappa)
        grid = default_scan_grid(predicted, omega_q)

    tp = scan_transition(model, params, grid, config=scan_cfg)
    echo.update(bath=_record(model), grid=grid.tolist(), scan=_record(scan_cfg))
    record = {
        "config": echo,
        "transition": _record(tp),
        "predicted_omega_p_bar": predicted,
        "difference": None if predicted is None
                      else tp.omega_p_bar - predicted,
    }
    _write_json(out / "transition.json", record)
    print(f"wrote {out / 'transition.json'} "
          f"(omega_p_bar = {tp.omega_p_bar:.6g})")
    return 0


# TransitionPoint's record keys, in field order: the constraints.csv columns
TRANSITION_RECORD_KEYS = tuple(json_name(f.name)
                               for f in fields(TransitionPoint))


def _constraints_to_rows(constraints):
    return [[_cell(v) for v in _record(tp).values()] for tp in constraints]


def _constraints_from_csv(path: Path):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header = set(reader.fieldnames or [])
            if not set(TRANSITION_RECORD_KEYS) <= header:
                missing = sorted(set(TRANSITION_RECORD_KEYS) - header)
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
                        for c in TRANSITION_RECORD_KEYS)))
                except ValueError as exc:
                    raise ConfigError("constraints_file", f"row {i}: {exc}")
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise ConfigError("constraints_file", f"cannot read {path}: {exc}")
    if not points:
        raise ConfigError("constraints_file", "no constraint rows")
    return points


def cmd_reconstruct(cfg: dict, out: Path, args) -> int:
    pair = _section(cfg, "", _spec(QubitPairParams, "omega_q", "temperature"),
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
    defaults = _defaults(fit_spectral_density)
    fit = _section(raw_fit, "fit", {
        "omega_c": field_bounds(PowerLawCutoff)["omega_c"],
        "smoothness": Bounds(defaults["smoothness"], 0.0)},
        extra=("family", "grid"))
    # echo the cutoff the fit uses: one too large to matter is none
    fit["omega_c"] = normalize_cutoff(fit["omega_c"])
    family = raw_fit.get("family", defaults["family"])
    if family not in ("power-law", "tabulated"):
        raise ConfigError("fit.family",
                          f"must be power-law or tabulated, got {family!r}")
    grid = raw_fit.get("grid")
    if grid is not None:
        if not isinstance(grid, list) or len(grid) < 2:
            raise ConfigError("fit.grid", "expected a list of >= 2 frequencies")
        grid = [_check_number(v, f"fit.grid[{j}]", _POSITIVE)
                for j, v in enumerate(grid)]
    fit.update(family=family, grid=grid)
    datum = cfg.get("datum")
    if datum is not None:
        datum = _section(datum, "datum", _spec(LinewidthDatum))
    echo = {"fit": fit, "datum": datum}

    truth = None
    failures = []
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
        lams = [_check_number(v, f"lambdas[{j}]", _POSITIVE)
                for j, v in enumerate(raw_lams)]
        seen = set()
        for j, lam in enumerate(lams):
            if lam in seen:
                raise ConfigError(f"lambdas[{j}]", "duplicate coupling")
            seen.add(lam)
        method = cfg.get("method", "analytic")
        if method not in ("analytic", "signal"):
            raise ConfigError("method",
                              f"must be analytic or signal, got {method!r}")
        scan_cfg = _scan_config_from(cfg.get("scan"))
        constraints, failures = collect_constraints(
            truth, lams, _build(QubitPairParams, pair, omega_p=pair["omega_q"]),
            config=scan_cfg, method=method, workers=args.workers)
        reports = [f"lam={lam:g}: {msg}" for lam, msg in failures]
        for report in reports:
            print(f"warning: {report}", file=sys.stderr)
        if not constraints:
            raise NoTransitionError("every coupling failed to produce a "
                                    "constraint: " + "; ".join(reports))
        _write_csv(out / "constraints.csv", TRANSITION_RECORD_KEYS,
                   _constraints_to_rows(constraints))
        echo.update(pair, bath=_record(truth), lambdas=lams,
                    method=method, scan=_record(scan_cfg))

    result = fit_spectral_density(
        constraints, datum=None if datum is None else LinewidthDatum(**datum), **fit)

    comparison = None
    if isinstance(truth, PowerLawCutoff) and result.s is not None:
        comparison = {"s_truth": truth.s, "s_error": result.s - truth.s}
        if result.gamma0 is not None:
            comparison["gamma0_truth"] = truth.gamma0
            comparison["gamma0_rel_error"] = (result.gamma0 - truth.gamma0) / truth.gamma0

    record = {
        "config": echo,
        "reconstruction": _record(result),
        "constraints": _record(constraints),
        "failures": [{json_name("lam"): lam, "error": msg}
                     for lam, msg in failures],
        "truth": _record(truth),
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
                        help="worker processes for sweeps and signal "
                             "reconstructs (default: available cores)")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
