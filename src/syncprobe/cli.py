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
outputs, whatever ``--workers`` says: the worker pool only distributes batches
of sweep grid points or signal-reconstruct couplings, and results are gathered
in input order (grid order, sorted couplings).  Exit codes: 0 success, 1
completed with per-point failures (recorded in the output), 2 invalid input,
with a message naming the offending config field.

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
    evolve_analytic,
    fit_spectral_density,
    pair_setup,
    predict_transition,
    run_tasks,
    scan_transition,
    simulate,
)
# Not called here: benchmarks/tracing.py wraps these bindings of this module.
from .probe_protocol import (build_operators, diagonalize, eigenmode_transform,
                             lindblad_rates)
from .signal_analysis import (
    CORRELATOR_OP,
    SyncConfig,
    check_window,
    detect_sync,
    late_span,
    mutual_information,
    sync_plan,
    window_mask,
    windowed_fft,
)
from .presets import get_preset
from .spin_model import (Bounds, FieldError, PairBatch, QubitPairParams,
                         bounded, check_fields, field_bounds)


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


def _expect_mapping(value, path: str, required=()) -> dict:
    """``value`` if it is a JSON object holding each ``required`` section."""
    if not isinstance(value, dict):
        raise ConfigError(path or "config", "expected a JSON object")
    for key in required:
        if key not in value:
            raise ConfigError(f"{path}.{key}" if path else key,
                              "missing required section")
    return value


def _one_of(value, path: str, choices) -> str:
    """``value`` if it is one of the names ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(path, f"must be one of {', '.join(choices)}, "
                                f"got {value!r}")
    return value


def _items(value, path: str, what: str, least: int = 1,
           most: int | None = None) -> list:
    """``value`` if it is a JSON list of ``least`` to ``most`` (None: any
    number of) entries, ``what`` naming them."""
    if not (isinstance(value, list)
            and least <= len(value) <= (most or len(value))):
        size = ("non-empty list of" if (least, most) == (1, None)
                else f"list of >= {least}" if most is None
                else f"list of {least}" if least == most
                else f"list of {least} to {most}")
        raise ConfigError(path, f"expected a {size} {what}")
    return value


def _distinct(keys, path: str, what: str) -> None:
    """Raise if an entry of the list at ``path`` repeats an earlier one's key."""
    first = {}
    for j, key in enumerate(keys):
        if (i := first.setdefault(key, j)) != j:
            raise ConfigError(f"{path}[{j}]", f"duplicate {what} {key!r} "
                                              f"(first at {path}[{i}])")


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
    cfg = _expect_mapping(cfg, path)
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
    a, b = (_check_number(x, path)
            for x in _items(value, path, "numbers [start, end]", 2, 2))
    if not 0.0 <= a < b:
        raise ConfigError(path, f"need 0 <= start < end, got [{a:g}, {b:g}]")
    return a, b


def _check_grid(t_max: float, dt: float, path: str) -> None:
    """Reject the (0, t_max, dt) grid of the section at ``path`` if dt
    exceeds t_max or the grid would hold more than 5e6 samples."""
    if dt > t_max:
        raise ConfigError(f"{path}.dt", f"exceeds t_max ({t_max:g})")
    if t_max / dt > 5e6:
        raise ConfigError(path, "grid would exceed 5e6 samples")


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
_FAMILIES = ("power-law", "tabulated")     # bath kinds, and fit families
_SPECTRUM_FILE = "spectrum_{:g}-{:g}.csv"   # the file of one spectrum window


@dataclass(frozen=True)
class TimeGrid:
    """A run's (0, t_max, dt) time grid, in absolute time."""

    t_max: float = bounded(400.0, above=0.0)
    dt: float = bounded(0.05, above=0.0)

    __post_init__ = check_fields

    def times(self) -> np.ndarray:
        return default_time_grid(self.t_max, self.dt)


@dataclass
class RunConfig:
    """A run config in its JSON layout: ``_record(rc)`` is its JSON."""

    params: QubitPairParams
    bath: SpectralDensityModel
    initial_state: "str | np.ndarray" = "plus-plus"
    time_grid: TimeGrid = field(default_factory=TimeGrid)
    analysis: SyncConfig = field(default_factory=SyncConfig)
    channel: str = "probe"
    kappa: float = bounded(KAPPA_DEFAULT, above=0.0)
    windows: "tuple[tuple[float, float], ...] | None" = None

    __post_init__ = check_fields

    def __eq__(self, other) -> bool:
        """Equal JSON: a density-matrix ``initial_state`` (or a tabulated
        bath) compares entry by entry, not as an ambiguous numpy truth."""
        if not isinstance(other, RunConfig):
            return NotImplemented
        return _record(self) == _record(other)

    @property
    def rho0(self) -> np.ndarray:
        """Computational-basis density matrix of ``initial_state``."""
        state = self.initial_state
        return INITIAL_STATES[state]() if isinstance(state, str) else state


def _bath_from_config(cfg) -> SpectralDensityModel:
    """A power-law bath, or a tabulated one from its [omega, J] points."""
    kind = _one_of(_expect_mapping(cfg, "bath").get("kind"), "bath.kind",
                   _FAMILIES)
    if kind == "power-law":
        return _build(PowerLawCutoff, _section(
            cfg, "bath", _spec(PowerLawCutoff), extra=("kind",)), "bath")
    _section(cfg, "bath", {}, extra=("kind", "points"))
    pts = np.array([
        [_check_number(x, f"bath.points[{i}]")
         for x in _items(p, f"bath.points[{i}]", "numbers [omega, J]", 2, 2)]
        for i, p in enumerate(_items(cfg.get("points"), "bath.points",
                                     "[omega, J] pairs"))])
    try:
        return Tabulated(omegas=pts[:, 0], js=pts[:, 1])
    except ValueError as exc:
        raise ConfigError("bath.points", str(exc)) from None


def _complex_entry(value, path: str) -> complex:
    """A number, or an [re, im] pair of numbers."""
    parts = [value] if _is_number(value) else _items(
        value, path, "numbers [re, im], or a number", 2, 2)
    return complex(*(_check_number(x, path) for x in parts))


def _initial_from_config(value):
    """Preset name, 4-entry state vector, or 4x4 density matrix."""
    if isinstance(value, str):
        return _one_of(value, "initial_state", INITIAL_STATES)
    rows = _items(value, "initial_state", "state vector entries or density "
                  "matrix rows, or a preset name", 4, 4)
    # a density matrix row has 4 entries, an [re, im] entry 2
    if isinstance(rows[0], list) and len(rows[0]) == 4:
        rho = np.array([[_complex_entry(x, f"initial_state[{i}][{k}]")
                         for k, x in enumerate(_items(
                             row, f"initial_state[{i}]", "entries", 4, 4))]
                        for i, row in enumerate(rows)])
        try:
            validate_density_matrix(rho)
        except StateValidationError as exc:
            raise ConfigError("initial_state", str(exc))
        return rho
    vec = np.array([_complex_entry(x, f"initial_state[{i}]")
                    for i, x in enumerate(rows)])
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ConfigError("initial_state", "state vector has zero norm")
    vec = vec / norm
    return np.outer(vec, vec.conj())


def parse_run_config(cfg) -> RunConfig:
    defaults = _defaults(RunConfig)
    top = _section(cfg, "", _spec(RunConfig),
                   extra=("params", "bath", "initial_state", "time_grid",
                          "analysis", "channel", "windows"))
    _expect_mapping(cfg, "", required=("params", "bath"))
    params = _build(QubitPairParams, _section(
        cfg["params"], "params", _spec(QubitPairParams, required=("omega_p",))),
        "params")
    bath = _bath_from_config(cfg["bath"])
    grid = _build(TimeGrid, _section(cfg.get("time_grid", {}), "time_grid",
                                     _spec(TimeGrid)), "time_grid")
    _check_grid(grid.t_max, grid.dt, "time_grid")
    times = grid.times()

    channel = _one_of(cfg.get("channel", defaults["channel"]), "channel",
                      _CHANNELS)

    windows = None
    if cfg.get("windows") is not None:
        windows = tuple(_pair(w, f"windows[{i}]") for i, w in enumerate(
            _items(cfg["windows"], "windows", "[t_start, t_end] pairs")))
        for i, w in enumerate(windows):
            _checked(f"windows[{i}]", check_window, times, *w)
        _distinct((_SPECTRUM_FILE.format(*w) for w in windows), "windows",
                  "file name")

    initial_state = _initial_from_config(
        cfg.get("initial_state", defaults["initial_state"]))
    analysis = _late_config(cfg.get("analysis"), "analysis", SyncConfig)
    _checked("analysis.late_window", late_span, times, analysis)
    return RunConfig(params=params, bath=bath, initial_state=initial_state,
                     time_grid=grid, analysis=analysis, channel=channel,
                     windows=windows, **top)


# ---------------------------------------------------------------------------
# sweep spec

# axis name: (RunConfig part, its dataclass, field); values keep the
# field's bounds
_AXES = {"omega_p": ("params", QubitPairParams, "omega_p"),
         json_name("lam"): ("params", QubitPairParams, "lam"),
         "s": ("bath", PowerLawCutoff, "s"),
         "T": ("params", QubitPairParams, "temperature")}
_PAIR_AXES = {attr: name for name, (part, _, attr) in _AXES.items()
              if part == "params"}      # QubitPairParams field: axis name
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
    name = _one_of(_expect_mapping(cfg, path).get("name"), f"{path}.name",
                   _AXES)
    _, cls, attr = _AXES[name]
    b = field_bounds(cls)[attr]
    if "values" in cfg:
        _section(cfg, path, {}, extra=("name", "values"))
        values = tuple(_check_number(v, f"{path}.values[{j}]", b)
                       for j, v in enumerate(_items(
                           cfg["values"], f"{path}.values", "numbers")))
        return SweepAxis(name, values, {"name": name, "values": list(values)})
    lo, hi, steps = _range(cfg, path, b.minimum, b.strict, extra=("name",))
    values = tuple(float(v) for v in np.linspace(lo, hi, steps))
    return SweepAxis(name, values, {"name": name, "lo": lo, "hi": hi, "steps": steps})


def parse_sweep_spec(cfg) -> SweepSpec:
    _section(cfg, "", {}, extra=("base", "axes", "record"))
    _expect_mapping(cfg, "", required=("base",))
    try:
        base = parse_run_config(cfg["base"])
    except ConfigError as exc:
        raise ConfigError(f"base.{exc.field}", exc.message)

    axes = tuple(_axis_from_config(a, i) for i, a in enumerate(
        _items(cfg.get("axes"), "axes", "axis objects", 1, 2)))
    names = [a.name for a in axes]
    _distinct(names, "axes", "axis name")
    if "s" in names and not isinstance(base.bath, PowerLawCutoff):
        raise ConfigError("axes", "an s axis needs a power-law bath in base")
    points = math.prod(len(a.values) for a in axes)
    if points > _MAX_GRID_POINTS:
        raise ConfigError("axes", f"{points} grid points, more than "
                                  f"{_MAX_GRID_POINTS}")

    record = tuple(_one_of(q, f"record[{j}]", _RECORDABLE) for j, q in
                   enumerate(_items(cfg.get("record"), "record", "quantities")))
    _distinct(record, "record", "quantity")
    return SweepSpec(base=base, axes=axes, record=record)


def sweep_spec_to_dict(spec: SweepSpec) -> dict:
    return {"base": _record(spec.base),
            "axes": [a.echo for a in spec.axes], "record": list(spec.record)}


# ---------------------------------------------------------------------------
# simulation helpers

@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a sweep: its axis values by axis name, each
    checked when the spec was parsed, over the base config's fields, and
    the state it starts from."""

    values: dict
    initial_state: "str | np.ndarray"

    rho0 = RunConfig.rho0


def _apply_axes(base: RunConfig, names, values) -> SweepPoint:
    return SweepPoint(dict(zip(names, values)), base.initial_state)


def _sweep_columns(record) -> list[str]:
    cols = []
    for q in record:
        cols.extend(("c_floor", "c_ceil", "c_min_abs") if q == "c" else (q,))
    return cols


# Grid points per sweep task.  A batch is set up as arrays over its
# points, then evolved, correlated and transformed at once, which saves
# the per-call overhead of many small numpy calls.  Its temporaries grow
# with it, about 190 KB per point on a 2 250-sample span
# (test_sweep_batch_memory_per_point): 8 points raised a serial
# figD-shaped sweep's peak RSS by about 0.4 MB over batches of one.
_SWEEP_BATCH = 8


def _batch_setup(base: RunConfig, points) -> tuple:
    """(eig, rates, transform, initial state in the eigenmode basis) of
    every point at once: ``pair_setup`` of the pair fields as arrays (a
    point's axis value, or the base's) in the base's bath, or, with an s
    axis, in each point's.  The base's state was checked when it was
    parsed; a point's own state is validated here."""
    params = PairBatch(*(np.array([p.values.get(_PAIR_AXES.get(f), getattr(
        base.params, f)) for p in points]) for f in PairBatch._fields))
    model = base.bath
    if "s" in points[0].values:
        model = [replace(base.bath, s=p.values["s"]) for p in points]
    rho0 = base.rho0
    states = [rho0 if p.initial_state is base.initial_state else p.rho0
              for p in points]
    for state in states:
        if state is not rho0:
            validate_density_matrix(state)
    eig, rates, v = pair_setup(params, model, base.kappa)
    return eig, rates, v, to_eigenmode_basis(np.array(states), v)


def _sweep_rows(base: RunConfig, names, batch, record, plan) -> list:
    """The row of each point of ``batch`` (a list of axis values), or the
    ValueError the point raised, evolved over the span of ``plan`` (a
    ``sync_plan`` for ``base.analysis``) and classified with it.

    The points are set up (``_batch_setup``), evolved and classified as
    one batch, in which every point has the bits it has alone.  If the
    batch raises a ValueError (a point fails a check of its setup, its
    state or its signals), each point is evaluated alone, so the error
    stays on its row.  Any other exception propagates.
    """
    points = [_apply_axes(base, names, values) for values in batch]

    def evaluate(ks):
        setup = eig, rates, _, rho0 = _batch_setup(base, [points[k] for k in ks])
        traj = evolve_analytic(eig, rates, rho0, plan.times, plan.span)
        return ks, setup, detect_sync(traj, plan.config, plan).rows

    out = [None] * len(points)
    try:
        done = [evaluate(range(len(points)))]
    except ValueError:
        # some point failed a check: evaluate each point alone
        done = []
        for k in range(len(points)):
            try:
                done.append(evaluate([k]))
            except ValueError as exc:
                out[k] = exc
    for ks, setup, rows in done:
        for i, (k, m) in enumerate(zip(ks, rows)):
            try:
                out[k] = _sweep_row(m, record, setup, i, plan)
            except ValueError as exc:
                out[k] = exc
    return out


def _sweep_row(m, record, setup, i: int, plan) -> dict:
    """A point's row from its SyncMetrics ``m`` and, for the recordables
    that read more, from its entry ``i`` of a ``_batch_setup``, on the span
    of ``plan``."""
    out = {"c_floor": m.c_floor, "c_ceil": m.c_ceil, "c_min_abs": m.c_min_abs,
           "omega_sync": m.omega_sync, "regime": m.regime,
           "below_floor": int(m.below_floor)}
    if "mi" not in record and "correlator" not in record:
        return out
    eig, rates = (type(x)(*(getattr(x, f.name)[i] for f in fields(x)))
                  for x in setup[:2])
    v, rho0 = setup[2][i], setup[3][i]
    if "mi" in record:
        # Exact fixed point, not the last sample: at T=0 it is the dressed
        # vacuum, so MI depends on the pair alone and stays smooth across
        # the transition whatever the bath does.
        rho_ss = to_computational_basis(steady_state(rates), v)
        out["mi"] = mutual_information(rho_ss)
    if "correlator" in record:
        times = plan.times[plan.span]
        states = eigenmode_states(eig, rates, rho0, times)
        sel = window_mask(times, *plan.config.late_window)
        # spin_correlator is Tr(rho op): rotate op into the eigenmode basis
        # once instead of every state out of it
        op = v.T @ CORRELATOR_OP @ v
        vals = np.einsum("njk,kj->n", states[sel], op)
        out["correlator"] = float(np.mean(np.abs(vals)))
    return out


def _sweep_point(base: RunConfig, names, values, record, plan) -> dict:
    """One sweep row, as a batch of one (``_sweep_rows``); raises the
    point's ValueError.  ``sweep`` does not call it: it is kept as the
    binding that benchmarks/tracing.py wraps as ``cli.point``, and as a
    helper for the tests."""
    (row,) = _sweep_rows(base, names, [values], record, plan)
    if isinstance(row, ValueError):
        raise row
    return row


def _sweep_task(task) -> list:
    """Worker body: a batch of grid points -> a (row dict, error string or
    None) per point.  An input error is recorded; any other exception is a
    bug and propagates."""
    return [(None, f"{type(row).__name__}: {row}")
            if isinstance(row, ValueError) else (row, None)
            for row in _sweep_rows(*task)]


def _sweep_results(base: RunConfig, names, points, record, plan,
                   workers: int) -> list:
    """``_sweep_task``'s (row, error) of each of ``points``, in order, from
    batches of _SWEEP_BATCH points on up to ``workers`` processes."""
    tasks = [(base, names, points[k:k + _SWEEP_BATCH], record, plan)
             for k in range(0, len(points), _SWEEP_BATCH)]
    return [r for rows in run_tasks(_sweep_task, tasks, workers) for r in rows]


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
    """The JSON form of a result or a config: a dataclass as its fields by
    JSON name, a bath model in the bath config schema, a complex array (a
    density matrix) as its [re, im] entries, any other array as a list with
    NaN as null, and lists and tuples item by item."""
    if isinstance(obj, Tabulated):
        return {"kind": "tabulated",
                "points": np.column_stack((obj.omegas, obj.js)).tolist()}
    if is_dataclass(obj):
        kind = {"kind": "power-law"} if isinstance(obj, PowerLawCutoff) else {}
        return kind | {json_name(f.name): _record(getattr(obj, f.name))
                       for f in fields(obj)}
    if isinstance(obj, np.ndarray) and np.iscomplexobj(obj):
        return np.stack((obj.real, obj.imag), axis=-1).tolist()
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
    times = rc.time_grid.times()
    traj = simulate(rc.params, rc.bath, times, rc.rho0, rc.kappa).traj
    _write_columns(out / "trajectory.csv", ("t", "sx_q", "sx_p"),
                   traj.times, traj.sx_q, traj.sx_p)
    metrics = detect_sync(traj, rc.analysis)
    _write_json(out / "sync_metrics.json",
                {"config": _record(rc), "metrics": _record(metrics)})
    print(f"wrote {out / 'trajectory.csv'} and {out / 'sync_metrics.json'} "
          f"(regime: {metrics.regime})")
    return 0


def cmd_sweep(cfg: dict, out: Path, args) -> int:
    spec = parse_sweep_spec(cfg)
    # Every recordable reads the late window or the steady state, and the
    # axes never touch the analysis settings: one late span and one plan
    # serve every point.  The tasks share it, so a pool pickles it once per
    # chunk of tasks.
    plan = sync_plan(spec.base.time_grid.times(), spec.base.analysis)
    names = [a.name for a in spec.axes]
    points = list(itertools.product(*(a.values for a in spec.axes)))
    results = _sweep_results(spec.base, names, points, spec.record, plan,
                             args.workers)

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
    times = rc.time_grid.times()
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
                {"config": _record(rc), "spectra": summary})
    print(f"wrote {len(summary)} spectra and {out / 'spectra.json'}")
    return 0


def _scan_config_from(cfg, omega_q: float) -> ScanConfig:
    """The ``scan`` section, checked on the grid a scan at omega_q builds."""
    scan_cfg = _late_config(cfg, "scan", ScanConfig)
    if cfg is not None:
        _check_grid(scan_cfg.t_max, scan_cfg.dt, "scan")
        _checked("scan.late_window", late_span, scan_cfg.times(omega_q),
                 scan_cfg.sync_config(omega_q))
    return scan_cfg


def cmd_scan_transition(cfg: dict, out: Path, args) -> int:
    pair = _spec(QubitPairParams, "omega_q", "temperature")
    pair[json_name("lam")] = _POSITIVE     # a scan needs a coupling
    echo = _section(cfg, "", pair, extra=("bath", "grid", "scan"))
    _expect_mapping(cfg, "", required=("bath",))
    model = _bath_from_config(cfg["bath"])
    omega_q = echo["omega_q"]
    scan_cfg = _scan_config_from(cfg.get("scan"), omega_q)
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
        path = cfg["constraints_file"]
        if not isinstance(path, str):
            raise ConfigError("constraints_file",
                              f"must be a file name, got {path!r}")

    raw_fit = cfg.get("fit", {})
    defaults = _defaults(fit_spectral_density)
    fit = _section(raw_fit, "fit", {
        "omega_c": field_bounds(PowerLawCutoff)["omega_c"],
        "smoothness": Bounds(defaults["smoothness"], 0.0)},
        extra=("family", "grid"))
    # echo the cutoff the fit uses: one too large to matter is none
    fit["omega_c"] = normalize_cutoff(fit["omega_c"])
    family = _one_of(raw_fit.get("family", defaults["family"]), "fit.family",
                     _FAMILIES)
    grid = raw_fit.get("grid")
    if grid is not None:
        grid = [_check_number(v, f"fit.grid[{j}]", _POSITIVE) for j, v in
                enumerate(_items(grid, "fit.grid", "frequencies", 2))]
    fit.update(family=family, grid=grid)
    datum = cfg.get("datum")
    if datum is not None:
        datum = _section(datum, "datum", _spec(LinewidthDatum))
    echo = {"fit": fit, "datum": datum}

    truth = None
    failures = []
    if from_file:
        constraints = _constraints_from_csv(Path(path))
        echo["constraints_file"] = path
    else:
        truth = _bath_from_config(
            _expect_mapping(cfg, "", required=("bath",))["bath"])
        lams = [_check_number(v, f"lambdas[{j}]", _POSITIVE) for j, v in
                enumerate(_items(cfg.get("lambdas"), "lambdas", "couplings"))]
        _distinct(lams, "lambdas", "coupling")
        method = _one_of(cfg.get("method", "analytic"), "method",
                         ("analytic", "signal"))
        scan_cfg = _scan_config_from(cfg.get("scan"), pair["omega_q"])
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
