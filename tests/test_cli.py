"""CLI behavior: config parsing, artifacts, exit codes, determinism."""

import contextlib
import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncprobe import cli, dynamics, probe_protocol
from syncprobe.bath import KAPPA_DEFAULT, PowerLawCutoff, evaluate_J
from syncprobe.cli import (
    ConfigError,
    main,
    parse_run_config,
    parse_sweep_spec,
    sweep_spec_to_dict,
)
from syncprobe.dynamics import Trajectory
from syncprobe.presets import PRESETS, get_preset
from syncprobe.spin_model import QubitPairParams

from oracles import point_signal_terms

OHMIC = {"kind": "power-law", "gamma0": 0.01, "s": 1.0, "omega_c": 20.0}


def _run_cfg(**over):
    cfg = {
        "params": {"omega_q": 1.0, "omega_p": 1.2, "lambda": 0.2,
                   "temperature": 0.0},
        "bath": dict(OHMIC),
        "time_grid": {"t_max": 400.0, "dt": 0.05},
    }
    cfg.update(over)
    return cfg


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


# ---------------------------------------------------------------------------
# config parsing

def test_run_config_round_trip():
    cfg = _run_cfg(
        initial_state=[[1, 0], 0, 0, [0, -1]],
        analysis={"window": 2.5, "late_window": [150.0, 300.0]},
        channel="qubit",
        windows=[[0.0, 110.0], [200.0, 310.0]],
    )
    first = cli._record(parse_run_config(cfg))
    second = cli._record(parse_run_config(first))
    assert first == second


@st.composite
def _density_matrices(draw):
    """A full-rank 4x4 density matrix, (A A^dagger + 1) over its trace."""
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32,
                                   max_size=32)))
    a = (parts[:16] + 1j * parts[16:]).reshape(4, 4)
    rho = a @ a.conj().T + np.eye(4)
    return rho / np.trace(rho).real


@st.composite
def _run_configs(draw):
    """A RunConfig whose every section is in bounds.  The late window spans
    130 or more samples, so it holds a centre of any correlation window of
    at most 40 samples and stride, and it serves as a spectrum window too."""
    dt = draw(st.floats(0.01, 0.5))
    t_max = draw(st.floats(200.0 * dt, 2000.0 * dt))
    times = cli.default_time_grid(t_max, dt)
    i0 = draw(st.integers(0, times.size - 131))
    i1 = draw(st.integers(i0 + 130, times.size - 1))
    late = (float(times[i0]), float(times[i1]))
    window = draw(st.floats(8.0 * dt, 40.0 * dt))
    sync = draw(st.floats(0.01, 1.0))
    positive = st.floats(1e-3, 1e3)
    return cli.RunConfig(
        params=cli.QubitPairParams(
            omega_q=draw(positive), omega_p=draw(positive),
            lam=draw(st.floats(0.0, 10.0)), temperature=draw(st.floats(0.0, 10.0))),
        bath=cli.PowerLawCutoff(gamma0=draw(st.floats(0.0, 1.0)),
                                s=draw(st.floats(0.1, 5.0)),
                                omega_c=draw(st.none() | positive)),
        initial_state=draw(st.sampled_from(sorted(cli.INITIAL_STATES))
                           | _density_matrices()),
        time_grid=cli.TimeGrid(t_max=t_max, dt=dt),
        analysis=cli.SyncConfig(
            window=window, step=draw(st.none() | st.floats(dt, window)),
            sync_threshold=sync,
            nosync_threshold=draw(st.floats(0.0, sync, exclude_max=True)),
            late_window=late, noise_floor=draw(st.floats(0.0, 1.0))),
        channel=draw(st.sampled_from(cli._CHANNELS)),
        kappa=draw(positive),
        windows=draw(st.sampled_from([None, (late,)])))


@settings(max_examples=100)
@given(rc=_run_configs())
def test_run_config_round_trip_property(rc):
    """A drawn config, a preset name or a density matrix as its initial
    state, parses back from its JSON form to an equal config."""
    assert parse_run_config(cli._record(rc)) == rc


def test_run_configs_compare_by_their_json():
    """Two parses of a density-matrix config are equal, where comparing
    the numpy matrix field by field raised ValueError; another state, or
    a preset name, makes them differ."""
    cfg = _run_cfg(initial_state=[1, 0, 0, 1])
    assert parse_run_config(cfg) == parse_run_config(cfg)
    assert parse_run_config(cfg) != parse_run_config(
        _run_cfg(initial_state=[1, 0, 0, -1]))
    assert parse_run_config(cfg) != parse_run_config(_run_cfg())


@st.composite
def _sweep_specs(draw):
    """A SweepSpec on a drawn base, with 1-2 axes, each a lo/hi/steps range
    or a list of values, and a non-empty subset of the recordables."""
    names = draw(st.lists(st.sampled_from(sorted(cli._AXES)), min_size=1,
                          max_size=2, unique=True))
    positive = st.floats(1e-3, 10.0)
    axes = []
    for i, name in enumerate(names):
        if draw(st.booleans()):
            axis = {"name": name, "values": draw(st.lists(positive, min_size=1,
                                                          max_size=5))}
        else:
            lo = draw(positive)
            axis = {"name": name, "lo": lo, "hi": lo + draw(positive),
                    "steps": draw(st.integers(2, 20))}
        axes.append(cli._axis_from_config(axis, i))
    record = draw(st.lists(st.sampled_from(cli._RECORDABLE), min_size=1,
                           unique=True))
    return cli.SweepSpec(base=draw(_run_configs()), axes=tuple(axes),
                         record=tuple(record))


@settings(max_examples=100)
@given(spec=_sweep_specs())
def test_sweep_spec_round_trip_property(spec):
    assert parse_sweep_spec(sweep_spec_to_dict(spec)) == spec


def _in_unit(cfg: dict, k: float) -> dict:
    """``cfg`` in the unit where every frequency is k times as large:
    params times k, gamma0 times k^(1 - s) and omega_c times k^s (so J
    scales by k), and the time grid and analysis times divided by k."""
    bath, grid, analysis = cfg["bath"], cfg["time_grid"], cfg["analysis"]
    s = bath["s"]
    return {**cfg,
            "params": {name: v * k for name, v in cfg["params"].items()},
            "bath": {**bath, "gamma0": bath["gamma0"] * k ** (1.0 - s),
                     "omega_c": None if bath["omega_c"] is None
                     else bath["omega_c"] * k ** s},
            "time_grid": {"t_max": grid["t_max"] / k, "dt": grid["dt"] / k},
            "analysis": {**analysis, "window": analysis["window"] / k,
                         "late_window": [t / k for t in
                                         analysis["late_window"]]}}


def _regimes(tmp_path, cfg: dict, omega_ps) -> tuple[str, list[str]]:
    """The regime ``evolve`` reports for ``cfg``, and those ``sweep``
    reports with ``cfg`` as its base at each of ``omega_ps``."""
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(_write(tmp_path, cfg)),
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "sync_metrics.json").read_text())["metrics"]
    sweep = {"base": cfg, "axes": [{"name": "omega_p", "values": omega_ps}],
             "record": ["regime"]}
    assert main(["sweep", "--config", str(_write(tmp_path, sweep)),
                 "--out", str(out), "--workers", "1"]) == 0
    rows = csv.DictReader((out / "sweep.csv").read_text().splitlines())
    return metrics["regime"], [row["regime"] for row in rows]


@settings(max_examples=10)
@given(k=st.sampled_from([0.25, 2.0, 8.0]) | st.floats(0.1, 10.0),
       s=st.floats(0.5, 3.0), lam=st.floats(0.05, 0.4),
       omega_p=st.floats(0.6, 1.4), temperature=st.sampled_from([0.0, 0.3]),
       omega_c=st.sampled_from([None, 20.0]))
@example(k=10.0, s=2.0, lam=0.2, omega_p=1.2, temperature=0.3,
         omega_c=20.0)
@example(k=0.1, s=1.0, lam=0.3, omega_p=0.8, temperature=0.0,
         omega_c=None)
def test_run_config_regimes_are_unit_free(tmp_path_factory, k, s, lam,
                                          omega_p, temperature, omega_c):
    """A run config in units where every frequency is k times as large,
    with its time grid and analysis times divided by k, gets the regimes
    of the original from ``evolve`` and from a ``sweep`` over omega_p."""
    cfg = _run_cfg(params={"omega_q": 1.0, "omega_p": omega_p, "lambda": lam,
                           "temperature": temperature},
                   bath={"kind": "power-law", "gamma0": 0.01, "s": s,
                         "omega_c": omega_c},
                   analysis={"window": 3.0, "step": None,
                             "late_window": [200.0, 310.0]})
    omega_ps = [0.7, 0.9, 1.1, 1.3]
    want = _regimes(tmp_path_factory.mktemp("unit"), cfg, omega_ps)
    got = _regimes(tmp_path_factory.mktemp("scaled"), _in_unit(cfg, k),
                   [w * k for w in omega_ps])
    assert got == want


def test_run_config_defaults():
    rc = parse_run_config(_run_cfg())
    assert rc.time_grid == cli.TimeGrid(t_max=400.0, dt=0.05)
    assert rc.initial_state == "plus-plus"
    assert rc.channel == "probe"
    assert rc.windows is None
    assert rc.analysis.late_window == (200.0, 310.0)


@pytest.mark.parametrize("mutate,field", [
    (lambda c: c["params"].__setitem__("lambda", -0.2), "params.lambda"),
    (lambda c: c["params"].__setitem__("omega_p", 0.0), "params.omega_p"),
    (lambda c: c["params"].pop("omega_p"), "params.omega_p"),
    (lambda c: c.__setitem__("channel", "detector"), "channel"),
    (lambda c: c.__setitem__("windows", [[0.0, 110.0], [300.0, 500.0]]),
     "windows[1]"),
    (lambda c: c.__setitem__("analysis", {"nosync_threshold": 0.95}),
     "analysis.nosync_threshold"),
    (lambda c: c.__setitem__("time_grid", {"t_max": 400.0, "dt": 1e-6}),
     "time_grid"),
    (lambda c: c.__setitem__("time_grid", {"t_max": 10.0, "dt": 20.0}),
     "time_grid.dt"),
    (lambda c: c.__setitem__("extra", 1), "unknown key"),
])
def test_run_config_field_errors(mutate, field):
    cfg = _run_cfg()
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        parse_run_config(cfg)
    assert field in str(err.value)


def test_initial_state_forms():
    vec = parse_run_config(_run_cfg(initial_state=[1, 0, 0, 1]))
    rho = vec.initial_state
    assert np.allclose(rho, 0.5 * np.outer([1, 0, 0, 1], [1, 0, 0, 1]))

    mixed = parse_run_config(_run_cfg(initial_state="mixed"))
    assert mixed.initial_state == "mixed"

    ident = [[0.25 if i == j else 0 for j in range(4)] for i in range(4)]
    mat = parse_run_config(_run_cfg(initial_state=ident))
    assert np.allclose(mat.initial_state, np.eye(4) / 4)

    with pytest.raises(ConfigError, match="initial_state"):
        parse_run_config(_run_cfg(initial_state="ground"))
    with pytest.raises(ConfigError, match="initial_state"):
        # trace 2: not a state
        parse_run_config(_run_cfg(
            initial_state=[[1, 0, 0, 0], [0, 1, 0, 0],
                           [0, 0, 0, 0], [0, 0, 0, 0]]))


def _sweep_cfg(**over):
    cfg = {
        "base": _run_cfg(),
        "axes": [{"name": "omega_p", "lo": 0.8, "hi": 1.2, "steps": 3}],
        "record": ["c", "regime"],
    }
    cfg.update(over)
    return cfg


def test_sweep_spec_round_trip():
    first = sweep_spec_to_dict(parse_sweep_spec(_sweep_cfg(
        axes=[{"name": "s", "values": [0.5, 1.0, 2.0]},
              {"name": "lambda", "lo": 0.1, "hi": 0.3, "steps": 2}])))
    second = sweep_spec_to_dict(parse_sweep_spec(first))
    assert first == second


@pytest.mark.parametrize("mutate,field", [
    (lambda c: c.__setitem__("axes", []), "axes"),
    (lambda c: c.__setitem__("axes", [{"name": "kappa", "lo": 1, "hi": 2,
                                       "steps": 2}]), "axes[0].name"),
    (lambda c: c.__setitem__("axes", [{"name": "omega_p", "lo": 1, "hi": 2,
                                       "steps": 1}]), "axes[0].steps"),
    (lambda c: c.__setitem__("axes", [{"name": "omega_p", "lo": 2, "hi": 1,
                                       "steps": 3}]), "axes[0].hi"),
    (lambda c: c.__setitem__("axes", [{"name": "s", "values": []}]),
     "axes[0].values"),
    (lambda c: c.__setitem__("axes", [
        {"name": "T", "values": [0.0, 1.0]},
        {"name": "T", "lo": 0, "hi": 1, "steps": 2}]), "duplicate"),
    (lambda c: c.__setitem__("record", ["c", "entropy"]), "record"),
    (lambda c: c.__setitem__("record", []), "record"),
    (lambda c: c["base"]["params"].__setitem__("temperature", -1),
     "base.params.temperature"),
])
def test_sweep_spec_errors(mutate, field):
    cfg = _sweep_cfg()
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        parse_sweep_spec(cfg)
    assert field in str(err.value)


def test_grid_steps_are_capped():
    cap = cli._MAX_GRID_POINTS
    assert cli._range({"lo": 0.9, "hi": 1.1, "steps": cap}, "grid", 0.0,
                      True) == (0.9, 1.1, cap)
    with pytest.raises(ConfigError, match=r"^grid\.steps: "):
        cli._range({"lo": 0.9, "hi": 1.1, "steps": 10 ** 9}, "grid", 0.0, True)
    with pytest.raises(ConfigError, match=r"^axes\[0\]\.steps: "):
        parse_sweep_spec(_sweep_cfg(axes=[
            {"name": "omega_p", "lo": 0.5, "hi": 1.5, "steps": cap + 1}]))
    # each axis under the cap, their product over it
    axes = [{"name": "omega_p", "lo": 0.5, "hi": 1.5, "steps": 1000},
            {"name": "lambda", "values": [0.1] * 100}]
    assert len(parse_sweep_spec(_sweep_cfg(axes=axes)).axes[1].values) == 100
    axes[1]["values"].append(0.2)
    with pytest.raises(ConfigError, match=r"^axes: "):
        parse_sweep_spec(_sweep_cfg(axes=axes))


def test_sweep_s_axis_needs_power_law():
    cfg = _sweep_cfg(axes=[{"name": "s", "values": [0.5, 1.0]}])
    cfg["base"]["bath"] = {"kind": "tabulated",
                           "points": [[0.5, 0.01], [1.5, 0.02]]}
    with pytest.raises(ConfigError, match="power-law"):
        parse_sweep_spec(cfg)


def test_presets_all_parse():
    # Every named preset must go through its parser without complaint.
    sweep_presets = {"fig3b", "figD", "figtemp", "figcorr"}
    for name in PRESETS:
        cfg = get_preset(name)
        if name in sweep_presets:
            parse_sweep_spec(cfg)
        else:
            parse_run_config(cfg)
    with pytest.raises(KeyError, match="available"):
        get_preset("fig2")


# ---------------------------------------------------------------------------
# evolve

def test_evolve_writes_artifacts(tmp_path):
    cfg = _write(tmp_path, _run_cfg())
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "trajectory.csv") as fh:
        header = fh.readline().strip()
    assert header == "t,sx_q,sx_p"
    rec = json.loads((out / "sync_metrics.json").read_text())
    assert rec["metrics"]["regime"] == "InPhase"
    assert rec["config"]["params"]["omega_p"] == 1.2


def test_evolve_byte_determinism(tmp_path):
    cfg = _write(tmp_path, _run_cfg())
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("trajectory.csv", "sync_metrics.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_evolve_rejects_short_horizon(tmp_path):
    cfg = _write(tmp_path, _run_cfg(time_grid={"t_max": 100.0, "dt": 0.05}))
    code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("over, field", [
    ({"bath": dict(OHMIC, gamma0=float("nan"))}, "gamma0"),
    ({"bath": dict(OHMIC, gamma0=float("inf"))}, "gamma0"),
    ({"bath": dict(OHMIC, s=float("inf"))}, "s"),
    ({"bath": {"kind": "tabulated",
               "points": [[0.5, 0.01], [1.0, float("nan")], [2.0, 0.04]]}},
     "bath.points[1]"),
    ({"initial_state": [float("nan"), 1, 0, 0]}, "initial_state"),
    ({"initial_state": [[1, float("inf")], 0, 0, 0]}, "initial_state"),
    # integers beyond the float range
    ({"params": {"omega_p": 1.2, "lambda": 10 ** 400}}, "params.lambda"),
    ({"bath": dict(OHMIC, gamma0=10 ** 400)}, "gamma0"),
    ({"initial_state": [-10 ** 400, 1, 0, 0]}, "initial_state"),
])
def test_evolve_rejects_non_finite_input(tmp_path, capsys, over, field):
    # JSON as Python writes it: NaN and Infinity literals, long integers
    cfg = _write(tmp_path, _run_cfg(**over))
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err and "must be finite" in err
    assert not (out / "trajectory.csv").exists()


def test_evolve_window_longer_than_trajectory(tmp_path):
    # no correlation window fits: an empty c-trace and no verdict, not an error
    cfg = _write(tmp_path, _run_cfg(analysis={"window": 500.0}))
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    rec = json.loads((out / "sync_metrics.json").read_text())["metrics"]
    assert rec["c_times"] == [] and rec["c_values"] == []
    assert rec["regime"] == "Indeterminate"


def test_invalid_config_exit_code(tmp_path, capsys):
    bad = _run_cfg()
    bad["params"]["lambda"] = -0.2
    cfg = _write(tmp_path, bad)
    code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "params.lambda" in capsys.readouterr().err


def test_malformed_json_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code = main(["evolve", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_preset_exit_code(tmp_path, capsys):
    code = main(["evolve", "--preset", "fig9", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "available" in capsys.readouterr().err


def test_seed_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--preset", "fig1", "--out", str(tmp_path),
              "--seed", "1"])
    assert exc.value.code == 2


def test_config_and_preset_are_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        main(["evolve", "--config", "x.json", "--preset", "fig1",
              "--out", str(tmp_path / "o")])


def test_overflowing_bath_cutoff_is_no_cutoff(tmp_path):
    """An omega_c whose square overflows is no cutoff, not a traceback:
    evolve writes the bytes it writes for a null omega_c."""
    outs = []
    for name, omega_c in (("huge", 1e300), ("none", None)):
        cfg = _write(tmp_path, _run_cfg(bath=dict(OHMIC, omega_c=omega_c)),
                     f"{name}.json")
        outs.append(tmp_path / name)
        assert main(["evolve", "--config", str(cfg), "--out", str(outs[-1])]) == 0
    for fname in ("trajectory.csv", "sync_metrics.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def _with_cutoff(cfg, section, text):
    """JSON text of ``cfg`` with ``section``'s omega_c written as ``text``,
    so a literal such as 1e400 reaches the parser as JSON reads it."""
    cfg[section] = dict(cfg[section], omega_c="CUTOFF")
    return json.dumps(cfg).replace('"CUTOFF"', text)


@pytest.mark.parametrize("text", ["1e200", "1e400"])
def test_bath_cutoff_beyond_doubles_echoes_null(tmp_path, text):
    """bath.omega_c 1e400, which JSON reads as inf, and 1e200, whose square
    overflows, both run with no cutoff and echo null, as null does."""
    outs = []
    for name, value in (("big", text), ("null", "null")):
        path = tmp_path / f"{name}.json"
        path.write_text(_with_cutoff(_run_cfg(), "bath", value))
        outs.append(tmp_path / name)
        assert main(["evolve", "--config", str(path), "--out", str(outs[-1])]) == 0
    rec = json.loads((outs[0] / "sync_metrics.json").read_text())
    assert rec["config"]["bath"]["omega_c"] is None
    for fname in ("trajectory.csv", "sync_metrics.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


_TABLE = {"kind": "tabulated", "points": [[0.5, 0.01], [1.0, 0.02]]}


@pytest.mark.parametrize("bath, message", [
    pytest.param(dict(OHMIC, s=True), "bath.s: must be a number, got True",
                 id="s-true"),
    pytest.param(dict(OHMIC, gamma0="0.01"),
                 "bath.gamma0: must be a number, got '0.01'", id="gamma0-string"),
    pytest.param(dict(_TABLE, points=[[0.5, 0.01], [1.0, True]]),
                 "bath.points[1]: must be a number, got True", id="points-true"),
    pytest.param(dict(_TABLE, points=[["3", 0.01], [1.0, 0.02]]),
                 "bath.points[0]: must be a number, got '3'", id="points-string"),
    pytest.param({"kind": "power-law", "gamma0": 0.01},
                 "bath.s: missing required number", id="missing-s"),
    pytest.param(dict(OHMIC, extra=1), "bath: unknown key(s): extra",
                 id="unknown-key"),
    pytest.param({"kind": "lorentzian", "gamma0": 0.1},
                 "bath.kind: must be one of power-law, tabulated, got 'lorentzian'",
                 id="unknown-kind"),
    pytest.param(dict(_TABLE, points=[[1.0, 0.1]]),
                 "bath.points: need matching 1-d grids with at least 2 points",
                 id="one-point-table"),
])
def test_bath_errors_name_their_field(tmp_path, capsys, bath, message):
    """The bath section is read like every other: booleans and strings are
    not numbers, and each error names its place in the section."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, _run_cfg(bath=bath))
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


_MATRIX = [[0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0.25]]


@pytest.mark.parametrize("command, cfg, message", [
    pytest.param("evolve", _run_cfg(params=3),
                 "params: expected a JSON object", id="section-not-object"),
    pytest.param("evolve", _without(_run_cfg(), "params"),
                 "params: missing required section", id="no-params"),
    pytest.param("evolve", _run_cfg(analysis={"late_window": [200.0]}),
                 "analysis.late_window: expected a list of 2 numbers "
                 "[start, end]", id="late-window-malformed"),
    pytest.param("evolve", _run_cfg(analysis={"late_window": [310.0, 200.0]}),
                 "analysis.late_window: need 0 <= start < end, got [310, 200]",
                 id="late-window-reversed"),
    pytest.param("evolve", _run_cfg(bath=dict(_TABLE, points=[[0.5, 0.01],
                                                              [1.0]])),
                 "bath.points[1]: expected a list of 2 numbers [omega, J]",
                 id="points-entry-malformed"),
    pytest.param("evolve", _run_cfg(initial_state=[1, "x", 0, 0]),
                 "initial_state[1]: expected a list of 2 numbers [re, im], "
                 "or a number", id="state-entry-malformed"),
    pytest.param("evolve", _run_cfg(initial_state=[1, 0, 0]),
                 "initial_state: expected a list of 4 state vector entries or "
                 "density matrix rows, or a preset name", id="state-3-entries"),
    pytest.param("evolve", _run_cfg(initial_state=[0, [0, 0], 0, 0]),
                 "initial_state: state vector has zero norm", id="state-zero"),
    pytest.param("evolve", _run_cfg(initial_state=_MATRIX),
                 "initial_state[3]: expected a list of 4 entries",
                 id="matrix-row-malformed"),
    pytest.param("evolve", _run_cfg(initial_state="ground"),
                 "initial_state: must be one of plus-plus, mixed, got 'ground'",
                 id="state-preset-unknown"),
    pytest.param("spectrum", _run_cfg(windows=[]),
                 "windows: expected a non-empty list of [t_start, t_end] pairs",
                 id="windows-empty"),
    pytest.param("sweep", _without(_sweep_cfg(), "base"),
                 "base: missing required section", id="no-base"),
    pytest.param("sweep", _sweep_cfg(record=["c", "regime", "c"]),
                 "record[2]: duplicate quantity 'c' (first at record[0])",
                 id="record-repeated"),
    pytest.param("sweep", _sweep_cfg(record=["c", "entropy"]),
                 "record[1]: must be one of c, omega_sync, regime, mi, "
                 "correlator, below_floor, got 'entropy'", id="record-unknown"),
    pytest.param("sweep", _sweep_cfg(axes=[{"name": "T", "values": [0.0]},
                                           {"name": "T", "values": [1.0]}]),
                 "axes[1]: duplicate axis name 'T' (first at axes[0])",
                 id="axes-repeated"),
    pytest.param("sweep", _sweep_cfg(axes=[{"name": ["T"], "values": [0.0]}]),
                 "axes[0].name: must be one of omega_p, lambda, s, T, "
                 "got ['T']", id="axis-name-a-list"),
    pytest.param("sweep", _sweep_cfg(axes=[{"name": "T", "values": 0.5}]),
                 "axes[0].values: expected a non-empty list of numbers",
                 id="axis-values-not-a-list"),
])
def test_config_shape_errors_name_their_field(tmp_path, capsys, command, cfg,
                                              message):
    """Each shape (object, required section, list, choice, distinct entries)
    is checked by one reader, whose message names the field and entry."""
    out = tmp_path / "out"
    assert main([command, "--config", str(_write(tmp_path, cfg)),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


def test_config_naming_a_directory_is_an_input_error(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config: cannot read {tmp_path}: ")


@pytest.mark.parametrize("command, cfg", [
    ("evolve", _run_cfg(bath=dict(OHMIC, s=5000, omega_c=None))),
    ("evolve", _run_cfg(bath=dict(OHMIC, s=1e300))),
    ("scan-transition", {"lambda": 0.2, "bath": dict(OHMIC, s=1e300)}),
])
def test_non_finite_spectral_density_is_an_input_error(tmp_path, capsys,
                                                       command, cfg):
    """J(E1) overflowing to inf or nan fails naming the bath and the mode,
    with no numpy warning first and no trajectory written."""
    out = tmp_path / "out"
    assert main([command, "--config", str(_write(tmp_path, cfg)),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: bath: J must be finite at mode 1 (E1 = ")
    assert list(out.iterdir()) == []


def test_evolve_at_low_temperature_is_quiet(tmp_path, capsys):
    cfg = _run_cfg(params={"omega_p": 1.2, "lambda": 0.2, "temperature": 0.001})
    assert main(["evolve", "--config", str(_write(tmp_path, cfg)),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def _overflow_cfg(gamma0, T):
    return _run_cfg(params={"omega_p": 1.2, "lambda": 0.2, "temperature": T},
                    bath=dict(OHMIC, gamma0=gamma0, omega_c=None))


@pytest.mark.parametrize("gamma0, T", [(6e307, 0.0), (1.0, 1e308)])
def test_overflowing_rates_are_a_bath_error(tmp_path, capsys, gamma0, T):
    """A finite J whose rates overflow fails naming the bath, the mode, its
    energy and T, with no numpy warning first and no trajectory written."""
    out = tmp_path / "out"
    path = _write(tmp_path, _overflow_cfg(gamma0, T))
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: bath: the mode-1 rates overflow (E1 = 1.34164, T = ")
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("gamma0, T", [(1e307, 0.0), (0.01, 1e308)])
def test_overflowing_decay_products_are_quiet(tmp_path, capsys, gamma0, T):
    """Finite rates so large that rate * t overflows: the decayed terms are
    exactly 0, and neither evolve nor a sweep recording the correlator
    prints anything on stderr."""
    cfg = _overflow_cfg(gamma0, T)
    assert main(["evolve", "--config", str(_write(tmp_path, cfg)),
                 "--out", str(tmp_path / "evolve")]) == 0
    sweep = {"base": cfg, "axes": [{"name": "omega_p", "values": [0.8, 1.2]}],
             "record": ["regime", "mi", "correlator"]}
    assert main(["sweep", "--config", str(_write(tmp_path, sweep, "sw.json")),
                 "--out", str(tmp_path / "sweep"), "--workers", "1"]) == 0
    assert capsys.readouterr().err == ""


def _main_stderr(*argv) -> tuple[int, str]:
    """``main``'s exit code and what it wrote on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


def _log_spread(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(max_examples=150)
@given(gamma0=st.just(0.0) | _log_spread(-300.0, 308.25),
       s=st.floats(0.1, 5.0), omega_c=st.none() | _log_spread(-3.0, 300.0),
       T=st.just(0.0) | _log_spread(-300.0, 308.0))
def test_any_bath_and_temperature_fail_by_name_or_run_quietly(
        tmp_path_factory, gamma0, s, omega_c, T):
    """Every bath section and temperature the validator accepts either runs
    with nothing on stderr or fails with a message naming the bath or the
    temperature; a sweep over such a bath records each point's failure as
    a ValueError and prints nothing."""
    tmp = tmp_path_factory.mktemp("bath")
    cfg = _run_cfg(params={"omega_p": 1.2, "lambda": 0.2, "temperature": T},
                   bath={"kind": "power-law", "gamma0": gamma0, "s": s,
                         "omega_c": omega_c},
                   time_grid={"t_max": 20.0, "dt": 0.05},
                   analysis={"window": 1.0, "late_window": [10.0, 20.0]})
    code, err = _main_stderr("evolve", "--config", str(_write(tmp, cfg)),
                             "--out", str(tmp / "evolve"))
    assert (code, err) == (0, "") or (
        code == 2 and err.startswith(("error: bath", "error: temperature",
                                      "error: params.temperature"))), err
    sweep = {"base": cfg, "axes": [{"name": "omega_p", "values": [0.8, 1.2]}],
             "record": ["regime", "mi", "correlator"]}
    code, err = _main_stderr("sweep", "--config",
                             str(_write(tmp, sweep, "sw.json")),
                             "--out", str(tmp / "sweep"), "--workers", "1")
    assert code in (0, 1) and err == ""
    rows = csv.DictReader((tmp / "sweep" / "sweep.csv").read_text().splitlines())
    assert all(row["errors"] == "" or row["errors"].split(":")[0].endswith(
        "Error") for row in rows)


def _scaled_run(k: float) -> dict:
    """The run config of omega_p 1.2, lambda 0.2 (s 1, no cutoff, T 0) in
    the unit where omega_q = k: every frequency times k, every time over
    k; with s = 1, J scales by k too."""
    return _run_cfg(params={"omega_q": k, "omega_p": 1.2 * k, "lambda": 0.2 * k,
                            "temperature": 0.0},
                    bath=dict(OHMIC, omega_c=None),
                    time_grid={"t_max": 400.0 / k, "dt": 0.05 / k},
                    analysis={"window": 3.0 / k,
                              "late_window": [200.0 / k, 310.0 / k]})


@pytest.mark.parametrize("k", [1.0, 1e7])
def test_evolve_runs_at_a_large_energy_scale(tmp_path, k):
    """At omega_q = 1e7 the rounding of V^T H_S V exceeds 1e-10 absolute;
    the transform's self-checks are relative to H_S's scale, so the pair
    evolves, to the regime it has at omega_q = 1."""
    code, err = _main_stderr("evolve", "--config",
                             str(_write(tmp_path, _scaled_run(k))),
                             "--out", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    metrics = json.loads((tmp_path / "out" / "sync_metrics.json").read_text())
    assert metrics["metrics"]["regime"] == "InPhase"


def test_evolve_names_params_where_e2_underflows(tmp_path):
    """E2 = omega_q omega_p / E1 is about 1e-340 here, below the smallest
    double: the pair has no rates, and the error names its section."""
    cfg = _run_cfg(params={"omega_q": 1e-20, "omega_p": 1e-20,
                           "lambda": 1e300, "temperature": 0.0},
                   time_grid={"t_max": 20.0, "dt": 0.05},
                   analysis={"window": 1.0, "late_window": [10.0, 20.0]})
    code, err = _main_stderr("evolve", "--config", str(_write(tmp_path, cfg)),
                             "--out", str(tmp_path / "out"))
    assert code == 2 and err.startswith("error: params: E2 = 0 <= 0"), err


# ---------------------------------------------------------------------------
# sweep

def _small_sweep(**over):
    cfg = {
        "base": _run_cfg(),
        "axes": [{"name": "omega_p", "values": [0.8, 1.2]},
                 {"name": "lambda", "values": [0.15, 0.25]}],
        "record": ["c", "omega_sync", "regime"],
    }
    cfg.update(over)
    return cfg


def test_sweep_grid_order_and_columns(tmp_path):
    cfg = _write(tmp_path, _small_sweep())
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--workers", "1"]) == 0
    rows = list(csv.DictReader(open(out / "sweep.csv")))
    assert list(rows[0]) == ["omega_p", "lambda", "c_floor", "c_ceil",
                             "c_min_abs", "omega_sync", "regime", "errors"]
    # row-major: first axis outermost
    assert [(float(r["omega_p"]), float(r["lambda"])) for r in rows] == [
        (0.8, 0.15), (0.8, 0.25), (1.2, 0.15), (1.2, 0.25)]
    assert all(r["errors"] == "" for r in rows)
    regimes = [r["regime"] for r in rows]
    assert regimes[:2] == ["AntiPhase", "AntiPhase"]
    assert regimes[2:] == ["InPhase", "InPhase"]


def test_sweep_workers_do_not_change_bytes(tmp_path):
    """25 points: three full batches and a ragged tail of one, spread over
    one or two processes."""
    assert 3 * cli._SWEEP_BATCH < 25 < 4 * cli._SWEEP_BATCH
    cfg = _write(tmp_path, _small_sweep(axes=[
        {"name": "omega_p", "lo": 0.8, "hi": 1.2, "steps": 5},
        {"name": "lambda", "lo": 0.1, "hi": 0.3, "steps": 5}]))
    blobs = []
    for workers, sub in (("1", "a"), ("2", "b")):
        out = tmp_path / sub
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 0
        blobs.append((out / "sweep.csv").read_bytes())
    assert blobs[0] == blobs[1]


_SWEEP_AXES = ["omega_p", "lambda", "s", "T"]
_SWEEP_RECORD = ("c", "omega_sync", "regime", "below_floor", "mi")
_SWEEP_POINTS = st.tuples(st.floats(0.5, 1.5), st.floats(0.05, 0.45),
                          st.floats(0.5, 3.0),
                          st.sampled_from([0.0, 0.3]) | st.floats(0.0, 2.0))


def _sweep_cells(base, points, plan):
    """The sweep.csv cells of ``points``, evaluated as cmd_sweep does: in
    batches of _SWEEP_BATCH, serially."""
    return [[cli._cell(row[c]) for c in cli._sweep_columns(_SWEEP_RECORD)]
            if err is None else err
            for row, err in cli._sweep_results(base, _SWEEP_AXES, points,
                                               _SWEEP_RECORD, plan, 1)]


@settings(max_examples=25)
@given(points=st.lists(_SWEEP_POINTS, min_size=9, max_size=9),
       failing=st.integers(1, 6))
def test_sweep_batches_give_the_rows_of_single_points(points, failing):
    """A point's row does not depend on the batch it is evaluated in:
    grids one short of a batch, one batch, and one batch plus a ragged
    tail give, cell for cell, the rows of the same points evaluated one by
    one (batches of one).  A point whose setup fails mid-batch (s = 5000
    makes J non-finite) keeps its error text on its own row, and its
    neighbours keep their rows."""
    size = cli._SWEEP_BATCH
    assert size == 8
    base = parse_run_config(_run_cfg())
    plan = cli.sync_plan(base.time_grid.times(), base.analysis)
    # E1 > omega_p = 1.5, so J(E1) ~ E1**5000 overflows
    points[failing] = (1.5, points[failing][1], 5000.0, points[failing][3])
    alone = [_sweep_cells(base, [p], plan)[0] for p in points]
    assert alone[failing].startswith("ValueError: bath: J must be finite")
    assert all(isinstance(c, list) for k, c in enumerate(alone) if k != failing)
    for n in (size - 1, size, size + 1):
        assert _sweep_cells(base, points[:n], plan) == alone[:n]


def test_sweep_batch_keeps_a_signal_failure_on_its_row(monkeypatch):
    """A point that passes its setup but fails inside the batch (here a
    state of trace 2, which the evolution's state check rejects) has the
    error it has alone: the batch is then evaluated point by point, and
    its neighbours keep their rows."""
    base = parse_run_config(_run_cfg())
    plan = cli.sync_plan(base.time_grid.times(), base.analysis)
    points = [(w, 0.2, 1.0, 0.0) for w in (0.8, 0.9, 1.1, 1.2)]
    good = _sweep_cells(base, points, plan)
    apply = cli._apply_axes

    def broken(base, names, values):
        rc = apply(base, names, values)
        return replace(rc, initial_state=2.0 * rc.rho0) if values[0] == 1.1 else rc

    monkeypatch.setattr(cli, "_apply_axes", broken)
    cells = _sweep_cells(base, points, plan)
    assert cells[2] == "StateValidationError: trace deviates from 1 by 1"
    assert cells[:2] + cells[3:] == good[:2] + good[3:]


def _random_density(rng) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# J = 0.02 w^1.5 tabulated over every E1 and E2 of _SWEEP_POINTS
_TABLE = {"kind": "tabulated",
          "points": [[w, 0.02 * w ** 1.5] for w in np.geomspace(0.05, 5.0, 30)]}
_BATHS = {"cutoff": dict(OHMIC), "no cutoff": dict(OHMIC, omega_c=None),
          "tabulated": _TABLE}


def _batch_terms(base, points):
    """(amps, exponents) of ``points`` set up as one batch."""
    eig, rates, _, rho0 = cli._batch_setup(base, points)
    return dynamics._signal_terms(dynamics._blocks(eig, rates, rho0),
                                  eig.weights)


@settings(max_examples=60)
@given(points=st.lists(_SWEEP_POINTS, min_size=1, max_size=12),
       bath=st.sampled_from(sorted(_BATHS)), seed=st.integers(0, 2 ** 16),
       own=st.lists(st.booleans(), min_size=12, max_size=12),
       split=st.integers(0, 12))
def test_batch_setup_matches_the_single_point_oracle(points, bath, seed, own,
                                                     split):
    """A batch's amplitudes and exponents are, point by point, those of the
    scalar formulas (oracles.point_signal_terms) to 1e-12 of their largest
    entry, over the omega_p, lambda, s and T axes, power-law baths with and
    without a cutoff, a tabulated bath, and density-matrix states, the
    base's or a point's own; and a point's bits do not depend on the batch
    it is set up in."""
    rng = np.random.default_rng(seed)
    state = _random_density(rng)
    base = parse_run_config(_run_cfg(
        bath=_BATHS[bath],
        initial_state=np.stack((state.real, state.imag), -1).tolist()))
    names = ["omega_p", "lambda", "s", "T"]
    if bath == "tabulated":     # no s axis
        names, points = names[:2] + names[3:], [p[:2] + p[3:] for p in points]
    grid = [cli._apply_axes(base, names, values) for values in points]
    grid = [replace(p, initial_state=_random_density(rng)) if mine else p
            for p, mine in zip(grid, own)]
    amps, exponents = _batch_terms(base, grid)
    for p, a, z in zip(grid, amps, exponents):
        values = dict(p.values, omega_q=1.0)
        pair = QubitPairParams(omega_q=1.0, omega_p=values["omega_p"],
                               lam=values["lambda"], temperature=values["T"])
        model = (replace(base.bath, s=values["s"]) if "s" in values
                 else base.bath)
        want_a, want_z = point_signal_terms(pair, model, p.rho0, base.kappa)
        assert np.max(np.abs(a - want_a)) <= 1e-12 * np.max(np.abs(want_a))
        assert np.max(np.abs(z - want_z)) <= 1e-12 * np.max(np.abs(want_z))
    parts = [grid[:split], grid[split:]] + [[p] for p in grid]
    for part, start in zip(parts, [0, split] + list(range(len(grid)))):
        if part:
            part_a, part_z = _batch_terms(base, part)
            assert part_a.tobytes() == amps[start:start + len(part)].tobytes()
            assert part_z.tobytes() == \
                exponents[start:start + len(part)].tobytes()


def test_sweep_point_same_row_on_late_span():
    """A sweep evolves only the late span; each recordable reads the late
    window or the steady state, so the row is the one the whole grid gives
    (omega_sync to the rounding of the grid step the span reads)."""
    from syncprobe import cli

    base = parse_run_config(_run_cfg())
    full = base.time_grid.times()
    part = full[cli.late_span(full, base.analysis)]
    assert part.size == 2250
    record = ("c", "omega_sync", "regime", "below_floor", "mi", "correlator")
    regimes = set()
    for values in ((0.8, 0.2), (1.2, 0.2), (1.0, 0.05), (1.3, 0.45)):
        a = cli._sweep_point(base, ["omega_p", "lambda"], values, record,
                             cli.sync_plan(full, base.analysis, slice(None)))
        b = cli._sweep_point(base, ["omega_p", "lambda"], values, record,
                             cli.sync_plan(full, base.analysis))
        wa, wb = a.pop("omega_sync"), b.pop("omega_sync")
        assert b == a, values
        assert (wa is None and wb is None) or abs(wb - wa) <= 1e-15 * wa
        regimes.add(a["regime"])
    assert {"InPhase", "AntiPhase"} <= regimes


def test_sweep_correlator_einsum_matches_state_loop():
    """The correlator recordable, one einsum against the operator rotated
    into the eigenmode basis, equals the mean |spin_correlator| of every
    late-window state rotated back, on figcorr-shaped points."""
    from syncprobe import cli
    from syncprobe.signal_analysis import spin_correlator

    base = parse_run_config(get_preset("figcorr")["base"])
    times = base.time_grid.times()
    times = times[cli.late_span(times, base.analysis)]
    lo, hi = base.analysis.late_window
    for values in ((0.5, 0.7), (1.0, 0.95), (2.0, 1.05), (1.5, 1.3)):
        row = cli._sweep_point(base, ["s", "omega_p"], values,
                               ("correlator",),
                               cli.sync_plan(times, base.analysis, slice(None)))
        s, omega_p = values
        rc = replace(base, params=replace(base.params, omega_p=omega_p),
                     bath=replace(base.bath, s=s))
        eig, rates, v, _ = cli.simulate(rc.params, rc.bath, times, rc.rho0,
                                        rc.kappa)
        states = cli.eigenmode_states(
            eig, rates, cli.to_eigenmode_basis(rc.rho0, v), times)
        sel = (times >= lo) & (times <= hi)
        loop = np.mean([abs(spin_correlator(cli.to_computational_basis(s, v)))
                        for s in states[sel]])
        # the correlator is 1e-7 to 3e-4 here, so hold it relatively: that
        # is far inside 1e-15 absolute
        assert loop > 0.0
        assert row["correlator"] == pytest.approx(loop, rel=1e-14, abs=0.0)


def test_sweep_and_scan_build_no_operators(tmp_path, monkeypatch):
    """Per-point work rotates with the closed-form transform; the operator
    algebra of build_operators is a reference for the tests only."""
    from syncprobe import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("build_operators called on the per-point path")

    for module in (cli, probe_protocol):
        monkeypatch.setattr(module, "build_operators", forbidden)
    cfg = _write(tmp_path, _small_sweep(
        record=["c", "omega_sync", "regime", "below_floor", "mi",
                "correlator"]), "sweep.json")
    assert main(["sweep", "--config", str(cfg), "--out",
                 str(tmp_path / "sweep"), "--workers", "1"]) == 0
    cfg = _write(tmp_path, {"lambda": 0.2, "bath": dict(OHMIC),
                            "grid": {"lo": 0.93, "hi": 1.07, "steps": 5}},
                 "scan.json")
    assert main(["scan-transition", "--config", str(cfg), "--out",
                 str(tmp_path / "scan"), "--workers", "1"]) == 0


def test_only_the_correlator_builds_dense_states(tmp_path, monkeypatch):
    """Every other path reads signals alone; a correlator sweep builds the
    states once per point, on the span it evolved."""
    calls = []
    real = cli.eigenmode_states

    def spy(eig, rates, rho0, times):
        calls.append(times.size)
        return real(eig, rates, rho0, times)

    monkeypatch.setattr(cli, "eigenmode_states", spy)
    jobs = [
        ("evolve", _run_cfg()),
        ("sweep", _small_sweep()),
        ("scan-transition", {"lambda": 0.2, "bath": dict(OHMIC),
                             "grid": {"lo": 0.93, "hi": 1.07, "steps": 5}}),
        ("reconstruct", _reconstruct_cfg(method="signal", lambdas=[0.2])),
    ]
    for command, cfg in jobs:
        path = _write(tmp_path, cfg, f"{command}.json")
        assert main([command, "--config", str(path), "--out",
                     str(tmp_path / command), "--workers", "1"]) == 0
    assert calls == []
    path = _write(tmp_path, _small_sweep(record=["correlator"]), "corr.json")
    assert main(["sweep", "--config", str(path), "--out",
                 str(tmp_path / "corr"), "--workers", "1"]) == 0
    assert calls == [2250] * 4


def test_sweep_partial_failure(tmp_path):
    # gamma0 = 0 leaves no unique steady state, so recording mi must fail
    # per point while the run itself carries on.
    cfg = _small_sweep(record=["mi", "regime"])
    cfg["base"]["bath"] = dict(OHMIC, gamma0=0.0)
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out),
                 "--workers", "1"]) == 1
    rows = list(csv.DictReader(open(out / "sweep.csv")))
    assert len(rows) == 4
    assert all("NoUniqueSteadyStateError" in r["errors"] for r in rows)
    assert all(r["mi"] == "" for r in rows)
    summary = json.loads((out / "sweep_config.json").read_text())
    assert summary["failures"] == 4


def _sweep_raising(monkeypatch, error):
    """A sweep whose point at omega_p 1.2 raises ``error`` in its setup,
    the one step a sweep takes for each point of a batch."""
    setup = cli.pair_setup

    def raising(params, model, kappa):
        if params.omega_p == 1.2:
            raise error
        return setup(params, model, kappa)

    monkeypatch.setattr(cli, "pair_setup", raising)


def test_sweep_records_input_errors(tmp_path, monkeypatch):
    _sweep_raising(monkeypatch, ValueError("bad point"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(_write(tmp_path, _small_sweep())),
                 "--out", str(out), "--workers", "1"]) == 1
    rows = list(csv.DictReader(open(out / "sweep.csv")))
    assert [r["errors"] for r in rows] == ["", "", "ValueError: bad point",
                                           "ValueError: bad point"]


def test_sweep_propagates_bugs(tmp_path, monkeypatch):
    """Only input errors become cells: any other exception (a failed
    convention check, say) stops the sweep and writes no sweep.csv."""
    _sweep_raising(monkeypatch, RuntimeError("a bug"))
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="a bug"):
        main(["sweep", "--config", str(_write(tmp_path, _small_sweep())),
              "--out", str(out), "--workers", "1"])
    assert not (out / "sweep.csv").exists()


def test_sweep_records_non_finite_spectral_density(tmp_path):
    cfg = _small_sweep(axes=[{"name": "s", "values": [1.0, 5000]}])
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(_write(tmp_path, cfg)),
                 "--out", str(out), "--workers", "1"]) == 1
    rows = list(csv.DictReader(open(out / "sweep.csv")))
    assert rows[0]["errors"] == "" and rows[0]["regime"] == "InPhase"
    assert rows[1]["errors"].startswith(
        "ValueError: bath: J must be finite at mode 1")


def test_sweep_temperature_axis(tmp_path):
    cfg = {
        "base": _run_cfg(params={"omega_p": 0.8, "lambda": 0.2}),
        "axes": [{"name": "T", "values": [0.0, 10.0]}],
        "record": ["regime", "below_floor"],
    }
    path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out),
                 "--workers", "1"]) == 0
    rows = list(csv.DictReader(open(out / "sweep.csv")))
    assert rows[0]["regime"] == "AntiPhase"
    assert rows[0]["below_floor"] == "0"
    # at T = 10 the probe dies long before the late window
    assert rows[1]["regime"] == "NoSync"
    assert rows[1]["below_floor"] == "1"


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_artifacts(tmp_path):
    cfg = _write(tmp_path, _run_cfg(
        time_grid={"t_max": 320.0, "dt": 0.05},
        windows=[[0.0, 110.0], [200.0, 310.0]]))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "spectrum_0-110.csv").exists()
    assert (out / "spectrum_200-310.csv").exists()
    rec = json.loads((out / "spectra.json").read_text())
    early, late = rec["spectra"]
    assert early["file"] == "spectrum_0-110.csv"
    # two lines early on, one clear survivor late
    assert len(early["peaks"]) >= 2
    freqs = sorted(p["frequency"] for p in early["peaks"][:2])
    assert freqs[0] == pytest.approx(0.894, abs=0.05)
    assert freqs[1] == pytest.approx(1.342, abs=0.05)
    assert late["peaks"][0]["frequency"] == pytest.approx(1.342, abs=0.05)
    with open(out / "spectrum_0-110.csv") as fh:
        assert fh.readline().strip() == "freq,magnitude"


def test_spectrum_requires_windows(tmp_path, capsys):
    cfg = _write(tmp_path, _run_cfg())
    code = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "windows" in capsys.readouterr().err


def test_spectrum_window_validated_before_run(tmp_path):
    cfg = _write(tmp_path, _run_cfg(windows=[[0.0, 110.0], [390.0, 500.0]]))
    out = tmp_path / "out"
    code = main(["spectrum", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    # nothing half-written: validation fired before any simulation
    assert not list(out.glob("spectrum_*.csv"))


@pytest.mark.parametrize("windows", [
    [[0.0, 110.0000001], [0.0, 110.0000002]],
    [[0.0, 110.0], [200.0, 310.0], [0.0, 110.0]],
])
def test_spectrum_file_name_collision_rejected(tmp_path, capsys, windows):
    cfg = _write(tmp_path, _run_cfg(windows=windows))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    j = len(windows) - 1
    assert capsys.readouterr().err == (
        f"error: windows[{j}]: duplicate file name 'spectrum_0-110.csv' "
        "(first at windows[0])\n")
    assert not list(out.iterdir())


# Windows of 64 and 63 samples on a dt = 0.05 grid, counted as
# windowed_fft counts them; 64 is the fewest a spectrum takes.
FULL_WINDOW, SHORT_WINDOW = [200.0, 203.15], [200.0, 203.1]


def test_window_sample_counts_match_windowed_fft():
    times = cli.default_time_grid(400.0, 0.05)
    signal = np.cos(times)
    cli.windowed_fft(signal, times, *FULL_WINDOW)
    with pytest.raises(ValueError, match="holds 63 samples"):
        cli.windowed_fft(signal, times, *SHORT_WINDOW)


@pytest.mark.parametrize("parse, field", [
    (lambda w: parse_run_config(_run_cfg(windows=[[0.0, 110.0], w])),
     "windows[1]"),
    (lambda w: parse_sweep_spec(_sweep_cfg(base=_run_cfg(
        analysis={"late_window": w}))), "base.analysis.late_window"),
    (lambda w: cli._scan_config_from({"t_max": 400.0, "late_window": w}, 1.0),
     "scan.late_window"),
])
def test_window_sample_floor_checked_when_parsed(parse, field):
    parse(FULL_WINDOW)
    with pytest.raises(ConfigError) as err:
        parse(SHORT_WINDOW)
    assert str(err.value).startswith(f"{field}: holds 63 samples")


def test_evolve_checks_late_window_samples_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, _run_cfg(analysis={"late_window": SHORT_WINDOW}))
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: analysis.late_window: holds 63 samples")
    assert not (out / "trajectory.csv").exists()
    cfg = _write(tmp_path, _run_cfg(analysis={"late_window": FULL_WINDOW}))
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["evolve", "spectrum"])
def test_late_window_checked_for_every_run_config(tmp_path, capsys, command):
    """evolve and spectrum read one run config, so they accept the same
    late window; spectrum used to skip the check."""
    cfg = _write(tmp_path, _run_cfg(time_grid={"t_max": 320.0, "dt": 0.05},
                                    analysis={"late_window": [300.0, 400.0]},
                                    windows=[[0.0, 110.0]]))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: analysis.late_window: ends past the time grid's last sample "
        "(320)\n")
    assert not list(out.iterdir())


@pytest.mark.parametrize("parse, field", [
    (lambda w: parse_run_config(_run_cfg(
        analysis={"window": 30.0, "late_window": w})), "analysis.late_window"),
    (lambda w: parse_sweep_spec(_sweep_cfg(base=_run_cfg(
        analysis={"window": 30.0, "late_window": w}))),
     "base.analysis.late_window"),
    (lambda w: cli._scan_config_from(
        {"t_max": 400.0, "window": 30.0, "late_window": w}, 1.0),
     "scan.late_window"),
])
def test_late_window_needs_a_correlation_window_centre(parse, field):
    """With 30-long windows on a 400-long grid the last centre is 382.5:
    [380, 400] holds it, [390, 400] holds none, and its verdict would be
    read off that one window outside it."""
    parse([380.0, 400.0])
    with pytest.raises(ConfigError) as err:
        parse([390.0, 400.0])
    assert str(err.value) == (f"{field}: holds no correlation window centre "
                              "(window 30)")


def test_evolve_refuses_late_window_without_centre(tmp_path, capsys):
    cfg = _write(tmp_path, _run_cfg(analysis={"window": 30.0,
                                              "late_window": [390.0, 400.0]}))
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: analysis.late_window: holds no correlation window centre")
    assert not list(out.iterdir())


# t_max a fraction of a step past the grid's last sample, round(t_max/dt)*dt:
# 400.0, or 2000.0 for the scans.  Each config takes the window's end as an
# offset from that sample.
_OFF_GRID = {
    "evolve": (lambda off: _run_cfg(
        time_grid={"t_max": 400.02, "dt": 0.05},
        analysis={"late_window": [200.0, 400.0 + off]}), "analysis.late_window"),
    "sweep": (lambda off: _sweep_cfg(base=_run_cfg(
        time_grid={"t_max": 400.02, "dt": 0.05},
        analysis={"late_window": [200.0, 400.0 + off]})),
        "base.analysis.late_window"),
    "spectrum": (lambda off: _run_cfg(
        time_grid={"t_max": 400.02, "dt": 0.05},
        windows=[[300.0, 400.0 + off]]), "windows[0]"),
    "scan-transition": (lambda off: {
        "lambda": 0.2, "bath": dict(OHMIC),
        "scan": {"t_max": 2000.02, "late_window": [1600.0, 2000.0 + off]}},
        "scan.late_window"),
    "reconstruct": (lambda off: _reconstruct_cfg(method="signal", scan={
        "t_max": 2000.02, "late_window": [1600.0, 2000.0 + off]}),
        "scan.late_window"),
}


@pytest.mark.parametrize("command", list(_OFF_GRID))
def test_window_past_grid_end_rejected_when_parsed(tmp_path, capsys, command):
    """A window ending between the grid's last sample and t_max fails at
    parse time, naming the field; one ending on that sample runs."""
    make, field = _OFF_GRID[command]
    out = tmp_path / "out"
    cfg = _write(tmp_path, make(0.01))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {field}: ends past the time grid's last sample (")
    assert not list(out.iterdir())
    cfg = _write(tmp_path, make(0.0))
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--workers", "1"]) == 0


@settings(max_examples=150)
@given(dt=st.floats(0.01, 0.2), n=st.integers(70, 400),
       frac=st.one_of(st.just(0.0), st.floats(-0.49, 0.49)),
       width=st.floats(55.0, 80.0),
       end=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       nudge=st.sampled_from([0.0, 5e-9, -5e-9, 5e-11, -5e-11]))
def test_parse_time_window_check_matches_detect_sync(dt, n, frac, width, end,
                                                     nudge):
    """The parse-time check accepts a late window exactly when detect_sync
    runs on the grid the run builds, and on that grid's late span.  t_max
    is ``frac`` steps off the dt lattice; the window ends ``end`` steps plus
    ``nudge`` from the grid's last sample and spans ``width`` steps, about
    the 64 samples a spectrum needs."""
    times = cli.default_time_grid((n + frac) * dt, dt)
    hi = times[-1] + end * dt + nudge
    cfg = cli.SyncConfig(window=8.0 * dt,
                         late_window=(max(0.0, hi - width * dt), hi))
    try:
        cli._checked("late_window", cli.late_span, times, cfg)
        grids = (times, times[cli.late_span(times, cfg)])
        accepted = True
    except ConfigError:
        grids, accepted = (times,), False
    for grid in grids:
        traj = Trajectory(times=grid, sx_q=np.cos(grid), sx_p=np.cos(1.1 * grid))
        try:
            cli.detect_sync(traj, cfg)
            ran = True
        except ValueError:
            ran = False
        assert ran == accepted


@settings(max_examples=150)
@given(dt=st.floats(0.02, 0.2), n=st.integers(70, 300),
       window=st.floats(1.0, 100.0),
       stride=st.one_of(st.none(), st.floats(1.0, 300.0)),
       lo=st.floats(0.0, 1.0), width=st.floats(56.0, 150.0))
@example(dt=0.05, n=200, window=8.0, stride=None, lo=0.5, width=80.0)
@example(dt=0.05, n=200, window=8.0, stride=None, lo=0.5, width=30.0)
@example(dt=0.05, n=200, window=8.0, stride=None, lo=0.9, width=80.0)
@example(dt=0.05, n=200, window=20.0, stride=100.0, lo=0.6, width=70.0)
@example(dt=0.05, n=200, window=300.0, stride=None, lo=0.5, width=70.0)
def test_late_window_rule_is_shared(dt, n, window, stride, lo, width):
    """The CLI's parse check, late_span and detect_sync accept the same
    late windows and refuse the others with the same message: too few
    samples, past the grid, or no correlation window centre in it.  The
    window, stride and width are in grid steps, the start a fraction of
    t_max; the examples take each outcome, and no window fitting the grid."""
    t_max = n * dt
    late = [lo * t_max, lo * t_max + width * dt]
    step = None if stride is None else stride * dt
    messages = []
    try:
        parse_run_config(_run_cfg(
            time_grid={"t_max": t_max, "dt": dt},
            analysis={"window": window * dt, "step": step, "late_window": late}))
        messages.append(None)
    except ConfigError as exc:
        assert exc.field == "analysis.late_window"
        messages.append(exc.message)
    times = cli.default_time_grid(t_max, dt)
    cfg = cli.SyncConfig(window=window * dt, step=step, late_window=tuple(late))
    traj = Trajectory(times=times, sx_q=np.cos(times), sx_p=np.cos(1.1 * times))
    for call in (lambda: cli.late_span(times, cfg),
                 lambda: cli.detect_sync(traj, cfg)):
        try:
            call()
            messages.append(None)
        except ValueError as exc:
            messages.append(str(exc))
    assert messages[1:] == messages[:1] * 2


# ---------------------------------------------------------------------------
# scan-transition

def test_scan_transition_artifact(tmp_path):
    cfg = _write(tmp_path, {
        "lambda": 0.2,
        "bath": dict(OHMIC),
        "grid": {"lo": 0.93, "hi": 1.07, "steps": 5},
    })
    out = tmp_path / "out"
    assert main(["scan-transition", "--config", str(cfg),
                 "--out", str(out)]) == 0
    rec = json.loads((out / "transition.json").read_text())
    assert rec["transition"]["omega_p_bar"] == pytest.approx(0.9996, abs=0.02)
    assert rec["predicted_omega_p_bar"] == pytest.approx(0.9996, abs=1e-4)
    assert abs(rec["difference"]) < 0.02
    assert rec["transition"]["E1"] * rec["transition"]["E2"] == pytest.approx(
        rec["transition"]["omega_p_bar"], rel=1e-9)


def test_scan_transition_default_grid_scales_with_omega_q(tmp_path):
    # the default bracket and grid are in units of omega_q; absolute ones
    # miss this crossing near omega_p = 2
    cfg = _write(tmp_path, {"lambda": 0.4, "omega_q": 2.0, "bath": dict(OHMIC)})
    out = tmp_path / "out"
    assert main(["scan-transition", "--config", str(cfg),
                 "--out", str(out)]) == 0
    rec = json.loads((out / "transition.json").read_text())
    assert rec["predicted_omega_p_bar"] == pytest.approx(1.99684, abs=1e-4)
    grid = rec["config"]["grid"]
    assert grid[-1] - grid[0] == pytest.approx(0.6, rel=1e-9)
    assert abs(rec["difference"]) < 0.01


def test_scan_transition_reads_scan_in_units_of_omega_q(tmp_path, capsys):
    """The same physics at omega_q = 10 (every frequency times 10, gamma0
    times 10^(1 - s), omega_c times 10^s) gives the omega_p_bar / omega_q
    of omega_q = 1.  A scan's late window is checked on the grid the scan
    builds, whose times are the config's divided by omega_q."""
    ratios = []
    for k in (1.0, 10.0):
        cfg = _write(tmp_path, {
            "omega_q": k, "lambda": 0.2 * k, "temperature": 0.3 * k,
            "bath": dict(QUARTIC, gamma0=0.01 / k, omega_c=20.0 * k ** 2),
            "scan": {"t_max": 2000.0, "late_window": [1600.0, 1910.0]}})
        out = tmp_path / f"out{k:g}"
        assert main(["scan-transition", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rec = json.loads((out / "transition.json").read_text())
        ratios.append(rec["transition"]["omega_p_bar"] / k)
    assert abs(ratios[1] - ratios[0]) <= 1e-15
    cfg = _write(tmp_path, {
        "omega_q": 10.0, "lambda": 2.0, "bath": dict(OHMIC),
        "scan": {"t_max": 2000.02, "late_window": [1600.0, 2000.01]}})
    assert main(["scan-transition", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("error: scan.late_window: ends past "
                                       "the time grid's last sample (200)\n")


@pytest.mark.parametrize("command", ["scan-transition", "reconstruct"])
@pytest.mark.parametrize("scan, field", [
    ({"t_max": 100.0, "dt": 200.0, "late_window": [10.0, 50.0]}, "scan.dt"),
    ({"t_max": 100.0, "dt": 1e-5, "late_window": [10.0, 50.0]}, "scan"),
    ({"t_max": 1000.0}, "scan.late_window"),
    ({"late_window": [1600.0, 2100.0]}, "scan.late_window"),
])
def test_scan_config_field_errors(tmp_path, capsys, command, scan, field):
    cfg = ({"lambda": 0.2, "bath": dict(OHMIC), "scan": scan}
           if command == "scan-transition"
           else _reconstruct_cfg(method="signal", scan=scan))
    code = main([command, "--config", str(_write(tmp_path, cfg)),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("grid, field", [
    ({"lo": 1.0, "hi": 1.0}, "grid.hi"),
    ({"lo": 1.1, "hi": 0.9}, "grid.hi"),
    ({"lo": 0.9, "hi": 1.1, "steps": 1}, "grid.steps"),
    ({"lo": 0.9, "hi": 1.1, "steps": True}, "grid.steps"),
    ({"lo": 0.9, "hi": 1.1, "steps": 2.5}, "grid.steps"),
    ({"lo": 0.0, "hi": 1.1}, "grid.lo"),
    ({"lo": -0.5, "hi": 1.1}, "grid.lo"),
    ({"hi": 1.1}, "grid.lo"),
    ({"lo": 0.9, "hi": 1.1, "step": 3}, "grid"),
])
def test_scan_grid_field_errors(tmp_path, capsys, grid, field):
    cfg = _write(tmp_path, {"lambda": 0.2, "bath": dict(OHMIC), "grid": grid})
    code = main(["scan-transition", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_scan_transition_needs_a_bath(tmp_path, capsys):
    cfg = _write(tmp_path, {"lambda": 0.2})
    assert main(["scan-transition", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "error: bath: missing required section\n"


def test_scan_transition_no_crossing(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "lambda": 0.2,
        "bath": dict(OHMIC),
        "grid": {"lo": 0.7, "hi": 0.8, "steps": 3},
    })
    code = main(["scan-transition", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# reconstruct

QUARTIC = {"kind": "power-law", "gamma0": 0.01, "s": 2.0, "omega_c": 20.0}


def _reconstruct_cfg(**over):
    cfg = {
        "bath": dict(QUARTIC),
        "lambdas": [0.1, 0.15, 0.2, 0.25, 0.3],
        "method": "analytic",
        "fit": {"family": "power-law", "omega_c": 20.0},
    }
    cfg.update(over)
    return cfg


def test_reconstruct_analytic(tmp_path):
    cfg = _write(tmp_path, _reconstruct_cfg())
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
    rec = json.loads((out / "reconstruction.json").read_text())
    assert rec["reconstruction"]["s"] == pytest.approx(2.0, abs=1e-6)
    assert rec["truth_comparison"]["s_truth"] == 2.0
    assert rec["failures"] == []
    rows = list(csv.DictReader(open(out / "constraints.csv")))
    assert len(rows) == 5
    assert [r["lambda"] for r in rows] == sorted(r["lambda"] for r in rows)


@pytest.mark.parametrize("command, cfg", [
    ("scan-transition", {"lambda": 0.2, "bath": dict(OHMIC, omega_c=1e300)}),
    ("reconstruct", _reconstruct_cfg(fit={"family": "power-law",
                                          "omega_c": 1e300})),
])
def test_overflowing_cutoff_runs(tmp_path, command, cfg):
    path = _write(tmp_path, cfg)
    assert main([command, "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("text", ["1e200", "1e400"])
def test_fit_cutoff_beyond_doubles_is_no_cutoff(tmp_path, text):
    """fit.omega_c follows bath.omega_c's rule: 1e400 (inf once read) and
    1e200 run as no cutoff, and the echo shows the null the fit used, so
    reconstruction.json is the one a null cutoff writes."""
    outs = []
    for name, value in (("big", text), ("null", "null")):
        path = tmp_path / f"{name}.json"
        path.write_text(_with_cutoff(_reconstruct_cfg(), "fit", value))
        outs.append(tmp_path / name)
        assert main(["reconstruct", "--config", str(path),
                     "--out", str(outs[-1])]) == 0
    rec = json.loads((outs[0] / "reconstruction.json").read_text())
    assert rec["config"]["fit"]["omega_c"] is None
    assert (outs[0] / "reconstruction.json").read_bytes() == \
        (outs[1] / "reconstruction.json").read_bytes()


def test_reconstruct_from_constraints_file(tmp_path):
    cfg = _write(tmp_path, _reconstruct_cfg())
    first = tmp_path / "first"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(first)]) == 0
    replay = _write(tmp_path, {
        "constraints_file": str(first / "constraints.csv"),
        "fit": {"family": "power-law", "omega_c": 20.0},
    }, name="replay.json")
    second = tmp_path / "second"
    assert main(["reconstruct", "--config", str(replay),
                 "--out", str(second)]) == 0
    a = json.loads((first / "reconstruction.json").read_text())
    b = json.loads((second / "reconstruction.json").read_text())
    # full-precision CSV: the replayed fit lands on identical digits
    assert a["reconstruction"]["s"] == b["reconstruction"]["s"]
    assert b["truth"] is None


def test_reconstruct_failed_write_keeps_previous_constraints(tmp_path,
                                                             monkeypatch):
    """A write that fails midway leaves the last complete constraints.csv
    and no temporary file in --out."""
    from syncprobe import cli

    cfg = _write(tmp_path, _reconstruct_cfg())
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_rows(constraints):
        yield cli.TRANSITION_RECORD_KEYS
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "_constraints_to_rows", failing_rows)
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_write_columns_matches_the_per_row_format(tmp_path):
    """Each chunk formatted with one % gives the bytes of one '%.17g' row at
    a time: signed zeros, subnormals, the largest doubles, NaN and inf
    included, across a chunk boundary."""
    cells = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
             np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0, 12345.678]
    rng = np.random.default_rng(0)
    columns = [rng.choice(cells, size=65536 + 5) for _ in range(3)]
    columns[0][:len(cells)] = cells
    path = tmp_path / "columns.csv"
    cli._write_columns(path, ("a", "b", "c"), *columns)
    rows = "".join("%.17g,%.17g,%.17g\n" % (a, b, c)
                   for a, b, c in zip(*(col.tolist() for col in columns)))
    text = path.read_text()
    assert text == "a,b,c\n" + rows
    assert [line.split(",")[0] for line in text.splitlines()[1:10]] == [
        "-0", "0", "4.9406564584124654e-324", "-4.9406564584124654e-324",
        "1e+308", "-1.7976931348623157e+308", "nan", "inf", "-inf"]


def test_evolve_failed_write_leaves_no_file(tmp_path, monkeypatch):
    from syncprobe import cli

    class FailingColumn:
        """A last column that fails once the header is written."""

        def __getitem__(self, rows):
            raise OSError("disk quota exceeded")

    write_columns = cli._write_columns
    monkeypatch.setattr(cli, "_write_columns", lambda path, header, *cols:
                        write_columns(path, header, *cols[:-1], FailingColumn()))
    cfg = _write(tmp_path, _run_cfg())
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


def test_reconstruct_single_constraint_tabulated(tmp_path, capsys):
    path = tmp_path / "constraints.csv"
    path.write_text(
        "lambda,omega_p_bar,E1,E2,ratio,n1,n2,uncertainty\n"
        "0.2,1.076,1.2606,0.8535,2.17,0,0,\n")
    cfg = _write(tmp_path, {
        "constraints_file": str(path),
        "fit": {"family": "tabulated"},
        "datum": {"fwhm": 0.05, "omega": 1.26, "trig_sq": 0.5},
    })
    code = main(["reconstruct", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "constraint" in capsys.readouterr().err


@pytest.mark.parametrize("column, value", [
    ("lambda", "nan"), ("omega_p_bar", "inf"), ("n1", "nan"),
    ("n2", "-inf"), ("uncertainty", "nan")])
def test_reconstruct_rejects_non_finite_constraint_row(tmp_path, capsys,
                                                      column, value):
    row = {"lambda": "0.2", "omega_p_bar": "1.076", "E1": "1.2606",
           "E2": "0.8535", "ratio": "2.17", "n1": "0", "n2": "0",
           "uncertainty": ""}
    row[column] = value
    path = tmp_path / "constraints.csv"
    path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    cfg = _write(tmp_path, {"constraints_file": str(path)})
    code = main(["reconstruct", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "constraints_file: row 1:" in capsys.readouterr().err


def test_reconstruct_rejects_negative_occupation_row(tmp_path, capsys):
    """This row was fitted; a Bose occupation below 0 is unphysical."""
    path = tmp_path / "constraints.csv"
    path.write_text("lambda,omega_p_bar,E1,E2,ratio,n1,n2,uncertainty\n"
                    "0.2,1.076,1.2606,0.8535,2.17,-1,0,\n")
    cfg = _write(tmp_path, {"constraints_file": str(path)})
    code = main(["reconstruct", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: constraints_file: row 1: n1 must be >= 0, got -1.0\n")


def test_reconstruct_reports_each_failed_coupling_on_one_line(tmp_path, capsys):
    cfg = _write(tmp_path, _reconstruct_cfg(lambdas=[1]))
    code = main(["reconstruct", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    failure = ("lam=1: rate ratio does not change sign on [0.5, 1.5] "
               "(log ratio 3.13 -> 0.774)")
    assert capsys.readouterr().err == (
        f"warning: {failure}\n"
        f"error: every coupling failed to produce a constraint: {failure}\n")


def test_reconstruct_partial_failure_keeps_record_and_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, _reconstruct_cfg(lambdas=[0.2, 1, 0.3]))
    out = tmp_path / "o"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "warning: lam=1: rate ratio does not change sign on [0.5, 1.5] "
        "(log ratio 3.13 -> 0.774)\n")
    rec = json.loads((out / "reconstruction.json").read_text())
    assert rec["failures"] == [{"lambda": 1.0, "error": (
        "rate ratio does not change sign on [0.5, 1.5] "
        "(log ratio 3.13 -> 0.774)")}]


def test_reconstruct_warns_once_per_failed_coupling(tmp_path, capsys):
    """Each failed coupling is reported once, in lambda order, as in the
    record and the count."""
    cfg = _write(tmp_path, _reconstruct_cfg(lambdas=[1.1, 0.2, 1, 0.3]))
    out = tmp_path / "o"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 1
    failures = {1.0: "rate ratio does not change sign on [0.5, 1.5] "
                     "(log ratio 3.13 -> 0.774)",
                1.1: "rate ratio does not change sign on [0.5, 1.5] "
                     "(log ratio 3.24 -> 0.899)"}
    std = capsys.readouterr()
    assert std.err == "".join(f"warning: lam={lam:g}: {msg}\n"
                              for lam, msg in failures.items())
    assert std.out.endswith("; 2 coupling(s) failed\n")
    rec = json.loads((out / "reconstruction.json").read_text())
    assert rec["failures"] == [{"lambda": lam, "error": msg}
                               for lam, msg in failures.items()]


def test_reconstruct_rejects_a_duplicate_coupling_before_any_scan(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "collect_constraints", None)   # never reached
    cfg = _write(tmp_path, _reconstruct_cfg(lambdas=[0.2, 0.3, 0.2],
                                            method="signal"))
    out = tmp_path / "o"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: lambdas[2]: duplicate coupling 0.2 (first at lambdas[0])\n"
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("last_row, message", [
    (b"0.2,1.0,1.2,0.8", "row 2: cell count"),
    (b"0.2,1.076,1.2606,0.8535,2.17,0,0,,9", "row 2: cell count"),
    (b"0.2,1.076,1.2606,0.8535,2.17,0,0," + b"1" * 200_000, "cannot read"),
    (b"\xff\xfe,1,2", "cannot read"),
])
def test_reconstruct_rejects_malformed_constraints_file(tmp_path, capsys,
                                                       last_row, message):
    path = tmp_path / "constraints.csv"
    path.write_bytes(b"lambda,omega_p_bar,E1,E2,ratio,n1,n2,uncertainty\n"
                     b"0.2,1.076,1.2606,0.8535,2.17,0,0,\n" + last_row + b"\n")
    cfg = _write(tmp_path, {"constraints_file": str(path)})
    code = main(["reconstruct", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"constraints_file: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [3, None])
def test_reconstruct_constraints_file_must_be_a_string(tmp_path, capsys, value):
    cfg = _write(tmp_path, {"constraints_file": value})
    out = tmp_path / "o"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: constraints_file: must be a file name, got {value!r}\n"
    assert not out.exists() or not list(out.iterdir())


def test_reconstruct_rejects_mixed_modes(tmp_path, capsys):
    cfg = _write(tmp_path, _reconstruct_cfg(constraints_file="x.csv"))
    code = main(["reconstruct", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "constraints_file" in capsys.readouterr().err


def _header_only(tmp_path):
    path = tmp_path / "constraints.csv"
    path.write_text(",".join(cli.TRANSITION_RECORD_KEYS) + "\n")
    return {"constraints_file": str(path)}


def _without_ratio(tmp_path):
    path = tmp_path / "constraints.csv"
    path.write_text(",".join(k for k in cli.TRANSITION_RECORD_KEYS
                             if k != "ratio") + "\n0.2,1.076,1.26,0.85,0,0,\n")
    return {"constraints_file": str(path)}


@pytest.mark.parametrize("make, argv, prefix", [
    (lambda d: _reconstruct_cfg(fit={"family": "tabulated", "grid": [1.0]}),
     [], "fit.grid: expected a list of >= 2"),
    (lambda d: _reconstruct_cfg(fit={"family": "tabulated",
                                     "grid": [1.0, -0.5]}),
     [], "fit.grid[1]: must be > 0"),
    (lambda d: _reconstruct_cfg(fit={"family": "spline"}),
     [], "fit.family: must be one of power-law, tabulated, got 'spline'"),
    (lambda d: _reconstruct_cfg(method="numeric"),
     [], "method: must be one of analytic, signal, got 'numeric'"),
    (lambda d: _reconstruct_cfg(lambdas=[]),
     [], "lambdas: expected a non-empty list"),
    (lambda d: dict(_header_only(d), temperature=0.5),
     [], "temperature: not used with constraints_file"),
    (_header_only, [], "constraints_file: no constraint rows"),
    (lambda d: _reconstruct_cfg(), ["--workers", "0"], "--workers must be >= 1"),
    (lambda d: _reconstruct_cfg(lambdas=[0.1, 0.2, 0.1]),
     [], "lambdas[2]: duplicate coupling"),
    (_without_ratio, [], "constraints_file: missing column(s): ratio\n"),
    (lambda d: {"lambdas": [0.2]}, [], "bath: missing required section\n"),
])
def test_reconstruct_input_errors_name_their_field(tmp_path, capsys, make,
                                                   argv, prefix):
    cfg = _write(tmp_path, make(tmp_path))
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out),
                 *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {prefix}")
    assert not out.exists() or not list(out.iterdir())


def test_reconstruct_compares_gamma0_with_the_truth(tmp_path):
    """A datum built from the power-law truth pins gamma0 to the truth's."""
    truth = PowerLawCutoff(gamma0=0.01, s=2.0, omega_c=20.0)
    fwhm = KAPPA_DEFAULT * 0.5 * float(evaluate_J(truth, 1.1))
    cfg = _write(tmp_path, _reconstruct_cfg(
        lambdas=[0.1, 0.2, 0.3],
        datum={"fwhm": fwhm, "omega": 1.1, "trig_sq": 0.5}))
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
    comparison = json.loads(
        (out / "reconstruction.json").read_text())["truth_comparison"]
    assert comparison["gamma0_truth"] == 0.01
    assert abs(comparison["gamma0_rel_error"]) <= 1e-9


def test_reconstruct_tabulated_on_given_grid(tmp_path):
    grid = [0.7, 0.9, 1.1, 1.3, 1.5]
    cfg = _write(tmp_path, _reconstruct_cfg(
        fit={"family": "tabulated", "grid": grid},
        datum={"fwhm": 0.02, "omega": 1.2, "trig_sq": 0.5}))
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
    rec = json.loads((out / "reconstruction.json").read_text())
    assert rec["config"]["fit"]["grid"] == grid
    assert rec["reconstruction"]["diagnostics"]["grid_size"] == len(grid)
    assert [w for w, _ in rec["reconstruction"]["model"]["points"]] == grid


_NO_SCIPY_RUN = """
import json, sys
from pathlib import Path
from syncprobe import cli
jobs = json.loads(sys.argv[1])
for name, cfg in jobs:
    path = Path(sys.argv[2]) / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([name, "--config", str(path), "--out",
                     str(Path(sys.argv[2]) / name), "--workers", "1"])
    assert code == 0, (name, code)
print(json.dumps(sorted(m for m in sys.modules
                        if m in ("scipy", "numpy.ma")
                        or m.startswith(("scipy.", "numpy.ma.")))))
"""


def test_cli_commands_never_import_scipy(tmp_path):
    """Every subcommand runs without loading scipy or numpy.ma.  A fresh
    interpreter, since this one has imported both for the tests' oracles."""
    jobs = [
        ("evolve", _run_cfg()),
        ("spectrum", _run_cfg(windows=[[200.0, 310.0]])),
        ("sweep", _sweep_cfg()),
        ("scan-transition", {"lambda": 0.2, "bath": OHMIC,
                             "grid": {"lo": 0.93, "hi": 1.07, "steps": 5}}),
        ("reconstruct", _reconstruct_cfg()),
        ("reconstruct", _reconstruct_cfg(lambdas=[0.2, 0.3], method="signal")),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, json.dumps(jobs), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


# ---------------------------------------------------------------------------
# worker pool

@pytest.fixture
def fake_pool(monkeypatch):
    """The process counts asked of a pool that runs its tasks in this
    process, so no process is started."""
    requested = []

    class FakePool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(probe_protocol.multiprocessing, "Pool", FakePool)
    return requested


def test_run_tasks_clamps_pool_size(monkeypatch, fake_pool):
    """The pool never gets more processes than tasks or cores."""
    for cores, tasks, workers, expected in ((2, 3, 8, [2]), (4, 2, 8, [2]),
                                            (4, 3, 3, [3]), (1, 3, 8, []),
                                            (None, 3, 8, [])):
        fake_pool.clear()
        monkeypatch.setattr(probe_protocol.os, "cpu_count", lambda: cores)
        assert probe_protocol.run_tasks(
            lambda t: (t, None), list(range(tasks)), workers) == [
            (t, None) for t in range(tasks)]
        assert fake_pool == expected, (cores, tasks, workers)


@pytest.mark.parametrize("method, lambdas, workers, cores, expected", [
    ("signal", [0.2, 0.3, 0.25], 8, 2, [2]),     # capped by cores
    ("signal", [0.2, 0.3], 8, 4, [2]),           # by couplings
    ("signal", [0.2, 0.3, 0.25], 2, 4, [2]),     # by --workers
    ("signal", [0.2, 0.3, 0.25], 1, 4, []),
    ("signal", [0.2], 8, 4, []),
    ("analytic", [0.1, 0.15, 0.2, 0.25, 0.3], 8, 4, []),
])
def test_reconstruct_pool_size(tmp_path, monkeypatch, fake_pool, method,
                               lambdas, workers, cores, expected):
    """A signal reconstruct asks for min(workers, couplings, cores)
    processes; an analytic one, or a single coupling, starts none."""
    monkeypatch.setattr(probe_protocol.os, "cpu_count", lambda: cores)
    cfg = _write(tmp_path, _reconstruct_cfg(method=method, lambdas=lambdas))
    assert main(["reconstruct", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--workers", str(workers)]) == 0
    assert fake_pool == expected


def test_reconstruct_pool_leaves_no_process(tmp_path):
    """A real --workers 2 signal reconstruct joins its workers before
    main returns."""
    cfg = _write(tmp_path, _reconstruct_cfg(method="signal",
                                            lambdas=[0.2, 0.3]))
    assert main(["reconstruct", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--workers", "2"]) == 0
    assert multiprocessing.active_children() == []
