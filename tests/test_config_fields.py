"""Config dataclass fields: each declares its range once, and both the
constructor and the CLI hold it to that range.

The table-driven tests read every bounded field from ``field_bounds``, so a
field added with a range is covered here without a new case, and a bound
cannot drift between the library and the CLI.
"""

import inspect
import json
import math
from dataclasses import fields

import pytest

from syncprobe.bath import PowerLawCutoff
from syncprobe.cli import RunConfig, TimeGrid, json_name, main
from syncprobe.probe_protocol import (
    LinewidthDatum,
    ScanConfig,
    TransitionPoint,
    fit_spectral_density,
)
from syncprobe.signal_analysis import SyncConfig
from syncprobe.spin_model import FieldError, QubitPairParams, field_bounds

NAN, INF = float("nan"), float("inf")
OHMIC = {"kind": "power-law", "gamma0": 0.01, "s": 1.0, "omega_c": 20.0}
RUN = {"params": {"omega_p": 1.2, "lambda": 0.2}, "bath": OHMIC}
SCAN = {"lambda": 0.2, "bath": OHMIC}
RECONSTRUCT = {"bath": dict(OHMIC, s=2.0), "lambdas": [0.1, 0.2],
               "method": "analytic"}
DATUM = {"fwhm": 0.05, "omega": 1.26, "trig_sq": 0.5}
CONSTRAINT = {"lam": 0.2, "omega_p_bar": 1.076, "E1": 1.2606, "E2": 0.8535,
              "ratio": 2.17}

# valid constructor arguments of each class, to which one bad field is added
VALID = {
    QubitPairParams: {},
    PowerLawCutoff: {"gamma0": 0.01, "s": 1.0, "omega_c": 20.0},
    SyncConfig: {},
    ScanConfig: {},
    LinewidthDatum: DATUM,
    TransitionPoint: CONSTRAINT,
    RunConfig: {"params": QubitPairParams(omega_p=1.2, lam=0.2),
                "bath": PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=20.0)},
}


def _bounds(cls):
    """The bounds of ``cls``'s fields; a RunConfig's include those of its
    time grid, a part of its own as in the JSON (``time_grid``)."""
    return field_bounds(cls) | (field_bounds(TimeGrid) if cls is RunConfig
                                else {})


def _with(cls, name, value):
    """``cls`` from its VALID arguments with ``value`` for field ``name``."""
    if cls is RunConfig and name in field_bounds(TimeGrid):
        return RunConfig(**VALID[RunConfig], time_grid=TimeGrid(**{name: value}))
    return cls(**dict(VALID[cls], **{name: value}))


def _bad_values(b):
    """NaN, the infinities the field refuses, and a value just past each
    bound: the bound itself where it is excluded, the next double out where
    it is included."""
    values = [NAN, -INF] + ([] if b.infinite else [INF])
    if b.minimum is not None:
        values.append(b.minimum if b.strict else math.nextafter(b.minimum, -INF))
    if b.maximum is not None:
        values.append(math.nextafter(b.maximum, INF))
    return values


CASES = [pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
         for cls in VALID for name, b in _bounds(cls).items()
         for value in _bad_values(b)]


# The ranges the CLI and the constructors accepted before they were
# declared on the fields; "or None" where None is the default.
RANGES = {
    QubitPairParams: {"omega_q": "> 0", "omega_p": "> 0", "lam": ">= 0",
                      "temperature": ">= 0"},
    PowerLawCutoff: {"gamma0": ">= 0", "s": "> 0", "omega_c": "> 0 or None, inf"},
    SyncConfig: {"window": "> 0", "step": "> 0 or None",
                 "sync_threshold": "> 0, <= 1", "nosync_threshold": ">= 0, <= 1",
                 "noise_floor": ">= 0"},
    ScanConfig: {"t_max": "> 0", "dt": "> 0", "window": "> 0",
                 "refine_tol": "> 0", "kappa": "> 0"},
    LinewidthDatum: {"fwhm": "> 0", "omega": "> 0", "trig_sq": "> 0, <= 1",
                     "occupation": ">= 0", "kappa": "> 0"},
    TransitionPoint: {"lam": ">= 0", "omega_p_bar": "> 0", "E1": "", "E2": "",
                      "ratio": "> 0", "n1": ">= 0", "n2": ">= 0",
                      "uncertainty": ">= 0 or None"},
    RunConfig: {"t_max": "> 0", "dt": "> 0", "kappa": "> 0"},
}


def _range_text(b):
    parts = []
    if b.minimum is not None:
        parts.append(f"{'>' if b.strict else '>='} {b.minimum:g}")
    if b.maximum is not None:
        parts.append(f"<= {b.maximum:g}")
    text = ", ".join(parts) + (" or None" if b.default is None else "")
    return text + (", inf" if b.infinite else "")


def test_declared_ranges():
    assert set(RANGES) == set(VALID)
    for cls, ranges in RANGES.items():
        declared = {name: _range_text(b) for name, b in _bounds(cls).items()}
        assert declared == ranges, cls.__name__


def test_every_numeric_field_is_bounded():
    """The seven classes declare a range for every float field, so none is
    left to the CLI alone."""
    for cls in VALID:
        numeric = {f.name for f in fields(cls) if "float" in str(f.type)
                   and "tuple" not in str(f.type)}
        assert numeric == set(field_bounds(cls)), cls.__name__


@pytest.mark.parametrize("cls, name, value", CASES)
def test_constructor_rejects_out_of_range_field(cls, name, value):
    with pytest.raises(FieldError) as err:
        _with(cls, name, value)
    assert str(err.value).startswith(f"{name} must be ")
    assert err.value.field == name


def _cli_case(tmp_path, cls, name, value):
    """(command, config, the start of the error message) for a config that
    is valid but for ``value`` in the place of ``cls``'s field ``name``."""
    key = json_name(name)
    if cls is QubitPairParams:
        return "evolve", dict(RUN, params=dict(RUN["params"], **{key: value})), \
            f"params.{key}: "
    if cls is PowerLawCutoff:
        return "evolve", dict(RUN, bath=dict(OHMIC, **{key: value})), \
            f"bath.{key}: "
    if cls is SyncConfig:
        return "evolve", dict(RUN, analysis={key: value}), f"analysis.{key}: "
    if cls is RunConfig:
        if key == "kappa":
            return "evolve", dict(RUN, kappa=value), "kappa: "
        return "evolve", dict(RUN, time_grid={key: value}), f"time_grid.{key}: "
    if cls is ScanConfig:
        return "scan-transition", dict(SCAN, scan={key: value}), f"scan.{key}: "
    if cls is LinewidthDatum:
        return "reconstruct", dict(RECONSTRUCT, datum=dict(DATUM, **{key: value})), \
            f"datum.{key}: "
    row = {json_name(f.name): CONSTRAINT.get(f.name, f.default)
           for f in fields(TransitionPoint)}
    row[key] = value
    cells = ["" if v is None else repr(v) for v in row.values()]
    path = tmp_path / "constraints.csv"
    path.write_text(",".join(row) + "\n" + ",".join(cells) + "\n")
    return "reconstruct", {"constraints_file": str(path)}, \
        f"constraints_file: row 1: {name} must be "


@pytest.mark.parametrize("cls, name, value", CASES)
def test_cli_rejects_out_of_range_field(tmp_path, capsys, cls, name, value):
    command, cfg, start = _cli_case(tmp_path, cls, name, value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {start}")
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# library inputs that were accepted and then failed somewhere else

def test_nan_coupling_fails_at_construction():
    # simulate used to raise DegenerateSpectrumError, "E2 = nan <= 0"
    with pytest.raises(ValueError, match=r"^lam must be finite, got nan$"):
        QubitPairParams(omega_p=1.2, lam=NAN)


def test_zero_scan_step_fails_at_construction():
    # scan_transition used to divide by it
    with pytest.raises(ValueError, match=r"^dt must be > 0, got 0$"):
        ScanConfig(dt=0)


def test_negative_sync_window_fails_at_construction():
    # detect_sync used to classify on 8-sample windows and report window -1
    with pytest.raises(ValueError, match=r"^window must be > 0, got -1$"):
        SyncConfig(window=-1)


def test_infinite_linewidth_fails_at_construction():
    # the fit used to fail later with "gamma0 must be finite"
    with pytest.raises(ValueError, match=r"^fwhm must be finite, got inf$"):
        LinewidthDatum(**dict(DATUM, fwhm=INF))


def test_sync_thresholds_are_ordered_at_construction():
    with pytest.raises(FieldError, match=r"^nosync_threshold must be below "
                                         r"sync_threshold \(0\.9\)$"):
        SyncConfig(nosync_threshold=0.9)
    assert SyncConfig(sync_threshold=0.5, nosync_threshold=0.4).step is None


def test_none_where_the_default_is_none():
    assert SyncConfig(step=None).step is None
    assert TransitionPoint(**CONSTRAINT, uncertainty=None).uncertainty is None
    assert PowerLawCutoff(gamma0=0.01, s=1.0, omega_c=INF).omega_c is None
    with pytest.raises(FieldError, match=r"^ratio must be finite, got None$"):
        TransitionPoint(**dict(CONSTRAINT, ratio=None))


def test_reconstruct_fit_defaults_are_the_signature_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(RECONSTRUCT))
    assert main(["reconstruct", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    rec = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    fit = rec["config"]["fit"]
    assert fit == {"omega_c": None, "smoothness": 1e-2, "family": "power-law",
                   "grid": None}
    signature = inspect.signature(fit_spectral_density).parameters
    assert fit == {key: signature[key].default for key in fit}
