"""Ready-made configurations, one per reproduced figure.

Each preset is a plain JSON-shaped dict in the same schema the --config flag
accepts, so ``--preset fig1`` and a config file are interchangeable.  evolve
presets: fig1, unitary.  spectrum presets: fig4, fig5.  sweep presets:
fig3b, figD, figtemp, figcorr.
"""

import copy

_OHMIC_BATH = {"kind": "power-law", "gamma0": 0.01, "s": 1.0, "omega_c": 20.0}


def _run(omega_p, bath=None, **extra):
    """A run config stating only what differs from the parser's defaults."""
    return {"params": {"omega_p": omega_p, "lambda": 0.2},
            "bath": dict(bath or _OHMIC_BATH), **extra}


_SPECTRUM_WINDOWS = [[0.0, 110.0], [100.0, 210.0], [200.0, 310.0]]

PRESETS = {
    # Synchronized dynamics at omega_p above resonance; trajectory + metrics.
    "fig1": _run(1.2),
    # Same pair with the bath switched off: pure beating, no lock.
    "unitary": _run(1.2, bath={"kind": "power-law", "gamma0": 0.0, "s": 1.0,
                               "omega_c": 20.0}),
    # Probe spectra in three successive windows.
    "fig4": _run(1.2, time_grid={"t_max": 320.0}, windows=_SPECTRUM_WINDOWS),
    # Stronger coupling: the surviving line is wide enough to fit.
    "fig5": _run(1.2, bath={"kind": "power-law", "gamma0": 2.5e-2, "s": 1.0,
                            "omega_c": 20.0},
                 time_grid={"t_max": 320.0},
                 windows=[[0.0, 110.0], [200.0, 310.0]]),
    # |c| map over probe frequency and bath exponent; the low-|c| ridge
    # traces the transition line.
    "fig3b": {
        "base": _run(1.0),
        "axes": [
            {"name": "omega_p", "lo": 0.5, "hi": 1.5, "steps": 60},
            {"name": "s", "lo": 0.5, "hi": 2.0, "steps": 40},
        ],
        "record": ["c", "omega_sync", "regime"],
    },
    # Synchronization diagram over probe frequency and coupling strength.
    "figD": {
        "base": _run(1.0),
        "axes": [
            {"name": "omega_p", "lo": 0.5, "hi": 1.5, "steps": 41},
            {"name": "lambda", "lo": 0.05, "hi": 0.5, "steps": 10},
        ],
        "record": ["c", "regime"],
    },
    # Temperature ladder at the antiphase working point.
    "figtemp": {
        "base": _run(0.8),
        "axes": [{"name": "T", "values": [0.0, 1.0, 10.0]}],
        "record": ["c", "regime", "below_floor"],
    },
    # Late-time interspin correlator and mutual information across the jump.
    "figcorr": {
        "base": _run(1.0),
        "axes": [
            {"name": "s", "values": [0.5, 1.0, 1.5, 2.0]},
            {"name": "omega_p", "lo": 0.7, "hi": 1.3, "steps": 25},
        ],
        "record": ["correlator", "mi", "regime"],
    },
}


def get_preset(name: str) -> dict:
    """Deep copy of a named preset config; KeyError lists what exists."""
    if name not in PRESETS:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return copy.deepcopy(PRESETS[name])
