"""Seeded workload generator: one CLI call shape per workload.

Seed 0 reproduces the shapes the workloads are named after; any other seed
jitters grid offsets and couplings within the same ranges, so
the amount of work per call stays the same.  The CLI only ever sees the
generated config file.
"""

import math
import os
import random
from dataclasses import dataclass

KAPPA = 2.0 * math.pi
OHMIC = {"kind": "power-law", "gamma0": 0.01, "s": 1.0, "omega_c": 20.0}
ANALYSIS = {"window": 3.0, "step": None, "sync_threshold": 0.9,
            "nosync_threshold": 0.3, "late_window": [200.0, 310.0],
            "noise_floor": 1e-9}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # CLI subcommand
    config: dict            # written to a file and passed with --config
    workers: int            # --workers for the measured calls
    points: int             # units of work one call completes
    point_kind: str
    ops: int                # operations that can fail in one call


def _run_config(omega_p):
    return {
        "params": {"omega_q": 1.0, "omega_p": omega_p, "lambda": 0.2,
                   "temperature": 0.0},
        "bath": dict(OHMIC),
        "initial_state": "plus-plus",
        "time_grid": {"t_max": 400.0, "dt": 0.05},
        "analysis": dict(ANALYSIS),
        "channel": "probe",
        "kappa": KAPPA,
    }


def _jitter(rng, half_width):
    return 0.0 if rng is None else rng.uniform(-half_width, half_width)


def sweep_map(rng, workers):
    """figD shape: 41 omega_p x 10 lambda points at t_max 400."""
    dw, dl = _jitter(rng, 0.02), _jitter(rng, 0.004)
    cfg = {"base": _run_config(1.0),
           "axes": [{"name": "omega_p", "lo": 0.5 + dw, "hi": 1.5 + dw,
                     "steps": 41},
                    {"name": "lambda", "lo": 0.05 + dl, "hi": 0.5 + dl,
                     "steps": 10}],
           "record": ["c", "omega_sync", "regime"]}
    return Workload("sweep-map", "sweep", cfg, workers, 410, "grid points",
                    410)


TRUTH = {"kind": "power-law", "gamma0": 0.01, "s": 2.0, "omega_c": 20.0}


def reconstruct_signal(rng, workers):
    """Signal-method reconstruction of s = 2 from five couplings in [0.1, 0.3]."""
    lams = [0.1, 0.15, 0.2, 0.25, 0.3]
    if rng is not None:
        lams = ([0.1 + rng.uniform(0.0, 0.01)]
                + [v + _jitter(rng, 0.01) for v in lams[1:-1]]
                + [0.3 - rng.uniform(0.0, 0.01)])
    cfg = {"bath": dict(TRUTH), "lambdas": lams, "method": "signal",
           "fit": {"family": "power-law", "omega_c": TRUTH["omega_c"]}}
    return Workload("reconstruct-signal", "reconstruct", cfg, workers,
                    len(lams), "couplings", len(lams))


BUILDERS = {"sweep-map": sweep_map, "reconstruct-signal": reconstruct_signal}


def pool_workers() -> int:
    """Closed loop on this machine: never more workers than cores."""
    return max(1, min(2, os.cpu_count() or 1))


def make(name: str, seed: int) -> Workload:
    rng = None if seed == 0 else random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, pool_workers())
