"""Digest pin: every file that the criterion-12 jobs and six presets write,
regenerated at ``--workers 1`` and compared with ``artifacts.sha256``.

A pure refactor leaves every digest as it is.  A numeric change rewrites
the pin with ``PYTHONPATH=src python tests/test_artifact_digests.py`` and
states, in its change notes, each changed file with the deviation this
test reports for it.  Since a digest cannot say how far a file moved,
``artifacts.samples.json`` keeps up to ``SAMPLES`` of each file's
numbers, evenly spaced through it, for the mismatch message.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from syncprobe.cli import main as cli_main
from test_acceptance import BYTE_JOBS

PIN = Path(__file__).with_name("artifacts.sha256")
SAMPLE_PIN = Path(__file__).with_name("artifacts.samples.json")
SAMPLES = 24
# A number as %.17g and json.dumps write one (every pinned file is a CSV or
# JSON file); digits inside names, such as E1, are read too, in file order.
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
# preset: the command that runs it.  figD (410 points, about 0.5 s) pins
# the sweep's batching, a grid of many batches with a ragged tail; fig3b
# (2 501 points at t_max 1000) takes too long for tier-1.
PRESET_JOBS = {"fig1": "evolve", "unitary": "evolve", "fig4": "spectrum",
               "fig5": "spectrum", "figtemp": "sweep", "figcorr": "sweep",
               "figD": "sweep"}


def _regenerate(root: Path) -> dict[str, Path]:
    """Run every pinned job into ``root``: {"job/file": path}."""
    for name, cfg in BYTE_JOBS.items():
        cfg_path = root / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        cli_main([name.removesuffix("-signal"), "--config", str(cfg_path),
                  "--out", str(root / name), "--workers", "1"])
    for name, command in PRESET_JOBS.items():
        cli_main([command, "--preset", name, "--out", str(root / name),
                  "--workers", "1"])
    return {f"{job}/{p.name}": p for job in (*BYTE_JOBS, *PRESET_JOBS)
            for p in sorted((root / job).iterdir())}


def _numbers(path: Path) -> list[float]:
    return [float(x) for x in NUMBER.findall(path.read_text())]


def _sample(values: list[float]) -> dict:
    picks = np.linspace(0, len(values) - 1, min(len(values), SAMPLES))
    return {"count": len(values), "values": [values[i] for i in picks.astype(int)]}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_pin() -> tuple[str, dict[str, str]]:
    """(numpy version, {"job/file": digest}) of the committed pin."""
    version, digests = None, {}
    for line in PIN.read_text().splitlines():
        if line.startswith("# numpy "):
            version = line.removeprefix("# numpy ")
        elif line and not line.startswith("#"):
            digest, name = line.split(maxsplit=1)
            digests[name] = digest
    return version, digests


def _deviation(name: str, path: Path, pinned: dict) -> str:
    """How far the numbers of a changed file moved, at the pinned sample
    positions."""
    now = _sample(_numbers(path))
    if now["count"] != pinned[name]["count"]:
        return f" (number count {pinned[name]['count']} -> {now['count']})"
    dev = max((abs(a - b) for a, b in zip(now["values"], pinned[name]["values"])),
              default=0.0)
    return f" (largest deviation at {len(now['values'])} sampled numbers: {dev:.3g})"


def test_artifacts_match_the_pinned_digests(tmp_path, capsys):
    version, pinned = _read_pin()
    files = _regenerate(tmp_path)
    capsys.readouterr()
    samples = json.loads(SAMPLE_PIN.read_text())
    problems = [f"{name}: missing" for name in sorted(set(pinned) - set(files))]
    problems += [f"{name}: not pinned" for name in sorted(set(files) - set(pinned))]
    problems += [f"{name}: digest differs" + _deviation(name, path, samples)
                 for name, path in files.items()
                 if name in pinned and _digest(path) != pinned[name]]
    assert not problems, (
        f"artifacts differ from {PIN.name} (pinned with numpy {version}, "
        f"running numpy {np.__version__}):\n  " + "\n  ".join(problems))


def _write_pin(root: Path) -> None:
    files = _regenerate(root)
    PIN.write_text(f"# numpy {np.__version__}\n" + "".join(
        f"{_digest(p)}  {name}\n" for name, p in files.items()))
    SAMPLE_PIN.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {json.dumps(_sample(_numbers(p)))}"
        for name, p in files.items()) + "\n}\n")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        _write_pin(Path(tmp))
    print(f"wrote {PIN} and {SAMPLE_PIN}", file=sys.stderr)
