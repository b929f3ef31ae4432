"""Only ``cli`` knows the file formats: the other modules return dataclasses
and arrays, and none of them names a JSON key, a CSV layout or a record."""

import ast
import re
from pathlib import Path

import syncprobe

_FORMAT_FUNCTION = re.compile(r"json_name|\w+_to_(csv|record|config)|\w+_from_config")


def _format_code(source: str) -> list[str]:
    """Each format function ``source`` defines and each ``asdict`` or
    ``astuple`` it imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and _FORMAT_FUNCTION.fullmatch(node.name):
            found.append(f"def {node.name}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"import {alias.name}" for alias in node.names
                      if alias.name in ("asdict", "astuple")]
    return found


def test_only_cli_knows_file_formats():
    package = Path(syncprobe.__file__).parent
    offenders = {path.name: _format_code(path.read_text(encoding="utf-8"))
                 for path in sorted(package.glob("*.py")) if path.name != "cli.py"}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_format_check_sees_each_form():
    source = ("from dataclasses import asdict, dataclass\n"
              "from dataclasses import astuple as row\n"
              "def json_name(name): ...\n"
              "def model_to_config(model): ...\n"
              "def model_from_config(cfg): ...\n"
              "def spectrum_to_csv(est, fh): ...\n"
              "class Writer:\n"
              "    def metrics_to_record(self): ...\n"
              "def to_eigenmode_basis(rho, transform): ...\n"
              "def config_to_dict(cfg): ...\n")
    assert _format_code(source) == [
        "import asdict", "import astuple", "def json_name",
        "def model_to_config", "def model_from_config", "def spectrum_to_csv",
        "def metrics_to_record"]
