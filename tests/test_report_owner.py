"""Only ``cli`` talks to the user: the other modules raise a ValueError for
an input they cannot answer and return per-item failures as values, and
none of them warns, prints or writes to a standard stream."""

import ast
from pathlib import Path

import syncprobe


def _reporting_code(source: str) -> list[str]:
    """Each ``warnings`` import, ``print`` call and ``sys.stdout`` or
    ``sys.stderr`` reference in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "warnings"]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "warnings":
            found.append(f"from {node.module} import")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "print":
            found.append("print()")
        elif isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr") \
                and isinstance(node.value, ast.Name) and node.value.id == "sys":
            found.append(f"sys.{node.attr}")
    return found


def test_only_cli_reports():
    package = Path(syncprobe.__file__).parent
    offenders = {path.name: _reporting_code(path.read_text(encoding="utf-8"))
                 for path in sorted(package.glob("*.py")) if path.name != "cli.py"}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_report_check_sees_each_form():
    source = ("import warnings\n"
              "import os, warnings as w\n"
              "from warnings import warn\n"
              "import sys\n"
              "def f(x):\n"
              "    print(x, file=sys.stderr)\n"
              "    sys.stdout.write(x)\n"
              "    log.print(x)\n"
              "    return other.stderr\n")
    assert _reporting_code(source) == [
        "import warnings", "import warnings", "from warnings import",
        "print()", "sys.stderr", "sys.stdout"]
