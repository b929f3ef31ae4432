"""No module of the package reaches into another module's private names."""

import ast
from pathlib import Path

import syncprobe


def _private_imports(source: str) -> list[str]:
    """Each ``from <package module> import _name`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and module.split(".")[0] != "syncprobe":
            continue
        found += [f"from {module} import {alias.name}" for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_no_module_imports_private_names():
    package = Path(syncprobe.__file__).parent
    offenders = {path.name: _private_imports(path.read_text(encoding="utf-8"))
                 for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_private_import_check_sees_each_form():
    source = ("from __future__ import annotations\n"
              "from .signal_analysis import (\n"
              "    SyncConfig,\n"
              "    _correlation_windows,\n"
              ")\n"
              "from syncprobe.dynamics import _EVOLVE_CHUNK\n"
              "from numpy import _globals\n")
    assert _private_imports(source) == [
        "from .signal_analysis import _correlation_windows",
        "from syncprobe.dynamics import _EVOLVE_CHUNK"]
