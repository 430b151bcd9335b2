"""Modules of the package do not reach into each other's private helpers."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qoct"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_reaches(source: str) -> list[str]:
    """Private names of other qoct modules that ``source`` imports or reads."""
    tree = ast.parse(source)
    module_names = set()  # local names bound to qoct modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "qoct"
        ):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif node.module in (None, "qoct") and alias.name in MODULES:
                    module_names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qoct":
                    module_names.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = _dotted(node.value)
            if base is not None and base.split(".")[0] in module_names:
                found.append(f"line {node.lineno}: reads {base}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_only_public_names_of_other_modules(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert private_reaches(source) == []


def test_checker_flags_private_imports_and_reads():
    source = (
        "from .min_energy import _horizon\n"
        "from . import min_energy as me, tolerances\n"
        "import qoct.time_optimal\n"
        "me._exit_event(1.0)\n"
        "qoct.time_optimal._families(2.0)\n"
        "tolerances.SYNTHESIS_ACCEPT\n"
        "self._private\n"
        "from __future__ import annotations\n"
    )
    assert private_reaches(source) == [
        "line 1: imports _horizon",
        "line 4: reads me._exit_event",
        "line 5: reads qoct.time_optimal._families",
    ]
