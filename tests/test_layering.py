"""Modules of the package do not reach into each other's private helpers,
and no function binds another module's name as a default argument."""

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


def _qoct_bindings(tree) -> tuple[dict[str, str], dict[str, tuple[ast.ImportFrom, str]]]:
    """Local names bound to qoct modules, mapped to the module's name, and
    local names bound by ``from <qoct module> import``, mapped to the import
    statement and the imported name."""
    module_names = {}
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "qoct"
        ):
            for alias in node.names:
                if node.module in (None, "qoct") and alias.name in MODULES:
                    module_names[alias.asname or alias.name] = alias.name
                else:
                    imported[alias.asname or alias.name] = (node, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qoct":
                    local = alias.asname or alias.name.split(".")[0]
                    module_names[local] = alias.name.split(".")[-1]
    return module_names, imported


def private_reaches(source: str) -> list[str]:
    """Private names of other qoct modules that ``source`` imports or reads."""
    tree = ast.parse(source)
    module_names, imported = _qoct_bindings(tree)
    found = [
        f"line {node.lineno}: imports {name}"
        for node, name in imported.values()
        if _private(name)
    ]
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
        "from .integrator import _rk4 as rk4\n"
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
        "line 2: imports _rk4",
        "line 5: reads me._exit_event",
        "line 6: reads qoct.time_optimal._families",
    ]


def imported_defaults(source: str) -> list[str]:
    """Default arguments bound to a name taken from another qoct module.

    Such a default is resolved once, at definition time, so a wrapper later
    installed on the module namespace (the benchmark's per-layer counters)
    never sees the calls made through it.  Constants of ``tolerances`` hide
    no calls and are allowed.
    """
    tree = ast.parse(source)
    module_names, imported = _qoct_bindings(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = [d for d in (*node.args.defaults, *node.args.kw_defaults) if d]
        for default in defaults:
            for sub in ast.walk(default):
                name = _dotted(sub) if isinstance(sub, (ast.Name, ast.Attribute)) else None
                if name is None:
                    continue
                head = name.split(".")[0]
                if head in imported:
                    source_module = (imported[head][0].module or "").split(".")[-1]
                elif "." in name and head in module_names:
                    source_module = module_names[head]
                else:
                    continue
                if source_module != "tolerances":
                    found.append(f"line {sub.lineno}: default binds {name}")
                    break
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_default_argument_binds_another_modules_name(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert imported_defaults(source) == []


def test_checker_flags_defaults_bound_to_imported_names():
    source = (
        "import math\n"
        "from .elliptic import sncndn as kernel\n"
        "from . import elliptic\n"
        "def f(t, _j=kernel): pass\n"
        "def g(t, *, _e=elliptic.sncndn): pass\n"
        "ctrl = lambda t, _r=2.0, _s=math.sin: _s(_r * t)\n"
        "def h(t, _k=float(rate), _c=math.inf): pass\n"
        "from . import tolerances as tol\n"
        "from .tolerances import STRUCTURAL\n"
        "def p(x, slack=tol.STRUCTURAL, floor=STRUCTURAL): pass\n"
    )
    assert imported_defaults(source) == [
        "line 4: default binds kernel",
        "line 5: default binds elliptic.sncndn",
    ]
