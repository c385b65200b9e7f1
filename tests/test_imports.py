"""Every imported name is used by the module that imports it, and only
``intervals`` reads or writes boundary keys.

The package ``__init__`` is exempt from both: its imports are the exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "fuzzcyl").glob("*.py") if p.name != "__init__.py")
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read as a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    assert unused_imports("from a import b, c\nimport d.e\nc()\n") == \
        ["b (line 1)", "d (line 2)"]


def key_uses(source: str) -> list[str]:
    """Each place that handles boundary keys outside ``intervals``: a read
    of a ``.keys`` attribute, an ``IntervalSet(...)`` call, or an import of
    ``canonical`` or a ``_``-prefixed name from ``.intervals``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "keys":
            found.append(f".keys (line {node.lineno})")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "IntervalSet":
            found.append(f"IntervalSet(...) (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "intervals":
            found += [f"import {alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name == "canonical" or alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "intervals.py"],
                         ids=lambda p: p.name)
def test_only_intervals_handles_keys(path):
    assert key_uses(path.read_text(encoding="utf-8")) == []


def test_guard_sees_key_handling():
    planted = ("from .intervals import IntervalSet, _reduced, canonical, iv_union\n"
               "from .rationals import _private\n"
               "def f(a):\n"
               "    return IntervalSet(a.den, a.keys[::-1])\n")
    assert key_uses(planted) == ["import _reduced (line 1)", "import canonical (line 1)",
                                 "IntervalSet(...) (line 4)", ".keys (line 4)"]
