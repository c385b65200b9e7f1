"""Every imported name is used by the module that imports it, only
``intervals`` reads or writes boundary keys, every module of
``src/fuzzcyl`` imports only modules below it in ``ORDER``, ``oracle``
imports of the package only what ``ORACLE_READS`` lists, and every public
name of ``src/fuzzcyl`` has a caller.

The package ``__init__`` is exempt from all five: its imports are the
exports.
"""

import ast
import re
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


# The modules of src/fuzzcyl, lowest layer first, in the order of the
# construction: fuzzy sets, the base X_tau, the cylinder X_tau x J, the
# paths and the homotopy, then the checks and the CLI.
ORDER = ("rationals", "intervals", "fuzzy", "base_space", "cylinder", "paths",
         "retraction", "oracle", "functor", "sweeps", "checks", "cli")


def upward_imports(module: str, source: str) -> list[str]:
    """Each relative import in ``module`` of a module not earlier in ``ORDER``."""
    below = ORDER[:ORDER.index(module)]
    return [f"{module} -> {node.module} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level and node.module not in below]


def test_order_names_every_module():
    assert sorted(ORDER) == sorted(p.stem for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_points_down(path):
    assert upward_imports(path.stem, path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_upward_import():
    planted = {
        "base_space": ("from .cylinder import (\n"
                       "    OpenExpr,\n"
                       "    pi2,\n"
                       ")\n"
                       "from .fuzzy import FuzzyTopology, lattice_closure\n"
                       "from .rationals import ONE, ZERO\n"),
        "paths": ("from .base_space import Order, specialization_preorder\n"
                  "from .cylinder import CylinderOpen\n"
                  "from .rationals import ONE\n"
                  "from .retraction import CylPoint\n"),
        "cylinder": "from . import retraction\nfrom .fuzzy import FuzzySet\n",
        "rationals": "from fractions import Fraction\nfrom .rationals import frac\n",
    }
    assert [found for module, source in planted.items()
            for found in upward_imports(module, source)] == \
        ["base_space -> cylinder (line 1)", "paths -> retraction (line 4)",
         "cylinder -> None (line 1)", "rationals -> rationals (line 2)"]


# What ``oracle`` may import from the package: the types its predicates
# and rasters read, and the symbolic raster it checks them against.  Any
# other import could let a predicate reuse the code it checks.
ORACLE_READS = {
    ("cylinder", "CylinderOpen"), ("cylinder", "OpenExpr"), ("cylinder", "SubbasisElem"),
    ("fuzzy", "FuzzySet"), ("fuzzy", "FuzzyTopology"), ("fuzzy", "GroundSet"),
    ("intervals", "iv_grid"),
}


def oracle_imports(source: str) -> list[str]:
    """Each import of the package in ``source`` that ``ORACLE_READS`` does
    not list, relative (``from .m import x``, ``from . import m``) or
    absolute (``from fuzzcyl.m import x``, ``import fuzzcyl.m``), and each
    read of a topology's ``memo`` or ``level_table``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.split(".")[0] == "fuzzcyl"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fuzzcyl"):
            module = node.module if node.level else node.module.partition(".")[2]
            found += [f"from {'.' * node.level}{node.module or ''} import {alias.name}"
                      f" (line {node.lineno})" for alias in node.names
                      if (module, alias.name) not in ORACLE_READS]
        elif isinstance(node, ast.Attribute) and node.attr in ("memo", "level_table"):
            found.append(f".{node.attr} (line {node.lineno})")
    return found


def test_oracle_imports_none_of_what_it_checks():
    source = (ROOT / "src" / "fuzzcyl" / "oracle.py").read_text(encoding="utf-8")
    assert oracle_imports(source) == []


def test_guard_sees_an_oracle_import():
    planted = ("from fractions import Fraction\n"
               "from .cylinder import CylinderOpen, subbasis_realize\n"
               "from .intervals import iv_grid, iv_union\n"
               "from . import paths\n"
               "from fuzzcyl.fuzzy import FuzzySet, lattice_closure\n"
               "import fuzzcyl.checks\n"
               "def f(topo):\n"
               "    return topo.memo, topo.level_table\n")
    assert oracle_imports(planted) == [
        "from .cylinder import subbasis_realize (line 2)",
        "from .intervals import iv_union (line 3)",
        "from . import paths (line 4)",
        "from fuzzcyl.fuzzy import lattice_closure (line 5)",
        "import fuzzcyl.checks (line 6)",
        ".memo (line 8)", ".level_table (line 8)"]


# Public names of src/fuzzcyl that no src module, benchmark script or read
# in their own module needs, each kept for the reason given.
ALLOWED = {
    "make_interval": "the one level-set constructor clipped to J, which tests build sets with",
    "fence_between": "the shortest fence of the base order, which roadmap item 4 builds on",
    "component_cylinder_expr": "the open expression of component x J, roadmap item 1's start",
    "sweep_continuity_rule": "the sweep of acceptance criterion 8",
    "sweep_complement": "the sweep of acceptance criterion 9",
    "path_to_json": "the path writer, which the pinned draw digests of the tests use",
    "path_from_json": "the path reader, which the README documents",
}


def defined_names(node: ast.stmt) -> list[str]:
    """The public names a top-level statement defines: a def's or class's
    name, or the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def uncalled_names(sources: dict[str, str], bench: str) -> list[str]:
    """Each top-level public name of the modules in ``sources`` (module name
    to text) with no caller: no other module imports it, its own module
    reads it nowhere outside its own definition, ``bench`` (the text of the
    benchmark scripts) never names it, and ``ALLOWED`` does not hold it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    imported = {(node.module, alias.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    named = set(re.findall(r"\w+", bench))
    found = []
    for module, tree in trees.items():
        reads = {node.id for stmt in tree.body for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and node.id not in defined_names(stmt)}
        for stmt in tree.body:
            for name in defined_names(stmt):
                if not ((module, name) in imported or name in reads
                        or name in named or name in ALLOWED):
                    found.append(f"{module}.{name} (line {stmt.lineno})")
    return found


def test_every_public_name_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    bench = "\n".join(p.read_text(encoding="utf-8")
                      for p in sorted((ROOT / "bench").glob("*.py")))
    assert uncalled_names(sources, bench) == []


def test_guard_sees_an_uncalled_name():
    sources = {
        "a": ("from .b import used\n"
              "LIMIT = 3\n"
              "def spare():\n"
              "    return spare()\n"
              "def read():\n"
              "    return LIMIT\n"
              "class Kept:\n"
              "    pass\n"
              "def _private():\n"
              "    pass\n"),
        "b": ("def used():\n"
              "    pass\n"
              "def benched():\n"
              "    pass\n"
              "def make_interval():\n"
              "    pass\n"),
    }
    assert uncalled_names(sources, "LAYERS = ('benched', 'Kept')") == \
        ["a.spare (line 3)", "a.read (line 5)"]
