"""The package module is its docstring alone, every imported name is
used by the module that imports it and is taken from the module that
defines it, only ``intervals`` reads or writes boundary keys, every module
of ``src/fuzzcyl`` imports only modules below it in ``ORDER`` and importing
it loads no module above it, ``oracle`` imports of the package only what
``ORACLE_READS`` lists and only ``checks`` imports ``oracle``, and every
public name of ``src/fuzzcyl`` has a caller.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fuzzcyl" / "__init__.py"
SOURCES = sorted(p for p in PACKAGE.parent.glob("*.py") if p != PACKAGE)
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def test_package_module_is_its_docstring():
    tree = ast.parse(PACKAGE.read_text(encoding="utf-8"))
    assert ast.get_docstring(tree) is not None and len(tree.body) == 1


def package_imports(source: str) -> list[tuple[int, str, str, str]]:
    """Each name an import statement in ``source`` takes from the package,
    relative or absolute, as (line, statement, module, name): the module is
    the one of the package it is taken from, "" for the package itself, so
    ``from .m import x`` and ``from fuzzcyl.m import x`` give ("m", "x"),
    and ``from . import m``, ``from fuzzcyl import m`` and
    ``import fuzzcyl.m`` give ("", "m")."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}", "", alias.name.partition(".")[2])
                      for alias in node.names if alias.name.split(".")[0] == "fuzzcyl"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fuzzcyl"):
            module = (node.module or "") if node.level else node.module.partition(".")[2]
            found += [(node.lineno, f"from {'.' * node.level}{node.module or ''} import "
                       f"{alias.name}", module, alias.name) for alias in node.names]
    return found


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
    ``canonical`` or a ``_``-prefixed name from ``intervals``."""
    found = [f"import {name} (line {line})" for line, _, module, name in package_imports(source)
             if module == "intervals" and (name == "canonical" or name.startswith("_"))]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "keys":
            found.append(f".keys (line {node.lineno})")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "IntervalSet":
            found.append(f"IntervalSet(...) (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "intervals.py"],
                         ids=lambda p: p.name)
def test_only_intervals_handles_keys(path):
    assert key_uses(path.read_text(encoding="utf-8")) == []


def test_guard_sees_key_handling():
    planted = ("from .intervals import IntervalSet, _reduced, canonical, iv_union\n"
               "from .rationals import _private\n"
               "def f(a):\n"
               "    from fuzzcyl.intervals import _reduced\n"
               "    return IntervalSet(a.den, a.keys[::-1])\n")
    assert key_uses(planted) == ["import _reduced (line 1)", "import canonical (line 1)",
                                 "import _reduced (line 4)",
                                 "IntervalSet(...) (line 5)", ".keys (line 5)"]


# The modules of src/fuzzcyl, lowest layer first, in the order of the
# construction: fuzzy sets, the base X_tau, the cylinder X_tau x J, the
# paths and the homotopy, then the checks and the CLI.
ORDER = ("rationals", "intervals", "fuzzy", "base_space", "cylinder", "paths",
         "retraction", "oracle", "functor", "sweeps", "checks", "cli")


def upward_imports(module: str, source: str) -> list[str]:
    """Each import in ``module``, relative or absolute, of a module not
    earlier in ``ORDER``."""
    below = ORDER[:ORDER.index(module)]
    found = [f"{module} -> {target or name} (line {line})"
             for line, _, target, name in package_imports(source)
             if (target or name) not in below]
    return list(dict.fromkeys(found))


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
        "cylinder": ("from . import retraction\n"
                     "from .fuzzy import FuzzySet\n"
                     "import fuzzcyl.checks\n"
                     "def f():\n"
                     "    from fuzzcyl.retraction import CylPoint\n"
                     "    from fuzzcyl import fuzzy, sweeps\n"),
        "rationals": "from fractions import Fraction\nfrom .rationals import frac\n",
    }
    assert [found for module, source in planted.items()
            for found in upward_imports(module, source)] == \
        ["base_space -> cylinder (line 1)", "paths -> retraction (line 4)",
         "cylinder -> retraction (line 1)", "cylinder -> checks (line 3)",
         "cylinder -> retraction (line 5)", "cylinder -> sweeps (line 6)",
         "rationals -> rationals (line 2)"]


@pytest.mark.parametrize("module", ORDER)
def test_importing_a_layer_loads_no_layer_above_it(module):
    code = f"import sys, fuzzcyl.{module}; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    above = ORDER[ORDER.index(module) + 1:]
    assert [m for m in above if f"fuzzcyl.{m}" in loaded] == []


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a def's or class's name, or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


# Each module of src/fuzzcyl, with the names it defines at its top level.
DEFINED = {p.stem: {name for stmt in ast.parse(p.read_text(encoding="utf-8")).body
                    for name in defined_names(stmt)} for p in SOURCES}


def misplaced_imports(source: str, defined: dict[str, set[str]]) -> list[str]:
    """Each import in ``source`` of a name from a package module that does
    not define it at its top level, ``defined`` mapping each module to the
    names it defines; what is taken from the package itself must be one of
    those modules."""
    return [f"{statement} (line {line})"
            for line, statement, module, name in package_imports(source)
            if name not in (defined.get(module, ()) if module else defined)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_names_the_defining_module(path):
    assert misplaced_imports(path.read_text(encoding="utf-8"), DEFINED) == []


def test_guard_sees_a_misplaced_import():
    defined = {"cylinder": {"CylPoint", "tstar"}, "retraction": {"h_eval"},
               "checks": {"run_sweep"}}
    planted = ("from fuzzcyl import checks, tstar\n"
               "from fuzzcyl.retraction import CylPoint, h_eval\n"
               "from .cylinder import CylPoint, _private\n"
               "from . import retraction, FuzzySet\n"
               "import fuzzcyl.checks\n"
               "def f():\n"
               "    from fuzzcyl.nowhere import run_sweep\n")
    assert misplaced_imports(planted, defined) == [
        "from fuzzcyl import tstar (line 1)",
        "from fuzzcyl.retraction import CylPoint (line 2)",
        "from .cylinder import _private (line 3)",
        "from . import FuzzySet (line 4)",
        "from fuzzcyl.nowhere import run_sweep (line 7)"]


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
    return [f"{statement} (line {line})" for line, statement, module, name
            in package_imports(source) if (module, name) not in ORACLE_READS] + \
        [f".{node.attr} (line {node.lineno})" for node in ast.walk(ast.parse(source))
         if isinstance(node, ast.Attribute) and node.attr in ("memo", "level_table")]


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


# The one module of src/fuzzcyl that may import ``oracle``: the checks pair
# its predicates with symbolic sets.  A case source or any other module that
# consulted a predicate would make a fault in the oracle fail the tests of
# the code it checks.
ORACLE_CONSUMERS = ("checks",)


def oracle_consumers(module: str, source: str) -> list[str]:
    """Each import of ``oracle`` in ``module``, relative (``from .oracle
    import x``, ``from . import oracle``) or absolute (``from fuzzcyl.oracle
    import x``, ``import fuzzcyl.oracle``), unless ``ORACLE_CONSUMERS``
    holds the module."""
    if module in ORACLE_CONSUMERS:
        return []
    return [f"{module}: {statement} (line {line})" for line, statement, target, name
            in package_imports(source) if (target or name) == "oracle"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_checks_imports_the_oracle(path):
    assert oracle_consumers(path.stem, path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_oracle_consumer():
    planted = {
        "sweeps": ("from .cylinder import subbasis_realize\n"
                   "from .oracle import subbasis_predicate\n"),
        "cli": "from . import checks, oracle\nimport fuzzcyl.oracle\n",
        "functor": ("def f():\n"
                    "    from fuzzcyl.oracle import expr_predicate\n"),
        "checks": "from .oracle import psi_predicate\n",
    }
    assert [found for module, source in planted.items()
            for found in oracle_consumers(module, source)] == [
        "sweeps: from .oracle import subbasis_predicate (line 2)",
        "cli: from . import oracle (line 1)",
        "cli: import fuzzcyl.oracle (line 2)",
        "functor: from fuzzcyl.oracle import expr_predicate (line 2)"]


# Public names of src/fuzzcyl that no src module, benchmark script or read
# in their own module needs, each kept for the reason given.
ALLOWED = {
    "fence_between": "the shortest fence of the base order, which roadmap item 4 builds on",
    "component_cylinder_expr": "the open expression of component x J, roadmap item 1's start",
    "sweep_continuity_rule": "the sweep of acceptance criterion 8",
    "sweep_complement": "the sweep of acceptance criterion 9",
}


def uncalled_names(sources: dict[str, str], bench: str) -> list[str]:
    """Each top-level public name of the modules in ``sources`` (module name
    to text) with no caller: no other module imports it, its own module
    reads it nowhere outside its own definition, ``bench`` (the text of the
    benchmark scripts) never names it, and ``ALLOWED`` does not hold it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    imported = {(module, name) for text in sources.values()
                for _, _, module, name in package_imports(text)}
    named = set(re.findall(r"\w+", bench))
    found = []
    for module, tree in trees.items():
        reads = {node.id for stmt in tree.body for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and node.id not in defined_names(stmt)}
        for stmt in tree.body:
            for name in defined_names(stmt):
                if not (name.startswith("_") or (module, name) in imported or name in reads
                        or name in named or name in ALLOWED):
                    found.append(f"{module}.{name} (line {stmt.lineno})")
    return found


def test_every_public_name_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    bench = "\n".join(p.read_text(encoding="utf-8")
                      for p in sorted((ROOT / "bench").glob("*.py")))
    assert uncalled_names(sources, bench) == []
    # the list is pinned, so that a new entry is a deliberate edit
    assert sorted(ALLOWED) == ["component_cylinder_expr", "fence_between",
                               "sweep_complement", "sweep_continuity_rule"]


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
              "def fence_between():\n"
              "    pass\n"),
    }
    assert uncalled_names(sources, "LAYERS = ('benched', 'Kept')") == \
        ["a.spare (line 3)", "a.read (line 5)"]
