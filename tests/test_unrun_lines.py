"""The line gate, ``tools/unrun_lines.py``, run on a planted package.

A copy of the tool in ``tmp_path/tools/`` gates ``tmp_path/src/fuzzcyl/``
against ``tmp_path/tests/``, because it finds both from its own path.  It
runs in a subprocess, so it never shares a monitoring tool id with a gate
that runs this file.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unrun_lines.py"
MONITORED = sys.version_info >= (3, 12)

PLANTED = '''\
"""Planted lines for the line gate."""


def tag(fn):
    return fn


def sign(x):
    if x < 0:
        return "negative"
    return "non-negative"


@tag
def never_called():
    return "never"


bump = lambda x: (
    x + 1)


def positives(xs):
    return [x for x in xs
            if x > 0]
'''

UNIMPORTED = '''\
"""A module the partial tests never import."""

import functools


@functools.cache
def cached(x):
    return x + 1


class Never:
    """Never built."""

    def method(self):
        return "never"
'''

# the dead branch, the uncalled function's body, the lambda body and the
# comprehension's filter; every other line the gate counts runs.  In the
# module the partial tests never import, only function bodies count: not a
# def line, its decorator or a class body, which run in the enclosing scope
UNRUN = ['src/fuzzcyl/planted.py:10: return "negative"',
         'src/fuzzcyl/planted.py:16: return "never"',
         "src/fuzzcyl/planted.py:20: x + 1)",
         "src/fuzzcyl/planted.py:25: if x > 0]",
         "src/fuzzcyl/unimported.py:8: return x + 1",
         'src/fuzzcyl/unimported.py:15: return "never"']

PARTIAL = '''\
from fuzzcyl import planted


def test_some():
    assert planted.sign(1) == "non-negative"
    assert planted.positives([]) == []
'''

COVERING = '''\
from fuzzcyl import planted, unimported


def test_all():
    assert [planted.sign(-1), planted.sign(1)] == ["negative", "non-negative"]
    assert planted.never_called() == "never"
    assert planted.bump(1) == 2
    assert planted.positives([-1, 2]) == [2]
    assert unimported.cached(1) == 2 and unimported.Never().method() == "never"
'''

FAILING = COVERING + '''

def test_fails():
    assert planted.bump(1) == 3
'''


def run_gate(tmp_path: Path, tests: str, *flags: str) -> subprocess.CompletedProcess:
    """Run a copy of the tool on the planted package and the given tests,
    with the given interpreter flags."""
    (tmp_path / "tools").mkdir()
    tool = Path(shutil.copy(TOOL, tmp_path / "tools"))
    package = tmp_path / "src" / "fuzzcyl"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Planted."""\n', encoding="utf-8")
    (package / "planted.py").write_text(PLANTED, encoding="utf-8")
    (package / "unimported.py").write_text(UNIMPORTED, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_planted.py").write_text(tests, encoding="utf-8")
    return subprocess.run([sys.executable, *flags, str(tool)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)


def listed(result: subprocess.CompletedProcess) -> list[str]:
    return [line for line in result.stdout.splitlines() if line.startswith("src/")]


@pytest.mark.skipif(not MONITORED, reason="the gate needs Python 3.12")
def test_gate_lists_exactly_the_unrun_lines(tmp_path):
    result = run_gate(tmp_path, PARTIAL)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 passed" in result.stdout
    assert listed(result) == UNRUN


@pytest.mark.skipif(not MONITORED, reason="the gate needs Python 3.12")
def test_gate_passes_when_every_line_runs(tmp_path):
    result = run_gate(tmp_path, COVERING)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "1 passed" in result.stdout
    assert listed(result) == []


@pytest.mark.skipif(not MONITORED, reason="the gate needs Python 3.12")
def test_gate_fails_on_a_failing_test(tmp_path):
    result = run_gate(tmp_path, FAILING)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert listed(result) == []


@pytest.mark.skipif(MONITORED, reason="sys.monitoring is present")
def test_gate_refuses_below_python_3_12(tmp_path):
    result = run_gate(tmp_path, COVERING)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: ")
    assert "Python 3.12" in result.stderr and "sys.monitoring" in result.stderr


def test_gate_refuses_without_pytest(tmp_path):
    """With no site directories (``-S``) and no ``PYTHONPATH`` (``-E``),
    pytest cannot be imported.  Below Python 3.12 the version check refuses
    first, and from 3.12 on the pytest check, each with one line."""
    result = run_gate(tmp_path, COVERING, "-E", "-S")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: ")
    assert ("pytest" if MONITORED else "Python 3.12") in result.stderr
