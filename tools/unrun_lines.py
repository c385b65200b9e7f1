"""List the lines of ``src/fuzzcyl`` that the test suite never runs.

Runs ``pytest -q -p no:cacheprovider -W error --hypothesis-seed=0 tests``
in this process under a ``sys.monitoring`` LINE callback and prints
``file:line: text`` for every line inside a ``src/fuzzcyl`` function,
method, lambda or comprehension that compiles to code and never ran.  A
``def`` line and its decorators compile to code in the enclosing scope, not
in the function, so they are not counted.  Exits 1 if a test fails or any
line is printed, else 0.

Usage, from any directory: ``python3 tools/unrun_lines.py``.  It needs
Python 3.12 or later (``sys.monitoring``, PEP 669) and pytest, and exits 2
with one ``error:`` line without either; it uses only the standard library
and the test dependencies.  The callback disables each source location
after its first event, so the run costs about one plain suite run.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fuzzcyl"


def code_lines(path: Path) -> set[int]:
    """The lines that compile to code inside the functions of one module."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        for const in stack.pop().co_consts:
            if not inspect.iscode(const):
                continue
            stack.append(const)
            if const.co_flags & inspect.CO_OPTIMIZED:  # not a class body
                own = {line for _, _, line in const.co_lines() if line is not None}
                if not const.co_name.startswith("<"):  # the def line
                    own.discard(const.co_firstlineno)
                lines |= own
    return lines


def main() -> int:
    if sys.version_info < (3, 12):
        print("error: the line gate needs Python 3.12 or later for sys.monitoring",
              file=sys.stderr)
        return 2
    try:
        import pytest
    except ImportError as exc:
        print(f"error: the line gate needs pytest, the test dependency ({exc})",
              file=sys.stderr)
        return 2
    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def record(code, line):
        if code.co_filename.startswith(prefix):
            ran.add((code.co_filename, line))
        return monitoring.DISABLE

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    monitoring.use_tool_id(tool, "unrun_lines")
    try:
        monitoring.register_callback(tool, monitoring.events.LINE, record)
        monitoring.set_events(tool, monitoring.events.LINE)
        code = pytest.main(["-q", "-p", "no:cacheprovider", "-W", "error",
                            "--hypothesis-seed=0", "tests"])
    finally:
        monitoring.set_events(tool, monitoring.events.NO_EVENTS)
        monitoring.register_callback(tool, monitoring.events.LINE, None)
        monitoring.free_tool_id(tool)
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(code_lines(path)):
            if (str(path), line) not in ran:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return 1 if code != 0 or unrun else 0


if __name__ == "__main__":
    sys.exit(main())
