"""List the lines of ``src/fuzzcyl`` that the test suite never runs.

Runs ``pytest -q -p no:cacheprovider -W error --hypothesis-seed=0 tests``
in this process under ``sys.settrace`` and prints ``file:line: text`` for
every line inside a ``src/fuzzcyl`` function, method, lambda or
comprehension that compiles to code and never ran.  A ``def`` line and its decorators compile
to code in the enclosing scope, not in the function, so they are not
counted.  Exits 1 if a test fails or any line is printed, else 0.

Usage, from any directory: ``python3 tools/unrun_lines.py``.  It needs
only the standard library and the test dependencies, and takes four to
five times as long as the untraced suite.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path

import pytest

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
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "-W", "error",
                            "--hypothesis-seed=0", "tests"])
    finally:
        sys.settrace(None)
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
