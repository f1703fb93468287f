#!/usr/bin/env python3
"""Lines of src/mzinet that no test runs.

Runs pytest in this process under a ``sys.settrace`` line tracer (standard
library only; threads started while it runs are traced too) and prints each
executable line of src/mzinet that no test reached, as ``path:line: source``,
then a total.  A line is executable when its module's compiled code holds an
instruction for it.  Tests that run the program in a child process (the
command-line and script smoke tests, the numpy-dispatch and BLAS-kernel
guards) are not traced, so a line only they reach is listed as not run.

Usage: python scripts/line_coverage.py [pytest arguments]   (default: tests)
Exit status: pytest's.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mzinet"


def executable_lines(path: Path) -> set:
    """The line numbers of `path` that its compiled code has instructions for."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def traced_run(args) -> tuple:
    """Run pytest on `args` under the line tracer: (exit status, the set of
    (file name, line) pairs run in src/mzinet)."""
    ran = set()
    # a code object's file name, as imported (relative under a relative
    # sys.path entry), -> its absolute path if it lies in src/mzinet, else None
    seen = {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((seen[frame.f_code.co_filename], frame.f_lineno))
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            path = Path(name).resolve()
            seen[name] = str(path) if path.parent == PACKAGE else None
        if seen[name] is None:
            return None
        ran.add((seen[name], frame.f_lineno))
        return local

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(list(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main():
    status, ran = traced_run(sys.argv[1:] or [str(ROOT / "tests")])
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - {n for name, n in ran if name == str(path)}):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines not run")
    return status


if __name__ == "__main__":
    sys.exit(main())
