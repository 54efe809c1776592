"""List the lines of src/kgpoint that no test runs.

Runs pytest in this process under a `sys.settrace` line tracer and prints
each executable line of `src/kgpoint` that never ran, as `path:line`, then
their count.  A line is executable when a compiled code object of its file
maps an instruction to it.  Subprocesses are not traced, so a line that
only a subprocess reaches is listed too: the list is an upper bound.  Needs
nothing beyond pytest; tracing roughly doubles the suite's wall time.

    python tools/reach.py                 # pytest -q tests
    python tools/reach.py -- -x tests/test_solitary.py

Arguments after `--` replace the default pytest arguments.  The exit status
is pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kgpoint"


def executable_lines(path: Path) -> set[int]:
    """The lines that some instruction of path's code objects maps to."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_pytest(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit status and the lines of each package file that ran."""
    ran: dict[str, set[int]] = defaultdict(set)
    in_package: dict[str, bool] = {}

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        inside = in_package.get(name)
        if inside is None:
            inside = in_package[name] = Path(name).resolve().parent == PACKAGE
        if not inside:
            return None
        # a call event reports the def line, or the line a generator resumes at
        ran[name].add(frame.f_lineno)
        return on_line

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[Path, set[int]] = defaultdict(set)
    for name, lines in ran.items():
        by_path[Path(name).resolve()] |= lines
    return int(status), by_path


def main(argv: list[str]) -> int:
    args = argv[argv.index("--") + 1:] if "--" in argv else ["-q", str(ROOT / "tests")]
    status, ran = traced_pytest(args)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran[path.resolve()]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of {PACKAGE.relative_to(ROOT)} never ran")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
