"""Line coverage of src/cycloclass by the tier-1 suite, with the standard
library only. Not collected by pytest.

    python tests/line_coverage.py [pytest arguments]

Runs pytest in this process (by default on the tests directory, quietly) under
sys.settrace and threading.settrace, tracing only frames whose code lives in
src/cycloclass. A statement line is a line on which the compiled module holds
an instruction, as co_lines() reports it for the module's code objects and
every code object nested in them; a decorated definition counts at its first
decorator. Each statement line that no 'line' event reached is printed as
`path:line: source`, then one summary line per file, then the total. Code
that tests run in a subprocess is not seen. Exits with pytest's status.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cycloclass"


def statement_lines(path: Path) -> set[int]:
    """The lines of path that hold an instruction of its compiled code."""
    lines: set[int] = set()
    pending = [compile(path.read_text("utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending += [c for c in code.co_consts if isinstance(c, CodeType)]
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status on args, and the lines run per file of the package."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                    str(ROOT / "tests")]
    sys.path.insert(0, str(ROOT / "src"))
    status, ran = run_traced(args)
    total = missed = 0
    summary = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = statement_lines(path)
        never = sorted(lines - ran.get(str(path), set()))
        source = path.read_text("utf-8").splitlines()
        for line in never:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        summary.append(f"{path.name}: {len(never)} of {len(lines)} statement lines never ran")
        total += len(lines)
        missed += len(never)
    print("\n".join(summary))
    print(f"total: {missed} of {total} statement lines never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
