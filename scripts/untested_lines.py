#!/usr/bin/env python3
"""Print every line of src/qfourier that no Tier-1 test executes.

    python3 scripts/untested_lines.py [pytest arguments]

Run from the repository root. Runs pytest in this process (the
repository's testpaths unless arguments name others, and the package
from src/) under a line tracer built on the standard library's
sys.settrace, so no coverage package is needed. A line is executable when
its module's compiled code has an instruction on it (code.co_lines), and
untested when no trace "line" event reached it. The package is imported
only once tracing has started, so its module-level lines count too.

Each file's untested lines are printed as ranges with their source text;
a range runs over untested executable lines with no executed line between
them. A total follows. Tracing slows the run about 2.3x. The exit status
is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfourier"


class LineTracer:
    """Records the lines executed in the source files under root.

    As a context manager it traces this thread and any thread started
    inside the block, and puts back the tracer that was active before."""

    def __init__(self, root):
        self.prefix = str(Path(root).resolve())
        self.hits = {}  # file name -> set of executed line numbers

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        lines = self.hits.setdefault(name, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def __enter__(self):
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def executable_lines(path):
    """The line numbers of the Python file path that carry an instruction."""
    lines, stack = set(), [compile(Path(path).read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # line 0 or None marks an instruction the compiler added
        lines.update(n for _, _, n in code.co_lines() if n)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def untested_ranges(executable, executed):
    """(first, last) of each run of executable lines that were not
    executed, with no executed line between them."""
    ranges, start, last = [], None, None
    for n in sorted(executable):
        if n in executed:
            if start is not None:
                ranges.append((start, last))
            start = None
        else:
            start = n if start is None else start
            last = n
    if start is not None:
        ranges.append((start, last))
    return ranges


def report(files, hits, base):
    """The untested lines of each file, named relative to base, with their
    source, and a total."""
    out, n_lines, n_exec = [], 0, 0
    for path in files:
        executable = executable_lines(path)
        n_exec += len(executable)
        executed = hits.get(str(Path(path).resolve()), set())
        source = Path(path).read_text().splitlines()
        for first, last in untested_ranges(executable, executed):
            span = f"{first}" if first == last else f"{first}-{last}"
            out.append(f"{Path(path).relative_to(base)}:{span}")
            for n in range(first, last + 1):
                n_lines += n in executable
                out.append(f"  {n:5d}  {source[n - 1]}")
    out.append(f"{n_lines} of {n_exec} executable lines were not executed")
    return "\n".join(out)


def main(argv=None):
    import pytest

    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(PACKAGE.parent))
    with LineTracer(PACKAGE) as tracer:
        status = pytest.main(["--rootdir", str(ROOT), *args])
    print(report(sorted(PACKAGE.glob("*.py")), tracer.hits, ROOT))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
