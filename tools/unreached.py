"""Lines of ``src/otslice`` that no test reaches, with the standard library only.

Runs the test suite in this process under ``sys.settrace`` and
``threading.settrace``, records every line executed in ``src/otslice``, and
prints, per module, the executable lines (those the compiler gives a line
number) that none of the tests reached. Tests that start a fresh interpreter
run untraced, so the lines only they reach are listed too.

Usage, from the root of a source checkout; arguments, if any, go to pytest
in place of the whole ``tests`` directory::

    python tools/unreached.py [tests/test_cli.py ...]
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otslice"


def executable_lines(path: Path) -> set:
    """Line numbers that the compiled code of ``path`` maps instructions to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's start
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """``[1, 2, 3, 7]`` as ``"1-3, 7"``."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    reached = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-p", "no:cacheprovider", "-q", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path) - reached[str(path)]
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} unreached: {ranges(missed)}")
    print(f"{total} executable lines unreached (pytest exit code {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
