"""List the statements of ``src/woldlab`` that no Tier-1 test executes.

Runs the pytest suite in this interpreter under ``sys.settrace``, recording
the lines run by frames whose code lives in ``src/woldlab``, and prints, per
module, the statements none of whose lines ran:

    python3 bench/untested_lines.py [PYTEST ARGS...]

Extra arguments go to pytest (by default the repository's own test paths,
quietly).  Only the standard library is used.  Code run in a subprocess
(a test that starts ``python -m woldlab``) or in another thread is not
seen.  Tracing every line makes the suite several times slower.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "woldlab"


def code_lines(source: str, filename: str) -> set[int]:
    """Lines that carry bytecode in the module or any code nested in it."""
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def statements(tree: ast.AST):
    """(first line, own lines) of every statement; a compound statement owns
    its header, up to its first nested statement."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        nested = [child.lineno for field in ("body", "orelse", "finalbody",
                                             "handlers", "cases")
                  for child in getattr(node, field, [])]
        stop = min(nested) if nested else node.end_lineno + 1
        yield start, range(start, stop)


def untested(path: Path, ran: set[int]) -> list[int]:
    source = path.read_text()
    executable = code_lines(source, str(path))
    missed = []
    for start, own in statements(ast.parse(source)):
        lines = executable.intersection(own)
        if lines and ran.isdisjoint(lines):
            missed.append(start)
    return sorted(missed)


def runs(lines: list[int]) -> str:
    """1, 2, 3, 7 -> '1-3, 7'."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}-{b}" if a != b else str(a) for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # tests that start a python subprocess import woldlab from here too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", "--continue-on-collection-errors",
                                   "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = untested(path, ran.get(str(path), set()))
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} untested"
              + (f": {runs(missed)}" if missed else ""))
    print(f"total: {total} untested statements (pytest exit code {code})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
