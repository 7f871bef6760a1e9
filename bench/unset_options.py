"""List the defaulted parameters of ``src/woldlab`` that no call site sets.

Reads every ``.py`` file under ``src``, ``tests``, ``bench`` and
``perfbench`` with ``ast`` and prints each parameter with a default that no
call passes, by keyword or by position:

    python3 bench/unset_options.py

Calls are matched to definitions by the called name alone (``f(...)``,
``mod.f(...)`` and ``obj.f(...)`` all count for every ``f``), and
``ClassName(...)`` counts for ``ClassName.__init__``.  A call that spreads
``*args`` sets every positional parameter, one that spreads ``**kwargs``
sets every parameter.  So a name shared by two definitions can only hide
an unset option, never invent one; calls made through a variable (a
callback, a wrapper) are not seen.  Only the standard library is used.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "woldlab"
CALLERS = ("src", "tests", "bench", "perfbench")


class Definition:
    """One function of the package and the defaulted parameters it has."""

    def __init__(self, path: Path, node: ast.FunctionDef, owner: str | None):
        self.path, self.line = path, node.lineno
        self.name = f"{owner}.{node.name}" if owner else node.name
        args = node.args
        self.positional = [a.arg for a in args.posonlyargs + args.args]
        if owner is not None and self.positional[:1] in (["self"], ["cls"]):
            self.positional = self.positional[1:]
        defaulted = self.positional[len(self.positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        self.defaulted = defaulted
        self.set: set[str] = set()

    def record(self, call: ast.Call) -> None:
        if any(isinstance(a, ast.Starred) for a in call.args):
            self.set.update(self.positional)
        else:
            self.set.update(self.positional[:len(call.args)])
        for kw in call.keywords:
            if kw.arg is None:
                self.set.update(self.defaulted)
            else:
                self.set.add(kw.arg)

    def unset(self) -> list[str]:
        return [p for p in self.defaulted if p not in self.set]


def definitions(path: Path) -> list[Definition]:
    """Module functions, methods, and functions nested in either."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(Definition(path, child, owner))
                visit(child, None)
            else:
                visit(child, owner)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def main() -> int:
    defs = [d for path in sorted(PACKAGE.glob("*.py"))
            for d in definitions(path)]
    by_name: dict[str, list[Definition]] = {}
    for d in defs:
        short = d.name.rpartition(".")[2]
        by_name.setdefault(short, []).append(d)
        if short == "__init__":
            by_name.setdefault(d.name.partition(".")[0], []).append(d)
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    for d in by_name.get(called_name(node), ()):
                        d.record(node)
    total = 0
    for d in defs:
        for param in d.unset():
            total += 1
            print(f"{d.path.relative_to(ROOT)}:{d.line}: {d.name}({param})")
    print(f"total: {total} defaulted parameters that no call site sets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
