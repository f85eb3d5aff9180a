"""Print, for each module of `src/sensan`, the statement lines that a pytest
run never executes:

    python3 tools/linetrace.py [pytest arguments]

The arguments go to pytest unchanged, for instance
`python3 tools/linetrace.py -q --continue-on-collection-errors` for the
whole suite or `python3 tools/linetrace.py -q tests/test_cli.py` for one
file. pytest runs in this process, with `src` of this script's checkout
first on the import path, under a line tracer (`sys.settrace`, and
`threading.settrace` for threads) that records lines in `src/sensan/*.py`
only. A statement is found with `ast`; docstrings and `def` and `class`
lines are left out, since a docstring runs no code and a definition runs
at import whatever the tests do. The statement counts as run when a line
event reaches its first line. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sensan"


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statement_lines(path: Path) -> set[int]:
    """First lines of the statements in a module, without docstrings,
    definition lines and `global`/`nonlocal`, which compile to no code."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = {id(n.body[0]) for n in ast.walk(tree)
                  if isinstance(n, (ast.Module,) + _DEFINITIONS) and n.body
                  and isinstance(n.body[0], ast.Expr)
                  and isinstance(n.body[0].value, ast.Constant)
                  and isinstance(n.body[0].value.value, str)}
    return {n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.stmt) and id(n) not in docstrings
            and not isinstance(n, _DEFINITIONS + (ast.Global, ast.Nonlocal))}


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status for `args`, and the lines run in each module
    of the package, by path."""
    import pytest

    modules = {str(p): set() for p in sorted(PACKAGE.glob("*.py"))}
    tracers = {}                        # code file name -> its line tracer

    def recorder(lines: set[int]):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            lines = modules.get(os.path.realpath(name))
            tracers[name] = None if lines is None else recorder(lines)
        return tracers[name]

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        # a tracer left installed runs during interpreter shutdown, when
        # the modules it reads are already torn down
        threading.settrace(None)
        sys.settrace(None)
    return int(status), modules


def main(argv: list[str]) -> int:
    status, modules = traced_run(argv)
    print()
    for path, ran in modules.items():
        missed = sorted(statement_lines(Path(path)) - ran)
        name = Path(path).name
        if missed:
            print(f"{name}: {len(missed)} never ran: "
                  + ", ".join(map(str, missed)))
        else:
            print(f"{name}: every statement ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
