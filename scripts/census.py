#!/usr/bin/env python3
"""List the statements of the package's functions that a fixed traffic
never runs.

Run from the repository root:

    python3 scripts/census.py

The traffic is two cycles each of the necessity, witness and decompose
workloads of ``perfbench/workloads.py`` at seed 7, every call checked as
the benchmark checks it, then the golden CLI cases of
``scripts/regen_golden.py`` through ``cli.main`` in this process (no child
interpreter).  A line tracer records the lines of ``src/`` that run.  A
statement inside a function body has run when a line of its own has: for
a compound statement (``if``, ``for``, ``try``, ``with``, ...) a line of
its header, for any other one a line it spans.  Docstrings are not
statements here.  Prints, per module, most first, how many statements
never ran and their first lines, consecutive lines as one range, then the
total.  Exits 0; exits 1 if a call fails its check or a case its exit code.
The traced traffic takes a few seconds.
"""

import ast
import contextlib
import io
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SEED = 7
CYCLES = 2

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_lines(node: ast.stmt) -> range:
    """The lines that are ``node``'s own: up to its first nested statement
    for a compound statement, with the decorators of a definition."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path) -> dict[int, range]:
    """The statements inside the function bodies of the module at ``path``:
    first line -> the lines that are its own."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and _is_docstring(node.body[0])
    }
    found = {}
    for function in ast.walk(tree):
        if isinstance(function, _FUNCTIONS):
            for node in ast.walk(function):
                if isinstance(node, ast.stmt) and node is not function and id(node) not in docstrings:
                    found[node.lineno] = _own_lines(node)
    return found


def unrun(src: Path, drive) -> dict[Path, list[int]]:
    """Run ``drive()`` under a line tracer limited to the modules under
    ``src``; return, per module, the first lines of the statements inside
    function bodies that ran no line of their own, in order."""
    paths = {str(p.resolve()): p for p in sorted(src.rglob("*.py"))}
    seen = {name: set() for name in paths}

    def tracer(lines: set):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    tracers = {name: tracer(lines) for name, lines in seen.items()}
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: tracers.get(frame.f_code.co_filename))
    try:
        drive()
    finally:
        sys.settrace(previous)
    return {
        path: sorted(line for line, own in statements(path).items() if seen[name].isdisjoint(own))
        for name, path in paths.items()
    }


def ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` -> ``"3-5, 9"``."""
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def traffic() -> None:
    """The benchmark's library traffic at seed 7, then the golden CLI cases.
    Raises SystemExit(1) on a failed check or a wrong exit code."""
    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
    import regen_golden
    import workloads

    for workload in (workloads.Necessity, workloads.Witness, workloads.Decompose):
        w = workload(ROOT, SEED)
        for i in range(CYCLES):
            for call in w.cycle(i):
                errors = call.check(call.fn())[1]
                if errors:
                    print(f"FAIL {call.label}: {errors[0]}", file=sys.stderr)
                    raise SystemExit(1)
    from stormer_kit import cli

    for name, (code, argv) in regen_golden.CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # as the golden runs' ``-W error``
                got = cli.main(regen_golden.expand([*argv, "--json"]))
        if got != code:
            print(f"FAIL {name}: exit {got} != {code}\n{err.getvalue()}", file=sys.stderr)
            raise SystemExit(1)


def main() -> None:
    result = unrun(SRC, traffic)
    total = 0
    for path, lines in sorted(result.items(), key=lambda kv: (-len(kv[1]), str(kv[0]))):
        if lines:
            total += len(lines)
            print(f"{len(lines):6d}  {path.relative_to(SRC)}  {ranges(lines)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
