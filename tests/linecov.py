"""Line coverage of src/plexalg under the test suite, with no dependency
beyond pytest.  Run it from the repository root:

    PYTHONPATH=src python tests/linecov.py [pytest args]

It runs pytest with the given arguments (the configured test paths when
none are given) while a sys.settrace hook records every line of
src/plexalg that runs in this process, then prints each line of a function
body that no test ran, as path:line: source, and a count.  Hypothesis
replaces the trace function while it explores examples and does not put
ours back, so the hook is installed again before every test call
(pytest_runtest_call).  Two kinds of line count as not run although a test
runs them: lines that only a subprocess runs (the tests that start a fresh
interpreter), and lines a test runs after it reaches the recursion limit,
since the interpreter drops a trace function that raises.  Nothing is
written: bytecode caching and pytest's cache are off.  The trace makes the
suite about six times slower (8.5 minutes for tests/ on a 2-core VM).
"""

import inspect
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "plexalg"


def _tracer():
    """(trace function, set of the (file name, line) it records): the
    function traces the frames of files in PKG only."""
    ran, traced = set(), {}  # traced: file name -> whether it lies in PKG

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        hit = traced.get(name)
        if hit is None:
            hit = traced[name] = Path(name).resolve().parent == PKG
        return line if hit else None

    return call, ran


def _install(trace):
    sys.settrace(trace)
    threading.settrace(trace)


class _Retrace:
    def __init__(self, trace):
        self.trace = trace

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        _install(self.trace)


def _function_lines(path: Path) -> set:
    """Lines of path that a call of one of its functions or lambdas can
    run: those of every function code object, less its def line."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function's own frame
            lines |= {line for _, _, line in code.co_lines()
                      if line is not None and (line != code.co_firstlineno
                                               or code.co_name == "<lambda>")}
    return lines


def main(argv) -> int:
    sys.dont_write_bytecode = True
    trace, ran = _tracer()
    _install(trace)
    try:
        code = pytest.main(["-p", "no:cacheprovider", *argv],
                           plugins=[_Retrace(trace)])
    finally:
        _install(None)
    ran = {(Path(name).resolve(), line) for name, line in ran}
    missed = total = 0
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text().splitlines()
        lines = _function_lines(path)
        total += len(lines)
        for line in sorted(n for n in lines if (path, n) not in ran):
            missed += 1
            print("%s:%d: %s" % (path.relative_to(ROOT), line,
                                 source[line - 1].strip()))
    print("%d of %d function lines in %s never ran"
          % (missed, total, PKG.relative_to(ROOT)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
