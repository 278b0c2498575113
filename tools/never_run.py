"""List the statement lines of ``src/tricross`` that the test suite never runs.

Runs pytest in this process under ``sys.settrace`` and prints, per module
of the package except ``cli.py`` (the CLI tests run it in subprocesses,
which the tracer cannot see), every statement line that no test executed,
then the total.  A statement line is the first line of an ``ast`` statement;
docstrings, which never execute, are not counted.  Stdlib only.

    python3 tools/never_run.py            # the tier-1 suite, about 3 minutes
    python3 tools/never_run.py tests/test_moves.py   # extra args go to pytest

Exit status is pytest's.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tricross"
SKIP = {"cli.py"}


def statement_lines(path):
    """First lines of the statements of ``path`` that compile to code."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        lines.add(node.lineno)
    return lines


def main(argv):
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))
             if p.name not in SKIP}
    ran = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"]
                             + (argv or [str(ROOT / "tests")]))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name, path in files.items():
        missed = sorted(statement_lines(path) - ran[name])
        total += len(missed)
        source = path.read_text().splitlines()
        print("%s: %d never-run statement lines" % (path.name, len(missed)))
        for no in missed:
            print("  %d: %s" % (no, source[no - 1].strip()))
    print("total: %d never-run statement lines outside %s"
          % (total, ", ".join(sorted(SKIP))))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
