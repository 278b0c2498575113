"""List the statement lines of ``src/tricross`` that the test suite never runs.

Runs pytest in this process under ``sys.settrace`` and prints, per module
of the package except ``cli.py`` (the CLI tests run it in subprocesses,
which the tracer cannot see), every statement line that no test executed,
then the total.  A statement line is the first line of an ``ast`` statement;
docstrings, which never execute, are not counted.  Stdlib only.

    python3 tools/never_run.py            # the tier-1 suite, about 3 minutes
    python3 tools/never_run.py tests/test_moves.py   # extra args go to pytest

Exit status is pytest's when pytest fails; otherwise 1 when a never-run
statement line is not a ``raise`` statement (each such line is marked
``not a raise``), else 0.  A guard that raises may stay untested; any
other statement the suite never runs is dead code or a missing test.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tricross"
SKIP = {"cli.py"}


def statement_lines(path):
    """First line -> statement, of the statements of ``path`` that compile
    to code (the outermost one, when a line starts several)."""
    lines = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        lines.setdefault(node.lineno, node)
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

    total = others = 0
    for name, path in files.items():
        statements = statement_lines(path)
        missed = sorted(statements.keys() - ran[name])
        total += len(missed)
        source = path.read_text().splitlines()
        print("%s: %d never-run statement lines" % (path.name, len(missed)))
        for no in missed:
            mark = ""
            if not isinstance(statements[no], ast.Raise):
                others += 1
                mark = "  <- not a raise"
            print("  %d: %s%s" % (no, source[no - 1].strip(), mark))
    print("total: %d never-run statement lines outside %s, %d not a raise"
          % (total, ", ".join(sorted(SKIP)), others))
    return int(status) or int(others > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
