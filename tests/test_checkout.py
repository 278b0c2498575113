"""The test modules run the package of their own checkout.

A script that compares two checkouts may put the other checkout's
``src`` first and then import a test module for its helpers; the tests
must then refuse to run rather than quietly test either package with
the other's helpers.
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent


def run_python(code, cwd):
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=str(cwd), env={"PATH": "/usr/bin:/bin",
                           "PYTHONDONTWRITEBYTECODE": "1"})


@pytest.mark.parametrize("imports", ["import conftest, tricross",
                                     "import test_golden",
                                     "import tricross, test_golden"])
def test_a_test_module_refuses_another_checkouts_package(tmp_path, imports):
    other = tmp_path / "src" / "tricross"
    shutil.copytree(PKG / "src" / "tricross", other,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_python("import sys; sys.path[:0] = [%r, %r]; %s"
                      % (str(tmp_path / "src"), str(PKG / "tests"), imports),
                      tmp_path)
    assert done.returncode == 1
    assert "ImportError: tests in %s need tricross" % PKG in done.stderr
    assert str(other / "__init__.py") in done.stderr


def test_a_test_module_runs_beside_its_own_package(tmp_path):
    done = run_python("import sys; sys.path[:0] = [%r, %r]; "
                      "import test_golden, tricross; print(tricross.__file__)"
                      % (str(PKG / "src"), str(PKG / "tests")), tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(PKG / "src" / "tricross" / "__init__.py")


def test_every_module_parses_with_the_python_310_grammar():
    """CI runs the checks on Python 3.10 as well as 3.11, so every module
    of the checkout must parse with 3.10's grammar, whichever Python runs
    the tests.  3.11's ``except*`` is refused."""
    files = sorted(path for top in ("src", "tests", "tools", "perfbench")
                   for path in (PKG / top).rglob("*.py"))
    assert len(files) >= 37
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
