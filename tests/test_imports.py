"""No module of the checkout imports a name it never reads.

A stdlib ``ast`` scan of ``src/tricross``, ``tests`` and ``tools``: each
name an import binds must be read as a name somewhere in its module.
The package's ``__init__.py`` is exempt, since its imports are its
exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {ROOT / "src" / "tricross" / "__init__.py"}


def unused_imports(source, filename="<text>"):
    """(line, name) of each name an import of ``source`` binds and no
    name of the module reads, in line order."""
    tree = ast.parse(source, filename)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:  # ``import a.b`` binds ``a``
                bound.setdefault(alias.asname or alias.name.split(".")[0],
                                 node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    files = sorted(path for top in ("src/tricross", "tests", "tools")
                   for path in (ROOT / top).rglob("*.py")
                   if path not in EXEMPT)
    assert len(files) >= 30
    unused = {}
    for path in files:
        found = unused_imports(path.read_text(), str(path))
        if found:
            unused[str(path.relative_to(ROOT))] = found
    assert unused == {}


def test_the_scan_finds_an_import_never_read():
    assert unused_imports("import itertools\nimport os.path\n"
                          "from a import b as c, d\nprint(os, d)\n") == [
        (1, "itertools"), (3, "c")]
