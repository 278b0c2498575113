import importlib.util
import itertools
import sys
from pathlib import Path

# The tests run this checkout's package.  A script that puts another
# checkout's src first and then imports a test module would otherwise
# test this checkout's package without a word, or the other one with
# this checkout's helpers: refuse both.
SRC = Path(__file__).resolve().parent.parent / "src"
_found = importlib.util.find_spec("tricross")
if _found is not None and (_found.origin is None or Path(
        _found.origin).resolve().parent.parent != SRC):
    raise ImportError("tests in %s need tricross from %s, but it resolves "
                      "to %s" % (SRC.parent, SRC, _found.origin))
sys.path.insert(0, str(SRC))

import pytest

from tricross import Matching, standard_diagram
from tricross.movegraph import closure
from tricross.moves import move_22


def all_matchings(n):
    ins = [2 * i for i in range(n)]
    outs = [2 * i + 1 for i in range(n)]
    for perm in itertools.permutations(outs):
        yield Matching.from_dict(n, dict(zip(ins, perm)))


@pytest.fixture
def rotation3():
    return Matching.from_dict(3, {0: 3, 2: 5, 4: 1})


@pytest.fixture
def nested3():
    return Matching.from_dict(3, {0: 5, 2: 1, 4: 3})


def closure_applied(diagram, inside=None):
    """``closure``'s moves as (d, site, move, nd, new, vertex), with each
    move it read off a commuting square applied here, so ``nd`` is never
    None.  Every result must have the code of the state the closure
    numbered ``vertex``, and an applied square move the closure's move
    record."""
    codes = [diagram.canonical_code()]
    for d, site, move, nd, new, vertex in closure(diagram, inside):
        if nd is None:
            nd, applied = move_22(d, site)
            assert applied == move
        if new:
            codes.append(nd.canonical_code())
        assert nd.canonical_code() == codes[vertex]
        yield d, site, move, nd, new, vertex


def component_diagrams(matching, strategy="inclusion"):
    """The diagrams of ``enumerate_component(matching, strategy)``, whose
    graph keeps only their keys, in its vertex order: the standard
    diagram, then each state ``closure`` meets first."""
    root = standard_diagram(matching, strategy)
    return [root] + [nd for _, _, _, nd, new, _ in closure(root) if new]
