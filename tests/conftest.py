import importlib.util
import itertools
import random
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

from tricross import (Matching, Region, TripleDiagram, add_loop,
                      enumerate_tilings, inflate, standard_diagram,
                      tiling_to_diagram)
from tricross.diagram import is_source
from tricross.movegraph import closure
from tricross.moves import apply_22


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
    """``closure``'s moves as (d, site, nd, new, vertex), with each move it
    read off a commuting square applied here, so ``nd`` is never None.
    Every result must have the code of the state the closure numbered
    ``vertex``."""
    codes = [diagram.canonical_code()]
    for d, site, nd, new, vertex in closure(diagram, inside):
        if nd is None:
            nd = apply_22(d, site)
        if new:
            codes.append(nd.canonical_code())
        assert nd.canonical_code() == codes[vertex]
        yield d, site, nd, new, vertex


def component_diagrams(matching, strategy="inclusion"):
    """The diagrams of ``enumerate_component(matching, strategy)``, whose
    graph keeps only their keys, in its vertex order: the standard
    diagram, then each state ``closure`` meets first."""
    root = standard_diagram(matching, strategy)
    return [root] + [nd for _, _, nd, new, _ in closure(root) if new]


def dual_matching(w, h):
    tiling = enumerate_tilings(Region.rectangle(w, h))[0]
    return tiling_to_diagram(tiling).trace()[0]


def legs_22(site):
    """Old port -> new port of the four legs a 2<->2 move carries."""
    (X, x1), (Y, y1) = site.x, site.y
    return {('c', X, (x1 + 4) % 6): ('c', Y, y1),
            ('c', X, (x1 + 5) % 6): ('c', Y, (y1 + 1) % 6),
            ('c', Y, (y1 + 4) % 6): ('c', X, x1),
            ('c', Y, (y1 + 5) % 6): ('c', X, (x1 + 1) % 6)}


def diagrams_with_loops():
    """Seeded inflations, and 4x3 dual vertices given free loops."""
    out = []
    for seed in range(16):
        rng = random.Random(seed)
        n = 3 + seed % 4
        outs = [2 * i + 1 for i in range(n)]
        rng.shuffle(outs)
        m = Matching.from_dict(n, dict(zip(range(0, 2 * n, 2), outs)))
        d, _ = inflate(standard_diagram(m), 1 + seed % 3, 1 + seed % 2,
                       rng.randint(0, 4), rng)
        out.append(d)
    rng = random.Random(5)
    for d in component_diagrams(dual_matching(4, 3)):
        for _ in range(3):
            d = add_loop(d, rng.choice(d.faces()).key)
        out.append(d)
    return out


def candidates_01(d):
    """Every (edge_p, edge_q, side) that ``inflate`` can pick in ``d``."""
    out = []
    for f in d.faces():
        darts, seen = [], set()
        for x in f.darts:
            if x[0] in ('b', 'c') and frozenset((x, d.edges[x])) not in seen:
                seen.add(frozenset((x, d.edges[x])))
                darts.append(x)
        for dp in darts:
            for dq in darts:
                if dq != dp:
                    out.append((dp if is_source(dp) else d.edges[dp],
                                dq if is_source(dq) else d.edges[dq],
                                'l' if is_source(dp) else 'r'))
    return out


def floating_island():
    return TripleDiagram.from_edge_list(
        0, [7], [(('c', 7, 1), ('c', 7, 0)), (('c', 7, 3), ('c', 7, 4)),
                 (('c', 7, 5), ('c', 7, 2))])


def diagrams_10_01():
    """Seeded inflations with and without free loops, the floating
    island alone and beside a standard diagram, and an arc through the
    self-crossing of a closed figure eight (a 1->0 there closes a loop
    beside the arc)."""
    out = []
    for seed in range(12):
        rng = random.Random(seed)
        n = 2 + seed % 3
        outs = [2 * i + 1 for i in range(n)]
        rng.shuffle(outs)
        m = Matching.from_dict(n, dict(zip(range(0, 2 * n, 2), outs)))
        d, _ = inflate(standard_diagram(m), 1 + seed % 3, 1 + seed % 2,
                       rng.randint(0, 4), rng)
        out += [d, d.with_loops({})]
    d0 = standard_diagram(Matching.from_dict(2, {0: 3, 2: 1}))
    island = floating_island()
    out += [island, TripleDiagram.from_edge_list(
        2, d0.crossings + (7,), d0.edge_list() + island.edge_list())]
    out.append(TripleDiagram.from_edge_list(1, [0], [
        (('b', 0), ('c', 0, 2)), (('c', 0, 5), ('b', 1)),
        (('c', 0, 1), ('c', 0, 0)), (('c', 0, 3), ('c', 0, 4))]))
    return out
