"""The int dart kernel against references.

``reference_orbits`` is the face trace ``TripleDiagram._orbits`` used to
run, over tuple darts with the ``phi`` and dart list the diagram used to
have, kept here as the reference for the trace on the partner array.
``canonical_code`` must split diagrams exactly as ``canonical_key`` does,
a copy with other free loops must reuse every table that does not
depend on them, and its partner array must equal one rebuilt from its
edges (``test_moves.py`` checks the same after the other moves).
"""

import random

import pytest

from tricross import (DiagramError, Region, TripleDiagram,
                      add_loop, drop_loop, enumerate_component,
                      enumerate_connected_diagrams, enumerate_tilings,
                      minimal_crossing_count, tiling_to_diagram)
from tricross import diagram as diagram_module
from tricross import textio
from tricross.moves import LoopSite

from conftest import all_matchings
from test_golden import floating_diagram, inflation, random_pairing


def reference_darts(d):
    """Every dart, in sorted order: the arc darts, then the ports."""
    m = 2 * d.n
    return ([('+', i) for i in range(m)] + [('-', i) for i in range(m)]
            + list(d.ports()))


def reference_phi(d, x):
    """The next dart of the face left of ``x``: ``sigma_inv(alpha(x))``,
    where ``alpha`` swaps the two darts of an edge or boundary arc and
    ``sigma_inv`` turns one step clockwise about the dart's vertex."""
    m = 2 * d.n
    if x[0] == '+':
        y = ('-', (x[1] + 1) % m)
    elif x[0] == '-':
        y = ('+', (x[1] - 1) % m)
    else:
        y = d.edges[x]
    if y[0] == 'c':
        return ('c', y[1], (y[2] - 1) % 6)
    return {'+': ('-', y[1]), '-': ('b', y[1]), 'b': ('+', y[1])}[y[0]]


def reference_orbits(d):
    """Every phi-orbit, from its minimal dart, darts swept in order."""
    seen = set()
    orbits = []
    for start in reference_darts(d):
        if start in seen:
            continue
        orbit = [start]
        x = reference_phi(d, start)
        while x != start:
            orbit.append(x)
            x = reference_phi(d, x)
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


def dart_code(d, x):
    """The int code of dart ``x`` of ``d``, as the diagram module defines
    it: the arc darts first, then each port after them."""
    m = 2 * d.n
    if x[0] in '+-':
        return x[1] + m * (x[0] == '-')
    return 2 * m + (x[1] if x[0] == 'b' else m + 6 * x[1] + x[2])


def coded(d, orbits):
    return [tuple(dart_code(d, x) for x in orbit) for orbit in orbits]


def fresh(d):
    return TripleDiagram(d.n, d.crossings, d.edges, d.loops)


def dual_4x3_vertices():
    tiling = enumerate_tilings(Region.rectangle(4, 3))[0]
    matching = tiling_to_diagram(tiling).trace()[0]
    return list(enumerate_component(matching).vertices.values())


def test_orbits_match_the_phi_reference_on_seeded_pairings():
    """Every one of the golden tests' 3,000 port pairings, planar or
    not, with crossing ids that skip values (holes in the array)."""
    rng = random.Random(5)
    valid = holes = 0
    for _ in range(3000):
        d = random_pairing(rng)
        assert fresh(d)._orbits() == coded(d, reference_orbits(d))
        valid += d.validate() == []
        holes += -1 in d.partners()
    assert valid >= 100 and holes >= 1000


def test_orbits_match_the_phi_reference_on_the_4x3_move_graph():
    vertices = dual_4x3_vertices()
    assert len(vertices) == 11
    for d in vertices:
        assert fresh(d)._orbits() == coded(d, reference_orbits(d))


def test_orbits_raise_on_a_corrupt_map():
    d = random_pairing(random.Random(1))
    p, q = next(iter(d.edges.items()))
    unpaired = dict(d.edges)
    del unpaired[p]
    with pytest.raises(KeyError):
        TripleDiagram(d.n, d.crossings, unpaired)._orbits()
    # two ports sent to one: phi is no permutation, so a trace from some
    # dart would never come back to it
    doubled = dict(d.edges)
    doubled[p] = next(x for x in d.edges if x not in (p, q))
    with pytest.raises(DiagramError):
        TripleDiagram(d.n, d.crossings, doubled)._orbits()


def test_reading_a_corrupt_diagram_with_loops_ends():
    """The loops record makes the reader trace faces before any check; a
    port named twice must raise, not hang."""
    text = ("triple-diagram v1\nn 1\ncrossings 1\nedge B0 C0.0\n"
            "edge C0.3 B1\nedge C0.1 C0.2\nedge C0.5 C0.4\n"
            "edge C0.5 C0.2\nloops 0:1\n")
    with pytest.raises(DiagramError):
        textio.read_diagram(text)


def relabeled(d, rng):
    """``d`` with crossing ids scattered, slots rotated by even offsets
    and each free loop moved along to its face's new key."""
    ids = dict(zip(d.crossings,
                   rng.sample(range(3 * len(d.crossings) + 1),
                              len(d.crossings))))
    turn = {c: rng.choice((0, 2, 4)) for c in d.crossings}

    def dart(x):
        return x if x[0] != 'c' else ('c', ids[x[1]], (x[2] + turn[x[1]]) % 6)

    out = TripleDiagram.from_edge_list(
        d.n, ids.values(), [(dart(p), dart(q)) for p, q in d.edge_list()])
    loops = {}
    for key, count in d.loops.items():
        darts = d.face_by_key(key).darts
        loops[min(map(dart, darts)) if darts else ()] = count
    return out.with_loops(loops)


def code_corpus():
    """The golden corpora: every connected diagram with n <= 2 at the
    minimal crossing count and one above, the floating islands, the
    inflations with free loops and the same inflations without them;
    each beside a relabeled copy."""
    rng = random.Random(8)
    diagrams = []
    for n in range(3):
        for m in all_matchings(n):
            k = minimal_crossing_count(m)
            for extra in (0, 1):
                diagrams += enumerate_connected_diagrams(m, k + extra).values()
    diagrams += [floating_diagram(seed) for seed in range(30)]
    looped = [inflation(seed) for seed in range(20)]
    diagrams += looped + [d.with_loops({}) for d in looped]
    copies = [relabeled(d, rng) for d in diagrams]
    for d, copy in zip(diagrams, copies):
        # the loop part of the key names faces by labels that, between
        # floating components, still follow the crossing ids
        if not d.loops:
            assert copy.canonical_key() == d.canonical_key()
    return diagrams + copies


def test_canonical_code_splits_as_the_key_does():
    diagrams = code_corpus()
    codes = [d.canonical_code() for d in diagrams]
    keys = [d.canonical_key() for d in diagrams]
    for d, code in zip(diagrams, codes):
        assert isinstance(code, tuple) == (not d.loops and d.is_connected())
    assert sum(isinstance(c, tuple) for c in codes) >= 60
    assert sum(isinstance(c, str) for c in codes) >= 60
    equal = 0
    for i in range(len(diagrams)):
        for j in range(i + 1, len(diagrams)):
            assert (codes[i] == codes[j]) == (keys[i] == keys[j])
            equal += keys[i] == keys[j]
    assert equal >= 80


def test_loop_moves_trace_nothing(monkeypatch):
    """drop_loop and add_loop reuse the faces, face table, strands and
    partner array of the map they leave unchanged; the key is new."""
    sources = [inflation(seed) for seed in range(20)]
    for d in sources:
        d.face_of(d.faces()[0].key)
        d.strands()
        d.partners()

    def no_trace(*args):
        raise AssertionError("a loop move traced its map again")

    monkeypatch.setattr(TripleDiagram, "_orbits", no_trace)
    monkeypatch.setattr(diagram_module, "trace_strands", no_trace)
    moved = []
    for d in sources:
        key = min(d.loops)
        for new in (drop_loop(d, LoopSite(key)), add_loop(d, key)):
            assert new.faces() is d.faces()
            assert new.face_of(key) is d.face_of(key)
            assert new.strands() is d.strands()
            assert new.partners() is d.partners()
            moved.append(new)
    monkeypatch.undo()
    for new in moved:
        rebuilt = fresh(new)
        assert new.partners() == rebuilt.partners()
        assert new.canonical_key() == rebuilt.canonical_key()
