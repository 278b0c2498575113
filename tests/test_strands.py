"""The strand kernel against the walk it replaced.

``reference_strands`` is the tracer ``TripleDiagram.strands`` used to
run, kept here as the reference: one dict per strand with ``kind``,
``start``, ``end``, ``visits`` and ``path``.  ``trace_strands`` must give
the same strands in the same order, ``strand_path`` the same edge paths,
and a corrupt map must raise DiagramError rather than hang the walk.
"""

import pytest

from tricross import (DiagramError, Matching, TripleDiagram,
                      enumerate_connected_diagrams, minimal_crossing_count)
from tricross import movegraph
from tricross.diagram import is_source, port_str, strand_path, trace_strands

from conftest import all_matchings
from test_golden import floating_diagram


def reference_strands(d):
    used = set()
    out = []

    def walk(src):
        visits = []
        path = []
        cur = src
        while True:
            if cur in used:
                raise DiagramError("trace revisits port %s" % port_str(cur))
            used.add(cur)
            dst = d.edges[cur]
            if dst in used:
                raise DiagramError("trace revisits port %s" % port_str(dst))
            used.add(dst)
            path.append((cur, dst))
            if dst[0] == 'b':
                return visits, path, dst
            c, s = dst[1], dst[2]
            visits.append((c, s))
            nxt = ('c', c, (s + 3) % 6)
            if nxt == src:
                return visits, path, None
            cur = nxt

    for i in range(0, 2 * d.n, 2):
        visits, path, end = walk(('b', i))
        if end is None:
            raise DiagramError("strand from endpoint %d never exits" % i)
        out.append({'kind': 'arc', 'start': i, 'end': end[1],
                    'visits': tuple(visits), 'path': tuple(path)})
    remaining = sorted(p for p in d.ports()
                       if p not in used and p[0] == 'c' and is_source(p))
    for src in remaining:
        if src in used:
            continue
        visits, path, end = walk(src)
        if end is not None:
            raise DiagramError("closed trace leaked to the boundary")
        out.append({'kind': 'closed', 'start': None, 'end': None,
                    'visits': tuple(visits), 'path': tuple(path)})
    return out


def assert_kernel_matches(d):
    """The kernel, the diagram's strands and their paths equal the
    reference; returns the number of closed strands."""
    ref = reference_strands(d)
    got = trace_strands(d.n, d.crossings, d.partners())
    assert got == tuple((s['start'], s['end'], s['visits']) for s in ref)
    assert d.strands() == got
    assert [strand_path(s) for s in got] == [s['path'] for s in ref]
    return sum(s['kind'] == 'closed' for s in ref)


def test_kernel_matches_reference_on_oracle_pool():
    """Every connected diagram at n <= 3 with min+1 and min+2 crossings;
    their strands were seeded by the oracle's own trace."""
    diagrams = closed = 0
    for n in (1, 2, 3):
        for m in all_matchings(n):
            k = minimal_crossing_count(m)
            for extra in (1, 2):
                for d in enumerate_connected_diagrams(m, k + extra).values():
                    closed += assert_kernel_matches(d)
                    diagrams += 1
    assert diagrams == 5606 and closed > 0


def figure_eight():
    """An arc beside a floating crossing whose closed strand meets it
    twice, and whose third passage closes on itself."""
    return TripleDiagram.from_edge_list(
        1, [0], [(('b', 0), ('b', 1)), (('c', 0, 1), ('c', 0, 0)),
                 (('c', 0, 3), ('c', 0, 4)), (('c', 0, 5), ('c', 0, 2))])


def test_kernel_matches_reference_on_closed_strands_and_loops():
    diagrams = [floating_diagram(seed) for seed in range(30)]
    closed = [assert_kernel_matches(d) for d in diagrams]
    assert all(closed) and sum(bool(d.loops) for d in diagrams) >= 10
    eight = figure_eight()
    assert eight.validate() == []
    assert assert_kernel_matches(eight) == 2
    assert eight.strands()[1] == (None, None, ((0, 0), (0, 4)))


@pytest.mark.parametrize("n,crossings,edges,why", [
    # the arc from B0 enters C0 again and again
    (1, (0,), {('b', 0): ('c', 0, 0), ('c', 0, 3): ('c', 0, 2),
               ('c', 0, 5): ('c', 0, 0)}, "never exits"),
    # two arcs end at B1
    (2, (), {('b', 0): ('b', 1), ('b', 2): ('b', 1)}, "revisits port B1"),
    # an arc ends at the in-endpoint B2
    (2, (), {('b', 0): ('b', 2), ('b', 2): ('b', 0)}, "revisits port B2"),
    # a closed strand falls into a loop that never comes back to it
    (0, (0, 1), {('c', 0, 1): ('c', 1, 0), ('c', 1, 3): ('c', 1, 2),
                 ('c', 1, 5): ('c', 1, 0)}, "never closes"),
    # a closed strand reaches the boundary
    (1, (0,), {('b', 0): ('b', 1), ('c', 0, 1): ('b', 1)}, "leaked"),
    # C0.3 is paired with nothing
    (1, (0,), {('b', 0): ('c', 0, 0)}, "paired with nothing"),
    # the arc from B2 enters C0 at C0.1, the exit the arc from B0 took
    (2, (0,), {('b', 0): ('c', 0, 0), ('c', 0, 3): ('c', 0, 2),
               ('c', 0, 5): ('c', 0, 4), ('c', 0, 1): ('b', 1),
               ('b', 2): ('c', 0, 1), ('c', 0, 4): ('b', 3)},
     "revisits a port"),
])
def test_corrupt_map_raises(n, crossings, edges, why):
    """Each port map is traced as its partner array."""
    partner = TripleDiagram(n, crossings, edges).partners()
    with pytest.raises(DiagramError, match=why):
        trace_strands(n, crossings, partner)


def test_filling_naming_a_port_twice_raises(monkeypatch):
    def walk_fillings(n, crossings, emit, want=None, arc=None):
        emit([(0, 1), (1, 0)], 0)  # B0-B1 and B1-B0

    monkeypatch.setattr(movegraph, "walk_fillings", walk_fillings)
    with pytest.raises(DiagramError, match="names a port twice"):
        enumerate_connected_diagrams(Matching.from_dict(1, {0: 1}), 0)


def test_filling_with_the_wrong_trace_raises(monkeypatch):
    """The walk prunes by the wanted trace, so a filling it emits with
    another trace is a generator fault, not a filling to skip."""
    def walk_fillings(n, crossings, emit, want=None, arc=None):
        emit([(0, 3), (2, 1)], 0)  # B0-B3 and B2-B1

    monkeypatch.setattr(movegraph, "walk_fillings", walk_fillings)
    with pytest.raises(DiagramError, match="traces B0 to B3, not B1"):
        enumerate_connected_diagrams(
            Matching.from_dict(2, {0: 1, 2: 3}), 0)

