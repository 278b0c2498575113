"""Move-graph enumeration against the independent brute-force oracle."""

import gc
import random
import weakref
from collections import Counter

import pytest

from tricross import (STRATEGIES, Matching, enumerate_component,
                      brute_force_minimal, verify_theorem2,
                      enumerate_connected_diagrams, GuardExceeded,
                      minimal_crossing_count, find_badgons, standard_diagram)
from tricross import movegraph
from tricross.diagram import trace_strands
from tricross.movegraph import closure
from tricross.moves import Move, apply_22, find_22_sites
from tricross.reduce import inflate

from conftest import all_matchings, closure_applied, component_diagrams
from test_golden import dual_matching, floating_diagram


def test_noncrossing_component_is_one_vertex(nested3):
    g = enumerate_component(nested3)
    assert g.size() == 1 and not g.edges


def test_rotation_component_is_one_vertex(rotation3):
    assert enumerate_component(rotation3).size() == 1


def test_rotation_brute_force_unique(rotation3):
    keys = brute_force_minimal(rotation3)
    assert keys == {standard_diagram(rotation3).canonical_key()}


def test_theorem2_exhaustive_n3():
    for n in range(4):
        for m in all_matchings(n):
            report = verify_theorem2(m)
            assert report["equal"], (m.pairs, report)


def test_guard_raises():
    outs = [5, 7, 9, 11, 1, 3]
    m = Matching.from_dict(6, dict(zip(range(0, 12, 2), outs)))
    with pytest.raises(GuardExceeded):
        brute_force_minimal(m)


def test_enumeration_counts_all_one_crossing_diagrams(rotation3):
    found = enumerate_connected_diagrams(rotation3, 1)
    assert len(found) == 1
    found0 = enumerate_connected_diagrams(rotation3, 0)
    assert len(found0) == 0


def test_enumeration_at_one_extra_crossing_has_badgons(rotation3):
    found = enumerate_connected_diagrams(rotation3, 2)
    assert found
    for key, d in found.items():
        assert find_badgons(d), "non-minimal diagram must carry a badgon"


def test_enumeration_frees_its_diagrams_without_the_cycle_collector(
        rotation3):
    # the enumerator leaves no reference cycle holding its results, so
    # they are freed as soon as the caller drops them, not at a later
    # full collection, whose timing would set the oracle's peak memory
    gc.disable()
    try:
        found = enumerate_connected_diagrams(rotation3, 2)
        kept = weakref.ref(next(iter(found.values())))
        del found
        assert kept() is None
    finally:
        gc.enable()


def _sweep_cells():
    """The oracle benchmark's cells: n <= 3 at min..min+2 crossings and
    n=4 at min, as (n, matching, crossings, extra)."""
    for n, extras in ((1, 3), (2, 3), (3, 3), (4, 1)):
        for m in all_matchings(n):
            k = minimal_crossing_count(m)
            for extra in range(extras):
                yield n, m, k + extra, extra


def _filling(pairs):
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


def test_walk_with_want_alone_keeps_every_chord_pruned_filling():
    """Without ``arc`` the walk emits what it emitted before the piece
    map: per (n, extra) the counts below, 24,032 in all, the oracle
    benchmark's work per pass."""
    walked = Counter()
    for n, m, k, extra in _sweep_cells():
        def emit(pairs, ncross, cell=(n, extra)):
            walked[cell] += 1
        movegraph.walk_fillings(n, k, emit, m.as_dict())
    assert walked == {(1, 0): 1, (1, 1): 5, (1, 2): 100,
                      (2, 0): 2, (2, 1): 28, (2, 2): 800,
                      (3, 0): 6, (3, 1): 428, (3, 2): 22100, (4, 0): 562}
    assert sum(walked.values()) == 24032


def test_a_disk_with_no_endpoint_holds_no_crossing():
    """The walk gives no budget to a region with no port: with n=0 it
    emits the empty filling alone."""
    emitted = []
    for k in range(3):
        movegraph.walk_fillings(0, k, lambda pairs, ncross: emitted.append(
            (list(pairs), ncross)))
    assert emitted == [([], 0)]


def test_arc_pruned_walk_emits_the_fillings_of_the_wanted_trace(
        monkeypatch):
    """The walk that ``enumerate_connected_diagrams`` runs, pruned by its
    ``arc`` test, emits exactly the chord-pruned fillings whose arcs are
    the wanted ones, each once, one per diagram found."""
    walk = movegraph.walk_fillings
    emitted = []

    def recording(n, crossings, emit, want=None, arc=None):
        def record(pairs, ncross):
            emitted.append(_filling(pairs))
            emit(pairs, ncross)
        walk(n, crossings, record, want, arc)

    monkeypatch.setattr(movegraph, "walk_fillings", recording)
    kept = 0
    for n, m, k, _ in _sweep_cells():
        want = m.as_dict()
        expected = set()

        def keep(pairs, ncross):
            partner = [-1] * (2 * n + 6 * ncross)
            for a, b in pairs:
                partner[a], partner[b] = b, a
            strands = trace_strands(n, range(ncross), partner)
            if all(want[s] == e for s, e, _ in strands[:n]):
                expected.add(_filling(pairs))

        walk(n, k, keep, want)
        emitted.clear()
        found = enumerate_connected_diagrams(m, k)
        assert len(emitted) == len(set(emitted)) == len(found)
        assert set(emitted) == expected, (m.pairs, k)
        kept += len(found)
    assert kept == 5641


def test_component_vertices_minimal_and_fixed_count():
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    from tricross.moves import is_minimal
    m = tiling_to_diagram(
        enumerate_tilings(Region.rectangle(4, 2))[0]).trace()[0]
    k = minimal_crossing_count(m)
    for d in component_diagrams(m):
        assert is_minimal(d)
        assert d.crossing_count() == k


def _dual_4x3_root():
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    m = tiling_to_diagram(
        enumerate_tilings(Region.rectangle(4, 3))[0]).trace()[0]
    return m, standard_diagram(m)


@pytest.mark.parametrize("m", [
    dual_matching(4, 3),
    Matching.from_dict(5, {0: 5, 2: 7, 4: 9, 6: 1, 8: 3})],
    ids=["4x3-dual", "n5"])
def test_component_diagrams_are_the_graph_vertices_in_order(m):
    """The tests rebuild the diagrams a move graph keys by
    ``component_diagrams``: keyed in order, they are its vertices under
    every strategy.  Each component has more than two distinct keys, so
    a rebuild rooted elsewhere or listed in another order fails."""
    for strategy in STRATEGIES:
        keys = tuple(d.canonical_key()
                     for d in component_diagrams(m, strategy))
        graph = enumerate_component(m, strategy)
        assert keys == graph.vertices and keys[0] == graph.root
        assert len(set(keys)) == len(keys) > 2


def test_closure_new_keys_are_the_component():
    m, root = _dual_4x3_root()
    new_keys = [nd.canonical_key()
                for _, _, nd, new, _ in closure(root) if new]
    assert len(new_keys) == len(set(new_keys))
    g = enumerate_component(m)
    assert {root.canonical_key()} | set(new_keys) == set(g.vertices)
    assert len(g.vertices) > 2


def test_closure_inside_takes_only_moves_inside():
    _, root = _dual_4x3_root()
    everywhere = {nd.canonical_key()
                  for _, _, nd, _, _ in closure_applied(root)}
    for inside in (set(root.crossings[1:]), set(root.crossings[:-1])):
        reached = set()
        for d, site, nd, new, _ in closure_applied(root, inside):
            assert site.x[0] in inside and site.y[0] in inside
            reached.add(nd.canonical_key())
        assert reached and reached < everywhere
    assert not list(closure(root, set()))


def _site_in_canonical_form(d, x, y):
    """(code of ``d``, the 2<->2 site of darts ``x`` and ``y`` as the two
    canonical (id, slot) darts, sorted), from ``d``'s walk label."""
    label = d.walk_label()
    return d.canonical_code(), tuple(sorted(
        (label[c][0], (s - label[c][1]) % 6) for c, s in (x, y)))


@pytest.mark.parametrize("w, h, edges", [(4, 3, 14), (4, 4, 70),
                                         (6, 4, 828)])
def test_closure_takes_each_edge_once(w, h, edges):
    """Every site of every vertex is a move taken or the site its inverse
    starts from, never both; so the closure takes one move per edge,
    half the sites."""
    m = dual_matching(w, h)
    root = standard_diagram(m)
    vertices = [root]
    taken, inverses = [], set()
    for d, site, nd, new, _ in closure_applied(root):
        if new:
            vertices.append(nd)
        taken.append(_site_in_canonical_form(d, site.x, site.y))
        inverses.add(_site_in_canonical_form(nd, *_centre(site)))
    assert len(enumerate_component(m).edges) == edges
    assert len(taken) == len(set(taken)) == len(inverses) == edges
    assert not inverses & set(taken)
    sites = {_site_in_canonical_form(v, s.x, s.y) for v in vertices
             for s in find_22_sites(v)}
    assert len(sites) == 2 * edges
    assert inverses | set(taken) == sites


def _centre(site):
    """The darts of the centre the 2<->2 move at ``site`` makes, where
    its inverse starts."""
    return Move('22', (site.x, site.y)).inverse().data


def _closure_taking_every_move(diagram):
    """The closure with no move skipped or inferred: every move of every
    new state applied and keyed."""
    seen = {diagram.canonical_code(): 0}
    frontier = [diagram]
    while frontier:
        nxt = []
        for d in frontier:
            for site in find_22_sites(d):
                nd = apply_22(d, site)
                code = nd.canonical_code()
                vertex = seen.get(code)
                new = vertex is None
                if new:
                    vertex = seen[code] = len(seen)
                    nxt.append(nd)
                yield d, site, nd, new, vertex
        frontier = nxt


def _summary(walk, diagram):
    """The codes of the new states in order, the number of moves, and the
    first move seen between each two states, of ``walk(diagram)``."""
    news, moves, first = [], 0, {}
    for d, site, nd, new, _ in walk(diagram):
        a, b = d.canonical_code(), nd.canonical_code()
        if new:
            news.append(b)
        moves += 1
        first.setdefault(frozenset((a, b)), (a, site))
    return news, moves, first


def _against_every_move(diagram):
    """Check ``closure`` from an int-keyed ``diagram`` against the walk
    that applies every move: the same new states in order, the same first
    move per two states, and half the moves; each move it read off a
    square leads where applying it leads (``closure_applied``); and every
    site of every state is a move taken or the site that applying a
    taken move makes at its far end, never both, so each far end skipped
    exactly that site.  Returns (states, moves taken, moves inferred)."""
    inferred = sum(nd is None for *_, nd, _, _ in closure(diagram))
    news, taken, first = _summary(closure_applied, diagram)
    assert (news, 2 * taken, first) == _summary(_closure_taking_every_move,
                                                diagram)
    vertices = [diagram]
    sites, reverses = [], set()
    for d, site, nd, new, _ in closure_applied(diagram):
        if new:
            vertices.append(nd)
        sites.append(_site_in_canonical_form(d, site.x, site.y))
        reverses.add(_site_in_canonical_form(nd, *_centre(site)))
    assert len(sites) == len(set(sites)) == len(reverses) == taken
    assert not reverses & set(sites)
    assert reverses | set(sites) == {
        _site_in_canonical_form(v, s.x, s.y)
        for v in vertices for s in find_22_sites(v)}
    return len(vertices), taken, inferred


def test_closure_of_int_keyed_diagrams_takes_half_the_moves():
    """From connected inflations with no free loop, whose move graphs hold
    isomorphs that differ in slot phases, the closure reaches the same
    new states in the same order, sees each edge first at the same move,
    takes one move of each inverse pair, and reads 23 of the 74 moves that
    do not first reach a state off commuting squares; the others close
    no square of disjoint sites."""
    rng = random.Random(4)
    moves = revisits = inferred = 0
    for n in (2, 3, 4):
        for m in all_matchings(n):
            for bumps in (1, 2, 3):
                d = inflate(standard_diagram(m), bumps, 0, 3, rng)[0]
                assert isinstance(d.canonical_code(), tuple)
                size, taken, by_square = _against_every_move(d)
                moves += taken
                revisits += taken - (size - 1)
                inferred += by_square
    assert (moves, revisits, inferred) == (379, 74, 23)


@pytest.mark.parametrize("w, h, vertices, moves, inferred", [
    (4, 3, 11, 14, 4), (4, 4, 36, 70, 35), (6, 4, 281, 828, 548),
    (6, 5, 1183, 4202, 3020)])
def test_closure_infers_every_move_to_a_state_seen(w, h, vertices, moves,
                                                    inferred):
    """On the domino duals, every move that does not first reach a state
    is read off a commuting square, none applied: on 6x4, 548 of 828."""
    root = standard_diagram(dual_matching(w, h))
    assert _against_every_move(root) == (vertices, moves, inferred)
    assert inferred == moves - (vertices - 1)


def test_the_closure_check_fails_without_the_reverse_swap(monkeypatch):
    """A reverse move recorded with its map inverted but not swapped and
    turned fails the check on the 4x4 dual."""
    def unswapped(t, cmap):
        site, _ = reversed_move(t, cmap)
        back = [0] * len(cmap)
        for i, e in enumerate(cmap):
            back[e // 6] = 6 * i + -e % 6
        return site, tuple(back)

    reversed_move = movegraph._reversed
    monkeypatch.setattr(movegraph, "_reversed", unswapped)
    root = standard_diagram(dual_matching(4, 4))
    with pytest.raises(AssertionError):
        assert _against_every_move(root) == (36, 70, 35)


def _text_keyed_diagrams():
    # floating parts (the seeds with the smaller closures), then
    # connected inflations with free loops
    out = [floating_diagram(seed) for seed in (1, 7, 9, 14, 25, 27, 28)]
    rng = random.Random(3)
    for m in (Matching.from_dict(3, {0: 3, 2: 5, 4: 1}),
              Matching.from_dict(4, {0: 5, 2: 7, 4: 1, 6: 3})):
        for bumps in (1, 2, 3):
            out.append(inflate(standard_diagram(m), bumps, 1, 2, rng)[0])
    return out


def test_closure_of_text_keyed_diagrams_takes_every_move():
    """Keyed by text, a diagram has no walk label that is canonical, so
    the closure skips nothing: the same new states in the same order,
    the same first move per edge and the same number of moves as a
    closure that takes every move."""
    moves = 0
    for d in _text_keyed_diagrams():
        assert isinstance(d.canonical_code(), str)
        got = _summary(closure, d)
        assert got == _summary(_closure_taking_every_move, d)
        moves += got[1]
    assert moves > 500
