"""The reducer: straightening, standardization, connection, macros."""

import hashlib
import random
from collections import Counter

import pytest

from tricross import (TripleDiagram, Matching, standard_diagram, to_standard,
                      reduce_to_minimal, connect_minimal, slide_macro,
                      pattern_template, inflate, is_minimal, replay,
                      find_badgons, enumerate_connected_diagrams,
                      minimal_crossing_count, textio)
from tricross import reduce as reducer
from tricross.diagram import DiagramError, port_str, strand_path
from tricross.moves import apply_move, make_log, MoveError
from tricross.reduce import (straighten, is_boundary_parallel, extract_region,
                             region_legs, ReductionError, _build_residual,
                             _search, match_window)
from tricross.movegraph import closure
from tricross.standard import interval_interior

from conftest import all_matchings
from test_golden import inflation


def test_to_standard_fixes_standard_diagrams():
    for n in range(5):
        for m in all_matchings(n):
            d = standard_diagram(m)
            final, log = to_standard(d)
            assert final.canonical_key() == d.canonical_key()
            assert all(mv.kind == '22' for mv in log.moves)


def test_reduce_counts_match_inflation():
    rng = random.Random(3)
    for trial in range(30):
        n = rng.randint(1, 5)
        outs = [2 * i + 1 for i in range(n)]
        rng.shuffle(outs)
        m = Matching.from_dict(n, dict(zip([2 * i for i in range(n)], outs)))
        d0 = standard_diagram(m)
        d, _ = inflate(d0, rng.randint(0, 4), rng.randint(0, 3),
                       rng.randint(0, 6), rng)
        bumps = d.crossing_count() - d0.crossing_count()
        loops = sum(d.loops.values())
        final, log = reduce_to_minimal(d)
        counts = log.counts()
        assert final.canonical_key() == d0.canonical_key()
        assert counts.get('10', 0) == bumps
        assert counts.get('drop', 0) == loops
        assert is_minimal(final)


def test_reduce_never_raises_crossings():
    rng = random.Random(8)
    for trial in range(8):
        n = rng.randint(2, 6)
        outs = [2 * i + 1 for i in range(n)]
        rng.shuffle(outs)
        m = Matching.from_dict(n, dict(zip([2 * i for i in range(n)], outs)))
        d, _ = inflate(standard_diagram(m), rng.randint(0, 5),
                       rng.randint(0, 2), rng.randint(0, 8), rng)
        final, log = reduce_to_minimal(d)
        cur = d
        prev = cur.crossing_count()
        for mv in log.moves:
            cur = apply_move(cur, mv)
            assert cur.crossing_count() <= prev
            prev = cur.crossing_count()


def test_reduce_tiling_dual_uses_no_10_moves():
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    for t in enumerate_tilings(Region.rectangle(4, 2)):
        d = tiling_to_diagram(t)
        final, log = to_standard(d)
        assert not any(mv.kind == '10' for mv in log.moves)
        assert final.trace()[0] == d.trace()[0]


def test_reduce_5x4_dual():
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    d = tiling_to_diagram(enumerate_tilings(Region.rectangle(5, 4))[0])
    assert d.crossing_count() == 10
    final, log = to_standard(d)
    assert final.crossing_count() == 10
    assert not any(mv.kind == '10' for mv in log.moves)


def test_reduce_6x5_dual_clockwise():
    """The first tiling of the 6x5 rectangle under 'cw': here a piece
    between two crossings of S holds a crossing and lies over S, so
    ``_under_pieces`` skips it."""
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    d = tiling_to_diagram(enumerate_tilings(Region.rectangle(6, 5))[0])
    final, log = to_standard(d, "cw")
    assert all(mv.kind == '22' for mv in log.moves)
    assert final.canonical_key() == standard_diagram(
        d.trace()[0], "cw").canonical_key()
    assert replay(d, log).canonical_key() == final.canonical_key()


def test_straighten_interval_monogon_ends_in_one_10():
    rng = random.Random(12)
    m = Matching.from_dict(3, {0: 3, 2: 5, 4: 1})
    d0 = standard_diagram(m)
    d, _ = inflate(d0, 1, 0, 0, rng)
    final, log = reduce_to_minimal(d)
    assert log.counts().get('10', 0) == 1


def test_connect_requires_minimal(rotation3):
    rng = random.Random(5)
    d = standard_diagram(rotation3)
    d2, _ = inflate(d, 1, 0, 0, rng)
    with pytest.raises(MoveError):
        connect_minimal(d2, d)


def test_connect_requires_same_matching():
    d1 = standard_diagram(Matching.from_dict(2, {0: 1, 2: 3}))
    d2 = standard_diagram(Matching.from_dict(2, {0: 3, 2: 1}))
    with pytest.raises(MoveError):
        connect_minimal(d1, d2)


def test_connect_self_is_trivial(rotation3):
    d = standard_diagram(rotation3)
    log = connect_minimal(d, d)
    final = replay(d, log)
    assert final.canonical_key() == d.canonical_key()


def test_connect_follows_its_strategy():
    """Each strategy's log replays from d1 to d2 on every pair of 4x3
    domino duals, and some pair's log depends on the strategy."""
    from tricross import (Region, enumerate_tilings, tiling_to_diagram,
                          STRATEGIES)
    duals = [tiling_to_diagram(t)
             for t in enumerate_tilings(Region.rectangle(4, 3))]
    differs = False
    for d1 in duals:
        for d2 in duals:
            texts = set()
            for strategy in STRATEGIES:
                log = connect_minimal(d1, d2, strategy)
                assert all(mv.kind == '22' for mv in log.moves)
                assert replay(d1, log).canonical_key() == d2.canonical_key()
                texts.add(textio.write_movelog(d1, log))
            differs = differs or len(texts) > 1
    assert differs


def test_connect_tiling_duals_pairwise_with_flip_parity():
    from collections import deque
    from tricross import (Region, enumerate_tilings, tiling_to_diagram,
                          find_flips, apply_flip)
    tilings = enumerate_tilings(Region.rectangle(4, 2))
    duals = [tiling_to_diagram(t) for t in tilings]
    for i in range(len(duals)):
        dist = {tilings[i]: 0}
        queue = deque([tilings[i]])
        while queue:
            t = queue.popleft()
            for s in find_flips(t):
                t2 = apply_flip(t, s)
                if t2 not in dist:
                    dist[t2] = dist[t] + 1
                    queue.append(t2)
        for j in range(len(duals)):
            if i == j:
                continue
            log = connect_minimal(duals[i], duals[j])
            assert all(mv.kind == '22' for mv in log.moves)
            final = replay(duals[i], log)
            assert final.canonical_key() == duals[j].canonical_key()
            # log length has the parity of the flip distance
            assert (len(log.moves) - dist[tilings[j]]) % 2 == 0


def test_straighten_interval_wrapper(rotation3):
    d = standard_diagram(rotation3)
    m = d.trace()[0]
    final, log = __import__("tricross.reduce", fromlist=["x"]) \
        .straighten_interval(d, (0, m[0], 1))
    assert final.trace()[0] == m


def test_straighten_interval_minimises_first(rotation3):
    from tricross.reduce import straighten_interval
    d0 = standard_diagram(rotation3)
    d, _ = inflate(d0, 2, 1, 3, random.Random(4))
    final, log = straighten_interval(d, (0, rotation3[0], 1))
    assert log.counts()['10'] == 2 and log.counts()['drop'] == 1
    assert is_boundary_parallel(final, 0, 1)
    assert replay(d, log).canonical_key() == final.canonical_key()


def test_slide_macros_all_patterns():
    for pattern in ('a', 'b', 'c'):
        for r in (1, 2):
            left, window, right = pattern_template(pattern, r)
            log = slide_macro(left, pattern, window, r)
            assert all(mv.kind == '22' for mv in log.moves)
            final = replay(left, log)
            assert final.canonical_key() == right.canonical_key()
            assert final.trace()[0] == left.trace()[0]


def test_slide_macro_rejects_wrong_window():
    left, window, _ = pattern_template('a', 2)
    with pytest.raises(MoveError):
        slide_macro(left, 'a', window[:2], 2)


def test_match_window_refuses_a_wrong_window_of_the_right_size():
    """Each way a window can miss the template: an edge landing on the
    wrong crossing, on a slot of the wrong parity, or at a phase that
    another edge contradicts."""
    left, window, _ = pattern_template('a', 2)
    assert match_window(left, left, window) == dict.fromkeys(window, 0)
    with pytest.raises(MoveError):
        match_window(left, left, window[1:] + window[:1])
    left, window, _ = pattern_template('a', 1)
    # crossing 1 meets crossing 0 by two edges: slots 3 and 2 at crossing 1
    for relabel in (lambda s: (s + 1) % 6,    # odd rotation: wrong parity
                    lambda s: -s % 6):        # mirror: the phases disagree
        def port(p):
            return ('c', 1, relabel(p[2])) if p[:2] == ('c', 1) else p
        moved = TripleDiagram(left.n, left.crossings,
                              {port(p): port(q) for p, q in left.edges.items()})
        with pytest.raises(MoveError):
            match_window(moved, left, window)


def _with_floating_crossing():
    """The two-arc standard diagram beside a floating crossing."""
    d0 = standard_diagram(Matching.from_dict(2, {0: 1, 2: 3}))
    edges = d0.edge_list() + [
        (('c', 9, 1), ('c', 9, 0)), (('c', 9, 3), ('c', 9, 4)),
        (('c', 9, 5), ('c', 9, 2))]
    return d0, TripleDiagram.from_edge_list(2, [9], edges)


def test_reduce_drops_floating_component():
    d0, d = _with_floating_crossing()
    assert d.validate() == []
    assert not d.is_connected()
    final, log = reduce_to_minimal(d)
    assert final.canonical_key() == d0.canonical_key()
    kinds = log.counts()
    assert kinds.get('10', 0) == 1 and kinds.get('drop', 0) == 2


def _diagram(n, crossings, edges):
    return textio.read_diagram("triple-diagram v1\nn %d\ncrossings %d\n%s" % (
        n, crossings, "".join("edge %s %s\n" % tuple(e.split("-"))
                              for e in edges.split())))


def _three_closed_strands():
    return _diagram(1, 3, "B0-C0.0 B1-C0.1 C0.2-C1.1 C0.3-C0.4 C0.5-C1.0 "
                          "C1.2-C1.5 C1.3-C2.0 C1.4-C2.3 C2.1-C2.2 "
                          "C2.4-C2.5")


def test_loops_closed_in_a_sub_diagram_drop_in_its_parent():
    """Three closed strands, each closed into a free loop by a 1->0 move
    of the minimisation, whose drop names the face the move left it on;
    the log replays from its text."""
    d = _three_closed_strands()
    final, log = reduce_to_minimal(d)
    assert log.counts() == {'10': 3, 'drop': 3}
    parsed, end = textio.read_movelog(textio.write_movelog(d, log), d)
    assert parsed.moves == log.moves and parsed.keys == log.keys
    target = standard_diagram(d.trace()[0]).canonical_key()
    assert replay(d, parsed).canonical_key() == end.canonical_key() == target


def test_closed_strands_interlocked_with_the_arc_reduce():
    """The arc and two closed strands through both of its crossings: a
    2<->2 move exposes the first empty monogon."""
    d = _diagram(1, 2, "B0-C0.0 B1-C1.1 C0.1-C1.0 C0.2-C1.5 C0.3-C1.4 "
                       "C0.4-C1.3 C0.5-C1.2")
    final, log = reduce_to_minimal(d)
    assert [mv.kind for mv in log.moves] == ['22', '10', 'drop', '10', 'drop']
    assert final.canonical_key() == standard_diagram(
        d.trace()[0]).canonical_key()


def _recorded_key_inputs():
    yield from (inflation(seed) for seed in range(20))
    yield _with_floating_crossing()[1]
    yield _three_closed_strands()
    yield _recursing_diagram()


@pytest.mark.parametrize("strategy", ["inclusion", "cw", "ccw"])
def test_to_standard_records_the_keys_a_fresh_replay_reads(strategy):
    """The keys read as the reducer applies its moves, nested
    straightenings' moves included once, are those of applying the
    logged moves again from the input."""
    for d in _recorded_key_inputs():
        final, log = to_standard(d, strategy)
        end, fresh = make_log(d, log.moves)
        assert log.initial_key == fresh.initial_key
        assert log.keys == fresh.keys
        assert len(log.keys) == len(log.moves)
        assert final.canonical_key() == end.canonical_key()


def _corrupted(diagram):
    """``diagram`` with two ports' partners swapped: the partner array
    is no longer an involution."""
    partner = list(diagram.partners())
    paired = [x for x, q in enumerate(partner) if q >= 0]
    a = paired[0]
    b = next(x for x in paired if x not in (a, partner[a]))
    partner[a], partner[b] = partner[b], partner[a]
    return TripleDiagram(diagram.n, diagram.crossings, None, diagram.loops,
                         partners=partner)


def test_a_corrupted_residual_fails_extract_region(monkeypatch):
    d = inflation(3)
    extract_region(d, d.crossings)
    build = reducer._build_residual
    monkeypatch.setattr(reducer, "_build_residual",
                        lambda *args: _corrupted(build(*args)))
    with pytest.raises(DiagramError, match="involution broken"):
        extract_region(d, d.crossings)


def test_a_corrupted_straightened_residual_fails_its_check(monkeypatch):
    outer = reducer.straighten

    def corrupting(diagram, a, dirn, log=None, depth=0):
        sub2, moves = outer(diagram, a, dirn, log, depth)
        return (_corrupted(sub2) if depth == 0 else sub2), moves

    monkeypatch.setattr(reducer, "straighten", corrupting)
    with pytest.raises(DiagramError, match="involution broken"):
        to_standard(inflation(3))


def _reference_residual(diagram, active, frontier):
    """The residual built through an edge list, as ``from_edge_list``
    reads one, with the free loops whose faces lie inside it."""
    index = {port: i for i, port in enumerate(frontier)}
    edges = []
    for i, port in enumerate(frontier):
        q = diagram.partner(port)
        if q[0] == 'c' and q[1] in active:
            edges.append((('b', i), q))
        elif i < index[q]:
            edges.append((('b', i), ('b', index[q])))
    for c in active:
        for s in range(6):
            p, q = ('c', c, s), diagram.partner(('c', c, s))
            if q[0] == 'c' and q[1] in active and p < q:
                edges.append((p, q))
    loops = {k: v for k, v in diagram.loops.items()
             if all(d[0] == 'c' and d[1] in active
                    for d in diagram.face_by_key(k).darts)}
    return TripleDiagram.from_edge_list(len(frontier) // 2, sorted(active),
                                        edges, loops)


def _same_residual(got, want):
    assert got.partners() == want.partners()
    assert (got.n, got.crossings, got.loops) \
        == (want.n, want.crossings, want.loops)


def test_build_residual_writes_the_edge_list_residual(monkeypatch):
    """On crossing regions and on every residual of ``to_standard``, whose
    frontier strands may join two anchors directly."""
    built = 0
    for d, region in _extract_region_cases():
        try:
            legs = region_legs(d, region)
        except ReductionError:
            continue
        frontier = [outer for _, outer in legs]
        _same_residual(_build_residual(d, set(region), frontier),
                       _reference_residual(d, set(region), frontier))
        built += 1
    assert built == 205
    chords = []

    def checked(diagram, active, frontier):
        got = _build_residual(diagram, active, frontier)
        _same_residual(got, _reference_residual(diagram, active, frontier))
        m = 2 * got.n
        chords.append(sum(0 <= q < m for q in got.partners()[:m]) // 2)
        return got

    monkeypatch.setattr(reducer, "_build_residual", checked)
    for d in _recorded_key_inputs():
        to_standard(d)
    assert (len(chords), sum(chords)) == (101, 175)


# minimal sub-diagrams of the reduce benchmark's inflations (seed 1) on
# which straightening the strand at endpoint 0 along (0, +1) combs
COMBED = (
    (6, 6, "B0-C0.0 B1-C0.1 B10-C5.2 B11-C5.3 B2-C1.0 B3-C1.1 B4-C1.2 "
           "B5-C2.1 B6-C3.0 B7-C3.1 B8-C4.0 B9-C5.1 C0.2-C1.5 C0.3-C2.4 "
           "C0.4-C4.3 C0.5-C5.4 C1.3-C2.0 C1.4-C2.5 C2.2-C3.5 C2.3-C3.4 "
           "C3.2-C4.5 C3.3-C4.4 C4.1-C5.0 C4.2-C5.5"),
    (5, 4, "B0-C0.0 B1-C1.1 B2-C1.2 B3-C1.3 B4-C2.0 B5-C2.1 B6-C2.2 "
           "B7-C3.1 B8-C3.2 B9-C3.3 C0.1-C1.0 C0.2-C1.5 C0.3-C2.4 "
           "C0.4-C3.5 C0.5-C3.4 C1.4-C2.5 C2.3-C3.0"),
)


@pytest.mark.parametrize("n, crossings, edges", COMBED)
def test_comb_straightens_when_no_strand_crosses_twice(monkeypatch, n,
                                                       crossings, edges):
    d = _diagram(n, crossings, edges)
    assert is_minimal(d)
    combs = []
    comb = reducer._comb

    def counted(*args):
        combs.append(args[1:3])
        return comb(*args)

    monkeypatch.setattr(reducer, "_comb", counted)
    final, moves = straighten(d, 0, 1)
    assert combs and set(combs) == {(0, 1)}
    assert moves and all(mv.kind == '22' for mv in moves)
    assert is_boundary_parallel(final, 0, 1)
    final, log = to_standard(d)
    assert final.canonical_key() == standard_diagram(
        d.trace()[0]).canonical_key()


def test_double_crossing_straightens_its_under_piece_first(monkeypatch):
    """Of the 4x3 domino duals only the eighth has a strand whose piece
    under S, between its two crossings with S, holds a crossing: the
    double-crossing rule straightens that piece by recursion."""
    from tricross import (reduce as reducer, Region, enumerate_tilings,
                          tiling_to_diagram)
    depths = []
    outer = reducer.straighten

    def traced(diagram, a, dirn, log=None, depth=0):
        depths.append(depth)
        return outer(diagram, a, dirn, log, depth)

    monkeypatch.setattr(reducer, "straighten", traced)
    recursed = []
    for i, t in enumerate(enumerate_tilings(Region.rectangle(4, 3))):
        d = tiling_to_diagram(t)
        del depths[:]
        final, log = to_standard(d)
        assert all(mv.kind == '22' for mv in log.moves)
        assert final.canonical_key() == standard_diagram(
            d.trace()[0]).canonical_key()
        if max(depths) > 0:
            recursed.append((i, max(depths)))
    assert recursed == [(7, 1)]


def _recursing_diagram():
    return _diagram(7, 6, "B0-C0.0 B1-C0.1 B10-C4.0 B11-C4.1 B12-C4.2 "
                          "B13-C0.5 B2-C1.0 B3-B4 B5-C1.1 B6-C2.0 B7-C3.1 "
                          "B8-C3.2 B9-C3.3 C0.2-C1.5 C0.3-C5.0 C0.4-C4.3 "
                          "C1.2-C2.5 C1.3-C2.4 C1.4-C5.1 C2.1-C3.0 "
                          "C2.2-C3.5 C2.3-C5.2 C3.4-C5.3 C4.4-C5.5 "
                          "C4.5-C5.4")


def test_the_double_crossing_recursion_moves_on_a_minimal_diagram(
        monkeypatch):
    """On this minimal 6-crossing diagram of {0:7, 2:9, 4:3, 6:11, 8:13,
    10:1, 12:5}, the innermost under-piece is not boundary-parallel in
    its sub-diagram: the depth-1 straightening makes a move, so the
    recursion cannot be deleted."""
    d = _recursing_diagram()
    assert is_minimal(d)
    assert dict(d.trace()[0].pairs) == {0: 7, 2: 9, 4: 3, 6: 11, 8: 13,
                                        10: 1, 12: 5}
    nested = []
    outer = reducer.straighten

    def traced(diagram, a, dirn, log=None, depth=0):
        result = outer(diagram, a, dirn, log, depth)
        if depth == 1:
            nested.append(len(result[1]))  # a nested call keeps its own log
        return result

    monkeypatch.setattr(reducer, "straighten", traced)
    final, log = to_standard(d)
    assert nested and max(nested) >= 1
    assert [mv.kind for mv in log.moves] == ['22'] * 7
    assert final.canonical_key() == standard_diagram(
        d.trace()[0]).canonical_key()


def _face_flood_under(diagram, a, dirn):
    """Reference for ``_under_cross``: (faces, crossings) strictly between
    the strand S at ``a`` and its interval, by flooding face adjacency from
    the outer face, blocked by S's edges and the interval's boundary arcs.
    """
    s = diagram.strands()[a // 2]
    assert s[0] == a
    span = [a] + interval_interior(2 * diagram.n, a, s[1], dirn) + [s[1]]
    # ('+', i) is the boundary arc from endpoint i toward i+1
    blocked_arcs = set(span[:-1] if dirn == 1 else span[1:])
    faces = diagram.faces()
    todo = [f for f in faces
            if any(d[0] == '+' and d[1] not in blocked_arcs
                   for d in f.darts)]
    reach = set(f.key for f in todo)
    blocked = set(frozenset(e) for e in strand_path(s))
    while todo:
        for d in todo.pop().darts:
            if d[0] not in ('b', 'c'):
                continue
            q = diagram.partner(d)
            if frozenset((d, q)) in blocked:
                continue
            other = diagram.face_of(q)
            if other.key not in reach:
                reach.add(other.key)
                todo.append(other)
    s_cross = set(c for c, _ in s[2])
    under_faces = set(f.key for f in faces if f.key not in reach)
    under_cross = set(d[1] for f in faces if f.key in under_faces
                      for d in f.darts
                      if d[0] == 'c' and d[1] not in s_cross)
    return under_faces, under_cross


def _face_flood_pieces(diagram, a, dirn, sides):
    """Reference for ``_under_pieces``: a piece between consecutive
    crossings with S is under S iff its crossings are under, or, when it
    has none, its edge borders an under face.  Counts each decision in
    ``sides``, by (under, the piece has crossings)."""
    s_main = diagram.strands()[a // 2]
    s_pos = {c: t for t, (c, _) in enumerate(s_main[2])}
    under_faces, under_cross = _face_flood_under(diagram, a, dirn)
    for s in diagram.strands():
        if s is s_main:
            continue
        seq = [c for c, _ in s[2]]
        hits = [t for t, c in enumerate(seq) if c in s_pos]
        for t1, t2 in zip(hits, hits[1:]):
            between = seq[t1 + 1:t2]
            if between:
                under = all(c in under_cross for c in between)
            else:
                edge = strand_path(s)[t1 + 1]
                under = any(diagram.face_of(x).key in under_faces
                            for x in edge)
            sides[under, bool(between)] += 1
            if under:
                c1, c2 = seq[t1], seq[t2]
                yield ((len(between), abs(s_pos[c1] - s_pos[c2])), s, t1, t2,
                       c1, c2)


@pytest.mark.parametrize("name", ["6x5-cw", "recursing"])
def test_under_side_agrees_with_the_face_flood(monkeypatch, name):
    """At every straightening step (each ``_innermost_double`` call, the
    combing goal's too), the crossings under S and the pieces decided
    under S match the face-flood reference.  On the 6x5 dual under 'cw'
    a piece with crossings lies over S; on the pinned n=7 diagram one
    lies under S, and the recursion straightens it."""
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    if name == "6x5-cw":
        d = tiling_to_diagram(enumerate_tilings(Region.rectangle(6, 5))[0])
        strategy = "cw"
    else:
        d, strategy = _recursing_diagram(), "inclusion"
    sides = Counter()
    own = reducer._innermost_double

    def compared(diagram, a, dirn):
        _, under_cross = _face_flood_under(diagram, a, dirn)
        assert reducer._under_cross(diagram, a, dirn) == under_cross
        assert list(reducer._under_pieces(diagram, a, dirn)) == list(
            _face_flood_pieces(diagram, a, dirn, sides))
        return own(diagram, a, dirn)

    monkeypatch.setattr(reducer, "_innermost_double", compared)
    final, _ = to_standard(d, strategy)
    assert final.canonical_key() == standard_diagram(
        d.trace()[0], strategy).canonical_key()
    # empty pieces on both sides, and a piece with crossings over S on
    # the 6x5 dual, under S (the recursion's) on the n=7 diagram
    assert sides[True, False] and sides[False, False]
    assert sides[name == "recursing", True]


# the reducer's open defects: the messages of the ReductionErrors that
# a connected diagram may still raise; none is known
OPEN_DEFECTS = ()


def reduce_cell(n, extra):
    """Reduce every connected diagram of every matching on ``n`` pairs
    with ``extra`` crossings over the minimum, and replay each log: its
    crossing count never rises and it ends on the standard diagram.
    Returns the number of diagrams and a Counter of the failures, each
    as its exception's class name and message."""
    diagrams, failures = 0, Counter()
    for m in all_matchings(n):
        target = standard_diagram(m).canonical_key()
        k = minimal_crossing_count(m) + extra
        for d in enumerate_connected_diagrams(m, k).values():
            diagrams += 1
            try:
                _, log = reduce_to_minimal(d)
            except (ReductionError, MoveError) as exc:
                failures["%s: %s" % (type(exc).__name__, exc)] += 1
                continue
            cur, counts = d, [k]
            for mv, key in zip(log.moves, log.keys):
                cur = apply_move(cur, mv)
                assert cur.canonical_key() == key
                counts.append(cur.crossing_count())
            assert counts == sorted(counts, reverse=True)
            assert cur.canonical_key() == target
    return diagrams, failures


def test_reduce_every_connected_diagram_of_the_small_cells():
    """n=1 at +1..+3, n=2 at +1..+2 and n=3 at +1 crossings over the
    minimum: 3,870 diagrams, none failing."""
    total, failed = 0, Counter()
    for n, extra in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)):
        diagrams, failures = reduce_cell(n, extra)
        total += diagrams
        failed += failures
    assert total == 3870
    assert set(failed) <= {"ReductionError: " + m for m in OPEN_DEFECTS}
    assert sum(failed.values()) == 0, failed


def test_reduce_every_connected_diagram_with_four_pairs_at_one_extra():
    """n=4 at one crossing over the minimum: all 1,104 diagrams of the 24
    matchings reduce, and every log replays."""
    diagrams, failures = reduce_cell(4, 1)
    assert diagrams == 1104
    assert sum(failures.values()) == 0, failures


def _extract_region_cases():
    """Seeded crossing regions of inflations with free loops: the whole
    crossing set, connected regions grown from a random crossing, and
    random subsets (some of which are not disks)."""
    for seed in range(24):
        rng = random.Random(seed)
        n = 2 + seed % 4
        outs = [2 * i + 1 for i in range(n)]
        rng.shuffle(outs)
        m = Matching.from_dict(n, dict(zip(range(0, 2 * n, 2), outs)))
        d, _ = inflate(standard_diagram(m), 1 + seed % 3, 1 + seed % 4,
                       rng.randint(0, 6), rng)
        yield d, list(d.crossings)
        for _ in range(5):
            size = rng.randint(1, d.crossing_count())
            region = {rng.choice(d.crossings)}
            todo = list(region)
            while todo and len(region) < size:
                c = todo.pop(rng.randrange(len(todo)))
                for s in range(6):
                    q = d.edges[('c', c, s)]
                    if q[0] == 'c' and q[1] not in region and len(region) < size:
                        region.add(q[1])
                        todo.append(q[1])
            yield d, sorted(region)
        for _ in range(3):
            yield d, rng.sample(d.crossings, rng.randint(1, d.crossing_count()))


def test_extract_region_pinned():
    """Sub-diagram keys, legs and refusals of ``extract_region``, pinned."""
    lines = []
    carried = 0
    for d, region in _extract_region_cases():
        try:
            sub, legs = extract_region(d, region)
        except ReductionError as exc:
            lines.append("error %s" % exc)
            continue
        carried += bool(sub.loops)
        lines.append("%s %s" % (sub.canonical_key(), " ".join(
            port_str(p) + "-" + port_str(q) for p, q in legs)))
    assert len(lines) == 216
    assert sum(line.startswith("error ") for line in lines) == 11
    assert carried == 92
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ("c815fa4e000c102d3c9a3451e38af82c"
                      "ada23bc6d53c5fbc19fd983db39621a1")


# ----------------------------------------------------------------------
# the reducer's breadth-first search

def _dual_4x3_distances():
    """The 4x3 dual's standard diagram, and the move-graph distance of
    every vertex of its component from it."""
    from tricross import (Region, enumerate_tilings, tiling_to_diagram,
                          enumerate_component)
    m = tiling_to_diagram(
        enumerate_tilings(Region.rectangle(4, 3))[0]).trace()[0]
    g = enumerate_component(m)
    adj = {}
    for pair in g.edges:
        a, b = min(pair), max(pair)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    dist = {g.root: 0}
    frontier = [g.root]
    while frontier:
        nxt = []
        for a in frontier:
            for b in adj[a]:
                if b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    assert len(dist) == len(g.vertices) > 2
    return g.vertices[g.root], dist


def _reaches(root, path, target):
    cur = root
    for mv in path:
        assert mv.kind == '22'
        cur = apply_move(cur, mv)
    return cur.canonical_key() == target


def test_search_paths_are_shortest():
    root, dist = _dual_4x3_distances()
    for target, k in dist.items():
        if k:
            path = _search(root, lambda d: d.canonical_key() == target,
                           "stuck")
            assert len(path) == k and _reaches(root, path, target)


def test_search_falls_back_past_the_window():
    root, dist = _dual_4x3_distances()
    fell_back = 0
    for c in root.crossings:
        window = set(root.crossings) - {c}
        inside = {nd.canonical_key() for *_, nd, _ in closure(root, window)}
        for target, k in dist.items():
            if k and target not in inside:
                path = _search(root, lambda d: d.canonical_key() == target,
                               "stuck", window)
                assert len(path) == k and _reaches(root, path, target)
                assert any(c in (mv.data[0][0], mv.data[1][0])
                           for mv in path)
                fell_back += 1
    assert fell_back


def test_search_raises_stuck_when_no_goal_state():
    root, dist = _dual_4x3_distances()
    start = root.canonical_key()
    for window in (None, set(root.crossings[1:])):
        with pytest.raises(ReductionError, match="^nowhere$"):
            _search(root, lambda d: False, "nowhere", window)
        # the start state is never tested
        with pytest.raises(ReductionError, match="^nowhere$"):
            _search(root, lambda d: d.canonical_key() == start, "nowhere",
                    window)


def test_search_state_cap():
    root, dist = _dual_4x3_distances()
    states = len(dist)  # the start state counts
    with pytest.raises(ReductionError, match="^nowhere$"):
        _search(root, lambda d: False, "nowhere", cap=states)
    for cap in (3, states - 1):
        with pytest.raises(ReductionError,
                           match="^window search exceeded %d states$" % cap):
            _search(root, lambda d: False, "nowhere", cap=cap)
