"""The reducer: straightening, standardization, connection, macros."""

import hashlib
import random
from collections import Counter

import pytest

from tricross import (STRATEGIES, TripleDiagram, Matching, standard_diagram,
                      to_standard, reduce_to_minimal, connect_minimal,
                      slide_macro, pattern_template, inflate, is_minimal,
                      replay, find_badgons, enumerate_connected_diagrams,
                      minimal_crossing_count, textio)
from tricross import reduce as reducer
from tricross.diagram import port_str, strand_path
from tricross.moves import apply_move, MoveError, MoveLog
from tricross.reduce import (straighten, region_legs, ReductionError,
                             _search, match_window)
from tricross.standard import interval_interior, template_slots

from conftest import all_matchings, component_diagrams
from test_golden import inflation
from test_textio_cli import reference_face_index


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


def test_reducing_one_inflated_monogon_makes_one_10():
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
    from tricross import Region, enumerate_tilings, tiling_to_diagram
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
    assert parsed.moves == log.moves and parsed.faces == log.faces
    target = standard_diagram(d.trace()[0]).canonical_key()
    assert (replay(d, parsed).canonical_key() == end.canonical_key()
            == log.end.canonical_key() == final.canonical_key() == target)


def test_closed_strands_interlocked_with_the_arc_reduce():
    """The arc and two closed strands through both of its crossings: a
    2<->2 move exposes the first empty monogon."""
    d = _diagram(1, 2, "B0-C0.0 B1-C1.1 C0.1-C1.0 C0.2-C1.5 C0.3-C1.4 "
                       "C0.4-C1.3 C0.5-C1.2")
    final, log = reduce_to_minimal(d)
    assert [mv.kind for mv in log.moves] == ['22', '10', 'drop', '10', 'drop']
    assert final.canonical_key() == standard_diagram(
        d.trace()[0]).canonical_key()


def _recorded_inputs():
    yield from (inflation(seed) for seed in range(20))
    yield _with_floating_crossing()[1]
    yield _three_closed_strands()
    yield _recursing_diagram()


@pytest.mark.parametrize("strategy", ["inclusion", "cw", "ccw"])
def test_to_standard_records_the_faces_and_end_a_fresh_replay_reads(
        strategy):
    """The face indexes read as the reducer applies its moves, nested
    straightenings' moves included once, are those ``replay`` reads as it
    applies the logged moves again from the input, and the log's end is
    the reducer's result, whose key the replay ends on."""
    for d in _recorded_inputs():
        final, log = to_standard(d, strategy)
        end = replay(d, log)  # raises at the first face that differs
        assert len(log.faces) == len(log.moves)
        assert log.end is final
        assert final.canonical_key() == end.canonical_key()


def test_to_standard_of_a_standard_input_ends_at_the_result():
    """An input that needs no move still gets a log whose end is the
    result, and ``replay`` accepts that log."""
    m = Matching.from_dict(5, {0: 5, 2: 7, 4: 9, 6: 1, 8: 3})
    for strategy in STRATEGIES:
        d = standard_diagram(m, strategy)
        final, log = to_standard(d, strategy)
        assert not log.moves and log.end is final
        assert (replay(d, log).canonical_key() == final.canonical_key()
                == d.canonical_key())


def _reference_residual(diagram, active, frontier):
    """The residual of a region, the standalone diagram whose endpoint i
    is anchor port ``frontier[i]`` and whose crossings are ``active``,
    built through an edge list as ``from_edge_list`` reads one, with the
    free loops whose faces lie inside it."""
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


def _port(n, code):
    """The port of partner-array code ``code``."""
    m = 2 * n
    return ('b', code) if code < m else ('c',) + divmod(code - m, 6)


def _whole(diagram):
    """The region of all of ``diagram``: its endpoints and crossings."""
    return reducer._region(range(2 * diagram.n), set(diagram.crossings))


def _residual(diagram, region):
    """The reference residual of ``region`` (the reducer's anchor port
    codes, their index and crossing ids) in ``diagram``, checked."""
    anchors, _, active = region
    return _reference_residual(diagram, active, [
        _port(diagram.n, q) for q in anchors]).check()


def _reference_read(sub, a, dirn):
    """The residual's strand from endpoint ``a``, as (end, visits,
    boundary-parallel?), read off its traced strands as the reducer
    read it before it read strands in place."""
    _, b, visits = sub.strands()[a // 2]
    interior = interval_interior(2 * sub.n, a, b, dirn)
    k = len(interior) // 2
    part, m = sub.partners(), 2 * sub.n
    return b, visits, (
        len(visits) == k == len(set(c for c, _ in visits))
        and all(part[m + 6 * c + x] == interior[2 * j + h]
                for j, (c, e) in enumerate(visits)
                for h, x in enumerate(template_slots(e, dirn)[:2])))


def _reads_agree(read, diagram, region, a, dirn):
    """``read`` (``_read_strand``) of the strand S from anchor ``a`` of
    ``region`` in place, and S's ``_under_cross``, ``_under_pieces`` and
    ``_comb_potential``, asserted equal to the same reads of the region's
    reference residual, which checks: the strand read to the reference
    read of its traced strands, the others to the reducer's reads of the
    whole residual.  Returns (the residual's chords, the verdict) and
    the read."""
    got = read(diagram, region, a, dirn)
    sub = _residual(diagram, region)
    assert got == _reference_read(sub, a, dirn)
    whole = _whole(sub)
    for name in ("_under_cross", "_under_pieces", "_comb_potential"):
        reads = getattr(reducer, name)
        assert list(reads(diagram, region, a, dirn)) == list(
            reads(sub, whole, a, dirn)), name
    m = 2 * sub.n
    return (sum(0 <= q < m for q in sub.partners()[:m]) // 2, got[2]), got


def _residual_reads(monkeypatch):
    """Patch the reducer so that each strand read, at each ``to_standard``
    step and each straightening step, also compares the reads with the
    region's residual (``_reads_agree``).  Returns the lists that get,
    per read, (the residual's chords, the in-place verdict): "steps" at
    ``to_standard``'s steps, "straightening" inside ``straighten``, and
    each ``straighten`` call's depth."""
    read, own = reducer._read_strand, reducer.straighten
    seen = {"steps": [], "straightening": [], "depths": []}
    nested = []  # the depths of the straightenings running

    def compared(diagram, region, a, dirn):
        step, got = _reads_agree(read, diagram, region, a, dirn)
        seen["straightening" if nested else "steps"].append(step)
        return got

    def straightening(diagram, region, a, dirn, log, depth=0):
        seen["depths"].append(depth)
        nested.append(depth)
        try:
            return own(diagram, region, a, dirn, log, depth)
        finally:
            nested.pop()

    monkeypatch.setattr(reducer, "_read_strand", compared)
    monkeypatch.setattr(reducer, "straighten", straightening)
    return seen


@pytest.mark.parametrize("strategy", ["inclusion", "cw", "ccw"])
def test_the_in_place_read_is_the_residual_read(monkeypatch, strategy):
    """At every step of ``to_standard`` and of its straightenings, the
    strand read in place on the full diagram's partner array (end
    anchor, visits, boundary-parallel), the crossings and pieces under
    it and the combing potential are those of the region's residual,
    which checks: over the recorded inputs under every strategy, and
    under 'inclusion' over every connected diagram with n <= 3 at one
    crossing over the minimum.

    On the minimal diagrams that the reducer reads, no verdict changes
    when the test skips one hanging slot or the visit count, so each
    diagram of that cell is also read before it is reduced: every strand
    both ways, over every rotation of its endpoints."""
    read = reducer._read_strand
    seen = _residual_reads(monkeypatch)
    steps = seen["steps"]
    for d in _recorded_inputs():
        to_standard(d, strategy)
    assert {v for _, v in steps} == {True, False}
    assert {v for _, v in seen["straightening"]} == {True, False}
    if strategy != "inclusion":
        return
    # 100 steps, 4 of which straighten, one of those with one recursion,
    # and read again (175 chords over their residuals)
    assert (len(steps), sum(c for c, _ in steps)) == (104, 175)
    assert sum(not v for _, v in steps) == 4
    assert sorted(seen["depths"]) == [0, 0, 0, 0, 1]
    raw = Counter()
    for n in (1, 2, 3):
        m2 = 2 * n
        for m in all_matchings(n):
            for d in enumerate_connected_diagrams(
                    m, minimal_crossing_count(m) + 1).values():
                for r in range(0, m2, 2):
                    region = reducer._region(
                        [(r + i) % m2 for i in range(m2)], set(d.crossings))
                    for a in range(0, m2, 2):
                        for dirn in (1, -1):
                            step, _ = _reads_agree(read, d, region, a, dirn)
                            raw[step[1]] += 1
                to_standard(d, strategy)
    assert len(steps) == 104 + 476  # none of them straightens
    assert raw == {True: 714, False: 2026}


def test_an_under_flood_past_the_region_fails_the_residual_reads(
        monkeypatch):
    """The residual reads can fail: the recorded inputs pass them, and
    an ``_under_cross`` that floods past the region's crossings, into
    every crossing of the diagram, fails them."""
    _residual_reads(monkeypatch)
    for d in _recorded_inputs():
        to_standard(d)
    own = reducer._under_cross

    def flooding(diagram, region, a, dirn):
        anchors, index, _ = region
        return own(diagram, (anchors, index, set(diagram.crossings)), a,
                   dirn)

    monkeypatch.setattr(reducer, "_under_cross", flooding)
    with pytest.raises(AssertionError, match="_under_cross"):
        for d in _recorded_inputs():
            to_standard(d)


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

    def counted(diagram, region, a, dirn, log):
        combs.append((a, dirn))
        return comb(diagram, region, a, dirn, log)

    monkeypatch.setattr(reducer, "_comb", counted)
    log = MoveLog(d)
    final = straighten(d, _whole(d), 0, 1, log)
    assert combs and set(combs) == {(0, 1)}
    assert log.moves and all(mv.kind == '22' for mv in log.moves)
    assert _reference_read(final, 0, 1)[2]
    assert replay(d, log).canonical_key() == final.canonical_key()
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

    def traced(diagram, region, a, dirn, log, depth=0):
        depths.append(depth)
        return outer(diagram, region, a, dirn, log, depth)

    monkeypatch.setattr(reducer, "straighten", traced)
    recursed = []
    for i, t in enumerate(enumerate_tilings(Region.rectangle(4, 3))):
        d = tiling_to_diagram(t)
        del depths[:]
        final, log = to_standard(d)
        assert all(mv.kind == '22' for mv in log.moves)
        assert final.canonical_key() == standard_diagram(
            d.trace()[0]).canonical_key()
        if max(depths, default=0) > 0:
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

    def traced(diagram, region, a, dirn, log, depth=0):
        made = len(log)  # a nested call records in the reduction's log
        result = outer(diagram, region, a, dirn, log, depth)
        if depth == 1:
            nested.append(len(log) - made)
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
    under S, read in place, match the face-flood reference on the
    region's residual.  On the 6x5 dual under 'cw' a piece with
    crossings lies over S; on the pinned n=7 diagram one lies under S,
    and the recursion straightens it."""
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    if name == "6x5-cw":
        d = tiling_to_diagram(enumerate_tilings(Region.rectangle(6, 5))[0])
        strategy = "cw"
    else:
        d, strategy = _recursing_diagram(), "inclusion"
    sides = Counter()
    own = reducer._innermost_double

    def compared(diagram, region, a, dirn):
        sub = _residual(diagram, region)
        _, under_cross = _face_flood_under(sub, a, dirn)
        assert reducer._under_cross(diagram, region, a, dirn) == under_cross
        assert list(reducer._under_pieces(diagram, region, a, dirn)) == list(
            _face_flood_pieces(sub, a, dirn, sides))
        return own(diagram, region, a, dirn)

    monkeypatch.setattr(reducer, "_innermost_double", compared)
    final, _ = to_standard(d, strategy)
    assert final.canonical_key() == standard_diagram(
        d.trace()[0], strategy).canonical_key()
    # empty pieces on both sides, and a piece with crossings over S on
    # the 6x5 dual, under S (the recursion's) on the n=7 diagram
    assert sides[True, False] and sides[False, False]
    assert sides[name == "recursing", True]


# inflations of the sweep in tools/reduce_corpus.py, n in 6..14 and 20 to
# 300 shuffles, on which a side check of the piece's legs raised "no
# S-side span for the double piece": (seed, draw, strategy, n, crossings,
# edges); a crossing not on S lies between S and the piece
SWEPT = (
    (2, 169, "ccw", 13, 18,
     "B0-C0.0 B1-C1.1 B10-C5.2 B11-C5.3 B12-C6.0 B13-B14 B15-C7.1 "
     "B16-C7.2 B17-C7.3 B18-C8.0 B19-C8.1 B2-C2.0 B20-C9.0 B21-C9.1 "
     "B22-C10.0 B23-C11.1 B24-C11.2 B25-C11.3 B3-C2.1 B4-C2.2 B5-C3.1 "
     "B6-C4.0 B7-C4.1 B8-C4.2 B9-C5.1 C0.1-C1.0 C0.2-C12.1 C0.3-C13.0 "
     "C0.4-C14.1 C0.5-C11.4 C1.2-C2.5 C1.3-C3.4 C1.4-C6.3 C1.5-C12.2 "
     "C10.1-C11.0 C10.2-C11.5 C10.3-C14.0 C10.4-C14.5 C12.0-C13.1 "
     "C12.5-C17.0 C13.4-C14.3 C13.5-C14.2 C15.4-C16.3 C15.5-C16.2 "
     "C16.4-C16.5 C17.2-C17.3 C2.3-C3.0 C2.4-C3.5 C3.2-C4.5 C3.3-C15.0 "
     "C4.3-C5.0 C4.4-C15.1 C5.4-C15.3 C5.5-C15.2 C6.1-C7.0 C6.2-C12.3 "
     "C6.4-C16.1 C6.5-C16.0 C7.4-C17.1 C7.5-C12.4 C8.2-C9.5 C8.3-C13.2 "
     "C8.4-C17.5 C8.5-C17.4 C9.2-C10.5 C9.3-C14.4 C9.4-C13.3"),
    (4, 47, "cw", 10, 17,
     "B0-C0.0 B1-C0.1 B10-C4.2 B11-C5.1 B12-C5.2 B13-C5.3 B14-C6.0 "
     "B15-C6.1 B16-C7.0 B17-C8.1 B18-C8.2 B19-C0.5 B2-C1.0 B3-C1.1 "
     "B4-C1.2 B5-C2.1 B6-C3.0 B7-C3.1 B8-C4.0 B9-C4.1 C0.2-C9.1 "
     "C0.3-C9.0 C0.4-C8.3 C1.3-C2.0 C1.4-C10.1 C1.5-C9.2 C10.0-C15.3 "
     "C10.3-C12.0 C10.4-C13.3 C10.5-C15.4 C11.4-C16.1 C11.5-C16.0 "
     "C12.2-C16.3 C12.3-C16.2 C12.4-C14.3 C12.5-C13.4 C13.2-C15.5 "
     "C13.5-C14.2 C14.4-C14.5 C16.4-C16.5 C2.2-C3.5 C2.3-C11.0 "
     "C2.4-C12.1 C2.5-C10.2 C3.2-C4.5 C3.3-C5.0 C3.4-C11.1 C4.3-C4.4 "
     "C5.4-C6.5 C5.5-C11.2 C6.2-C7.5 C6.3-C7.4 C6.4-C11.3 C7.1-C13.0 "
     "C7.2-C14.1 C7.3-C14.0 C8.0-C13.1 C8.4-C9.5 C8.5-C15.0 C9.3-C15.2 "
     "C9.4-C15.1"),
)


@pytest.mark.parametrize("seed, draw, strategy, n, crossings, edges", SWEPT,
                         ids=["seed%d-draw%d" % case[:2] for case in SWEPT])
def test_a_piece_with_crossings_between_it_and_s_reduces(
        seed, draw, strategy, n, crossings, edges):
    """The swept inflation reduces to the standard diagram of its
    strategy, and its log replays (``reduce_replayed``)."""
    d = _diagram(n, crossings, edges)
    target = standard_diagram(d.trace()[0], strategy).canonical_key()
    assert reduce_replayed(d, target, strategy) is None


def _random_matching(n, rng):
    """A matching of n in-endpoints to shuffled out-endpoints, drawn as
    ``tools/output_digests.py`` draws its ``components`` matchings."""
    outs = [2 * i + 1 for i in range(n)]
    rng.shuffle(outs)
    return Matching.from_dict(n, dict(zip(range(0, 2 * n, 2), outs)))


def _recursing_inputs():
    """(diagram, strategy): every vertex of the ``components`` digest's
    move-graph components under every strategy, then the swept
    inflations under every strategy."""
    rng = random.Random(7)
    matchings = [_random_matching(n, rng) for n in (7, 8) for _ in range(40)]
    diagrams = [d for m in matchings for d in component_diagrams(m)]
    diagrams += [_diagram(*case[3:]) for case in SWEPT]
    for d in diagrams:
        for strategy in STRATEGIES:
            yield d, strategy


def _legs_side(diagram, region, a, dbl):
    """The side that a check of the piece's own legs picks: the region of
    the piece's crossings alone has legs strictly between the piece's
    entry and exit on each side, and a side qualifies when all of them
    attach to crossings of S, the shorter span first.  None when neither
    side qualifies."""
    s, t1, t2, _, _ = dbl
    legs = region_legs(diagram, [c for c, _ in s[2][t1 + 1:t2]])
    inners = [inner for inner, _ in legs]
    c_out, x_out = s[2][t2 - 1]
    a_idx = inners.index(('c',) + s[2][t1 + 1])
    b_idx = inners.index(('c', c_out, (x_out + 3) % 6))
    s_cross = set(c for c, _ in reducer._strand(diagram, region, a)[2])
    spans = [(len(span), side) for side in (1, -1)
             for span in [interval_interior(len(legs), a_idx, b_idx, side)]
             if all(legs[t][1][0] == 'c' and legs[t][1][1] in s_cross
                    for t in span)]
    return min(spans, key=lambda p: p[0], default=(0, None))[1]


def _recursion_sides(monkeypatch):
    """Patch the reducer so that each double-crossing recursion asserts
    that U runs against S (S meets c2 before c1, as U meets c1 before
    c2) and that the nested straightening runs along the side that
    ``_legs_side`` picks, wherever it picks one.  Returns the list of
    (the straightening's side, the picked side or None), one per
    recursion, with the depths in a list beside it."""
    own_remove, own_straighten = reducer._remove_double, reducer.straighten
    seen, depths, picked = [], [], []

    def removing(diagram, region, a, dirn, dbl, log, depth):
        s, t1, t2, c1, c2 = dbl
        if t2 > t1 + 1:
            s_seq = [c for c, _ in reducer._strand(diagram, region, a)[2]]
            assert s_seq.index(c2) < s_seq.index(c1), "U runs with S"
            picked.append(_legs_side(diagram, region, a, dbl))
        return own_remove(diagram, region, a, dirn, dbl, log, depth)

    def straightening(diagram, region, a, dirn, log, depth=0):
        if depth:
            side = picked.pop()
            assert side in (None, dirn), "recursion off the legs' side"
            seen.append((dirn, side))
            depths.append(depth)
        return own_straighten(diagram, region, a, dirn, log, depth)

    monkeypatch.setattr(reducer, "_remove_double", removing)
    monkeypatch.setattr(reducer, "straighten", straightening)
    return seen, depths


def test_the_recursion_runs_along_the_side_the_legs_check_picks(
        monkeypatch):
    """On every recursion of the ``components`` inputs and the swept
    inflations, U runs against S, and the side that the check of the
    piece's legs picks, wherever it picks one, is the interval's side
    ``dirn`` that the nested straightening runs along.  On the swept
    inflations it picks none at two recursions: there the reducer raised
    when it recursed along the side that check picked."""
    seen, depths = _recursion_sides(monkeypatch)
    for d, strategy in _recursing_inputs():
        to_standard(d, strategy)
    # 58 recursions on the components, 7 on the swept inflations, one of
    # them at depth 2; the picked sides run both ways
    assert Counter(seen) == {(1, 1): 59, (-1, -1): 4, (1, None): 1,
                             (-1, None): 1}
    assert Counter(depths) == {1: 64, 2: 1}


def test_a_turned_recursion_side_fails_the_side_check(monkeypatch):
    """The side check can fail: a recursion turned to ``-dirn`` fails it
    at the first recursion where the legs' check picks a side."""
    _recursion_sides(monkeypatch)
    checked = reducer.straighten

    def turned(diagram, region, a, dirn, log, depth=0):
        return checked(diagram, region, a, -dirn if depth else dirn, log,
                       depth)

    monkeypatch.setattr(reducer, "straighten", turned)
    with pytest.raises(AssertionError, match="off the legs' side"):
        for d, strategy in _recursing_inputs():
            to_standard(d, strategy)


# the reducer's open defects: the messages of the ReductionErrors that
# a connected diagram may still raise; none is known
OPEN_DEFECTS = ()


def reduce_replayed(d, target, strategy="inclusion"):
    """Reduce ``d`` under ``strategy`` and replay the log: each recorded
    face index is the one the replaying diagram reads before the move,
    the crossing count never rises and the log ends on ``target``, the
    standard diagram's key.  Returns None, or the failure as its
    exception's class name and message."""
    try:
        _, log = reduce_to_minimal(d, strategy)
    except (ReductionError, MoveError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    # a fresh copy, so that the face records the reference builds are not
    # kept on the caller's diagram
    cur = TripleDiagram(d.n, d.crossings, None, d.loops,
                        partners=d.partners())
    counts = [cur.crossing_count()]
    for mv, face in zip(log.moves, log.faces, strict=True):
        assert face == reference_face_index(cur, mv)
        cur = apply_move(cur, mv)
        counts.append(cur.crossing_count())
    assert counts == sorted(counts, reverse=True)
    assert cur.canonical_key() == log.end.canonical_key() == target
    return None


def reduce_cell(n, extra):
    """Reduce every connected diagram of every matching on ``n`` pairs
    with ``extra`` crossings over the minimum, and replay each log
    (``reduce_replayed``).
    Returns the number of diagrams and a Counter of the failures, each
    as its exception's class name and message."""
    diagrams, failures = 0, Counter()
    for m in all_matchings(n):
        target = standard_diagram(m).canonical_key()
        k = minimal_crossing_count(m) + extra
        for d in enumerate_connected_diagrams(m, k).values():
            diagrams += 1
            failed = reduce_replayed(d, target)
            if failed:
                failures[failed] += 1
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
    """Legs and refusals of ``region_legs``, and the keys of the regions'
    residuals (``_reference_residual``), pinned."""
    lines = []
    carried = 0
    for d, region in _extract_region_cases():
        try:
            legs = region_legs(d, region)
        except ReductionError as exc:
            lines.append("error %s" % exc)
            continue
        sub = _reference_residual(d, set(region),
                                  [outer for _, outer in legs]).check()
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
    return standard_diagram(m), dist


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


def test_search_state_cap(monkeypatch):
    """The cap counts the states a search reaches, the start among them,
    and its error names the search's scope: the whole diagram (11 states)
    or a window (7)."""
    assert reducer.SEARCH_CAP == 30000
    root, dist = _dual_4x3_distances()
    for scope, window, states in (("whole-diagram", None, len(dist)),
                                  ("window", set(root.crossings[1:]), 7)):
        monkeypatch.setattr(reducer, "SEARCH_CAP", states)
        with pytest.raises(ReductionError, match="^nowhere$"):
            _search(root, lambda d: False, "nowhere", window)
        for cap in (3, states - 1):
            monkeypatch.setattr(reducer, "SEARCH_CAP", cap)
            with pytest.raises(ReductionError, match="^%s search exceeded "
                               "%d states$" % (scope, cap)):
                _search(root, lambda d: False, "nowhere", window)
