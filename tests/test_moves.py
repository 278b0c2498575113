"""Local moves: sites, the 2<->2 template, 1->0 splices, badgons, logs."""

import copy
import random
from itertools import chain, combinations

import pytest

from tricross import (TripleDiagram, Matching, standard_diagram,
                      find_22_sites, find_10_sites, apply_22, apply_10,
                      apply_01, drop_loop, add_loop, find_badgons,
                      is_minimal, replay, MoveError)
from tricross import moves as moves_module
from tricross.moves import (OneZeroSite, MoveLog, Move, apply_move, Badgon,
                            scan_badgons, rekeyed_22)
from tricross.reduce import pattern_template, inflate, reduce_to_minimal
from tricross.diagram import is_source

from conftest import (all_matchings, candidates_01, closure_applied,
                      component_diagrams, diagrams_10_01, diagrams_with_loops,
                      floating_island, legs_22)
from test_golden import dual_matching, inflation
from test_textio_cli import reference_face_index


def test_no_sites_on_single_crossing(rotation3):
    assert find_22_sites(standard_diagram(rotation3)) == []


def test_no_sites_on_noncrossing(nested3):
    assert find_22_sites(standard_diagram(nested3)) == []


def test_two_crossing_bigon_has_one_site():
    left, _, _ = pattern_template('a', 1)
    assert left.crossing_count() == 2
    assert left.n == 4
    assert len(find_22_sites(left)) == 1


def test_22_preserves_everything_and_inverts():
    left, _, _ = pattern_template('a', 1)
    site = find_22_sites(left)[0]
    central_color = left.face_by_key(site.face_key).color
    after = apply_22(left, site)
    assert after.validate() == []
    assert after.crossing_count() == left.crossing_count()
    assert after.trace() == left.trace()
    # central face color preserved
    site2 = find_22_sites(after)[0]
    assert after.face_by_key(site2.face_key).color == central_color
    # involution up to canonical key
    again = apply_22(after, site2)
    assert again.canonical_key() == left.canonical_key()


def _swapped_and_turned(mv, turn):
    """The port map taking X and Y of the 2<->2 move ``mv`` at ((X, x1),
    (Y, y1)) to each other, turned by ``y1 - x1 + turn`` and ``x1 - y1 +
    turn``; it fixes every other port."""
    (X, x1), (Y, y1) = mv.data
    to = {X: (Y, y1 - x1 + turn), Y: (X, x1 - y1 + turn)}

    def f(port):
        if port[0] != 'c' or port[1] not in to:
            return port
        c, off = to[port[1]]
        return ('c', c, (port[2] + off) % 6)
    return f


def test_the_inverse_22_lands_on_its_start_swapped_and_turned():
    """On every move of the 4x3, 4x4 and 6x4 duals' closures, applying
    ``mv.inverse()`` to the result gives the start with X and Y swapped
    and turned: port (X, s) of the start is port (Y, s + y1 - x1 + 2),
    and (Y, s) is (X, s + x1 - y1 + 2), port by port; ``connect_minimal``
    walks back by this rule.  A turn of 0 fails on every move."""
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    taken = 0
    for w, h in ((4, 3), (4, 4), (6, 4)):
        dual = tiling_to_diagram(enumerate_tilings(Region.rectangle(w, h))[0])
        for d, site, nd, _, _ in closure_applied(dual):
            mv = Move('22', (site.x, site.y))
            back = apply_move(nd, mv.inverse())
            assert sorted(back.crossings) == sorted(d.crossings)
            ports = [('b', i) for i in range(2 * d.n)] + [
                ('c', c, s) for c in d.crossings for s in range(6)]
            for turn, holds in ((2, True), (0, False)):
                f = _swapped_and_turned(mv, turn)
                assert all(back.partner(f(p)) == f(d.partner(p))
                           for p in ports) == holds
            taken += 1
    assert taken == 14 + 70 + 828


def _disjoint_22_pairs_commute(vertices):
    """Over every pair of 2<->2 sites of each of ``vertices`` whose four
    crossings are distinct, the first move of either order leaves a
    pairing of ports, and both orders give the same partner at every
    port.  Returns the number of pairs."""
    pairs = 0
    for d in vertices:
        for s, t in combinations(find_22_sites(d), 2):
            if {s.x[0], s.y[0]} & {t.x[0], t.y[0]}:
                continue
            results = []
            for first, second in ((s, t), (t, s)):
                mid = apply_22(d, first)
                # still a pairing of ports, at each port
                pairing = mid.partners()
                assert all(pairing[b] == a for a, b in enumerate(pairing)
                           if b >= 0)
                # the moves touch no port of the other's face
                results.append(apply_22(mid, second))
            st, ts = results
            assert sorted(st.crossings) == sorted(ts.crossings)
            ports = [('b', i) for i in range(2 * d.n)] + [
                ('c', c, k) for c in d.crossings for k in range(6)]
            assert all(st.partner(p) == ts.partner(p) for p in ports)
            pairs += 1
    return pairs


def test_moves_at_disjoint_22_sites_commute():
    """Two 2<->2 moves whose sites share no crossing rewrite disjoint
    ports, so they commute: on every vertex of the 4x3, 4x4 and 6x4
    duals' closures, every such pair of sites gives one partner array in
    either order.  ``closure`` infers moves through these squares."""
    counts = [_disjoint_22_pairs_commute(
        component_diagrams(dual_matching(w, h)))
        for w, h in ((4, 3), (4, 4), (6, 4))]
    assert counts[1] + counts[2] == 3984 and counts[0] > 0


def turn_template(monkeypatch):
    """Patch ``_joins_22`` to rewire each 2<->2 site as if its corner
    darts were turned by 2."""
    joins = moves_module._joins_22

    def turned(diagram, site):
        (X, x1), (Y, y1) = site.x, site.y
        return joins(diagram, site._replace(x=(X, (x1 + 2) % 6),
                                            y=(Y, (y1 + 2) % 6)))

    monkeypatch.setattr(moves_module, "_joins_22", turned)


def test_the_commuting_check_fails_under_a_turned_template(monkeypatch):
    """With the template turned by 2, disjoint moves no longer commute
    port by port on the 4x3 dual's closure."""
    vertices = component_diagrams(dual_matching(4, 3))
    turn_template(monkeypatch)
    with pytest.raises(AssertionError):
        _disjoint_22_pairs_commute(vertices)


def test_22_matching_preserved_over_all_standard_sites():
    for n in range(2, 6):
        for m in all_matchings(n):
            d = standard_diagram(m)
            for site in find_22_sites(d):
                nd = apply_22(d, site)
                assert nd.validate() == []
                traced, loops = nd.trace()
                assert traced == m and not loops


def test_22_stale_site_rejected():
    left, _, _ = pattern_template('a', 2)
    sites = find_22_sites(left)
    site = sites[0]
    moved = apply_22(left, site)
    other = [s for s in find_22_sites(moved)
             if s.face_key != site.face_key]
    if other:
        with pytest.raises(MoveError):
            # site addresses from the old diagram may have gone stale
            apply_22(apply_22(moved, other[0]), site)


def test_apply_move_refuses_a_22_move_off_its_site():
    """``apply_move`` leaves the site check to ``apply_22``: a 2<->2 move
    whose second dart is not the bigon's other one, or whose first dart
    borders no bigon, raises MoveError."""
    left, _, _ = pattern_template('a', 2)
    site = find_22_sites(left)[0]
    Y, y1 = site.y
    with pytest.raises(MoveError, match="face changed"):
        apply_move(left, Move('22', (site.x, (Y, (y1 + 2) % 6))))
    wide = next(d[1:] for f in left.faces() if len(f.darts) > 2
                for d in f.darts if d[0] == 'c')
    with pytest.raises(MoveError, match="face changed"):
        apply_move(left, Move('22', (wide, site.y)))
    assert apply_move(left, Move('22', (site.x, site.y))) == apply_22(left,
                                                                      site)


def test_10_monogon_splice():
    # one crossing with a petal on slots (0, 1) and four boundary legs:
    # removal leaves two disjoint arcs
    d = TripleDiagram.from_edge_list(2, [0], [
        (('b', 0), ('c', 0, 2)), (('c', 0, 3), ('b', 1)),
        (('b', 2), ('c', 0, 4)), (('c', 0, 5), ('b', 3)),
        (('c', 0, 1), ('c', 0, 0))])
    assert d.validate() == []
    sites = find_10_sites(d)
    assert sites == [OneZeroSite(0, 0)]
    after = apply_10(d, sites[0])
    assert after.validate() == []
    assert after.crossing_count() == 0
    assert after.trace()[0] == d.trace()[0]


def test_10_on_floating_component_yields_loops():
    island = TripleDiagram.from_edge_list(
        0, [7], [(('c', 7, 1), ('c', 7, 0)), (('c', 7, 3), ('c', 7, 4)),
                 (('c', 7, 5), ('c', 7, 2))])
    sites = find_10_sites(island)
    assert len(sites) == 2
    after = apply_10(island, sites[0])
    assert after.crossing_count() == 0
    assert sum(after.loops.values()) == 2


def test_01_inverse_of_10_roundtrip():
    rng = random.Random(4)
    count = 0
    for n in range(2, 5):
        for m in list(all_matchings(n))[:6]:
            d = standard_diagram(m)
            d2, moves = inflate(d, 1, 0, 0, rng)
            if d2.crossing_count() != d.crossing_count() + 1:
                continue
            traced, loops = d2.trace()
            assert traced == m and not loops
            monogons = [b for b in find_badgons(d2) if b.kind == 'monogon']
            assert len(monogons) == 1
            site = find_10_sites(d2)[0]
            back = apply_10(d2, site)
            assert back.canonical_key() == d.canonical_key()
            count += 1
    assert count >= 10


def test_loop_add_drop_roundtrip(rotation3):
    d = standard_diagram(rotation3)
    key = d.faces()[2].key
    d2 = add_loop(d, key)
    assert sum(d2.loops.values()) == 1
    assert not d2.is_connected()
    badgons = find_badgons(d2)
    assert [b.kind for b in badgons] == ['simple-loop']
    d3 = drop_loop(d2, key)
    assert d3.canonical_key() == d.canonical_key()
    with pytest.raises(MoveError):
        drop_loop(d3, key)


def test_standard_diagrams_badgon_free():
    for n in range(5):
        for m in all_matchings(n):
            assert find_badgons(standard_diagram(m)) == []


def test_tiling_duals_badgon_free_with_antiparallel_bigons():
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    d = tiling_to_diagram(enumerate_tilings(Region.rectangle(5, 4))[0])
    assert find_badgons(d) == []
    strands = d.strands()
    sharing = 0
    for i in range(len(strands)):
        for j in range(i + 1, len(strands)):
            shared = set(c for c, _ in strands[i][2]) \
                & set(c for c, _ in strands[j][2])
            if len(shared) >= 2:
                sharing += 1
    assert sharing > 0  # anti-parallel bigons exist, none are badgons


def _badgons_by_rescan(d):
    """find_badgons' list, each parallel bigon found by rescanning the
    strands for a subpath from x to y (the definition)."""
    def forward(s, x, y):
        seq = [c for c, _ in s[2]]
        return s[0] is None or y in seq[seq.index(x) + 1:]

    strands = d.strands()
    out = []
    for idx, s in enumerate(strands):
        seq = [c for c, _ in s[2]]
        out += [Badgon('monogon', (idx, c))
                for c in sorted(set(c for c in seq if seq.count(c) > 1))]
    for i, si in enumerate(strands):
        for j in range(i + 1, len(strands)):
            sj = strands[j]
            shared = sorted(set(c for c, _ in si[2])
                            & set(c for c, _ in sj[2]))
            for a, x in enumerate(shared):
                for y in shared[a + 1:]:
                    if ((forward(si, x, y) and forward(sj, x, y))
                            or (forward(si, y, x) and forward(sj, y, x))):
                        out.append(Badgon('parallel-bigon', (i, j, x, y)))
    return out + [Badgon('simple-loop', (key, d.loops[key]))
                  for key in sorted(d.loops)]


def test_find_badgons_matches_the_rescan():
    from tricross import enumerate_connected_diagrams, minimal_crossing_count
    diagrams = list(diagrams_10_01())
    for m in all_matchings(2):
        k = minimal_crossing_count(m)
        for extra in (1, 2):
            diagrams += enumerate_connected_diagrams(m, k + extra).values()
    kinds = set()
    for d in diagrams:
        found = find_badgons(d)
        assert found == _badgons_by_rescan(d)
        assert next(scan_badgons(d.strands()), None) == next(
            (b for b in found if b.kind != 'simple-loop'), None)
        kinds.update(b.kind for b in found)
    assert kinds == {'monogon', 'parallel-bigon', 'simple-loop'}


def test_is_minimal_cases(rotation3):
    d = standard_diagram(rotation3)
    assert is_minimal(d)
    rng = random.Random(7)
    d2, _ = inflate(d, 1, 0, 0, rng)
    assert not is_minimal(d2)
    d3 = add_loop(d, d.faces()[0].key)
    assert not is_minimal(d3)


def test_movelog_replay_detects_divergence(rotation3):
    d = standard_diagram(Matching.from_dict(4, {0: 3, 2: 5, 4: 7, 6: 1}))
    sites = find_22_sites(d)
    if not sites:
        pytest.skip("no sites")
    nd = apply_22(d, sites[0])
    mv = Move('22', (sites[0].x, sites[0].y))
    log = MoveLog(d)
    log.record(d, [mv])
    assert len(log) == 1 and log.counts() == {'22': 1}
    assert replay(d, log).canonical_key() == nd.canonical_key()
    bad = Move('drop', (d.faces()[0].key,))
    log.moves[0] = bad
    with pytest.raises(MoveError):
        replay(d, log)


def _connect_4x3():
    """The first and sixth 4x3 domino duals, and the 2-move log that
    ``connect_minimal`` writes between them."""
    from tricross import (Region, enumerate_tilings, tiling_to_diagram,
                          connect_minimal)
    duals = [tiling_to_diagram(t)
             for t in enumerate_tilings(Region.rectangle(4, 3))]
    log = connect_minimal(duals[0], duals[5])
    assert len(log) == 2
    return duals[0], duals[5], log


def test_reading_back_a_log_checks_each_22_site_once(monkeypatch):
    """``apply_move`` builds a 2<->2 site from the move's two darts and
    ``apply_22`` checks it, once: reading back the 2-move log that
    ``connect_minimal`` writes from the first 4x3 domino dual to the
    sixth checks two sites."""
    from tricross import textio
    start, end, log = _connect_4x3()
    text = textio.write_movelog(start, log)
    checked = []
    resolve = moves_module._resolve_22

    def counted(diagram, site):
        checked.append(site)
        return resolve(diagram, site)

    monkeypatch.setattr(moves_module, "_resolve_22", counted)
    parsed, last = textio.read_movelog(text, start)
    assert parsed.moves == log.moves
    assert last.canonical_key() == end.canonical_key()
    assert len(checked) == 2


def test_recording_a_22_move_reads_its_face_once(monkeypatch):
    """``MoveLog.record`` and ``apply_move`` share one lookup of a move's
    face: recording the 2-move 4x3 connect log makes two ``face_key``
    calls."""
    start, end, log = _connect_4x3()
    calls = []
    face_key = TripleDiagram.face_key

    def counted(self, dart):
        calls.append(dart)
        return face_key(self, dart)

    monkeypatch.setattr(TripleDiagram, "face_key", counted)
    again = MoveLog(start)
    last = again.record(start, log.moves)
    assert len(calls) == 2
    assert (again.moves, again.faces) == (log.moves, log.faces)
    assert again.end is last
    assert (last.canonical_key() == log.end.canonical_key()
            == end.canonical_key())


def test_stale_moves_raise_move_error():
    """A move whose crossing, dart or face is not in the diagram raises
    MoveError, never KeyError, through ``apply_move``, ``MoveLog.record``
    and ``replay``; the 2<->2 and loop moves say that the face is gone."""
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    d = tiling_to_diagram(enumerate_tilings(Region.rectangle(4, 3))[0])
    stale = [Move('22', ((99, 0), (98, 0))), Move('add', (('c', 99, 0),)),
             Move('drop', (('c', 99, 0),)), Move('10', (99, 0)),
             Move('01', (('c', 99, 0), ('c', 98, 0), 'l'))]
    for move in stale:
        gone = "face gone" if move.kind in ('22', 'add', 'drop') else None
        with pytest.raises(MoveError, match=gone):
            apply_move(d, move)
        log = MoveLog(d)
        with pytest.raises(MoveError, match=gone):
            log.record(d, [move])
        with pytest.raises(MoveError, match=gone):
            replay(d, _tampered(log, [move], [None]))


def test_replay_refuses_a_log_with_a_face_per_move_missing_or_extra(
        monkeypatch):
    """A log with one face index too few or too many raises MoveError
    before any move applies; recorded with its first move only, it
    replays to that move's end."""
    start, end, log = _connect_4x3()
    assert replay(start, log).canonical_key() == end.canonical_key()
    cut = MoveLog(start)
    cut.record(start, log.moves[:1])
    first = replay(start, cut)
    assert first.canonical_key() == cut.end.canonical_key() \
        != end.canonical_key()
    applied = []
    apply = moves_module.apply_22

    def counted(diagram, site):
        applied.append(site)
        return apply(diagram, site)

    monkeypatch.setattr(moves_module, "apply_22", counted)
    for faces in (log.faces[:1], log.faces + [None]):
        with pytest.raises(MoveError, match="2 moves but %d faces"
                           % len(faces)):
            replay(start, _tampered(log, log.moves, faces))
    assert applied == []


def test_a_log_of_no_move_read_back_ends_at_its_start(rotation3):
    """The standard n=3 rotation diagram reduces by no move.  Its log,
    written and read back, ends at that diagram, and ``replay`` accepts
    it."""
    from tricross import textio, to_standard
    d = standard_diagram(rotation3)
    _, log = to_standard(d)
    assert len(log) == 0
    parsed, last = textio.read_movelog(textio.write_movelog(d, log), d)
    assert parsed == log and parsed.end is last is d
    assert replay(d, parsed) is d


def test_replay_refuses_a_log_from_another_diagram():
    """The 4x3 connect log, replayed from its end instead of its start,
    raises before any move."""
    start, end, log = _connect_4x3()
    with pytest.raises(MoveError, match="log does not start at this diagram"):
        replay(end, log)


def test_replay_refuses_a_log_whose_moves_apply_but_whose_record_is_wrong():
    """Both moves of the 4x3 connect log apply, but a first recorded face
    index one off makes ``replay`` diverge at that move, and a recorded
    end at the start makes it diverge at the end."""
    start, end, log = _connect_4x3()
    faces = list(log.faces)
    log.faces[0] += 1
    with pytest.raises(MoveError, match="replay diverged at 22 move"):
        replay(start, log)
    log.faces, log.end = faces, start
    with pytest.raises(MoveError, match="replay diverged at the end"):
        replay(start, log)


def _tampered(log, moves, faces):
    """A copy of ``log`` holding ``moves`` and ``faces`` as if recorded,
    its start and end kept."""
    bad = copy.copy(log)
    bad.moves, bad.faces = moves, faces
    return bad


def _one_move_replaced(log, i, move):
    """``log`` with its i-th move replaced by ``move``, every recorded
    face index and the end kept."""
    moves = log.moves[:i] + [move] + log.moves[i + 1:]
    return _tampered(log, moves, list(log.faces))


def test_replay_catches_one_wrong_move_in_the_middle():
    """A wrong move that applies where the right one did is caught.

    A 2<->2 move at another site has another face, so ``replay`` stops
    at it.  A 1->0 move names no face.  In the whole reduction log a
    1->0 at another monogon leaves a later move stale, since the log
    fires every monogon; in a log of the first three moves nothing
    after it is stale, every face index matches, and only the end
    comparison tells the logs apart."""
    d = inflation(15)
    _, log = reduce_to_minimal(d)
    assert [mv.kind for mv in log.moves][3:6] == ['10', '22', '22']
    cur = d
    for mv in log.moves[:4]:
        cur = apply_move(cur, mv)
    site = next(s for s in find_22_sites(cur)
                if Move('22', (s.x, s.y)) != log.moves[4])
    with pytest.raises(MoveError, match="replay diverged at 22 move"):
        replay(d, _one_move_replaced(log, 4, Move('22', (site.x, site.y))))

    d = inflation(29)
    _, log = reduce_to_minimal(d)
    assert [mv.kind for mv in log.moves] == ['drop', '10', '10', '10']
    cur = apply_move(d, log.moves[0])
    other = Move('10', tuple(find_10_sites(cur)[-1]))
    assert other not in log.moves[1:3]
    with pytest.raises(MoveError, match="stale 1->0 site"):
        replay(d, _one_move_replaced(log, 1, other))
    cut = MoveLog(d)
    cut.record(d, log.moves[:3])
    bad = _one_move_replaced(cut, 1, other)
    with pytest.raises(MoveError, match="replay diverged at the end"):
        replay(d, bad)
    # replay without its end comparison: every move applies, every
    # face index matches
    cur = d
    for mv, face in zip(bad.moves, bad.faces, strict=True):
        assert face == reference_face_index(cur, mv)
        cur = apply_move(cur, mv)
    assert cur.canonical_key() != cut.end.canonical_key()


def test_a_stale_add_raises_move_error_at_both_entry_points():
    """``add_loop`` and ``apply_move`` refuse a face key the diagram
    lacks with the same MoveError."""
    d = standard_diagram(Matching.from_dict(4, {0: 3, 2: 5, 4: 7, 6: 1}))
    for add in (lambda: add_loop(d, ('c', 99, 0)),
                lambda: apply_move(d, Move('add', (('c', 99, 0),)))):
        with pytest.raises(MoveError, match="stale add site: face gone"):
            add()


def test_badgon_presence_invariant_under_22():
    # over the full small enumeration: a 2<->2 move never creates the
    # first badgon and never removes the last one
    from tricross import enumerate_connected_diagrams, minimal_crossing_count
    checked = 0
    for n in range(1, 4):
        for m in all_matchings(n):
            k = minimal_crossing_count(m)
            for extra in (0, 1, 2):
                for key, d in enumerate_connected_diagrams(m, k + extra).items():
                    empty_before = not find_badgons(d)
                    for site in find_22_sites(d):
                        nd = apply_22(d, site)
                        assert (not find_badgons(nd)) == empty_before
                        checked += 1
    assert checked > 200


# ----------------------------------------------------------------------
# the 2<->2 move as a local rewrite

def _rebuilt_22_edges(d, site):
    """Reference: the 2<->2 move as a full rebuild from the edge list."""
    (X, x1), (Y, y1) = site.x, site.y
    port_map = legs_22(site)
    bigon = ({('c', X, x1), ('c', Y, (y1 + 1) % 6)},
             {('c', Y, y1), ('c', X, (x1 + 1) % 6)})
    edges = [(port_map.get(p, p), port_map.get(q, q))
             for p, q in d.edge_list() if {p, q} not in bigon]
    edges += [(('c', X, (x1 + 4) % 6), ('c', Y, (y1 + 5) % 6)),
              (('c', Y, (y1 + 4) % 6), ('c', X, (x1 + 5) % 6))]
    return TripleDiagram.from_edge_list(d.n, d.crossings, edges).edges


def _check_local_22(d, site):
    nd = apply_22(d, site)
    mv = Move('22', (site.x, site.y))
    assert nd.edges == _rebuilt_22_edges(d, site)
    _carries_its_array(nd)
    assert nd.validate() == []
    assert apply_move(nd, mv.inverse()).canonical_key() == d.canonical_key()
    (matching, closed), (matching2, closed2) = d.trace(), nd.trace()
    assert matching2 == matching and len(closed2) == len(closed)
    assert sum(nd.loops.values()) == sum(d.loops.values())
    # the inverse's site is the new central bigon
    new_x, new_y = mv.inverse().data
    center = nd.face_of(('c',) + new_x)
    assert set(center.darts) == {('c',) + new_x, ('c',) + new_y}
    # the face hand-off: every face the move traces again has an image,
    # and every other face keeps its key
    rekeyed = rekeyed_22(d, nd, site)
    assert rekeyed.keys() <= {f.key for f in d.faces()}
    fmap = {f.key: rekeyed.get(f.key, f.key) for f in d.faces()}
    assert sorted(fmap.values()) == sorted(f.key for f in nd.faces())
    assert fmap[site.face_key] == center.key
    moved = {site.x[0], site.y[0]}
    for f in d.faces():
        if not any(x[0] == 'c' and x[1] in moved for x in f.darts):
            assert f.key not in rekeyed
    # the template's rule over every face: the new face of the first dart
    # the move keeps, the centre's darts renamed to the new centre's
    (X, x1), (Y, y1) = site.x, site.y
    renamed = {**legs_22(site), ('c', X, x1): center.darts[0],
               ('c', Y, y1): center.darts[0],
               ('c', X, (x1 + 1) % 6): None, ('c', Y, (y1 + 1) % 6): None}
    for f in d.faces():
        kept = [renamed.get(x, x) for x in f.darts]
        assert fmap[f.key] == nd.face_of(next(x for x in kept if x)).key
    return 1


def test_local_22_on_every_site_of_the_4x3_move_graph():
    checked = sum(_check_local_22(d, site)
                  for d in component_diagrams(dual_matching(4, 3))
                  for site in find_22_sites(d))
    assert checked == 2 * 14  # both ends of each edge


def test_local_22_on_every_site_of_inflations_with_loops():
    diagrams = diagrams_with_loops()
    assert all(d.loops for d in diagrams)
    checked = sum(_check_local_22(d, site) for d in diagrams
                  for site in find_22_sites(d))
    assert checked >= 40


def test_local_22_traces_no_faces_without_loops():
    left, _, _ = pattern_template('a', 2)
    for site in find_22_sites(left):
        assert 'store' not in apply_22(left, site)._cache


# ----------------------------------------------------------------------
# the 1->0 and 0->1 moves as local rewrites

def _rebuilt(d, crossings, cut, joins, made=0, centre=()):
    """Reference: a move as a full rebuild from the edge list.

    The edges at the ports in ``cut`` give way to ``joins``.  Each old
    face's free loops go to the new face of its first dart that survives.
    The loops of a face with none, and ``made`` new loops, go where the
    first face left of a dart of ``centre`` that has one goes (to the
    first new face when none has)."""
    edges = [e for e in d.edge_list() if not cut & set(e)] + joins
    new = TripleDiagram.from_edge_list(d.n, crossings, edges)
    face_at = {x: f.key for f in new.faces() for x in f.darts}
    image = {f.key: next((face_at[x] for x in f.darts if x in face_at), None)
             for f in d.faces()}
    home = next((image[d.face_of(x).key] for x in centre
                 if image[d.face_of(x).key] is not None), new.faces()[0].key)
    loops = {}
    for key, count in d.loops.items():
        key = home if image[key] is None else image[key]
        loops[key] = loops.get(key, 0) + count
    if made:
        loops[home] = loops.get(home, 0) + made
    return new.with_loops(loops)


def _rebuilt_10(d, site):
    """Reference 1->0: every chain of edges through the deleted crossing
    (slots j+2/j+5 and j+3/j+4 pass through) becomes one edge; chains
    closed on the crossing become free loops.  They lie outside the edge
    that closes them, where the faces at the corners j+2..j+3 and
    j+4..j+5 (left of the darts at slots j+2 and j+4) merge."""
    c, j = site.crossing, site.slot
    through = {}
    for a, b in ((j + 2, j + 5), (j + 3, j + 4)):
        through[a % 6], through[b % 6] = b % 6, a % 6

    def run(s):
        """(port the chain entering at slot s leaves by, slots it uses)."""
        used = []
        while True:
            used += [s, through[s]]
            q = d.edges[('c', c, through[s])]
            if q[:2] != ('c', c) or q[2] == used[0]:
                return q, used
            s = q[2]

    joins, used = [], set()
    for s in sorted(through):
        start = d.edges[('c', c, s)]
        if start[:2] != ('c', c) and s not in used:
            far, slots = run(s)
            joins.append((start, far))
            used.update(slots)
    made = 0
    for s in sorted(through):
        if s not in used:
            used.update(run(s)[1])
            made += 1
    return _rebuilt(d, [k for k in d.crossings if k != c],
                    {('c', c, s) for s in range(6)}, joins, made,
                    (('c', c, (j + 2) % 6), ('c', c, (j + 4) % 6)))


def _rebuilt_01(d, edge_p, edge_q, side):
    """Reference 0->1: the edges a->b of ``edge_p`` and c->e of ``edge_q``
    detour through a new crossing k with its petal edge on slots (0, 1)
    when the shared face is black, on (1, 2) when it is white."""
    a = edge_p if is_source(edge_p) else d.edges[edge_p]
    c = edge_q if is_source(edge_q) else d.edges[edge_q]
    b, e = d.edges[a], d.edges[c]
    k = max(d.crossings, default=-1) + 1
    black = d.face_of(a if side == 'l' else b).color == 'black'
    # the slots a enters at, b is left from, the petal's two, the slots
    # c enters at and e is left from
    ia, ob, (p, q), ic, oe = ((4, 3, (1, 0), 2, 5) if black
                              else (4, 5, (1, 2), 0, 3))
    joins = [(a, ('c', k, ia)), (('c', k, ob), b), (('c', k, p), ('c', k, q)),
             (c, ('c', k, ic)), (('c', k, oe), e)]
    return _rebuilt(d, d.crossings + (k,), {a, c}, joins)


def _carries_its_array(new):
    """The partner array the move patched equals the array rebuilt from
    ``new.edges`` (up to trailing holes a deleted last crossing leaves)."""
    carried = new.partners()
    rebuilt = TripleDiagram(new.n, new.crossings, new.edges).partners()
    assert carried[:len(rebuilt)] == rebuilt
    assert set(carried[len(rebuilt):]) <= {-1}


def _same(new, ref):
    # the move traces faces only to place free loops, and the faces it
    # keeps are those of a fresh trace
    if new.loops:
        assert new.faces() == ref.faces()
    else:
        assert 'store' not in new._cache
    _carries_its_array(new)
    assert new.edges == ref.edges
    assert new.crossings == ref.crossings
    assert new.loops == ref.loops
    assert new.validate() == []
    return 1


def test_local_10_matches_the_full_rebuild():
    checked = made = 0
    for d in diagrams_10_01():
        for site in find_10_sites(d):
            new = apply_10(d, site)
            checked += _same(new, _rebuilt_10(d, site))
            made += sum(new.loops.values()) > sum(d.loops.values())
    assert checked >= 40 and made >= 6


def test_local_01_matches_the_full_rebuild():
    checked = 0
    for d in diagrams_10_01():
        for cand in candidates_01(d):
            checked += _same(apply_01(d, *cand), _rebuilt_01(d, *cand))
    assert checked >= 1000


# ----------------------------------------------------------------------
# where free loops go

def test_kept_darts_of_an_old_face_stay_in_one_new_face():
    """Loops follow their face's darts that a move keeps, so a 2<->2 or
    1->0 move must never split those darts across two new faces."""
    images = 0
    for d in chain(component_diagrams(dual_matching(4, 3)),
                   diagrams_with_loops(), diagrams_10_01()):
        moves = []
        for site in find_22_sites(d):
            (X, x1), (Y, y1) = site.x, site.y
            gone = [('c', X, x1), ('c', X, (x1 + 1) % 6),
                    ('c', Y, y1), ('c', Y, (y1 + 1) % 6)]
            moves.append((apply_22(d, site),
                          {**legs_22(site), **dict.fromkeys(gone)}))
        for site in find_10_sites(d):
            gone = [('c', site.crossing, s) for s in range(6)]
            moves.append((apply_10(d, site), dict.fromkeys(gone)))
        for new, renamed in moves:
            for f in d.faces():
                kept = [renamed.get(x, x) for x in f.darts]
                faces = {new.face_of(x).key for x in kept if x is not None}
                assert len(faces) <= 1
                images += len(faces)
    assert images > 2000


def test_a_closed_loop_lands_outside_the_edge_that_closes_it():
    """In the figure eight beside an arc, C0.3-C0.4 closes a monogon; the
    loop that the 1->0 move at (0, 0) makes lies outside it, on the
    arc's side that ends at B1, face ('+', 0)."""
    eight = diagrams_10_01()[-1]
    assert eight.face_of(('c', 0, 3)).darts == (('c', 0, 3),)
    assert ('b', 1) in eight.face_of(('c', 0, 4)).darts
    new = apply_10(eight, OneZeroSite(0, 0))
    assert new.loops == {('+', 0): 1}
    assert new.face_of(('b', 1)).key == ('+', 0)


def test_loops_of_a_face_that_keeps_no_dart_go_to_the_centre():
    """A 1->0 move that removes the floating island whole keeps no dart
    of its faces: their loops, like the two it closes, go to the centre,
    the first face of the result (module docstring)."""
    d0 = standard_diagram(Matching.from_dict(2, {0: 3, 2: 1}))
    for d in (floating_island(), TripleDiagram.from_edge_list(
            2, d0.crossings + (7,),
            d0.edge_list() + floating_island().edge_list())):
        site = find_10_sites(d)[0]
        monogon = d.face_of(('c', 7, site.slot)).key
        island = [f.key for f in d.faces() if f.key != monogon
                  and all(x[:2] == ('c', 7) for x in f.darts)]
        d = d.with_loops(dict.fromkeys(island, 1))
        new = apply_10(d, site)
        _same(new, _rebuilt_10(d, site))
        assert new.loops == {new.faces()[0].key: len(island) + 2}
