"""Core model: validation, tracing, faces, connectivity, canonical keys."""

from itertools import chain, zip_longest

import pytest

from tricross import (TripleDiagram, Matching, empty_diagram, standard_diagram,
                      enumerate_connected_diagrams)
from tricross.diagram import port_str, parse_port

from conftest import all_matchings
from test_kernel import reference_darts, reference_phi


def single_crossing():
    # endpoints wired straight through: B_i to slot i
    return TripleDiagram.from_edge_list(
        3, [0], [(('b', i), ('c', 0, i)) for i in range(6)])


def nested_arcs():
    return TripleDiagram.from_edge_list(
        3, [], [(('b', 0), ('b', 5)), (('b', 2), ('b', 1)),
                (('b', 4), ('b', 3))])


def test_empty_diagram_validates():
    d = empty_diagram()
    assert d.validate() == []
    m, loops = d.trace()
    assert m.n == 0 and loops == []
    assert len(d.faces()) == 1
    assert d.faces()[0].color == 'white'


def test_single_crossing_validates_and_traces():
    d = single_crossing()
    assert d.validate() == []
    m, loops = d.trace()
    # the (s+3) mod 6 rule forces opposite endpoints
    assert m.as_dict() == {0: 3, 2: 5, 4: 1}
    assert loops == []


def test_orientation_clash_detected():
    # join two source ports: B0 (even, source) and C0.1 (odd, source)
    edges = [(('b', 0), ('c', 0, 1)), (('b', 1), ('c', 0, 0)),
             (('b', 2), ('c', 0, 2)), (('b', 3), ('c', 0, 3)),
             (('b', 4), ('c', 0, 4)), (('b', 5), ('c', 0, 5))]
    d = TripleDiagram.from_edge_list(3, [0], edges)
    assert any("orientation clash" in v for v in d.validate())


def test_uncovered_port_detected():
    d = TripleDiagram(1, (), {('b', 0): ('b', 1), ('b', 1): ('b', 0)})
    assert d.validate() == []
    d2 = TripleDiagram(1, (0,), {('b', 0): ('b', 1), ('b', 1): ('b', 0)})
    assert any("uncovered" in v for v in d2.validate())


def test_port_violation_texts_pinned():
    """Exact lists of the port checks, each kind met out of port order:
    the first unknown port alone, else every uncovered port, else every
    fixed point and broken pair, else every clash, all in port order."""
    def B(i):
        return ('b', i)

    def C(c, s):
        return ('c', c, s)

    def both_ways(pairs):
        return dict(e for p, q in pairs for e in ((p, q), (q, p)))

    broken = dict([(C(2, s), C(2, s)) for s in (5, 3, 1)]
                  + [(C(2, s), C(0, s)) for s in (4, 2, 0)]
                  + [(C(0, s), C(2, (s + 1) % 6)) for s in range(6)]
                  + [(B(1), B(0)), (B(0), B(0))])
    cases = [
        (1, (0,), {B(1): B(1), C(9, 0): B(0), B(0): C(9, 0)},
         ["unknown port C9.0"]),
        (1, (0,), {B(0): B(1), B(1): C(0, 7)}, ["unknown port C0.7"]),
        (2, (0, 4), {C(4, 1): C(4, 0), C(4, 0): C(4, 1), B(3): B(0),
                     B(0): B(3)},
         ["uncovered port %s" % p for p in
          ("B1", "B2", "C0.0", "C0.1", "C0.2", "C0.3", "C0.4", "C0.5",
           "C4.2", "C4.3", "C4.4", "C4.5")]),
        (1, (0, 2), broken,
         ["fixed point at B0", "involution broken at B1"]
         + ["involution broken at C0.%d" % s for s in range(6)]
         + ["involution broken at C2.0", "fixed point at C2.1",
            "involution broken at C2.2", "fixed point at C2.3",
            "involution broken at C2.4", "fixed point at C2.5"]),
        (3, (0,), both_ways([(B(4), C(0, 3)), (B(0), C(0, 1)),
                             (B(1), C(0, 0)), (B(2), C(0, 2)),
                             (B(3), B(5)), (C(0, 4), C(0, 5))]),
         ["orientation clash on edge B0 C0.1",
          "orientation clash on edge B1 C0.0",
          "orientation clash on edge B3 B5",
          "orientation clash on edge B4 C0.3"]),
    ]
    for n, crossings, edges, want in cases:
        assert TripleDiagram(n, crossings, edges).validate() == want

    # faults met alone, on partner arrays with crossing id 0 a hole (codes
    # 2-7): B1-C1.1, C1.0-C1.3, C1.2-C1.5 and C1.4 with the hole's C0.1,
    # which pairs back.  A fixed point B0 breaks no involution; B0 paired
    # with the hole's C0.0, which pairs with nothing, breaks one only
    # there
    for b0, want in ((0, ["fixed point at B0"]),
                     (2, ["involution broken at B0"])):
        partner = [b0, 9, -1, 12] + [-1] * 4 + [11, 1, 13, 8, 3, 10]
        assert TripleDiagram(1, (1,), None,
                             partners=partner).validate() == want


def test_single_crossing_faces_alternate():
    d = single_crossing()
    faces = d.faces()
    assert len(faces) == 6
    assert sorted(f.color for f in faces) == ['black'] * 3 + ['white'] * 3
    assert all(f.boundary for f in faces)
    # every edge borders one black and one white face
    for p, q in d.edge_list():
        c1 = d.face_of(p).color
        c2 = d.face_of(q).color
        assert {c1, c2} == {'black', 'white'}


def test_nested_arcs_faces():
    d = nested_arcs()
    assert d.validate() == []
    assert len(d.faces()) == 4


def test_face_count_matches_euler(rotation3):
    # interior faces of a connected diagram satisfy E - V + 1 with the
    # boundary collapsed to a point: faces = edges - crossings + 1
    d = standard_diagram(rotation3)
    e = len(d.edge_list())
    v = d.crossing_count()
    assert len(d.faces()) == e - v + 1


def test_trace_agreement_between_tilings_of_square():
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    tilings = enumerate_tilings(Region.rectangle(2, 2))
    assert len(tilings) == 2
    m1 = tiling_to_diagram(tilings[0]).trace()[0]
    m2 = tiling_to_diagram(tilings[1]).trace()[0]
    assert m1 == m2
    assert tiling_to_diagram(tilings[0]).trace()[1] == []


def test_is_connected_cases():
    assert nested_arcs().is_connected()
    d = nested_arcs().with_loops({nested_arcs().faces()[0].key: 1})
    assert not d.is_connected()
    # a crossing-bearing closed component: three loops through one crossing
    island = TripleDiagram.from_edge_list(
        0, [5], [(('c', 5, 1), ('c', 5, 0)), (('c', 5, 3), ('c', 5, 4)),
                 (('c', 5, 5), ('c', 5, 2))])
    assert island.validate() == []
    assert not island.is_connected()


def _twisted(c):
    # one crossing whose three strands all cross: V=1 E=3 F=2, a torus
    return [(('c', c, 0), ('c', c, 3)), (('c', c, 1), ('c', c, 4)),
            (('c', c, 2), ('c', c, 5))]


def _petals(c):
    return [(('c', c, 1), ('c', c, 0)), (('c', c, 3), ('c', c, 4)),
            (('c', c, 5), ('c', c, 2))]


def _euler(v, e, f):
    return "Euler characteristic violated (component V=%d E=%d F=%d)" % (
        v, e, f)


def test_nonplanar_validation_texts():
    """Exact violation lists: one line per nonplanar component, the
    boundary's first, then floating groups by smallest crossing id."""
    eight = [(('b', 0), ('c', 3, 2)), (('c', 3, 5), ('b', 1)),
             (('c', 3, 1), ('c', 3, 0)), (('c', 3, 3), ('c', 3, 4))]
    boundary = [(('b', 0), ('c', 6, 0)), (('b', 1), ('c', 6, 5)),
                (('b', 2), ('c', 4, 0)), (('b', 3), ('c', 4, 1)),
                (('c', 4, 2), ('c', 4, 3)), (('c', 4, 4), ('c', 6, 3)),
                (('c', 4, 5), ('c', 6, 2)), (('c', 6, 1), ('c', 6, 4))]
    pair = [(('c', 1, 0), ('c', 2, 1)), (('c', 1, 1), ('c', 2, 4)),
            (('c', 1, 2), ('c', 2, 3)), (('c', 1, 3), ('c', 1, 4)),
            (('c', 1, 5), ('c', 2, 0)), (('c', 2, 2), ('c', 2, 5))]
    chords = [(('b', 0), ('b', 3)), (('b', 2), ('b', 5)),
              (('b', 4), ('b', 1))]
    cases = [
        (0, [0], _twisted(0), [_euler(1, 3, 2)]),
        # a planar boundary part beside a nonplanar floating crossing
        (1, [0, 3], eight + _twisted(0), [_euler(1, 3, 2)]),
        (2, [1, 4, 6], boundary + _twisted(1),
         [_euler(6, 12, 6), _euler(1, 3, 2)]),
        (0, [0, 1, 2, 4], _petals(0) + _twisted(4) + pair,
         [_euler(2, 6, 4), _euler(1, 3, 2)]),
        (3, [], chords, [_euler(6, 9, 3)]),
        (3, [0], chords + _twisted(0), [_euler(6, 9, 3), _euler(1, 3, 2)]),
        (1, [0, 3], eight + _petals(0), []),
    ]
    for n, crossings, edges, want in cases:
        d = TripleDiagram.from_edge_list(n, crossings, edges)
        assert d.validate() == want
        # every case but the crossing-free chords has a floating group
        assert d.is_connected() == (crossings == [])


def test_free_loop_keyed_to_no_face_refused():
    """A loop keyed to a dart that is no face's key (its least dart):
    another dart of a face, or the outer face's ('-', 0)."""
    d = single_crossing()
    face = d.faces()[0]
    for dart in (face.darts[1], ('-', 0)):
        looped = TripleDiagram(d.n, d.crossings, d.edges, {dart: 1})
        assert looped.validate() == [
            "free loop keyed to unknown face %r" % (dart,)]


def test_free_loop_count_below_one_refused():
    d = single_crossing()
    keys = [f.key for f in d.faces()]
    looped = TripleDiagram(d.n, d.crossings, d.edges,
                           {keys[0]: 0, keys[1]: 2, keys[2]: -1})
    assert looped.validate() == [
        "free loop count 0 < 1 at %r" % (keys[0],),
        "free loop count -1 < 1 at %r" % (keys[2],)]
    assert empty_diagram().with_loops({(): 0}).validate() == [
        "free loop count 0 < 1 at ()"]


def test_free_loop_keys_are_checked_without_face_records(monkeypatch):
    """``validate`` reads the keys of free loops off the face store's key
    codes, and the empty disk's one face keeps the key ()."""
    def refused(self, index):
        raise AssertionError("a Face record was built")

    d = single_crossing()
    key, other = d.faces()[0].key, d.faces()[0].darts[1]
    monkeypatch.setattr(TripleDiagram, "_record", refused)
    for loops, want in (
            ({key: 2}, []),
            ({other: 1}, ["free loop keyed to unknown face %r" % (other,)]),
            ({key: 0}, ["free loop count 0 < 1 at %r" % (key,)]),
            ({('-', 0): -1}, ["free loop keyed to unknown face %r"
                              % (('-', 0),),
                              "free loop count -1 < 1 at %r" % (('-', 0),)])):
        assert TripleDiagram(d.n, d.crossings, d.edges,
                             loops).validate() == want
    assert empty_diagram().with_loops({(): 1}).validate() == []
    assert empty_diagram().with_loops({('+', 0): 1}).validate() == [
        "free loop keyed to unknown face ('+', 0)"]


def test_canonical_key_invariant_under_relabeling():
    d1 = single_crossing()
    d2 = TripleDiagram.from_edge_list(
        3, [17], [(('b', i), ('c', 17, i)) for i in range(6)])
    assert d1.canonical_key() == d2.canonical_key()
    # and under even slot rotation
    d3 = TripleDiagram.from_edge_list(
        3, [0], [(('b', i), ('c', 0, (i + 2) % 6)) for i in range(6)])
    assert d3.validate() == []
    assert d1.canonical_key() == d3.canonical_key()


def test_key_text_matches_an_uncached_rendering_across_widths():
    """The key's edge texts are cached per (n, width): the keys of n=2
    diagrams with 0, 1 and 2 crossings, rendered in turn, each equal the
    text rendered here from the endpoint walk's codes."""
    def port(n2, c):
        return "B%d" % c if c < n2 else "C%d.%d" % divmod(c - n2, 6)

    m = Matching.from_dict(2, {0: 1, 2: 3})
    groups = [list(enumerate_connected_diagrams(m, k).values())
              for k in (0, 1, 2)]
    assert list(map(len, groups)) == [1, 12, 300]
    for d in filter(None, chain(*zip_longest(*groups))):
        d = TripleDiagram(d.n, d.crossings, None, partners=d.partners())
        n, k, codes = d.canonical_code()
        width = 2 * n + 6 * k
        edges = [port(2 * n, e // width) + "-" + port(2 * n, e % width)
                 for e in codes]
        assert d.canonical_key() == "n=%d\x1f%s\x1f\x1f" % (
            n, ";".join(e for e in edges for _ in (0, 1)))


def test_canonical_key_separates_22_pair():
    # the two sides of the move template are distinct diagrams
    from tricross.reduce import pattern_template
    left, _, right = pattern_template('a', 1)
    assert left.canonical_key() != right.canonical_key()
    assert left.trace()[0] == right.trace()[0]


def test_canonical_key_empty_sentinel():
    assert empty_diagram().canonical_key() == "n=0\x1f\x1f\x1f"


def test_trace_total_bijection_exhaustive():
    for n in range(5):
        for m in all_matchings(n):
            d = standard_diagram(m)
            traced, loops = d.trace()
            assert traced == m and not loops


def test_port_string_round_trip():
    for port in [('b', 0), ('b', 11), ('c', 3, 5), ('c', 0, 0)]:
        assert parse_port(port_str(port)) == port


def test_sigma_alpha_orbits_cover_all_darts(rotation3):
    d = standard_diagram(rotation3)
    darts = set(reference_darts(d))
    seen = set()
    for f in d.faces():
        seen.update(f.darts)
    outer = set(('-', i) for i in range(2 * d.n))
    assert seen | outer == darts


def test_faces_are_phi_orbits_from_their_minimal_dart():
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    cases = [standard_diagram(Matching.from_dict(4, {0: 5, 2: 7, 4: 1, 6: 3})),
             tiling_to_diagram(enumerate_tilings(Region.rectangle(4, 3))[0])]
    for d in cases:
        keys = []
        for f in d.faces():
            assert f.key == min(f.darts) == f.darts[0]
            for a, b in zip(f.darts, f.darts[1:] + f.darts[:1]):
                assert reference_phi(d, a) == b
            keys.append(f.key)
        assert keys == sorted(keys)


def test_face_by_key_finds_keys_only():
    d = standard_diagram(Matching.from_dict(4, {0: 5, 2: 7, 4: 1, 6: 3}))
    for f in d.faces():
        assert d.face_by_key(f.key) == f
        for dart in f.darts[1:]:
            with pytest.raises(KeyError):
                d.face_by_key(dart)
    for stale in [('-', 0), ('c', 99, 0), ()]:
        with pytest.raises(KeyError):
            d.face_by_key(stale)
    e = empty_diagram()
    assert e.face_by_key(()) == e.faces()[0] == (0, (), 'white', True, ())


def test_outer_darts_form_one_clockwise_orbit():
    """phi(('-', i)) is ('-', i - 1) on every diagram, so the outer orbit
    is always the 2n clockwise boundary arcs."""
    for n in range(1, 4):
        for m in all_matchings(n):
            d = standard_diagram(m)
            # dart ('-', i) has code 2n + i
            outer = tuple(2 * n + (-i % (2 * n)) for i in range(2 * n))
            assert outer in d._orbits()
            for i in range(2 * n):
                assert reference_phi(d, ('-', i)) == ('-', (i - 1) % (2 * n))


def test_equality_hash_and_repr_follow_the_canonical_key():
    d = single_crossing()
    relabeled = TripleDiagram.from_edge_list(
        3, [7], [(('b', i), ('c', 7, i)) for i in range(6)])
    assert d == relabeled and hash(d) == hash(relabeled)
    assert d != nested_arcs() and d != d.canonical_key()
    looped = d.with_loops({d.faces()[0].key: 2})
    assert looped != d
    assert repr(looped) == "TripleDiagram(n=3, crossings=1, loops=2)"
