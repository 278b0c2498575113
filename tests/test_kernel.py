"""The int dart kernel against references.

``reference_orbits`` is the face trace ``TripleDiagram._orbits`` used to
run, over tuple darts with the ``phi`` and dart list the diagram used to
have, kept here as the reference for the trace on the partner array.
``canonical_code`` must split diagrams exactly as ``canonical_key`` does,
a copy with other free loops must reuse every table that does not
depend on them, and its partner array must equal one rebuilt from its
edges (``test_moves.py`` checks the same after the other moves).  The
face store a move result carries over from its parent, and the
``Face`` records built from it, must equal a full trace of its map; a
move records its faces' new keys only when asked; and the endpoint walk
must run once per diagram.  ``validate``, which reads the checkerboard off
its own orbits and builds no face, must return the violations of
``reference_validate``, which reads it off the colors of the faces of
``reference_orbits``.
"""

import random
from collections import Counter

import pytest

from tricross import (DiagramError, Face, Matching, Region, TripleDiagram,
                      TwoTwoSite, add_loop, apply_01, apply_10, apply_22,
                      drop_loop, empty_diagram, enumerate_component,
                      enumerate_connected_diagrams, enumerate_tilings,
                      exchange_22, find_10_sites, find_22_sites,
                      init_cluster, minimal_crossing_count,
                      reduce_to_minimal, standard_diagram, tiling_to_diagram)
from tricross import diagram as diagram_module
from tricross import moves as moves_module
from tricross import textio
from tricross.diagram import is_source, port_code, port_str
from tricross.moves import LoopSite, _joins_22, _rewrite, move_22

from conftest import all_matchings
from test_golden import (dual_matching, floating_diagram, inflation,
                         random_pairing)
from test_moves import (_01_candidates, _10_01_diagrams, _diagrams_with_loops,
                        _legs_22)


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
    port named twice must raise, not hang: the reader refuses its
    second record."""
    text = ("triple-diagram v1\nn 1\ncrossings 1\nedge B0 C0.0\n"
            "edge C0.3 B1\nedge C0.1 C0.2\nedge C0.5 C0.4\n"
            "edge C0.5 C0.2\nloops 0:1\n")
    with pytest.raises(textio.ParseError,
                       match="^<diagram>:8: port C0.5 named twice$"):
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
            assert new.face_store() is d.face_store()
            assert new.face_of(key) == d.face_of(key)
            assert new.strands() is d.strands()
            assert new.partners() is d.partners()
            moved.append(new)
    monkeypatch.undo()
    for new in moved:
        rebuilt = fresh(new)
        assert new.partners() == rebuilt.partners()
        assert new.canonical_key() == rebuilt.canonical_key()


# ----------------------------------------------------------------------
# validate against a reference over tuple darts

def reference_components(d):
    """[V, E, F] per connected component: the boundary's first (when
    n > 0), then each floating group by its least crossing id.  The
    boundary is one vertex group; its arcs are edges, its endpoints
    vertices."""
    edges = d.edges

    def vertex(x):
        return x[1] if x[0] == 'c' else 'boundary'

    group = {}
    tally = []
    for root in (['boundary'] if d.n else []) + list(d.crossings):
        if root in group:
            continue
        group[root] = len(tally)
        tally.append([0, 0, 0])
        stack = [root]
        while stack:
            v = stack.pop()
            ends = ([('b', i) for i in range(2 * d.n)] if v == 'boundary'
                    else [('c', v, s) for s in range(6)])
            for w in map(vertex, map(edges.__getitem__, ends)):
                if w not in group:
                    group[w] = group[root]
                    stack.append(w)
    if d.n:
        tally[0][:2] = [2 * d.n, 2 * d.n]
    for c in d.crossings:
        tally[group[c]][0] += 1
    for p, q in d.edge_list():
        tally[group[vertex(p)]][1] += 1
    for orbit in reference_orbits(d):
        tally[group[vertex(orbit[0])]][2] += 1
    return tally


def reference_validate(d):
    """The violations of a diagram whose map pairs every port with
    another, as ``validate`` listed them when it read the checkerboard
    off the colors of the faces: orientation clashes; else Euler
    characteristic 2 per component; else one strand direction on each
    interior face; then the keys and counts of the free loops."""
    edges = d.edges
    clashes = ["orientation clash on edge %s %s" % (port_str(p), port_str(q))
               for p in d.ports() for q in [edges[p]]
               if p < q and is_source(p) == is_source(q)]
    if clashes:
        return clashes
    violations = ["Euler characteristic violated (component V=%d E=%d F=%d)"
                  % tuple(vef) for vef in reference_components(d)
                  if vef[0] - vef[1] + vef[2] != 2]
    if violations:
        return violations
    faces = [o for o in reference_orbits(d) if ('-', 0) not in o]
    for orbit in faces:
        # white: every strand dart a source; black: every one a sink
        if len({is_source(x) for x in orbit if x[0] in 'bc'}) != 1:
            return ["face with inconsistent strand orientations"]
    keys = {min(o) for o in faces} if faces else {()}
    for key, count in d.loops.items():
        if key not in keys:
            violations.append("free loop keyed to unknown face %r" % (key,))
        if count < 1:
            violations.append("free loop count %d < 1 at %r" % (count, key))
    return violations


def rewired(d, rng):
    """``d`` with the ends of two of its edges swapped, once to three
    times: edges a-b and c-e become a-e and c-b.  The map stays an
    involution that pairs every port."""
    partner = list(d.partners())
    for _ in range(rng.randint(1, 3)):
        edges = [(a, b) for a, b in enumerate(partner) if a < b]
        (a, b), (c, e) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, e = e, c
        partner[a], partner[e] = e, a
        partner[c], partner[b] = b, c
    return TripleDiagram(d.n, d.crossings, None, d.loops, partners=partner)


def validate_corpus():
    """The 11 4x3 duals, an n=4 standard diagram, the golden diagrams
    with free loops (a key gone stale after a rewiring names no face) and
    the empty disk with loops; each as it is and in seeded rewirings."""
    bases = dual_4x3_vertices() + [standard_diagram(
        Matching.from_dict(4, {0: 5, 2: 7, 4: 1, 6: 3}))]
    bases += [inflation(seed) for seed in range(8)] + _diagrams_with_loops()
    rng = random.Random(19)
    out = [empty_diagram().with_loops({(): 2})]
    for d in bases:
        out.append(fresh(d))
        out += [rewired(d, rng) for _ in range(300)]
    return out


def test_validate_matches_the_face_color_reference_on_rewired_maps():
    """Equal lists, and no faces cached by a diagram with no free loop."""
    outcomes = Counter()
    for d in validate_corpus():
        violations = d.validate()
        assert violations == reference_validate(d)
        if not d.loops:
            assert 'store' not in d._cache
        outcomes[violations[0].split(" ")[0] if violations else "valid"] += 1
    assert outcomes["orientation"] >= 5000 and outcomes["Euler"] >= 2000
    assert outcomes["valid"] >= 500 and outcomes["free"] >= 100
    # no rewiring trips the checkerboard (ROADMAP item 6)
    assert outcomes["face"] == 0


# ----------------------------------------------------------------------
# faces carried through moves

def same_as_fresh(new):
    """``new``'s face store, carried or traced, equals that of a full
    trace of its map: its dart table (which may run on over the ports of
    a removed last crossing, holding no face there), orbits, kinds and
    key order.  Then its records, each dart's face built on its own before
    ``faces()`` builds the rest, equal the full trace's field for field,
    index included; a dart with no face raises KeyError."""
    ref = fresh(new)
    want, faces, keys, _ = ref.face_store()
    table = new.face_store()[0]
    assert table[:len(want)] == want and set(table[len(want):]) <= {-1}
    assert new.face_store()[1:3] == (faces, keys)
    for code, dart in enumerate(new.face_store()[3]):
        if code < len(want) and want[code] >= 0:
            assert new.face_of(dart) == ref.face_of(dart)
        else:
            with pytest.raises(KeyError):
                new.face_of(dart)
    assert new.faces() == ref.faces()
    assert all(new.face_by_key(f.key) == f for f in new.faces())
    assert all(new.face_of(x) == f for f in new.faces() for x in f.darts)
    return 1


def test_carried_faces_equal_a_full_trace_after_every_22_move():
    carried = 0
    for w, h in ((4, 3), (6, 4)):
        for d in enumerate_component(dual_matching(w, h)).vertices.values():
            for site in find_22_sites(d):
                new = apply_22(d, site)
                carried += 'carry' in new._cache
                same_as_fresh(new)
    assert carried == 28 + 1656


def test_carried_faces_equal_a_fresh_trace_field_by_field_on_a_walk():
    """Along a seeded 2<->2 walk on the 6x5 dual, every face a move
    carries is a ``Face`` tuple whose fields equal those of the face a
    full trace of the map gives."""
    fields = ("index", "darts", "color", "boundary", "key")
    assert Face._fields == fields
    d = tiling_to_diagram(enumerate_tilings(Region.rectangle(6, 5))[0])
    rng = random.Random(65)
    carried = 0
    for _ in range(40):
        sites = find_22_sites(d)  # traces d's faces, so the move carries
        d = apply_22(d, sites[rng.randrange(len(sites))])
        carried += 'carry' in d._cache
        got, want = d.faces(), fresh(d).faces()
        assert len(got) == len(want)
        for face, ref in zip(got, want):
            assert isinstance(face, Face) and isinstance(face, tuple)
            for name in fields:
                assert getattr(face, name) == getattr(ref, name), name
    assert carried == 40


def reference_joins_22(d, site):
    """The edges of the 2<->2 move at ``site`` as port tuple pairs, each
    far end read by ``partner``: ``_joins_22`` as it was before it read
    port codes off the partner array."""
    (X, x1), (Y, y1) = site.x, site.y
    moved = {('c', X, (x1 + 4) % 6): ('c', Y, y1),
             ('c', X, (x1 + 5) % 6): ('c', Y, (y1 + 1) % 6),
             ('c', Y, (y1 + 4) % 6): ('c', X, x1),
             ('c', Y, (y1 + 5) % 6): ('c', X, (x1 + 1) % 6)}
    joins = []
    for port, to in moved.items():
        far = d.partner(port)
        joins.append((to, moved.get(far, far)))
    nx, ny = ('c', X, (x1 + 4) % 6), ('c', Y, (y1 + 4) % 6)
    return joins + [(nx, ('c', Y, (y1 + 5) % 6)),
                    (ny, ('c', X, (x1 + 5) % 6))]


def test_code_joins_equal_the_tuple_port_joins_on_a_walk():
    """On every site of a seeded 40-move walk on the 6x5 dual, the move
    gives the partner array that the tuple port joins make."""
    d = tiling_to_diagram(enumerate_tilings(Region.rectangle(6, 5))[0])
    rng = random.Random(65)
    checked = 0
    for _ in range(40):
        sites = find_22_sites(d)
        for site in sites:
            want = list(d.partners())
            for p, q in reference_joins_22(d, site):
                a, b = port_code(d.n, p), port_code(d.n, q)
                want[a], want[b] = b, a
            assert apply_22(d, site).partners() == want
            checked += 1
        d = apply_22(d, sites[rng.randrange(len(sites))])
    assert checked >= 300


def test_carried_faces_equal_a_full_trace_after_1_0_and_0_1_moves():
    """A free loop to place makes the move resolve the carry itself."""
    checked = pending = 0
    for d in (_10_01_diagrams() + _diagrams_with_loops()
              + [inflation(seed) for seed in range(12)]):
        news = [apply_10(d, site) for site in find_10_sites(d)]
        news += [apply_01(d, *cand) for cand in _01_candidates(d)]
        for new in news:
            pending += 'carry' in new._cache
            checked += same_as_fresh(new)
    assert checked >= 3400 and pending >= 500 and checked - pending >= 2500


def aztec_diamond(order):
    """Squares with centre |x| + |y| <= order, shifted to x, y >= 0."""
    return Region((x + order, y + order) for y in range(-order, order)
                  for x in range(-order, order)
                  if abs(x + 0.5) + abs(y + 0.5) <= order)


def reference_rekeyed(d, nd, site):
    """Old key -> new key of each face of ``d`` that holds a port the
    2<->2 move at ``site`` joins (``reference_joins_22``), read off full
    traces by the first-kept-dart rule: the new face of the old face's
    first dart the move keeps, the carried legs renamed, the centre's
    darts sent to the new centre and the other two bigon ports deleted."""
    (X, x1), (Y, y1) = site.x, site.y
    centre = ('c', X, (x1 + 4) % 6)
    renamed = {**_legs_22(site), ('c', X, x1): centre, ('c', Y, y1): centre,
               ('c', X, (x1 + 1) % 6): None, ('c', Y, (y1 + 1) % 6): None}
    joined = {p for join in reference_joins_22(d, site) for p in join}
    ref = fresh(nd)
    out = {}
    for f in fresh(d).faces():
        if joined.intersection(f.darts):
            kept = [renamed.get(x, x) for x in f.darts]
            out[f.key] = ref.face_of(next(x for x in kept if x)).key
    return out


def test_carried_faces_and_keys_equal_full_traces_on_cluster_walks():
    """Along seeded cluster walks on the 6x5 and Aztec-3 duals, each
    move's result carries the faces of a full trace (``same_as_fresh``);
    the record ``pop_rekeyed`` hands over equals the first-kept-dart
    reference, and every face outside it keeps its darts under its key;
    the exchange's own result keeps no record."""
    rng = random.Random(2024)
    steps = 0
    for region in (Region.rectangle(6, 5), aztec_diamond(3)):
        tilings = enumerate_tilings(region)
        for _ in range(3):
            state = init_cluster(tiling_to_diagram(
                tilings[rng.randrange(len(tilings))]))
            for _ in range(20):
                d = state.diagram
                sites = find_22_sites(d)
                site = sites[rng.randrange(len(sites))]
                nd = apply_22(d, site, rekey=True)
                rekeyed = nd.pop_rekeyed()
                assert rekeyed == reference_rekeyed(d, nd, site)
                assert nd.pop_rekeyed() == {}
                for f in d.faces():
                    if f.key not in rekeyed:
                        assert nd.face_by_key(f.key).darts == f.darts
                steps += same_as_fresh(nd)
                state = exchange_22(state, site)
                assert 'rekeyed' not in state.diagram._cache
                same_as_fresh(state.diagram)
    assert steps == 120


def test_face_lookups_refuse_darts_with_no_face():
    """face_of and face_by_key raise KeyError, and never land on another
    face, for an outer dart, each port of a crossing a 1->0 move removed
    (the last id, or one before it), slot 6 of each crossing, crossing -1
    and ids past the last crossing."""
    removed = Counter()
    for d in _10_01_diagrams() + [inflation(seed) for seed in range(12)]:
        d.face_store()  # so that each move carries the faces
        top = max(d.crossings)
        for site in find_10_sites(d):
            new, c = apply_10(d, site), site.crossing
            darts = [('-', i) for i in range(2 * new.n)]
            darts += [('c', c, s) for s in range(6)]
            darts += [('c', x, 6) for x in d.crossings]
            darts += [('c', -1, 0), ('c', top + 1, 0), ('c', top + 2, 5)]
            for dart in darts:
                with pytest.raises(KeyError):
                    new.face_of(dart)
                with pytest.raises(KeyError):
                    new.face_by_key(dart)
            removed[c == top] += 1
    assert removed[True] >= 20 and removed[False] >= 20


def test_only_a_move_asked_to_rekey_records_its_faces(monkeypatch):
    """The move results of a closure and of reductions hold no key-pair
    record once their faces are carried; a move asked for it holds one
    until ``pop_rekeyed`` hands it over."""
    made = []
    rewrite = moves_module._rewrite

    def kept(*args, **kwargs):
        made.append(rewrite(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(moves_module, "_rewrite", kept)
    enumerate_component(dual_matching(4, 4))
    closure = len(made)
    for seed in range(12):
        reduce_to_minimal(fresh(inflation(seed)))
    monkeypatch.undo()
    assert closure == 70 and len(made) - closure >= 80
    for d in made:
        d.face_store()
        assert 'rekeyed' not in d._cache
    d = dual_4x3_vertices()[3]
    new = apply_22(d, find_22_sites(d)[0], rekey=True)
    assert new.pop_rekeyed() and new.pop_rekeyed() == {}


def test_carries_build_on_carries_along_move_chains():
    chains = 0
    for seed in range(12):
        rng = random.Random(seed)
        d = inflation(seed).with_loops({})
        for _ in range(20):
            moves = ([(apply_22, site) for site in find_22_sites(d)]
                     + [(apply_10, site) for site in find_10_sites(d)])
            if not moves or rng.random() < 0.2:
                d = apply_01(d, *rng.choice(_01_candidates(d)))
            else:
                move, site = rng.choice(moves)
                d = move(d, site)
            assert 'carry' in d._cache
            chains += same_as_fresh(d)
    assert chains == 240


def test_no_carry_from_an_untraced_or_pending_parent():
    """A move result gets a carry only from a parent whose faces are
    traced: never from one whose own carry is still pending."""
    d = dual_4x3_vertices()[3]
    site = find_22_sites(d)[0]
    untraced = fresh(d)
    new = _rewrite(untraced, _joins_22(untraced, site))
    assert 'carry' not in new._cache
    same_as_fresh(new)
    mid, mv = move_22(d, site)
    assert 'carry' in mid._cache
    back = _rewrite(mid, _joins_22(mid, TwoTwoSite(
        ('c',) + min(mv.data[2], mv.data[3]), mv.data[2], mv.data[3])))
    assert 'carry' not in back._cache and 'carry' in mid._cache
    assert back.canonical_key() == d.canonical_key()
    same_as_fresh(back)
    same_as_fresh(mid)


def test_an_inflation_holds_no_pending_carry():
    """inflate resolves its last move's carry: its result keeps no dead
    parent's face store alive."""
    for seed in range(30):
        for d in (inflation(seed), floating_diagram(seed)):
            assert 'carry' not in d._cache


def test_a_copy_with_loops_keeps_a_pending_carry():
    d = dual_4x3_vertices()[3]
    new, mv = move_22(d, find_22_sites(d)[0])
    centre = ('c',) + min(mv.data[2], mv.data[3])
    copy = new.with_loops({centre: 2})
    assert 'carry' in copy._cache
    same_as_fresh(copy)
    assert copy.validate() == []
    same_as_fresh(new)


def test_validate_leaves_no_orbits_beside_a_carry():
    """validate reads the checkerboard off its own orbits: it caches
    neither orbits nor faces, and leaves a move's carry pending."""
    for d in dual_4x3_vertices():
        for site in find_22_sites(d):
            new = apply_22(d, site)
            assert 'carry' in new._cache
            assert new.validate() == []
            assert 'orbits' not in new._cache and 'store' not in new._cache
            assert 'carry' in new._cache
            same_as_fresh(new)


def test_check_caches_no_faces(rotation3):
    """A checked diagram with no free loop, an oracle filling or a
    fresh 4x3 dual, holds no faces until asked, then a full trace's."""
    fillings = list(enumerate_connected_diagrams(rotation3, 2).values())
    duals = [fresh(d).check() for d in dual_4x3_vertices()]
    assert len(fillings) >= 10
    for d in fillings + duals:
        assert not d.loops and 'store' not in d._cache
        assert d.faces() == fresh(d).faces()


def test_a_22_move_traces_only_the_faces_around_it(monkeypatch):
    """With the parent traced, the new faces come without a full trace,
    from fewer darts than the map has."""
    d = dual_4x3_vertices()[3]
    site = find_22_sites(d)[0]
    new = apply_22(d, site)
    traced = []
    trace = TripleDiagram._trace

    def counted(self, starts):
        orbits = trace(self, starts)
        traced.extend(orbits)
        return orbits

    def no_full_trace(self):
        raise AssertionError("a carried face store traced every orbit")

    monkeypatch.setattr(TripleDiagram, "_orbits", no_full_trace)
    monkeypatch.setattr(TripleDiagram, "_trace", counted)
    faces = new.faces()
    monkeypatch.undo()
    assert faces == fresh(new).faces()
    assert 0 < sum(map(len, traced)) < sum(map(len, fresh(new)._orbits())) / 2


# ----------------------------------------------------------------------
# one endpoint walk per diagram

def test_one_endpoint_walk_serves_every_caller(monkeypatch):
    """check, is_connected, canonical_code and the key share one walk,
    which the rendered key drops; the key's floating labels must not
    leak into is_connected."""
    walks = []
    walk = TripleDiagram._walk

    def counted(self, root=None):
        if root is None and 'walk' not in self._cache:
            walks.append(self)
        return walk(self, root)

    diagrams = [fresh(d) for d in ([floating_diagram(seed)
                                    for seed in range(10)]
                                   + dual_4x3_vertices())]
    monkeypatch.setattr(TripleDiagram, "_walk", counted)
    connected = []
    for d in diagrams:
        connected.append(d.is_connected())
        d.check()
        d.canonical_code()
        d.canonical_key()
        assert 'walk' not in d._cache
    assert list(map(id, walks)) == list(map(id, diagrams))
    monkeypatch.undo()
    assert [d.is_connected() for d in diagrams] == connected
    # floating crossings and no free loop: is_connected reads the label
    assert sum(not c and not d.loops
               for d, c in zip(diagrams, connected)) >= 2
