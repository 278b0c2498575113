"""Face labels: one invariant for move graphs and cluster values.

A face's label is the set of strands, each named by its in-endpoint,
that have the face on their left, as for plabic graphs (Postnikov,
arXiv math/0609764).  It is defined when every strand is an arc that
does not cross itself, as in a minimal diagram.  The
audit walks the 2<->2 closure of a domino dual, carries a cluster state
through every move by ``exchange_22``, and checks two facts: a white
face's value depends only on its label, and a vertex's label collection
tells it apart from every other vertex of the component.  A wrong face
correspondence breaks the first, a canonical code that merges two
vertices the second.
"""

import pytest

from tricross import (Region, TripleDiagram, enumerate_tilings,
                      exchange_22, find_badgons, init_cluster,
                      standard_diagram, tiling_to_diagram)
from tricross import cluster as cluster_module
from tricross.diagram import strand_path
from tricross.movegraph import closure

from conftest import all_matchings, diagrams_with_loops
from test_golden import floating_diagram, inflation


def face_labels(d):
    """Face key -> frozenset of the in-endpoints of the strands that have
    the face on their left.  Per strand, a flood from the face left of
    its first edge over every edge off the strand; the faces left of its
    other edges must be reached, and those right of its edges must not."""
    strands = d.strands()
    if d.loops or any(start is None for start, _, _ in strands):
        raise ValueError("a closed strand has no left side")
    if any(len({c for c, _ in visits}) < len(visits)
           for _, _, visits in strands):
        raise ValueError("a strand that crosses itself has no one left side")
    edges = d.edge_list()
    paths = {start: strand_path((start, end, visits))
             for start, end, visits in strands}
    on = {p: start for start, path in paths.items() for edge in path
          for p in edge}
    labels = {f.key: set() for f in d.faces()}
    for start, path in paths.items():
        # an edge runs from its source port, whose face is on its left
        left = {d.face_of(src).key for src, _ in path}
        right = {d.face_of(snk).key for _, snk in path}
        near = {}
        for p, q in edges:
            if on[p] != start:
                a, b = d.face_of(p).key, d.face_of(q).key
                near.setdefault(a, []).append(b)
                near.setdefault(b, []).append(a)
        first = d.face_of(path[0][0]).key
        reached, todo = {first}, [first]
        while todo:
            for key in near.get(todo.pop(), ()):
                if key not in reached:
                    reached.add(key)
                    todo.append(key)
        assert left <= reached and not right & reached, start
        for key in reached:
            labels[key].add(start)
    return {key: frozenset(label) for key, label in labels.items()}


def dual(w, h):
    return tiling_to_diagram(enumerate_tilings(Region.rectangle(w, h))[0])


def label_audit(diagram):
    """Walk the 2<->2 closure of ``diagram``, carrying a cluster state
    through each move by ``exchange_22``.  Returns (vertices, distinct
    labels); AssertionError when one label meets two values, or label
    collections and canonical codes are not one to one."""
    value = {}      # label -> the value first seen on it
    labels_of = {}  # canonical code -> label collection
    code_of = {}    # label collection -> canonical code
    states = {}

    def visit(state):
        labels = face_labels(state.diagram)
        for key, val in state.values.items():
            assert value.setdefault(labels[key], val) == val, \
                "label %s meets two values" % sorted(labels[key])
        code = state.diagram.canonical_code()
        found = frozenset(labels.values())
        assert labels_of.setdefault(code, found) == found, \
            "one code, two label collections"
        assert code_of.setdefault(found, code) == code, \
            "one label collection, two codes"
        states.setdefault(code, state)

    visit(init_cluster(diagram))
    for d, site, _, _, _ in closure(diagram):
        visit(exchange_22(states[d.canonical_code()], site))
    return len(labels_of), len(value)


def test_boundary_face_labels_depend_only_on_the_matching():
    """The face on the boundary arc from endpoint i to i+1 lies left of
    strand a -> b exactly when that arc lies counterclockwise from b
    before a."""
    checked = 0
    diagrams = ([dual(4, 3), dual(6, 4)]
                + [standard_diagram(m) for n in range(1, 6)
                   for m in all_matchings(n)])
    for d in diagrams:
        labels = face_labels(d)
        m = 2 * d.n
        matching = d.trace()[0].pairs
        for i in range(m):
            want = {a for a, b in matching if (i - b) % m < (a - b) % m}
            assert labels[d.face_of(('+', i)).key] == want
            checked += 1
    assert checked >= 1400


def test_face_labels_refuse_a_closed_strand():
    """Free loops, and floating islands, whose strands are all closed."""
    diagrams = diagrams_with_loops() + [floating_diagram(seed).with_loops({})
                                         for seed in range(12)]
    for d in diagrams:
        with pytest.raises(ValueError, match="closed strand"):
            face_labels(d)


def test_face_labels_refuse_a_strand_that_crosses_itself():
    """Inflations with a monogon, free loops dropped."""
    refused = 0
    for seed in range(12):
        d = inflation(seed).with_loops({})
        if any(b.kind == 'monogon' for b in find_badgons(d)):
            with pytest.raises(ValueError, match="crosses itself"):
                face_labels(d)
            refused += 1
    assert refused >= 6


@pytest.mark.parametrize("w, h, vertices, labels", [
    (4, 3, 11, 13), (4, 4, 36, 16), (6, 4, 281, 25)])
def test_labels_and_values_agree_over_the_closure(w, h, vertices, labels):
    assert label_audit(dual(w, h)) == (vertices, labels)


def swap_two_white_values(monkeypatch):
    """Patch the hand-off of every 2<->2 move so that the values of two
    white faces that are no bigon (so neither is the centre) trade
    faces: every division stays exact."""
    rekeyed_22 = cluster_module.rekeyed_22

    def swapped(diagram, new, site):
        rekeyed = rekeyed_22(diagram, new, site)
        old = {nk: key for key, nk in rekeyed.items()}
        p, q = sorted(f.key for f in new.faces()
                      if f.color == 'white' and len(f.darts) > 2)[:2]
        rekeyed[old.get(p, p)], rekeyed[old.get(q, q)] = q, p
        return rekeyed

    monkeypatch.setattr(cluster_module, "rekeyed_22", swapped)


def test_audit_fails_under_a_swapped_face_correspondence(monkeypatch):
    swap_two_white_values(monkeypatch)
    for w, h in ((4, 3), (4, 4)):
        with pytest.raises(AssertionError, match="two values"):
            label_audit(dual(w, h))


def test_audit_fails_under_a_canonical_code_that_merges_two_vertices(
        monkeypatch):
    d = dual(4, 4)
    root = d.canonical_code()
    other = next(nd for _, _, nd, new, _ in closure(d) if new)
    merged = other.canonical_code()
    code = TripleDiagram.canonical_code
    monkeypatch.setattr(TripleDiagram, "canonical_code",
                        lambda self: root if code(self) == merged
                        else code(self))
    with pytest.raises(AssertionError, match="one code, two label"):
        label_audit(d)
