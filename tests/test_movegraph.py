"""Move-graph enumeration against the independent brute-force oracle."""

import gc
import weakref

import pytest

from tricross import (Matching, enumerate_component, brute_force_minimal,
                      verify_theorem2, enumerate_connected_diagrams,
                      GuardExceeded, minimal_crossing_count, find_badgons,
                      standard_diagram)
from tricross.movegraph import closure

from conftest import all_matchings


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


def test_component_vertices_minimal_and_fixed_count():
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    from tricross.moves import is_minimal
    m = tiling_to_diagram(
        enumerate_tilings(Region.rectangle(4, 2))[0]).trace()[0]
    g = enumerate_component(m)
    k = minimal_crossing_count(m)
    for key, d in g.vertices.items():
        assert is_minimal(d)
        assert d.crossing_count() == k


def _dual_4x3_root():
    from tricross import Region, enumerate_tilings, tiling_to_diagram
    m = tiling_to_diagram(
        enumerate_tilings(Region.rectangle(4, 3))[0]).trace()[0]
    return m, standard_diagram(m)


def test_closure_new_keys_are_the_component():
    m, root = _dual_4x3_root()
    new_keys = [nd.canonical_key()
                for _, _, _, nd, new in closure(root) if new]
    assert len(new_keys) == len(set(new_keys))
    g = enumerate_component(m)
    assert {root.canonical_key()} | set(new_keys) == set(g.vertices)
    assert len(g.vertices) > 2


def test_closure_inside_takes_only_moves_inside():
    _, root = _dual_4x3_root()
    everywhere = {nd.canonical_key() for *_, nd, _ in closure(root)}
    for inside in (set(root.crossings[1:]), set(root.crossings[:-1])):
        reached = set()
        for d, site, move, nd, new in closure(root, inside):
            assert site.x[0] in inside and site.y[0] in inside
            assert {move.data[0][0], move.data[1][0]} <= inside
            reached.add(nd.canonical_key())
        assert reached and reached < everywhere
    assert not list(closure(root, set()))
