"""Regions, tilings, flips, and the dual construction."""

import pytest

from tricross import (Region, Tiling, enumerate_tilings, find_flips,
                      apply_flip, tiling_to_diagram, flips_commute_with_22,
                      find_badgons, enumerate_component)

# Counts verified by the backtracking oracle itself; the rectangle
# numbers 2, 3, 5, 11 are forced by the transfer recursion
# f(2, m) = f(2, m-1) + f(2, m-2).
RECTANGLES = [((2, 2), 2), ((3, 2), 3), ((4, 2), 5), ((4, 3), 11)]


def test_counts():
    for (w, h), expect in RECTANGLES:
        assert len(enumerate_tilings(Region.rectangle(w, h))) == expect


def test_odd_strip_untileable():
    assert enumerate_tilings(Region.rectangle(3, 1)) == []


def test_guard():
    with pytest.raises(ValueError):
        enumerate_tilings(Region.rectangle(10, 4))


def test_single_domino_dual():
    t = enumerate_tilings(Region.rectangle(2, 1))[0]
    d = tiling_to_diagram(t)
    assert d.validate() == []
    assert d.crossing_count() == 1
    assert d.n == 3
    # opposite sides pair up
    assert d.trace()[0].as_dict() == {0: 3, 2: 5, 4: 1}


def test_2x2_flip_basics():
    tilings = enumerate_tilings(Region.rectangle(2, 2))
    t = tilings[0]
    sites = find_flips(t)
    assert len(sites) == 1
    t2 = apply_flip(t, sites[0])
    assert t2 != t
    assert apply_flip(t2, find_flips(t2)[0]) == t


def test_flip_graph_connected_2x4():
    tilings = enumerate_tilings(Region.rectangle(4, 2))
    seen = {tilings[0]}
    frontier = [tilings[0]]
    while frontier:
        t = frontier.pop()
        for s in find_flips(t):
            t2 = apply_flip(t, s)
            if t2 not in seen:
                seen.add(t2)
                frontier.append(t2)
    assert len(seen) == 5


def test_duals_share_matching_and_are_minimal():
    for (w, h), expect in RECTANGLES:
        region = Region.rectangle(w, h)
        tilings = enumerate_tilings(region)
        matchings = set()
        keys = set()
        for t in tilings:
            d = tiling_to_diagram(t)
            assert d.validate() == []
            assert d.is_connected()
            assert d.crossing_count() == (w * h) // 2
            assert find_badgons(d) == []
            matchings.add(d.trace()[0])
            keys.add(d.canonical_key())
        assert len(matchings) == 1
        assert len(keys) == len(tilings)  # injectivity


def test_flip_commutes_with_22_exhaustive():
    for (w, h) in [(2, 2), (3, 2), (4, 2), (4, 3)]:
        for t in enumerate_tilings(Region.rectangle(w, h)):
            for site in find_flips(t):
                assert flips_commute_with_22(t, site)


def test_component_size_matches_tiling_count():
    for (w, h), expect in RECTANGLES:
        region = Region.rectangle(w, h)
        tilings = enumerate_tilings(region)
        m = tiling_to_diagram(tilings[0]).trace()[0]
        assert enumerate_component(m).size() == len(tilings)


def test_non_simply_connected_rejected():
    ring = Region([(x, y) for x in range(3) for y in range(3)
                   if (x, y) != (1, 1)])
    tilings = enumerate_tilings(ring)
    assert tilings
    with pytest.raises(ValueError):
        tiling_to_diagram(tilings[0])


def test_exact_cover_enforced():
    region = Region.rectangle(2, 2)
    with pytest.raises(ValueError):
        Tiling(region, [(0, 0, True)])


def test_regions_that_are_not_simply_connected():
    ring = Region((x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1))
    for region in (Region([]), Region([(0, 0), (2, 0)]), ring):
        assert not region.is_simply_connected()
    apart = Tiling(Region([(0, 0), (1, 0), (3, 0), (4, 0)]),
                   [(0, 0, True), (3, 0, True)])
    assert repr(apart) == "Tiling([(0, 0, True), (3, 0, True)])"
    with pytest.raises(ValueError):
        tiling_to_diagram(apart)


def _reference_walks(region):
    """``Region._boundary_walks`` as it was written first: the unit edges
    of exactly one square, each oriented by which side its square is on,
    then walked with the same corner rule."""
    count = {}
    for x, y in region.squares:
        for e in (((x, y), (x + 1, y)), ((x + 1, y), (x + 1, y + 1)),
                  ((x, y + 1), (x + 1, y + 1)), ((x, y), (x, y + 1))):
            e = tuple(sorted(e))
            count[e] = count.get(e, 0) + 1
    darts = set()
    for e, k in count.items():
        if k != 1:
            continue
        (x1, y1), (x2, y2) = e
        if y1 == y2:  # horizontal: left to right with the square above
            darts.add(e if (x1, y1) in region.squares else (e[1], e[0]))
        else:  # vertical: downward with the square to the right
            darts.add((e[1], e[0]) if (x1, y1) in region.squares else e)
    succ = {}
    for a, b in darts:
        succ.setdefault(a, []).append((a, b))
    walks, used = [], set()
    for dart in sorted(darts):
        if dart in used:
            continue
        walk, cur = [], dart
        while cur not in used:
            used.add(cur)
            walk.append(cur)
            nxt = [o for o in succ[cur[1]] if o not in used]
            if not nxt:
                break
            cur = min(nxt)
        walks.append(walk)
    return walks


def test_boundary_walks_match_the_oriented_boundary_edges():
    """Each square's counterclockwise edges with no square beyond give
    the walks of the oriented boundary edges, on seeded random regions:
    simply connected ones, pinched ones (squares meeting at a corner
    only) and disconnected ones."""
    import random
    from collections import Counter
    kinds = Counter()
    for seed in range(4000):
        rng = random.Random(seed)
        size = rng.randint(1, 6)
        region = Region((rng.randrange(size), rng.randrange(size))
                        for _ in range(rng.randint(1, 2 * size)))
        want = _reference_walks(region)
        assert region._boundary_walks() == want
        kinds[region.is_simply_connected(), len(want)] += 1
    # a simply connected region has one walk; the pinched and the
    # disconnected ones have one or more
    assert all(k == 1 for simple, k in kinds if simple)
    assert kinds[True, 1] > 1000 and kinds[False, 1] > 100
    assert sum(v for (_, k), v in kinds.items() if k > 1) > 1000


def test_a_dual_walks_its_boundary_once(monkeypatch):
    """The white parity is read off endpoint 0's slot, so each dual walks
    the region boundary once to number its endpoints, after the walk of
    ``is_simply_connected``: on the 4x3 tilings, every one of which
    needs white parity 1."""
    walks = []
    own = Region._boundary_walks

    def counted(region):
        walks.append(region)
        return own(region)

    monkeypatch.setattr(Region, "_boundary_walks", counted)
    tilings = enumerate_tilings(Region.rectangle(4, 3))
    for t in tilings:
        tiling_to_diagram(t)
    assert len(walks) == 2 * len(tilings) == 22
