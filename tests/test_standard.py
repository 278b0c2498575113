"""Standard construction and the parallel-pair crossing count."""

import random
from collections import Counter

import pytest

from tricross import (Matching, standard_diagram, minimal_crossing_count,
                      STRATEGIES, is_minimal, standard)
from tricross.standard import interval_interior, lay_order

from conftest import all_matchings


def test_nested_matching_zero_crossings(nested3):
    d = standard_diagram(nested3)
    assert d.crossing_count() == 0
    assert minimal_crossing_count(nested3) == 0


def test_rotation_matching_one_crossing(rotation3):
    # brute check: exactly one pair (0->3, 2->5) satisfies 0<2<3<5
    d = standard_diagram(rotation3)
    assert d.crossing_count() == 1
    assert minimal_crossing_count(rotation3, 0) == 1


def test_n2_matching_count_zero():
    m = Matching.from_dict(2, {0: 3, 2: 1})
    for b in range(4):
        assert minimal_crossing_count(m, b) == 0
    assert standard_diagram(m).crossing_count() == 0


def test_count_brute_force_oracle():
    # independent re-count of the qualifying quadruples for a sample:
    # enumerate all 4-tuples of endpoints directly
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 6)
        outs = [2 * i + 1 for i in range(n)]
        rng.shuffle(outs)
        m = Matching.from_dict(n, dict(zip([2 * i for i in range(n)], outs)))
        b = rng.randrange(2 * n)

        def pos(x):
            return (x - b) % (2 * n)

        strands = [(pos(i), pos(o)) for i, o in m.pairs]
        # oracle: scan every unordered strand pair for the two patterns,
        # trying both role assignments
        cnt = 0
        for i in range(len(strands)):
            for j in range(i + 1, len(strands)):
                a, c = strands[i]
                bb, dd = strands[j]
                if (a < bb < c < dd or dd < c < bb < a
                        or bb < a < dd < c or c < dd < a < bb):
                    cnt += 1
        assert minimal_crossing_count(m, b) == cnt


def test_round_trip_exhaustive_small():
    for n in range(6):
        for m in all_matchings(n):
            for strategy in STRATEGIES:
                d = standard_diagram(m, strategy)
                assert d.validate() == []
                traced, loops = d.trace()
                assert traced == m and not loops


def test_count_agreement_exhaustive_small():
    for n in range(6):
        for m in all_matchings(n):
            mc = minimal_crossing_count(m)
            for strategy in STRATEGIES:
                assert standard_diagram(m, strategy).crossing_count() == mc


def test_basepoint_independence_exhaustive_small():
    for n in range(5):
        for m in all_matchings(n):
            counts = {minimal_crossing_count(m, b) for b in range(2 * m.n)} \
                or {0}
            assert len(counts) == 1


def test_randomized_round_trip_to_n9():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(6, 9)
        outs = [2 * i + 1 for i in range(n)]
        rng.shuffle(outs)
        m = Matching.from_dict(n, dict(zip([2 * i for i in range(n)], outs)))
        mc = minimal_crossing_count(m)
        for strategy in STRATEGIES:
            d = standard_diagram(m, strategy)
            assert d.trace()[0] == m
            assert d.crossing_count() == mc


def test_standard_diagrams_are_minimal():
    for n in range(5):
        for m in all_matchings(n):
            for strategy in STRATEGIES:
                assert is_minimal(standard_diagram(m, strategy))


def test_bad_strategy_rejected(rotation3):
    with pytest.raises(ValueError):
        standard_diagram(rotation3, "sideways")


def test_basepoint_out_of_range(rotation3):
    with pytest.raises(ValueError):
        minimal_crossing_count(rotation3, 6)


def reference_select_interval(keys, pairing, strategy):
    """The all-pairs definition: of the intervals that enclose no pair,
    the least by (size, in-key, ccw first), within the strategy's way
    when some interval runs it."""
    index = {k: i for i, k in enumerate(keys)}
    candidates = []
    for a in sorted(pairing):
        for dirn in (1, -1):
            interior = [keys[p] for p in interval_interior(
                len(keys), index[a], index[pairing[a]], dirn)]
            inside = set(interior)
            if not any(t in inside and u in inside
                       for t, u in pairing.items()):
                candidates.append((len(interior), a, -dirn, interior))
    want = {"ccw": 1, "cw": -1}.get(strategy)
    _, a, back, interior = min([c for c in candidates if -c[2] == want]
                               or candidates)
    return a, pairing[a], -back, interior


def test_select_interval_matches_the_all_pairs_definition(monkeypatch):
    """On every frontier state that ``lay_order`` reaches for n <= 6."""
    select = standard.select_interval
    seen = Counter()

    def checked(keys, pairing, strategy):
        got = select(keys, pairing, strategy)
        assert got == reference_select_interval(keys, pairing, strategy)
        seen[strategy, got[2]] += 1
        return got

    monkeypatch.setattr(standard, "select_interval", checked)
    for n in range(1, 7):
        for m in all_matchings(n):
            for strategy in STRATEGIES:
                for _ in lay_order(m, strategy):
                    pass
    # sum(n * n!) strands per strategy; 'cw' and 'ccw' take the other
    # way 2,083 times each, when every interval of theirs encloses a pair
    assert seen == {(s, d): 2956 if d == (-1 if s == "cw" else 1) else 2083
                    for s in STRATEGIES for d in (1, -1)}
