"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 3 asks the library's badgon scan about every filling.
Criterion 3's heaviest cell (the two n=4 matchings needing 2 crossings,
checked with 2 extra: 24.5 million raw fillings) is gated behind
TRICROSS_T4_FULL=1; the default run covers every other (matching, extra)
cell exactly.
"""

import os
import random
import re
import time

import pytest

from tricross import (Matching, standard_diagram, minimal_crossing_count,
                      STRATEGIES, find_badgons, is_minimal, reduce_to_minimal,
                      connect_minimal, inflate, replay, verify_theorem2,
                      Region, enumerate_tilings, tiling_to_diagram,
                      find_flips, apply_flip, flips_commute_with_22,
                      enumerate_component, init_cluster, exchange_22,
                      random_walk, laurent_audit, find_22_sites,
                      slide_macro, pattern_template)
from tricross import moves
from tricross.diagram import trace_strands
from tricross.movegraph import walk_fillings

from conftest import all_matchings


def _report(num, ok, detail):
    print("ACCEPTANCE %d: %s -- %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_1_realization():
    t0 = time.time()
    total = 0
    for n in range(7):
        for m in all_matchings(n):
            for strategy in STRATEGIES:
                d = standard_diagram(m, strategy)
                assert d.validate() == []
                traced, loops = d.trace()
                assert traced == m and not loops
                total += 1
    dt = time.time() - t0
    _report(1, dt < 30,
            "all %d constructions (n<=6, 3 strategies) round-trip in %.1fs"
            % (total, dt))


def test_criterion_2_count_theorem():
    checked = 0
    for n in range(7):
        for m in all_matchings(n):
            counts = {minimal_crossing_count(m, b) for b in range(2 * n)} \
                or {0}
            assert len(counts) == 1
            mc = counts.pop()
            for strategy in STRATEGIES:
                assert standard_diagram(m, strategy).crossing_count() == mc
            checked += 1
    _report(2, True,
            "crossing counts equal the quadruple formula for %d matchings, "
            "basepoint-independent" % checked)


def _fast_theorem4_check(n, k, min_counts):
    """Stream all fillings at (n, k); assert badgon-free <=> k == minimum."""
    stats = {"total": 0}

    def emit(pairs, ncross):
        partner = [-1] * (2 * n + 6 * ncross)
        for a, b in pairs:
            partner[a], partner[b] = b, a
        strands = trace_strands(n, range(ncross), partner)
        matching = tuple([s[:2] for s in strands[:n]])
        kmin = min_counts[matching]
        minimal = (ncross == kmin)
        bad = any(moves.scan_badgons(strands))
        assert bad != minimal, (matching, ncross, kmin)
        stats["total"] += 1

    walk_fillings(n, k, emit)
    return stats


def test_criterion_3_theorem4():
    totals = 0
    cells = 0
    for n in range(1, 5):
        min_counts = {}
        needed = set()
        for m in all_matchings(n):
            mc = minimal_crossing_count(m)
            min_counts[m.pairs] = mc
            for extra in (0, 1, 2):
                needed.add(mc + extra)
        cap = None if os.environ.get("TRICROSS_T4_FULL") else 3
        for k in sorted(needed):
            if cap is not None and n == 4 and k > cap:
                continue
            stats = _fast_theorem4_check(n, k, min_counts)
            totals += stats["total"]
            cells += 1
    capped = "" if os.environ.get("TRICROSS_T4_FULL") else \
        " (n=4 capped at 3 crossings; TRICROSS_T4_FULL=1 lifts it)"
    _report(3, True,
            "badgon-free <=> minimal over %d connected diagrams "
            "in %d (n, crossings) cells%s" % (totals, cells, capped))


def test_criterion_3_fails_on_a_scan_blind_to_parallel_bigons(monkeypatch):
    """Criterion 3 can fail: a filling with n=1 and 2 crossings has
    parallel bigons and no monogon."""
    scan = moves.scan_badgons
    monkeypatch.setattr(moves, "scan_badgons", lambda strands: (
        b for b in scan(strands) if b.kind != 'parallel-bigon'))
    with pytest.raises(AssertionError, match=re.escape("(((0, 1),), 2, 0)")):
        _fast_theorem4_check(1, 2, {((0, 1),): 0})


def test_criterion_4_reduction():
    t0 = time.time()
    rng = random.Random(20260808)
    trials = 500
    for trial in range(trials):
        n = rng.randint(1, 6)
        outs = [2 * i + 1 for i in range(n)]
        rng.shuffle(outs)
        m = Matching.from_dict(n, dict(zip([2 * i for i in range(n)], outs)))
        d0 = standard_diagram(m)
        d, _ = inflate(d0, rng.randint(0, 5), rng.randint(0, 5),
                       rng.randint(0, 8), rng)
        bumps = d.crossing_count() - d0.crossing_count()
        loops = sum(d.loops.values())
        final, log = reduce_to_minimal(d)
        counts = log.counts()
        assert is_minimal(final)
        assert final.trace()[0] == m
        assert final.canonical_key() == d0.canonical_key()
        assert counts.get('10', 0) == bumps
        assert counts.get('drop', 0) == loops
        cur = d
        prev = cur.crossing_count()
        for mv in log.moves:
            cur = moves.apply_move(cur, mv)
            assert cur.crossing_count() <= prev
            prev = cur.crossing_count()
    dt = time.time() - t0
    _report(4, dt < 120,
            "%d seeded inflations reduced with exact 1->0/drop counts, "
            "monotone crossings, in %.1fs" % (trials, dt))


def test_criterion_5_theorem2():
    for n in range(4):
        for m in all_matchings(n):
            rep = verify_theorem2(m)
            assert rep["equal"], (m.pairs, rep)
    sampled = 0
    for m in all_matchings(4):
        rep = verify_theorem2(m)
        assert rep["equal"], (m.pairs, rep)
        sampled += 1
    pairs = 0
    for n in range(1, 6):
        for m in all_matchings(n):
            builds = [standard_diagram(m, s) for s in STRATEGIES]
            for other in builds[1:]:
                log = connect_minimal(builds[0], other)
                assert all(mv.kind == '22' for mv in log.moves)
                final = replay(builds[0], log)
                assert final.canonical_key() == other.canonical_key()
                pairs += 1
    _report(5, sampled >= 20,
            "oracle equality for all n<=3 and %d matchings at n=4; "
            "%d strategy pairs connected by 2<->2-only logs (n<=5)"
            % (sampled, pairs))


def test_criterion_6_domino_duality():
    t0 = time.time()
    expected = {(2, 2): 2, (3, 2): 3, (4, 2): 5, (4, 3): 11}
    for (w, h), count in expected.items():
        region = Region.rectangle(w, h)
        tilings = enumerate_tilings(region)
        assert len(tilings) == count
        duals = {}
        matchings = set()
        for t in tilings:
            d = tiling_to_diagram(t)
            assert d.crossing_count() == (w * h) // 2
            assert find_badgons(d) == []
            matchings.add(d.trace()[0])
            duals[t] = d.canonical_key()
        assert len(matchings) == 1
        assert len(set(duals.values())) == count  # injectivity
        flip_edges = set()
        for t in tilings:
            for site in find_flips(t):
                assert flips_commute_with_22(t, site)
                t2 = apply_flip(t, site)
                flip_edges.add(frozenset((duals[t], duals[t2])))
        graph = enumerate_component(matchings.pop())
        assert graph.size() == count
        assert flip_edges == set(graph.edges)
    dt = time.time() - t0
    _report(6, dt < 60,
            "2x2/2x3/2x4/3x4 duality: counts, one matching, minimal duals, "
            "flip edges == move edges, in %.1fs" % dt)


def test_criterion_7_laurent():
    t0 = time.time()
    rng = random.Random(52)
    seeds = []
    for w, h in [(4, 2), (4, 3), (8, 2)]:
        region = Region.rectangle(w, h)
        for t in enumerate_tilings(region):
            d = tiling_to_diagram(t)
            assert d.crossing_count() <= 8
            seeds.append(d)
    walks = 0
    while walks < 100:
        d = seeds[walks % len(seeds)]
        st = init_cluster(d)
        states, sites, ok = random_walk(st, 20, rng)
        assert ok, "a cluster exchange failed to divide exactly"
        rep = laurent_audit(states)
        assert rep["all_positive"]
        last = states[-1]
        whites = [s for s in find_22_sites(last.diagram)
                  if last.diagram.face_by_key(s.face_key).color == 'white']
        if whites:
            site = whites[0]
            once = exchange_22(last, site)
            pair = {site.x[0], site.y[0]}
            back = [s for s in find_22_sites(once.diagram)
                    if {s.x[0], s.y[0]} == pair][0]
            twice = exchange_22(once, back)
            assert sorted(map(str, twice.values.values())) \
                == sorted(map(str, last.values.values()))
        walks += 1
    dt = time.time() - t0
    _report(7, dt < 120,
            "%d seeded walks (<=20 moves, <=8 crossings): Laurent, positive, "
            "exact divisions, double-exchange restores; %.1fs" % (walks, dt))


def test_criterion_8_slide_macros():
    found = []
    for pattern in ('a', 'b', 'c'):
        for r in (1, 2, 3):
            left, window, right = pattern_template(pattern, r)
            log = slide_macro(left, pattern, window, r)
            assert all(mv.kind == '22' for mv in log.moves)
            final = replay(left, log)
            assert final.canonical_key() == right.canonical_key()
            assert final.trace()[0] == left.trace()[0]
            found.append((pattern, r, len(log.moves)))
    _report(8, True,
            "2<->2-only macro sequences for " +
            ", ".join("%s/r=%d (%d moves)" % f for f in found))
