"""The four benchmark workloads and their independent output checks.

Each workload class builds its inputs from a seed in ``__init__`` (the
set-up phase, timed SETUP_RUNS times: a fixed count, so that the peak
RSS, which grows a little with every set-up, does not depend on the
host's speed), runs one operation per input with ``run`` (the timed
phase) and judges a first output per input with ``check`` (the untimed
phase).  ``fingerprint`` hashes an output to a value that must repeat
whenever the same input runs again, so only one output per input has
to be kept and checked in full, and memory does not grow with the
number of passes.  ``work`` gives the units the
throughput metric counts for one verified output.

Library calls go through the ``tricross`` package namespace
(``tc.name``) so that the traced run, which patches that namespace,
sees them.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import tricross as tc
from tricross import textio
from tricross.diagram import parse_port
from tricross.moves import apply_move
# Bound at import, before any tracing wrapper is installed: the oracle
# set-up counts fillings with it, and that count is the benchmark's own
# reference, not work the traced run should attribute to the layer.
from tricross.movegraph import walk_fillings as _untraced_walk_fillings


def all_matchings(n):
    ins = [2 * i for i in range(n)]
    for perm in itertools.permutations([2 * i + 1 for i in range(n)]):
        yield tc.Matching.from_dict(n, dict(zip(ins, perm)))


def random_matching(n, rng):
    outs = [2 * i + 1 for i in range(n)]
    rng.shuffle(outs)
    return tc.Matching.from_dict(n, dict(zip(range(0, 2 * n, 2), outs)))


def aztec_diamond(order):
    """Squares with centre |x| + |y| <= order, shifted to x, y >= 0."""
    return tc.Region((x + order, y + order)
                     for y in range(-order, order)
                     for x in range(-order, order)
                     if abs(x + 0.5) + abs(y + 0.5) <= order)


def diagram_from_text(n, edges):
    """Diagram from ``B0-C0.0 ...`` edge text; crossings are the ids used."""
    pairs = [tuple(parse_port(p) for p in e.split("-")) for e in edges.split()]
    crossings = sorted({p[1] for pair in pairs for p in pair if p[0] == 'c'})
    return tc.TripleDiagram.from_edge_list(n, crossings, pairs)


def fresh(d):
    """A new diagram object equal to ``d`` with no cached faces or keys,
    as a caller reading the diagram from a file would have."""
    return tc.TripleDiagram(d.n, d.crossings, d.edges, d.loops)


# ----------------------------------------------------------------------
# closure: the 2<->2 move graph of the 6x4 rectangle's domino dual

def check_closure(region, output):
    """Vertices must be the duals of all tilings; |E| half the flip total."""
    keys, n_edges, text = output
    tilings = tc.enumerate_tilings(region)
    want = {tc.tiling_to_diagram(t).canonical_key() for t in tilings}
    if keys != want:
        return "vertex keys differ from the %d tiling duals" % len(want)
    flips = sum(len(tc.find_flips(t)) for t in tilings)
    if 2 * n_edges != flips:
        return "%d edges, but the tilings have %d flips" % (n_edges, flips)
    lines = text.splitlines()
    v_lines = {ln[2:] for ln in lines if ln.startswith("v ")}
    e_lines = [ln for ln in lines if ln.startswith("e ")]
    if v_lines != {textio.key_digest(k) for k in want} \
            or len(e_lines) != n_edges:
        return "movegraph text does not list the vertices and edges"
    return None


class Closure:
    """enumerate_component on one matching, then write_movegraph.

    The input is the 6x4 rectangle's dual (281 vertices, 12 crossings,
    1-2 s), not the 6x5 one (1,183 vertices, 7-11 s): a run fits about
    eight repeats of it; three repeats of the 6x5 closure spread by 0.31
    across ten runs, more than the largest bound allowed.  The strategy
    is the library's default, 'inclusion'.  All tilings of the region
    share one trace matching, so the input does not depend on the seed."""

    may_raise = False
    SETUP_RUNS = 15

    def __init__(self, seed):
        self.region = tc.Region.rectangle(6, 4)
        tiling = tc.enumerate_tilings(self.region)[0]
        matching, _ = tc.tiling_to_diagram(tiling).trace()
        self.items = [(matching, "inclusion")]
        self.params = {"region": "rectangle 6x4", "n": matching.n,
                       "crossings": len(self.region) // 2,
                       "strategy": "inclusion"}
        small, _ = tc.tiling_to_diagram(
            tc.enumerate_tilings(tc.Region.rectangle(4, 3))[0]).trace()
        self.run((small, "inclusion"))  # warm-up

    @staticmethod
    def run(item):
        graph = tc.enumerate_component(*item)
        text = textio.write_movegraph(graph)
        return frozenset(graph.vertices), len(graph.edges), text

    @staticmethod
    def fingerprint(output):
        return hash(output[2])

    def check(self, item, output):
        return check_closure(self.region, output)

    @staticmethod
    def work(item, output):
        return len(output[0])


# ----------------------------------------------------------------------
# reduce: reduce_to_minimal + write_movelog on non-minimal diagrams

# ROADMAP item 3: MoveError "no free loop at that face"
REPRODUCER_LOOP = (1, "B0-C0.0 B1-C0.1 C0.2-C1.1 C0.3-C0.4 C0.5-C1.0 "
                      "C1.2-C1.5 C1.3-C2.0 C1.4-C2.3 C2.1-C2.2 C2.4-C2.5")
# ROADMAP item 4: the arc plus two interlocked closed strands
REPRODUCER_INTERLOCK = (1, "B0-C0.0 B1-C1.1 C0.1-C1.0 C0.2-C1.5 C0.3-C1.4 "
                           "C0.4-C1.3 C0.5-C1.2")


def oracle_pool():
    """Every connected diagram at n=1..3 with min+1..min+2 crossings,
    cell by cell."""
    pool = []
    for n in (1, 2, 3):
        for m in all_matchings(n):
            k = tc.minimal_crossing_count(m)
            for extra in (1, 2):
                found = tc.enumerate_connected_diagrams(m, k + extra)
                pool.extend(found[key] for key in sorted(found))
    return pool


def check_reduce(item, text):
    """Replay the log: it must end at the standard diagram of the trace,
    never raise the crossing count, and undo exactly the inflation."""
    _, initial, bumps, loops = item
    initial = fresh(initial)
    try:
        log, final = textio.read_movelog(text, initial)
    except (textio.ParseError, tc.MoveError, tc.DiagramError) as exc:
        return "move log does not replay: %s" % exc
    matching, _ = initial.trace()
    if final.canonical_key() != \
            tc.standard_diagram(matching).canonical_key():
        return "log does not end at the standard diagram"
    cur = initial
    for mv in log.moves:
        nxt = apply_move(cur, mv)
        if nxt.crossing_count() > cur.crossing_count():
            return "crossing count rises at a %s move" % mv.kind
        cur = nxt
    counts = log.counts()
    if bumps is not None and (counts.get('10', 0), counts.get('drop', 0)) \
            != (bumps, loops):
        return "1->0/drop counts %s, inflation added %d bumps, %d loops" % (
            counts, bumps, loops)
    return None


class Reduce:
    """Seeded corpus: inflations, oracle draws and two pinned reproducers.

    The inflations are stratified so that seeds differ in which diagrams
    they draw, not in how much work they hold: every n in 3..10 gets the
    same number of inflations, each with every bump and loop count
    equally often.  The oracle draws are a fixed systematic sample of the
    pool (every len(pool)/ORACLE_DRAWS-th diagram, from the middle of the
    first step), so each cell is drawn in proportion to its size and the
    inputs that fail are the same on every seed; the seed only orders
    them among the inflations."""

    # the reducer's known defects raise on some inputs
    may_raise = True
    SETUP_RUNS = 1

    INFLATION_N = range(3, 11)
    INFLATIONS_PER_N = 32  # two rounds of the 16 bump/loop pairs
    ORACLE_DRAWS = 32

    def __init__(self, seed):
        rng = random.Random(seed)
        items = []
        for n in self.INFLATION_N:
            for j in range(self.INFLATIONS_PER_N):
                d0 = tc.standard_diagram(random_matching(n, rng))
                d, _ = tc.inflate(d0, 1 + j % 4, j // 4 % 4,
                                  rng.randint(0, 8), rng)
                items.append(("inflation", d,
                              d.crossing_count() - d0.crossing_count(),
                              sum(d.loops.values())))
        pool = oracle_pool()
        step = len(pool) / self.ORACLE_DRAWS
        start = step / 2
        items.extend(("oracle", pool[int(start + k * step)], None, None)
                     for k in range(self.ORACLE_DRAWS))
        for n, edges in (REPRODUCER_LOOP, REPRODUCER_INTERLOCK):
            items.append(("reproducer", diagram_from_text(n, edges),
                          None, None))
        rng.shuffle(items)
        self.items = items
        self.params = {"inflation_n": [min(self.INFLATION_N),
                                       max(self.INFLATION_N)],
                       "inflations_per_n": self.INFLATIONS_PER_N,
                       "bumps": [1, 4], "loops": [0, 3], "shuffles": [0, 8],
                       "oracle_draws": self.ORACLE_DRAWS,
                       "oracle_pool": len(pool),
                       "oracle_share": self.ORACLE_DRAWS / len(items),
                       "reproducers": 2}
        warm = tc.standard_diagram(random_matching(4, rng))
        warm, _ = tc.inflate(warm, 1, 1, 2, rng)
        self.run(("warm-up", warm, None, None))

    @staticmethod
    def run(item):
        d = fresh(item[1])
        _, log = tc.reduce_to_minimal(d)
        return textio.write_movelog(d, log)

    @staticmethod
    def fingerprint(output):
        return hash(output)

    @staticmethod
    def check(item, output):
        return check_reduce(item, output)

    @staticmethod
    def work(item, output):
        return 1


# ----------------------------------------------------------------------
# oracle: enumerate_connected_diagrams + find_badgons per cell

def check_oracle(item, output):
    """Theorem 4: badgon-free exactly when crossings are minimal."""
    matching, k, extra, _ = item
    if extra == 0 and not output:
        return "no diagram for %s at the minimal crossing count" % (
            matching.pairs,)
    wrong = sum(1 for _, free in output if free != (extra == 0))
    if wrong:
        return "%d diagrams of %s with %d crossings (%d above the minimum) " \
               "break badgon-free <=> minimal" % (wrong, matching.pairs, k,
                                                   extra)
    return None


def count_fillings(n, crossings, want):
    count = 0

    def emit(edges, ncross):
        nonlocal count
        count += 1
    _untraced_walk_fillings(n, crossings, emit, want)
    return count


class Oracle:
    """Every matching with n<=3 at min..min+2 crossings and n=4 at min:
    51 cells, from a single filling to 17,000.

    One operation is the whole sweep over the cells, in a fixed order,
    so the input does not depend on the seed.  Per cell, the median
    latency would fall on a one-filling n=4 cell of about 0.5 ms, which
    measures call overhead rather than the oracle.  A seeded order of
    the cells also moved the peak RSS by up to 7% between seeds, the
    heap's layout depending on which cells come first."""

    may_raise = False
    SETUP_RUNS = 3

    def __init__(self, seed):
        cells = []
        for n, extras in ((1, 3), (2, 3), (3, 3), (4, 1)):
            for m in all_matchings(n):
                k = tc.minimal_crossing_count(m)
                cells.extend((m, k + extra, extra,
                              count_fillings(n, k + extra, m.as_dict()))
                             for extra in range(extras))
        self.items = [tuple(cells)]
        self.params = {"cells": len(cells),
                       "fillings_per_pass": sum(c[3] for c in cells)}
        for cell in cells:  # warm-up on the n <= 2 cells
            if cell[0].n <= 2:
                self.run_cell(cell)

    @staticmethod
    def run_cell(cell):
        found = tc.enumerate_connected_diagrams(cell[0], cell[1])
        return tuple((key, not tc.find_badgons(d))
                     for key, d in sorted(found.items()))

    def run(self, item):
        return tuple(self.run_cell(cell) for cell in item)

    @staticmethod
    def fingerprint(output):
        return hash(output)

    @staticmethod
    def check(item, output):
        for cell, found in zip(item, output):
            why = check_oracle(cell, found)
            if why is not None:
                return why
        return None

    @staticmethod
    def work(item, output):
        return sum(cell[3] for cell in item)


# ----------------------------------------------------------------------
# cluster: random_walk + laurent_audit on domino duals

def evaluate(value, point):
    """A LaurentValue at a point of positive Fractions."""
    def mono(exps):
        out = Fraction(1)
        for p, e in zip(point, exps):
            out *= p ** e
        return out
    return sum((c * mono(m) for m, c in value.num), Fraction(0)) \
        / mono(value.den)


def check_walk(states, sites, point):
    """Check each exchange by evaluation at ``point``, not by the audit.

    A white central face e with diagonal white faces a, c (around X and Y
    at slots x1+2, y1+2) and b, d (slots x1+4, y1+4) must become f with
    f*e = a*c + b*d, where f sits on the new central bigon at dart
    (X, x1+4) per the 2<->2 template; every other value is unchanged.
    """
    memo = {}

    def ev(value):
        if value not in memo:
            memo[value] = evaluate(value, point)
        return memo[value]

    for value in states[0].values.values():
        if any(c <= 0 for _, c in value.num) or min(value.den) < 0:
            return "initial value is not a positive Laurent monomial"
    for step, (pre, post, site) in enumerate(zip(states, states[1:], sites)):
        (X, x1), (Y, y1) = site.x, site.y
        old, new = pre.diagram, post.diagram
        before = Counter(ev(v) for v in pre.values.values())
        after = Counter(ev(v) for v in post.values.values())
        for value in post.values.values():
            if any(c <= 0 for _, c in value.num) or min(value.den) < 0:
                return "step %d: a value is not Laurent-positive" % step
        if old.face_by_key(site.face_key).color == 'white':
            def at(d, crossing, slot):
                return d.face_of(('c', crossing, slot % 6)).key
            vals = pre.values
            a, c = vals[at(old, X, x1 + 2)], vals[at(old, Y, y1 + 2)]
            b, d = vals[at(old, X, x1 + 4)], vals[at(old, Y, y1 + 4)]
            e = vals[site.face_key]
            f = post.values[at(new, X, x1 + 4)]
            if ev(f) * ev(e) != ev(a) * ev(c) + ev(b) * ev(d):
                return "step %d: f*e != a*c + b*d" % step
            before[ev(e)] -= 1
            after[ev(f)] -= 1
        if +before != +after:
            return "step %d: values off the central face changed" % step
    return None


class Cluster:
    """Walks from init_cluster on the duals of five regions."""

    may_raise = False
    SETUP_RUNS = 5

    REGIONS = (("rectangle 4x3", tc.Region.rectangle(4, 3)),
               ("rectangle 4x4", tc.Region.rectangle(4, 4)),
               ("rectangle 6x4", tc.Region.rectangle(6, 4)),
               ("rectangle 6x5", tc.Region.rectangle(6, 5)),
               ("aztec diamond 3", aztec_diamond(3)))
    WALKS_PER_REGION = 16
    WALK_LENGTH = 20  # the default of ``tricross cluster --walk``

    def __init__(self, seed):
        rng = random.Random(seed)
        items = []
        for name, region in self.REGIONS:
            tilings = tc.enumerate_tilings(region)
            for _ in range(self.WALKS_PER_REGION):
                t = tilings[rng.randrange(len(tilings))]
                state = tc.init_cluster(tc.tiling_to_diagram(t))
                # a wide range makes an accidental match of a wrong value
                # (such as e evaluating to 1) practically impossible
                point = tuple(Fraction(rng.randint(1, 10 ** 6),
                                       rng.randint(1, 10 ** 6))
                              for _ in range(state.nvars))
                items.append((name, state, rng.getrandbits(32), point))
        rng.shuffle(items)
        self.items = items
        self.params = {"regions": [name for name, _ in self.REGIONS],
                       "walks_per_region": self.WALKS_PER_REGION,
                       "walk_length": self.WALK_LENGTH}
        self.run(items[0])  # warm-up

    def run(self, item):
        states, sites, ok = tc.random_walk(item[1], self.WALK_LENGTH,
                                           random.Random(item[2]))
        return states, sites, ok, tc.laurent_audit(states)

    @staticmethod
    def fingerprint(output):
        states, sites, ok, _ = output
        return hash((tuple(sites), ok,
                     frozenset(states[-1].values.items())))

    @staticmethod
    def check(item, output):
        states, sites, ok, _ = output
        if not ok:
            return "an exchange failed to divide exactly"
        return check_walk(states, sites, item[3])

    @staticmethod
    def work(item, output):
        return len(output[1])


WORKLOADS = {"closure": Closure, "reduce": Reduce, "oracle": Oracle,
             "cluster": Cluster}
