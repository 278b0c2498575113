"""Standard-diagram construction and the parallel-crossing count.

The construction realizes any matching by repeatedly laying a
boundary-parallel strand along a minimal interval of the pairing.  Each
consecutive (out, in) pair of endpoints interior to the interval
produces one triple crossing.  The residual pairing on the region above
the laid strand swaps the two strands crossed at every new crossing;
the swap is carried structurally on the half-edge map, with frontier
ports tagged by persistent position keys so that rebuilding the same
matching always selects the same intervals.

Crossing template, with the new strand entering at slot ``s_in``:

* counterclockwise interval (walk = increasing endpoint index):
  ``s_in = 2``, exit 5; the crossed out-endpoint hangs at slot 3, the
  in-endpoint at slot 4; upper legs are slot 1 (feeds the residual,
  inherits the out-endpoint's key) and slot 0 (drains the residual,
  inherits the in-endpoint's key).

* clockwise interval: ``s_in = 0``, exit 3; out-endpoint at slot 5,
  in-endpoint at slot 4; upper legs slot 1 (residual-in, key of the
  out-endpoint) and slot 2 (residual-out, key of the in-endpoint).

Both are ``template_slots``: relative to the entry slot ``e``, slot
``(e + k * dirn) % 6`` with k = 1, 2 for the hanging out- and in-slots
and k = 4, 5 for the upper legs taking the in- and out-endpoint's key.
The reducer reads laid strands through the same helper.
"""

from .diagram import TripleDiagram, is_source

STRATEGIES = ("inclusion", "cw", "ccw")


def minimal_crossing_count(matching, basepoint=0):
    """Count strand pairs a->c, b->d with a<b<c<d or d<c<b<a from basepoint."""
    two_n = 2 * matching.n
    if matching.n == 0:
        return 0
    if not 0 <= basepoint < two_n:
        raise ValueError("basepoint out of range")

    def pos(i):
        return (i - basepoint) % two_n

    strands = [(pos(a), pos(b)) for a, b in matching.pairs]
    count = 0
    for i in range(len(strands)):
        for j in range(i + 1, len(strands)):
            a, c = strands[i]
            b, d = strands[j]
            if (a < b < c < d) or (d < c < b < a) \
                    or (b < a < d < c) or (c < d < a < b):
                count += 1
    return count


def interval_interior(m, pa, pb, dirn):
    """Positions strictly between pa and pb walking in direction dirn."""
    out = []
    p = (pa + dirn) % m
    while p != pb:
        out.append(p)
        p = (p + dirn) % m
    return out


def select_interval(keys, pairing, strategy):
    """Choose a minimal interval of the pairing over the key-ordered circle.

    ``keys``: frontier position keys in counterclockwise order.
    ``pairing``: dict in-key -> out-key.  Returns (in_key, out_key, dirn,
    interior keys in walk order); dirn is +1 counterclockwise, -1
    clockwise.  Ties break on (interior size, in-key, ccw first).
    """
    index = {k: i for i, k in enumerate(keys)}
    m = len(keys)

    def collect(want_dirn):
        out = []
        for a in sorted(pairing):
            b = pairing[a]
            for dirn in (1, -1):
                if want_dirn is not None and dirn != want_dirn:
                    continue
                interior = [keys[p] for p in
                            interval_interior(m, index[a], index[b], dirn)]
                inside = set(interior)
                # laying across a fully-enclosed pair breaks minimality;
                # only pair-free intervals are admissible
                if any(t in inside and u in inside for t, u in pairing.items()):
                    continue
                out.append((frozenset(interior), interior, a, b, dirn))
        return out

    want = {"inclusion": None, "ccw": 1, "cw": -1}[strategy]
    candidates = collect(want)
    if not candidates:
        # no pair-free interval runs the preferred way; fall back to all
        candidates = collect(None)
    minimal = [c for c in candidates
               if not any(o[0] < c[0] for o in candidates)]
    minimal.sort(key=lambda c: (len(c[1]), c[2], 0 if c[4] == 1 else 1))
    chosen = minimal[0]
    return chosen[2], chosen[3], chosen[4], chosen[1]


def template_slots(e, dirn):
    """(out-hanging, in-hanging, in-key upper, out-key upper) slots of a
    crossing laid along a ``dirn`` interval and entered at slot ``e``."""
    return tuple((e + k * dirn) % 6 for k in (1, 2, 4, 5))


def lay_strand(frontier, pairing, partner, edges, a, b, dirn, interior,
               next_cross):
    """Lay one boundary-parallel strand; mutates the recursion state.

    Returns the list of new crossing ids.  ``frontier`` maps key -> port,
    ``pairing`` in-key -> out-key, ``partner`` its inverse.
    """
    assert len(interior) % 2 == 0, "interval interior must be even"
    k = len(interior) // 2
    cur = frontier[a]
    assert is_source(cur), "interval must start at an in anchor"
    s_in, s_out = (2, 5) if dirn == 1 else (0, 3)
    down_out, down_in, t_up, u_up = template_slots(s_in, dirn)
    new_ids = []
    for j in range(k):
        c = next_cross + j
        new_ids.append(c)
        o_key, i_key = interior[2 * j], interior[2 * j + 1]
        assert not is_source(frontier[o_key]) and is_source(frontier[i_key])
        # t != i_key: select_interval admits no interval enclosing a pair
        t = partner[o_key]
        u = pairing[i_key]
        edges.append((cur, ('c', c, s_in)))
        cur = ('c', c, s_out)
        edges.append((('c', c, down_out), frontier[o_key]))
        edges.append((frontier[i_key], ('c', c, down_in)))
        # swap the crossed pairs: t's strand now ends over the in slot,
        # the out slot's key starts the strand running to u
        frontier[i_key] = ('c', c, t_up)
        frontier[o_key] = ('c', c, u_up)
        del pairing[i_key]
        del partner[o_key]
        pairing[t] = i_key
        partner[i_key] = t
        pairing[o_key] = u
        partner[u] = o_key
    edges.append((cur, frontier[b]))
    del frontier[a], frontier[b]
    del pairing[a], partner[b]
    return new_ids


def standard_diagram(matching, strategy="inclusion"):
    """Build the standard diagram realizing ``matching`` (no closed loops)."""
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    n = matching.n
    frontier = {i: ('b', i) for i in range(2 * n)}
    pairing = dict(matching.pairs)
    partner = {b: a for a, b in pairing.items()}
    edges = []
    next_cross = 0
    while pairing:
        keys = sorted(frontier)
        a, b, dirn, interior = select_interval(keys, pairing, strategy)
        new_ids = lay_strand(frontier, pairing, partner, edges,
                             a, b, dirn, interior, next_cross)
        next_cross += len(new_ids)
    diagram = TripleDiagram.from_edge_list(n, range(next_cross), edges)
    diagram.check()
    traced, loops = diagram.trace()
    assert not loops and traced == matching, "construction round trip failed"
    return diagram
