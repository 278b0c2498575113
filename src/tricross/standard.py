"""Standard-diagram construction and the parallel-crossing count.

The construction realizes any matching by repeatedly laying a
boundary-parallel strand along a minimal interval of the pairing.  Each
consecutive (out, in) pair of endpoints interior to the interval
produces one triple crossing.  The residual pairing on the region above
the laid strand swaps the two strands crossed at every new crossing.
``lay_order`` schedules the intervals over persistent position keys,
which ``freeze`` moves onto the new crossings' upper legs, and
``lay_strands`` lays a schedule.  The reducer lists the schedule once,
lays it for its target and follows it, straightening each scheduled
strand instead of laying it.

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
    clockwise.  The interval is a shortest pair-free one, so no other
    lies inside it; ties break on (in-key, ccw first).  'ccw' and 'cw'
    take their own way when some pair-free interval runs it, else either.

    The candidates are ranked by size, read off index differences, and
    only their interiors are tested, in that order: an interior is
    pair-free when no in-key in it has its out-key in it.
    """
    m = len(keys)
    index = {k: i for i, k in enumerate(keys)}
    want = {"ccw": 1, "cw": -1}.get(strategy)
    # 'inclusion' (want None) ranks both ways alike
    ranked = sorted(
        (dirn != want, (index[b] - index[a]) * dirn % m - 1, a, -dirn)
        for a, b in pairing.items() for dirn in (1, -1))
    for _, _, a, back in ranked:
        interior = [keys[p] for p in interval_interior(
            m, index[a], index[pairing[a]], -back)]
        inside = set(interior)
        # laying across a fully-enclosed pair breaks minimality
        if not any(pairing.get(t) in inside for t in interior):
            return a, pairing[a], -back, interior
    raise ValueError("the pairing has no pair-free interval")


def template_slots(e, dirn):
    """(out-hanging, in-hanging, in-key upper, out-key upper) slots of a
    crossing laid along a ``dirn`` interval and entered at slot ``e``."""
    return tuple((e + k * dirn) % 6 for k in (1, 2, 4, 5))


def lay_order(matching, strategy):
    """Yield the construction's (in_key, out_key, dirn, interior keys) for
    each strand laid.  Keys persist (``freeze``); laying across (o, i)
    makes i end the strand from partner[o], and o start the one that ran
    to pairing[i]: the pairing's update depends only on the matching."""
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    pairing = dict(matching.pairs)  # in-key -> out-key
    partner = {b: a for a, b in pairing.items()}
    while pairing:
        a, b, dirn, interior = select_interval(
            sorted({*pairing, *partner}), pairing, strategy)
        yield a, b, dirn, interior
        for o_key, i_key in zip(interior[::2], interior[1::2]):
            # t != i_key: select_interval admits no interval enclosing a pair
            t, u = partner.pop(o_key), pairing.pop(i_key)
            pairing[t], partner[i_key] = i_key, t
            pairing[o_key], partner[u] = u, o_key
        del pairing[a], partner[b]


def freeze(frontier, interior, visits, dirn):
    """Move a laid strand's interior keys (``frontier``: key -> port) to
    the upper legs of its ``visits``, (crossing, entry slot) pairs."""
    for j, (c, e) in enumerate(visits):
        _, _, t_up, u_up = template_slots(e, dirn)
        frontier[interior[2 * j + 1]] = ('c', c, t_up)
        frontier[interior[2 * j]] = ('c', c, u_up)


def standard_diagram(matching, strategy="inclusion"):
    """Build the standard diagram realizing ``matching`` (no closed loops)."""
    return lay_strands(matching, lay_order(matching, strategy))


def lay_strands(matching, schedule):
    """Build the standard diagram of ``matching`` by laying the strands of
    ``schedule``, its ``lay_order`` under some strategy, in order."""
    n = matching.n
    frontier = {i: ('b', i) for i in range(2 * n)}
    edges = []
    next_cross = 0
    for a, b, dirn, interior in schedule:
        assert len(interior) % 2 == 0, "interval interior must be even"
        cur = frontier.pop(a)
        assert is_source(cur), "interval must start at an in anchor"
        s_in, s_out = (2, 5) if dirn == 1 else (0, 3)
        down_out, down_in, _, _ = template_slots(s_in, dirn)
        visits = []
        for o_key, i_key in zip(interior[::2], interior[1::2]):
            assert not is_source(frontier[o_key]) \
                and is_source(frontier[i_key])
            c = next_cross + len(visits)
            visits.append((c, s_in))
            edges.append((cur, ('c', c, s_in)))
            cur = ('c', c, s_out)
            edges.append((('c', c, down_out), frontier[o_key]))
            edges.append((frontier[i_key], ('c', c, down_in)))
        edges.append((cur, frontier.pop(b)))
        freeze(frontier, interior, visits, dirn)
        next_cross += len(visits)
    diagram = TripleDiagram.from_edge_list(n, range(next_cross), edges)
    diagram.check()
    traced, loops = diagram.trace()
    assert not loops and traced == matching, "construction round trip failed"
    return diagram
