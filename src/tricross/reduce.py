"""Reduction to standard form with a verifiable move log.

The reducer first makes the diagram minimal.  A connected diagram is
minimal exactly when it has no badgons, so ``_minimise`` repeats:

  1. drop the least free loop;
  2. otherwise fire the first empty monogon (a 1->0 move);
  3. otherwise stop when the diagram is minimal;
  4. otherwise ``_search`` (breadth-first over 2<->2 moves) for a state
     with an empty monogon.

A 2<->2 move keeps the crossing count and makes no free loop, so the
search needs no other goal, and the crossing count never rises.

It then lays strands in the standard construction's order
(``standard.lay_order``): for each scheduled interval, ``straighten``
makes that strand boundary-parallel inside the region of the
not-yet-frozen crossings, and ``standard.freeze`` moves the frontier's
persistent position keys (real endpoints, later the upper legs of
frozen crossings) over it, as the construction does.  A strand that
ends off its scheduled interval raises ``ReductionError``; else
reducing any diagram reproduces the standard diagram of its matching
up to canonical relabeling.

The reducer works on one diagram.  A region is given by its anchors,
the port codes just outside it in counterclockwise order (the
frontier's ports; in the recursion, the outer ports of
``region_legs``), and its set of crossings.  Every read follows partner
codes in place: a strand runs from an anchor through the region's
crossings to the next anchor (``_strand``), and a 2<->2 search takes
only moves whose two crossings lie in the region, each recorded once in
the reduction's MoveLog.  It makes, move for move, the moves that a
reducer working in the standalone sub-diagram spanned by the region
(its residual, whose endpoint i is anchor i) would make.  An
isomorphism that fixes the boundary also fixes the frozen part, so the
full diagram's canonical codes tell breadth-first states apart exactly
as the residual's do; and a crossing port's dart code differs from its
residual one by the same shift for every port, so the 2<->2 sites come
out in the same order.

Every sub-diagram of a minimal diagram is minimal: it has no free
loops, monogons, self-intersecting or closed strands, and 2<->2 moves
keep it so.  ``straighten`` therefore loops over two rules only, until
the strand S is boundary-parallel.  Both read S's sides off the partner
array.  S's under side faces its interval: at a crossing S enters by
slot e, the slots ``e + dirn`` and ``e + 2*dirn`` (mod 6), where the
standard construction hangs the interval's endpoints
(``standard.template_slots``).  Every other strand crosses S
transversally, so its piece between two consecutive crossings with S
lies wholly on the side of the slot it leaves the first by, and the
crossings under S are those reached over partner codes from the
interval's interior anchors and S's under-side slots without entering
a crossing of S or leaving the region (``_under_cross``, by the one
``_flood``).

  * double crossing (``_remove_double``): for a strand U with a piece
    under S between two crossings c1, c2 with S, take its innermost
    such piece.  When the piece holds crossings, straighten it by
    recursion, along dirn, in its part of the region under S: the
    crossings flooded from the piece's own without entering a crossing
    of S.  U runs against S, since a piece running the same way would
    bound a parallel bigon with S, and a minimal region has none; so
    the piece's side that faces S is dirn.  Then ``_search`` the
    window of S's and U's crossings from c1 to c2 for a state that
    drops the double crossing;
  * comb (``_comb``), when no strand has such a piece: ``_search`` the
    window of S plus the crossings under it for a state lowering
    (crossings under S, detours of the hanging strands).

Every move goes into the log through ``MoveLog.record``, with the index
of its face and no canonical key; the log keeps the reduction's result
as its end.  ``to_standard`` compares that result's key with the
target's once, and ``replay`` checks the face indexes and the end.

``connect_minimal`` reduces both diagrams to the standard one and walks
the second log back from its end, without applying that log again.  By
the template of ``moves.py``, the 2<->2 move at ``((X, x1), (Y, y1))``
makes its new centre at ``((X, x1+4), (Y, y1+4))``, and the move there
(``Move.inverse``) lands on the start state with X and Y swapped and
turned: port ``(X, s)`` of the start is port ``(Y, s + y1 - x1 + 2)`` of
the result, and ``(Y, s)`` is ``(X, s + x1 - y1 + 2)`` (mod 6).  The walk
keeps one map, from each crossing of the second log's state to (crossing
of the current diagram, slot offset): the canonical forms of the two
standard diagrams seed it, each inverse move is translated through it,
and the rule updates it at X and Y.
"""

from .diagram import is_source, port_code
from .domino import Region, Tiling, tiling_to_diagram
from .standard import (lay_strands, lay_order, freeze, interval_interior,
                       template_slots)
from .moves import (Move, MoveError, MoveLog, find_22_sites, find_10_sites,
                    apply_22, apply_move, is_minimal)
from .movegraph import closure

SEARCH_CAP = 30000  # the states a ``_search`` scope keys before it raises


class ReductionError(RuntimeError):
    """The reducer could not make progress."""


# ----------------------------------------------------------------------
# regions

def region_legs(diagram, crossings):
    """Cut edges of a crossing-set region, in boundary cyclic order.

    Returns a list of (inner_port, outer_port) pairs walking the
    region's frontier counterclockwise, from an in-leg (its inner port
    a sink), in-legs at even positions.  Raises if the cuts do not form
    a single circle (the set is not a disk-like region) or do not
    alternate in and out.
    """
    cs = set(crossings)
    inside = {('c', c) for c in cs}  # a port's first two fields
    cuts = [('c', c, s) for c in cs for s in range(6)
            if diagram.partner(('c', c, s))[:2] not in inside]
    if not cuts:
        raise ReductionError("region has no frontier")

    def next_cut(port):
        d = ('c', port[1], (port[2] - 1) % 6)
        while True:
            q = diagram.partner(d)
            if q[:2] in inside:
                d = ('c', q[1], (q[2] - 1) % 6)
            else:
                return d

    start = min(cuts)
    order = [start]
    cur = next_cut(start)
    while cur != start:
        order.append(cur)
        cur = next_cut(cur)
    if len(order) != len(cuts):
        raise ReductionError("region frontier is not a single circle")
    order.reverse()  # the walk runs clockwise; boundary order is ccw
    # rotate so index 0 is an in-leg (inner port is a sink)
    ins = [i for i, p in enumerate(order) if not is_source(p)]
    if not ins:
        raise ReductionError("region frontier has no in-leg")
    best = min(ins, key=lambda i: order[i])
    order = order[best:] + order[:best]
    if any((i % 2 == 0) == is_source(p) for i, p in enumerate(order)):
        raise ReductionError("region legs do not alternate")
    return [(p, diagram.partner(p)) for p in order]


def _region(anchors, crossings):
    """A region of a diagram: its anchor port codes in counterclockwise
    order, each code's anchor index, and the set of its crossing ids."""
    return anchors, {q: i for i, q in enumerate(anchors)}, crossings


def _strand(diagram, region, a):
    """The strand from anchor ``a`` of ``region``, as (a, end anchor,
    visits), read on ``diagram``'s partner array: it passes from slot s
    to s + 3 through the region's crossings until it meets an anchor;
    anything else is a leak out of the region."""
    anchors, index, inside = region
    m = 2 * diagram.n
    part = diagram.partners()
    visits = []
    q = part[anchors[a]]
    for _ in part:  # no strand is longer than the map
        if q in index:
            return a, index[q], tuple(visits)
        c, s = divmod(q - m, 6)
        if c not in inside:
            raise ReductionError("frontier strand leaks out of the region")
        visits.append((c, s))
        q = part[q + 3 if s < 3 else q - 3]
    raise ReductionError("strand from anchor %d never ends" % a)


def _read_strand(diagram, region, a, dirn):
    """(end anchor, visits, boundary-parallel along the dirn interval)
    of the strand from anchor ``a`` of ``region``.

    It is boundary-parallel when it makes k visits, k half the anchors
    strictly inside its interval, and visit j's hanging slots
    (``template_slots``) hold interior anchors 2j and 2j + 1.  The
    visits are then distinct: the partners of the strand's entries and
    exits are its own ports and end anchors, never interior ones, so a
    crossing met twice has only two slots left to hang four anchors."""
    anchors = region[0]
    m = 2 * diagram.n
    part = diagram.partners()
    _, b, visits = _strand(diagram, region, a)
    interior = interval_interior(len(anchors), a, b, dirn)
    k = len(interior) // 2
    return b, visits, (
        len(visits) == k
        and all(part[m + 6 * c + x] == anchors[interior[2 * j + h]]
                for j, (c, e) in enumerate(visits)
                for h, x in enumerate(template_slots(e, dirn)[:2])))


def _under_cross(diagram, region, a, dirn):
    """The crossings under the strand S at anchor ``a``, strictly between
    S and its dirn interval: flooded from the interval's interior anchors
    and S's under-side slots (module docstring)."""
    anchors = region[0]
    m = 2 * diagram.n
    part = diagram.partners()
    _, b, visits = _strand(diagram, region, a)
    todo = [part[anchors[i]] for i in interval_interior(len(anchors), a, b,
                                                        dirn)]
    todo += [part[m + 6 * c + x] for c, e in visits
             for x in template_slots(e, dirn)[:2]]
    return _flood(diagram, region, todo, set(c for c, _ in visits))


def _flood(diagram, region, todo, s_cross):
    """The region's crossings reached over partner codes from the codes
    ``todo``, through the region's crossings, never entering one of
    ``s_cross``."""
    inside = region[2]
    m = 2 * diagram.n
    part = diagram.partners()
    reached = set()
    while todo:
        c = (todo.pop() - m) // 6  # negative for an endpoint
        if c in inside and c not in s_cross and c not in reached:
            reached.add(c)
            todo.extend(part[m + 6 * c:m + 6 * c + 6])
    return reached


def _shared_crossings(s1, s2):
    return set(c for c, _ in s1[2]) & set(c for c, _ in s2[2])


# ----------------------------------------------------------------------
# breadth-first search over 2<->2 moves

def _search(diagram, goal, stuck, window=None):
    """Shortest 2<->2-only move sequence to a state meeting ``goal``.

    Takes only the moves whose two crossings lie in ``window`` (a set of
    crossing ids; None: all moves); raises ReductionError(stuck) when no
    state it reaches meets the goal.  The start state itself is never
    tested.  Each new state keeps its parent's code and the site of the
    move from there; ``Move`` records are built for the returned path
    only.
    """
    start = diagram.canonical_code()
    parent = {}  # canonical code -> (parent code, site there)
    for d, site, nd, new, _ in closure(diagram, window):
        if not new:
            continue
        key = nd.canonical_code()
        parent[key] = (d.canonical_code(), site)
        if len(parent) >= SEARCH_CAP:
            raise ReductionError("%s search exceeded %d states" % (
                "whole-diagram" if window is None else "window", SEARCH_CAP))
        if goal(nd):
            path = []
            while key != start:
                key, site = parent[key]
                path.append(Move('22', (site.x, site.y)))
            return path[::-1]
    raise ReductionError(stuck)


# ----------------------------------------------------------------------
# minimisation

def _minimise(diagram, log):
    """Reduce ``diagram`` to a minimal one by drops, 1->0 moves and the
    2<->2 moves that expose an empty monogon, recorded in the MoveLog
    ``log``."""
    while True:
        if diagram.loops:
            moves = [Move('drop', (min(diagram.loops),))]
        elif sites := find_10_sites(diagram):
            moves = [Move('10', (sites[0].crossing, sites[0].slot))]
        elif is_minimal(diagram):
            return diagram
        else:
            moves = _search(diagram, find_10_sites, "no empty monogon "
                            "within reach of a non-minimal diagram")
        diagram = log.record(diagram, moves)


# ----------------------------------------------------------------------
# straightening

def straighten(diagram, region, a, dirn, log, depth=0):
    """Make the strand at anchor ``a`` of ``region`` (``_region``) of a
    minimal diagram boundary-parallel along its dirn-side interval by
    2<->2 moves of the region's crossings, recorded in the MoveLog
    ``log``; returns the result.  The interval must be minimal for the
    region's matching."""
    if depth > 60:
        raise ReductionError("straightening recursion too deep")
    guard = 0
    while not _read_strand(diagram, region, a, dirn)[2]:
        guard += 1
        if guard > 300 + 60 * (len(region[2]) + 2):
            raise ReductionError("straightening stalled")
        dbl = _innermost_double(diagram, region, a, dirn)
        if dbl:
            diagram = _remove_double(diagram, region, a, dirn, dbl, log,
                                     depth)
        else:
            diagram = _comb(diagram, region, a, dirn, log)
    return diagram


def _under_pieces(diagram, region, a, dirn):
    """Each piece of a strand U between two consecutive crossings c1, c2
    with the strand S at anchor ``a`` that lies under S, toward S's
    interval, as ((crossings on the piece, S-crossings it spans), U, t1,
    t2, c1, c2); U's visits t1 and t2 are at c1 and c2.  The strands
    are those from the region's in-anchors, in order.

    The piece crosses S nowhere, so it lies wholly on one side of S:
    under S exactly when U leaves c1 by one of S's interval-side slots.
    """
    s_at = {c: (t, e) for t, (c, e) in enumerate(
        _strand(diagram, region, a)[2])}
    for start in range(0, len(region[0]), 2):
        if start == a:
            continue
        s = _strand(diagram, region, start)
        hits = [t for t, (c, _) in enumerate(s[2]) if c in s_at]
        for t1, t2 in zip(hits, hits[1:]):
            (c1, g), (c2, _) = s[2][t1], s[2][t2]
            (p1, e1), (p2, _) = s_at[c1], s_at[c2]
            # U enters c1 at g and leaves by g + 3; S entered it at e1
            if (g + 3 - e1) * dirn % 6 in (1, 2):
                yield (t2 - t1 - 1, abs(p1 - p2)), s, t1, t2, c1, c2


def _innermost_double(diagram, region, a, dirn):
    """The innermost under-piece, with the fewest crossings, then the
    fewest S-crossings spanned, as (U, t1, t2, c1, c2); None when no
    strand meets S twice with a piece under S between."""
    best = min(_under_pieces(diagram, region, a, dirn), key=lambda p: p[0],
               default=None)
    return None if best is None else best[1:]


def _remove_double(diagram, region, a, dirn, dbl, log, depth):
    s, t1, t2, c1, c2 = dbl
    if t2 > t1 + 1:
        # straighten the piece in its part of the region under S, along
        # dirn, the side that faces S: U runs against S (module docstring)
        s_cross = set(c for c, _ in _strand(diagram, region, a)[2])
        m = 2 * diagram.n
        sub = _flood(diagram, region, [m + 6 * c for c, _ in s[2][t1 + 1:t2]],
                     s_cross)
        legs = region_legs(diagram, sub)
        # the piece enters the sub-region at its first visit's entry slot
        a_idx = [inner for inner, _ in legs].index(('c',) + s[2][t1 + 1])
        sub = _region([port_code(diagram.n, outer) for _, outer in legs], sub)
        diagram = straighten(diagram, sub, a_idx, dirn, log, depth + 1)
    # window search: kill the double crossing
    s_main = _strand(diagram, region, a)
    u = _strand(diagram, region, s[0])
    before = len(_shared_crossings(s_main, u))
    window = set()
    for strand in (s_main, u):  # each one's crossings from c1 to c2
        seq = [c for c, _ in strand[2]]
        i1, i2 = sorted((seq.index(c1), seq.index(c2)))
        window.update(seq[i1:i2 + 1])

    def goal(d):
        return len(_shared_crossings(_strand(d, region, a),
                                     _strand(d, region, u[0]))) <= before - 2

    path = _search(diagram, goal, "double crossing is stuck", window)
    return log.record(diagram, path)


def _comb_potential(diagram, region, a, dirn):
    """(crossings under S, detours): the detour of an interior anchor of
    S's interval is the number of crossings its strand meets before S,
    walked over partner codes from the anchor."""
    anchors, _, inside = region
    m = 2 * diagram.n
    part = diagram.partners()
    _, b, visits = _strand(diagram, region, a)
    s_cross = set(c for c, _ in visits)
    detours = 0
    for e in interval_interior(len(anchors), a, b, dirn):
        q = part[anchors[e]]
        while (q - m) // 6 in inside and (q - m) // 6 not in s_cross:
            detours += 1
            # on through the crossing: slot s to slot s + 3
            q = part[q + 3 if (q - m) % 6 < 3 else q - 3]
    return (len(_under_cross(diagram, region, a, dirn)), detours)


def _comb(diagram, region, a, dirn, log):
    base = _comb_potential(diagram, region, a, dirn)

    def goal(d):
        return (not _innermost_double(d, region, a, dirn)
                and _comb_potential(d, region, a, dirn) < base)

    window = (set(c for c, _ in _strand(diagram, region, a)[2])
              | _under_cross(diagram, region, a, dirn))
    path = _search(diagram, goal, "combing is stuck", window)
    return log.record(diagram, path)


# ----------------------------------------------------------------------
# reduction to the standard diagram

def to_standard(diagram, strategy="inclusion"):
    """Reduce to the standard diagram of the trace, with a move log.

    The log contains only 2<->2, 1->0 and loop-dropping moves; on a
    minimal input it is 2<->2-only.  The result's canonical key equals
    that of the standard diagram of the trace under ``strategy``; one
    listing of ``lay_order`` builds that target and drives the strands'
    order.  The log's face indexes are read as the moves apply, and its
    end is the result, the input itself when no move is needed
    (``MoveLog``); ``replay`` and
    ``textio.read_movelog`` re-apply the moves independently.

    Each step reads its strand in place, in the region of the crossings
    not yet frozen, and straightens it there when it is not
    boundary-parallel along its scheduled interval (module docstring).
    """
    diagram.check()
    matching, _ = diagram.trace()
    schedule = list(lay_order(matching, strategy))
    target = lay_strands(matching, schedule)
    log = MoveLog(diagram)
    diagram = _minimise(diagram, log)
    n = diagram.n
    active = set(diagram.crossings)
    frontier = {i: ('b', i) for i in range(2 * n)}  # key -> port
    first = 0
    for a_key, b_key, dirn, interior in schedule:
        # anchor 0 must be an in-anchor: the first at or after the last
        # step's, in cyclic key order (the frontier's in-anchors are the
        # scheduled pairing's in-keys, so there is one)
        keys = sorted(frontier, key=lambda k: (k < first, k))
        t = [is_source(frontier[k]) for k in keys].index(True)
        keys = keys[t:] + keys[:t]
        first = keys[0]
        a_idx = keys.index(a_key)
        region = _region([port_code(n, frontier[k]) for k in keys], active)
        b_idx, visits, parallel = _read_strand(diagram, region, a_idx, dirn)
        if keys[b_idx] != b_key or not parallel:
            diagram = straighten(diagram, region, a_idx, dirn, log)
            b_idx, visits, parallel = _read_strand(diagram, region, a_idx,
                                                   dirn)
            if keys[b_idx] != b_key or not parallel:
                raise ReductionError("straightened strand is off its "
                                     "scheduled interval")
        freeze(frontier, interior, visits, dirn)
        del frontier[a_key], frontier[b_key]
        active.difference_update(c for c, _ in visits)
    if diagram.canonical_key() != target.canonical_key():
        raise ReductionError("reduction did not reach the standard diagram")
    return diagram, log


def reduce_to_minimal(diagram, strategy="inclusion"):
    """Reduce to a minimal diagram (the standard one) with a move log."""
    final, movelog = to_standard(diagram, strategy)
    assert is_minimal(final)
    return final, movelog


def connect_minimal(d1, d2, strategy="inclusion"):
    """A 2<->2-only log from d1 to d2 (both minimal, same matching),
    through the standard diagram that ``strategy`` lays."""
    if not is_minimal(d1) or not is_minimal(d2):
        raise MoveError("connect_minimal requires minimal diagrams")
    m1, _ = d1.trace()
    m2, _ = d2.trace()
    if m1 != m2:
        raise MoveError("matchings differ")
    s1, log1 = to_standard(d1, strategy)
    s2, log2 = to_standard(d2, strategy)
    assert all(mv.kind == '22' for mv in log1.moves + log2.moves)
    # Walk log2 backwards from s2 (module docstring).  ``at`` sends each
    # crossing of log2's state to (crossing of cur, slot offset); s2 and
    # s1 share a canonical form, which seeds it
    back = {cid: (c, ph) for c, (cid, ph) in s1.canonical_form()[1].items()}
    at = {}
    for c, (cid, ph) in s2.canonical_form()[1].items():
        c1, ph1 = back[cid]
        at[c] = (c1, ph1 - ph)

    def tr(dart):
        c, s = dart
        c1, off = at[c]
        return (c1, (s + off) % 6)

    cur = s1
    for mv in reversed(log2.moves):
        inv = Move('22', tuple(map(tr, mv.inverse().data)))
        cur = log1.record(cur, [inv])
        # the inverse's result is mv's start with X and Y swapped and turned
        (X, x1), (Y, y1) = mv.data[:2]
        (cx, ox), (cy, oy) = at[X], at[Y]
        at[X], at[Y] = (cy, oy + y1 - x1 + 2), (cx, ox + x1 - y1 + 2)
    if cur.canonical_key() != d2.canonical_key():
        raise ReductionError("connection missed the target")
    return log1


# ----------------------------------------------------------------------
# slide macros

def pattern_tilings(pattern, repeats):
    """The two tilings realizing a slide pattern with r central repeats.

    Each pattern is a pair of domino tilings of one region, so the two
    dual diagrams are connected by 2<->2 moves (the flip graph is
    connected).  'a' exchanges the vertical and horizontal weaves of a
    2-row strip (one slide per repeat), 'b' carries a weave defect
    across the strip, 'c' exchanges the horizontal and brick phases of
    a 3-row strip.
    """
    r = repeats
    if r < 1:
        raise ValueError("need at least one central repeat")
    if pattern == 'a':
        region = Region.rectangle(2 * r, 2)
        left = Tiling(region, [(x, 0, False) for x in range(2 * r)])
        right = Tiling(region, [(2 * i, y, True)
                                for i in range(r) for y in range(2)])
    elif pattern == 'b':
        region = Region.rectangle(r + 2, 2)
        left = Tiling(region, [(0, 0, True), (0, 1, True)]
                      + [(x, 0, False) for x in range(2, r + 2)])
        right = Tiling(region, [(r, 0, True), (r, 1, True)]
                       + [(x, 0, False) for x in range(r)])
    elif pattern == 'c':
        w = 2 * r + 2
        region = Region.rectangle(w, 3)
        left = Tiling(region, [(2 * i, y, True)
                               for i in range(w // 2) for y in range(3)])
        right = Tiling(region, [(x, 0, False) for x in range(w)]
                       + [(2 * i, 2, True) for i in range(w // 2)])
    else:
        raise ValueError("pattern must be 'a', 'b' or 'c'")
    return left, right


def pattern_template(pattern, repeats):
    """(left diagram, window ids in template order, right diagram)."""
    left, right = pattern_tilings(pattern, repeats)
    d_left = tiling_to_diagram(left)
    return d_left, list(d_left.crossings), tiling_to_diagram(right)


def match_window(diagram, template, window):
    """Phases making the window isomorphic to the template's crossings.

    ``window[i]`` is the diagram crossing playing template crossing i.
    Returns {template id: phase} such that every internal template edge
    ((i, s), (j, t)) appears in the diagram as
    ((window[i], s+phase[i]), (window[j], t+phase[j])).
    """
    if not set(window) <= set(diagram.crossings):
        raise MoveError("window does not match the pattern's left side")
    internal = []
    for c in template.crossings:
        for s in range(6):
            q = template.partner(('c', c, s))
            if q[0] == 'c' and ('c', c, s) < q:
                internal.append((('c', c, s), q))
    if not internal:
        raise MoveError("template has no internal edges")
    adj = {}
    for p, q in internal:
        adj.setdefault(p[1], []).append((p, q))
        adj.setdefault(q[1], []).append((q, p))
    for ph0 in (0, 2, 4):
        phases = {internal[0][0][1]: ph0}
        todo = [internal[0][0][1]]
        ok = True
        while todo and ok:
            i = todo.pop()
            for (p, q) in adj.get(i, ()):
                got = diagram.partner(
                    ('c', window[i], (p[2] + phases[i]) % 6))
                if got is None or got[0] != 'c' or got[1] != window[q[1]]:
                    ok = False
                    break
                ph = (got[2] - q[2]) % 6
                if ph % 2:
                    ok = False
                    break
                if q[1] in phases:
                    if phases[q[1]] != ph:
                        ok = False
                        break
                else:
                    phases[q[1]] = ph
                    todo.append(q[1])
        if ok and len(phases) == len(set(window)):
            return phases
    raise MoveError("window does not match the pattern's left side")


def slide_macro(diagram, pattern, window, repeats):
    """A 2<->2-only log turning the window into the pattern's right side.

    ``window`` lists the diagram crossings matching the pattern's left
    side (template order), with ``repeats`` central repeats.  The
    sequence is found by breadth-first search over 2<->2 moves confined
    to the template, then applied through the window, so it never
    touches outside crossings.
    """
    t_left, t_window, t_right = pattern_template(pattern, repeats)
    if len(window) != len(t_window):
        raise MoveError("window size does not fit the pattern")
    phases = match_window(diagram, t_left, window)
    target = t_right.canonical_key()

    def goal(d):
        return d.canonical_key() == target

    # the two sides differ, so the path is never empty
    path = _search(t_left, goal, "pattern sides are not 2<->2 connected")

    def tr(dart):
        c, s = dart
        return (window[c], (s + phases[c]) % 6)

    log = MoveLog(diagram)
    log.record(diagram, [Move('22', tuple(map(tr, mv.data))) for mv in path])
    return log


# ----------------------------------------------------------------------
# test inflation

def inflate(diagram, bumps, loops, shuffles, rng):
    """Grow a diagram by monogon insertions, free loops and 2<->2 noise.

    Returns (diagram, applied moves).  Used to exercise the reducer:
    reduce_to_minimal must undo exactly ``bumps`` crossings by 1->0
    moves and ``loops`` by drops.
    """
    moves = []
    cur = diagram
    for _ in range(bumps):
        _, faces, keys, names = cur.face_store()
        cands = []
        for key in keys:
            # its port darts (codes from 4n), in the face's order: one dart
            # per edge, as an edge with both sides on one face would be a
            # bridge, and every strand that crosses a cut crosses back
            darts = [names[d] for d in faces[key][0] if d >= 4 * cur.n]
            if len(darts) >= 2:
                cands.append(darts)
        if not cands:
            break
        darts = cands[rng.randrange(len(cands))]
        dp = darts[rng.randrange(len(darts))]
        dq = dp
        while dq == dp:
            dq = darts[rng.randrange(len(darts))]
        side = 'l' if is_source(dp) else 'r'
        mv = Move('01', (dp if is_source(dp) else cur.partner(dp),
                         dq if is_source(dq) else cur.partner(dq), side))
        cur = apply_move(cur, mv)
        moves.append(mv)
    for _ in range(loops):
        _, _, keys, names = cur.face_store()
        mv = Move('add', (names[keys[rng.randrange(len(keys))]],))
        cur = apply_move(cur, mv)
        moves.append(mv)
    for _ in range(shuffles):
        sites = find_22_sites(cur)
        if not sites:
            continue
        site = sites[rng.randrange(len(sites))]
        cur = apply_22(cur, site)
        moves.append(Move('22', (site.x, site.y)))
    cur.face_store()  # resolve the last carry, freeing its parent's store
    return cur, moves
