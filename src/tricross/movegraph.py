"""The 2<->2 move graph on minimal diagrams, with a brute-force oracle.

``closure`` is the one breadth-first walk over 2<->2 moves, optionally
confined to a set of crossings.  ``enumerate_component`` consumes it to
close the standard diagram of a matching under 2<->2 moves, and keeps
the canonical keys in vertex order and each edge's face index, not the
diagrams; the reducer's window searches and slide macros consume it too.
Between diagrams keyed by int codes it takes each edge of the move graph
once, and knows each move it took at both ends: its target and the
crossing map onto the target's canonical form.  A 2<->2 move is an
involution, so the far end of a move taken skips the move back.  Two
moves at sites with no crossing in common rewrite disjoint ports, so
they commute, as domino flips on disjoint 2x2 blocks do: a move whose
square with a known move has its other three sides known is read off
that square, neither applied nor keyed.  A move is applied only when no
known square gives it, as for every move to a new state; on the domino
duals that is one move per state but the first.  A diagram keyed by its
text (free loops, floating parts) applies every move it takes.
``enumerate_connected_diagrams`` independently generates every connected
diagram with a given trace and crossing count by recursive disk
decomposition: the first boundary port of a sub-disk either closes to
another of its boundary ports (splitting the disk in two) or feeds a
fresh crossing whose remaining five legs join the working boundary.
Planarity is built in, every crossing hangs off the boundary circle,
and each diagram is emitted exactly once, so the fillings kept are the
diagrams, with no duplicate to remove.  Most fillings have the wrong
trace, so the walk tracks the strand pieces its joins make and asks the
wanted matching about each arc as soon as a join completes it; a wrong
arc cuts the whole subtree.  ``emit`` still traces every filling it
gets with ``trace_strands`` on its partner array, raises DiagramError
on a wrong trace (a walk fault), and builds, checks and keys the
diagram, handing it that array and those strands.  The generator
never consults the move system, so comparing the two sides genuinely
checks the claim that 2<->2 moves connect all minimal diagrams of a
matching.
"""

from dataclasses import dataclass

from .diagram import DiagramError, TripleDiagram, trace_strands
from .standard import standard_diagram, minimal_crossing_count
from .moves import apply_22, find_22_sites, scan_badgons

ORACLE_MAX_N = 4
ORACLE_MAX_CROSSINGS = 5


class GuardExceeded(ValueError):
    pass


@dataclass
class MoveGraph:
    root: str
    vertices: tuple  # canonical keys in vertex order, root first
    edges: dict      # frozenset((key1, key2)) -> site face index

    def size(self):
        return len(self.vertices)


def closure(diagram, inside=None):
    """Breadth-first walk of the 2<->2 moves reachable from ``diagram``.

    Yields (d, site, nd, new, vertex) for every move taken: the move at
    ``site`` takes ``d`` to the state numbered ``vertex`` (the start is
    0, the others are numbered as first met, the order they are expanded
    in), and ``new`` is true the first time that state appears.  ``nd`` is
    the move's result, or None for a move read off a commuting square; a
    move to a new state is always applied, and only new states are
    expanded.  With ``inside`` (a set of crossing ids), only moves whose
    two crossings are both in it are taken.  No ``Move`` record is built:
    the site names the move.

    Between diagrams keyed by int codes, the walk keeps for each vertex
    the moves known there, by canonical site (its two darts ``6 * id +
    slot`` in the canonical form, sorted): the target vertex, and the
    crossing map that takes the move's result on the canonical form onto
    the target's canonical form, ``6 * id + phase`` per canonical id
    (slot ``s`` goes to slot ``(s - phase) % 6`` of crossing ``id``).  An
    applied move reads its map off the walk labels of ``d`` and ``nd``.

    A 2<->2 move is an involution: the move at the centre it makes,
    ``(X, x1+4)`` and ``(Y, y1+4)`` for ``site``'s darts ``(X, x1)`` and
    ``(Y, y1)``, leads back to ``d`` with X and Y swapped and turned
    (``moves.py``, ``Move.inverse``).  So a move to a vertex not yet expanded
    records the move back at the far end, whose expansion skips every
    site it already knows; each edge is taken once, from the end
    expanded first.

    Moves at two sites with no crossing in common commute.  So when a
    vertex v knows a move ``s`` to u whose site is disjoint from a site
    ``t`` of v, u knows where ``t``'s image leads, say to w, and w knows
    where the image of the centre ``s`` made leads, say to z, then ``t``
    leads to z, with the map ``s``'s swap-and-turn undone, then v -> u
    -> w -> z.  Only a move that no known square gives is applied and
    keyed.  The ``new`` yields, their order and the first move seen
    between two vertices are those of a walk that applies every move.

    A diagram keyed by its text (free loops, floating parts) has no
    canonical walk label: the walk applies every move it takes and skips
    none.
    """
    code = diagram.canonical_code()
    seen = {code: 0}  # code -> vertex number
    keyed = isinstance(code, tuple)
    # by vertex number: canonical site -> (target vertex, crossing map)
    known = [{}]
    number = 0  # vertices are expanded in the order they are numbered
    frontier = [diagram]
    while frontier:
        nxt = []
        for d in frontier:
            edges = known[number]
            if keyed:
                label = d.walk_label()
                # (raw crossing, phase) by canonical id
                order = [(c, phase) for c, (_, phase) in label.items()]
            for site in find_22_sites(d):
                (X, x1), (Y, y1) = site.x, site.y
                if inside is not None and (X not in inside
                                           or Y not in inside):
                    continue
                found = None
                if keyed:
                    (cx, px), (cy, py) = label[X], label[Y]
                    a, b = 6 * cx + (x1 - px) % 6, 6 * cy + (y1 - py) % 6
                    t = (a, b) if a < b else (b, a)
                    if t in edges:
                        continue
                    found = _square(known, edges, t)
                if found is None:
                    nd = apply_22(d, site)
                    code = nd.canonical_code()
                    vertex = seen.get(code)
                    new = vertex is None
                    if new:
                        vertex = seen[code] = len(seen)
                        nxt.append(nd)
                        known.append({})
                    if keyed:
                        to = nd.walk_label()
                        cmap = tuple([6 * to[c][0] + (to[c][1] - phase) % 6
                                      for c, phase in order])
                else:
                    nd, new = None, False
                    vertex, cmap = found
                if keyed:
                    edges[t] = vertex, cmap
                    if vertex >= number:
                        back, bmap = _reversed(t, cmap)
                        known[vertex][back] = number, bmap
                yield d, site, nd, new, vertex
            number += 1
        frontier = nxt


def _reversed(t, cmap):
    """(canonical site, crossing map) at the target of the move at
    canonical site ``t`` with crossing map ``cmap``, of the move back:
    the image of the centre the move makes, and ``cmap`` inverted, then
    the swap-and-turn of ``t``."""
    (X, x1), (Y, y1) = divmod(t[0], 6), divmod(t[1], 6)
    f, g = cmap[X], cmap[Y]
    a = f - f % 6 + (x1 + 4 - f) % 6
    b = g - g % 6 + (y1 + 4 - g) % 6
    back = [0] * len(cmap)
    for i, e in enumerate(cmap):
        back[e // 6] = 6 * i + -e % 6
    # X and Y go to each other, turned (moves.py)
    back[f // 6] = 6 * Y + (x1 - y1 + 2 - f) % 6
    back[g // 6] = 6 * X + (y1 - x1 + 2 - g) % 6
    return (a, b) if a < b else (b, a), tuple(back)


def _square(known, edges, t):
    """(target vertex, crossing map) of the move at canonical site ``t``
    of a vertex whose known moves are ``edges``, read off a commuting
    square through a known move disjoint from ``t``; None when no known
    move closes one."""
    # a map entry f = 6 * id + phase sends dart 6 * i + slot to dart
    # f - f % 6 + (slot - phase) % 6; the phases of composed maps add up
    a, b = t
    mask = 1 << a // 6 | 1 << b // 6
    for s, (u, vu) in edges.items():
        c, d = s
        if (1 << c // 6 | 1 << d // 6) & mask:
            continue
        # t's image at u
        f, g = vu[a // 6], vu[b // 6]
        p = f - f % 6 + (a - f) % 6
        q = g - g % 6 + (b - g) % 6
        hit = known[u].get((p, q) if p < q else (q, p))
        if hit is None:
            continue
        w, uw = hit
        # the image at w of the centre s makes
        c, d = c - c % 6 + (c + 4) % 6, d - d % 6 + (d + 4) % 6
        f, g = vu[c // 6], vu[d // 6]
        c, d = f - f % 6 + (c - f) % 6, g - g % 6 + (d - g) % 6
        f, g = uw[c // 6], uw[d // 6]
        p = f - f % 6 + (c - f) % 6
        q = g - g % 6 + (d - g) % 6
        hit = known[w].get((p, q) if p < q else (q, p))
        if hit is None:
            continue
        z, wz = hit
        # s's swap-and-turn undone, then v -> u -> w -> z
        (X, x1), (Y, y1) = divmod(s[0], 6), divmod(s[1], 6)
        pre = list(range(0, 6 * len(vu), 6))
        pre[X], pre[Y] = 6 * Y + (x1 - y1 - 2) % 6, 6 * X + (y1 - x1 - 2) % 6
        return z, tuple([h - h % 6 + (p + e + f + h) % 6
                         for p in pre for e in (vu[p // 6],)
                         for f in (uw[e // 6],) for h in (wz[f // 6],)])
    return None


def enumerate_component(matching, strategy="inclusion"):
    """BFS closure of the standard diagram under 2<->2 moves, as keys in
    ``closure``'s vertex order; the key text is rendered for new vertices
    only."""
    root = standard_diagram(matching, strategy)
    keys = [root.canonical_key()]  # by vertex number
    edges = {}
    for d, site, nd, new, vertex in closure(root):
        if new:
            keys.append(nd.canonical_key())
        pair = frozenset((d.canonical_key(), keys[vertex]))
        if pair not in edges:
            edges[pair] = d.face_index(site.face_key)
    return MoveGraph(keys[0], tuple(keys), edges)


def walk_fillings(n, crossings, emit, want=None, arc=None):
    """Stream every planar filling of the disk to ``emit(pairs, ncross)``,
    ``pairs`` listing its edges as pairs of port codes (``diagram.py``).

    The recursion closes the first open boundary port against a later
    one (splitting the disk; both ports real) or feeds it into a fresh
    crossing whose other five legs join the working boundary.  Every
    crossing therefore hangs off the boundary circle and the result is
    planar and connected by construction.  ``want`` (a matching dict)
    prunes boundary-to-boundary chords early; with ``want`` alone the
    walk emits every such filling, which is the oracle benchmark's unit
    of work.

    The walk keeps one piece map: ``other[p]`` is the far end of the
    strand piece ending at open port ``p``.  An endpoint starts as its
    own piece, a fresh crossing as its three passes ``s <-> s + 3``, and
    each join links two pieces into one; a pop restores the two ends it
    changed.  When a join completes a piece whose two ends are both
    endpoints, ``arc(i, o)`` is asked with its in-endpoint ``i`` and
    out-endpoint ``o``, and a false answer cuts the subtree.  Every arc
    of a filling is completed by some join, so with ``arc`` the walk
    emits exactly the fillings whose arcs all pass it.
    """
    m = 2 * n
    pairs = []
    # every pop restores what its push changed, so the ports of a
    # crossing id hold its three passes whenever it is fed afresh
    other = list(range(m)) + [m + x + 3 if x % 6 < 3 else m + x - 3
                              for x in range(6 * crossings)]

    def run(items, next_id):
        # items: pending (sub-boundary, exact budget) regions
        while items and not items[0][0]:
            if items[0][1] != 0:
                return
            items = items[1:]
        if not items:
            emit(pairs, next_id)
            return
        boundary, budget = items[0]
        tail = items[1:]
        p0 = boundary[0]
        rest = boundary[1:]
        a = other[p0]
        for j in range(0, len(rest), 2):
            pj = rest[j]
            if p0 < m and pj < m and want is not None:
                i, o = (p0, pj) if p0 % 2 == 0 else (pj, p0)
                if want.get(i) != o:
                    continue
            b = other[pj]
            if arc is not None and a < m and b < m:
                i, o = (a, b) if a % 2 == 0 else (b, a)
                if not arc(i, o):
                    continue
            pairs.append((p0, pj))
            other[a], other[b] = b, a
            left, right = rest[:j], rest[j + 1:]
            for b1 in range(budget + 1):
                run(((left, b1), (right, budget - b1)) + tail, next_id)
            other[a], other[b] = p0, pj
            pairs.pop()
        if budget >= 1:
            # an entry (even slot) meets a source: even Bi, odd slot
            base = m + 6 * next_id
            s = 0 if (p0 < m) == (p0 % 2 == 0) else 1
            legs = tuple(base + (s + k) % 6 for k in (5, 4, 3, 2, 1))
            b = base + (s + 3) % 6
            pairs.append((p0, base + s))
            other[a], other[b] = b, a
            run(((legs + rest, budget - 1),) + tail, next_id + 1)
            other[a], other[b] = p0, base + s
            pairs.pop()

    try:
        run(((tuple(range(m)), crossings),), 0)
    finally:
        # ``run`` reaches itself through its closure; break that cycle so
        # that ``emit`` and all it holds are freed now, not at whichever
        # later full garbage collection happens to find them
        del run


def enumerate_connected_diagrams(matching, crossings):
    """All connected diagrams with the given trace and crossing count.

    Returns {canonical key: diagram}; a filling that fails validation is
    a generator fault and raises DiagramError.
    """
    n = matching.n
    want = matching.as_dict()
    results = {}

    def emit(pairs, ncross):
        partner = [-1] * (2 * n + 6 * ncross)
        for a, b in pairs:
            partner[a], partner[b] = b, a
        if len(partner) - partner.count(-1) != 2 * len(pairs):
            raise DiagramError("a filling names a port twice")
        crossings = range(ncross)
        strands = trace_strands(n, crossings, partner)
        for start, end, _ in strands[:n]:
            if want[start] != end:
                raise DiagramError("a filling traces B%d to B%d, not B%d"
                                   % (start, end, want[start]))
        d = TripleDiagram(n, crossings, None, partners=partner,
                          strands=strands)
        d.check()
        results.setdefault(d.canonical_key(), d)

    walk_fillings(n, crossings, emit, arc=lambda i, o: want.get(i) == o)
    return results


def brute_force_minimal(matching):
    """Canonical keys of all minimal diagrams with the given matching."""
    k = minimal_crossing_count(matching)
    if matching.n > ORACLE_MAX_N or k > ORACLE_MAX_CROSSINGS:
        raise GuardExceeded("oracle guard: n <= %d and count <= %d"
                            % (ORACLE_MAX_N, ORACLE_MAX_CROSSINGS))
    found = enumerate_connected_diagrams(matching, k)
    return {key for key, d in found.items()
            if not any(scan_badgons(d.strands()))}


def verify_theorem2(matching, strategy="inclusion"):
    """Compare the move-graph component against the brute-force oracle."""
    component = enumerate_component(matching, strategy)
    oracle = brute_force_minimal(matching)
    return {
        "component_size": component.size(),
        "oracle_size": len(oracle),
        "equal": set(component.vertices) == oracle,
    }
