"""The 2<->2 move graph on minimal diagrams, with a brute-force oracle.

``closure`` is the one breadth-first walk over 2<->2 moves, optionally
confined to a set of crossings.  ``enumerate_component`` consumes it to
close the standard diagram of a matching under 2<->2 moves; so do the
reducer's window searches and slide macros.  A 2<->2 move is an
involution, so the closure does not take the inverse of a move it took:
that move only leads back to a state already seen.  Between diagrams
keyed by int codes it takes each edge of the move graph once.
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
from .moves import find_22_sites, move_22, scan_badgons

ORACLE_MAX_N = 4
ORACLE_MAX_CROSSINGS = 5


class GuardExceeded(ValueError):
    pass


@dataclass
class MoveGraph:
    root: str
    vertices: dict   # canonical key -> TripleDiagram
    edges: dict      # frozenset((key1, key2)) -> site face index

    def size(self):
        return len(self.vertices)


def closure(diagram, inside=None):
    """Breadth-first walk of the 2<->2 moves reachable from ``diagram``.

    Yields (d, site, move, nd, new) for every move taken, where ``move``
    takes ``d`` at ``site`` to ``nd`` and ``new`` is true the first time
    ``nd``'s canonical code appears; only new states are expanded.  With
    ``inside`` (a set of crossing ids), only moves whose two crossings
    are both in it are taken.

    The inverse of a move taken is not taken again.  A 2<->2 move is an
    involution: the move at the site the template makes,
    ``move.data[2:]``, leads back to an isomorph of ``d``.  When ``nd``'s
    code is the int code, its walk label is the one isomorphism to the
    canonical form, so that site is recorded in canonical terms against
    the number of ``nd``'s vertex, and the expansion of that vertex skips
    it.  A skipped move would lead to a vertex already seen, so the
    ``new`` yields, their order and the first move seen between two
    vertices are those of a walk that takes every move; each edge of a
    graph of such diagrams is taken once, from the end expanded first.
    A diagram keyed by its text takes every move.
    """
    seen = {diagram.canonical_code(): 0}  # code -> vertex number
    # vertex number -> canonical sites of the moves its expansion skips,
    # kept until it is expanded
    skips = {}
    number = 0  # vertices are expanded in the order they are numbered
    frontier = [diagram]
    while frontier:
        nxt = []
        for d in frontier:
            skip = skips.setdefault(number, set())
            for site in find_22_sites(d):
                if inside is not None and (site.x[0] not in inside
                                           or site.y[0] not in inside):
                    continue
                if skip and _canonical_site(d, site.x, site.y) in skip:
                    continue
                nd, move = move_22(d, site)
                code = nd.canonical_code()
                vertex = seen.get(code)
                new = vertex is None
                if new:
                    vertex = seen[code] = len(seen)
                    nxt.append(nd)
                if vertex >= number and isinstance(code, tuple):
                    skips.setdefault(vertex, set()).add(
                        _canonical_site(nd, *move.data[2:]))
                yield d, site, move, nd, new
            del skips[number]
            number += 1
        frontier = nxt


def _canonical_site(d, x, y):
    """The 2<->2 site of darts ``x`` and ``y`` of ``d`` as its two darts in
    the canonical form, ``6 * id + slot``, sorted; ``d`` keyed by the int
    code."""
    label = d.walk_label()
    (cx, px), (cy, py) = label[x[0]], label[y[0]]
    a, b = 6 * cx + (x[1] - px) % 6, 6 * cy + (y[1] - py) % 6
    return (a, b) if a < b else (b, a)


def enumerate_component(matching, strategy="inclusion"):
    """BFS closure of the standard diagram under 2<->2 moves; the key text
    is rendered for new vertices only."""
    root = standard_diagram(matching, strategy)
    rk = root.canonical_key()
    vertices = {rk: root}
    key_of = {root.canonical_code(): rk}
    edges = {}
    for d, site, _, nd, new in closure(root):
        if new:
            key_of[nd.canonical_code()] = nd.canonical_key()
            vertices[nd.canonical_key()] = nd
        pair = frozenset((d.canonical_key(), key_of[nd.canonical_code()]))
        if pair not in edges:
            edges[pair] = d.face_index(site.face_key)
    return MoveGraph(rk, vertices, edges)


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
