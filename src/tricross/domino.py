"""Grid regions, domino tilings, flips, and the dual triple diagram.

A domino becomes a hexagon by splitting its two long sides at their
midpoints; the dual replaces it with an "asterisk" of three strands
through one crossing, joining opposite hexagon sides.  Gluing shared
unit edges assembles the asterisks into a triple diagram whose boundary
endpoints are the region's boundary unit-edge midpoints, numbered
counterclockwise from the lexicographically smallest boundary edge.

Slot layouts are fixed by the checkerboard orientation rule.  Color the
grid vertices by parity of x+y and orient every strand counterclockwise
around the chosen white class; for a domino whose lower-left square is
(x, y) define pi = (x + y + white_parity) % 2.  Then (sides named from
the domino's own frame):

horizontal, pi = 0: slot0=R  slot1=TR slot2=TL slot3=L  slot4=BL slot5=BR
horizontal, pi = 1: slot0=TR slot1=TL slot2=L  slot3=BL slot4=BR slot5=R
vertical,   pi = 0: slot0=RU slot1=T  slot2=LU slot3=LL slot4=B  slot5=RL
vertical,   pi = 1: slot0=T  slot1=LU slot2=LL slot3=B  slot4=RL slot5=RU

Even slots are entries, matching the global orientation convention.
Each parity's layout is the other's turned by one slot, so switching
the white parity flips the parity of every slot: the builder reads the
white parity that makes boundary endpoint 0 an in-endpoint off that
endpoint's slot, builds once, and checks alternation rather than
assuming it.
"""

from .diagram import TripleDiagram
from .moves import apply_22, find_22_sites


class Region:
    """Finite set of unit squares keyed by their lower-left corner."""

    def __init__(self, squares):
        self.squares = frozenset((int(x), int(y)) for x, y in squares)

    @staticmethod
    def rectangle(w, h):
        return Region((x, y) for x in range(w) for y in range(h))

    def __len__(self):
        return len(self.squares)

    def is_simply_connected(self):
        """Connected squares and a single boundary walk."""
        if not self.squares:
            return False
        todo = [min(self.squares)]
        seen = set(todo)
        while todo:
            x, y = todo.pop()
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb in self.squares and nb not in seen:
                    seen.add(nb)
                    todo.append(nb)
        if seen != self.squares:
            return False
        return len(self._boundary_walks()) == 1

    def _boundary_walks(self):
        """Closed counterclockwise walks over the boundary unit edges, as
        (corner, corner) darts with the region on their left: each
        square's counterclockwise edges with no square beyond them."""
        darts = set()
        for x, y in self.squares:
            for dart, beyond in ((((x, y), (x + 1, y)), (x, y - 1)),
                                 (((x + 1, y), (x + 1, y + 1)), (x + 1, y)),
                                 (((x + 1, y + 1), (x, y + 1)), (x, y + 1)),
                                 (((x, y + 1), (x, y)), (x - 1, y))):
                if beyond not in self.squares:
                    darts.add(dart)
        succ = {}
        for a, b in darts:
            succ.setdefault(a, []).append((a, b))
        walks = []
        used = set()
        for dart in sorted(darts):
            if dart in used:
                continue
            walk = []
            cur = dart
            while cur not in used:
                used.add(cur)
                walk.append(cur)
                outs = succ[cur[1]]
                # at each corner there is exactly one outgoing dart for a
                # simply connected region; ambiguity means pinched corners
                nxt = [o for o in outs if o not in used]
                if not nxt:
                    break
                cur = min(nxt)
            walks.append(walk)
        return walks


class Tiling:
    """Partition of a region into dominoes ((x, y), horizontal flag)."""

    def __init__(self, region, dominoes):
        self.region = region
        self.dominoes = frozenset((int(x), int(y), bool(h))
                                  for x, y, h in dominoes)
        covered = []
        for x, y, h in self.dominoes:
            covered.append((x, y))
            covered.append((x + 1, y) if h else (x, y + 1))
        if sorted(covered) != sorted(region.squares):
            raise ValueError("not an exact cover of the region")

    def __eq__(self, other):
        return self.dominoes == other.dominoes

    def __hash__(self):
        return hash(self.dominoes)

    def __repr__(self):
        return "Tiling(%s)" % sorted(self.dominoes)


def enumerate_tilings(region, guard=36):
    """All tilings by backtracking on the smallest uncovered square; an
    empty region has nothing to tile and raises."""
    if not region.squares:
        raise ValueError("region is empty")
    if len(region) > guard:
        raise ValueError("region exceeds the %d-square guard" % guard)
    squares = region.squares
    out = []

    def rec(uncovered, acc):
        if not uncovered:
            out.append(Tiling(region, acc))
            return
        x, y = min(uncovered)
        if (x + 1, y) in uncovered:
            rec(uncovered - {(x, y), (x + 1, y)}, acc + [(x, y, True)])
        if (x, y + 1) in uncovered:
            rec(uncovered - {(x, y), (x, y + 1)}, acc + [(x, y, False)])

    rec(frozenset(squares), [])
    return out


def find_flips(tiling):
    """2x2 blocks covered by two parallel dominoes, as (x, y, horizontal)."""
    doms = tiling.dominoes
    sites = []
    for x, y, h in sorted(doms):
        if h and (x, y + 1, True) in doms:
            sites.append((x, y, True))
        if not h and (x + 1, y, False) in doms:
            sites.append((x, y, False))
    return sites


def apply_flip(tiling, site):
    x, y, h = site
    doms = set(tiling.dominoes)
    if h:
        want = {(x, y, True), (x, y + 1, True)}
        new = {(x, y, False), (x + 1, y, False)}
    else:
        want = {(x, y, False), (x + 1, y, False)}
        new = {(x, y, True), (x, y + 1, True)}
    if not want <= doms:
        raise ValueError("stale flip site")
    return Tiling(tiling.region, (doms - want) | new)


# ----------------------------------------------------------------------
# duality

_H_SLOTS = {0: ('R', 'TR', 'TL', 'L', 'BL', 'BR'),
            1: ('TR', 'TL', 'L', 'BL', 'BR', 'R')}
_V_SLOTS = {0: ('RU', 'T', 'LU', 'LL', 'B', 'RL'),
            1: ('T', 'LU', 'LL', 'B', 'RL', 'RU')}


def _domino_sides(x, y, h):
    """Map side name -> the unit edge (sorted corner pair) it lies on."""
    if h:
        return {'BL': ((x, y), (x + 1, y)), 'BR': ((x + 1, y), (x + 2, y)),
                'R': ((x + 2, y), (x + 2, y + 1)),
                'TR': ((x + 1, y + 1), (x + 2, y + 1)),
                'TL': ((x, y + 1), (x + 1, y + 1)),
                'L': ((x, y), (x, y + 1))}
    return {'B': ((x, y), (x + 1, y)), 'RL': ((x + 1, y), (x + 1, y + 1)),
            'RU': ((x + 1, y + 1), (x + 1, y + 2)),
            'T': ((x, y + 2), (x + 1, y + 2)),
            'LU': ((x, y + 1), (x, y + 2)), 'LL': ((x, y), (x, y + 1))}


def tiling_to_diagram(tiling):
    """Dual triple diagram of a tiling of a simply connected region.  The
    crossing id of each domino is its rank in ``sorted(tiling.dominoes)``.
    """
    region = tiling.region
    if not region.squares:
        raise ValueError("region is empty")
    if not region.is_simply_connected():
        raise ValueError("region must be simply connected")
    doms = sorted(tiling.dominoes)
    sides_at = {}  # unit edge -> list of (domino index, side name)
    for idx, (x, y, h) in enumerate(doms):
        for name, unit_edge in _domino_sides(x, y, h).items():
            sides_at.setdefault(unit_edge, []).append((idx, name))
    # endpoints in counterclockwise boundary order, starting from the
    # lexicographically smallest boundary unit edge
    ordered = [tuple(sorted(d)) for d in region._boundary_walks()[0]]
    start = ordered.index(min(ordered))
    ordered = ordered[start:] + ordered[:start]

    def slot(idx, name, white_parity):
        x, y, h = doms[idx]
        pi = (x + y + white_parity) % 2
        return (_H_SLOTS[pi] if h else _V_SLOTS[pi]).index(name)

    # the other white parity turns every domino's slots by one, flipping
    # each slot's parity: the one that makes endpoint 0 an in-endpoint
    white_parity = slot(*sides_at[ordered[0]][0], 0) % 2
    edges = []
    for ends in sides_at.values():
        if len(ends) == 2:
            (i1, s1), (i2, s2) = [(i, slot(i, name, white_parity))
                                  for i, name in ends]
            if s1 % 2 == s2 % 2:
                raise ValueError("orientation clash while gluing dominoes")
            edges.append((('c', i1, s1), ('c', i2, s2)))
    for i, unit_edge in enumerate(ordered):
        (idx, name), = sides_at[unit_edge]
        s = slot(idx, name, white_parity)
        # alternation: endpoint i is in exactly when the slot is even
        if (i % 2 == 0) != (s % 2 == 0):
            raise ValueError("no orientation makes endpoint 0 an "
                             "in-endpoint")
        edges.append((('b', i), ('c', idx, s)))
    return TripleDiagram.from_edge_list(len(ordered) // 2, range(len(doms)),
                                        edges).check()


def flips_commute_with_22(tiling, site):
    """Check flip-then-dualize equals dualize-then-2<->2, by canonical key:
    the 2<->2 move is the one whose central bigon lies between the two
    dominoes of the flip, whose crossing ids are their ranks
    (``tiling_to_diagram``)."""
    diagram = tiling_to_diagram(tiling)
    rank = {d: i for i, d in enumerate(sorted(tiling.dominoes))}
    x, y, h = site
    if h:
        pair = {rank[(x, y, True)], rank[(x, y + 1, True)]}
    else:
        pair = {rank[(x, y, False)], rank[(x + 1, y, False)]}
    sites = [s for s in find_22_sites(diagram) if {s.x[0], s.y[0]} == pair]
    if not sites:
        raise ValueError("no central bigon for that flip")
    via_move = apply_22(diagram, sites[0])
    via_flip = tiling_to_diagram(apply_flip(tiling, site))
    return via_move.canonical_key() == via_flip.canonical_key()
