"""Local moves on triple diagrams: 2<->2, 1->0, loop moves, badgons.

The 2<->2 template.  A site is an interior degree-2 face between two
distinct crossings X and Y; its two boundary darts are the crossing
ports (X, x1) and (Y, y1), so the face occupies the corner between
slots ``x1, x1+1`` at X and ``y1, y1+1`` at Y, and its two edges are
``{(X, x1), (Y, y1+1)}`` and ``{(Y, y1), (X, x1+1)}``.  The move keeps
both crossing ids and rewires

    (X, x1+4) -> (Y, y1)        (Y, y1+4) -> (X, x1)
    (X, x1+5) -> (Y, y1+1)      (Y, y1+5) -> (X, x1+1)

with slots ``x1+2, x1+3, y1+2, y1+3`` untouched and the new central
bigon spanning ``{(X, x1+4), (Y, y1+5)}`` and ``{(Y, y1+4), (X, x1+5)}``.
The eight external legs keep their cyclic order and their through
connectivity; the central face color is preserved.  This table is the
dart-level transcription of the domino flip on a 2x2 block.
``_joins_22`` reads it off the partner array as pairs of port codes
(``2n + 6X + s`` for ``(X, s)``), which ``_rewrite`` patches in.

The 1->0 splice joins the former edges at slots ``j+3``/``j+4`` and
``j+2``/``j+5`` of the deleted crossing (``j``/``j+1`` carried the empty
monogon edge); chains through the remaining slots are followed so that
self-edges collapse correctly, producing free loops when a closed
strand loses its last crossing.  The 0->1 move (``apply_01``) is its
inverse: it detours two edges of a face through a new crossing.

Every move is a local rewrite of the edge involution by one helper,
``_rewrite``: it copies the partner array, clears the ports of a
removed crossing and joins the given port pairs, so only the ports next
to the move change.  Those ports, each joined one and a removed
crossing's six, name the faces the move changes: the new diagram
carries its parent's face store and, on its first ``face_store()``,
traces only the parent faces that hold one of them again (with an
added crossing's ports); every other face keeps its orbit and key
(``diagram.py``).  Sites, the 2<->2 and 1->0 moves and the loop carry read
the store, not ``Face`` records.  The new 2<->2 site, the central bigon
with darts ``(X, x1+4)`` and ``(Y, y1+4)``, is read off the template; the
move there (``Move.inverse``) gives back the start with X and Y swapped
and turned, the rule ``reduce.connect_minimal`` walks back by.

Free loops are keyed by face.  A move that carries loops, or a 1->0
move that closes one, traces the new faces and places them by the
template: a face's loops follow its first dart that the move keeps
(2<->2 renames the carried legs by ``_renamed_22``, sends the centre's two
darts to the new centre's ``(X, x1+4)`` and drops the other two bigon
ports; 1->0 and 0->1 keep every port but the removed crossing's).  The
kept darts of an old face lie in one new face, except that 0->1 splits
the face it bumps into; its loops stay with its first dart.  1->0 merges
the faces at its corners ``j+2, j+3`` and ``j+4, j+5`` into its centre,
the new face of the old partner of slot ``j+3`` (of ``j+5`` when that is
the crossing's own).  The loops it closes go there, outside the edge
that closes them, and so do those of a face that keeps no dart.  A
floating part records no outer face, so a loop closed around one lands
on the centre, inside it, and a floating crossing removed whole leaves
its loops on the first face.  A 2<->2 move asked to (``rekey``) has its
face carry record the key of the face this rule sends each face it
traces again to; the cluster exchange, the one caller that asks,
carries its variables by it (``pop_rekeyed``).
"""

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

from .diagram import TripleDiagram, is_source, port_code, port_str


# the records made per site and per move are NamedTuples: cheaper to make
# than frozen dataclasses

class TwoTwoSite(NamedTuple):
    face_key: tuple
    x: tuple  # (crossing, x1)
    y: tuple  # (crossing, y1)


class OneZeroSite(NamedTuple):
    crossing: int
    slot: int  # monogon edge joins slots (slot, slot+1)


class LoopSite(NamedTuple):
    face_key: tuple


class Badgon(NamedTuple):
    kind: str       # 'monogon' | 'parallel-bigon' | 'simple-loop'
    detail: tuple


class MoveError(ValueError):
    """Stale or ill-formed move site."""


class Move(NamedTuple):
    kind: str    # '22' | '10' | '01' | 'drop' | 'add'
    data: tuple

    def inverse(self):
        if self.kind != '22':
            raise MoveError("no recorded inverse for %s" % self.kind)
        x, y, nx, ny = self.data
        return Move('22', (nx, ny, x, y))


@dataclass
class MoveLog:
    """Moves from the diagram with canonical key ``initial_key``, with what
    ``record`` reads as each applies: the canonical key after it, and the
    index of its face in the diagram it applies to (the site face of a
    ``22``, the loop's face of a ``drop`` or ``add``; None for ``10`` and
    ``01``).  ``textio.write_movelog`` names faces as recorded;
    ``replay`` and ``textio.read_movelog`` check a log independently."""
    initial_key: str
    moves: list = field(default_factory=list)   # Move
    keys: list = field(default_factory=list)    # canonical key after each
    faces: list = field(default_factory=list)   # face index before each

    def record(self, diagram, moves):
        """Apply ``moves`` to ``diagram`` in order and log each with its
        face index and the key of its result; returns the last result.
        Every producer of a log fills it through this one recorder."""
        for move in moves:
            if move.kind == '22':
                face = diagram.face_index(
                    diagram.face_key(('c',) + tuple(move.data[0])))
            elif move.kind == 'drop' or move.kind == 'add':
                face = diagram.face_index(move.data[0])
            else:
                face = None
            diagram = apply_move(diagram, move)
            self.moves.append(move)
            self.keys.append(diagram.canonical_key())
            self.faces.append(face)
        return diagram

    def counts(self):
        out = {}
        for mv in self.moves:
            out[mv.kind] = out.get(mv.kind, 0) + 1
        return out

    def __len__(self):
        return len(self.moves)


# ----------------------------------------------------------------------
# site discovery

def find_22_sites(diagram):
    """All interior degree-2 faces between two distinct crossings."""
    _, faces, keys, names = diagram.face_store()
    sites = []
    for key in keys:
        orbit, kind = faces[key]
        if kind < 4 and len(orbit) == 2:  # interior: crossing ports only
            (_, x, x1), (_, y, y1) = names[key], names[orbit[1]]
            if x != y:
                sites.append(TwoTwoSite(names[key], (x, x1), (y, y1)))
    return sites


def find_10_sites(diagram):
    """Empty monogons: a self-edge on consecutive slots, loop-free face."""
    _, faces, keys, names = diagram.face_store()
    return [OneZeroSite(*names[key][1:]) for key in keys
            if len(faces[key][0]) == 1 and not diagram.loops.get(names[key])]


# ----------------------------------------------------------------------
# the one rewrite behind every move, and the free loops it carries

def _rewrite(diagram, joins, removed=None, added=None, renamed=None):
    """A copy of ``diagram``, free loops left off, with the ports of
    crossing ``removed`` deleted and each port code pair of ``joins`` made
    an edge, in order; ``added`` names a new crossing.  The copy's
    partner array is the parent's, patched at the same ports, and those
    ports are the ones whose faces it traces again, recording their new
    keys when given the move's dart renaming ``renamed``."""
    n2 = 2 * diagram.n
    crossings = diagram.crossings
    partner = list(diagram.partners())
    touched = []
    if removed is not None:
        crossings = [c for c in crossings if c != removed]
        partner[n2 + 6 * removed:n2 + 6 * removed + 6] = [-1] * 6
        touched += range(n2 + 6 * removed, n2 + 6 * removed + 6)
    if added is not None:
        crossings += (added,)
        partner += [-1] * (n2 + 6 * added + 6 - len(partner))
    for a, b in joins:
        partner[a], partner[b] = b, a
        touched += (a, b)
    return TripleDiagram(diagram.n, crossings, None, partners=partner,
                         carry=(diagram, touched, renamed))


def _coded(n, joins):
    """The port pairs ``joins`` as pairs of port codes."""
    return [(port_code(n, p), port_code(n, q)) for p, q in joins]


def _carry_loops(old, new, renamed, centre=None, made=0):
    """``new`` with the free loops of ``old`` moved to their faces, and
    ``made`` new ones on face ``centre``."""
    loops = {centre: made} if made else {}
    for key, count in old.loops.items():
        nk = new.image_of(old.face_codes(key)[0], renamed, centre)
        loops[nk] = loops.get(nk, 0) + count
    return new.with_loops(loops)


# ----------------------------------------------------------------------
# the 2<->2 move

def _apply_22_full(diagram, site, rekey=False):
    """(new diagram, new site) by the local rewrite of the module docstring;
    with ``rekey``, the new diagram's carry records its faces' new keys."""
    _resolve_22(diagram, site)
    # only the rekeying record and the loop carry read the renaming
    renamed = (_renamed_22(diagram, site) if rekey or diagram.loops
               else None)
    new = _rewrite(diagram, _joins_22(diagram, site),
                   renamed=renamed if rekey else None)
    if diagram.loops:
        new = _carry_loops(diagram, new, renamed)
    (X, x1), (Y, y1) = site.x, site.y
    nx, ny = (X, (x1 + 4) % 6), (Y, (y1 + 4) % 6)
    return new, TwoTwoSite(('c',) + min(nx, ny), nx, ny)


def _joins_22(diagram, site):
    """The edges the 2<->2 move at ``site`` makes, as port code pairs read
    off the partner array: the four carried legs take over the old bigon
    ports (a leg whose partner is carried too follows it there), and the
    new central bigon."""
    (X, x1), (Y, y1) = site.x, site.y
    x, y = 2 * diagram.n + 6 * X, 2 * diagram.n + 6 * Y
    x4, x5 = x + (x1 + 4) % 6, x + (x1 + 5) % 6
    y4, y5 = y + (y1 + 4) % 6, y + (y1 + 5) % 6
    moved = {x4: y + y1, x5: y + (y1 + 1) % 6,
             y4: x + x1, y5: x + (x1 + 1) % 6}
    far = diagram.partners()
    return ([(to, moved.get(far[a], far[a])) for a, to in moved.items()]
            + [(x4, y5), (y4, x5)])


def _renamed_22(diagram, site):
    """Old dart -> new dart across the 2<->2 move at ``site``, as dart
    codes (``4n`` plus the port code): the four carried legs, the
    centre's darts sent to the new centre's, the other bigon ports None."""
    (X, x1), (Y, y1) = site.x, site.y
    x, y = 6 * diagram.n + 6 * X, 6 * diagram.n + 6 * Y
    centre = x + (x1 + 4) % 6
    return {centre: y + y1, x + (x1 + 5) % 6: y + (y1 + 1) % 6,
            y + (y1 + 4) % 6: x + x1, y + (y1 + 5) % 6: x + (x1 + 1) % 6,
            x + x1: centre, y + y1: centre,
            x + (x1 + 1) % 6: None, y + (y1 + 1) % 6: None}


def _resolve_22(diagram, site):
    """Raise MoveError unless ``site`` is a 2<->2 site of ``diagram``."""
    try:
        orbit = diagram.face_codes(site.face_key)[0]
    except KeyError:
        raise MoveError("stale 2<->2 site: face gone")
    darts = list(map(diagram.face_store()[3].__getitem__, orbit))
    # two crossing ports: the face is interior
    if len(darts) != 2 or set(darts) != {('c',) + site.x, ('c',) + site.y}:
        raise MoveError("stale 2<->2 site: face changed")
    if site.x[0] == site.y[0]:
        raise MoveError("2<->2 site needs two distinct crossings")


def apply_22(diagram, site, rekey=False):
    """Apply the 2<->2 move; crossing count and trace are preserved.  With
    ``rekey``, the result records the new key of each face the move
    changes, for ``pop_rekeyed``."""
    return _apply_22_full(diagram, site, rekey)[0]


def move_22(diagram, site):
    """(new diagram, Move record with forward and inverse site darts)."""
    new, new_site = _apply_22_full(diagram, site)
    mv = Move('22', (site.x, site.y, new_site.x, new_site.y))
    return new, mv


def resolve_22_by_darts(diagram, x, y):
    """Rebuild a TwoTwoSite from its two corner darts, checking freshness."""
    site = TwoTwoSite(diagram.face_key(('c',) + tuple(x)), tuple(x), tuple(y))
    _resolve_22(diagram, site)
    return site


# ----------------------------------------------------------------------
# the 1->0 move and its inverse

def apply_10(diagram, site):
    """Delete the crossing under an empty monogon; splices j+3<->j+4, j+2<->j+5."""
    c, j = site.crossing, site.slot
    if (c not in diagram.crossings or j not in range(6)
            or diagram.partner(('c', c, j)) != ('c', c, (j + 1) % 6)):
        raise MoveError("stale 1->0 site: no monogon edge")
    key = diagram.face_key(('c', c, j))
    if len(diagram.face_codes(key)[0]) != 1:
        raise MoveError("stale 1->0 site: monogon not empty")
    if diagram.loops.get(key):
        raise MoveError("1->0 site carries free loops")

    through = {}
    for a, b in ((j + 2, j + 5), (j + 3, j + 4)):
        through[a % 6], through[b % 6] = b % 6, a % 6
    # a chain of passes and self-edges from an outer end becomes one
    # edge; the chains left close into free loops
    joins, loops_made, left = [], 0, set(through)
    legs = [diagram.partner(('c', c, s)) for s in range(6)]
    outer = [s for s in through if legs[s][:2] != ('c', c)]
    for s in outer + list(through):
        start = legs[s]
        while s in left:
            left -= {s, through[s]}
            far = legs[through[s]]
            if far[:2] != ('c', c):
                joins.append((start, far))
            elif far[2] not in left:
                loops_made += 1
            else:
                s = far[2]
    new = _rewrite(diagram, _coded(diagram.n, joins), removed=c)
    if diagram.loops or loops_made:
        kept = [q for q in (legs[(j + 3) % 6], legs[(j + 5) % 6])
                if q[:2] != ('c', c)]
        if kept:
            centre = new.face_key(kept[0])
        else:  # the first face
            _, _, keys, names = new.face_store()
            centre = names[keys[0]]
        x = 6 * diagram.n + 6 * c  # the dart code of C<c>.0
        new = _carry_loops(diagram, new, dict.fromkeys(range(x, x + 6)),
                           centre, loops_made)
    return new


# ----------------------------------------------------------------------
# monogon insertion (0->1), the test-inflation inverse of 1->0

def apply_01(diagram, edge_p, edge_q, side):
    """Insert an empty monogon: bump ``edge_p`` across ``edge_q``.

    ``edge_p``/``edge_q`` are ports identifying two distinct edges that
    border a common face; ``side`` is 'l' or 'r', the side of ``edge_p``
    (relative to its travel direction) on which that face lies.  The
    strand through ``edge_p`` acquires a self-intersection at a fresh
    crossing; the matching is unchanged.  A port outside the diagram,
    or another ``side``, raises MoveError.
    """
    if side not in ('l', 'r'):
        raise MoveError("side %r is not l or r" % (side,))
    for port in (edge_p, edge_q):
        if not diagram.has_port(port):
            raise MoveError("port %s out of range" % port_str(port))
    a_src = edge_p if is_source(edge_p) else diagram.partner(edge_p)
    c_src = edge_q if is_source(edge_q) else diagram.partner(edge_q)
    if a_src == c_src:
        raise MoveError("monogon insertion needs two distinct edges")
    b_dst = diagram.partner(a_src)
    d_dst = diagram.partner(c_src)
    key = diagram.face_key(a_src if side == 'l' else b_dst)
    if key not in (diagram.face_key(c_src), diagram.face_key(d_dst)):
        raise MoveError("edges do not share the chosen face")
    c = max(diagram.crossings, default=-1) + 1
    if diagram.face_codes(key)[1] & 2:  # black
        # petal edge on slots (0, 1)
        joins = [(a_src, ('c', c, 4)), (('c', c, 3), b_dst),
                 (('c', c, 1), ('c', c, 0)),
                 (c_src, ('c', c, 2)), (('c', c, 5), d_dst)]
    else:
        # petal edge on slots (1, 2)
        joins = [(a_src, ('c', c, 4)), (('c', c, 5), b_dst),
                 (('c', c, 1), ('c', c, 2)),
                 (c_src, ('c', c, 0)), (('c', c, 3), d_dst)]
    new = _rewrite(diagram, _coded(diagram.n, joins), added=c)
    if diagram.loops:
        new = _carry_loops(diagram, new, {})
    return new


# ----------------------------------------------------------------------
# loop moves

def drop_loop(diagram, site):
    if not diagram.loops.get(site.face_key):
        raise MoveError("no free loop at that face")
    loops = dict(diagram.loops)
    loops[site.face_key] -= 1
    if not loops[site.face_key]:
        del loops[site.face_key]
    return diagram.with_loops(loops)


def add_loop(diagram, face_key):
    diagram.face_codes(face_key)  # raises KeyError when stale
    loops = dict(diagram.loops)
    loops[face_key] = loops.get(face_key, 0) + 1
    return diagram.with_loops(loops)


# ----------------------------------------------------------------------
# badgons and minimality

def scan_badgons(strands):
    """The monogons, then the parallel bigons, of ``strands`` (as
    ``trace_strands`` returns them) in ``find_badgons`` order, lazily: ``any``
    stops at the first.  The one badgon scan of library, oracle and tests."""
    for idx, (_, _, seq) in enumerate(strands):
        last = dict(seq)  # by crossing, the slot of its last visit
        if len(last) < len(seq):  # a crossing met twice
            first = dict(reversed(seq))
            for c in sorted(last):
                if first[c] != last[c]:
                    yield Badgon('monogon', (idx, c))
    visits = []  # per strand: (closed, first visit, last visit) by crossing
    for start, _, seq in strands:
        last = {c: t for t, (c, _) in enumerate(seq)}
        first = last if len(last) == len(seq) else {
            c: t for t, (c, _) in reversed(list(enumerate(seq)))}
        visits.append((start is None, first, last))

    def forward(k, x, y):
        # a subpath of strand k runs from crossing x to crossing y
        closed, first, last = visits[k]
        return closed or last[y] > first[x]

    for i, j in combinations(range(len(strands)), 2):
        shared = visits[i][1].keys() & visits[j][1].keys()
        if len(shared) > 1:
            for x, y in combinations(sorted(shared), 2):
                if ((forward(i, x, y) and forward(j, x, y))
                        or (forward(i, y, x) and forward(j, y, x))):
                    yield Badgon('parallel-bigon', (i, j, x, y))


def find_badgons(diagram):
    """Every badgon: ``scan_badgons`` on the strands, then the free loops."""
    return list(scan_badgons(diagram.strands())) + [
        Badgon('simple-loop', (key, diagram.loops[key]))
        for key in sorted(diagram.loops)]


def is_minimal(diagram):
    """Badgon-free and connected: by the paper's minimality theorem,
    fewest crossings for the matching, as criterion 3 checks on every
    filling.  Badgons first: the endpoint walk runs only without them."""
    return (not diagram.loops and not any(scan_badgons(diagram.strands()))
            and diagram.is_connected())


# ----------------------------------------------------------------------
# generic replay

def apply_move(diagram, move):
    if move.kind == '22':
        site = resolve_22_by_darts(diagram, move.data[0], move.data[1])
        return apply_22(diagram, site)
    if move.kind == '10':
        return apply_10(diagram, OneZeroSite(*move.data))
    if move.kind == '01':
        return apply_01(diagram, *move.data)
    if move.kind == 'drop':
        return drop_loop(diagram, LoopSite(move.data[0]))
    if move.kind == 'add':
        return add_loop(diagram, move.data[0])
    raise MoveError("unknown move kind %r" % move.kind)


def replay(diagram, log):
    """Replay a MoveLog, checking every recorded canonical key."""
    if diagram.canonical_key() != log.initial_key:
        raise MoveError("log does not start at this diagram")
    cur = diagram
    for mv, key in zip(log.moves, log.keys):
        cur = apply_move(cur, mv)
        if cur.canonical_key() != key:
            raise MoveError("replay diverged at %s move" % mv.kind)
    return cur

