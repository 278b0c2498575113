"""Core data model for oriented triple-crossing diagrams in a disk.

Conventions (global, used by every other module):

* The disk boundary carries ``2n`` endpoints numbered counterclockwise
  ``0 .. 2n-1``.  Even endpoints are *in* (a strand enters the disk
  there), odd endpoints are *out*.

* A crossing has six slots in counterclockwise cyclic order.  Even
  slots are strand entries, odd slots are strand exits.  A strand
  entering at slot ``s`` leaves at slot ``(s + 3) % 6``.

* Ports are tuples: ``('b', i)`` for boundary endpoint ``i`` and
  ``('c', c, s)`` for slot ``s`` of crossing ``c``.  Every edge joins a
  source port (even boundary endpoint, or odd slot) to a sink port.

* A diagram stores its edges only as a flat int partner array,
  ``partners()``: port ``Bi`` has code ``i``, ``C<c>.<s>`` code ``2n + 6c
  + s`` (raw ids), a code with no port or no partner holds -1.
  ``partner(port)`` reads it by port tuple; ``edges`` (each port to its
  partner, both ways) and ``edge_list()`` are built from it on demand.
  A move patches a copy of its parent's array.

* Faces are computed from the rotation system.  Darts are ports plus,
  for ``n > 0``, the boundary-arc darts ``('+', i)`` (arc from endpoint
  ``i`` toward ``i+1``) and ``('-', i)`` (arc from ``i`` toward
  ``i-1``).  The face to the left of a dart is traced by
  ``phi(d) = sigma_inv(alpha(d))`` where ``sigma_inv`` rotates one step
  clockwise around the dart's vertex.  Interior faces of the disk are
  exactly the orbits other than the outer orbit (the one made of all
  ``('-', i)`` darts; ``phi(('-', i)) = ('-', i - 1)`` in every diagram).

* A face is white when every strand dart on its boundary runs in the
  strand's travel direction (counterclockwise around the face), black
  when every strand dart runs against it.

* Dart codes put ``('+', i)`` at ``i``, ``('-', i)`` at ``2n + i`` and a
  port at ``4n`` plus its code, so int order is tuple order.

* A diagram holds its faces in one store on dart codes, ``face_store()``,
  which the library reads (with ``face_key``, ``face_codes`` and
  ``face_index``): by dart, its face's key code (the face's least dart; -1
  for the outer face), and by key, the face's orbit from it and its kind
  bits (color and boundary), with the keys in order, a face's index being
  its rank.  The empty disk's one face has no dart: its store alone holds
  it, as key code -1 named ``()``.  A move result carries its parent's
  store, lazily: it holds the store and the codes of the ports whose
  partner the move changed (each joined port and a removed crossing's
  six), never the parent diagram.  Its first ``face_store()`` copies the
  table, drops the parent faces that hold a touched port and traces phi
  again only through the touched ports still in the map; a full trace is
  that carry from no face, through every port, and what a result gets from
  a parent whose store is not made yet.  The store records no rekeying:
  which old face becomes which new one is the ``moves`` module's rule.
  The store is the one routine that colors faces; ``validate`` colors
  none.  A map whose every edge joins a source to a sink is checkerboard:
  phi takes a source dart to a source dart and a sink dart to a sink
  dart, at a crossing (the slot before an even slot is odd, the one
  before an odd slot even) and across a boundary arc (sink ``Bj``, ``j``
  odd, leads through ``('+', j)`` to source ``B(j+1)``), so each face has
  one color.  The store still raises on a face of both colors, for a map
  no one validated.  ``Face`` records are the view of the store that
  ``render --faces`` and the tests read, built by ``_record``:
  ``faces()`` builds them all once and keeps them, and ``face_of`` and
  ``face_by_key`` build the one asked for.

* One breadth-first walk, ``_walk``, labels the crossings reachable from
  the endpoints, or from one root crossing at an even phase, ``(id,
  phase)`` in the order met.  It codes each edge once, at its smaller
  end, as ``a * width + b`` (``width = 2n + 6k``) from the canonical port
  codes ``i`` for ``Bi`` and ``2n + 6*id + (s - phase) % 6`` for slot
  ``s``; ends are met in increasing order, so the codes come out sorted,
  as their text sorts.  The canonical key renders the endpoint walk's
  codes, each edge's text twice (once per end), joined from texts kept
  per ``(n, width)`` and bounded as ``_tables`` is (``_edge_texts``);
  ``canonical_code`` is those codes, for a connected diagram with no
  free loop.  A floating component is walked from every root and phase,
  its text sorted (``C10.0`` before ``C2.0``); the least wins, ties to
  the first root.  ``is_connected`` asks whether the endpoint walk
  labels every crossing; ``validate`` counts V, E and F per walked
  component, E from the labels alone, F the phi-orbits (all of them
  when the endpoint walk labels every crossing).  These callers share
  one endpoint walk per diagram, dropped once the key text is rendered;
  ``walk_label`` reads its label, from the canonical form after that.

* ``validate`` checks the pairing as whole lists: each port's partner's
  partner against the port codes, and each partner's side (source or
  sink, a ``_tables`` table) against the side the port needs, which
  also refuses a fixed point.  Only when a comparison fails does it
  walk the ports, to word the violations in port order.

* One kernel, ``trace_strands``, traces the strands of a partner array,
  for ``TripleDiagram.strands`` (which caches it), the oracle's fillings
  and the tests.  A strand is an immutable ``(start, end, visits)``:
  in- and out-endpoint for an arc, both None for a closed strand, and
  its ``(crossing, entry slot)`` visits in order.  Its edge path is not
  stored: ``strand_path`` derives it from the visits, since a strand
  leaves visit ``(c, s)`` by slot ``(s + 3) % 6``.

Diagrams are immutable values by convention: all operations build new
instances.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple


class DiagramError(ValueError):
    """Raised for structurally broken inputs (corrupted involutions)."""


def is_source(port):
    """True when a strand leaves the disk boundary / crossing at this port."""
    if port[0] == 'b':
        return port[1] % 2 == 0
    return port[2] % 2 == 1


def port_str(port):
    if port[0] == 'b':
        return "B%d" % port[1]
    return "C%d.%d" % (port[1], port[2])


def port_code(n, port):
    """The code of ``port`` in the partner array of a diagram with ``n``
    endpoint pairs: ``i`` for ``Bi``, ``2n + 6c + s`` for ``C<c>.<s>``."""
    return port[1] if port[0] == 'b' else 2 * n + 6 * port[1] + port[2]


@lru_cache(maxsize=256)
def _tables(n, size):
    """For a partner array of ``size`` slots: by dart code, the dart tuples
    and their kinds (1 a source port, 2 a sink port, plus 4 on the
    boundary circle); by port code, the port texts; at row
    ``3 * c + phase // 2``, crossing ``c``'s port codes in walk order;
    phi on the arc darts, and by partner code (-1 last) the dart phi
    sends a port to; by partner code (-1 last, None), the port tuples;
    the code of each port tuple, and of each dart tuple; by port code,
    its side (1 a source, 2 a sink) and the side its partner must have."""
    m = 2 * n
    k = (size - m) // 6
    texts = (["B%d" % i for i in range(m)]
             + ["C%d.%d" % (c, s) for c in range(k) for s in range(6)])
    names = tuple([('+', i) for i in range(m)] + [('-', i) for i in range(m)]
                  + [parse_port(t) for t in texts])
    # ('+', i) -> ('b', i + 1), ('-', i) -> ('-', i - 1), and a port ->
    # ('+', j) when its partner is Bj, else the slot before its partner
    arcs = tuple([2 * m + (i + 1) % m for i in range(m)]
                 + [m + (i - 1) % m for i in range(m)])
    after = tuple(list(range(m))
                  + [2 * m + (q - 1 if (q - m) % 6 else q + 5)
                     for q in range(m, size)] + [-1])
    ports = names[2 * m:]
    return (names, tuple([4] * 2 * m + [5, 6] * n + [2, 1] * 3 * k),
            tuple(texts),
            tuple(tuple(m + 6 * c + (p + t) % 6 for t in range(6))
                  for c in range(k) for p in (0, 2, 4)),
            arcs, after, ports + (None,),
            {p: a for a, p in enumerate(ports)},
            {d: a for a, d in enumerate(names)},
            (1, 2) * n + (2, 1) * 3 * k, (2, 1) * n + (1, 2) * 3 * k)


class _EdgeTexts(dict):
    """By edge code ``a * width + b``, the edge's text twice, ``a-b;a-b``,
    each made on first read: the key lists each edge once per end."""

    def __init__(self, n, width):
        super().__init__()
        self.width = width
        self.text = _tables(n, width)[2]

    def __missing__(self, code):
        a, b = divmod(code, self.width)
        edge = self.text[a] + "-" + self.text[b]
        self[code] = edge = edge + ";" + edge
        return edge


@lru_cache(maxsize=256)
def _edge_texts(n, width):
    """The ``_EdgeTexts`` of the canonical port codes of a diagram with
    ``n`` endpoint pairs and ``(width - 2n) / 6`` crossings."""
    return _EdgeTexts(n, width)


def parse_port(text):
    if text.startswith("B"):
        return ('b', int(text[1:]))
    if text.startswith("C"):
        c, s = text[1:].split(".")
        return ('c', int(c), int(s))
    raise ValueError("bad port %r" % text)


def trace_strands(n, crossings, partner):
    """Every strand of the partner array ``partner``, traced once.

    Returns a tuple of ``(start, end, visits)``: first the arc from each
    in-endpoint ``start`` to its out-endpoint ``end``, in order of
    ``start``; then each closed strand (``start`` and ``end`` None), from
    its least exit port, so ``crossings`` must be increasing.  ``visits``
    lists the strand's ``(crossing, entry slot)`` pairs in order.

    No walk takes more steps than the map has edges, so a corrupt map
    cannot hang the trace.  It raises DiagramError on a strand that never
    exits, a closed strand that reaches the boundary, a port paired with
    nothing, and a port walked twice: two arcs ending at one endpoint, an
    arc ending at an in-endpoint, or strands that do not enter each even
    slot of each crossing exactly once.
    """
    m = 2 * n
    steps = range(n + 3 * len(crossings))  # the map's edges
    out = []
    # by code, the ports walked into; an arc's ``start`` reads the last
    entered = bytearray(len(partner) + 1)
    ends = set()
    walked = 0
    # p: the port walked from, q: its partner, the port walked into.  A
    # closed strand leaves each exit whose entry no strand took yet
    for p0 in chain(range(0, m, 2), [m + 6 * c + x for c in crossings
                                     for x in (1, 3, 5)]):
        start = -1 if p0 < m else p0 + 3 if (p0 - m) % 6 < 3 else p0 - 3
        if entered[start]:
            continue
        visits = []
        p = p0
        for _ in steps:
            q = partner[p]
            if q < m or q == start:
                break
            c, s = divmod(q - m, 6)
            visits.append((c, s))
            entered[q] = 1
            p = q + 3 if s < 3 else q - 3
        else:
            raise DiagramError("strand from endpoint %d never exits" % p0
                               if p0 < m else "closed trace from C%d.%d "
                               "never closes" % divmod(p0 - m, 6))
        if q < 0:
            raise DiagramError("trace meets port %s, paired with nothing"
                               % (_tables(n, len(partner))[6][p],))
        if start >= 0:
            if q < m:
                raise DiagramError("closed trace leaked to the boundary")
            visits.append(divmod(q - m, 6))
            entered[q] = 1
            out.append((None, None, tuple(visits)))
        elif q % 2 == 0 or q in ends:
            raise DiagramError("trace revisits port B%d" % q)
        else:
            ends.add(q)
            out.append((p0, q, tuple(visits)))
        walked += len(visits)
    if not walked == entered.count(1) == 3 * len(crossings):
        raise DiagramError("trace revisits a port")
    return tuple(out)


def strand_path(strand):
    """The edges ``strand`` traverses, as (source, sink) port pairs in
    order.  Edge ``t`` enters visit ``t``; an arc's last edge reaches its
    out-endpoint, and a closed strand's first edge leaves its last visit.
    """
    start, end, visits = strand
    entries = [('c', c, s) for c, s in visits]
    exits = [('c', c, (s + 3) % 6) for c, s in visits]
    if start is None:
        return tuple(zip(exits[-1:] + exits[:-1], entries))
    return tuple(zip([('b', start)] + exits, entries + [('b', end)]))


@dataclass(frozen=True)
class Matching:
    """Bijection from in-endpoints (even) to out-endpoints (odd)."""

    n: int
    pairs: tuple  # sorted tuple of (in, out)

    @staticmethod
    def from_dict(n, mapping):
        if sorted(mapping) != [2 * i for i in range(n)]:
            raise ValueError("matching domain must be the %d even indices" % n)
        if sorted(mapping.values()) != [2 * i + 1 for i in range(n)]:
            raise ValueError("matching codomain must be the %d odd indices" % n)
        return Matching(n, tuple(sorted(mapping.items())))

    def as_dict(self):
        return dict(self.pairs)


class Face(NamedTuple):
    """A complementary region: its boundary darts, color and boundary flag.

    ``darts`` is the left-face orbit in traversal order, rotated to start
    at the minimal dart; each dart is one (edge, side) incidence.  A
    record is a view of one face of the face store (``faces()``); it is
    a tuple of its five fields in this order (a NamedTuple): it compares,
    hashes and unpacks as that tuple.
    """

    index: int
    darts: tuple
    color: str          # 'white' | 'black'
    boundary: bool
    key: tuple          # minimal dart; () for the empty disk's face


class TripleDiagram:
    """Planar combinatorial map of 6-valent crossings with boundary endpoints."""

    def __init__(self, n, crossings, edges, loops=None, *, strands=None,
                 partners=None, carry=None):
        self.n = n
        self.crossings = tuple(sorted(crossings))
        # free crossing-free loops, keyed by the containing face's key dart
        self.loops = dict(loops) if loops else {}
        # ``edges`` maps ports to ports; a caller with the partner array
        # passes it instead, with ``strands``, its trace, if it has them
        self._cache = {} if strands is None else {'strands': strands}
        self._partner = self._array(edges) if partners is None else partners
        self._ports = _tables(n, len(self._partner))[6]
        # ``carry``: (parent, codes of the ports whose partner differs
        # from the parent's), from a move.  Only the parent's store is
        # kept with those codes, never the parent nor a pending carry
        if carry is not None and 'store' in carry[0]._cache:
            self._cache['carry'] = carry[0]._cache['store'], carry[1]

    def _array(self, edges):
        """The partner array of the port map ``edges``, less its first port
        that is no port of this diagram, kept for ``validate``."""
        m = 2 * self.n
        cs = self.crossings
        size = m + 6 * (cs[-1] + 1) if cs else m
        ports, code = _tables(self.n, size)[6:8]
        if 6 * len(cs) + m < size:  # ids skip values
            code = {ports[a]: a for a in self._codes()}
        partner = [-1] * size
        for p, q in edges.items():
            a, b = code.get(p), code.get(q)
            if a is None or b is None:
                self._cache.setdefault('unknown', q if a is not None else p)
            else:
                partner[a] = b
        return partner

    @staticmethod
    def from_edge_list(n, crossings, edge_list, loops=None):
        edges = {}
        for p, q in edge_list:
            edges[p], edges[q] = q, p
        return TripleDiagram(n, crossings, edges, loops)

    @property
    def edges(self):
        """Each port to its partner, both ways: a dict built per read."""
        ports = self._ports
        return {ports[a]: ports[b] for a, b in enumerate(self._partner)
                if b >= 0}

    def edge_list(self):
        """Each edge once, as its two ports in order, sorted."""
        ports = self._ports
        return [(ports[a], ports[b]) for a, b in enumerate(self._partner)
                if a < b]

    def has_port(self, port):
        """True when ``port`` names an endpoint or a slot of a crossing of
        this diagram."""
        if port[0] == 'b':
            return 0 <= port[1] < 2 * self.n
        return port[1] in self.crossings and 0 <= port[2] < 6

    def partner(self, port):
        """The port paired with ``port`` (None: none), by one array read;
        KeyError for a port the array has no slot for (``C0.7``, ``B-1``)."""
        code = (port[1] if port[0] == 'b'
                else 2 * self.n + 6 * port[1] + port[2])
        if not 0 <= code < len(self._partner) or self._ports[code] != port:
            raise KeyError(port)
        return self._ports[self._partner[code]]

    def _codes(self):
        """The port codes, increasing: none at an absent crossing id; one
        ``range`` when the ids have no hole."""
        m = 2 * self.n
        cs = self.crossings
        if not cs or cs[-1] == len(cs) - 1:
            return range(m + 6 * len(cs))
        return chain(range(m), *[range(m + 6 * c, m + 6 * c + 6)
                                 for c in cs])

    def ports(self):
        return map(self._ports.__getitem__, self._codes())

    def crossing_count(self):
        return len(self.crossings)

    def partners(self):
        """The partner array (module docstring); do not change it."""
        return self._partner

    # ------------------------------------------------------------------
    # faces

    def face_store(self):
        """The interior faces on dart codes, ``(table, faces, keys, names)``:
        by dart code, its face's key code (-1: none); by key code, the
        face's orbit and kind (1 white or 2 black, plus 4 on the boundary);
        the key codes in order; by dart code, the dart.  Do not change."""
        if 'store' not in self._cache:  # every interior face holds a port
            self._cache['store'] = self._carried_faces(*self._cache.pop(
                'carry', None) or (([], {}), list(self._codes())))
        return self._cache['store']

    def _carried_faces(self, store, touched):
        """The face store, from the parent's: the parent faces that hold a
        port of ``touched`` give way to the orbits through the touched
        ports still in the map, which cover the same darts less a removed
        crossing's, plus an added one's.  Each new face's kind is the or
        of its darts' kinds (``_tables``); a face of both colors, which no
        map that passes ``validate`` has, raises DiagramError."""
        m4 = 4 * self.n
        partner = self._partner
        names, kinds = _tables(self.n, len(partner))[:2]
        table = store[0] + [-1] * (len(names) - len(store[0]))  # a copy
        faces = dict(store[1])
        # an added crossing's ports have no face yet
        for key in {table[m4 + a] for a in touched} - {-1}:
            del faces[key]
        for a in touched:  # a removed crossing's ports keep no face
            table[m4 + a] = -1
        # each new orbit holds a touched port (else phi kept an old face),
        # so none is the outer orbit
        for orbit in self._trace(
                [m4 + a for a in touched if partner[a] >= 0]):
            key = min(orbit)
            i = orbit.index(key)
            kind = 0
            for d in orbit:
                kind |= kinds[d]
                table[d] = key
            # white when its strand darts are all sources, black all sinks
            if kind & 3 not in (1, 2):
                raise DiagramError("face with inconsistent strand orientations")
            faces[key] = orbit[i:] + orbit[:i] if i else orbit, kind
        if not faces:  # the empty disk: one face, white, no dart, key ()
            faces[-1] = (), 5
            names += ((),)
        return table, faces, sorted(faces), names

    def _orbits(self):
        """All phi-orbits (``_trace`` from every dart)."""
        m4 = 4 * self.n
        return self._trace(chain(range(m4), map(m4.__add__, self._codes())))

    def _trace(self, starts):
        """The phi-orbits through ``starts`` as tuples of dart codes
        (module docstring), each from the first of its darts in
        ``starts``: from its least dart when ``starts`` is increasing
        and covers it.  A port paired with nothing raises KeyError, a
        dart met twice (no involution) DiagramError."""
        partner = self.partners()
        tables = _tables(self.n, len(partner))
        # phi on an arc dart, and on a port by its partner
        arcs, after = tables[4], tables[5]
        m2 = len(arcs)
        seen = bytearray(m2 + len(partner) + 1)
        seen[-1] = 1  # phi leads to -1 from a port paired with nothing
        orbits = []
        for start in starts:
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = 1
            d = arcs[start] if start < m2 else after[partner[start - m2]]
            while d != start:
                if seen[d]:
                    names = tables[0]
                    if d < 0:
                        raise KeyError(names[orbit[-1]])
                    raise DiagramError("edges are no involution at %s"
                                       % (names[d],))
                orbit.append(d)
                seen[d] = 1
                d = arcs[d] if d < m2 else after[partner[d - m2]]
            orbits.append(tuple(orbit))
        return orbits

    def face_key(self, dart):
        """The key of the interior face whose left boundary contains
        ``dart``; KeyError when none (an outer dart, or no dart here)."""
        table, _, _, names = self.face_store()
        key = table[_tables(self.n, len(self._partner))[8][dart]]
        if key < 0:
            raise KeyError(dart)
        return names[key]

    def _key_code(self, key):
        """The key code of the face keyed ``key`` (KeyError: none); a key
        that is no dart gets -1, which only the empty disk's store holds."""
        code = _tables(self.n, len(self._partner))[8].get(key, -1)
        _, faces, _, names = self.face_store()
        if code not in faces or names[code] != key:
            raise KeyError(key)
        return code

    def face_codes(self, key):
        """(orbit, kind) of the interior face with key ``key``, as the
        face store holds it; KeyError when none."""
        return self.face_store()[1][self._key_code(key)]

    def face_index(self, key):
        """The index of the face with key ``key``: its key code's rank in
        the store."""
        return bisect_left(self.face_store()[2], self._key_code(key))

    # ------------------------------------------------------------------
    # the Face record view (module docstring)

    def faces(self):
        """The interior faces as ``Face`` records, in index order; kept."""
        if 'faces' not in self._cache:
            self._cache['faces'] = tuple(
                map(self._record, range(len(self.face_store()[2]))))
        return self._cache['faces']

    def _record(self, index):
        """The ``Face`` record of the face with index ``index``: the view's
        one builder, which keeps nothing."""
        _, faces, keys, names = self.face_store()
        orbit, kind = faces[keys[index]]
        return Face(index, tuple(map(names.__getitem__, orbit)),
                    'white' if kind & 1 else 'black', kind > 3,
                    names[keys[index]])

    def face_of(self, dart):
        """The record of the face left of ``dart``; KeyError when none."""
        return self._record(self.face_index(self.face_key(dart)))

    def face_by_key(self, key):
        """The record of the face keyed ``key``; KeyError when none."""
        return self._record(self.face_index(key))

    # ------------------------------------------------------------------
    # the crossing walk

    def _walk(self, root=None):
        """Breadth-first walk of the crossings reachable from the
        endpoints, or from crossing ``root[0]`` at even phase ``root[1]``.

        Returns ``label``, mapping each crossing met to ``(id, phase)``
        (ids count from 0 in the order met, so ``label`` lists the
        crossings in id order; the phase is the even rotation taking the
        slot it was entered by to 0 or 1), and the walked
        component's edge codes, sorted (module docstring).  The endpoint
        walk is kept, for its callers to share, until the key text is
        rendered; they must not change it.
        """
        if root is None and 'walk' in self._cache:
            return self._cache['walk']
        n2 = 2 * self.n
        width = n2 + 6 * len(self.crossings)
        partner = self.partners()
        rows = _tables(self.n, len(partner))[3]
        # scan: port codes by canonical code; canon: its inverse, -1 at the
        # ports of crossings not met yet.  Slot s of a crossing met at
        # phase p has canonical rank (s - p) % 6: row -p of ``rows``
        canon = [-1] * len(partner)
        if root is None:
            label, scan, first = {}, list(range(n2)), 0
            canon[:n2] = scan
        else:
            c, phase = root
            label, scan = {c: (0, phase)}, list(rows[3 * c + phase // 2])
            first = n2
            canon[n2 + 6 * c:n2 + 6 * c + 6] = rows[(3 - phase // 2) % 3]
        codes = []
        # scan grows while it is read: breadth first.  A crossing met for
        # the first time gets codes above every code read so far, so
        # emitting each edge at its smaller end emits the codes sorted
        for a, p in enumerate(scan, first):
            q = partner[p]
            b = canon[q]
            if b < 0:
                c, s = divmod(q - n2, 6)
                scan += rows[3 * c + s // 2]
                canon[q - s:q - s + 6] = rows[3 * len(label)
                                               + (3 - s // 2) % 3]
                label[c] = (len(label), s - s % 2)
                b = canon[q]
            if a < b:
                codes.append(a * width + b)
        if root is not None:
            return label, codes
        self._cache['walk'] = walk = label, tuple(codes)
        return walk

    # ------------------------------------------------------------------
    # validation

    def validate(self):
        """Check every invariant; return a list of violations (empty = ok).

        The checks run in turn, each only when the ones before it pass:
        every port paired, the pairing an involution joining a source to
        a sink, Euler characteristic 2 per component, and the free loops,
        whose keys are checked against the face store's key codes.  No
        face is colored here: once every edge joins a source to a sink,
        every face has one color (module docstring), and the face store
        is the one routine that colors faces."""
        if 'unknown' in self._cache:
            return ["unknown port %s" % port_str(self._cache['unknown'])]
        partner = self._partner
        tables = _tables(self.n, len(partner))
        text, sides, wanted = tables[2], tables[9], tables[10]
        codes = self._codes()
        if type(codes) is range:  # no hole: the codes index a prefix
            mates, wanted = partner[:len(codes)], wanted[:len(codes)]
        else:
            codes = list(codes)
            mates = [partner[a] for a in codes]
            wanted = tuple([wanted[a] for a in codes])
        if mates and min(mates) < 0:
            return ["uncovered port %s" % text[a] for a in codes
                    if partner[a] < 0]
        # whole lists first: each port its partner's partner, each partner
        # on the other side (so no fixed point).  Only a failure words the
        # violations, port by port
        if ([partner[b] for b in mates] != list(codes)
                or tuple([sides[b] for b in mates]) != wanted):
            broken, clashes = [], []
            for a, b in zip(codes, mates):
                if b == a:
                    broken.append("fixed point at %s" % text[a])
                elif partner[b] != a:
                    broken.append("involution broken at %s" % text[a])
                # an edge joins a source to a sink
                elif a < b and sides[a] == sides[b]:
                    clashes.append("orientation clash on edge %s %s"
                                   % (text[a], text[b]))
            if broken or clashes:
                return broken or clashes

        # planarity: per-component Euler characteristic 2.  The map is an
        # involution now, so phi is a permutation
        violations = ["Euler characteristic violated (component V=%d E=%d "
                      "F=%d)" % tuple(vef)
                      for vef in self._components(self._orbits())
                      if vef[0] - vef[1] + vef[2] != 2]
        if violations:
            return violations
        for key, count in self.loops.items():
            try:
                self._key_code(key)
            except KeyError:
                violations.append("free loop keyed to unknown face %r" % (key,))
            if count < 1:
                violations.append("free loop count %d < 1 at %r" % (count, key))
        return violations

    def _components(self, orbits):
        """[V, E, F] per connected component of the dart structure: the
        boundary's first (when n > 0), then the floating groups in the
        order of their smallest crossing id."""
        # every endpoint brings one port and every crossing six, and each
        # edge joins two of them; the boundary arcs add n2 edges
        n2 = 2 * self.n
        label = self._walk()[0]
        tally = ([[n2 + len(label), n2 + (n2 + 6 * len(label)) // 2, 0]]
                 if n2 else [])
        if n2 and len(label) == len(self.crossings):  # one component
            tally[0][2] = len(orbits)
            return tally
        comp = dict.fromkeys(label, 0)
        for c in self.crossings:
            if c not in comp:
                label = self._walk((c, 0))[0]
                comp.update(dict.fromkeys(label, len(tally)))
                tally.append([len(label), 3 * len(label), 0])
        for orbit in orbits:  # its least dart is on the boundary if any is
            d = orbit[0] - 3 * n2
            tally[comp[d // 6] if d >= 0 else 0][2] += 1
        return tally

    def check(self):
        violations = self.validate()
        if violations:
            raise DiagramError("; ".join(violations))
        return self

    # ------------------------------------------------------------------
    # strands

    def strands(self):
        """All strands, as ``trace_strands`` returns them; cached."""
        if 'strands' not in self._cache:
            self._cache['strands'] = trace_strands(self.n, self.crossings,
                                                   self._partner)
        return self._cache['strands']

    def trace(self):
        """(Matching, closed loop visit-sequences, incl. free loops)."""
        arcs = {}
        loops = []
        for start, end, visits in self.strands():
            if start is None:
                loops.append(tuple(c for c, _ in visits))
            else:
                arcs[start] = end
        for key in sorted(self.loops):
            loops.extend(() for _ in range(self.loops[key]))
        return Matching.from_dict(self.n, arcs), loops

    def is_connected(self):
        """True iff strands plus the boundary circle form one component."""
        return (not self.loops
                and len(self._walk()[0]) == len(self.crossings))

    # ------------------------------------------------------------------
    # canonical form

    def canonical_form(self):
        """(key string, {crossing: (canonical id, phase)}).

        Equal keys exactly when two diagrams are isomorphic as
        boundary-labeled maps: crossing ids may be relabeled and slots
        rotated by even offsets; boundary endpoints stay fixed.
        """
        if 'canon' in self._cache:
            return self._cache['canon']
        width = 2 * self.n + 6 * len(self.crossings)
        label, codes = self._walk()
        # no later call needs the walk; and the label gains the floating
        # crossings below, which is_connected must not read
        del self._cache['walk']
        text = _tables(self.n, len(self.partners()))[2]

        def float_code(root, phase):
            # each edge oriented by text, the edges sorted by text
            lab, codes = self._walk((root, phase))
            return ";".join(sorted("-".join(sorted((text[e // width],
                                                    text[e % width])))
                                   for e in codes)), lab

        # floating components: the least code over every root and phase
        float_codes = []
        for c in self.crossings:
            if c in label:
                continue
            best = float_code(c, 0)
            for root in sorted(best[1]):
                for phase in (0, 2, 4):
                    code = float_code(root, phase)
                    if code[0] < best[0]:
                        best = code
            nid = len(label)
            for x, (cid, phase) in best[1].items():
                label[x] = (cid + nid, phase)
            float_codes.append(best[0])
        float_codes.sort()

        loop_keys = sorted((self._canonical_face_key(k, label), v)
                           for k, v in self.loops.items())
        parts = ["n=%d" % self.n,
                 ";".join(map(_edge_texts(self.n, width).__getitem__,
                              codes)),
                 "|".join(float_codes),
                 ",".join("%s:%d" % (k, v) for k, v in loop_keys)]
        result = ("\x1f".join(parts), label)
        self._cache['canon'] = result
        return result

    def canonical_key(self):
        return self.canonical_form()[0]

    def walk_label(self):
        """{crossing: (canonical id, phase)} of the endpoint walk, read
        from the canonical form once the key text is rendered; do not
        change it.  When ``canonical_code`` is the int codes, it is the
        one isomorphism to the canonical form: slot ``s`` of crossing
        ``c`` is slot ``(s - phase) % 6`` of canonical crossing ``id``."""
        if 'canon' in self._cache:
            return self._cache['canon'][1]
        return self._walk()[0]

    def canonical_code(self):
        """A hashable value equal for two diagrams exactly when their
        canonical keys are: ``(n, k, edge codes)`` for a connected diagram
        with no free loop, else the key text."""
        if 'code' not in self._cache:
            label, codes = self._walk()
            self._cache['code'] = (
                (self.n, len(self.crossings), codes)
                if not self.loops and len(label) == len(self.crossings)
                else self.canonical_key())
        return self._cache['code']

    def _canonical_face_key(self, key_dart, label):
        cands = []
        names = self.face_store()[3]
        for d in map(names.__getitem__, self.face_codes(key_dart)[0]):
            if d[0] == 'c':
                cid, phase = label[d[1]]
                cands.append("C%d.%d" % (cid, (d[2] - phase) % 6))
            else:
                cands.append(port_str(d) if d[0] == 'b' else "%s%d" % d)
        return min(cands, default="")  # the empty disk's face has no dart

    # ------------------------------------------------------------------

    def with_loops(self, loops):
        """This map with other free loops, keeping the tables that do not
        depend on them."""
        new = TripleDiagram(self.n, self.crossings, None, loops,
                            partners=self._partner)
        new._cache = {k: v for k, v in self._cache.items()
                      if k in ('store', 'faces', 'carry', 'strands',
                               'unknown')}
        return new

    def __eq__(self, other):
        return (isinstance(other, TripleDiagram)
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return ("TripleDiagram(n=%d, crossings=%d, loops=%d)"
                % (self.n, len(self.crossings), sum(self.loops.values())))


def empty_diagram():
    return TripleDiagram(0, (), {})
