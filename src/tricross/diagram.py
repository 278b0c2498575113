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

* ``edges`` is stored as a fixed-point-free involution: a dict mapping
  each port to its partner, both directions present.

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

* One breadth-first walk, ``_label_walk``, says which crossings hang
  together and in what canonical order.  From the endpoints, or from one
  root crossing at an even phase, it labels each crossing ``(id, phase)``
  in the order met.  Only the canonical key codes the edges of a walk
  (``_edge_codes``), as ints that sort like their normalized text (``i``
  for ``Bi``, ``2n + 6*id + s`` for ``C<id>.<s>``), and renders the
  endpoint walk's sorted edges.  A floating
  component is walked from every root and phase, coded with ``n = 0``,
  edges oriented and sorted by text (``C10.0`` before ``C2.0``); the least
  code wins, ties to the first root.  ``is_connected`` asks whether the
  endpoint walk labels every crossing; ``validate`` counts V, E and F
  per walked component, E from the labels alone.

* One kernel, ``trace_strands``, traces the strands of a raw edge dict,
  for ``TripleDiagram.strands`` (which caches it), the oracle's fillings
  and the tests.  A strand is an immutable ``(start, end, visits)``:
  in- and out-endpoint for an arc, both None for a closed strand, and
  its ``(crossing, entry slot)`` visits in order.  Its edge path is not
  stored: ``strand_path`` derives it from the visits, since a strand
  leaves visit ``(c, s)`` by slot ``(s + 3) % 6``.

Diagrams are immutable values by convention: all operations build new
instances.
"""

from dataclasses import dataclass, field
from functools import lru_cache


class DiagramError(ValueError):
    """Raised for structurally broken inputs (corrupted involutions)."""


def is_source(port):
    """True when a strand leaves the disk boundary / crossing at this port."""
    if port[0] == 'b':
        return port[1] % 2 == 0
    return port[2] % 2 == 1


def is_sink(port):
    return not is_source(port)


def port_str(port):
    if port[0] == 'b':
        return "B%d" % port[1]
    return "C%d.%d" % (port[1], port[2])


# a crossing's slots in walk order, from each even phase
_SLOTS_FROM = {0: (0, 1, 2, 3, 4, 5), 2: (2, 3, 4, 5, 0, 1),
               4: (4, 5, 0, 1, 2, 3)}


@lru_cache(maxsize=256)
def _port_texts(n, crossings):
    """Port texts by int code: ``B0 .. B{2n-1}``, then ``C0.0 .. C{k-1}.5``."""
    return tuple(["B%d" % i for i in range(2 * n)]
                 + ["C%d.%d" % (c, s) for c in range(crossings)
                    for s in range(6)])


def parse_port(text):
    if text.startswith("B"):
        return ('b', int(text[1:]))
    if text.startswith("C"):
        c, s = text[1:].split(".")
        return ('c', int(c), int(s))
    raise ValueError("bad port %r" % text)


def trace_strands(n, crossings, edges):
    """Every strand of the port pairing ``edges``, traced once.

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
    steps = range(n + 3 * len(crossings))  # the map's edges
    out = []
    entered = set()
    ends = set()
    walked = 0
    try:
        for i in range(0, 2 * n, 2):
            visits = []
            q = edges['b', i]
            for _ in steps:
                if q[0] == 'b':
                    break
                visits.append(q[1:])
                q = edges['c', q[1], (q[2] + 3) % 6]
            else:
                raise DiagramError("strand from endpoint %d never exits" % i)
            end = q[1]
            if end % 2 == 0 or end in ends:
                raise DiagramError("trace revisits port B%d" % end)
            ends.add(end)
            walked += len(visits)
            entered.update(visits)
            out.append((i, end, tuple(visits)))
        # a closed strand leaves each exit whose entry no strand took yet
        for c in crossings:
            for e in (4, 0, 2):
                start = (c, e)
                if start in entered:
                    continue
                visits = []
                q = edges['c', c, (e + 3) % 6]
                for _ in steps:
                    if q[0] == 'b':
                        raise DiagramError("closed trace leaked to the "
                                           "boundary")
                    v = q[1:]
                    visits.append(v)
                    if v == start:
                        break
                    q = edges['c', q[1], (q[2] + 3) % 6]
                else:
                    raise DiagramError("closed trace from C%d.%d never closes"
                                       % (c, (e + 3) % 6))
                walked += len(visits)
                entered.update(visits)
                out.append((None, None, tuple(visits)))
    except KeyError as exc:
        raise DiagramError("trace meets port %s, paired with nothing"
                           % (exc.args[0],)) from None
    if not walked == len(entered) == 3 * len(crossings):
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

    def __getitem__(self, i):
        return self.as_dict()[i]


@dataclass(frozen=True)
class Face:
    """A complementary region: its boundary darts, color and boundary flag.

    ``darts`` is the left-face orbit in traversal order, rotated to start
    at the minimal dart; each dart is one (edge, side) incidence.
    """

    index: int
    darts: tuple
    color: str          # 'white' | 'black'
    boundary: bool
    key: tuple = field(default=())  # minimal dart; () for the empty-disk face


class TripleDiagram:
    """Planar combinatorial map of 6-valent crossings with boundary endpoints."""

    def __init__(self, n, crossings, edges, loops=None, *, strands=None):
        self.n = n
        self.crossings = tuple(sorted(crossings))
        self.edges = dict(edges)
        # free crossing-free loops, keyed by the containing face's key dart
        self.loops = dict(loops) if loops else {}
        # ``strands``: trace_strands of these edges, from a caller that
        # has traced them already
        self._cache = {} if strands is None else {'strands': strands}

    @staticmethod
    def from_edge_list(n, crossings, edge_list, loops=None):
        edges = {}
        for p, q in edge_list:
            edges[p] = q
            edges[q] = p
        return TripleDiagram(n, crossings, edges, loops)

    def edge_list(self):
        seen = set()
        out = []
        for p, q in self.edges.items():
            if p in seen or q in seen:
                continue
            seen.add(p)
            seen.add(q)
            out.append(tuple(sorted((p, q))))
        return sorted(out)

    def ports(self):
        for i in range(2 * self.n):
            yield ('b', i)
        for c in self.crossings:
            for s in range(6):
                yield ('c', c, s)

    def crossing_count(self):
        return len(self.crossings)

    # ------------------------------------------------------------------
    # dart structure

    def alpha(self, d):
        if d[0] == '+':
            return ('-', (d[1] + 1) % (2 * self.n))
        if d[0] == '-':
            return ('+', (d[1] - 1) % (2 * self.n))
        return self.edges[d]

    @staticmethod
    def sigma_inv(d):
        tag = d[0]
        if tag == 'c':
            return ('c', d[1], (d[2] - 1) % 6)
        if tag == '+':
            return ('-', d[1])
        if tag == '-':
            return ('b', d[1])
        return ('+', d[1])  # boundary port

    def phi(self, d):
        """Next dart of the face on the left of ``d``."""
        return self.sigma_inv(self.alpha(d))

    def all_darts(self):
        """Every dart, in sorted order: the arc darts, then the ports."""
        darts = [('+', i) for i in range(2 * self.n)]
        darts += [('-', i) for i in range(2 * self.n)]
        darts.extend(self.ports())
        return darts

    # ------------------------------------------------------------------
    # faces

    def faces(self):
        """Interior faces with checkerboard colors, deterministic order."""
        if 'faces' in self._cache:
            return self._cache['faces']
        # validate() leaves the orbits it traced here for this one use, so
        # the orbits are not traced twice, nor kept beside the faces
        orbits = self._cache.pop('orbits', None)
        if orbits is None:
            orbits = self._orbits()
        records = []
        for orbit in orbits:
            if self.n > 0 and orbit[0][0] == '-':
                continue  # the outer face
            # a strand dart is a source port: an even endpoint, an odd slot
            sources = sinks = 0
            boundary = False
            for d in orbit:
                tag = d[0]
                if tag == 'c':
                    if d[2] % 2:
                        sources += 1
                    else:
                        sinks += 1
                else:
                    boundary = True
                    if tag == 'b':
                        if d[1] % 2:
                            sinks += 1
                        else:
                            sources += 1
            if sources and not sinks:
                color = 'white'
            elif sinks and not sources:
                color = 'black'
            else:
                raise DiagramError("face with inconsistent strand orientations")
            records.append((orbit, color, boundary))
        if self.n == 0 and not self.crossings:
            faces = (Face(0, (), 'white', True, ()),)
        else:
            faces = tuple(Face(i, r[0], r[1], r[2], r[0][0])
                          for i, r in enumerate(records))
        self._cache['faces'] = faces
        return faces

    def _orbits(self):
        """All phi-orbits, each starting at its minimal dart, in order.

        The darts are swept in sorted order, so each dart not yet seen is
        the minimum of its orbit."""
        m = 2 * self.n
        edges = self.edges
        seen = set()
        orbits = []
        for start in self.all_darts():
            if start in seen:
                continue
            orbit = [start]
            d = start
            while True:
                # d = self.phi(d), inlined: the trace's inner loop
                tag = d[0]
                if tag == '+':
                    d = ('b', (d[1] + 1) % m)
                elif tag == '-':
                    d = ('-', (d[1] - 1) % m)
                else:
                    q = edges[d]
                    d = (('c', q[1], (q[2] - 1) % 6) if q[0] == 'c'
                         else ('+', q[1]))
                if d == start:
                    break
                orbit.append(d)
            seen.update(orbit)
            orbits.append(tuple(orbit))
        return orbits

    def face_of(self, dart):
        """The interior face whose left-boundary contains ``dart``."""
        if 'face_of' not in self._cache:
            self._cache['face_of'] = {d: f for f in self.faces() for d in f.darts}
        return self._cache['face_of'][dart]

    def face_by_key(self, key):
        """The interior face with key dart ``key``; KeyError when none.

        A face's key is one of its own darts, so the ``face_of`` table
        finds it; only the empty disk's face has no dart (key ``()``)."""
        face = self.faces()[0] if key == () else self.face_of(key)
        if face.key != key:
            raise KeyError(key)
        return face

    # ------------------------------------------------------------------
    # the crossing walk

    def _label_walk(self, root=None):
        """Breadth-first labelling of the crossings reachable from the
        endpoints, or from crossing ``root[0]`` at even phase ``root[1]``.

        Returns ``label``, mapping each crossing met to ``(id, phase)``:
        ids count from 0 in the order met, and the phase is the even
        rotation taking the slot it was entered by to 0 or 1.
        """
        edges = self.edges
        if root is None:
            order, label = [], {}
            for i in range(2 * self.n):
                q = edges[('b', i)]
                if q[0] == 'c' and q[1] not in label:
                    label[q[1]] = (len(order), q[2] - q[2] % 2)
                    order.append(q[1])
        else:
            order, label = [root[0]], {root[0]: (0, root[1])}
        for c in order:  # order grows while it is read: breadth first
            for s in _SLOTS_FROM[label[c][1]]:
                q = edges[('c', c, s)]
                if q[0] == 'c' and q[1] not in label:
                    label[q[1]] = (len(order), q[2] - q[2] % 2)
                    order.append(q[1])
        return label

    def _edge_codes(self, label, base):
        """The edges of a walked component, sorted, each coded once as
        ``a * width + b`` (``a < b``, ``width = 2n + 6k``) from the port
        codes ``i`` for ``Bi`` and ``base + 6 * id + (s - phase) % 6`` for
        slot ``s``.  ``base`` is ``2n`` for the endpoint walk's ``label``,
        whose component holds the endpoints, and 0 for a root's."""
        width = 2 * self.n + 6 * len(self.crossings)
        at = {c: (base + 6 * cid, phase) for c, (cid, phase) in label.items()}
        pairs = []
        for p, q in self.edges.items():
            if p[0] == 'b':
                if not base:
                    continue  # a root's component holds no endpoint
                pc = p[1]
            else:
                o = at.get(p[1])
                if o is None:
                    continue
                pc = o[0] + (p[2] - o[1]) % 6
            if q[0] == 'b':
                qc = q[1]
            else:
                o = at[q[1]]
                qc = o[0] + (q[2] - o[1]) % 6
            if pc < qc:
                pairs.append(pc * width + qc)
        pairs.sort()
        return pairs

    # ------------------------------------------------------------------
    # validation

    def validate(self):
        """Check every invariant; return a list of violations (empty = ok)."""
        ports = set(self.ports())
        edges = self.edges
        broken, clashes = [], []
        for p, q in edges.items():
            if p not in ports:
                return ["unknown port %s" % port_str(p)]
            if q not in ports:
                return ["unknown port %s" % port_str(q)]
            if q == p:
                broken.append((p, "fixed point at %s"))
            elif edges.get(q) != p:
                broken.append((p, "involution broken at %s"))
            # a source is an even endpoint or an odd slot, so an edge
            # joins a source to a sink when its two ends' last fields
            # differ in parity, a crossing port counting one more
            elif p < q and (p[-1] + q[-1] + (p[0] == 'c')
                            + (q[0] == 'c')) % 2 == 0:
                clashes.append((p, q))
        if len(edges) < len(ports):
            return ["uncovered port %s" % port_str(p)
                    for p in self.ports() if p not in edges]
        if broken:
            return [text % port_str(p) for p, text in sorted(broken)]
        if clashes:
            return ["orientation clash on edge %s %s"
                    % (port_str(p), port_str(q)) for p, q in sorted(clashes)]

        # planarity: per-component Euler characteristic 2
        violations = []
        try:
            orbits = self._orbits()
        except KeyError:
            violations.append("corrupted involution")
            return violations
        if 'faces' not in self._cache:
            self._cache['orbits'] = orbits
        for comp_v, comp_e, comp_f in self._components(orbits):
            if comp_v - comp_e + comp_f != 2:
                violations.append("Euler characteristic violated "
                                  "(component V=%d E=%d F=%d)"
                                  % (comp_v, comp_e, comp_f))
        if violations:
            return violations

        # checkerboard: every face has a uniform strand direction
        try:
            faces = self.faces()
        except DiagramError as exc:
            violations.append(str(exc))
            return violations
        keys = set(f.key for f in faces)
        for key, count in self.loops.items():
            if key not in keys:
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
        label = self._label_walk()
        comp = dict.fromkeys(label, 0)
        tally = ([[n2 + len(label), n2 + (n2 + 6 * len(label)) // 2, 0]]
                 if n2 else [])
        for c in self.crossings:
            if c not in comp:
                label = self._label_walk((c, 0))
                comp.update(dict.fromkeys(label, len(tally)))
                tally.append([len(label), 3 * len(label), 0])
        for orbit in orbits:
            d = orbit[0]
            tally[comp[d[1]] if d[0] == 'c' else 0][2] += 1
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
                                                   self.edges)
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
                and len(self._label_walk()) == len(self.crossings))

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
        n2 = 2 * self.n
        width = n2 + 6 * len(self.crossings)
        label = self._label_walk()
        pairs = self._edge_codes(label, n2)
        text = _port_texts(self.n, len(self.crossings))
        edge_texts = []
        for e in pairs:  # the key lists each edge twice, once per end
            t = text[e // width] + "-" + text[e % width]
            edge_texts.append(t)
            edge_texts.append(t)

        def float_code(root, phase):
            lab = self._label_walk((root, phase))
            ftext = _port_texts(0, len(lab))
            texts = []
            for e in self._edge_codes(lab, 0):
                a, b = ftext[e // width], ftext[e % width]
                texts.append(a + "-" + b if a < b else b + "-" + a)
            texts.sort()
            return ";".join(texts), lab

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
                 ";".join(edge_texts),
                 "|".join(float_codes),
                 ",".join("%s:%d" % (k, v) for k, v in loop_keys)]
        result = ("\x1f".join(parts), label)
        self._cache['canon'] = result
        return result

    def canonical_key(self):
        return self.canonical_form()[0]

    def _canonical_face_key(self, key_dart, label):
        cands = []
        for d in self.face_by_key(key_dart).darts:
            if d[0] == 'c':
                cid, phase = label[d[1]]
                cands.append("C%d.%d" % (cid, (d[2] - phase) % 6))
            else:
                cands.append(port_str(d) if d[0] == 'b' else "%s%d" % d)
        return min(cands, default="")  # the empty disk's face has no dart

    # ------------------------------------------------------------------

    def with_loops(self, loops):
        return TripleDiagram(self.n, self.crossings, self.edges, loops)

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
