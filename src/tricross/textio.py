"""Line-oriented text formats: diagrams, matchings, regions, tilings,
move logs and move graphs.  All writers are byte-deterministic: crossing
ids are canonicalized before serialization, edge lines are sorted, and
every list is emitted in a fixed order.
"""

import hashlib

from .diagram import TripleDiagram, Matching, parse_port, port_code, port_str
from .moves import Move, MoveError, MoveLog
from .domino import Region, Tiling


class ParseError(ValueError):
    def __init__(self, name, line_no, message):
        self.name = name
        self.line_no = line_no
        self.message = message
        super().__init__("%s:%d: %s" % (name, line_no, message))


def _lines(text, name, header):
    lines = [l.rstrip("\n") for l in text.splitlines()]
    if not lines or lines[0] != header:
        raise ParseError(name, 1, "expected header %r" % header)
    return lines


def key_digest(key):
    return hashlib.sha256(key.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# diagrams

def write_diagram(diagram):
    """The text of ``diagram`` renamed by its canonical label, port code
    by port code; a loop's face is named by its index once renamed, the
    rank of the least renamed dart code of its orbit."""
    n2 = 2 * diagram.n
    partner = diagram.partners()
    canon = list(range(n2)) + [-1] * (len(partner) - n2)
    for c, (cid, phase) in diagram.canonical_form()[1].items():
        for s in range(6):
            canon[n2 + 6 * c + s] = n2 + 6 * cid + (s - phase) % 6

    def text(a):
        return "B%d" % a if a < n2 else "C%d.%d" % divmod(a - n2, 6)

    out = ["triple-diagram v1", "n %d" % diagram.n,
           "crossings %d" % diagram.crossing_count()]
    out.extend(sorted("edge %s %s" % tuple(map(text, sorted(
        (canon[a], canon[b])))) for a, b in enumerate(partner) if a < b))
    if diagram.loops:
        _, faces, keys, _ = diagram.face_store()
        n4 = 2 * n2  # arc darts keep their codes, a port's is 4n + its code
        least = [min((d if d < n4 else n4 + canon[d - n4]
                      for d in faces[key][0]), default=key) for key in keys]
        rank = {code: i for i, code in enumerate(sorted(least))}
        out.append("loops " + " ".join("%d:%d" % item for item in sorted(
            (rank[least[diagram.face_index(key)]], count)
            for key, count in diagram.loops.items())))
    return "\n".join(out) + "\n"


def read_diagram(text, name="<diagram>"):
    """The diagram of a ``triple-diagram v1`` text; refuses an invalid one."""
    lines = _lines(text, name, "triple-diagram v1")
    n = k = None
    edges = []
    loops = {}
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        try:
            if parts[0] in ("n", "crossings") and int(parts[1]) < 0:
                raise ParseError(name, no, "negative %s" % parts[0])
            if parts[0] == "n":
                n = int(parts[1])
            elif parts[0] == "crossings":
                k = int(parts[1])
            elif parts[0] == "edge":
                edges.append((no, parse_port(parts[1]), parse_port(parts[2])))
            elif parts[0] == "loops":
                for item in parts[1:]:
                    fid, count = item.split(":")
                    fid = int(fid)
                    if fid < 0:
                        raise ParseError(name, no,
                                         "loop face %d out of range" % fid)
                    if fid in loops:
                        raise ParseError(name, no,
                                         "loop face %d named twice" % fid)
                    loops[fid] = (int(count), no)
            else:
                raise ParseError(name, no, "unknown record %r" % parts[0])
        except (IndexError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(name, no, "bad record: %s" % line)
    if n is None or k is None:
        raise ParseError(name, len(lines), "missing n or crossings")
    named = set()
    for no, p, q in edges:
        for port in (p, q):
            bounds = (2 * n,) if port[0] == 'b' else (k, 6)
            if not all(0 <= x < b for x, b in zip(port[1:], bounds)):
                raise ParseError(name, no, "port %s out of range"
                                 % port_str(port))
            if port in named:
                raise ParseError(name, no, "port %s named twice"
                                 % port_str(port))
            named.add(port)
    partner = [-1] * (2 * n + 6 * k)
    for _, p, q in edges:
        a, b = port_code(n, p), port_code(n, q)
        partner[a], partner[b] = b, a
    diagram = TripleDiagram(n, range(k), None, partners=partner)
    if loops and not diagram.validate():  # faces need a valid map
        _, _, keys, names = diagram.face_store()
        keyed = {}
        for fid, (count, no) in loops.items():
            if fid >= len(keys):
                raise ParseError(name, no, "loop face %d out of range" % fid)
            keyed[names[keys[fid]]] = count
        diagram = diagram.with_loops(keyed)
    violations = diagram.validate()
    if violations:
        raise ParseError(name, 1, "invalid diagram: " + "; ".join(violations))
    return diagram


# ----------------------------------------------------------------------
# matchings

def write_matching(matching):
    out = ["matching v1", "n %d" % matching.n]
    for a, b in matching.pairs:
        out.append("pair %d %d" % (a, b))
    return "\n".join(out) + "\n"


def read_matching(text, name="<matching>"):
    lines = _lines(text, name, "matching v1")
    n = None
    pairs = {}
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        try:
            if parts[0] == "n":
                n = int(parts[1])
                if n < 0:
                    raise ParseError(name, no, "negative n")
            elif parts[0] == "pair":
                i, o = int(parts[1]), int(parts[2])
                if i in pairs:
                    raise ParseError(name, no,
                                     "in-endpoint %d named twice" % i)
                pairs[i] = o
            else:
                raise ParseError(name, no, "unknown record %r" % parts[0])
        except (IndexError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(name, no, "bad record: %s" % line)
    if n is None:
        raise ParseError(name, len(lines), "missing n")
    try:
        return Matching.from_dict(n, pairs)
    except ValueError as exc:
        raise ParseError(name, 1, str(exc))


# ----------------------------------------------------------------------
# regions and tilings

def write_region(region):
    out = ["region v1"]
    for x, y in sorted(region.squares):
        out.append("sq %d %d" % (x, y))
    return "\n".join(out) + "\n"


def read_region(text, name="<region>"):
    lines = _lines(text, name, "region v1")
    squares = set()
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] != "sq" or len(parts) != 3:
            raise ParseError(name, no, "expected 'sq x y'")
        try:
            sq = (int(parts[1]), int(parts[2]))
        except ValueError:
            raise ParseError(name, no, "coordinates must be integers")
        if sq in squares:
            raise ParseError(name, no, "square %d %d named twice" % sq)
        squares.add(sq)
    return Region(squares)


def write_tiling(tiling):
    out = ["tiling v1"]
    for x, y, h in sorted(tiling.dominoes):
        out.append("dom %d %d %s" % (x, y, "H" if h else "V"))
    return "\n".join(out) + "\n"


def read_tiling(text, name="<tiling>"):
    lines = _lines(text, name, "tiling v1")
    doms = set()
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] != "dom" or len(parts) != 4 or parts[3] not in ("H", "V"):
            raise ParseError(name, no, "expected 'dom x y H|V'")
        try:
            dom = (int(parts[1]), int(parts[2]), parts[3] == "H")
        except ValueError:
            raise ParseError(name, no, "coordinates must be integers")
        if dom in doms:
            raise ParseError(name, no, "domino %d %d %s named twice"
                             % (dom[0], dom[1], parts[3]))
        doms.add(dom)
    squares = []
    for x, y, h in doms:
        squares.append((x, y))
        squares.append((x + 1, y) if h else (x, y + 1))
    try:
        return Tiling(Region(squares), doms)
    except ValueError as exc:
        raise ParseError(name, 1, str(exc))


def read_ascii_region(text):
    """'#' squares; row order top to bottom."""
    rows = [r for r in text.splitlines() if r.strip()]
    squares = []
    height = len(rows)
    for ry, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch == '#':
                squares.append((x, height - 1 - ry))
    return Region(squares)


def read_ascii_tiling(text):
    """Letter-paired dominoes: each letter names one domino's two cells."""
    rows = [r for r in text.splitlines() if r.strip()]
    height = len(rows)
    cells = {}
    for ry, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch not in ' .':
                cells.setdefault(ch, []).append((x, height - 1 - ry))
    doms = []
    squares = []
    for ch, pair in sorted(cells.items()):
        if len(pair) != 2:
            raise ValueError("letter %r does not cover two cells" % ch)
        (x1, y1), (x2, y2) = sorted(pair)
        squares.extend(pair)
        if (x2, y2) == (x1 + 1, y1):
            doms.append((x1, y1, True))
        elif (x2, y2) == (x1, y1 + 1):
            doms.append((x1, y1, False))
        else:
            raise ValueError("letter %r cells are not adjacent" % ch)
    return Tiling(Region(squares), doms)


# ----------------------------------------------------------------------
# move logs

def _move_to_line(move, face):
    """A move's line; its face, if any, is named by the index ``face``."""
    if move.kind == '22':
        return "22 %d" % face
    if move.kind == '10':
        return "10 %d.%d" % move.data
    if move.kind == '01':
        ep, eq, side = move.data
        return "01 %s %s %s" % (port_str(ep), port_str(eq), side)
    if move.kind == 'drop' or move.kind == 'add':
        return "%s %d" % (move.kind, face)
    raise ValueError(move.kind)


def write_movelog(initial, log):
    """The ``movelog v1`` text of ``log`` from ``initial``.  Each face is
    named by the index the log recorded as its move applied
    (``MoveLog.record``); no move is applied again, and ``read_movelog``
    is the independent check of the text."""
    if initial.canonical_key() != log.initial_key:
        raise MoveError("log does not start at this diagram")
    out = ["movelog v1", "initial %s" % key_digest(log.initial_key)]
    out.extend(_move_to_line(mv, face)
               for mv, face in zip(log.moves, log.faces, strict=True))
    return "\n".join(out) + "\n"


def _face_at(diagram, index):
    """(key, darts) of the face whose index is ``index``, read off the
    face store; IndexError when none."""
    _, faces, keys, names = diagram.face_store()
    if not 0 <= index < len(keys):  # a face index, not a count from the end
        raise IndexError("face index %d out of range" % index)
    return names[keys[index]], [names[d] for d in faces[keys[index]][0]]


def read_movelog(text, initial, name="<movelog>"):
    """Parse and resolve a move log against its initial diagram: each
    line's ``Move`` is applied and logged by ``MoveLog.record``, whose
    face index is the one the line names.  A log of no move ends at
    ``initial``."""
    lines = _lines(text, name, "movelog v1")
    head = (lines[1].split() if len(lines) > 1
            and lines[1].startswith("initial ") else [])
    if len(head) < 2:
        raise ParseError(name, 2, "missing initial key line")
    if head[1] != key_digest(initial.canonical_key()):
        raise ParseError(name, 2, "log does not start at this diagram")
    cur = initial
    log = MoveLog(initial)
    for no, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split()
        try:
            if parts[0] in ("22", "drop", "add"):
                key, darts = _face_at(cur, int(parts[1]))
            if parts[0] == "22":
                d1, d2 = darts
                mv = Move('22', ((d1[1], d1[2]), (d2[1], d2[2])))
            elif parts[0] == "10":
                token = parts[1][1:] if parts[1].startswith("C") else parts[1]
                c, s = token.split(".")
                mv = Move('10', (int(c), int(s)))
            elif parts[0] == "01":
                mv = Move('01', (parse_port(parts[1]), parse_port(parts[2]),
                                 parts[3]))
            elif parts[0] in ("drop", "add"):
                mv = Move(parts[0], (key,))
            else:
                raise ParseError(name, no, "unknown move %r" % parts[0])
            cur = log.record(cur, [mv])
        except ParseError:
            raise
        except (IndexError, ValueError) as exc:
            raise ParseError(name, no, "bad move %r: %s" % (line, exc))
    return log, cur


# ----------------------------------------------------------------------
# move graphs

def write_movegraph(graph):
    out = ["movegraph v1"]
    names = {key: key_digest(key) for key in graph.vertices}
    for key in sorted(names.values()):
        out.append("v %s" % key)
    edge_lines = []
    for pair, face_index in graph.edges.items():
        a, b = sorted(names[k] for k in pair)
        edge_lines.append("e %s %s %d" % (a, b, face_index))
    out.extend(sorted(set(edge_lines)))
    return "\n".join(out) + "\n"
