"""SVG rendering of diagrams and tilings.

Layout is purely cosmetic: boundary endpoints sit equally spaced on a
circle and crossing positions relax to the barycenter of their six
neighbors (boundary fixed), which keeps planar diagrams readable.
"""

from dataclasses import dataclass
import math

from .diagram import strand_path


@dataclass
class RenderSpec:
    size: int = 480
    stroke: float = 2.0
    arrowheads: bool = True
    shade_faces: bool = False
    iterations: int = 200

    def validate(self):
        if self.size <= 0 or self.stroke <= 0 or self.iterations < 1:
            raise ValueError("render spec needs positive dimensions and "
                             "at least one iteration")


def _positions(diagram, spec):
    two_n = 2 * diagram.n
    cx = cy = spec.size / 2.0
    radius = spec.size * 0.42
    pos = {}
    for i in range(two_n):
        theta = 2 * math.pi * i / two_n if two_n else 0.0
        pos[('b', i)] = (cx + radius * math.cos(theta),
                         cy - radius * math.sin(theta))
    cross = {c: (cx, cy) for c in diagram.crossings}
    legs = {c: [diagram.partner(('c', c, s)) for s in range(6)]
            for c in diagram.crossings}
    for _ in range(spec.iterations):
        nxt = {}
        for c in diagram.crossings:
            xs = ys = 0.0
            for q in legs[c]:
                px, py = pos[q] if q[0] == 'b' else cross[q[1]]
                xs += px
                ys += py
            nxt[c] = (xs / 6.0, ys / 6.0)
        cross = nxt
    return pos, cross, (cx, cy, radius)


def _vertex_pos(port, pos, cross):
    return pos[port] if port[0] == 'b' else cross[port[1]]


def render_diagram(diagram, spec=None):
    spec = spec or RenderSpec()
    spec.validate()
    pos, cross, (cx, cy, radius) = _positions(diagram, spec)
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
             'height="%d" viewBox="0 0 %d %d">'
             % (spec.size, spec.size, spec.size, spec.size)]
    parts.append('<circle cx="%.1f" cy="%.1f" r="%.1f" fill="none" '
                 'stroke="#999" stroke-width="1"/>' % (cx, cy, radius))
    if spec.shade_faces:
        for face in diagram.faces():
            if face.color != 'black' or not face.darts:
                continue
            pts = []
            for d in face.darts:
                if d[0] in ('b', 'c'):
                    x, y = _vertex_pos(d, pos, cross)
                    qx, qy = _vertex_pos(diagram.partner(d), pos, cross)
                    pts.append(((x + qx) / 2, (y + qy) / 2))
                elif d[0] == '+':
                    pts.append(pos[('b', d[1])])
            if len(pts) >= 3:
                path = " ".join("%.1f,%.1f" % p for p in pts)
                parts.append('<polygon points="%s" fill="#ccc" '
                             'opacity="0.5"/>' % path)
    for strand in diagram.strands():
        path = strand_path(strand)
        pts = [_vertex_pos(path[0][0], pos, cross)]
        for src, dst in path:
            pts.append(_vertex_pos(dst, pos, cross))
        poly = " ".join("%.1f,%.1f" % p for p in pts)
        tag = '<polyline points="%s" fill="none" stroke="#223" ' \
              'stroke-width="%.1f"' % (poly, spec.stroke)
        if spec.arrowheads and strand[0] is not None:
            tag += ' marker-end="url(#tip)"'
        parts.append(tag + '/>')
    for c in diagram.crossings:
        x, y = cross[c]
        parts.append('<circle cx="%.1f" cy="%.1f" r="%.1f" fill="#c33"/>'
                     % (x, y, spec.stroke * 1.6))
    loop_i = 0
    for key in sorted(diagram.loops):
        for _ in range(diagram.loops[key]):
            parts.append('<circle cx="%.1f" cy="%.1f" r="%.1f" fill="none" '
                         'stroke="#3a3" stroke-width="%.1f"/>'
                         % (cx + 12 * loop_i, cy, 8.0, spec.stroke))
            loop_i += 1
    if spec.arrowheads:
        parts.insert(1, '<defs><marker id="tip" viewBox="0 0 10 10" '
                     'refX="8" refY="5" markerWidth="6" markerHeight="6" '
                     'orient="auto-start-reverse">'
                     '<path d="M 0 0 L 10 5 L 0 10 z" fill="#223"/>'
                     '</marker></defs>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def render_tiling(tiling, spec=None):
    spec = spec or RenderSpec()
    spec.validate()
    xs = [x for x, _ in tiling.region.squares]
    ys = [y for _, y in tiling.region.squares]
    w = max(xs) - min(xs) + 1
    h = max(ys) - min(ys) + 1
    unit = spec.size / (max(w, h) + 1.0)
    ox, oy = unit / 2 - min(xs) * unit, unit / 2 + (max(ys) + 1) * unit

    def pt(x, y):
        return (ox + x * unit, oy - y * unit)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
             'height="%d" viewBox="0 0 %d %d">'
             % (spec.size, spec.size, spec.size, spec.size)]
    for x, y, hflag in sorted(tiling.dominoes):
        x2, y2 = (x + 2, y + 1) if hflag else (x + 1, y + 2)
        ax, ay = pt(x, y2)
        parts.append('<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" '
                     'fill="#eee" stroke="#223" stroke-width="%.1f"/>'
                     % (ax, ay, (x2 - x) * unit, (y2 - y) * unit,
                        spec.stroke))
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
