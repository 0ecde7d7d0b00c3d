"""Deterministic SVG rendering of 2-D canonical complexes.

Draws the 1-skeleton clipped to a bounding box (by default the vertices'
box grown by 1, widened to reach every vertex-free line), with arrowheads
in the direction of increase of F, rings around PL-critical vertices, and
shaded critical 2-cells.  All coordinates are formatted with fixed
precision so output is byte-stable for identical inputs.
"""

from __future__ import annotations

import numpy as np

from .complex import CanonicalComplex
from .errors import DimensionError
from .network import signs_to_str
from .orientation import classify_vertex, orientation_field

_W = 640.0
_BIG = 1e9


def _fmt(x: float) -> str:
    # Avoid "-0.0000" so output does not depend on signed-zero noise.
    if abs(x) < 5e-5:
        x = 0.0
    return f"{x:.4f}"


def _clip_param(point, direction, t_lo, t_hi, box):
    """Clip the parametric line point + t*direction to the box."""
    (x0, y0), (x1, y1) = box
    lo, hi = t_lo, t_hi
    for axis, (a, b) in enumerate(((x0, x1), (y0, y1))):
        p, d = point[axis], direction[axis]
        if abs(d) < 1e-15:
            if p < a or p > b:
                return None
            continue
        ta, tb = (a - p) / d, (b - p) / d
        if ta > tb:
            ta, tb = tb, ta
        lo, hi = max(lo, ta), min(hi, tb)
    if lo >= hi:
        return None
    return lo, hi


def _clip_polygon(poly, normal, offset):
    """Sutherland-Hodgman clip of a polygon by the halfplane n.x >= c."""
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        c_in = float(np.dot(normal, cur)) >= offset - 1e-12
        n_in = float(np.dot(normal, nxt)) >= offset - 1e-12
        if c_in:
            out.append(cur)
        if c_in != n_in:
            d = nxt - cur
            denom = float(np.dot(normal, d))
            t = (offset - float(np.dot(normal, cur))) / denom
            out.append(cur + t * d)
    return out


def _edge_geometry(cpx, cell, field):
    """(point, direction, t_lo, t_hi) parameterization of a 1-cell."""
    anchors = cpx.vertex_facets(cell)
    if len(anchors) == 2:
        a, b = sorted(anchors, key=lambda v: v.signs)
        d = b.location - a.location
        return a.location, d, 0.0, 1.0
    if len(anchors) == 1:
        # orientation_field anchors a ray at its only vertex.
        return anchors[0].location, field[cell.signs].direction, 0.0, _BIG
    # A vertex-free 1-cell is a whole line: any point on it serves.
    rep = cpx.hrep(cell.signs)
    _, _, vh = np.linalg.svd(rep.a_eq)
    return np.linalg.lstsq(rep.a_eq, rep.b_eq)[0], vh[-1], -_BIG, _BIG


def render_svg(cpx: CanonicalComplex, matching=None, box=None) -> str:
    """Render a 2-D complex; DimensionError when the input space is not R^2."""
    if cpx.n0 != 2:
        raise DimensionError(f"rendering requires n0 = 2, got n0 = {cpx.n0}")

    field = orientation_field(cpx)
    lines = {s: _edge_geometry(cpx, c, field) for s, c in sorted(cpx.cells.items()) if c.dim == 1}
    if box is None:
        if cpx.vertices:
            pts = np.array([v.location for v in cpx.vertices.values()])
            lo = pts.min(axis=0) - 1.0
            hi = pts.max(axis=0) + 1.0
        else:
            lo = np.array([-2.0, -2.0])
            hi = np.array([2.0, 2.0])
        # Widen the box for each vertex-free line it misses: its point +- 1.
        for point, direction, t_lo, t_hi in lines.values():
            if _clip_param(point, direction, t_lo, t_hi, (tuple(lo), tuple(hi))) is None:
                lo, hi = np.minimum(lo, point - 1.0), np.maximum(hi, point + 1.0)
    else:
        lo = np.array(box[0], dtype=float)
        hi = np.array(box[1], dtype=float)
    span = np.maximum(hi - lo, 1e-9)
    scale = _W / span[0]
    height = span[1] * scale

    def to_px(p):
        return (p[0] - lo[0]) * scale, height - (p[1] - lo[1]) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_W)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(_W)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(_W)}" height="{_fmt(height)}" fill="white"/>',
    ]

    # Shaded critical 2-cells.
    if matching is not None:
        corners = [np.array([lo[0], lo[1]]), np.array([hi[0], lo[1]]),
                   np.array([hi[0], hi[1]]), np.array([lo[0], hi[1]])]
        for signs in matching.critical:
            cell = cpx.cells.get(signs)
            if cell is None or cell.dim != 2:
                continue
            rep = cpx.hrep(signs)
            poly = corners
            for row, rhs in zip(rep.a_ge, rep.b_ge):
                poly = _clip_polygon(poly, row, rhs)
                if not poly:
                    break
            if len(poly) >= 3:
                pts = " ".join(
                    f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(p) for p in poly)
                )
                parts.append(
                    f'<polygon points="{pts}" fill="#d86060" fill-opacity="0.35" stroke="none"/>'
                )

    # Edges with arrowheads along the direction of increase.
    edge_lines = []
    arrows = []
    box_pair = (tuple(lo), tuple(hi))
    for signs, (point, direction, t_lo, t_hi) in lines.items():
        clip = _clip_param(point, direction, t_lo, t_hi, box_pair)
        if clip is None:
            continue
        ta, tb = clip
        a, b = point + ta * direction, point + tb * direction
        (ax, ay), (bx, by) = to_px(a), to_px(b)
        edge_lines.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
            f'stroke="#202020" stroke-width="1.5"/>'
        )
        orient = field.get(signs)
        if orient is None:
            continue
        inc = direction * float(orient.derivative_sign) if orient.anchor is not None else orient.direction
        # Arrow placement uses the world midpoint of the visible stretch.
        mid = point + 0.5 * (ta + tb) * direction
        mx, my = to_px(mid)
        u = np.array([inc[0], -inc[1]])
        u = u / max(float(np.linalg.norm(u)), 1e-30)
        n = np.array([-u[1], u[0]])
        tip = np.array([mx, my]) + 6.0 * u
        left = np.array([mx, my]) - 4.0 * u + 3.5 * n
        right = np.array([mx, my]) - 4.0 * u - 3.5 * n
        arrows.append(
            '<polygon points="'
            + " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in (tip, left, right))
            + '" fill="#202020"/>'
        )
    parts.extend(edge_lines)
    parts.extend(arrows)

    # Vertices; PL-critical ones get a ring.
    for signs in sorted(cpx.vertices):
        v = cpx.vertices[signs]
        px, py = to_px(v.location)
        parts.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="#202020">'
            f"<title>{signs_to_str(signs)}</title></circle>"
        )
        cls = classify_vertex(cpx, v)
        if cls.kind == "critical":
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="7" fill="none" '
                f'stroke="#c03030" stroke-width="2"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
