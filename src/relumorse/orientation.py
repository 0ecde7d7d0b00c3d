"""Edge orientations from the restricted gradient, and PL vertex types.

Each edge of the 1-skeleton is oriented in the direction of increase of F.
The direction from a vertex v into an incident edge e is computed
analytically: stack the node-map rows of v's zero entries (on a top cell
containing e) into an n0 x n0 matrix W and solve

    W d = sign * e_k

where k indexes the single entry where e differs from v.  The sign of the
directional derivative is then sign(gradF . d) on the same top cell; it does
not depend on which containing top cell is used.  ``complex._edge_slopes``
solves the 2*n0 systems of every vertex in one stacked call, into arrays of
directions, descent flags and errors in ``complex._edge_slots`` edge order;
the complex caches them at its first read.  The classifier, ``orient_edge``,
the shallow analyzer's rays and the boundedness test read that cache.

A vertex is PL critical iff every axis pair of incident edges points the
same way (both toward or both away from v); the index counts the
toward-pairs.  Regular vertices record their first flow-through axis, which
drives the lower-star pairing.  ``classify_signs`` decides it for a stack of
vertices at once, from their edges' descent flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex import CanonicalComplex, Cell, VertexRecord, build_complex, is_face
from .complex import _edge_slots, _is_flat, _raise_anew
from .errors import ArchitectureError, MissingEdgeError
from .network import ReluNetwork, Signs, signs_to_str


@dataclass(frozen=True)
class EdgeOrientation:
    """Orientation of one edge relative to an anchor vertex.

    ``derivative_sign`` is +1 iff F increases leaving the anchor into the
    edge (the edge points away from the anchor).  ``direction`` is the unit
    vector from the anchor into the edge (direction of increase for
    anchor-free edges).
    """

    edge: Signs
    anchor: Signs | None
    derivative_sign: int
    direction: np.ndarray


@dataclass(frozen=True)
class VertexClassification:
    """PL type of one vertex.

    ``axes`` maps each zero position of the vertex to the pair
    (minus edge descends, plus edge descends).  Critical vertices have no
    flow-through axis; their index is the number of descending axes.
    Regular vertices store the first flow-through axis (position order) and
    the sign of its descending edge.
    """

    vertex: Signs
    kind: str  # "regular" | "critical"
    index: int | None
    axes: tuple  # ((position, desc_minus, desc_plus), ...)
    flow_axis: int | None
    flow_sign: int | None

    @property
    def descending_axes(self) -> tuple:
        return tuple(p for p, dm, dp in self.axes if dm and dp)


def orient_edge(cpx: CanonicalComplex, vertex, edge) -> EdgeOrientation:
    """Orientation of the edge relative to the vertex; MissingEdgeError when
    the edge is not incident to it, FlatCellError if a directional
    derivative at the vertex vanishes."""
    v = vertex if isinstance(vertex, VertexRecord) else cpx.vertices[tuple(vertex)]
    e = edge if isinstance(edge, Cell) else cpx.cells[tuple(edge)]
    if not (e.dim == 1 and is_face(v.signs, e.signs)):
        raise MissingEdgeError(f"{e} is not an incident edge of {signs_to_str(v.signs)}")
    d, sign = cpx.edge_slopes(v.signs)[e.signs]
    return EdgeOrientation(e.signs, v.signs, sign, d)


def classify_signs(desc) -> tuple:
    """(critical, index, axis, sign) of vertices from their (V, n0, 2)
    descent flags, ``complex._edge_slopes``' desc, all at once: critical
    where no axis flows through (its edges disagree), the index its number
    of descending axes; else ``axis``, the first flow-through one among its
    zero axes, and its descending edge's sign."""
    flow = desc[..., 0] != desc[..., 1]
    axis = np.argmax(flow, axis=1)
    sign = np.where(desc[np.arange(len(desc)), axis, 0], -1, 1)
    return ~flow.any(axis=1), (desc[..., 0] & desc[..., 1]).sum(axis=1), axis, sign


def classifications(vertices: list, desc) -> list:
    """:class:`VertexClassification` of each vertex word of ``vertices``
    from its descent flags ``desc``, by :func:`classify_signs`."""
    out = []
    for v, d, crit, k, j, s in zip(vertices, desc.tolist(), *(a.tolist() for a in classify_signs(desc))):
        zeros = [p for p, x in enumerate(v) if x == 0]
        axes = tuple((p, dm, dp) for p, (dm, dp) in zip(zeros, d))
        kind = (v, "critical", k, axes, None, None) if crit else (v, "regular", None, axes, zeros[j], s)
        out.append(VertexClassification(*kind))
    return out


def classify_vertex(cpx: CanonicalComplex, vertex) -> VertexClassification:
    """PL-regular/critical decision for one vertex of the complex; raises
    MissingEdgeError at the first of its 2*n0 edges that is not a cell, read
    off the star table, else the error of its edge slopes."""
    v = (vertex if isinstance(vertex, VertexRecord) else cpx.vertices[tuple(vertex)]).signs
    (_, at, _, stars), (_, desc, errors, row) = cpx._star_cells(), cpx._slopes()
    i, slots = row[v], _edge_slots(cpx.n0)
    if (missing := at[i, slots] < 0).any():
        e = stars[i, slots[np.argmax(missing)]]
        raise MissingEdgeError(f"expected edge {signs_to_str(e)} at vertex {signs_to_str(v)} is missing")
    _raise_anew(errors[i])
    return classifications([v], desc[i : i + 1])[0]


def orientation_field(cpx: CanonicalComplex) -> dict:
    """Orientations for every orientable edge, keyed by edge signs.

    Edges with vertices are anchored at their lexicographically smallest
    vertex.  Vertex-free unbounded edges are oriented by the restricted
    gradient along their line; if F is constant on such an edge it is
    omitted (it cannot carry a direction of increase).
    """
    out = {}
    for signs, cell in cpx.cells.items():
        if cell.dim != 1:
            continue
        anchors = cpx.vertex_facets(cell)
        if anchors:
            anchor = min(anchors, key=lambda v: v.signs)
            out[signs] = orient_edge(cpx, anchor, cell)
            continue
        if cell.flat:
            continue
        rep = cpx.hrep(signs)
        _, _, vh = np.linalg.svd(rep.a_eq)
        d = vh[-1]
        g = cpx.f_affine(signs)[0]
        slope = float(g @ d)
        if _is_flat(slope, float(np.linalg.norm(g))):
            continue
        if slope < 0:
            d = -d
        out[signs] = EdgeOrientation(signs, None, 1, d / float(np.linalg.norm(d)))
    return out


@dataclass(frozen=True)
class ShallowReport:
    """Realizability report for an (n, n+1, 1) network."""

    n: int
    orientation_class: str
    unbounded_consistent: bool
    critical: tuple  # ((vertex signs, index, value), ...)
    boundary_type: str  # "empty" | "point" | "sphere"
    toward_vertices: tuple

    def to_json_dict(self) -> dict:
        return {
            "class": self.orientation_class,
            "critical": [
                {"vertex": signs_to_str(s), "index": k, "value": val}
                for s, k, val in self.critical
            ],
            "boundary_type": self.boundary_type,
            "unbounded_consistent": self.unbounded_consistent,
            "n": self.n,
        }


def _global_range(cpx: CanonicalComplex):
    """(inf F, sup F) over the whole input space, from the top cells."""
    lo, hi = np.inf, -np.inf
    for cell in cpx.top_cells():
        hi = max(hi, cpx.f_max(cell))
        lo = min(lo, -cpx.sup(cell.signs, -1))
        if lo == -np.inf and hi == np.inf:
            break
    return lo, hi


def analyze_shallow(net: ReluNetwork, cpx: CanonicalComplex | None = None) -> ShallowReport:
    """Orientation class, critical inventory and decision-boundary type for
    an (n, n+1, 1) network.

    Checks that unbounded edges sharing a vertex share their orientation
    relative to it, and that at most one critical vertex occurs, with index
    0 or n.
    """
    dims = net.arch.dims
    if len(dims) != 2 or dims[1] != dims[0] + 1:
        raise ArchitectureError(f"analyze_shallow needs an (n, n+1, 1) network, got {dims}")
    n = dims[0]
    if cpx is None:
        cpx = build_complex(net)

    consistent = True
    toward = []
    rays = {e for _, e in cpx.rays()}
    for v in cpx.vertices.values():
        rel = [sign for e, (_, sign) in cpx.edge_slopes(v.signs).items() if e in rays]
        if not rel:
            continue
        if len(set(rel)) > 1:
            consistent = False
        elif rel[0] < 0:
            toward.append(v.signs)

    classes = [(classify_vertex(cpx, v), v) for v in cpx.vertices.values()]
    critical = [(v.signs, cls.index, v.value) for cls, v in classes if cls.kind == "critical"]

    n_vertices = len(cpx.vertices)
    n_toward = len(toward)
    if not consistent:
        klass = "inconsistent"
    elif n_toward == 0:
        klass = "all-away"
    elif n_toward == n_vertices:
        klass = "all-toward"
    elif n_toward == 1:
        klass = "one-toward-rest-away"
    elif n_toward == n_vertices - 1:
        klass = "one-away-rest-toward"
    else:
        klass = "mixed"

    lo, hi = _global_range(cpx)
    if not (lo < 0.0 < hi):
        boundary = "empty"
    elif critical:
        boundary = "sphere"
    else:
        boundary = "point"

    return ShallowReport(
        n=n,
        orientation_class=klass,
        unbounded_consistent=consistent,
        critical=tuple(sorted(critical)),
        boundary_type=boundary,
        toward_vertices=tuple(sorted(toward)),
    )
