"""Edge orientations from the restricted gradient, and PL vertex types.

Each edge of the 1-skeleton is oriented in the direction of increase of F.
The direction from a vertex v into an incident edge e is computed
analytically: stack the node-map rows of v's zero entries (on a top cell
containing e) into an n0 x n0 matrix W and solve

    W d = sign * e_k

where k indexes the single entry where e differs from v.  The sign of the
directional derivative is then sign(gradF . d) on the same top cell; it does
not depend on which containing top cell is used.  ``complex._edge_slopes``
solves the 2*n0 systems of every vertex in one stacked call, which the first
read of the complex's per-vertex cache makes; the classifier,
``orient_edge``, the shallow analyzer's rays and the boundedness test read
that cache.

A vertex is PL critical iff every axis pair of incident edges points the
same way (both toward or both away from v); the index counts the
toward-pairs.  Regular vertices record their first flow-through axis, which
drives the lower-star pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex import CanonicalComplex, Cell, VertexRecord, _is_flat, build_complex
from .complex import _edges_at
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


def _resolve(cpx: CanonicalComplex, vertex, edge):
    """(vertex, edge, (unit direction, sign of dF)) of an edge leaving the
    vertex; MissingEdgeError when the edge is not incident to it."""
    v = vertex if isinstance(vertex, VertexRecord) else cpx.vertices[tuple(vertex)]
    e = edge if isinstance(edge, Cell) else cpx.cells[tuple(edge)]
    if e.signs not in (w for _, _, w in _edges_at(v.signs)):
        raise MissingEdgeError(f"{e} is not an incident edge of {signs_to_str(v.signs)}")
    return v, e, cpx.edge_slopes(v.signs)[e.signs]


def orient_edge(cpx: CanonicalComplex, vertex, edge) -> EdgeOrientation:
    """Orientation of the edge relative to the vertex; FlatCellError if a
    directional derivative at the vertex vanishes."""
    v, e, (d, sign) = _resolve(cpx, vertex, edge)
    return EdgeOrientation(e.signs, v.signs, sign, d)


def classify_signs(v_signs: Signs, edges: dict) -> VertexClassification:
    """PL-regular/critical decision for the vertex named v_signs from the
    (direction, sign of dF) ``edges[e_signs]`` of its 2*n0 edges, as
    ``complex._edge_slopes`` gives them."""
    desc = {(p, sigma): edges[e_signs][1] < 0 for p, sigma, e_signs in _edges_at(v_signs)}
    axes = tuple(
        (p, desc[(p, -1)], desc[(p, 1)]) for p, s in enumerate(v_signs) if s == 0
    )
    flow = [(p, dm, dp) for p, dm, dp in axes if dm != dp]
    if not flow:
        index = sum(1 for p, dm, dp in axes if dm and dp)
        return VertexClassification(v_signs, "critical", index, axes, None, None)
    p, dm, _ = flow[0]
    return VertexClassification(v_signs, "regular", None, axes, p, -1 if dm else 1)


def classify_vertex(cpx: CanonicalComplex, vertex) -> VertexClassification:
    """PL-regular/critical decision for one vertex of the complex; raises
    MissingEdgeError when one of its 2*n0 edges is not a cell."""
    v = vertex if isinstance(vertex, VertexRecord) else cpx.vertices[tuple(vertex)]
    for _, _, e_signs in _edges_at(v.signs):
        if e_signs not in cpx.cells:
            raise MissingEdgeError(
                f"expected edge {signs_to_str(e_signs)} at vertex"
                f" {signs_to_str(v.signs)} is missing"
            )
    return classify_signs(v.signs, cpx.edge_slopes(v.signs))


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
        rel = [cpx.edge_slopes(v.signs)[e][1] for _, _, e in _edges_at(v.signs) if e in rays]
        if not rel:
            continue
        if len(set(rel)) > 1:
            consistent = False
        elif rel[0] < 0:
            toward.append(v.signs)

    critical = []
    for v in cpx.vertices.values():
        cls = classify_vertex(cpx, v)
        if cls.kind == "critical":
            critical.append((v.signs, cls.index, v.value))

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
