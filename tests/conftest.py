import contextlib
import itertools
import weakref
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from relumorse import (
    BASEPOINT,
    AffineLayer,
    Architecture,
    Cell,
    ReluNetwork,
    VertexRecord,
    build_complex,
    is_face,
    net_b,
    orient_edge,
    random_network,
    signs_to_str,
)
from relumorse.complex import (
    _CLEAR_MARGIN,
    _FAR,
    _FLAT_TOL,
    _RANK_TOL,
    _SAMPLE_RESID,
    _VERTEX_RESID,
    _ZERO_OFFSET,
    _cell_problem,
    _cut,
    _edges_at,
    _hrep_for,
    _is_flat,
    _witness,
)
from relumorse.dgvf import Matching, _partner
from relumorse.errors import (
    DimensionError,
    FlatCellError,
    GenericityError,
    IncompletePairingError,
    MissingEdgeError,
    SingularSystemError,
    StructuredError,
)
from relumorse.lp import FEAS_TOL, LpProblem, LpResult, _optimum, lp_solve
from relumorse.network import NodeMaps, node_maps
from relumorse.orientation import VertexClassification


def make_net_b_negated() -> ReluNetwork:
    base = net_b()
    return ReluNetwork(base.layers, AffineLayer([[-1.0, -2.0, -4.0]], [0.0]))


@pytest.fixture(scope="session")
def netb():
    return net_b()


@pytest.fixture(scope="session")
def cpx_b(netb):
    return build_complex(netb)


@pytest.fixture(scope="session")
def netb_neg():
    return make_net_b_negated()


@pytest.fixture(scope="session")
def cpx_b_neg(netb_neg):
    return build_complex(netb_neg)


@pytest.fixture(scope="session")
def differential_draws():
    """Three accepted draws each of (2,4,1), (3,4,1) and (2,3,2,1), on which
    the library's sign-word lookups are checked against the oracles below."""
    return [d for arch in ((2, 4), (3, 4), (2, 3, 2)) for d in scan_generic_nets(arch, 3)]


@pytest.fixture(scope="session")
def certified_draws(netb, cpx_b, netb_neg, cpx_b_neg):
    """(net, complex) pairs on which ``local_pair``'s certified vertices are
    checked against its LPs, and its LPs' pivots against the row loop."""
    draws = [(netb, cpx_b), (netb_neg, cpx_b_neg)]
    for arch, count in (((2, 8), 3), ((3, 6), 3), ((4, 7), 2), ((2, 4, 3), 3)):
        draws += [(net, cpx) for _, net, cpx in scan_generic_nets(arch, count)]
    # Top cells with C(20, 2) = 190 ways to zero two entries.
    wide = random_network(Architecture((2, 20)), seed=0)
    return draws + [(wide, build_complex(wide))]


# The accepted nets of scripts/cli_sweep.py besides NET-B: (architecture, seed).
SWEEP_ACCEPTED = [((2, 8, 1), s) for s in (0, 1, 2, 3, 5)]
SWEEP_ACCEPTED += [((2, 4, 1), s) for s in (1, 2, 5)] + [((3, 4, 1), 5)]
SWEEP_ACCEPTED += [((3, 6, 1), 0), ((3, 6, 1), 1), ((4, 7, 1), 0), ((4, 7, 1), 1)]
SWEEP_ACCEPTED += [((2, 20, 1), 0), ((3, 8, 1), 0), ((4, 10, 1), 0)]
SWEEP_ACCEPTED += [((2, 8, 8, 1), s) for s in (0, 12, 13)] + [((2, 12, 12, 1), 0)]


@pytest.fixture(scope="session")
def sweep_accepted(netb, cpx_b):
    """(net, complex) of every accepted net of the CLI sweep: the per-cell
    references below must agree with the library on each of their cells."""
    draws = [(netb, cpx_b)]
    for arch, seed in SWEEP_ACCEPTED:
        net = random_network(Architecture.from_full(arch), seed=seed)
        draws.append((net, build_complex(net)))
    return draws


def scan_generic_nets(arch, count, start_seed=0, scale=1.0):
    """First ``count`` seeds (ascending from start_seed) whose complexes build
    without structured errors; degenerate or flat draws are skipped."""
    out = []
    seed = start_seed
    while len(out) < count:
        net = random_network(Architecture(arch), seed=seed, scale=scale)
        try:
            cpx = build_complex(net)
        except StructuredError:
            seed += 1
            continue
        out.append((seed, net, cpx))
        seed += 1
    return out


def central_difference_gradient(net, x, h):
    """Finite-difference oracle for the gradient of F at x."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for axis in range(x.shape[0]):
        step = np.zeros_like(x)
        step[axis] = h
        grad[axis] = (net.evaluate(x + step) - net.evaluate(x - step)) / (2 * h)
    return grad


# -- pointwise evaluation: what the tests read off a network at a point ------


def preactivations(net, x) -> list:
    """Pre-activation vectors of every hidden layer at x."""
    h = net._check_input(x)
    pre = []
    for layer in net.layers:
        pre.append(layer(h))
        h = np.maximum(pre[-1], 0.0)
    return pre


def node_map(net, i: int, j: int, x) -> float:
    """Pre-activation of neuron (i, j) at x (both indices 1-based)."""
    if not (1 <= i <= net.m) or not (1 <= j <= net.layers[i - 1].out_dim):
        raise DimensionError(f"neuron index ({i}, {j}) out of range")
    return float(preactivations(net, x)[i - 1][j - 1])


def sign_sequence_at(net, x, tol: float = 1e-9) -> tuple:
    """Sign word of all node maps at x.

    A value counts as zero when it is below ``tol`` times the infinity
    norm of the node map's affine row on the cell containing x.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    h = net._check_input(x)
    signs = []
    jac = np.eye(net.n0)
    for layer in net.layers:
        z = layer(h)
        rows = layer.weights @ jac
        scale = np.maximum(np.abs(rows).max(axis=1), 1e-300)
        layer_signs = np.sign(z)
        layer_signs[np.abs(z) <= tol * scale] = 0.0
        signs.extend(int(s) for s in layer_signs)
        active = layer_signs > 0
        h = np.where(active, z, 0.0)
        jac = rows * active[:, None]
    return tuple(signs)


def single_hyperplane_complex():
    """Complex of the one-neuron (2,1,1) net: one line, no vertex."""
    return build_complex(
        ReluNetwork((AffineLayer([[1.0, 1.0]], [-1.0]),), AffineLayer([[2.0]], [0.5]))
    )


def away_from_anchor(orientation) -> bool:
    """True iff F increases leaving the anchor into the oriented edge."""
    return orientation.derivative_sign > 0


# -- reference oracles: scans and LPs that the library does not need ---------


def star(cpx, signs) -> list:
    """Cells having ``signs`` as a face, by a scan over every cell."""
    signs = tuple(signs)
    return [c for c in cpx.cells.values() if is_face(signs, c.signs)]


def cofacets(cpx, cell) -> list:
    """Stored cells that have ``cell`` as a facet (one zero entry flipped),
    sorted."""
    signs = cell.signs if isinstance(cell, Cell) else tuple(cell)
    out = []
    for p, s in enumerate(signs):
        if s != 0:
            continue
        for sigma in (-1, 1):
            hit = cpx.cells.get(signs[:p] + (sigma,) + signs[p + 1 :])
            if hit is not None:
                out.append(hit)
    out.sort(key=lambda c: c.signs)
    return out


def interior_witness(a_eq, b_eq, a_ge, b_ge, feas_tol=FEAS_TOL):
    """Strict-feasibility certificate for a system of equalities and strict
    inequalities (rows should be normalized so slack is geometric distance).

    Maximizes the worst inequality slack (capped at 1) and returns
    ``(witness, clearance)`` when the optimum exceeds ``feas_tol``, else None.
    The reference for ``complex._witness``, which builds the same LP as a
    cell LP and returns the witness alone.
    """
    n = a_eq.shape[1] if a_eq.size else a_ge.shape[1]
    n_ge = a_ge.shape[0]
    obj = np.zeros(n + 1)
    obj[-1] = 1.0
    eq = np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))]) if a_eq.size else np.zeros((0, n + 1))
    ge_rows = [np.hstack([a_ge, -np.ones((n_ge, 1))])] if n_ge else []
    ge_rhs = [b_ge] if n_ge else []
    cap_row = np.zeros((1, n + 1))
    cap_row[0, -1] = -1.0
    ge_rows.append(cap_row)
    ge_rhs.append(np.array([-1.0]))
    problem = LpProblem.build(
        obj,
        a_eq=eq,
        b_eq=b_eq if a_eq.size else np.zeros(0),
        a_ge=np.vstack(ge_rows),
        b_ge=np.concatenate(ge_rhs),
    )
    res = lp_solve(problem, feas_tol=feas_tol)
    if not res.optimal or res.value is None or res.value <= feas_tol:
        return None
    return res.x[:n].copy(), float(res.value)


def interior_witness_of(net, signs, lp_tol) -> tuple:
    """(point, worst slack capped at 1) of the interior-witness LP on the
    cell ``signs``; GenericityError when it finds no interior point."""
    rep = _hrep_for(net, signs, node_maps(net, signs[: -net.final.in_dim]))
    found = interior_witness(rep.a_eq, rep.b_eq, rep.a_ge, rep.b_ge, feas_tol=lp_tol)
    if found is None:
        raise GenericityError(f"cell {signs_to_str(signs)} has no interior witness")
    return found[0], float(found[1])


def container_top_cell(cpx, signs):
    """Lexicographically smallest top cell having ``signs`` as a face."""
    zero_pos = [p for p, s in enumerate(signs) if s == 0]
    for combo in itertools.product((-1, 1), repeat=len(zero_pos)):
        cand = list(signs)
        for p, sigma in zip(zero_pos, combo):
            cand[p] = sigma
        if tuple(cand) in cpx.cells:
            return tuple(cand)
    raise GenericityError(f"no top cell of the complex contains {signs_to_str(signs)}")


def vertex_location_on(signs, table) -> np.ndarray:
    """Solve the n0 x n0 system of the vertex's zero node maps on ``table``
    alone, raising as ``complex._vertex_locations`` does for the stack."""
    zero_pos = [p for p, s in enumerate(signs) if s == 0]
    mat, rhs = table.rows[zero_pos], -table.offsets[zero_pos]
    try:
        loc = np.linalg.solve(mat, rhs) + 0.0  # clear negative zeros
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"singular vertex system for {signs_to_str(signs)}"
        ) from exc
    resid = float(np.abs(mat @ loc - rhs).max())
    if not np.isfinite(loc).all() or resid > _VERTEX_RESID * max(1.0, float(np.abs(rhs).max())):
        raise SingularSystemError(
            f"ill-conditioned vertex system for {signs_to_str(signs)}"
        )
    return loc


def own_table_vertex_location(cpx, signs) -> np.ndarray:
    """A vertex's location solved alone on its own table: the per-vertex
    loop that ``complex._vertex_locations``' one stacked solve replaced."""
    return vertex_location_on(signs, cpx.table(signs))


def reference_vertex_location(cpx, signs) -> np.ndarray:
    """A vertex's location solved on the node-map rows of the first top cell
    that contains it: the reference for ``complex._assemble``, which solves
    on the vertex's own table."""
    return vertex_location_on(signs, cpx.table(container_top_cell(cpx, signs)))


@dataclass(frozen=True)
class AffineForm:
    """A cell's node-map rows and offsets, and F's gradient and offset on it."""

    rows: np.ndarray
    offsets: np.ndarray
    total_gradient: np.ndarray
    total_offset: float


def affine_form(net, signs, table) -> AffineForm:
    """:class:`AffineForm` of the cell ``signs`` on a node-map ``table`` of
    its parent: F's part is ``NodeMaps.f_affine`` of that one cell."""
    signs, n_m = tuple(signs), net.final.in_dim
    grad, offset = table.f_affine(net.final, [signs[-n_m:]])
    return AffineForm(table.rows, table.offsets, grad[0], float(offset[0]))


def complex_forms(cpx):
    """Sign word -> :class:`AffineForm` on the complex's own tables, F's part
    read by ``CanonicalComplex.f_affine``."""

    def form(signs):
        table = cpx.table(signs)
        return AffineForm(table.rows, table.offsets, *cpx.f_affine(signs))

    return form


def vertex_facets_scan(cpx, cell) -> list:
    """Vertices in the closure of ``cell``, by a scan over every vertex."""
    signs = cell.signs if isinstance(cell, Cell) else tuple(cell)
    return [v for v in cpx.vertices.values() if is_face(v.signs, signs)]


def facets_scan(cpx, cell) -> list:
    """Cells one dimension down in the closure of ``cell``, by a scan over
    every cell."""
    signs = cell.signs if isinstance(cell, Cell) else tuple(cell)
    dim = cpx.cells[signs].dim
    return [c for c in cpx.cells.values() if c.dim == dim - 1 and is_face(c.signs, signs)]


def _zeroings(signs, k):
    """Words obtained by zeroing k of the nonzero entries of ``signs``."""
    nonzero = [p for p, s in enumerate(signs) if s != 0]
    for zeroed in itertools.combinations(nonzero, k):
        yield tuple(0 if p in zeroed else s for p, s in enumerate(signs))


def rays_scan(cpx, cell) -> list:
    """Sorted (vertex, edge) words of the rays in the closure of ``cell``:
    the edges named by zeroing dim - 1 entries of its word that have exactly
    one vertex named by zeroing one more."""
    signs = cell.signs if isinstance(cell, Cell) else tuple(cell)
    dim = cpx.cells[signs].dim
    out = []
    for edge in _zeroings(signs, dim - 1) if dim else ():
        if edge in cpx.cells:
            ends = [w for w in _zeroings(edge, 1) if w in cpx.cells]
            if len(ends) == 1:
                out.append((ends[0], edge))
    return sorted(out)


def reference_certified_vertex(signs, rep, candidates, lp_tol):
    """``dgvf._certified_vertex`` cell by cell: each candidate solves the
    cell's H-representation rows at its zeros, the cell's zero rows first,
    and passes when exactly the >= rows it zeroes are tight there."""
    row_of = {p: r for r, p in enumerate(rep.ge_positions)}
    for cls in candidates:
        extra = [row_of.get(p) for p, s in enumerate(cls.vertex) if s == 0 and signs[p] != 0]
        if None in extra:
            continue
        a = np.vstack([rep.a_eq, rep.a_ge[extra]])
        b = np.concatenate([rep.b_eq, rep.b_ge[extra]])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if np.abs(a @ x - b).max() > lp_tol:
            continue
        if np.flatnonzero(rep.a_ge @ x - rep.b_ge <= lp_tol).tolist() == extra:
            return cls
    return None


def reference_slack_certified_vertex(signs, entry, candidates, lp_tol):
    """``dgvf._certified_vertex`` by slack rows: ``entry`` is (node-map
    table, {vertex: (slack row, zero mask) or None}), filled on first use,
    and each cell compares a candidate's slack row entry by entry.  The
    reference for the sign masks that ``dgvf`` keeps instead."""
    table, points = entry
    s = np.array(signs)
    live = (s != 0) & ~table.const
    unit, unit_off = table.unit
    for cls in candidates:
        if cls.vertex not in points:
            zero = np.array(cls.vertex) == 0
            points[cls.vertex] = None
            with contextlib.suppress(np.linalg.LinAlgError):
                if not table.const[zero].any():
                    x = np.linalg.solve(unit[zero], unit_off[zero])
                    points[cls.vertex] = unit @ x - unit_off, zero
        if points[cls.vertex] is None:
            continue
        slack, zero = points[cls.vertex]
        if not zero[s == 0].all() or np.abs(slack[zero]).max() > lp_tol:
            continue
        if np.array_equal(s[live] * slack[live] <= lp_tol, zero[live]):
            return cls
    return None


def reference_closures(dims: dict, facets: dict) -> dict:
    """{word: (facets, vertices, rays)}, sorted tuples, bottom-up by dimension
    from a facet map: a vertex is its own closure, an edge with one vertex
    the ray (vertex, edge), any other closure the union of its facets'.  The
    closure walk that the star table replaced, in build's neuron steps and on
    the finished complex."""
    out = {}
    for word in sorted(dims, key=dims.get):
        fs = facets[word]
        verts = tuple(sorted({v for f in fs for v in out[f][1]})) if dims[word] else (word,)
        rays = tuple(sorted({r for f in fs for r in out[f][2]}))
        if dims[word] == 1 and len(verts) == 1:
            rays = ((verts[0], word),)
        out[word] = (fs, verts, rays)
    return out


_CLOSURE_MAPS = weakref.WeakKeyDictionary()


def closure_map(cpx) -> dict:
    """:func:`reference_closures` of a finished complex's cells over its facet
    map, built once per complex and set of cells."""
    cells, closures = _CLOSURE_MAPS.get(cpx, (None, None))
    if cells is not cpx.cells:
        closures = reference_closures({s: c.dim for s, c in cpx.cells.items()}, cpx._facet_map())
        _CLOSURE_MAPS[cpx] = cpx.cells, closures
    return closures


def reference_sup(cpx, cell, sense=1) -> tuple:
    """(sup of sense * F over a cell, whether it took the cell LP) by the
    per-cell rule, read off the vertex list and all rays of the union
    closure map (:func:`closure_map`): the best vertex value, unless a ray,
    in word order, rises (+inf) or is at a vertex whose edge slopes raise
    (the cell LP) first.  The reference for ``CanonicalComplex.sup`` and
    ``f_max``, which read the same answer off the vertices' stars."""
    signs = cell.signs if isinstance(cell, Cell) else tuple(cell)
    _, verts, rays = closure_map(cpx)[signs]
    corners = [sense * cpx.vertices[v].value for v in verts]
    if corners:
        try:
            if all(sense * cpx.edge_slopes(v)[e][1] < 0 for v, e in rays):
                return max(corners), False
            return float("inf"), False
        except (FlatCellError, SingularSystemError):
            pass
    form = complex_forms(cpx)(signs)
    res = lp_solve(
        _cell_problem(cpx.hrep(signs), sense * form.total_gradient), feas_tol=cpx.lp_tol
    )
    if not res.optimal:
        return float("inf"), True
    return (max(corners) if corners else res.value + sense * form.total_offset), True


def reference_injectivity(records, sign_tol):
    """Message of the InjectivityError that a scan over every pair of vertex
    ``records`` raises at the first pair, in list order, whose values agree
    within ``sign_tol`` times max(1, |value|); None when no pair does.  The
    reference for the sorted check of ``complex._assemble``."""
    for a_i, va in enumerate(records):
        for vb in records[a_i + 1 :]:
            if abs(va.value - vb.value) <= sign_tol * max(1.0, abs(va.value), abs(vb.value)):
                return (
                    f"vertices {signs_to_str(va.signs)} and {signs_to_str(vb.signs)}"
                    f" share the value {va.value!r}"
                )
    return None


def reference_edge_slope(v_signs, e_signs, form_of):
    """(unit direction, sign of dF along it) from the vertex into one
    incident edge, its system solved alone: the reference for
    ``complex._edge_slopes``, which stacks the 2*n0 systems of a vertex."""
    form = form_of(tuple(s if s != 0 else 1 for s in e_signs))
    zero_pos = [p for p, s in enumerate(v_signs) if s == 0]
    # Into the edge, the map at its entry takes the edge's sign; the vertex's
    # other zero maps stay zero.
    rhs = np.array([e_signs[p] for p in zero_pos], dtype=float)
    try:
        d = np.linalg.solve(form.rows[zero_pos], rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"singular edge system at vertex {signs_to_str(v_signs)}"
        ) from exc
    nrm = float(np.linalg.norm(d))
    if not np.isfinite(nrm) or nrm <= 0.0:
        raise SingularSystemError(
            f"degenerate edge direction at vertex {signs_to_str(v_signs)}"
        )
    d = d / nrm
    g = form.total_gradient
    slope = float(g @ d)
    if _is_flat(slope, float(np.linalg.norm(g))):
        raise FlatCellError(
            f"F is constant along edge {signs_to_str(e_signs)}; network out of scope"
        )
    return d, 1 if slope > 0 else -1


def reference_edge_slopes(v_signs, form_of) -> dict:
    """:func:`reference_edge_slope` edge by edge over the 2*n0 edges at a
    vertex, in ``_edges_at`` order, so the first failing edge raises."""
    return {e: reference_edge_slope(v_signs, e, form_of) for _, _, e in _edges_at(v_signs)}


def edge_outcome(slopes):
    """What ``slopes()`` returns, with each direction as its bytes, or the
    class and message of the structured error it raises."""
    try:
        return {e: (d.tobytes(), sign) for e, (d, sign) in slopes().items()}
    except StructuredError as exc:
        return type(exc), str(exc)


def lp_max(cpx, cell, sense=1) -> float:
    """Max of sense * F over a cell by the reference tableau simplex, not
    read off vertex values or rays nor solved by ``lp_solve``; +inf when the
    LP has no optimum."""
    signs = cell.signs if isinstance(cell, Cell) else tuple(cell)
    form = complex_forms(cpx)(signs)
    problem = _cell_problem(cpx.hrep(signs), sense * form.total_gradient)
    res = reference_simplex(problem, cpx.lp_tol)
    return res.value + sense * form.total_offset if res.optimal else float("inf")


def is_spatially_bounded(cpx, cell) -> bool:
    """True iff the cell is a bounded subset of R^n0 (coordinate LPs)."""
    signs = cell.signs if isinstance(cell, Cell) else tuple(cell)
    for axis in range(cpx.n0):
        for direction in (1.0, -1.0):
            obj = np.zeros(cpx.n0)
            obj[axis] = direction
            if not lp_solve(_cell_problem(cpx.hrep(signs), obj), feas_tol=cpx.lp_tol).optimal:
                return False
    return True


def lower_star(cpx, vertex) -> list:
    """Cells of star(v) on which F attains its maximum at v.

    Combinatorial rule: a star cell is in the lower star iff every one of
    its edges at v descends (points toward v); extra nonzero entries of the
    cell name those edges directly.
    """
    v = vertex if isinstance(vertex, VertexRecord) else cpx.vertices[tuple(vertex)]
    zero_pos = [p for p, s in enumerate(v.signs) if s == 0]
    descends = {}
    for p in zero_pos:
        for sigma in (-1, 1):
            e = v.signs[:p] + (sigma,) + v.signs[p + 1 :]
            if e in cpx.cells:
                descends[(p, sigma)] = orient_edge(cpx, v, cpx.cells[e]).derivative_sign < 0
    out = []
    for c in star(cpx, v.signs):
        extras = [(p, c.signs[p]) for p in zero_pos if c.signs[p] != 0]
        if all(descends.get(key, False) for key in extras):
            out.append(c)
    out.sort(key=lambda c: c.signs)
    return out


def reference_classify_signs(v_signs, edges) -> VertexClassification:
    """PL-regular/critical decision for the vertex named v_signs from the
    (direction, sign of dF) ``edges[e_signs]`` of its 2*n0 edges, one axis
    at a time: the reference for ``orientation.classify_signs``, which
    classifies a stack of vertices at once."""
    desc = {(p, sigma): edges[e_signs][1] < 0 for p, sigma, e_signs in _edges_at(v_signs)}
    axes = tuple((p, desc[(p, -1)], desc[(p, 1)]) for p, s in enumerate(v_signs) if s == 0)
    flow = [(p, dm, dp) for p, dm, dp in axes if dm != dp]
    if not flow:
        index = sum(1 for p, dm, dp in axes if dm and dp)
        return VertexClassification(v_signs, "critical", index, axes, None, None)
    p, dm, _ = flow[0]
    return VertexClassification(v_signs, "regular", None, axes, p, -1 if dm else 1)


def reference_classify_vertex(cpx, v_signs) -> VertexClassification:
    """One vertex's classification by tuple lookups and the per-axis rule;
    MissingEdgeError at its first missing edge, then its edges' error."""
    for _, _, e_signs in _edges_at(v_signs):
        if e_signs not in cpx.cells:
            raise MissingEdgeError(
                f"expected edge {signs_to_str(e_signs)} at vertex {signs_to_str(v_signs)} is missing"
            )
    return reference_classify_signs(v_signs, cpx.edge_slopes(v_signs))


def allowed_signs(cls) -> dict:
    """Per-axis sign sets spanning the lower star of a classified vertex."""
    allowed = {}
    for p, dm, dp in cls.axes:
        allowed[p] = [0] + [-1] * dm + [1] * dp
    return allowed


def lower_star_patterns(vertex_signs, allowed: dict):
    """Sign words of the lower star: the product of per-axis allowed signs,
    the first axis varying slowest."""
    positions = sorted(allowed)
    for combo in itertools.product(*(allowed[p] for p in positions)):
        signs = list(vertex_signs)
        for p, s in zip(positions, combo):
            signs[p] = s
        yield tuple(signs)


def reference_pair_lower_star(cpx, cls):
    """(sorted pairs, critical cell or None) of one vertex's lower star by
    ``dgvf._partner``, word by word: the reference for ``build_dgvf``'s
    stacked pairing.  IncompletePairingError at its first missing word."""
    pairs, critical_cell = [], None
    for signs in lower_star_patterns(cls.vertex, allowed_signs(cls)):
        if signs not in cpx.cells:
            raise IncompletePairingError(f"lower-star cell {signs_to_str(signs)} missing from the complex")
        role, partner = _partner(cls, signs)
        if role == "lower":
            pairs.append((signs, partner))
        elif role == "critical":
            critical_cell = signs
    return sorted(pairs), critical_cell


def reference_validate(matching, cpx) -> list:
    """``Matching.validate`` pair by pair over tuple words and ``f_max``."""
    problems, seen = [], Counter()
    for lo, up in matching.pairs:
        cl, cu = cpx.cells.get(lo), cpx.cells.get(up)
        if cl is None or cu is None:
            problems.append(f"pair ({signs_to_str(lo)}, {signs_to_str(up)}) not in complex")
            continue
        if cu.dim != cl.dim + 1:
            problems.append(f"pair ({signs_to_str(lo)}, {signs_to_str(up)}) dimension step != 1")
        if not is_face(lo, up):
            problems.append(f"{signs_to_str(lo)} is not a facet of {signs_to_str(up)}")
        seen.update((lo, up))
    seen.update(matching.critical)
    problems.extend(f"cell {signs_to_str(s)} used more than once" for s, k in seen.items() if k > 1)
    expected = {s for s, c in cpx.cells.items() if cpx.f_max(c) < float("inf")}
    for label, cells in (
        ("uncovered bounded-above cells", expected - set(seen)),
        ("cells outside the bounded-above subcomplex", set(seen) - expected),
    ):
        if cells:
            problems.append(f"{label}: " + ", ".join(signs_to_str(s) for s in sorted(cells)))
    return problems


def reference_build_dgvf(cpx):
    """``build_dgvf`` vertex by vertex, in vertex order: classify, pair the
    lower star, then validate; raises as the first vertex that fails."""
    if cpx.has_flat_cells:
        raise FlatCellError("complex has flat cells; lower stars do not cover the bounded-above subcomplex")
    pairs, critical = [], []
    for v in cpx.vertices:
        new_pairs, crit = reference_pair_lower_star(cpx, reference_classify_vertex(cpx, v))
        pairs.extend(new_pairs)
        critical += [crit] if crit is not None else []
    matching = Matching(tuple(sorted(pairs)), tuple(sorted(critical)))
    problems = reference_validate(matching, cpx)
    if problems:
        raise IncompletePairingError("; ".join(problems))
    return matching


def reference_facets(words) -> dict:
    """{word: sorted tuple of facets} by flipping each word's zeros and
    looking the result up in a dict: the reference for ``complex._facets``."""
    below = {w: [] for w in words}
    for w in words:
        zeros = [p for p, s in enumerate(w) if s == 0]
        for up in (w[:p] + (sigma,) + w[p + 1 :] for p in zeros for sigma in (-1, 1)):
            if up in below:
                below[up].append(w)
    return {w: tuple(sorted(fs)) for w, fs in below.items()}


def reference_vertex_mask(table, vertex, lp_tol: float):
    """One vertex's sign mask on one table, its system solved alone: the
    reference for ``dgvf._vertex_masks``, which solves a stack."""
    zero = np.array(vertex) == 0
    unit, unit_off = table.unit
    with contextlib.suppress(np.linalg.LinAlgError):
        if not table.const[zero].any():
            slack = unit @ np.linalg.solve(unit[zero], unit_off[zero]) - unit_off
            if not np.abs(slack[zero]).max() > lp_tol:
                bad = ~table.const & (zero != (np.array([-slack, slack]) <= lp_tol))
                bits = np.packbits(np.column_stack([bad[0], ~zero, bad[1]]), bitorder="little")
                return int.from_bytes(bits.tobytes(), "little")
    return None


def reference_index(memo: dict, cls) -> None:
    """Add one classified vertex under every word of its lower star."""
    for w in lower_star_patterns(cls.vertex, allowed_signs(cls)):
        memo.setdefault(w, []).append(cls)


def reference_flatness(cpx) -> None:
    """Flat flags by one SVD of each cell's zero set, cell by cell in word
    order: the reference for ``complex._flag_flat``'s stacked SVDs.  Raises
    FlatCellError at the first flat cell that has a vertex face."""
    n0 = cpx.n0
    cells = cpx.cells
    vertex_signs = [s for s, c in cells.items() if c.dim == 0]
    for cell in cells.values():
        if cell.dim == 0:
            continue
        g = cpx.f_affine(cell.signs)[0]
        rep = cpx.hrep(cell.signs)
        if rep.a_eq.shape[0]:
            _, _, vh = np.linalg.svd(rep.a_eq)
            basis = vh[rep.a_eq.shape[0] :]
        else:
            basis = np.eye(n0)
        proj = float(np.linalg.norm(basis @ g)) if basis.size else 0.0
        cell.flat = abs(proj) <= _FLAT_TOL * float(np.linalg.norm(g)) + 1e-30
        if cell.flat and any(is_face(v, cell.signs) for v in vertex_signs):
            raise FlatCellError(
                f"F is constant on cell {signs_to_str(cell.signs)}, which has a vertex;"
                " network is out of scope"
            )


def closure_walk_abort(net, stage, upto_layer, n0) -> None:
    """The forced-flat abort by a closure walk, the reference for
    ``complex._abort_on_forced_flats``: every word of ``stage`` with a dead
    block among layers 1..upto_layer, and their facet and closure maps (the
    dead words are closed under faces); FlatCellError at the first
    positive-dimensional one whose closure holds a vertex."""
    bounds = [0, *itertools.accumulate(layer.out_dim for layer in net.layers[:upto_layer])]
    blocks = list(zip(bounds, bounds[1:]))
    dead = {s: n0 - s.count(0) for s in stage if any(1 not in s[a:b] for a, b in blocks)}
    closures = reference_closures(dead, reference_facets(dead))
    for signs, dim in dead.items():
        if dim and closures[signs][1]:
            raise FlatCellError(
                f"layer dead on cell {signs_to_str(signs)}, which has a vertex;"
                " network is out of scope"
            )


def closure_flag_flat(cpx) -> None:
    """Flat flags with F's gradients taken one product per parent table, and
    the raise read off :func:`closure_map`: the reference for
    ``complex._flag_flat``'s stacked product and vertex-face scan."""
    n0, final, n = cpx.n0, cpx.net.final, cpx.net.total_neurons
    cells = [c for c in cpx.cells.values() if c.dim]
    s, dims = np.array([c.signs for c in cells]), np.array([c.dim for c in cells])
    prefixes, at = np.unique(s[:, : -final.in_dim], axis=0, return_inverse=True)
    tables, g = cpx.tables(prefixes.tolist()), np.empty((len(cells), n0))
    for i in range(len(prefixes)):
        g[at == i] = tables[i].f_affine(final, s[at == i, -final.in_dim :])[0]
    unit = tables.unit[0].reshape(-1, n0)  # row p of table i: row i * n + p
    for dim in set(dims.tolist()):
        sel = np.flatnonzero(dims == dim)
        proj = g[sel]
        if dim < n0:
            zeros = np.nonzero(s[sel] == 0)[1].reshape(len(sel), n0 - dim)
            basis = np.linalg.svd(unit[at[sel, None] * n + zeros])[2][:, n0 - dim :]
            proj = (basis @ g[sel, :, None])[..., 0]
        flat = _is_flat(np.linalg.norm(proj, axis=1), np.linalg.norm(g[sel], axis=1))
        for i, f in zip(sel.tolist(), flat.tolist()):
            cells[i].flat = f
    for cell in cpx.cells.values():
        if cell.flat and closure_map(cpx)[cell.signs][1]:
            raise FlatCellError(
                f"F is constant on cell {signs_to_str(cell.signs)}, which has a vertex;"
                " network is out of scope"
            )


def closure_generators(regions: dict, closure, rows):
    """Vertex points of a region of the refined complex ``regions``
    ({word: point}) with the given ``closure`` (facets, vertices,
    rays), and the vertex points and directions of its rays; None when the
    closure holds no vertex.  A ray's direction solves the parent cell's
    node-map ``rows`` at its vertex's zeros."""
    _, verts, rays = closure
    if not verts:
        return None
    n0 = rows.shape[1]
    zeros = np.array([[p for p, s in enumerate(v) if s == 0] for v, _ in rays], dtype=int)
    rhs = np.array([[e[p] for p in z] for z, (_, e) in zip(zeros, rays)], dtype=float)
    try:
        dirs = np.linalg.solve(rows[zeros.reshape(-1, n0)], rhs.reshape(-1, n0, 1))[..., 0]
    except np.linalg.LinAlgError:
        dirs = np.zeros((len(rays), n0))  # a zero-length ray: the tolerance band
    points = np.array([regions[w] for w in verts])
    return points, np.array([regions[v] for v, _ in rays]).reshape(-1, n0), dirs


def generator_pieces(gens, a, b, near):
    """(sign, point) of the pieces the hyperplane a.x = b cuts from a
    region with the given closure generators; None in the tolerance band.
    One region at a time: the reference for ``complex._closure_pieces``."""
    verts, origins, dirs = gens
    lengths = np.linalg.norm(dirs, axis=1)
    if not (lengths > 0).all():
        return None
    dirs = dirs / lengths[:, None]
    x = verts.mean(axis=0) + dirs.sum(axis=0)
    v = float(a @ x - b)
    if abs(v) <= near:
        return None
    s = 1 if v > 0 else -1
    slopes = -s * (dirs @ a)
    if (np.abs(slopes) <= near).any():
        return None
    if (slopes > 0).any():
        i = int(np.argmax(slopes))
        q = origins[i] + max(0.0, 1.0 + s * float(a @ origins[i] - b)) / slopes[i] * dirs[i]
    else:
        q = verts[int(np.argmax(-s * (verts @ a - b)))]
    u = -s * float(a @ q - b)
    if abs(u) <= near or float(np.abs([x, q]).max()) > _FAR:
        return None
    return _cut(x, s, v, q, u, near)


# -- per-parent build steps that the stacked ones replaced: references ------


def reference_node_maps(net, signs) -> NodeMaps:
    """Node-map table of one word, layer by layer on 1-D arrays, with its
    row norms taken row by row: the reference for the stacked
    ``network.node_maps``."""
    jac, bias = np.eye(net.n0), np.zeros(net.n0)
    rows, offsets, used = [], [], 0
    for layer in net.layers:
        rows.append(layer.weights @ jac)
        offsets.append(layer.weights @ bias + layer.bias)
        if used == len(signs):
            break
        active = (np.asarray(signs[used : used + layer.out_dim]) > 0).astype(float)
        jac = rows[-1] * active[:, None]
        bias = offsets[-1] * active
        used += layer.out_dim
    table = NodeMaps(np.concatenate(rows), np.concatenate(offsets))
    table.__dict__["norms"] = np.sqrt([row.dot(row) for row in table.rows])  # const, unit follow
    return table


def reference_consistent(a_eq, b_eq) -> bool:
    """Residual test of one over-determined zero set by ``np.linalg.lstsq``:
    the reference for ``complex._solvable``, which tests a stack."""
    sol, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
    resid = float(np.abs(a_eq @ sol - b_eq).max())
    return resid <= _RANK_TOL * max(1.0, float(np.abs(b_eq).max()))


def reference_accept(net, words, points, table, lp_tol: float) -> dict:
    """{word: interior point} of the sorted candidate ``words`` of one
    parent cell, with its node-map ``table``, that name cells; raises the
    first genericity error in word order.  A word builds its H-representation
    for the witness LP, when its point falls short, or past n0 zeros.  One
    parent at a time, re-solving every witness LP: the reference for
    ``complex._accept``, which takes a whole layer in one pass."""
    n0 = net.n0
    s = np.array(words, dtype=float)
    offs, const, (unit, unit_off) = table.offsets, table.const, table.unit
    bad = (const & ((s * offs <= 0) | (np.abs(offs) <= _ZERO_OFFSET))).any(axis=1)
    zero = s == 0
    zeros = zero.sum(axis=1)
    v = points @ unit.T - unit_off
    slack = np.where(zero | const, np.inf, s * v).min(axis=1)
    resid = np.where(zero & ~const, np.abs(v), 0.0).max(axis=1)
    clears = (slack > _CLEAR_MARGIN * lp_tol) & (resid <= _SAMPLE_RESID * lp_tol)
    dependent = np.zeros(len(words), dtype=bool)
    for z in range(1, n0 + 1):
        pick = np.flatnonzero(~bad & (zeros == z))
        if pick.size:
            stack = unit[np.nonzero(zero[pick])[1].reshape(-1, z)]
            dependent[pick] = np.linalg.matrix_rank(stack, tol=_RANK_TOL) < z
    out = {}
    for word, x, z, ok, sure, dep in zip(words, points, zeros, ~bad, clears, dependent):
        if z > n0 or not (ok and sure):
            rep = _hrep_for(net, word, table)
            if rep is None or (z > n0 and not reference_consistent(rep.a_eq, rep.b_eq)):
                continue
            if not sure:
                x = _witness(rep, lp_tol)
                if x is None:
                    continue
        if z > n0:
            raise GenericityError(f"feasible pattern {signs_to_str(word)} has {z} > n0 zeros")
        if dep:
            raise GenericityError(f"dependent zero-set equations on {signs_to_str(word)}")
        out[word] = x
    return out


# -- the tableau simplex that ``lp_solve`` replaced: the LP reference --------

PIVOT_TOL = 1e-9
_HARD_TOL = 1e-12
_MAX_ITER = 20000


def reference_pivot(tableau, row, col):
    """:func:`rank_one_pivot` row by row: the reference for its rank-1 update."""
    tableau[row, :] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r, :] -= tableau[r, col] * tableau[row, :]


def rank_one_pivot(tableau, row, col):
    """Scale ``row`` to a unit entry in ``col`` and clear that column from
    every other row of the tableau, in place, by one rank-1 update."""
    tableau[row, :] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    hit = np.flatnonzero(np.abs(factors) > 0.0)
    tableau[hit] -= np.outer(factors[hit], tableau[row])


def _bland_min(tableau, basis, ncols):
    """Run Bland-rule simplex on a minimization tableau in place.

    tableau has shape (m+1, ncols+1); last row holds reduced costs, last
    column the rhs.  Returns "optimal" or "unbounded" (entering column
    with no positive entry); ArithmeticError on a pivot below _HARD_TOL.
    """
    m = tableau.shape[0] - 1
    for _ in range(_MAX_ITER):
        costs = tableau[-1, :ncols]
        entering = -1
        for j in range(ncols):
            if costs[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        col = tableau[:m, entering]
        rows = np.nonzero(col > PIVOT_TOL)[0]
        if rows.size == 0:
            if np.any(col > _HARD_TOL):
                raise ArithmeticError("only degenerate pivots available in ratio test")
            return "unbounded"
        ratios = tableau[rows, -1] / col[rows]
        best = ratios.min()
        # Bland: among minimal ratios, leave the row whose basic variable
        # has the smallest index.
        candidates = rows[ratios <= best + _HARD_TOL]
        leaving = min(candidates, key=lambda r: basis[r])
        if abs(tableau[leaving, entering]) < _HARD_TOL:
            raise ArithmeticError("pivot magnitude below hard threshold")
        rank_one_pivot(tableau, leaving, entering)
        basis[leaving] = entering
    raise ArithmeticError("simplex iteration limit exceeded")


def reference_simplex(problem: LpProblem, feas_tol: float = FEAS_TOL) -> LpResult:
    """Two-phase dense tableau simplex with Bland's rule: the reference for
    ``lp_solve``, with its status, value and tight set.

    Free variables are split x = u - w with u, w >= 0; each >= row gets a
    surplus variable; phase 1 minimizes the sum of one artificial per row.
    """
    c = problem.objective
    n = c.shape[0]
    n_eq = problem.a_eq.shape[0]
    n_ge = problem.a_ge.shape[0]
    m = n_eq + n_ge

    if m == 0:
        # Unconstrained: optimal only for a zero objective.
        if np.all(np.abs(c) <= PIVOT_TOL):
            return LpResult("optimal", 0.0, np.zeros(n), ())
        return LpResult("unbounded")

    # Standard-form columns: u (n), w (n), surplus (n_ge).
    ncols = 2 * n + n_ge
    A = np.zeros((m, ncols))
    b = np.zeros(m)
    A[:n_eq, :n] = problem.a_eq
    A[:n_eq, n : 2 * n] = -problem.a_eq
    b[:n_eq] = problem.b_eq
    A[n_eq:, :n] = problem.a_ge
    A[n_eq:, n : 2 * n] = -problem.a_ge
    for i in range(n_ge):
        A[n_eq + i, 2 * n + i] = -1.0
    b[n_eq:] = problem.b_ge

    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: artificial basis.
    tableau = np.zeros((m + 1, ncols + m + 1))
    tableau[:m, :ncols] = A
    tableau[:m, ncols : ncols + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, ncols : ncols + m] = 1.0
    tableau[-1, :] -= tableau[:m, :].sum(axis=0)
    basis = [ncols + i for i in range(m)]

    _bland_min(tableau, basis, ncols + m)
    if -tableau[-1, -1] > feas_tol:
        return LpResult("infeasible")

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for r in range(m):
        if basis[r] < ncols:
            keep.append(r)
            continue
        row = tableau[r, :ncols]
        pivots = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
        if pivots.size == 0:
            continue  # redundant constraint
        j = int(pivots[0])
        rank_one_pivot(tableau, r, j)
        basis[r] = j
        keep.append(r)

    rows = keep
    work = np.zeros((len(rows) + 1, ncols + 1))
    work[: len(rows), :ncols] = tableau[rows, :ncols]
    work[: len(rows), -1] = tableau[rows, -1]
    basis = [basis[r] for r in rows]

    # Phase 2 costs: minimize -(c.u - c.w).
    cost = np.zeros(ncols)
    cost[:n] = -c
    cost[n : 2 * n] = c
    work[-1, :ncols] = cost
    for r, j in enumerate(basis):
        if abs(cost[j]) > 0.0:
            work[-1, :] -= cost[j] * work[r, :]

    status = _bland_min(work, basis, ncols)
    if status == "unbounded":
        return LpResult("unbounded")

    y = np.zeros(ncols)
    for r, j in enumerate(basis):
        y[j] = work[r, -1]
    return _optimum(problem, y[:n] - y[n : 2 * n], feas_tol)


# -- dense mod-2 homology: the reference for homology's bitset reduction -----


@dataclass(frozen=True)
class DenseChain:
    """Cells per dimension plus mod-2 boundary matrices.

    ``boundary[k]`` has shape (#cells of dim k-1, #cells of dim k); the
    dim-0 boundary is the empty matrix.
    """

    cells_by_dim: tuple  # tuple of tuples of cell keys
    boundary: tuple  # tuple of uint8 arrays


def _key_order(key):
    return (0,) if key == BASEPOINT else (1, key)


def dense_chain(keys, dim_of, facets_of, max_dim) -> DenseChain:
    selected = set(keys)
    by_dim = [[] for _ in range(max_dim + 1)]
    for key in keys:
        by_dim[dim_of(key)].append(key)
    for bucket in by_dim:
        bucket.sort(key=_key_order)
    index = [
        {key: i for i, key in enumerate(bucket)} for bucket in by_dim
    ]
    boundary = [np.zeros((0, len(by_dim[0])), dtype=np.uint8)]
    for k in range(1, max_dim + 1):
        mat = np.zeros((len(by_dim[k - 1]), len(by_dim[k])), dtype=np.uint8)
        for j, key in enumerate(by_dim[k]):
            for f in facets_of(key):
                if f in selected:
                    mat[index[k - 1][f], j] ^= 1
        boundary.append(mat)
    return DenseChain(tuple(tuple(b) for b in by_dim), tuple(boundary))


def densify(chain) -> DenseChain:
    """Dense boundary matrices of a library ``ChainComplex``."""
    dim_of = {key: k for k, bucket in enumerate(chain.cells_by_dim) for key in bucket}
    return dense_chain(
        list(dim_of), dim_of.__getitem__, chain.facets.__getitem__, len(chain.cells_by_dim) - 1
    )


def sublevel_chain(cc, level) -> DenseChain:
    """Cells of the compactified complex with f_max <= level, the basepoint
    (value -inf) included."""
    keys = [k for k in cc.sorted_keys() if cc.f_max[k] <= level]
    return dense_chain(keys, cc.dim, lambda k: cc.facets[k], cc.n0)


def rank_mod2(mat: np.ndarray) -> int:
    """Rank over GF(2) by row reduction on a uint8 copy."""
    m = mat.copy()
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        pivot = -1
        for r in range(rank, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot < 0:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        hits = np.nonzero(m[:, col])[0]
        for r in hits:
            if r != rank:
                m[r, :] ^= m[rank, :]
        rank += 1
        if rank == rows:
            break
    return rank


def dense_betti(chain: DenseChain) -> tuple:
    """Mod-2 Betti numbers: beta_k = dim ker d_k - rank d_(k+1)."""
    ranks = [rank_mod2(b) for b in chain.boundary]
    out = []
    for k, bucket in enumerate(chain.cells_by_dim):
        kernel = len(bucket) - ranks[k]
        image = ranks[k + 1] if k + 1 < len(ranks) else 0
        out.append(kernel - image)
    return tuple(out)


def relative_ranks(cc, level: float, prev_level: float) -> tuple:
    """Ranks of H_*(C_level, C_prev) over Z/2 via the quotient complex."""
    keys = [
        k for k in cc.sorted_keys() if prev_level < cc.f_max[k] <= level
    ]
    chain = dense_chain(keys, cc.dim, lambda k: cc.facets[k], cc.n0)
    return dense_betti(chain)


def dense_perfectness(cc, matching) -> list:
    """``(level, expected, critical_counts, pass)`` at every vertex value,
    by a scan over every cell per level."""
    paired = {s for pair in matching.pairs for s in pair}
    crit = [
        (cc.f_max[c], cc.dim(c)) for c in cc.cells if c not in paired
    ]
    records = []
    prev = float("-inf")
    for level in cc.vertex_values:
        counts = [0] * (cc.n0 + 1)
        for value, dim in crit:
            if prev < value <= level:
                counts[dim] += 1
        expected = relative_ranks(cc, level, prev)
        records.append((level, tuple(expected), tuple(counts), tuple(counts) == tuple(expected)))
        prev = level
    return records
