"""Discrete gradient vector fields on the compactified lower-star complex.

One rule, ``_partner``, pairs every lower star.  A regular vertex toggles
its first flow-through axis between 0 and the descending sign, pairing its
lower star completely.  For a critical vertex of index k the lower star is
the set of sign words over its k descending axes; the first of those axes
whose entry is not -1 is toggled (0 <-> +1), and the all-minus word is the
unique critical k-cell.  The union over all vertices, with the basepoint *
of the one-point compactification, is a relatively perfect discrete
gradient vector field.  ``build_dgvf`` applies the rule to every vertex at
once on the complex's star table: ``_lower_stars`` marks each lower star
from the vertices' descent flags, and a word's partner is the star word one
step along its toggled axis.  ``Matching.validate`` checks the cells' ids.

``local_check`` applies the same rule to a list of cells without the
global complex, in one stacked pass: a cell's lower-star vertex is the max
of F over its closure, either a vertex word of the list, certified by the
point test ``_certify`` and classified from one stacked edge solve, or
found by one LP, the only step that builds an H-representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex import CanonicalComplex, _cell_problem, _check_lp_tol, _constant_rows, _edge_slopes, _edge_slots
from .complex import _facets, _hrep_for, _keys, _lookup, _raise_anew, _solve_each, _stars
from .errors import (
    DimensionError,
    FlatCellError,
    GenericityError,
    IncompletePairingError,
    MissingEdgeError,
    UnboundedCellError,
)
from .lp import lp_solve
from .network import NodeMaps, ReluNetwork, Signs, node_maps, signs_to_str
# classify_vertex stays bound here, where perfbench's tracer wraps it.
from .orientation import VertexClassification, classifications, classify_signs, classify_vertex

#: Identifier of the compactification basepoint (a critical 0-cell at -inf).
BASEPOINT = "*"


@dataclass(frozen=True)
class Matching:
    """A discrete vector field: pairs (lower, upper) plus critical cells."""

    pairs: tuple  # ((lower signs, upper signs), ...) sorted
    critical: tuple  # (signs, ...) sorted, basepoint excluded

    def lower_to_upper(self) -> dict:
        return {lo: up for lo, up in self.pairs}

    def upper_to_lower(self) -> dict:
        return {up: lo for lo, up in self.pairs}

    def critical_set(self) -> set:
        return set(self.critical) | {BASEPOINT}

    def to_json_dict(self) -> dict:
        return {
            "pairs": [[signs_to_str(lo), signs_to_str(up)] for lo, up in self.pairs],
            "critical": [signs_to_str(c) for c in self.critical],
            "basepoint": True,
        }

    def validate(self, cpx: CanonicalComplex) -> list:
        """Invariant violations (empty when valid), from the cells' ids: each
        pair's, the cells used twice, then the coverage."""
        names, rows, _, index = cpx.words()
        index = dict(index)  # a critical word that is no cell takes an id past the cells'.
        lo, up = np.array([[index.get(w, -1) for w in p] for p in self.pairs], dtype=int).reshape(-1, 2).T
        crit = np.array([index.setdefault(w, len(index)) for w in self.critical], dtype=int)
        out, step, face = (lo < 0) | (up < 0), np.zeros(len(lo), dtype=bool), np.ones(len(lo), dtype=bool)
        zeros, a, b = (rows == 0).sum(axis=1), rows[lo[~out]], rows[up[~out]]
        step[~out], face[~out] = zeros[lo[~out]] != zeros[up[~out]] + 1, ((a == b) | (a == 0)).all(axis=1)
        problems = []
        for i in np.flatnonzero(out | step | ~face).tolist():
            a, b = map(signs_to_str, self.pairs[i])
            if out[i]:
                problems.append(f"pair ({a}, {b}) not in complex")
                continue
            if step[i]:
                problems.append(f"pair ({a}, {b}) dimension step != 1")
            if not face[i]:
                problems.append(f"{a} is not a facet of {b}")
        words, seen = list(index), np.concatenate([np.column_stack([lo, up])[~out].ravel(), crit])
        ids, first = np.unique(seen, return_index=True)
        twice = np.bincount(seen, minlength=len(words))[ids] > 1
        for c in ids[twice][np.argsort(first[twice])].tolist():
            problems.append(f"cell {signs_to_str(words[c])} used more than once")
        used, inside = np.zeros(len(words), dtype=bool), np.zeros(len(words), dtype=bool)
        used[seen], inside[: len(names)] = True, cpx.f_maxes() < np.inf
        for label, cells in (
            ("uncovered bounded-above cells", inside & ~used),
            ("cells outside the bounded-above subcomplex", used & ~inside),
        ):
            if cells.any():
                listed = sorted(words[c] for c in np.flatnonzero(cells).tolist())
                problems.append(f"{label}: " + ", ".join(map(signs_to_str, listed)))
        return problems


def _partner(cls: VertexClassification, signs: Signs):
    """The pairing rule: (role, partner) of a lower-star cell of ``cls``.

    A regular vertex toggles its flow axis between 0 and the descending
    sign.  A critical vertex toggles its first descending axis whose entry
    is not -1 between 0 and +1; the all-minus word is its critical cell.
    """
    if cls.kind == "regular":
        p, sigma = cls.flow_axis, cls.flow_sign
    else:
        p = next((q for q in cls.descending_axes if signs[q] != -1), None)
        if p is None:
            return "critical", None
        sigma = 1
    if signs[p] == 0:
        return "lower", signs[:p] + (sigma,) + signs[p + 1 :]
    return "upper", signs[:p] + (0,) + signs[p + 1 :]


def _lower_stars(t, desc) -> np.ndarray:
    """lower[i, k]: star word k (t[k], :func:`_stars` order) of vertex i is in
    its lower star: on every axis 0, or -1 or +1 where that edge descends."""
    return ((t == 0) | desc[:, np.arange(t.shape[1]), (t > 0).astype(int)]).all(axis=2)


def build_dgvf(cpx: CanonicalComplex) -> Matching:
    """Union of the lower-star pairings of all vertices, read at once off the
    star table (:meth:`CanonicalComplex._star_cells`): :func:`_partner`'s
    rule, where the partner of star word k along axis j is star word
    k +- 3^(n0-1-j).  Raises what the vertices taken one by one would: at the
    first vertex that fails, a missing edge, else its edge-slope error, else
    its first missing lower-star word (axes by position, signs 0, -1, +1)."""
    if cpx.has_flat_cells:
        raise FlatCellError("complex has flat cells; lower stars do not cover the bounded-above subcomplex")
    (t, at, _, stars), names, verts = cpx._star_cells(), cpx.words()[0], list(cpx.vertices)
    (_, desc, errors, _), edges = cpx._slopes(), _edge_slots(cpx.n0)
    step, lower = 3 ** np.arange(cpx.n0 - 1, -1, -1), _lower_stars(t, desc)
    failed = np.array([e is not None for e in errors], dtype=bool)
    bad = (at[:, edges] < 0).any(axis=1) | failed | (lower & (at < 0)).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        v, missing = verts[i], at[i, edges] < 0
        if missing.any():
            e = stars[i, edges[np.argmax(missing)]]
            raise MissingEdgeError(f"expected edge {signs_to_str(e)} at vertex {signs_to_str(v)} is missing")
        _raise_anew(errors[i])
        k = np.flatnonzero(lower[i] & (at[i] < 0))
        w = stars[i, k[np.argmin(((-t[k]) % 3) @ step)]]
        raise IncompletePairingError(f"lower-star cell {signs_to_str(w)} missing from the complex")
    critical, _, axis, sign = classify_signs(desc)
    # Each star word's toggled axis q: the flow axis, or a critical vertex's
    # first descending axis not at -1, which toggles to +1.
    first = (desc[..., 0] & desc[..., 1])[:, None] & (t != -1)
    q = np.where(critical[:, None], np.argmax(first, axis=2), axis[:, None])
    crit = lower & critical[:, None] & ~first.any(axis=2)
    vi, k = np.nonzero(lower & ~crit & (t[np.arange(len(t)), q] == 0))
    lo, up = at[vi, k], at[vi, k + np.where(critical, 1, sign)[vi] * step[q[vi, k]]]
    pairs = tuple((names[a], names[b]) for a, b in sorted(zip(lo.tolist(), up.tolist())))
    matching = Matching(pairs, tuple(names[c] for c in sorted(at[crit].tolist())))
    if problems := matching.validate(cpx):
        raise IncompletePairingError("; ".join(problems))
    return matching


@dataclass(frozen=True)
class CompactifiedComplex:
    """Bounded-above cells plus the basepoint *, with facet incidence.

    The basepoint is appended to the facet list of every compactified
    unbounded 1-cell (rays gain * as their second endpoint).  A vertex-free
    line closes up through * at both ends, so its mod-2 incidence with * is
    zero and nothing is appended.  For unbounded cells of dimension >= 2 the
    basepoint is in the closure but is not a codimension-1 face.
    """

    n0: int
    cells: dict  # signs -> Cell (bounded above only)
    facets: dict  # signs -> tuple of facet keys (signs and possibly BASEPOINT)
    f_max: dict  # signs -> float; BASEPOINT -> -inf
    vertex_values: tuple

    def dim(self, key) -> int:
        return 0 if key == BASEPOINT else self.cells[key].dim

    def sorted_keys(self) -> list:
        return [BASEPOINT] + sorted(self.cells)


def compactify(cpx: CanonicalComplex) -> CompactifiedComplex:
    """One-point compactification of the bounded-above subcomplex, by id off
    the word index and f_max array.  A face of a bounded-above cell is
    bounded above, so the kept cells' facet map gives their full lists."""
    (names, rows, *_), f_max = cpx.words(), cpx.f_maxes()
    kept = np.flatnonzero(f_max < np.inf)
    words = [names[c] for c in kept.tolist()]
    facets = {BASEPOINT: ()}
    for signs, cell_facets in _facets(words, rows[kept]).items():
        if len(cell_facets) == 1 and cpx.cells[signs].dim == 1:  # a ray; vertices are all kept
            cell_facets += (BASEPOINT,)
        facets[signs] = cell_facets
    return CompactifiedComplex(
        n0=cpx.n0,
        cells={s: cpx.cells[s] for s in words},
        facets=facets,
        f_max={BASEPOINT: float("-inf"), **dict(zip(words, f_max[kept].tolist()))},
        vertex_values=tuple(sorted(v.value for v in cpx.vertices.values())),
    )


def is_acyclic(matching: Matching, cc: CompactifiedComplex):
    """Check for closed V-paths; returns (flag, witness-path-or-None).

    The V-path graph has one node per pair; pair (C, D) steps to pair
    (C', D') when C' != C is a facet of D.  Depth-first from each unvisited
    pair in word order, steps in word order: a step back onto the trail
    closes a V-path, whose pairs are the witness.
    """
    lower_of = matching.lower_to_upper()
    succ = {lo: sorted(f for f in cc.facets.get(up, ()) if f != lo and f in lower_of)
            for lo, up in matching.pairs}
    done, on_trail = set(), {}  # on_trail: the trail's nodes, in trail order
    for root in sorted(succ):
        if root in done:
            continue
        stack, on_trail[root] = [iter(succ[root])], None
        while stack:
            nxt = next((f for f in stack[-1] if f not in done), None)
            if nxt is None:
                stack.pop()
                done.add(on_trail.popitem()[0])
            elif nxt in on_trail:
                cycle = list(on_trail)[list(on_trail).index(nxt) :]
                return False, [w for lo in cycle for w in (lo, lower_of[lo])]
            else:
                stack.append(iter(succ[nxt]))
                on_trail[nxt] = None
    return True, None


@dataclass(frozen=True)
class PairAssignment:
    """Outcome of the local pairing for a single cell."""

    cell: Signs
    role: str  # "lower" | "upper" | "critical"
    partner: Signs | None
    owner_vertex: Signs
    owner_index: int | None  # critical index of the owner, None when regular


def _certify(tables: NodeMaps, tid, rows, verts, pairs, lp_tol: float) -> np.ndarray:
    """ok[j]: of the index arrays ``pairs`` = (i, c), the vertex word
    verts[i[j]] is certified as the unique max of F over the closure of the
    cell word rows[c[j]], on its table tables[tid[c[j]]] of a stack of
    node-map tables.

    The table's unit rows at the vertex's zeros meet in one point per
    (vertex, table), all solved in one stack.  A pair passes when none of
    those rows is constant, the system is regular, the point meets them
    within ``lp_tol``, every zero of the cell is a zero of the vertex, and,
    of the cell's live rows with nonzero sign s, exactly those the vertex
    zeroes are tight: s * slack <= ``lp_tol``.  The point is then a simple
    vertex of the closure, F falls along every edge leaving it into the
    cell, and F is affine on the convex cell, so it is the point the LP
    would return.  Being the unique max, it is the only vertex to pass.
    """
    (i, c), n_t = pairs, len(tables.offsets)
    key, at = np.unique(i * n_t + tid[c], return_inverse=True)
    (unit, unit_off), const = (u[key % n_t] for u in tables.unit), tables.const[key % n_t]
    zero, n0 = verts[key // n_t] == 0, unit.shape[2]
    x, singular = _solve_each(unit[zero].reshape(-1, n0, n0), unit_off[zero].reshape(-1, n0))
    with np.errstate(all="ignore"):
        slack = (unit @ x[..., None])[..., 0] - unit_off
        resid = np.where(zero, np.abs(slack), -np.inf).max(axis=1)
        # allowed[k, p, s + 1]: a cell may take sign s at row p.
        allowed = np.stack([const | (zero == (-slack <= lp_tol)), zero, const | (zero == (slack <= lp_tol))], axis=2)
    good = ~singular & ~(const & zero).any(axis=1) & ~(resid > lp_tol)
    return good[at] & allowed[at[:, None], np.arange(rows.shape[1]), rows[c] + 1].all(axis=1)


def _lp_vertex(net: ReluNetwork, signs: Signs, table: NodeMaps, lp_tol: float) -> VertexClassification:
    """The classified vertex where an LP finds the max of F over the cell
    ``signs``, the only step that builds an H-representation; the structured
    error of an unbounded or infeasible cell, of a max at no simple vertex,
    of the vertex's edges, or of a cell outside its lower star."""
    rep = _hrep_for(net, signs, table)
    grad = table.f_affine(net.final, [signs[-net.final.in_dim :]])[0][0]
    res = lp_solve(_cell_problem(rep, grad), feas_tol=lp_tol)
    if res.status == "unbounded":
        raise UnboundedCellError(f"F is unbounded above on cell {signs_to_str(signs)}")
    if not res.optimal:
        raise GenericityError(f"cell {signs_to_str(signs)} is infeasible")
    tight = {rep.ge_positions[r] for r in res.tight}
    v = tuple(0 if p in tight else s for p, s in enumerate(signs))
    if v.count(0) != net.n0:
        raise GenericityError(f"LP maximum over {signs_to_str(signs)} is not attained at a simple vertex")
    _, desc, errors = _edge_slopes(net, [v])
    _raise_anew(errors[0])
    row = np.array([v], dtype=np.int8)
    t, star = _stars(row, np.nonzero(row == 0)[1].reshape(1, -1))
    if not (star[0][_lower_stars(t, desc)[0]] == signs).all(axis=1).any():
        raise IncompletePairingError(f"cell {signs_to_str(signs)} is not in the lower star of its LP vertex")
    return classifications([v], desc)[0]


def local_check(net: ReluNetwork, words, lp_tol: float = 1e-7) -> list:
    """:class:`PairAssignment` of each bounded-above cell of the sign words
    ``words``, in word order, without the complex or its matching.

    A cell's lower-star vertex is the max of F over its closure.  In one
    pass: one :func:`node_maps` call over the words' parents, the
    constant-row test of every word, one :func:`_certify` call over every
    (vertex word, star word) pair, and one :func:`_edge_slopes` call that
    classifies the vertices that pass on their own word (one whose edges
    fail is left out).  A cell then raises its constant-row error, or takes
    the first such vertex, in word order, that passed on it and whose lower
    star holds it, else the one an LP finds (:func:`_lp_vertex`);
    :func:`_partner`, the rule :func:`build_dgvf` uses, pairs it.  A
    malformed word anywhere raises before any cell's structured error.
    """
    _check_lp_tol(lp_tol)
    words = [tuple(w) for w in words]
    for w in words:
        if len(w) != net.total_neurons:
            raise DimensionError(f"expected {net.total_neurons} sign entries, got {len(w)}")
        if not set(w) <= {-1, 0, 1}:
            raise ValueError("sign entries must be -1, 0 or +1")
    if not words:
        return []
    rows = np.array(words, dtype=np.int8)
    keys, first, cell = np.unique(_keys(rows), return_index=True, return_inverse=True)
    rows, n_m = rows[first], net.final.in_dim  # sorted, so each parent's words are a run
    new = np.append(True, (rows[1:, :-n_m] != rows[:-1, :-n_m]).any(axis=1))
    tables, tid = node_maps(net, rows[new, :-n_m]), np.cumsum(new) - 1
    some = np.flatnonzero(has_const := tables.const.any(axis=1)[tid])
    faults = _constant_rows(net, rows[some], tables.offsets[tid[some]], tables.const[tid[some]])
    faults = {int(some[j]): f for j, f in faults.items()}
    cand = np.flatnonzero(((rows == 0).sum(axis=1) == net.n0) & ~has_const)
    t, stars = _stars(rows[cand], np.nonzero(rows[cand] == 0)[1].reshape(-1, net.n0))
    at = _lookup(keys, stars)
    i, k = np.nonzero(at >= 0)
    passed = np.zeros(at.shape, dtype=bool)
    passed[i, k] = _certify(tables, tid, rows, rows[cand], (i, at[i, k]), lp_tol)
    certified = np.flatnonzero(passed[:, len(t) // 2])  # star word t = 0: the vertex itself
    verts = [tuple(v) for v in rows[cand[certified]].tolist()]
    _, desc, errors = _edge_slopes(net, verts)
    kept = [j for j, e in enumerate(errors) if e is None]
    classes = classifications([verts[j] for j in kept], desc[kept])
    vi, k = np.nonzero(_lower_stars(t, desc[kept]) & passed[certified[kept]])
    owner = np.full(len(rows), len(classes))
    np.minimum.at(owner, at[certified[kept]][vi, k], vi)
    out = []
    for w, u in zip(words, cell.tolist()):
        if u in faults:
            raise faults[u] or GenericityError(f"cell {signs_to_str(w)} is infeasible")
        cls = classes[owner[u]] if owner[u] < len(classes) else _lp_vertex(net, w, tables[tid[u]], lp_tol)
        role, partner = _partner(cls, w)
        out.append(PairAssignment(w, role, partner, cls.vertex, cls.index))
    return out


def local_pair(net: ReluNetwork, signs: Signs, lp_tol: float = 1e-7) -> PairAssignment:
    """Pairing of one bounded-above cell without building the complex:
    :func:`local_check` of the one word."""
    return local_check(net, [signs], lp_tol)[0]
