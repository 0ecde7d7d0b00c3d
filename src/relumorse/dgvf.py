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

``local_pair`` applies the same rule to a single cell without the global
complex: its lower-star vertex is the max of F over its closure, either a
classified vertex certified by a sign check against its point (a bitmask of
the signs its slack rows rule out, checked with one integer AND) or found
by one LP, the only step that builds an H-representation.  A 0-cell is its
own closure: ``seed_vertices`` certifies the vertex cells of a check in one
stacked solve, classifies them from one stacked edge solve, and indexes
them by their lower stars, from the same ``_lower_stars``, on the oracle's
own tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex import CanonicalComplex, _cell_problem, _constant_rows_hold, _hrep_for
from .complex import _edge_slopes, _facets, _slopes_of, _solve_each, _stars
from .errors import (
    DimensionError,
    FlatCellError,
    GenericityError,
    IncompletePairingError,
    MissingEdgeError,
    UnboundedCellError,
)
from .lp import lp_solve
from .network import ReluNetwork, Signs, node_maps, signs_to_str
# classify_vertex stays bound here, where perfbench's tracer wraps it.
from .orientation import VertexClassification, classifications, classify_signs, classify_vertex, descents

#: Identifier of the compactification basepoint (a critical 0-cell at -inf).
BASEPOINT = "*"
# Octal digit of a sign at its row in :func:`_bits`.
_OCTAL = {-1: "1", 0: "2", 1: "4"}


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
    step = 3 ** np.arange(cpx.n0 - 1, -1, -1)
    edges = len(t) // 2 + np.outer(step, [-1, 1]).ravel()  # the 2*n0 edges, in _edges_at order
    slopes = [cpx._slopes()[v] for v in verts]
    desc, failed = descents(slopes, cpx.n0), np.array([not isinstance(e, dict) for e in slopes], dtype=bool)
    lower = _lower_stars(t, desc)
    bad = (at[:, edges] < 0).any(axis=1) | failed | (lower & (at < 0)).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        v, missing = verts[i], at[i, edges] < 0
        if missing.any():
            e = stars[i, edges[np.argmax(missing)]]
            raise MissingEdgeError(f"expected edge {signs_to_str(e)} at vertex {signs_to_str(v)} is missing")
        cpx.edge_slopes(v)  # raises the error of its edges
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


def _vertex_masks(tables: list, vertices: list, lp_tol: float) -> list:
    """Bitmask, bit 3p + s + 1, of the signs s that a cell may not take at row
    p, for each vertex word on its node-map table, read off the point where
    the unit rows at its zeros meet (all in one stacked solve): 0 where the
    vertex has no zero and, on a live row, s = +1 or -1 where being tight,
    s * slack <= ``lp_tol``, is not being a zero.  None when a zero row is
    constant, the rows are singular or the point misses them by over lp_tol."""
    if not vertices:
        return []
    unit, unit_off = (np.stack(u) for u in zip(*(t.unit for t in tables)))
    const, zero, n0 = np.stack([t.const for t in tables]), np.array(vertices) == 0, unit.shape[2]
    x, singular = _solve_each(unit[zero].reshape(-1, n0, n0), unit_off[zero].reshape(-1, n0))
    with np.errstate(all="ignore"):
        slack = (unit @ x[..., None])[..., 0] - unit_off
        resid = np.where(zero, np.abs(slack), -np.inf).max(axis=1)
        bad = ~const[:, None] & (zero[:, None] != (np.stack([-slack, slack], axis=1) <= lp_tol))
    bits = np.stack([bad[:, 0], ~zero, bad[:, 1]], axis=2).reshape(len(zero), -1)
    bits = np.packbits(bits, axis=1, bitorder="little")
    keep = (~singular & ~(const & zero).any(axis=1) & ~(resid > lp_tol)).tolist()
    return [int.from_bytes(b.tobytes(), "little") if k else None for b, k in zip(bits, keep)]


def _keep_masks(todo: list, lp_tol: float) -> None:
    """Keep in ``_tables`` entries the :func:`_vertex_masks` that the (vertex, entry) pairs ``todo`` lack."""
    todo = list({(v, id(e)): (v, e) for v, e in todo if v not in e[1]}.values())
    for (v, e), mask in zip(todo, _vertex_masks([e[0] for _, e in todo], [v for v, _ in todo], lp_tol)):
        e[1][v] = mask


def _bits(signs: Signs) -> int:
    """A cell word as one bit per row at its sign: bit 3p + s + 1, read as
    the octal digit 1, 2 or 4 at place p."""
    return int("".join(map(_OCTAL.__getitem__, reversed(signs))), 8)


def _certified_vertex(signs: Signs, entry, candidates, lp_tol: float):
    """The one of the classified vertices ``candidates``, whose lower stars
    hold the cell ``signs``, certified as the unique max of F over the
    cell's closure, else None.  ``entry`` is the cell's (node-map table,
    {vertex: :func:`_vertex_masks` entry}) in ``local_pair``'s ``_tables``,
    the candidates' masks kept there on first use.

    A candidate passes when the table's unit rows at its zeros meet in a
    point within ``lp_tol`` where, of the cell's live rows with nonzero
    sign s_p, exactly those it zeroes are tight: s_p * slack_p <= ``lp_tol``.
    The point is then a simple vertex of the closure, F falls along every
    edge leaving it into the cell, and F is affine on the convex cell, so it
    is the point the LP would return.  Being the unique max, it is the only
    candidate to pass.
    """
    word, masks = _bits(signs), entry[1]
    for cls in candidates:
        if cls.vertex not in masks:
            _keep_masks([(c.vertex, entry) for c in candidates], lp_tol)
        if masks[cls.vertex] is not None and not word & masks[cls.vertex]:
            return cls
    return None


def _entry(net: ReluNetwork, tables: dict, signs: Signs) -> tuple:
    """The ``_tables`` entry of a cell's parent, made on first use."""
    prefix = signs[: -net.layers[-1].out_dim]
    if prefix not in tables:
        tables[prefix] = (node_maps(net, prefix), {})
    return tables[prefix]


def _index(memo: dict, vertices: list, desc) -> None:
    """Classify the vertex words ``vertices`` from their :func:`descents`
    ``desc`` and add each under every word of its lower star."""
    if vertices:
        verts = np.array(vertices, dtype=np.int8)
        t, stars = _stars(verts, np.nonzero(verts == 0)[1].reshape(len(verts), -1))
        for cls, star, lower in zip(classifications(vertices, desc), stars, _lower_stars(t, desc)):
            for w in map(tuple, star[lower].tolist()):
                memo.setdefault(w, []).append(cls)


def seed_vertices(net: ReluNetwork, words, classified: dict, tables: dict, lp_tol: float = 1e-7):
    """Classify, in stacked passes, the vertex cells among ``words`` that
    certify in closed form, and index them in ``classified``, the memo that
    ``local_pair`` takes with its ``tables`` as ``_classified`` and ``_tables``.

    A 0-cell is its own closure, so a word with n0 zeros is certified when
    its table has no constant row and it passes the point test of
    :func:`_certified_vertex` on it.  One :func:`_edge_slopes` call
    classifies all of them.  A word that fails the test, or whose edges
    fail, is left out: ``local_pair``'s LP then finds that vertex, with the
    errors it raised before.  ``words`` only name candidates: a missing
    vertex costs LPs, a spurious word fails its test.  Each vertex's masks
    on its lower star's tables are kept too, where ``local_pair`` reads them.
    """
    cand = [w for w in words if w.count(0) == net.n0 and w not in classified]
    cand = [(w, e) for w, e in zip(cand, (_entry(net, tables, w) for w in cand)) if not e[0].const.any()]
    _keep_masks(cand, lp_tol)
    slopes = _edge_slopes(net, [w for w, e in cand if e[1][w] is not None and not _bits(w) & e[1][w]])
    kept = [v for v, s in slopes.items() if isinstance(s, dict)]
    _index(classified, kept, descents([slopes[v] for v in kept], net.n0))
    _keep_masks([(c.vertex, _entry(net, tables, w)) for w, cs in classified.items() for c in cs], lp_tol)


def local_pair(
    net: ReluNetwork,
    signs: Signs,
    lp_tol: float = 1e-7,
    *,
    _classified: dict | None = None,
    _tables: dict | None = None,
) -> PairAssignment:
    """Pairing of one bounded-above cell without building the complex.

    The lower-star vertex is the max of F over the cell's closure: a vertex
    ``_classified`` lists for the cell, certified by
    :func:`_certified_vertex`, else the one an LP names by its tight
    constraints.  Its 2*n0 directional derivatives classify it, and
    :func:`_partner`, the rule :func:`build_dgvf` uses, pairs the cell.
    ``_classified`` maps each sign word to the classified vertices whose
    lower stars hold it.  A check over many cells of one network passes one
    such dict to all of them, so it classifies each vertex once; seeded by
    :func:`seed_vertices`, it solves no LP.  The dict holds only vertices
    this oracle certified and classified on its own tables, never the
    complex's classifications.  It also shares one ``_tables`` dict, for one
    ``lp_tol``: by parent, the node maps and each candidate vertex's mask on
    them.
    """
    signs = tuple(signs)
    if len(signs) != net.total_neurons:
        raise DimensionError(f"expected {net.total_neurons} sign entries, got {len(signs)}")
    if any(s not in _OCTAL for s in signs):
        raise ValueError("sign entries must be -1, 0 or +1")
    memo = {} if _classified is None else _classified
    entry = _entry(net, {} if _tables is None else _tables, signs)
    if not _constant_rows_hold(net, signs, entry[0]):
        raise GenericityError(f"cell {signs_to_str(signs)} is infeasible")
    cls = _certified_vertex(signs, entry, memo.get(signs, ()), lp_tol)
    if cls is None:
        rep = _hrep_for(net, signs, entry[0])
        grad = entry[0].f_affine(net.final, [signs[-net.final.in_dim :]])[0][0]
        res = lp_solve(_cell_problem(rep, grad), feas_tol=lp_tol)
        if res.status == "unbounded":
            raise UnboundedCellError(f"F is unbounded above on cell {signs_to_str(signs)}")
        if not res.optimal:
            raise GenericityError(f"cell {signs_to_str(signs)} is infeasible")
        tight = {rep.ge_positions[r] for r in res.tight}
        v_signs = tuple(0 if p in tight else s for p, s in enumerate(signs))
        if v_signs.count(0) != net.n0:
            raise GenericityError(f"LP maximum over {signs_to_str(signs)} is not attained at a simple vertex")
        # A vertex's word lies in no lower star but its own.
        if v_signs not in memo:
            _index(memo, [v_signs], descents([_slopes_of(_edge_slopes(net, [v_signs])[v_signs])], net.n0))
        cls = memo[v_signs][0]
        if cls not in memo.get(signs, ()):
            raise IncompletePairingError(
                f"cell {signs_to_str(signs)} is not in the lower star of its LP vertex"
            )
    role, partner = _partner(cls, signs)
    return PairAssignment(signs, role, partner, cls.vertex, cls.index)
