"""Discrete gradient vector fields on the compactified lower-star complex.

The matching is assembled vertex by vertex, and one rule, ``_partner``,
pairs every lower star.  For a regular vertex it toggles the first
flow-through axis between 0 and the descending sign, pairing the lower star
completely.  For a critical vertex of index k the lower star is the set of
sign words over its k descending axes; scanning those axes in order, the
first entry that is not -1 is toggled (0 <-> +1); the all-minus word
survives as the unique critical k-cell.  The union over all vertices,
together with the basepoint * of the one-point compactification, is a
relatively perfect discrete gradient vector field.

``local_pair`` applies the same rule to a single cell without the global
complex: the cell's lower-star vertex is the max of F over its closure,
either a classified vertex certified by a sign check against its point
(solved once per parent table, kept as a bitmask of the signs its slack
row rules out, so a cell checks it with one integer AND) or found by one
LP, the only step that builds the cell's H-representation.  A 0-cell is its
own closure and needs no LP: ``seed_vertices`` certifies the vertex cells of
a check by the same sign check, and one stacked solve of all their edge
systems classifies them.  ``_lower_star_patterns`` generates the lower stars
of both: ``build_dgvf`` pairs them, and ``local_pair`` indexes them by sign
word.
"""

from __future__ import annotations

import contextlib
import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .complex import CanonicalComplex, _cell_problem, _constant_rows_hold, _hrep_for
from .complex import _edge_slopes, _facets, _slopes_of, is_face
from .errors import (
    DimensionError,
    FlatCellError,
    GenericityError,
    IncompletePairingError,
    UnboundedCellError,
)
from .lp import lp_solve
from .network import ReluNetwork, Signs, node_maps, signs_to_str
from .orientation import VertexClassification, classify_signs, classify_vertex

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
        """Return a list of invariant violations (empty when valid)."""
        problems = []
        seen = Counter()
        for lo, up in self.pairs:
            cl, cu = cpx.cells.get(lo), cpx.cells.get(up)
            if cl is None or cu is None:
                problems.append(f"pair ({signs_to_str(lo)}, {signs_to_str(up)}) not in complex")
                continue
            if cu.dim != cl.dim + 1:
                problems.append(f"pair ({signs_to_str(lo)}, {signs_to_str(up)}) dimension step != 1")
            if not is_face(lo, up):
                problems.append(f"{signs_to_str(lo)} is not a facet of {signs_to_str(up)}")
            seen.update((lo, up))
        seen.update(self.critical)
        dupes = [s for s, k in seen.items() if k > 1]
        problems.extend(f"cell {signs_to_str(s)} used more than once" for s in dupes)
        expected = {s for s, m in cpx.f_maxes().items() if m < float("inf")}
        for label, cells in (
            ("uncovered bounded-above cells", expected - set(seen)),
            ("cells outside the bounded-above subcomplex", set(seen) - expected),
        ):
            if cells:
                problems.append(f"{label}: " + ", ".join(signs_to_str(s) for s in sorted(cells)))
        return problems


def _lower_star_patterns(vertex_signs: Signs, allowed: dict):
    """Sign words of the lower star: the product of per-axis allowed signs,
    the first axis varying slowest."""
    positions = sorted(allowed)
    for combo in itertools.product(*(allowed[p] for p in positions)):
        signs = list(vertex_signs)
        for p, s in zip(positions, combo):
            signs[p] = s
        yield tuple(signs)


def _allowed_signs(cls: VertexClassification) -> dict:
    """Per-axis sign sets spanning the lower star of a classified vertex."""
    allowed = {}
    for p, dm, dp in cls.axes:
        signs = [0]
        if dm:
            signs.append(-1)
        if dp:
            signs.append(1)
        allowed[p] = signs
    return allowed


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


def pair_lower_star(cpx: CanonicalComplex, cls: VertexClassification):
    """Pairing of a vertex's lower star by :func:`_partner`.

    Returns (pairs, critical cell or None).  The rule is a fixed-point-free
    involution on the lower star of a regular vertex, and on that of a
    critical vertex minus its all-minus critical cell.
    """
    pairs = []
    critical_cell = None
    for signs in _lower_star_patterns(cls.vertex, _allowed_signs(cls)):
        if signs not in cpx.cells:
            raise IncompletePairingError(
                f"lower-star cell {signs_to_str(signs)} missing from the complex"
            )
        role, partner = _partner(cls, signs)
        if role == "lower":
            pairs.append((signs, partner))
        elif role == "critical":
            critical_cell = signs
    return sorted(pairs), critical_cell


def build_dgvf(cpx: CanonicalComplex) -> Matching:
    """Union of the per-vertex lower-star pairings over the whole complex."""
    if cpx.has_flat_cells:
        raise FlatCellError(
            "complex has flat cells; lower stars do not cover the bounded-above subcomplex"
        )
    pairs = []
    critical = []
    for v in cpx.vertices.values():
        new_pairs, crit = pair_lower_star(cpx, classify_vertex(cpx, v))
        pairs.extend(new_pairs)
        if crit is not None:
            critical.append(crit)
    matching = Matching(tuple(sorted(pairs)), tuple(sorted(critical)))
    problems = matching.validate(cpx)
    if problems:
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
    """One-point compactification of the bounded-above subcomplex.  A face
    of a bounded-above cell is bounded above, so the facet map of the kept
    cells alone gives each its full facet list."""
    f_max = cpx.f_maxes()
    kept = {s: c for s, c in cpx.cells.items() if f_max[s] < float("inf")}
    facets = {BASEPOINT: ()}
    for signs, cell_facets in _facets(kept).items():
        if kept[signs].dim == 1 and len(cell_facets) == 1:  # a ray; vertices are all kept
            cell_facets += (BASEPOINT,)
        facets[signs] = cell_facets
    values = tuple(sorted(v.value for v in cpx.vertices.values()))
    return CompactifiedComplex(
        n0=cpx.n0,
        cells=dict(sorted(kept.items())),
        facets=facets,
        f_max={BASEPOINT: float("-inf"), **{s: f_max[s] for s in kept}},
        vertex_values=values,
    )


def is_acyclic(matching: Matching, cc: CompactifiedComplex):
    """Check for closed V-paths; returns (flag, witness-path-or-None).

    The V-path graph has one node per pair; pair (C, D) steps to pair
    (C', D') when C' != C is a facet of D.
    """
    lower_of = matching.lower_to_upper()
    succ = {}
    for lo, up in matching.pairs:
        nxt = []
        for f in cc.facets.get(up, ()):
            if f != lo and f in lower_of:
                nxt.append(f)
        succ[lo] = sorted(nxt)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {lo: WHITE for lo in succ}
    for root in sorted(succ):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(succ[root]))]
        trail = [root]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    start = trail.index(nxt)
                    cycle = trail[start:]
                    witness = []
                    for lo in cycle:
                        witness.extend([lo, lower_of[lo]])
                    return False, witness
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    trail.append(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                trail.pop()
                stack.pop()
    return True, None


@dataclass(frozen=True)
class PairAssignment:
    """Outcome of the local pairing for a single cell."""

    cell: Signs
    role: str  # "lower" | "upper" | "critical"
    partner: Signs | None
    owner_vertex: Signs
    owner_index: int | None  # critical index of the owner, None when regular


def _vertex_mask(table, vertex, lp_tol: float):
    """Bitmask, bit 3p + s + 1, of the signs s that a cell may not take at row
    p, read off the point where the table's unit rows at the vertex's zeros
    meet: 0 where the vertex has no zero and, on a live row, s = +1 or -1
    where being tight, s * slack <= ``lp_tol``, is not being a zero.  None
    when a zero row is constant, the rows are singular or the point misses
    them by over ``lp_tol``."""
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


def _mask(entry, vertex: Signs, lp_tol: float):
    """:func:`_vertex_mask` of ``vertex`` on a ``_tables`` entry (node-map
    table, {vertex: mask}) of ``local_pair``, kept there on first use."""
    table, masks = entry
    if vertex not in masks:
        masks[vertex] = _vertex_mask(table, vertex, lp_tol)
    return masks[vertex]


def _bits(signs: Signs) -> int:
    """A cell word as one bit per row at its sign: bit 3p + s + 1, read as
    the octal digit 1, 2 or 4 at place p."""
    return int("".join(map(_OCTAL.__getitem__, reversed(signs))), 8)


def _certified_vertex(signs: Signs, entry, candidates, lp_tol: float):
    """The one of the classified vertices ``candidates``, whose lower stars
    hold the cell ``signs``, certified as the unique max of F over the
    cell's closure, else None.  ``entry`` is the cell's (node-map table,
    {vertex: :func:`_vertex_mask`}) in ``local_pair``'s ``_tables``.

    A candidate passes when the table's unit rows at its zeros meet in a
    point within ``lp_tol`` where, of the cell's live rows with nonzero
    sign s_p, exactly those it zeroes are tight: s_p * slack_p <= ``lp_tol``.
    The point is then a simple vertex of the closure, F falls along every
    edge leaving it into the cell, and F is affine on the convex cell, so it
    is the point the LP would return.  Being the unique max, it is the only
    candidate to pass.
    """
    word = _bits(signs)
    for cls in candidates:
        mask = _mask(entry, cls.vertex, lp_tol)
        if mask is not None and not word & mask:
            return cls
    return None


def _entry(net: ReluNetwork, tables: dict, signs: Signs) -> tuple:
    """The ``_tables`` entry of a cell's parent, made on first use."""
    prefix = signs[: -net.layers[-1].out_dim]
    if prefix not in tables:
        tables[prefix] = (node_maps(net, prefix), {})
    return tables[prefix]


def _index(memo: dict, cls: VertexClassification) -> None:
    """Add a classified vertex under every word of its lower star."""
    for w in _lower_star_patterns(cls.vertex, _allowed_signs(cls)):
        memo.setdefault(w, []).append(cls)


def seed_vertices(net: ReluNetwork, words, classified: dict, tables: dict, lp_tol: float = 1e-7):
    """Classify, in one stacked pass, the vertex cells among ``words`` that
    certify in closed form, and index them in ``classified``, the memo that
    ``local_pair`` takes with its ``tables`` as ``_classified`` and
    ``_tables``.

    A 0-cell is its own closure, so the max of F over it is the vertex
    itself: a word with n0 zeros is certified when its table has no
    constant row and its zero rows meet in a point that clears its strict
    rows (:func:`_vertex_mask`, the point test of :func:`_certified_vertex`).
    One :func:`_edge_slopes` call classifies all of them.  A word that fails
    the test, or whose edges fail, is left out: ``local_pair``'s LP then
    finds that vertex, with the errors it raised before.  ``words`` only
    name candidates: a missing vertex costs LPs, a spurious word fails its
    test.
    """
    kept = []
    for w in words:
        if w.count(0) != net.n0 or w in classified:
            continue
        entry = _entry(net, tables, w)
        if not entry[0].const.any():
            mask = _mask(entry, w, lp_tol)
            if mask is not None and not _bits(w) & mask:
                kept.append(w)
    for v, slopes in _edge_slopes(net, kept).items():
        if isinstance(slopes, dict):
            _index(classified, classify_signs(v, slopes))


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
            raise UnboundedCellError(
                f"F is unbounded above on cell {signs_to_str(signs)}"
            )
        if not res.optimal:
            raise GenericityError(f"cell {signs_to_str(signs)} is infeasible")
        tight = {rep.ge_positions[r] for r in res.tight}
        v_signs = tuple(0 if p in tight else s for p, s in enumerate(signs))
        if v_signs.count(0) != net.n0:
            raise GenericityError(
                f"LP maximum over {signs_to_str(signs)} is not attained at a simple vertex"
            )
        # A vertex's word lies in no lower star but its own.
        if v_signs not in memo:
            slopes = _slopes_of(_edge_slopes(net, [v_signs])[v_signs])
            _index(memo, classify_signs(v_signs, slopes))
        cls = memo[v_signs][0]
        if cls not in memo.get(signs, ()):
            raise IncompletePairingError(
                f"cell {signs_to_str(signs)} is not in the lower star of its LP vertex"
            )
    role, partner = _partner(cls, signs)
    return PairAssignment(signs, role, partner, cls.vertex, cls.index)
