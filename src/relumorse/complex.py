"""The canonical polyhedral complex of a ReLU network.

Cells are named by sign sequences: one entry in {-1, 0, +1} per hidden
neuron recording the sign of that node map on the cell.  Under the
genericity conditions enforced here a k-cell has exactly n0 - k zero
entries and faces are read off by composing sign words.  The finished
complex indexes its words as one sorted int8 matrix, a cell's id its row,
and finds the ids of any word rows by one ``searchsorted`` on void keys.
The star table, the ids of the 3^n0 words around every vertex (the cells
it is a face of), is one such lookup; each cell's vertices and rays, F's
maxima and the lower-star pairing (``dgvf``) are read off it, and the
facets off lookups of each word with one zero set to -1 or +1.  Flat flags come
from one stacked product of F's gradients, vertex locations and edge
slopes from stacked solves on the node-map tables, one per parent cell,
which is a cell's affine data.  A flat cell, or after each layer a cell on
which that layer is dead, is out of scope when it has a vertex face
(:func:`is_face`, each cell against all vertices at once).

Construction builds layer by layer on the stacked node-map tables of the
previous layer's cells.  Where layer 1 has rank n0 every cell is pointed,
so a layer comes whole from its vertices: the 3^n0 words on a vertex's n0
zero maps are the cells through it.  Where that closed form declines, the
layer is refined one node map at a time, from all sign words of layer 1's
first maps or from the previous layer: a map meets a region iff it takes
both signs over the vertices and rays of its closure, read off the star
table of a step's vertex regions, or where the closure holds no vertex or
a sign falls in the tolerance band, by the witness LP, whose point is the
piece's sample; build so solves no LP on generic input.  Acceptance checks
all words of a layer in one pass, by sample points or the witness LP, with
stacked rank and residual tests for dependent zero sets and solvable words
past n0 zeros.  Every LP is a cell LP from ``_cell_problem``, the one
place a problem is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    FlatCellError,
    GenericityError,
    InjectivityError,
    SingularSystemError,
    StructuredError,
)
from .lp import LpProblem, lp_solve
from .network import NodeMaps, ReluNetwork, Signs, _dot, node_maps, signs_to_str

# Offset at or below which a constant node map counts as zero.
_ZERO_OFFSET = 1e-9
# Relative gradient norm below which F counts as constant on a cell or edge.
_FLAT_TOL = 1e-9
# A split whose values or slopes fall within _SPLIT_MARGIN * lp_tol of zero
# is in the tolerance band: there a region's point proves no side, and the
# witness LP decides its pieces.
_SPLIT_MARGIN = 10.0
# A sample point certifies a cell when it clears every strict inequality by
# more than _CLEAR_MARGIN * lp_tol and meets the zero set within
# _SAMPLE_RESID * lp_tol.
_CLEAR_MARGIN = 2.0
_SAMPLE_RESID = 1e-3
# Zero-set equations (unit rows) count as solvable within this relative
# residual, and as independent above this singular value.
_RANK_TOL = 1e-7
# Relative residual above which a vertex system counts as ill-conditioned.
_VERTEX_RESID = 1e-6
# A split read off a closure point beyond this distance is in the tolerance
# band: nearly parallel or nearly constant node maps put points that far out.
_FAR = 1e7
# Past layer 1 a vertex system is singular by rounding alone (parallel maps on
# a parent with one active neuron) up to this least singular value.
_ROUNDING = 1e-12
_CHUNK = 4096  # vertex systems solved in one stacked call


def _is_flat(value, g_norm):
    """True where the slope ``value`` of F along a cell or edge (scalars or
    arrays) is negligible against the norm of the full gradient."""
    return np.abs(value) <= _FLAT_TOL * g_norm + 1e-30


def compose_signs(a: Signs, b: Signs) -> Signs:
    """Entrywise composition: a's entry where nonzero, else b's."""
    if len(a) != len(b):
        raise ValueError(f"sign sequence length mismatch: {len(a)} vs {len(b)}")
    return tuple(x if x != 0 else y for x, y in zip(a, b))


def is_face(a: Signs, b: Signs) -> bool:
    """True iff the cell named a is a face of the cell named b."""
    return compose_signs(a, b) == tuple(b)


def _edges_at(v_signs: Signs):
    """(position, sigma, edge signs) of the 2*n0 edges at a vertex."""
    for p, s in enumerate(v_signs):
        if s != 0:
            continue
        for sigma in (-1, 1):
            yield p, sigma, v_signs[:p] + (sigma,) + v_signs[p + 1 :]


def _keys(rows) -> np.ndarray:
    """One void key per int8 sign-word row: the bytes of row + 1, which sort
    as the words do (-1 < 0 < +1 as 0 < 1 < 2; raw -1 is 0xFF)."""
    rows = np.ascontiguousarray(rows + 1).view(np.uint8)
    return rows.view(np.dtype((np.void, rows.shape[-1]))).reshape(rows.shape[:-1])


def _lookup(keys, rows) -> np.ndarray:
    """Position of each sign-word row (any leading shape) in the sorted
    ``keys``, -1 where it is absent."""
    q, last = _keys(rows), len(keys) - 1
    at = np.minimum(np.searchsorted(keys, q), max(last, 0))
    return np.where(keys[at] == q, at, -1) if last >= 0 else np.full(q.shape, -1)


def _stars(vertices, zeros) -> tuple:
    """(t, words): the 3^n0 words t in {-1, 0, 1}^n0, in product order, and
    the star of each vertex (rows of the sign array ``vertices``), words[i, k]
    its word with its n0 zero entries zeros[i] set to t[k]."""
    n0 = zeros.shape[1]
    t = np.array(list(itertools.product((-1, 0, 1), repeat=n0)), dtype=np.int8)
    words = np.repeat(vertices[:, None], len(t), axis=1)
    words[np.arange(len(vertices))[:, None, None], np.arange(len(t))[:, None], zeros[:, None]] = t
    return t, words


def _solve_each(a, b) -> tuple:
    """(x, singular) of the stacked systems a[i] x = b[i], b one vector per
    system: one stacked solve, or where LAPACK finds one singular, each
    system alone, a singular one's x left zero and flagged."""
    singular = np.zeros(len(a), dtype=bool)
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], singular
    except np.linalg.LinAlgError:
        x = np.zeros(b.shape)
        for i, (m, r) in enumerate(zip(a, b)):
            try:
                x[i] = np.linalg.solve(m, r[:, None])[:, 0]
            except np.linalg.LinAlgError:
                singular[i] = True
        return x, singular


def _gradients(final, words, rows, at):
    """F's gradient on the cell of each full-length sign word (rows of
    ``words``), from table at[i] of the stacked node-map ``rows``: the
    ``final`` weights masked by its last-layer signs, one stacked product."""
    masked = final.weights * (words[:, -final.in_dim :] > 0)
    return (masked[:, None] @ rows[at, -final.in_dim :])[:, 0]


def _edge_slopes(net: ReluNetwork, words: list, tables=None) -> dict:
    """{vertex: {edge: (unit direction, sign of dF along it)}} from each of
    the vertex ``words`` into its 2*n0 edges, in :func:`_edges_at` order, or
    the error of its first failing edge there.

    Into an edge, the map at its entry takes the edge's sign and the
    vertex's other zero maps stay zero: node-map systems on each edge's top
    cell, all solved in one stacked call.  ``tables`` gives the stacked
    node-map tables of a list of prefixes (default :func:`node_maps`); F's
    gradient on each top cell is :meth:`NodeMaps.f_affine`'s product, one
    stacked matmul for all.
    An edge fails with SingularSystemError for a singular system or a zero
    or non-finite direction, FlatCellError where dF vanishes along it.
    """
    if not words:
        return {}
    n0, n_m, k = net.n0, net.layers[-1].out_dim, 2 * net.n0
    edges = [e for v in words for _, _, e in _edges_at(v)]
    e = np.array(edges)
    top = np.where(e == 0, 1, e)
    prefixes, tid = np.unique(top[:, :-n_m], axis=0, return_inverse=True)
    stack = node_maps(net, prefixes) if tables is None else tables(prefixes.tolist())
    zeros = np.repeat(np.nonzero(np.array(words) == 0)[1].reshape(-1, n0), k, axis=0)
    a, rhs = stack.rows[tid.reshape(-1, 1), zeros], np.take_along_axis(e, zeros, 1).astype(float)
    d, singular = _solve_each(a, rhs)
    with np.errstate(all="ignore"):  # the failing edges' own arithmetic
        nrm = np.sqrt(_dot(d, d))
        good = np.isfinite(nrm) & (nrm > 0.0)
        d = d / np.where(good, nrm, 1.0)[:, None]
        g = _gradients(net.final, top, stack.rows, tid.reshape(-1))
        slope = _dot(g, d)
        flat = _is_flat(slope, np.sqrt(_dot(g, g)))
    d.flags.writeable = False  # the complex hands the rows out
    fail = (singular | ~good | flat).reshape(-1, k)
    signs = np.where(slope > 0, 1, -1).tolist()
    out = {}
    for i, v in enumerate(words):
        span = slice(i * k, i * k + k)
        if not fail[i].any():
            out[v] = dict(zip(edges[span], zip(d[span], signs[span])))
            continue
        j = i * k + int(np.argmax(fail[i]))
        if singular[j] or not good[j]:
            kind = "singular edge system" if singular[j] else "degenerate edge direction"
            out[v] = SingularSystemError(f"{kind} at vertex {signs_to_str(v)}")
        else:
            out[v] = FlatCellError(
                f"F is constant along edge {signs_to_str(edges[j])}; network out of scope"
            )
    return out


def _slopes_of(entry) -> dict:
    """An :func:`_edge_slopes` entry, or a fresh raise of its error."""
    if isinstance(entry, StructuredError):
        raise type(entry)(*entry.args)
    return entry


def _facets(words: list, rows) -> dict:
    """{word: sorted tuple of facets} of the sorted list of cell ``words``, with
    int8 rows ``rows``: the present words that zero one more entry.  Each word
    with one zero set to -1 or +1 is looked up at once by its key; the hits,
    grouped by the word found, are its facets in word order."""
    low, p = (np.repeat(a, 2) for a in np.nonzero(rows == 0))
    up = rows[low]
    up[np.arange(len(low)), p] = np.tile(np.array([-1, 1], dtype=np.int8), len(p) // 2)
    at = _lookup(_keys(rows), up)
    up, low = at[at >= 0], low[at >= 0]
    by = np.argsort(up, kind="stable")  # by the word found, then the facet's rank
    bounds, low = np.searchsorted(up[by], np.arange(len(words) + 1)).tolist(), low[by].tolist()
    return {w: tuple(map(words.__getitem__, low[a:b])) for w, a, b in zip(words, bounds, bounds[1:])}


def _star_table(verts, keys, n0) -> tuple:
    """(t, stars, at, rays) of the sorted vertex rows ``verts`` among the
    sorted word ``keys``: :func:`_stars`, at[i, k] the :func:`_lookup` of
    stars[i, k], and the rays as rows (i, k) in word order: the edges (one
    nonzero t) in one star only.  A vertex is a face of exactly its star."""
    t, stars = _stars(verts, np.nonzero(verts == 0)[1].reshape(-1, n0))
    at, edges = _lookup(keys, stars), np.flatnonzero((t != 0).sum(axis=1) == 1)
    e = at[:, edges]
    count = np.bincount(e[e >= 0], minlength=len(keys))
    i, j = np.nonzero((e >= 0) & (count[e] == 1))
    return t, stars, at, np.transpose((i, edges[j]))


def _ray_faces(t, at, i, k) -> tuple:
    """(r, c) by r: ray r, star word k[r] of vertex i[r] in :func:`_star_table`,
    is a face of each present word c of that star keeping its nonzero entry."""
    above = ((t[:, None] == t[None]) | (t[:, None] == 0)).all(axis=2)  # star word k is a face of k'
    sel = above[k] & (at[i] >= 0)
    return np.nonzero(sel)[0], at[i][sel]


@dataclass
class Cell:
    """One cell of the complex, keyed by its sign sequence."""

    signs: Signs
    dim: int
    flat: bool = False

    def __str__(self):
        return signs_to_str(self.signs)


@dataclass
class VertexRecord:
    signs: Signs
    location: np.ndarray
    value: float


@dataclass(frozen=True)
class _HRep:
    """Normalized H-representation of one cell.

    Rows are scaled to unit gradient norm so LP slacks are geometric
    distances.  ``ge_positions`` maps each inequality row back to the flat
    sign-sequence position it came from (used to read vertex signs off
    tight constraints).
    """

    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ge: np.ndarray
    b_ge: np.ndarray
    ge_positions: tuple


def _cell_problem(rep: _HRep, objective) -> LpProblem:
    """LP maximizing ``objective`` over a cell's H-representation."""
    return LpProblem.build(objective, a_eq=rep.a_eq, b_eq=rep.b_eq, a_ge=rep.a_ge, b_ge=rep.b_ge)


def _witness(rep: _HRep, lp_tol: float):
    """Point of the cell ``rep`` maximizing its worst strict-row slack t
    (capped at 1): the cell LP in (x, t) of a_eq.x = b_eq, a_ge.x - t >= b_ge,
    -t >= -1.  None unless t exceeds ``lp_tol``; unit rows make t a distance."""
    n = rep.a_eq.shape[1]
    e_t = np.eye(n + 1)[n]
    # The t <= 1 row is 0.0 - e_t, not -e_t: the -0.0 entries of -e_t would
    # change the LP's bytes, which scripts/lp_capture.py hashes.
    a_ge = np.vstack([np.pad(rep.a_ge, ((0, 0), (0, 1)), constant_values=-1.0), 0.0 - e_t])
    a_eq = np.pad(rep.a_eq, ((0, 0), (0, 1)))
    lifted = _HRep(a_eq, rep.b_eq, a_ge, np.append(rep.b_ge, -1.0), ())
    res = lp_solve(_cell_problem(lifted, e_t), feas_tol=lp_tol)
    return res.x[:n] if res.optimal and res.value > lp_tol else None


def _constant_rows_hold(net: ReluNetwork, signs: Signs, table: NodeMaps) -> bool:
    """False when a constant row among the table's first ``len(signs)``
    contradicts the pattern; GenericityError when a node map vanishes
    identically on the region.  The first such row in sign-word order decides."""
    n = len(signs)
    offs, const = table.offsets[:n], table.const[:n]
    if not const.any():
        return True
    s = np.array(signs, dtype=float)
    bad = const & ((s * offs <= 0) | (np.abs(offs) <= _ZERO_OFFSET))
    if not bad.any():
        return True
    p = int(np.argmax(bad))
    if s[p] == 0 and abs(offs[p]) <= _ZERO_OFFSET:
        raise GenericityError(f"node map {net.ij(p)} vanishes identically on a region")
    return False


def _hrep_for(net: ReluNetwork, signs: Signs, table: NodeMaps) -> _HRep | None:
    """Assemble the H-representation of a (possibly partial) sign pattern
    from the first ``len(signs)`` rows of the node-map table, leaving out its
    constant rows; None or GenericityError as :func:`_constant_rows_hold`.
    """
    if not _constant_rows_hold(net, signs, table):
        return None
    # Scaling a unit row by a sign is exact, so inequality rows need no
    # second division.
    n = len(signs)
    live = np.flatnonzero(~table.const[:n])
    unit, unit_off = (u[:n][live] for u in table.unit)
    s = np.array(signs, dtype=float)[live]
    eq, ge = s == 0, s != 0
    return _HRep(
        a_eq=unit[eq],
        b_eq=unit_off[eq],
        a_ge=s[ge, None] * unit[ge],
        b_ge=s[ge] * unit_off[ge],
        ge_positions=tuple(live[ge].tolist()),
    )


class CanonicalComplex:
    """Finished cell poset of C(F) with vertex coordinates.

    Immutable after construction apart from internal caches; safe for
    concurrent reads.
    """

    def __init__(self, net, cells, vertices, lp_tol):
        self.net = net
        self.cells = cells
        self.vertices = vertices
        self.lp_tol = lp_tol
        self._tables, self._hreps, self._edge_slopes = {}, {}, None

    @property
    def cells(self) -> dict:
        """{word: :class:`Cell`}; setting it resets what is read off them."""
        return self._cells

    @cells.setter
    def cells(self, cells: dict) -> None:
        self._cells, self._sups = cells, {}
        self._words = self._facets = self._star = self._holders = None

    @property
    def n0(self) -> int:
        return self.net.n0

    def words(self) -> tuple:
        """(names, rows, keys, ids), built on first use: the cells' words sorted,
        as tuples and as int8 rows, the rows' :func:`_keys`, and {word: id}: a
        cell's id is its row.  :func:`_lookup` finds the ids of word rows."""
        if self._words is None:
            names, n = sorted(self._cells), self.net.total_neurons
            rows = np.fromiter(itertools.chain.from_iterable(names), np.int8, len(names) * n).reshape(-1, n)
            self._words = names, rows, _keys(rows), dict(zip(names, itertools.count()))
        return self._words

    @property
    def has_flat_cells(self) -> bool:
        return any(c.flat for c in self.cells.values())

    def table(self, signs: Signs) -> NodeMaps:
        """Node-map table of a full-length sign pattern, cached by the prefix
        that fixes it: the cells of one parent cell share it."""
        prefix = tuple(signs)[: -self.net.layers[-1].out_dim]
        if prefix not in self._tables:
            self.tables([prefix])
        return self._tables[prefix]

    def tables(self, prefixes: list) -> NodeMaps:
        """Stacked node-map tables of the given prefixes, the full-length
        sign patterns less their last layer; each table is cached for
        :meth:`table` unless it already is."""
        stack = node_maps(self.net, np.array(prefixes, dtype=float))
        for i, prefix in enumerate(prefixes):
            self._tables.setdefault(tuple(prefix), stack[i])
        return stack

    def f_affine(self, signs: Signs) -> tuple:
        """(gradient, offset) of F on the cell of a full-length sign pattern:
        :meth:`NodeMaps.f_affine` of its table at its last-layer signs."""
        final = self.net.final
        grad, offset = self.table(signs).f_affine(final, [tuple(signs)[-final.in_dim :]])
        return grad[0], float(offset[0])

    def hrep(self, signs: Signs) -> _HRep:
        signs = tuple(signs)
        if signs not in self._hreps:
            rep = _hrep_for(self.net, signs, self.table(signs))
            if rep is None:
                raise GenericityError(f"cell {signs_to_str(signs)} has an empty H-representation")
            self._hreps[signs] = rep
        return self._hreps[signs]

    # -- face poset -----------------------------------------------------

    def facets(self, cell) -> list:
        """Stored cells obtained by zeroing exactly one nonzero entry, sorted."""
        signs = cell.signs if isinstance(cell, Cell) else tuple(cell)
        return [self.cells[f] for f in self._facet_map()[signs]]

    def _facet_map(self) -> dict:
        """:func:`_facets` of every cell, built on first use."""
        if self._facets is None:
            self._facets = _facets(*self.words()[:2])
        return self._facets

    def vertex_facets(self, cell) -> list:
        """Vertices of the complex lying in the closure of ``cell``, sorted:
        those whose stars hold it, by one argsort of :meth:`_star_cells`."""
        if self._holders is None:
            at, records = self._star_cells()[1], list(self.vertices.values())
            by = [records[i] for i in (np.argsort(at, axis=None, kind="stable") // at.shape[1]).tolist()]
            bounds = np.searchsorted(np.sort(at, axis=None), np.arange(len(self.words()[0]) + 1)).tolist()
            self._holders = [by[a:b] for a, b in zip(bounds, bounds[1:])]
        return list(self._holders[self.words()[3][cell.signs if isinstance(cell, Cell) else tuple(cell)]])

    def top_cells(self) -> list:
        return [c for c in self.cells.values() if c.dim == self.n0]

    def rays(self) -> list:
        """Sorted (vertex, edge) words of the rays: the edges with exactly
        one vertex, read off the vertices' stars."""
        return [r[:2] for r in self._star_cells()[2]]

    def _star_cells(self) -> tuple:
        """(t, at, rays, stars), built on first use: :func:`_star_table` of :attr:`vertices`
        on the word index, at[i, k] a cell's id, the rays sorted as (vertex, edge, i, k)."""
        if self._star is None:
            (names, _, keys, _), words = self.words(), list(self.vertices)
            verts = np.array(words, dtype=np.int8).reshape(-1, self.net.total_neurons)
            t, stars, at, rays = _star_table(verts, keys, self.n0)
            self._star = t, at, sorted((words[v], names[at[v, e]], v, e) for v, e in rays.tolist()), stars
        return self._star

    # -- LP-backed cell queries ------------------------------------------

    def is_bounded_above(self, cell) -> bool:
        """True iff max F over the cell is finite (see :meth:`f_max`)."""
        return self.f_max(cell) < float("inf")

    def f_max(self, cell) -> float:
        """:meth:`sup` of F over the cell."""
        return self.sup(cell.signs if isinstance(cell, Cell) else cell, 1)

    def f_maxes(self) -> np.ndarray:
        """:meth:`f_max` of every cell by id, the cached array itself; the cells
        that the star pass leaves to their LP solve it here, in id order."""
        values, open_ = self._closed_sups(1)
        for c in list(open_):
            self.sup(self.words()[0][c], 1)
        return values

    def sup(self, signs: Signs, sense: int) -> float:
        """Sup of sense * F (sense = +1 or -1) over a cell, cached; +inf when
        sense * F is unbounded above on it.  A closure holding a vertex is
        pointed, its rays span its recession cone, and F is affine on it:
        sense * F is bounded iff it falls along every ray, to the best vertex
        value (both from :meth:`_closed_sups`).  A vertex-free cell, or a
        first ray that does not fall at a vertex where :meth:`edge_slopes`
        raises, costs one LP, solved at its first call.
        """
        signs = tuple(signs)
        (values, open_), c = self._closed_sups(sense), self.words()[3][signs]
        if c in open_:
            (grad, offset), rep = self.f_affine(signs), self.hrep(signs)
            res = lp_solve(_cell_problem(rep, sense * grad), feas_tol=self.lp_tol)
            best = open_.pop(c)
            values[c] = np.inf if not res.optimal else res.value + sense * offset if best is None else best
        return float(values[c])

    def _closed_sups(self, sense: int) -> tuple:
        """(sup of sense * F by id, {id: best vertex value or None}), cached
        per sense, in one pass over the vertices' stars (:meth:`_star_cells`).
        A cell's best vertex value is the max over the stars that hold it.
        Its first ray, in word order, is the least of the rays that rise, or
        sit at a vertex whose :meth:`edge_slopes` raise, and are faces of it
        (:func:`_ray_faces`).  The sup is the best value without such a ray,
        +inf with a rising one; NaN marks the cells of the dict, vertex-free
        or with a raised first ray, left to their LP."""
        if sense not in self._sups:
            (t, at, rays, _), n = self._star_cells(), len(self.words()[0])
            hit = at >= 0
            values = sense * np.array([v.value for v in self.vertices.values()])
            best, first = np.full(n, -np.inf), np.full(n, len(rays))
            np.maximum.at(best, at[hit], np.broadcast_to(values[:, None], at.shape)[hit])
            raised, up = np.zeros(len(rays) + 1, dtype=bool), []  # raised[len(rays)]: no ray
            for r, (v, e, i, k) in enumerate(rays):
                try:
                    rises = sense * self.edge_slopes(v)[e][1] > 0
                except (FlatCellError, SingularSystemError):
                    raised[r] = rises = True
                if rises:
                    up.append((r, i, k))
            r, i, k = np.array(up, dtype=int).reshape(-1, 3).T
            faces, c = _ray_faces(t, at, i, k)
            np.minimum.at(first, c, r[faces])
            values = np.where(first < len(rays), np.inf, best)
            lp = (best == -np.inf) | raised[first]
            values[lp], best = np.nan, best.tolist()
            open_ = {c: best[c] if best[c] > -np.inf else None for c in np.flatnonzero(lp).tolist()}
            self._sups[sense] = values, open_
        return self._sups[sense]

    def edge_slopes(self, v_signs: Signs) -> dict:
        """:func:`_edge_slopes` at a vertex, raising its error at each read."""
        return _slopes_of(self._slopes()[tuple(v_signs)])

    def _slopes(self) -> dict:
        """{vertex: :func:`_edge_slopes` entry}, all solved at the first call."""
        if self._edge_slopes is None:
            self._edge_slopes = _edge_slopes(self.net, list(self.vertices), self.tables)
        return self._edge_slopes

    # -- export ------------------------------------------------------------

    def export_dict(self) -> dict:
        """The ``build`` output, cells in word order, named off the rows at once."""
        (names, rows, *_), cells = self.words(), {}
        bounded, n = (self.f_maxes() < np.inf).tolist(), rows.shape[1]
        text = np.frombuffer(b"-0+", dtype=np.uint8)[rows + 1].tobytes().decode()
        for i, signs in enumerate(names):
            record = {"dim": self._cells[signs].dim, "bounded_above": bounded[i]}
            if (v := self.vertices.get(signs)) is not None:
                record["coordinates"] = [float(x) for x in v.location]
                record["value"] = float(v.value)
            cells[text[i * n : i * n + n]] = record
        return {"dims": list(self.net.arch.full()), "cells": cells}


def _vertex_locations(cpx: CanonicalComplex, words: list) -> np.ndarray:
    """Locations of the vertex ``words``, in one stacked solve of each one's
    n0 x n0 system of its zero node maps on its own table: a zero entry
    masks its row as -1 does, so the rows are those of the all-minus top
    cell at the vertex.  SingularSystemError at the first word, in list
    order, whose system is singular or misses its residual bound."""
    w = np.array(words)
    prefixes, at = np.unique(w[:, : -cpx.net.final.in_dim], axis=0, return_inverse=True)
    tables, zeros = cpx.tables(prefixes.tolist()), np.nonzero(w == 0)[1].reshape(-1, cpx.n0)
    mat, rhs = tables.rows[at.reshape(-1, 1), zeros], -tables.offsets[at.reshape(-1, 1), zeros]
    loc, singular = _solve_each(mat, rhs)
    loc = loc + 0.0  # clear negative zeros
    resid = np.abs((mat @ loc[..., None])[..., 0] - rhs).max(axis=1)
    bound = _VERTEX_RESID * np.maximum(1.0, np.abs(rhs).max(axis=1))
    bad = singular | ~np.isfinite(loc).all(axis=1) | (resid > bound)
    if bad.any():
        i = int(np.argmax(bad))
        kind = "singular" if singular[i] else "ill-conditioned"
        raise SingularSystemError(f"{kind} vertex system for {signs_to_str(words[i])}")
    return loc


def _raise_on_vertex_face(what: str, words, vertices) -> None:
    """FlatCellError at the first of the ``words`` (rows of a sign array), in
    order, that has one of the ``vertices`` as a face (:func:`is_face`),
    each word tested against all vertices at once; ``what`` names its kind."""
    free = vertices == 0
    for w in words:
        if (free | (vertices == w)).all(axis=1).any():
            raise FlatCellError(f"{what} {signs_to_str(w)}, which has a vertex; network is out of scope")


def _abort_on_forced_flats(stage, n_k, n0):
    """Fail fast when the newest hidden layer, the last ``n_k`` entries of
    the ``stage`` words, is dead on a cell with a vertex face.

    All deeper layer maps are constant on such a cell, so the finished
    complex is guaranteed to contain a flat positive-dimensional cell with a
    vertex in its closure; raising here skips the remaining refinement work.
    A face of a dead word is dead, so the dead vertices are the candidates
    (vertices themselves may be "flat").  An older dead block needs no
    second look: deeper maps are constant on it, a deeper zero entry is a
    vanishing map (GenericityError), so a vertex face of such a cell already
    was one of its prefix, which raised.
    """
    words = np.array(list(stage), dtype=np.int8)
    dead, dims = ~(words[:, -n_k:] == 1).any(axis=1), n0 - (words == 0).sum(axis=1)
    _raise_on_vertex_face("layer dead on cell", words[dead & (dims > 0)], words[dead & (dims == 0)])


def _cut(x, s, v, q, u, near) -> list:
    """(sign, point) of the pieces of a region whose point x lies on side s
    of the hyperplane (value v there), given the max u of the map pushed the
    other way and its argmax q in the closure."""
    if u <= -near:
        return [(s, x)]
    # The open segment from x to q lies in the relative interior; it
    # crosses the hyperplane at t0 when u > 0.
    t0 = s * v / (s * v + u) if u > 0 else 1.0
    return [
        (s, x),
        (0, x + t0 * (q - x)),
        (-s, x + 0.5 * (1.0 + t0) * (q - x)),
    ]


def _argmax_by(keys, group, labels):
    """Index of the first max of ``keys`` in each ``labels`` group of ``group``."""
    return np.lexsort((-keys, group))[np.searchsorted(group, labels)]


def _region_faces(regions: dict, sel, n0: int) -> tuple:
    """(vreg, vpos, rreg, rpos, zeros, rhs) off the vertex regions' :func:`_star_table`:
    the vertices at positions vpos, in word order, of the regions at vreg that
    the mask ``sel`` picks from ``regions``, and in (vertex, edge) word order
    their rays, from the vertex at rpos into the edge setting its ``zeros`` to ``rhs``."""
    rows = np.array(list(regions), dtype=np.int8)
    order = np.argsort(keys := _keys(rows), kind="stable")
    vid = order[(rows[order] == 0).sum(axis=1) == n0]  # the vertex regions, sorted
    t, _, at, rays = _star_table(rows[vid], keys[order], n0)
    slot = np.where(sel, np.arange(len(sel)), -1)[order]  # by sorted position, -1 off sel
    (i, k), (r, c) = np.nonzero(at >= 0), _ray_faces(t, at, *rays.T)
    vreg, rreg = slot[at[i, k]], slot[c]
    vby, rby = (np.argsort(g, kind="stable")[np.count_nonzero(g < 0) :] for g in (vreg, rreg))
    zeros, (ri, rk) = np.nonzero(rows[vid] == 0)[1].reshape(-1, n0), rays[r[rby]].T
    return vreg[vby], vid[i[vby]], rreg[rby], vid[ri], zeros[ri], t[rk]


def _closure_pieces(regions, sel, rows, at, a, b, near) -> dict:
    """{p: (sign, point) of the pieces the hyperplane a[p].x = b[p] cuts from
    region p of ``regions`` ({word: point}), or None in the band}, read off the
    closure (:func:`_region_faces`) where the mask ``sel`` picks p and that holds a vertex.

    The map is affine on the closure, so pushed away from the side of an
    interior point it is unbounded along a rising ray, and otherwise peaks
    at a vertex.  The interior point is the vertex mean plus the unit ray
    sum, which keeps the pieces' points clear of the region's faces.  A
    ray's direction solves the parent's node-map rows (``rows`` from row
    at[p]) at its vertex's zeros, not a difference of sample points, which
    loses digits far out.  All regions are decided in stacked calls.
    """
    vreg, vpos, rreg, rpos, zeros, rhs = _region_faces(regions, sel, a.shape[1])
    keep, vreg = np.unique(vreg, return_inverse=True)  # the regions with a vertex, renumbered
    rreg, n, at, a, b = np.searchsorted(keep, rreg), len(keep), at[keep], a[keep], b[keep]
    points = np.array(list(regions.values()))
    points, origins = points[vpos], points[rpos]
    # A singular system is a zero-length ray: its region alone is banded.
    dirs = _solve_each(rows[at[rreg, None] + zeros], rhs.astype(float))[0]
    lengths = np.linalg.norm(dirs, axis=1)
    band = np.bincount(rreg, ~(lengths > 0), minlength=n) > 0
    dirs = dirs / np.where(lengths > 0, lengths, 1.0)[:, None]
    x, ray_sum = np.zeros_like(a), np.zeros_like(a)
    np.add.at(x, vreg, points)
    np.add.at(ray_sum, rreg, dirs)
    x = x / np.bincount(vreg, minlength=n)[:, None] + ray_sum
    v = _dot(a, x) - b
    s = np.where(v > 0, 1, -1)
    slopes = -s[rreg] * _dot(dirs, a[rreg])
    band |= (np.abs(v) <= near) | (np.bincount(rreg, np.abs(slopes) <= near, minlength=n) > 0)
    # q is the argmax vertex of the map pushed away from x, or far along
    # the steepest ray where one rises.
    q = points[_argmax_by(-s[vreg] * (_dot(points, a[vreg]) - b[vreg]), vreg, np.arange(n))]
    up = np.flatnonzero(np.bincount(rreg, slopes > 0, minlength=n))
    i = _argmax_by(slopes, rreg, up)
    reach = np.maximum(0.0, 1.0 + s[up] * (_dot(a[up], origins[i]) - b[up]))
    q[up] = origins[i] + (reach / slopes[i])[:, None] * dirs[i]
    u = -s * (_dot(a, q) - b)
    band |= (np.abs(u) <= near) | (np.maximum(np.abs(x).max(1), np.abs(q).max(1)) > _FAR)
    cut = zip(band, x, s.tolist(), v.tolist(), q, u.tolist())
    return dict(zip(keep.tolist(), [None if out else _cut(*rest, near) for out, *rest in cut]))


def _solvable(a, b):
    """Whether each stacked system a x = b, of more rows than unknowns, has
    a least-squares residual within _RANK_TOL * max(1, |b|), with singular
    values dropped as ``np.linalg.lstsq`` drops them: b less its projection
    on the left singular vectors kept.  Generically it has not."""
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    u = u * (sv > np.finfo(float).eps * max(a.shape[1:]) * sv[:, :1])[:, None]
    resid = (u @ (b[:, None] @ u).transpose(0, 2, 1))[..., 0] - b
    return np.abs(resid).max(axis=1) <= _RANK_TOL * np.maximum(1.0, np.abs(b).max(axis=1))


def _accept(net, words, points, tables: NodeMaps, pid, witnessed, lp_tol: float) -> dict:
    """{word: interior point} of the sorted candidate ``words`` of a layer,
    with sample ``points``, that name cells; raises the first genericity
    error in word order.  Word i's node maps are table pid[i] of ``tables``.
    A word builds its H-representation only for the witness LP, when its
    point falls short, unless it is that LP's own point (``witnessed``)."""
    n0 = net.n0
    offs, const, unit, unit_off = (t.take(pid, 0) for t in (tables.offsets, tables.const, *tables.unit))
    s = np.fromiter(itertools.chain.from_iterable(words), float, offs.size).reshape(offs.shape)
    # Constant rows as in _hrep_for: they are left out of every test, and a
    # word they contradict is dropped, or raises where _hrep_for would.
    ok = ~(const & ((s * offs <= 0) | (np.abs(offs) <= _ZERO_OFFSET))).any(axis=1)
    zero = s == 0
    zeros = zero.sum(axis=1)
    # Signed slack of each row at each word's point: strict rows must clear
    # the margin, zero rows lie within the residual.
    v = _dot(unit, points[:, None]) - unit_off
    slack = np.where(zero | const, np.inf, s * v).min(axis=1)
    resid = np.where(zero & ~const, np.abs(v), 0.0).max(axis=1)
    clears = (slack > _CLEAR_MARGIN * lp_tol) & (resid <= _SAMPLE_RESID * lp_tol)
    # One test per zero count z: up to n0 rows the rank flags dependent zero
    # sets, past n0 the residual unsolvable ones.  One unit row is independent.
    flag = np.zeros(len(words), dtype=bool)
    for z in set(zeros[ok].tolist()) - {0, 1}:
        pick = np.flatnonzero(ok & (zeros == z))
        a, b = unit[pick][zero[pick]].reshape(-1, z, n0), unit_off[pick][zero[pick]].reshape(-1, z)
        rank = (np.linalg.svd(a, compute_uv=False) > _RANK_TOL).sum(axis=1)
        flag[pick] = rank < z if z <= n0 else ~_solvable(a, b)
    out = {}
    per_word = zip(words, points, zeros.tolist(), ok.tolist(), clears.tolist(), flag.tolist(), pid.tolist())
    for word, x, z, fine, sure, flagged, p in per_word:
        if not (fine or _constant_rows_hold(net, word, tables[p])) or (z > n0 and flagged):
            continue
        if not (sure or word in witnessed):
            x = _witness(_hrep_for(net, word, tables[p]), lp_tol)
            if x is None:
                continue
        if z > n0:
            raise GenericityError(f"feasible pattern {signs_to_str(word)} has {z} > n0 zeros")
        if flagged:
            raise GenericityError(f"dependent zero-set equations on {signs_to_str(word)}")
        out[word] = x
    return out


def _seed(tables: NodeMaps, n0: int, n_1: int) -> dict | None:
    """{word: point} of all 3^m words of layer 1's first m = min(n0, n_1)
    maps, whose non-constant, independent unit rows take R^n0 onto R^m:
    each word is a region of dimension n0 - #zeros, with the least-norm point
    for its targets in {-1, 0, 1}^m, where layer 1's :func:`_arrangement` declines.
    None otherwise, or for a point beyond _FAR, where the band's decisions
    hang on the LP path's own points."""
    m = min(n0, n_1)
    unit, unit_off = (u[0, :m] for u in tables.unit)  # layer 1's one table
    if tables.const[0, :m].any() or (np.linalg.svd(unit, compute_uv=False) > _RANK_TOL).sum() < m:
        return None
    words = list(itertools.product((-1, 0, 1), repeat=m))
    points = np.linalg.lstsq(unit, (unit_off + np.array(words)).T, rcond=None)[0].T
    if np.abs(points).max() > _FAR:
        return None
    return dict(zip(words, points))


def _least_singular(mat, tol):
    """Least singular value of each stacked n x n matrix of unit rows where it
    is at most ``tol``; elsewhere |det| / sqrt(n)^(n - 1), a bound below it."""
    out = np.abs(np.linalg.det(mat)) / mat.shape[-1] ** ((mat.shape[-1] - 1) / 2)
    if (low := out <= tol).any():
        out[low] = np.linalg.svd(mat[low], compute_uv=False)[:, -1]
    return out


def _arrangement(net: ReluNetwork, index: dict, tables: NodeMaps, lp_tol: float) -> dict | None:
    """{word: point} of all cells of layer k, from the stage cells ``index``
    ({word: i}) and their stacked ``tables``.  With layer 1 of rank n0 a cell
    is a word t on the n0 zero maps of a vertex in its closure: the stage
    cell's zero rows and d of layer k's maps on its table, d its dimension,
    solved strictly inside it.  A word's point steps min(1, r/2) along M^-1 t
    from the vertex where that clears its rows most (M the zero rows, r the
    distance to the next hyperplane, on the word's parent table).  None for
    n_1 <= n0 at layer 1, a constant layer-1 row or rank below n0, a least
    singular value at most _RANK_TOL at layer 1 and else in (_ROUNDING, split
    band], a row in the band at a vertex, a vertex beyond _FAR, a word whose
    parent is no stage cell or takes its M in that band, or a point off its
    zero rows by more than acceptance's residual (1e6 out, by rounding)."""
    n0, n_1, parents, near = net.n0, net.layers[0].out_dim, list(index), _SPLIT_MARGIN * lp_tol
    off, size, (unit, unit_off) = len(parents[0]), tables.rows.shape[1], tables.unit
    if n_1 <= n0 - (off > 0) or tables.const[0, :n_1].any() or (
        off and np.linalg.svd(unit[0, :n_1], compute_uv=False)[n0 - 1] <= _RANK_TOL
    ):
        return None
    if tables.const.any():  # a constant row's value is its offset's sign times inf
        unit = np.where(tables.const[..., None], 0.0, unit)
        unit_off = np.where(tables.const, -np.copysign(np.inf, tables.offsets), unit_off)
    floor, tol = (_ROUNDING, near) if off else (-1.0, _RANK_TOL)  # no vertex; decline
    stage = np.array(parents, dtype=np.int8).reshape(len(parents), off)
    dims, found = n0 - (stage == 0).sum(axis=1), []
    for d in sorted(set(dims.tolist())):
        pids, maps = np.flatnonzero(dims == d), list(itertools.combinations(range(off, size), d))
        maps = np.array(maps, dtype=int).reshape(len(maps), d)
        own = np.nonzero(stage[pids] == 0)[1].reshape(len(pids), n0 - d)
        for lo in range(0, len(pids) * len(maps), _CHUNK):
            i, j = np.divmod(np.arange(lo, min(lo + _CHUNK, len(pids) * len(maps))), len(maps))
            pid, zeros = pids[i], np.concatenate([own[i], maps[j]], axis=1)
            least = _least_singular(mat := unit[pid[:, None], zeros], tol)
            if ((keep := least > floor) & (least <= tol)).any():
                return None
            pid, zeros, mat = pid[keep], zeros[keep], mat[keep]
            x = np.linalg.solve(mat, unit_off[pid[:, None], zeros][..., None])[..., 0]
            v = _dot(unit[pid], x[:, None]) - unit_off[pid]
            margin = np.abs(v)  # each row's distance from x, signed by the stage cell's sign
            margin[:, :off] = stage[pid] * v[:, :off]
            margin[np.arange(len(x))[:, None], zeros] = np.inf
            inside = (margin >= -near).all(axis=1)
            x, zeros, v, pid, margin = (a[inside] for a in (x, zeros, v, pid, margin))
            if (margin <= near).any() or np.abs(x).max(initial=0.0) > _FAR:
                return None
            # v takes the stage cell's signs; the stars set the zeros.
            found.append((x, zeros, np.sign(v).astype(np.int8), pid, margin.min(axis=1)))
    x, zeros, word, pid, r = (np.concatenate(a) for a in zip(*found))
    t, words = _stars(word, zeros)  # (vertex, t, map)
    words = words.reshape(-1, size)
    # t's entries on the stage zeros lead: a run of 3^d words shares a parent.
    at = np.repeat(np.arange(len(x)), len(t) // (run := 3 ** dims[pid]))  # vertex of each pair
    pair = np.repeat(np.arange(len(at)), run[at])  # pair of each word
    tab = [index.get(h, -1) for h in map(tuple, words[np.cumsum(run[at]) - run[at], :off].tolist())]
    tab, r = np.array(tab, dtype=int), r[at]
    mat, other = unit[tab[:, None], zeros[at]], np.flatnonzero(tab != pid[at])
    if (tab < 0).any() or len(other) and (_least_singular(mat[other], tol) <= tol).any():
        return None
    if len(other):  # r anew on a parent other than the vertex's
        v = np.abs(_dot(unit[tab[other]], x[at[other], None]) - unit_off[tab[other]])
        v[np.arange(len(other))[:, None], zeros[at[other]]] = np.inf
        r[other] = v.min(axis=1)
    step, inv = np.minimum(1.0, 0.5 * r), np.linalg.inv(mat)
    k = np.arange(len(pair)) % len(t)
    length = np.sqrt(np.einsum("kn,vnj,kj->vk", t, np.einsum("vmn,vmj->vnj", inv, inv), t))[pair, k]
    # Each word at its first (vertex, t) by falling clearance.
    order = np.argsort(-(step[pair] / np.maximum(1.0, length)), kind="stable")
    first = order[np.unique(words.view(np.dtype((np.void, size)))[order, 0], return_index=True)[1]]
    p, k, length = pair[first], k[first], length[first]  # |M^-1 t|
    d = (inv[p] @ t[k, :, None])[..., 0] / np.where(length > 0, length, 1.0)[:, None]
    points, words, tab = x[at[p]] + step[p, None] * d, words[first], tab[p]
    w, z = np.nonzero(words == 0)  # each word's zero rows, read as acceptance reads them
    if np.abs(_dot(unit[tab[w], z], points[w]) - unit_off[tab[w], z]).max() > _SAMPLE_RESID * lp_tol:
        return None
    return dict(zip(map(tuple, words.tolist()), points))


def _enumerate_cells(net: ReluNetwork, lp_tol: float) -> list:
    """Sorted sign words of all cells of C(F); raises the genericity and
    forced-flatness errors of :func:`build_complex`."""
    n0 = net.n0
    near = _SPLIT_MARGIN * lp_tol
    stage = {(): np.zeros(n0)}  # cell -> point of its relative interior
    for k, layer in enumerate(net.layers, start=1):
        n_k, off = layer.out_dim, len(next(iter(stage)))
        # The parents' node-map tables in one stack: row p of table i, that
        # of parents[i], is row i * size + p of the flat arrays.
        parents, size = list(stage), off + n_k
        tables = node_maps(net, np.array(parents, dtype=float).reshape(len(parents), off))
        index = {p: i for i, p in enumerate(parents)}
        rows, unit = tables.rows.reshape(-1, n0), tables.unit[0].reshape(-1, n0)
        offsets, consts, unit_off = (t.ravel() for t in (tables.offsets, tables.const, tables.unit[1]))
        hit = tables.const[:, off:] & (np.abs(tables.offsets[:, off:]) <= _ZERO_OFFSET)
        dead = np.flatnonzero(hit.any(axis=1))  # parents on which a map vanishes
        vanishing = {parents[i] for i in dead.tolist()}
        # The layer comes whole from :func:`_arrangement`, or layer 1 starts
        # from :func:`_seed`'s words.  Else each step splits {word: point},
        # exactly the nonempty regions, by their closures; the witness LP
        # takes each piece a region's point does not prove, and every region
        # once a vanishing map leaves its parent unsplit (acceptance raises).
        regions = {p: x for p, x in stage.items() if p not in vanishing}
        start, witnessed = (0 if regions else n_k), set()
        seeded = not vanishing and _arrangement(net, index, tables, lp_tol)
        seeded = seeded or k == 1 and not vanishing and _seed(tables, n0, n_k)
        if seeded:
            regions, start = seeded, len(next(iter(seeded))) - off
        for j in range(start, n_k):
            words = list(regions)
            pid = np.array([index[w[:off]] for w in words], dtype=int)
            at = pid * size
            r = at + off + j
            const, a, b = consts[r], unit[r], unit_off[r]
            v = _dot(a, np.array(list(regions.values()))) - b
            dims = n0 - np.array([w.count(0) for w in words])
            sel = (dims > 0) & ~const & (not vanishing) & (dims == 0).any()  # none before a vertex region
            read = _closure_pieces(regions, sel, rows, at, a, b, near) if sel.any() else {}
            # Outside the band x proves its own side, and at a vertex unless
            # the zero set and the map agree (one batched residual): an
            # ill-conditioned zero set can pass acceptance even where the
            # map is far from zero at the vertex.
            vert = np.flatnonzero((dims == 0) & ~const & (np.abs(v) > near)).tolist()
            agree = {}
            if vert:
                # The zero rows and row off + j, as the zeros of word + (0,).
                zs = np.nonzero(np.array([words[i] + (0,) for i in vert]) == 0)[1]
                eqs = at[vert, None] + zs.reshape(-1, n0 + 1)
                agree = dict(zip(vert, _solvable(unit[eqs], unit_off[eqs]).tolist()))
            refined = {}
            for i, (word, x) in enumerate(regions.items()):
                if const[i]:
                    pieces = [(1 if offsets[r[i]] > 0 else -1, x)]
                elif read.get(i):
                    pieces = read[i]
                else:
                    side = 1 if v[i] > 0 else -1
                    pieces = [(side, x)] if abs(v[i]) > near else []
                    todo = [t for t in (-1, 0, 1) if not pieces or t != side]
                    for sign in todo if agree.get(i, True) else []:
                        y = _witness(_hrep_for(net, word + (sign,), tables[pid[i]]), lp_tol)
                        # A last-step piece is a word, and acceptance keeps y.
                        if y is not None:
                            pieces.append((sign, y))
                            witnessed.add(word + (sign,))
                for sign, y in pieces:
                    refined[word + (sign,)] = y
            regions = refined
        # Acceptance tests every word of the layer in one pass, in word
        # order up to the first vanishing parent, which then raises.
        words = sorted(w for w in regions if not vanishing or w < parents[dead[0]])
        points = np.array([regions[w] for w in words]).reshape(-1, n0)
        pid = np.array([index[w[:off]] for w in words], dtype=int)
        stage = _accept(net, words, points, tables, pid, witnessed, lp_tol)
        if vanishing:
            p = off + int(np.argmax(hit[dead[0]]))
            raise GenericityError(f"node map {net.ij(p)} vanishes identically on a region")
        _abort_on_forced_flats(stage, n_k, n0)
    return sorted(stage)


def build_complex(
    net: ReluNetwork,
    sign_tol: float = 1e-9,
    lp_tol: float = 1e-7,
) -> CanonicalComplex:
    """Enumerate all cells of C(F) with dimensions, flat flags and vertices.

    Raises GenericityError (supertransversality violations), FlatCellError
    (F constant on a positive-dimensional cell meeting a vertex) or
    InjectivityError (two vertices share an F value); ValueError unless
    ``lp_tol`` is in (0, 1), where the witness LP's capped slack can exceed
    it, and ``sign_tol`` finite and >= 0.
    """
    if not (np.isfinite(lp_tol) and 0 < lp_tol < 1):
        raise ValueError(f"lp_tol must be finite and in (0, 1), got {lp_tol}")
    if not (np.isfinite(sign_tol) and sign_tol >= 0):
        raise ValueError(f"sign_tol must be finite and >= 0, got {sign_tol}")
    return _assemble(net, _enumerate_cells(net, lp_tol), sign_tol, lp_tol)


def _flag_flat(cpx: CanonicalComplex) -> None:
    """Flag the positive-dimensional cells on which F is constant: their
    gradients in one stacked product, by one stacked SVD of their zero sets
    per dimension.  With a vertex face the Morse machinery cannot run:
    FlatCellError names the first such cell.  Vertex-free flat cells (uncut
    bent hyperplanes) stay flagged."""
    n0, final, n = cpx.n0, cpx.net.final, cpx.net.total_neurons
    names, rows, *_ = cpx.words()
    pos = np.flatnonzero(dims := n0 - (rows == 0).sum(axis=1))
    s, dims = rows[pos], dims[pos]
    prefixes, at = np.unique(s[:, : -final.in_dim], axis=0, return_inverse=True)
    tables, at, flat = cpx.tables(prefixes.tolist()), at.reshape(-1), np.zeros(len(pos), dtype=bool)
    g = _gradients(final, s, tables.rows, at)
    unit = tables.unit[0].reshape(-1, n0)  # row p of table i: row i * n + p
    for dim in set(dims.tolist()):
        sel = np.flatnonzero(dims == dim)
        proj = g[sel]
        if dim < n0:
            zeros = np.nonzero(s[sel] == 0)[1].reshape(len(sel), n0 - dim)
            basis = np.linalg.svd(unit[at[sel, None] * n + zeros])[2][:, n0 - dim :]
            proj = (basis @ g[sel, :, None])[..., 0]
        flat[sel] = _is_flat(np.linalg.norm(proj, axis=1), np.linalg.norm(g[sel], axis=1))
    for i in pos[flat].tolist():
        cpx.cells[names[i]].flat = True
    _raise_on_vertex_face("F is constant on cell", s[flat], rows[(rows == 0).sum(axis=1) == n0])


def _assemble(net, cell_signs, sign_tol, lp_tol) -> CanonicalComplex:
    """Complex on the given cells: flat flags, vertex table, injectivity."""
    n0 = net.n0
    cells = {s: Cell(s, n0 - s.count(0)) for s in cell_signs}
    cpx = CanonicalComplex(net, cells, {}, lp_tol)

    _flag_flat(cpx)
    words = sorted(s for s, c in cells.items() if c.dim == 0)
    locs = _vertex_locations(cpx, words) if words else []
    cpx.vertices = {v: VertexRecord(v, loc, net.evaluate(loc)) for v, loc in zip(words, locs)}
    _check_injective(list(cpx.vertices.values()), sign_tol)
    return cpx


def _check_injective(records, sign_tol) -> None:
    """InjectivityError at the first pair of ``records``, in list order, whose
    values agree within sign_tol * max(1, |values|).  Such values lie within
    sign_tol / (1 - sign_tol) * max(1, |x|) of either one, x, so only the
    pairs within twice that in sorted order are tested."""
    values = [v.value for v in records]
    order = np.argsort(values, kind="stable")
    x, reach = np.array(values)[order], (2 * sign_tol / (1 - sign_tol) if sign_tol < 1 else np.inf)
    hi = np.searchsorted(x, x + reach * np.maximum(1.0, np.abs(x)), side="right")
    near = np.flatnonzero(hi > np.arange(1, len(x) + 1)).tolist()  # p with a neighbour in reach
    pairs = (sorted((order[p], order[q])) for p in near for q in range(p + 1, hi[p]))
    agree = [(i, j) for i, j in pairs
             if abs(values[i] - values[j]) <= sign_tol * max(1.0, abs(values[i]), abs(values[j]))]
    if agree:
        va, vb = (records[i] for i in min(agree))
        raise InjectivityError(
            f"vertices {signs_to_str(va.signs)} and {signs_to_str(vb.signs)} share the value {va.value!r}"
        )
