"""Differential tests of the cell enumeration.

``brute_force_stage`` is the enumeration that ``build_complex`` used before
cells were split neuron by neuron: inside every parent cell it tries all
3^n_k sign words of the next layer and keeps a word when the interior-witness
LP finds a point clearing its strict inequalities, and its forced-flat check
scans every vertex with ``is_face``.  Both enumerations must give the same
cells, dimensions, flat flags, vertex records and witnesses, or the same
structured error.

The split decides a region from the vertices and rays of its closure, and by
the witness LP on each of its pieces where the closure holds no vertex or a
sign falls in the tolerance band.  Forcing the LP everywhere must not change
the outcome either.  Nor may
forcing acceptance's witness LP, or starting layer 1 by LP where it starts
in closed form.  The stacked closure split must agree with
the per-region ``conftest.generator_pieces``, the stacked flat-flag test
with the per-cell loop of ``conftest.reference_flatness``, the stacked
edge solve with the per-edge ``conftest.reference_edge_slopes``, each
vertex's own-table location with ``conftest.reference_vertex_location``, and
the one stacked solve of all vertices with ``conftest``'s solve of each
vertex alone on its own table, each
layer's one acceptance pass with the per-parent ``conftest.reference_accept``,
the batched residual with ``conftest.reference_consistent``'s lstsq, the
stacked node-map tables with the per-word ``conftest.reference_node_maps``,
the forced-flat abort's and the flat-cell test's ``is_face`` scans with
the closure walks of ``conftest.closure_walk_abort`` and
``conftest.closure_flag_flat``, and the facet lookups by word key with the
dict lookups of ``conftest.reference_facets``.
"""

import contextlib
import importlib.util
import itertools
import math
import pathlib
import re
import sys
from collections import Counter

import numpy as np
import pytest
from conftest import (
    SWEEP_ACCEPTED,
    closure_flag_flat,
    closure_generators,
    closure_walk_abort,
    complex_forms,
    edge_outcome,
    facets,
    generator_pieces,
    interior_witness,
    interior_witness_of,
    own_table_vertex_location,
    reference_accept,
    reference_closures,
    reference_consistent,
    reference_edge_slopes,
    reference_facets,
    reference_flatness,
    reference_node_maps,
    reference_vertex_location,
    stacked_outcomes,
)

import relumorse.complex as complex_module
import relumorse.dgvf as dgvf_module
from relumorse import AffineLayer, Architecture, ReluNetwork, build_complex, compactify, net_b, random_network
from relumorse.complex import (
    CanonicalComplex,
    Cell,
    _assemble,
    _enumerate_cells,
    _facets,
    _hrep_for,
    is_face,
)
from relumorse.errors import FlatCellError, GenericityError, StructuredError
from relumorse.network import node_maps, signs_to_str

SIGN_TOL = 1e-9
LP_TOL = 1e-7


def _abort_on_forced_flats(net, stage, upto_layer, n0):
    """Fail fast when a whole hidden layer is dead on a cell with a vertex.

    All deeper layer maps are constant on such a cell, so the finished
    complex is guaranteed to contain a flat positive-dimensional cell with a
    vertex in its closure; raising here skips the remaining refinement work.
    """
    vertex_patterns = [s for s in stage if sum(1 for e in s if e == 0) == n0]
    if not vertex_patterns:
        return
    offset = 0
    blocks = []
    for layer in net.layers[:upto_layer]:
        blocks.append((offset, offset + layer.out_dim))
        offset += layer.out_dim
    for signs in stage:
        if sum(1 for e in signs if e == 0) >= n0:
            continue  # vertices themselves are allowed to be "flat"
        if not any(all(e <= 0 for e in signs[a:b]) for a, b in blocks):
            continue
        if any(is_face(v, signs) for v in vertex_patterns):
            raise FlatCellError(
                f"layer dead on cell {signs_to_str(signs)}, which has a vertex;"
                " network is out of scope"
            )


def brute_force_stage(net, lp_tol=LP_TOL):
    """{signs: (witness, clearance)} for every cell, trying all 3^n_k words."""
    n0 = net.n0
    stage = {(): None}
    for k, layer in enumerate(net.layers, start=1):
        n_k = layer.out_dim
        new_stage = {}
        for parent in sorted(stage):
            table = node_maps(net, parent)
            for t in itertools.product((-1, 0, 1), repeat=n_k):
                cand = parent + t
                rep = _hrep_for(net, cand, table)
                if rep is None:
                    continue
                zeros = sum(1 for s in cand if s == 0)
                if zeros > n0 and rep.a_eq.shape[0]:
                    sol, *_ = np.linalg.lstsq(rep.a_eq, rep.b_eq, rcond=None)
                    resid = float(np.abs(rep.a_eq @ sol - rep.b_eq).max())
                    if resid > 1e-7 * max(1.0, float(np.abs(rep.b_eq).max())):
                        continue
                found = interior_witness(
                    rep.a_eq, rep.b_eq, rep.a_ge, rep.b_ge, feas_tol=lp_tol
                )
                if found is None:
                    continue
                if zeros > n0:
                    raise GenericityError(
                        f"feasible pattern {signs_to_str(cand)} has {zeros} > n0 zeros"
                    )
                if rep.a_eq.shape[0]:
                    rank = np.linalg.matrix_rank(rep.a_eq, tol=1e-7)
                    if rank < rep.a_eq.shape[0]:
                        raise GenericityError(
                            f"dependent zero-set equations on {signs_to_str(cand)}"
                        )
                new_stage[cand] = found
        stage = new_stage
        _abort_on_forced_flats(net, stage, k, n0)
    return stage


def record(cpx, witnesses):
    """Comparable summary of a complex and its cells' interior witnesses."""
    cells = [(s, c.dim, c.flat) for s, c in cpx.cells.items()]
    vertices = [(s, v.location.tobytes(), v.value) for s, v in cpx.vertices.items()]
    wit = [(s, w.tobytes(), float(c)) for s, (w, c) in witnesses.items()]
    return ("ok", cells, vertices, wit)


def split_outcome(net):
    try:
        cpx = build_complex(net, sign_tol=SIGN_TOL, lp_tol=LP_TOL)
    except StructuredError as exc:
        return ("error", type(exc).__name__, exc.payload())
    return record(cpx, {s: interior_witness_of(net, s, LP_TOL) for s in cpx.cells})


def brute_force_outcome(net):
    try:
        stage = brute_force_stage(net)
        cpx = _assemble(net, sorted(stage), SIGN_TOL, LP_TOL)
    except StructuredError as exc:
        return ("error", type(exc).__name__, exc.payload())
    return record(cpx, stage)


def _net(weights, biases, final):
    layers = tuple(AffineLayer(w, b) for w, b in zip(weights, biases))
    return ReluNetwork(layers, AffineLayer([final], [0.0]))


DEGENERATE = {
    # Three lines through the origin: 000 is a feasible pattern with 3 > n0 zeros.
    "three_lines": _net([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]], [[0.0, 0.0, 0.0]], [1.0, 2.0, 4.0]),
    # Layer 1 is dead on x < 0, where node map (2, 1) is its zero bias.
    "dead_region_vanishes": _net(
        [[[1.0, 0.0]], [[1.0], [2.0]]], [[0.0], [0.0, 1.0]], [1.0, 2.0]
    ),
    # Node map (2, 1) = relu(x) - relu(x - 1) - 1 is zero for x >= 1.  Parent
    # +0 (the line x = 1) is split first, where it repeats the equation x = 1.
    "vanishes_on_a_line": _net(
        [[[1.0, 0.0], [1.0, 0.0]], [[1.0, -1.0], [0.5, 1.0]]],
        [[0.0, -1.0], [-1.0, 0.3]],
        [1.0, 2.0],
    ),
    # Node map (1, 1) is zero everywhere, so layer 1 has no region to split.
    "layer_one_vanishes": _net(
        [[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]], [[0.0, 0.0, 0.1]], [1.0, 2.0, 4.0]
    ),
}

RANDOM_ARCHS = ((2, 3, 1), (2, 5, 1), (3, 4, 1), (2, 4, 3, 1), (2, 4, 4, 1), (3, 4, 3, 1))
RANDOM = [(arch, seed) for arch in RANDOM_ARCHS for seed in range(6)]
RANDOM += [((2, 8, 1), 0), ((3, 6, 1), 0), ((4, 7, 1), 0), ((4, 7, 1), 1)]
RANDOM += [(arch, seed) for arch in ((2, 4, 4, 1), (3, 4, 3, 1)) for seed in range(6, 10)]


def _integer_net(arch, seed, noise):
    """Integer weights in [-2, 2] plus ``noise`` times standard normal: many
    near-coincident hyperplanes and vertices."""
    rng = np.random.default_rng(seed)
    dims = list(arch) + [1]
    weights = [rng.integers(-2, 3, (m, n)) + noise * rng.standard_normal((m, n))
               for n, m in zip(dims, dims[1:])]
    biases = [rng.integers(-2, 3, m) + noise * rng.standard_normal(m) for m in dims[1:]]
    layers = tuple(AffineLayer(w, b) for w, b in zip(weights[:-1], biases[:-1]))
    return ReluNetwork(layers, AffineLayer(weights[-1], [0.5]))


CASES = [pytest.param(net_b(), id="net_b")]
CASES += [pytest.param(net, id=name) for name, net in DEGENERATE.items()]
CASES += [
    pytest.param(
        random_network(Architecture.from_full(arch), seed=seed),
        id=f"{'x'.join(map(str, arch))}-s{seed}",
    )
    for arch, seed in RANDOM
]


# Integer nets that a split naming pieces it could not prove empty, for
# acceptance to drop, got wrong: two built a cell without an interior
# witness (+00 and +-+-0), and one raised FlatCellError where the brute
# force finds dependent zero-set equations on +0+0.  On the last, the brute
# force's own witness LP of ++00 returned a point off its equality rows as
# optimal, and raised dependent zero-set equations on ++00.
REGRESSION = [
    pytest.param(_integer_net(arch, seed, noise), id=f"int-{'x'.join(map(str, arch))}-{noise}-s{seed}")
    for arch, seed, noise in (
        ((2, 3), 29, 1e-8), ((2, 3, 2), 19, 1e-9), ((2, 4), 28, 1e-8), ((3, 2, 2), 9, 1e-9)
    )
]


@pytest.mark.parametrize("net", CASES + REGRESSION)
def test_split_enumeration_matches_brute_force(net):
    assert split_outcome(net) == brute_force_outcome(net)


@pytest.mark.parametrize(
    "arch, seed, noise, facets, regions", [((2, 3), 29, 1e-8, 9, 7), ((3, 4), 6, 1e-10, 28, 15)]
)
def test_far_facets_and_regions_are_kept(arch, seed, noise, facets, regions):
    # One layer of hyperplanes in general position, some of them meeting
    # 1e8 to 1e9 out, where a witness point misses its equality rows by
    # about ulp(|x|) = 1e-7 from rounding alone: every region and facet of
    # the arrangement is built.  (Its vertices and edges that far out are
    # not all found yet.)
    cells = build_complex(_integer_net(arch, seed, noise)).cells.values()
    dims = [c.dim for c in cells]
    assert (dims.count(arch[0] - 1), dims.count(arch[0])) == (facets, regions)


def test_degenerate_cases_raise_genericity():
    for name, expected in (
        ("three_lines", "feasible pattern 000 has 3 > n0 zeros"),
        ("dead_region_vanishes", "node map (2, 1) vanishes identically on a region"),
        ("vanishes_on_a_line", "dependent zero-set equations on +00+"),
        ("layer_one_vanishes", "node map (1, 1) vanishes identically on a region"),
    ):
        with pytest.raises(GenericityError, match=re.escape(expected)):
            build_complex(DEGENERATE[name])


def test_ill_conditioned_vertex_split_keeps_the_zero_piece():
    # y = 0 and y = 1e-6 x meet at the origin, where x - 0.01 is far from
    # zero, yet the three zero sets agree within _RANK_TOL.  The vertex split
    # must keep 000 for acceptance to report; splitting by the sign at the
    # vertex alone drops it, and the build fails later as forced-flat.
    net = ReluNetwork(
        (AffineLayer([[0.0, 1.0], [-1e-6, 1.0], [1.0, 0.0]], [0.0, 0.0, -0.01]),),
        AffineLayer([[1.0, 2.0, 3.0]], [0.5]),
    )
    with pytest.raises(GenericityError, match=re.escape("feasible pattern 000 has 3 > n0 zeros")):
        build_complex(net)


@pytest.mark.parametrize("scale", [1.0, 1e9])
def test_vertices_far_out_are_kept(scale):
    # One input, hyperplanes at 2 and 3 times the scale.  At 1e9 the points
    # lie past _FAR, so the split LPs decide, and their optima past the
    # LP's first box: the complex must match the one at scale 1.
    net = ReluNetwork(
        (AffineLayer([[1.0], [-1.0]], [-2.0 * scale, 3.0 * scale]),),
        AffineLayer([[1.0, 2.0]], [0.0]),
    )
    cpx = build_complex(net)
    assert {s: c.dim for s, c in cpx.cells.items()} == {
        (-1, 1): 1, (0, 1): 0, (1, 1): 1, (1, 0): 0, (1, -1): 1
    }
    assert [v.location[0] / scale for v in cpx.vertices.values()] == [2.0, 3.0]


def _decline_arrangement(monkeypatch):
    """Turn off the closed form at every layer, as its guards do."""
    monkeypatch.setattr(complex_module, "_arrangement", lambda *args: None)


def _spy(monkeypatch, name) -> list:
    """Record the calls of ``relumorse.complex.<name>``."""
    calls = []
    real = getattr(complex_module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(complex_module, name, spy)
    return calls


GENERIC_ARCHS = [(2, 8, 1), (4, 7, 1), (3, 6, 1), (2, 4, 3, 1), (2, 4, 4, 1), (3, 4, 3, 1)]
# Seed 0 of each arch, and seeds 1 and 2 of the one-hidden-layer ones and
# of the wider deep ones, with the closed form on and declined.
GENERIC = [
    (arch, seed, declined)
    for declined in (False, True)
    for arch in GENERIC_ARCHS
    + [(2, 20, 1), (3, 8, 1), (4, 10, 1), (2, 8, 8, 1), (2, 12, 12, 1), (2, 6, 6, 6, 1)]
    for seed in range(1 if arch in GENERIC_ARCHS[3:] else 3)
]
# One-hidden-layer nets rejected as flat.
FLAT_GENERIC = {((4, 7, 1), 2), ((3, 6, 1), 2)}


def _generic_id(case) -> str:
    arch, seed, declined = case
    return "-".join(map(str, arch)) + f"-s{seed}" * (seed > 0) + "-declined" * declined


@pytest.mark.parametrize("arch, seed, declined", GENERIC, ids=[_generic_id(case) for case in GENERIC])
def test_build_solves_no_lp_on_generic_nets(monkeypatch, arch, seed, declined):
    # Where layer 1 has more maps than inputs every layer comes whole from
    # its vertices, so no closure is read.  Declined, layer 1 starts from
    # the 3^n0 regions of its first n0 maps in closed form, so every later
    # split is read off a closure holding their vertex.  Either way every
    # sample point clears acceptance without a witness LP.  Most deep nets
    # are rejected as flat, after the same LP-free layers.
    if declined:
        _decline_arrangement(monkeypatch)
    lps = _spy(monkeypatch, "lp_solve")
    witnesses = _spy(monkeypatch, "_witness")
    reps = _spy(monkeypatch, "_hrep_for")
    splits = _spy(monkeypatch, "_closure_pieces")
    try:
        build_complex(random_network(Architecture.from_full(arch), seed=seed))
    except FlatCellError:
        assert len(arch) > 3 or (arch, seed) in FLAT_GENERIC
    # Nor is any H-representation built: a vertex that map j meets reads
    # its zero rows off the parent's table, and acceptance and the flat
    # flags build none.
    assert (lps, witnesses, reps) == ([], [], [])
    assert bool(splits) == declined


def structure(net):
    """Cells, vertex records or structured error of ``build_complex``."""
    try:
        cpx = build_complex(net, sign_tol=SIGN_TOL, lp_tol=LP_TOL)
    except StructuredError as exc:
        return ("error", type(exc).__name__, exc.payload())
    cells = [(s, c.dim, c.flat) for s, c in cpx.cells.items()]
    return ("ok", cells, [(s, v.location.tobytes(), v.value) for s, v in cpx.vertices.items()])


NEAR_DEGENERATE = [
    (arch, seed, noise)
    for arch in ((2, 3), (2, 4), (2, 3, 2), (3, 4), (2, 4, 3))
    for noise in (1e-6, 1e-8)
    for seed in range(8)
]


def test_lp_decisions_match_closure_decisions(monkeypatch):
    # Every region sent to the witness LP, as if no closure decided a split:
    # the same cells, vertex bytes and errors on the near-degenerate nets and
    # on CASES.  Layer 1 is split map by map, as where its closed form
    # declines.
    _decline_arrangement(monkeypatch)
    nets = [_integer_net(*case) for case in NEAR_DEGENERATE] + [p.values[0] for p in CASES]
    lps = _spy(monkeypatch, "_witness")
    read_off = [structure(net) for net in nets]
    own = len(lps)  # the vertex-free regions' LPs, the band's and acceptance's
    del lps[:]
    monkeypatch.setattr(complex_module, "_closure_pieces", lambda *_: {})
    for i, (net, expected) in enumerate(zip(nets, read_off)):
        assert structure(net) == expected, i
    assert len(lps) > own  # the regions with a vertex took the LP too


def _near_parallel_net(arch, seed, angle):
    """Random net whose second layer-1 row is turned to ``angle`` from its
    first, in the plane of the two; the rank cut falls near angle 1.4e-7."""
    net = random_network(Architecture.from_full(arch), seed=seed)
    w = np.array(net.layers[0].weights)
    u = w[0] / np.linalg.norm(w[0])
    p = w[1] - (w[1] @ u) * u
    w[1] = np.linalg.norm(w[1]) * (math.cos(angle) * u + math.sin(angle) * p / np.linalg.norm(p))
    first = AffineLayer(w, net.layers[0].bias)
    return ReluNetwork((first, *net.layers[1:]), net.final)


SEED_NETS = [random_network(Architecture.from_full(arch), seed=seed) for arch, seed in RANDOM]
SEED_NETS += [_integer_net(*case) for case in NEAR_DEGENERATE] + [net_b(), *DEGENERATE.values()]
# A constant first row, positive everywhere, and two parallel first rows.
SEED_NETS += [
    _net([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]], [[1.0, 0.0, 0.1, 1.0]], [1.0, 2.0, 4.0, 3.0]),
    _net([[[1.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [1.0, -1.0]]], [[0.0, 1.0, 0.3, -0.2]], [1.0, 2.3, 4.1, -3.7]),
]
SEED_NETS += [
    _near_parallel_net(arch, seed, 10.0**-e)
    for arch in ((2, 4, 1), (3, 4, 1), (2, 3, 2, 1))
    for seed in range(3)
    for e in range(4, 11)
]
SEED_NETS += [
    random_network(Architecture.from_full(arch), seed=seed)
    for arch in ((3, 1, 1), (3, 2, 1), (2, 1, 3, 1))
    for seed in range(6)
]


def test_closed_form_seed_matches_the_lp_path(monkeypatch):
    # Layer 1's closed-form regions against the LP splits they replace,
    # with the seed declining everywhere: the same cells, vertex bytes and
    # errors, on nets where the seed fires and where it declines.  The
    # arrangement's closed form is declined, so the seed runs on every net.
    _decline_arrangement(monkeypatch)
    real, seeded = complex_module._seed, []

    def spy(*args):
        out = real(*args)
        seeded.append(out is not None)
        return out

    monkeypatch.setattr(complex_module, "_seed", spy)
    expected = [structure(net) for net in SEED_NETS]
    monkeypatch.setattr(complex_module, "_seed", lambda *args: None)
    for i, (net, want) in enumerate(zip(SEED_NETS, expected)):
        assert structure(net) == want, i
    assert True in seeded and False in seeded


def _scaled_biases(net, scale):
    """``net`` with its layer-1 biases times ``scale``."""
    first = AffineLayer(net.layers[0].weights, np.array(net.layers[0].bias) * scale)
    return ReluNetwork((first, *net.layers[1:]), net.final)


ARRANGEMENT_NETS = SEED_NETS + [
    random_network(Architecture.from_full(arch), seed=0) for arch in ((2, 20, 1), (3, 8, 1), (4, 10, 1))
]
# Nets whose closed form must decline: a third line 1e-9 from the vertex of
# two others, within the band; (2,8,1) s0 with its layer-1 biases times
# 1e8, whose vertices lie past _FAR; and an integer (2,3,2) net with vertices
# about 1e6 out, where points miss their zero rows by more than 1e-10.
GUARDED = [
    _net(
        [[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -2.0]]],
        [[0.0, 0.0, -1e-9 * math.sqrt(2.0), 0.7]],
        [1.0, 2.0, 4.0, -3.0],
    ),
    _scaled_biases(random_network(Architecture.from_full((2, 8, 1)), seed=0), 1e8),
    _integer_net((2, 3, 2), 1, 1e-6),
]


def test_closed_form_layer_one_matches_the_declined_build(monkeypatch):
    # Layer 1's arrangement built from its vertices against the seed and
    # neuron steps it replaces, with the closed form declining everywhere:
    # the same cells, vertex bytes and errors, on nets where it fires and
    # where its guard declines.  Each point it gives clears acceptance's
    # margin on its word's strict rows, and lies within 10 * lp_tol of its
    # zero rows' hyperplanes.
    real, calls = complex_module._arrangement, []

    def spy(net, index, tables, lp_tol):
        out = real(net, index, tables, lp_tol)
        if index != {(): 0}:
            return out  # a later layer's
        calls[-1].append(out is not None)
        unit, unit_off = (u[0] for u in tables.unit)
        for word, x in (out or {}).items():
            s, v = np.array(word), unit @ x - unit_off
            assert (s * v > complex_module._CLEAR_MARGIN * LP_TOL)[s != 0].all(), word
            assert (np.abs(v) <= 10 * LP_TOL)[s == 0].all(), word
        return out

    monkeypatch.setattr(complex_module, "_arrangement", spy)
    nets = ARRANGEMENT_NETS + GUARDED
    expected = [calls.append([]) or structure(net) for net in nets]
    assert calls[-len(GUARDED) :] == [[False]] * len(GUARDED)
    assert [True] in calls and [False] in calls[: -len(GUARDED)]
    _decline_arrangement(monkeypatch)
    for i, (net, want) in enumerate(zip(nets, expected)):
        assert structure(net) == want, i


# The `deep` panel's architectures at seeds 0-5, wider two-layer nets at
# seeds 0-1 and the CLI sweep's accepted three-layer nets.
LAYER_NETS = [
    random_network(Architecture.from_full(arch), seed=seed)
    for arch, seeds in (
        ((2, 4, 3, 1), range(6)),
        ((2, 4, 4, 1), range(6)),
        ((3, 4, 3, 1), range(6)),
        ((2, 8, 8, 1), range(2)),
        ((2, 12, 12, 1), range(2)),
        ((3, 6, 6, 1), range(2)),
        ((2, 6, 6, 6, 1), (16, 22)),
    )
    for seed in seeds
]
# The near-degenerate two-layer integer nets, on which the closed form must
# decline at every layer past the first: at noise 1e-6 two of them, (2,3,2)
# s2 and s6, reach layer 2 with vertex systems whose least singular value
# is about 1.3e-7, inside the split band, where the split takes the
# witness LP.
INTEGER_LAYER_NETS = [_integer_net(*case) for case in NEAR_DEGENERATE if len(case[0]) == 3]
# Nets whose closed form must decline at every layer past the first, each
# of which reaches layer 2: a layer-2 bent hyperplane 1e-9 from a layer-1
# vertex, within the band; (2,8,8,1) s0 with its layer-1 biases times 1e8,
# whose vertices lie past _FAR; and (3,2,4,1) nets, whose layer 1 has rank
# 2 < n0, so that no cell has a vertex.
GUARDED_LAYERS = [
    _net(
        [[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [[1.0, -2.0, 0.5], [0.7, 0.4, -1.0], [1.0, 1.0, 1.0]]],
        [[-0.3, -0.2, 1.0], [-0.25 + 1e-9, 0.2, 0.1]],
        [1.0, -1.5, 0.5],
    ),
    _scaled_biases(random_network(Architecture.from_full((2, 8, 8, 1)), seed=0), 1e8),
    *(random_network(Architecture.from_full((3, 2, 4, 1)), seed=seed) for seed in range(2)),
]


def test_closed_form_layers_match_the_declined_build(monkeypatch):
    # Every layer built from its vertices against the seed and neuron steps
    # it replaces, with the closed form declining at every layer: the same
    # cells, vertex bytes and errors.  On the random nets it fires at every
    # layer past the first that they reach.
    real, calls = complex_module._arrangement, []

    def spy(net, index, tables, lp_tol):
        out = real(net, index, tables, lp_tol)
        calls[-1].append((len(next(iter(index))), out is not None))
        return out

    monkeypatch.setattr(complex_module, "_arrangement", spy)
    nets = LAYER_NETS + INTEGER_LAYER_NETS + GUARDED_LAYERS
    expected = [calls.append([]) or structure(net) for net in nets]
    later = [[fired for layer, fired in c if layer] for c in calls]  # past layer 1
    n, g = len(LAYER_NETS), len(GUARDED_LAYERS)
    random_nets, integer_nets, guarded = later[:n], later[n:-g], later[-g:]
    assert all(map(all, random_nets)) and sum(map(len, random_nets)) >= 10
    assert not any(map(any, integer_nets + guarded)) and any(integer_nets) and all(guarded)
    _decline_arrangement(monkeypatch)
    for i, (net, want) in enumerate(zip(nets, expected)):
        assert structure(net) == want, i


@pytest.mark.parametrize("arch", [(2, 12, 12, 1), (3, 6, 6, 1)])
def test_vertex_systems_in_chunks_give_the_same_cells(monkeypatch, arch):
    # The candidate vertex systems solved three at a time, against one
    # stacked call for all of a dimension's.
    net = random_network(Architecture.from_full(arch), seed=0)
    expected = structure(net)
    monkeypatch.setattr(complex_module, "_CHUNK", 3)
    assert structure(net) == expected


def test_hundred_lines_build_their_whole_arrangement(monkeypatch):
    # 100 lines in general position: C(100, 2) vertices, 100^2 edges and
    # 1 + 100 + C(100, 2) regions, with no split.
    splits, witnesses = _spy(monkeypatch, "_closure_pieces"), _spy(monkeypatch, "_witness")
    cpx = build_complex(random_network(Architecture.from_full((2, 100, 1)), seed=0))
    assert (len(cpx.cells), len(cpx.vertices)) == (20_001, 4_950)
    assert (splits, witnesses) == ([], [])


CLOSURE_NETS = [random_network(Architecture.from_full(arch), seed=seed) for arch, seed in RANDOM]
CLOSURE_NETS += [_integer_net(*case) for case in NEAR_DEGENERATE]
CLOSURE_NETS += [random_network(Architecture.from_full((2, 20, 1)), seed=0)]


def _pieces_differ(got, want) -> bool:
    """True unless both are None, or both name the same signs' pieces
    at points within 1e-12 * max(1, |x|), with |x| the largest coordinate
    of the pieces' points: they are read off segments between the interior
    point and q, and lose digits to the larger of the two."""
    if got is None or want is None:
        return (got is None) != (want is None)
    if [s for s, _ in got] != [s for s, _ in want]:
        return True
    scale = 1e-12 * max(1.0, max(float(np.abs(y).max()) for _, y in want))
    return any((np.abs(x - y) > scale).any() for (_, x), (_, y) in zip(got, want))


def test_closure_pieces_match_per_region_reference(monkeypatch):
    # At every exact step, each picked region's stacked decision against the
    # per-region reference on the closure that conftest's walk finds and the
    # same parent rows; a region whose closure holds no vertex is left out,
    # for the witness LP.  Layer 1 is split map by map here, as where its
    # closed form declines.
    _decline_arrangement(monkeypatch)
    real, checked = complex_module._closure_pieces, []

    def spy(regions, sel, rows, at, a, b, near):
        out = real(regions, sel, rows, at, a, b, near)
        n0, words = a.shape[1], list(regions)
        closures = reference_closures({w: n0 - w.count(0) for w in words}, reference_facets(words))
        for p in np.flatnonzero(sel).tolist():
            gens = closure_generators(regions, closures[words[p]], rows[at[p] :])
            assert (p in out) == (gens is not None), words[p]
            if gens is not None:
                want = generator_pieces(gens, a[p], b[p], near)
                assert not _pieces_differ(out[p], want), (words[p], out[p], want)
                checked.append(out[p] is None)
        return out

    monkeypatch.setattr(complex_module, "_closure_pieces", spy)
    for net in CLOSURE_NETS:
        structure(net)
    assert checked.count(False) > 5_000 and True in checked  # read off, and banded


def test_star_read_closures_match_the_closure_walk(monkeypatch):
    # At every neuron step of the declined builds of the near-degenerate
    # nets, CASES, the CLI sweep's nets and (2,20,1) s0, each picked
    # region's vertices and rays, read off the star table of the step's
    # vertex regions, are those of conftest's closure walk over the step's
    # facet map, in its order: vertices in word order, rays in (vertex,
    # edge) order, grouped by region in region order.
    _decline_arrangement(monkeypatch)
    real, seen = complex_module._region_faces, Counter()

    def spy(regions, sel, n0):
        out = vreg, vpos, rreg, rpos, zeros, rhs = real(regions, sel, n0)
        assert (np.diff(vreg) >= 0).all() and (np.diff(rreg) >= 0).all()
        words = list(regions)
        closures = reference_closures(
            {w: n0 - w.count(0) for w in words}, _facets(w := sorted(words), np.array(w, dtype=np.int8))
        )
        got = {p: ([], []) for p in np.flatnonzero(sel).tolist()}
        for p, v in zip(vreg.tolist(), vpos.tolist()):
            got[p][0].append(words[v])
        for p, v, z, t in zip(rreg.tolist(), rpos.tolist(), zeros.tolist(), rhs.tolist()):
            edge = list(words[v])
            for q, x in zip(z, t):
                edge[q] = x
            got[p][1].append((words[v], tuple(edge)))
        for p, (verts, rays) in got.items():
            assert (verts, rays) == (list(closures[words[p]][1]), list(closures[words[p]][2])), words[p]
            seen[min(len(verts), 2), bool(rays)] += 1
        return out

    monkeypatch.setattr(complex_module, "_region_faces", spy)
    nets = [_integer_net(*case) for case in NEAR_DEGENERATE] + [p.values[0] for p in CASES] + _sweep_nets()
    for net in nets + [random_network(Architecture.from_full((2, 20, 1)), seed=0)]:
        structure(net)
    # Vertex-free regions, cones on one vertex, and regions with several
    # vertices, with and without rays.
    assert seen[0, False] and min(seen[1, True], seen[2, False], seen[2, True]) > 5_000, seen


def test_every_region_holds_its_point(monkeypatch):
    # At every step each region is nonempty, with its point inside: strictly
    # on the side of each nonzero entry, and within 10 * lp_tol of each zero
    # entry's hyperplane.  A split that names a piece it could not prove
    # empty, with the parent's point, fails this.  Layer 1 is split map by
    # map, as where its closed form declines.
    _decline_arrangement(monkeypatch)
    checked, current = [], []

    def spy(regions, *args):
        net = current[-1]
        bounds = [0, *itertools.accumulate(layer.out_dim for layer in net.layers)]
        for word, x in regions.items():
            table = node_maps(net, word[: max(c for c in bounds if c < len(word))])
            n = len(word)
            s, const = np.array(word), table.const[:n]
            v = table.unit[0][:n] @ x - table.unit[1][:n]
            assert ((s * v > 0) | (s == 0) | const).all(), (word, v)
            assert ((np.abs(v) <= 10 * LP_TOL) | (s != 0) | const).all(), (word, v)
            checked.append(word)
        return real(regions, *args)

    real = complex_module._closure_pieces
    monkeypatch.setattr(complex_module, "_closure_pieces", spy)
    for net in [_integer_net(*case) for case in NEAR_DEGENERATE] + [p.values[0] for p in CASES]:
        current.append(net)
        structure(net)
    assert len(checked) > 5_000


def _exact(pieces):
    return pieces and [(s, x.tobytes()) for s, x in pieces]


def test_singular_ray_system_sends_only_its_region_to_the_lp(monkeypatch):
    # At the last step of (2,8,1) s0, one region with rays is pointed at a
    # parent table of equal rows, so each of its ray systems is singular.
    # That region alone is banded and takes the witness LP on its pieces;
    # the others are read off closures as before, and the outcome is the same.
    # Layer 1 is split map by map, as where its closed form declines.
    _decline_arrangement(monkeypatch)
    net = random_network(Architecture.from_full((2, 8, 1)), seed=0)
    real = complex_module._closure_pieces
    reps = _spy(monkeypatch, "_hrep_for")
    witnesses = _spy(monkeypatch, "_witness")
    steps, bent_words = [], []

    def spy(regions, sel, rows, at, a, b, near):
        steps.append(len(reps))
        out = real(regions, sel, rows, at, a, b, near)
        if len(steps) < last_step:
            return out
        rays = complex_module._region_faces(regions, sel, a.shape[1])[2]
        g = next(p for p in rays.tolist() if out[p])
        word = list(regions)[g]
        equal_rows = np.vstack([rows, np.repeat(rows[:1], len(word), axis=0)])
        at = at.copy()
        at[g] = len(rows)
        bent = real(regions, sel, equal_rows, at, a, b, near)
        assert bent[g] is None
        assert {p: _exact(x) for p, x in bent.items() if p != g} == {
            p: _exact(x) for p, x in out.items() if p != g
        }
        bent_words.append(word)
        return bent

    monkeypatch.setattr(complex_module, "_closure_pieces", spy)
    last_step = math.inf
    expected = structure(net)
    last_step = len(steps)
    assert (reps, witnesses) == ([], [])
    del steps[:]
    assert structure(net) == expected
    assert len(steps) == last_step and steps[-1] == 0
    # Each H-representation built is one of the bent region's pieces, for its
    # witness LP.
    assert witnesses and {signs[:-1] for _, signs, _ in reps} == set(bent_words)


def test_hyperplane_near_a_vertex_takes_the_lp(monkeypatch):
    # Layer 1 has a vertex at (0.3, 0.2), where node map (2, 1) is 1e-9.
    # Its closed form is declined, so layer 1 is seeded and then split.
    _decline_arrangement(monkeypatch)
    net = _net(
        [[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [[1.0, -2.0, 0.5], [0.7, 0.4, -1.0], [1.0, 1.0, 1.0]]],
        [[-0.3, -0.2, 1.0], [-0.25 + 1e-9, 0.2, 0.1]],
        [1.0, -1.5, 0.5],
    )
    lps = _spy(monkeypatch, "_witness")
    splits = _spy(monkeypatch, "_closure_pieces")
    outcome = split_outcome(net)
    # Layer 1 is seeded in closed form, so every LP is layer 2's, on a piece
    # with all three layer-1 rows and a layer-2 row: the vertex in the band
    # takes the witness LP on its pieces, and the closure splits go on at
    # every later step.
    assert lps and all(len(rep.b_ge) + len(rep.b_eq) >= 4 for rep, *_ in lps)
    assert [len(next(iter(regions))) for regions, *_ in splits] == [2, 3, 4, 5]
    assert outcome == brute_force_outcome(net)
    assert outcome[2]["message"] == "feasible pattern 00+0-+ has 3 > n0 zeros"


def test_witness_lp_acceptance_matches_sample_points(monkeypatch):
    # No sample point clears the margin, so every word with a strict row
    # takes _hrep_for and the witness LP.  Integer nets are left out: there
    # the LP's points alone change a few outcomes.
    nets = [random_network(Architecture.from_full(arch), seed=seed) for arch, seed in RANDOM]
    expected = [structure(net) for net in nets]
    witnesses = _spy(monkeypatch, "_witness")
    monkeypatch.setattr(complex_module, "_CLEAR_MARGIN", 1e12)
    for case, net, want in zip(RANDOM, nets, expected):
        assert structure(net) == want, case
    assert witnesses


@pytest.mark.parametrize("margin", [complex_module._CLEAR_MARGIN, 1e12])
def test_witness_matches_the_reference_lp(monkeypatch, margin):
    # Every witness LP that build solves on the near-degenerate nets,
    # at the shipped margin and with no sample point clearing it, gives the
    # point bytes of conftest's interior_witness, or None exactly where it
    # does.
    seen = []
    real = complex_module._witness

    def spy(rep, lp_tol):
        seen.append((rep, lp_tol, real(rep, lp_tol)))
        return seen[-1][2]

    monkeypatch.setattr(complex_module, "_witness", spy)
    monkeypatch.setattr(complex_module, "_CLEAR_MARGIN", margin)
    for case in NEAR_DEGENERATE:
        structure(_integer_net(*case))
    kept = 0
    for rep, lp_tol, found in seen:
        want = interior_witness(rep.a_eq, rep.b_eq, rep.a_ge, rep.b_ge, feas_tol=lp_tol)
        assert (found is None) == (want is None)
        if found is not None:
            assert found.tobytes() == want[0].tobytes()
            kept += 1
    assert 0 < kept < len(seen)


def flatness(net, cells, flag):
    """Flat flags that ``flag`` sets on the cells of ``net``, or the payload
    of its FlatCellError."""
    cpx = CanonicalComplex(
        net, {s: Cell(s, net.n0 - s.count(0)) for s in cells}, {}, LP_TOL
    )
    try:
        flag(cpx)
    except FlatCellError as exc:
        return exc.payload()
    return [(s, c.flat) for s, c in cpx.cells.items()]


# Nets without vertices keep their flat cells, flagged: F = relu(x) -
# relu(x - 1) on R^2, and F = relu(x) on R^3 through one layer and two.
FLAT_KEPT = {
    "parallel_lines": _net([[[1.0, 0.0], [1.0, 0.0]]], [[0.0, -1.0]], [1.0, -1.0]),
    "two_planes": _net([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]], [[0.0, 0.0]], [1.0, 0.0]),
    "two_planes_deep": _net(
        [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 1.0]]], [[0.0, 0.0], [-1.0]], [1.0]
    ),
}

FLATNESS_CASES = CASES + [pytest.param(net, id=name) for name, net in FLAT_KEPT.items()]
FLATNESS_CASES += [
    pytest.param(_integer_net(*case), id=f"int-{'x'.join(map(str, case[0]))}-{case[2]}-s{case[1]}")
    for case in NEAR_DEGENERATE
]
# Accepted, with many parent tables in its last layer.
FLATNESS_CASES += [
    pytest.param(random_network(Architecture.from_full((2, 8, 8, 1)), seed=0), id="2x8x8x1-s0")
]


@pytest.mark.parametrize("net", FLATNESS_CASES)
def test_flat_flags_match_per_cell_reference(net):
    outcome = structure(net)
    try:
        cells = _enumerate_cells(net, LP_TOL)
    except StructuredError as exc:
        assert outcome == ("error", type(exc).__name__, exc.payload())
        return
    expected = flatness(net, cells, reference_flatness)
    assert flatness(net, cells, complex_module._flag_flat) == expected
    if isinstance(expected, dict):
        assert outcome == ("error", "FlatCellError", expected)
    elif outcome[0] == "ok":
        assert [(s, flat) for s, _, flat in outcome[1]] == expected
    else:
        assert outcome[1] != "FlatCellError"


def test_stacked_edge_slopes_match_the_per_edge_solves(sweep_accepted):
    # At every vertex of the nets that build and of the sweep's accepted
    # nets (with two-layer vertex systems), one stacked solve over all
    # vertices gives the signs (desc) and the bytes of the directions (d)
    # that conftest's reference_edge_slope gives edge by edge, in its edge
    # order, on the complex's tables and on fresh node_maps tables, as the
    # local oracle reads them; a vertex whose edges fail keeps the error
    # the edges raise first, with desc all False: NET-B with final weights
    # (1 + 1e-8, 100, 1), whose vertices 00+ and +00 have the flat edge +0+.
    flat = ReluNetwork(net_b().layers, AffineLayer([[1.0 + 1e-8, 100.0, 1.0]], [0.0]))
    built = [(flat, build_complex(flat))]
    for net in CLOSURE_NETS:
        with contextlib.suppress(StructuredError):
            built.append((net, build_complex(net, sign_tol=SIGN_TOL, lp_tol=LP_TOL)))
    seen = Counter()
    for net, cpx in built + sweep_accepted:
        words = list(cpx.vertices)
        on_tables = stacked_outcomes(words, complex_module._edge_slopes(net, words, cpx.tables))
        fresh = stacked_outcomes(words, complex_module._edge_slopes(net, words))
        for v in words:
            expected = edge_outcome(lambda: reference_edge_slopes(v, complex_forms(cpx)))  # noqa: B023
            assert on_tables[v] == fresh[v] == expected, v
            seen[isinstance(expected, tuple)] += 1
    assert seen[False] > 1500 and seen[True] >= 2


def _location(solve):
    """Bytes of the location ``solve()`` returns, or its structured error."""
    try:
        return solve().tobytes()
    except StructuredError as exc:
        return type(exc), str(exc)


def test_vertex_locations_match_the_container_top_cell_solve():
    # Each vertex solves its zero node maps on its own table; the rows of
    # the first top cell around it must give the same bytes or error.  The
    # two differ only where a vertex zeroes an entry before the last layer,
    # so the enumerated cells of flat nets count too, and (2,5,3,1) draws
    # add such vertices.  On each net the one stacked solve of all vertices
    # gives the bytes of the solves vertex by vertex, or the error of the
    # first failing one in word order.
    nets = CLOSURE_NETS + [
        random_network(Architecture.from_full((2, 5, 3, 1)), seed=seed) for seed in range(20)
    ]
    vertices = deep = 0
    for net in nets:
        try:
            cells = _enumerate_cells(net, LP_TOL)
        except StructuredError:
            continue
        cpx = CanonicalComplex(net, {s: Cell(s, net.n0 - s.count(0)) for s in cells}, {}, LP_TOL)
        try:
            records = build_complex(net, sign_tol=SIGN_TOL, lp_tol=LP_TOL).vertices
        except StructuredError:
            records = {}
        words, outcomes = [s for s in cells if s.count(0) == net.n0], []
        for v in words:
            own = _location(lambda: own_table_vertex_location(cpx, v))
            assert own == _location(lambda: reference_vertex_location(cpx, v)), v
            assert v not in records or records[v].location.tobytes() == own, v
            outcomes.append(own)
            vertices += 1
            deep += 0 in v[: -net.layers[-1].out_dim]
        if words:
            stacked = _location(lambda: complex_module._vertex_locations(cpx, words))
            failed = [out for out in outcomes if isinstance(out, tuple)]
            assert stacked == (failed[0] if failed else b"".join(outcomes))
    assert vertices > 400 and deep > 100


def test_stacked_vertex_locations_match_the_per_vertex_solves(sweep_accepted):
    # Every vertex record of the CLI sweep's accepted nets, among them
    # (2,20,1), (3,8,1) and (4,10,1) s0, holds the bytes that its system
    # gives solved alone, on its own table and on the first top cell
    # around it.
    vertices = 0
    for _, cpx in sweep_accepted:
        for v, rec in cpx.vertices.items():
            assert rec.location.tobytes() == own_table_vertex_location(cpx, v).tobytes(), v
            assert rec.location.tobytes() == reference_vertex_location(cpx, v).tobytes(), v
            vertices += 1
    assert vertices > 1300


def test_two_layer_vertices_match_the_container_top_cell_solve(sweep_accepted):
    # The sweep's accepted two-layer nets: every vertex record against the
    # solve on the first top cell around it, many of them on vertices whose
    # zero sets span both layers.
    spanning = 0
    for net, cpx in sweep_accepted:
        if net.m < 2:
            continue
        n_m = net.layers[-1].out_dim
        for v, rec in cpx.vertices.items():
            assert rec.location.tobytes() == reference_vertex_location(cpx, v).tobytes(), v
            spanning += 0 in v[:-n_m] and 0 in v[-n_m:]
    assert spanning > 300


def _load(folder, name):
    """The module ``name`` of the repository's ``folder``."""
    path = pathlib.Path(__file__).resolve().parent.parent / folder / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def _sweep_nets():
    """Every network of ``scripts/cli_sweep.py``."""
    sweep = _load("scripts", "cli_sweep")
    nets = [net_b()]
    for arch, seeds in sweep.ARCHS.items():
        full = tuple(int(d) for d in arch.split(","))
        nets += [random_network(Architecture.from_full(full), seed=seed) for seed in seeds]
    return nets


def _bench_nets():
    """The seed-0 draws of every workload of ``perfbench/workloads.py``."""
    bench = _load("perfbench", "workloads")
    return [bench.draw_network(w, 0, i)[1] for w in bench.WORKLOADS.values() for i in range(w.draws)]


@contextlib.contextmanager
def _raises_as(want):
    """Assert that the block raises the structured error ``want``, (class
    name, message), and re-raise it; for None, that it raises none."""
    try:
        yield
    except StructuredError as exc:
        assert (type(exc).__name__, str(exc)) == want
        raise
    assert want is None


def _raised(call):
    """(class name, message) of the structured error ``call()`` raises, or None."""
    try:
        call()
    except StructuredError as exc:
        return type(exc).__name__, str(exc)
    return None


def test_vertex_face_flat_checks_match_the_closure_walks(monkeypatch):
    # Every forced-flat abort and flat-cell test of a build, on the
    # near-degenerate nets, the CLI sweep's nets and the benchmark's seed-0
    # draws, against conftest's closure-walk references over every dead
    # block and the complex's closure map: the same outcome and message,
    # and the same flat flags.
    real_abort, real_flag, seen = complex_module._abort_on_forced_flats, complex_module._flag_flat, []

    def abort(stage, n_k, n0):
        upto = [*itertools.accumulate(layer.out_dim for layer in net.layers)].index(len(next(iter(stage))))
        want = _raised(lambda: closure_walk_abort(net, stage, upto + 1, n0))
        seen.append(("abort", want is not None))
        with _raises_as(want):
            real_abort(stage, n_k, n0)

    def flag(cpx):
        want = _raised(lambda: closure_flag_flat(cpx))
        flags = [c.flat for c in cpx.cells.values()]
        seen.append(("flat", want is not None, any(flags)))
        for cell in cpx.cells.values():
            cell.flat = False
        try:
            with _raises_as(want):
                real_flag(cpx)
        finally:
            assert [c.flat for c in cpx.cells.values()] == flags

    monkeypatch.setattr(complex_module, "_abort_on_forced_flats", abort)
    monkeypatch.setattr(complex_module, "_flag_flat", flag)
    nets = [_integer_net(*case) for case in NEAR_DEGENERATE] + _sweep_nets() + _bench_nets()
    for net in nets + [p.values[0] for p in CASES] + list(FLAT_KEPT.values()):
        structure(net)
    assert seen.count(("abort", True)) > 100 and seen.count(("abort", False)) > 50
    assert seen.count(("flat", True, True)) >= 5 and seen.count(("flat", False, True)) >= 4


def test_arranged_builds_read_no_closure_map(monkeypatch):
    # Where every layer comes whole from its vertices no neuron step runs,
    # and the forced-flat abort and the flat-cell test ask is_face: building
    # the CLI sweep's nets and the benchmark's seed-0 draws, rejected ones
    # included, reads no region's closure off a step's star table.
    layers, closures, arranged = _spy(monkeypatch, "_accept"), _spy(monkeypatch, "_region_faces"), []
    real = complex_module._arrangement

    def arrangement(*args):
        out = real(*args)
        arranged.append(out is not None)
        return out

    monkeypatch.setattr(complex_module, "_arrangement", arrangement)
    outcomes = []
    for net in _sweep_nets() + _bench_nets():
        del layers[:], closures[:], arranged[:]
        outcome = structure(net)
        if arranged.count(True) == len(layers):
            assert closures == [], net.arch
            outcomes.append("ok" if outcome[0] == "ok" else outcome[2]["message"].split()[0])
    assert outcomes.count("ok") > 20 and outcomes.count("layer") > 20 and "F" in outcomes


def test_stacked_tables_match_the_per_word_tables(monkeypatch):
    # The stacked node-map tables that build makes for each layer's parents,
    # and stacks of random sign words at every layer boundary of nets with
    # two and three hidden layers: each table of the stack, and the one-word
    # table, has the bytes of the per-word reference, whose norms are taken
    # row by row.
    stacks, real = [], complex_module.node_maps
    monkeypatch.setattr(
        complex_module, "node_maps", lambda net, words: stacks.append((net, words)) or real(net, words)
    )
    rng = np.random.default_rng(0)
    archs = [(2, 4, 3, 1), (2, 4, 4, 1), (3, 4, 3, 1), (2, 8, 8, 1), (2, 4, 4, 4, 1), (3, 5, 4, 3, 1)]
    for arch in archs:
        for seed in range(4):
            net = random_network(Architecture.from_full(arch), seed=seed)
            structure(net)
            for off in itertools.accumulate(layer.out_dim for layer in net.layers[:-1]):
                stacks.append((net, rng.integers(-1, 2, (6, off)).astype(float)))
            stacks.append((net, np.zeros((1, 0))))
    parts = ("rows", "offsets", "norms", "const")
    tables = 0
    for net, words in stacks:
        words = np.atleast_2d(np.asarray(words, dtype=float))
        stack = node_maps(net, words)
        for i, word in enumerate(words):
            want = reference_node_maps(net, tuple(word.tolist()))
            for got in (stack[i], node_maps(net, tuple(word.tolist()))):
                for part in parts:
                    assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part
                assert [u.tobytes() for u in got.unit] == [u.tobytes() for u in want.unit]
            for part in parts:
                assert getattr(stack, part)[i].tobytes() == getattr(want, part).tobytes(), part
            assert [u[i].tobytes() for u in stack.unit] == [u.tobytes() for u in want.unit]
            tables += 1
    assert tables > 1_000 and max(len(w) for _, w in stacks) > 50


def _accepted(call):
    """{word: point bytes} that ``call()`` accepts, or its structured error."""
    try:
        return sorted((w, x.tobytes()) for w, x in call().items())
    except StructuredError as exc:
        return (type(exc).__name__, str(exc))


def _per_parent(net, words, points, lp_tol):
    """The words of one layer accepted parent by parent, in word order."""
    out = {}
    if not words:
        return out
    bounds = [0, *itertools.accumulate(layer.out_dim for layer in net.layers)]
    off = bounds[bounds.index(len(words[0])) - 1]
    for parent, group in itertools.groupby(range(len(words)), key=lambda i: words[i][:off]):
        group = list(group)
        table = reference_node_maps(net, parent)
        out.update(reference_accept(net, [words[i] for i in group], points[group], table, lp_tol))
    return out


ACCEPT_NETS = [random_network(Architecture.from_full(arch), seed=seed) for arch, seed in RANDOM if len(arch) > 3]
ACCEPT_NETS += [_integer_net(*case) for case in NEAR_DEGENERATE]
ACCEPT_NETS += [
    random_network(Architecture.from_full(arch), seed=seed) for arch, seed in SWEEP_ACCEPTED if len(arch) > 3
]


def test_one_pass_acceptance_matches_the_per_parent_reference(monkeypatch):
    # Each layer's one acceptance pass against conftest's per-parent
    # reference, which re-solves every witness LP: the same words with the
    # same point bytes, or the same first error.  Words whose point is the
    # last split step's own witness LP skip that LP, and keep its point.
    real, outcomes, reused = complex_module._accept, [], []

    def spy(net, words, points, tables, pid, witnessed, lp_tol):
        want = _accepted(lambda: _per_parent(net, words, points, lp_tol))
        got = _accepted(lambda: real(net, words, points, tables, pid, witnessed, lp_tol))
        assert got == want, (words[:3], got, want)
        outcomes.append(isinstance(got, list))
        reused.extend(w for w in words if w in witnessed)
        return real(net, words, points, tables, pid, witnessed, lp_tol)

    monkeypatch.setattr(complex_module, "_accept", spy)
    for net in ACCEPT_NETS:
        structure(net)
    assert outcomes.count(True) > 100 and False in outcomes and reused


def test_batched_residual_matches_lstsq(monkeypatch):
    # Every stacked residual test of a build, at the vertex regions of a
    # neuron step and at acceptance's words past n0 zeros, on the CLI
    # sweep's nets and the near-degenerate ones, built with the closed form
    # and then with it declined: each system decided as conftest's
    # per-system lstsq reference decides it.
    real, decided = complex_module._solvable, []

    def spy(a, b):
        got = real(a, b)
        assert got.tolist() == [reference_consistent(m, r) for m, r in zip(a, b)]
        decided.extend(got.tolist())
        return got

    monkeypatch.setattr(complex_module, "_solvable", spy)
    nets = _sweep_nets() + [_integer_net(*case) for case in NEAR_DEGENERATE]
    for net in nets:
        structure(net)
    _decline_arrangement(monkeypatch)  # and the neuron steps' vertex regions
    for net in nets:
        structure(net)
    assert decided.count(False) > 1_000 and True in decided


def test_facet_lookups_match_the_dict_reference(monkeypatch):
    # Every facet map asked for while building with the closed form declined
    # (each layer takes neuron steps, regions out of word order, and asks
    # none), then each finished complex's and compactified complex's: each
    # is asked for sorted words, and the facets found by word key are
    # conftest's dict lookups, in the same key order and as the same tuples.
    real, seen = complex_module._facets, Counter()

    def spy(words, rows):
        got = real(words, rows)
        assert rows.tolist() == [list(w) for w in words]
        assert list(got.items()) == list(reference_facets(words).items())
        seen["sorted" if list(words) == sorted(words) else "unsorted"] += 1
        return got

    monkeypatch.setattr(complex_module, "_facets", spy)
    monkeypatch.setattr(dgvf_module, "_facets", spy)
    _decline_arrangement(monkeypatch)
    nets = [net_b()] + [random_network(Architecture.from_full(arch), seed=s) for arch, s in SWEEP_ACCEPTED[:12]]
    for net in nets + [_integer_net(*case) for case in NEAR_DEGENERATE]:
        try:
            cpx = build_complex(net, sign_tol=SIGN_TOL, lp_tol=LP_TOL)
        except StructuredError:
            continue
        facets(cpx, next(iter(cpx.cells)))
        compactify(cpx)
    assert seen["unsorted"] == 0 and seen["sorted"] > 20, seen
