import copy
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import relumorse.complex as complex_module
from relumorse import (
    AffineLayer,
    Architecture,
    ReluNetwork,
    build_complex,
    build_dgvf,
    compose_signs,
    compactify,
    is_face,
    net_b,
    random_network,
    signs_from_str,
    signs_to_str,
)
from relumorse.complex import VertexRecord, _edge_slopes, _hrep_for
from relumorse.errors import (
    FlatCellError,
    GenericityError,
    InjectivityError,
    SingularSystemError,
    StructuredError,
)
from relumorse.network import NodeMaps
from relumorse.dgvf import BASEPOINT
from relumorse.orientation import analyze_shallow, classify_vertex

from conftest import (
    affine_form,
    cofacets,
    complex_forms,
    edge_outcome,
    facets_scan,
    interior_witness_of,
    is_spatially_bounded,
    lower_star,
    lp_max,
    make_net_b_negated,
    rays_scan,
    reference_classify_signs,
    reference_edge_slopes,
    reference_injectivity,
    reference_sup,
    scan_generic_nets,
    sign_sequence_at,
    single_hyperplane_complex,
    star,
    vertex_facets_scan,
    vertex_location_on,
)

S = signs_from_str

signs_strategy = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=8)


def test_compose_signs_examples():
    assert compose_signs(S("00+"), S("+0-")) == S("+0+")
    assert compose_signs(S("000"), S("+-0")) == S("+-0")


@given(signs_strategy)
def test_compose_idempotent(entries):
    s = tuple(entries)
    assert compose_signs(s, s) == s


@given(signs_strategy, signs_strategy)
def test_compose_keeps_nonzero_entries(a, b):
    if len(a) != len(b):
        with pytest.raises(ValueError):
            compose_signs(tuple(a), tuple(b))
        return
    out = compose_signs(tuple(a), tuple(b))
    for x, y, z in zip(a, b, out):
        assert z == (x if x != 0 else y)


@given(signs_strategy)
def test_is_face_reflexive(entries):
    s = tuple(entries)
    assert is_face(s, s)


@given(signs_strategy, signs_strategy)
def test_is_face_antisymmetric(a, b):
    if len(a) != len(b):
        return
    a, b = tuple(a), tuple(b)
    if is_face(a, b) and is_face(b, a):
        assert a == b


def test_is_face_examples():
    assert is_face(S("00+"), S("+0+"))
    assert not is_face(S("+0+"), S("-0+"))


def test_net_b_complex_contents(cpx_b):
    by_dim = {}
    for cell in cpx_b.cells.values():
        by_dim.setdefault(cell.dim, []).append(cell)
    assert len(by_dim[0]) == 3
    assert len(by_dim[1]) == 9
    assert len(by_dim[2]) == 7
    locations = {s: tuple(np.round(v.location, 9)) for s, v in cpx_b.vertices.items()}
    assert locations == {
        S("00+"): (0.0, 0.0),
        S("+00"): (1.0, 0.0),
        S("0+0"): (0.0, 1.0),
    }
    values = {s: v.value for s, v in cpx_b.vertices.items()}
    assert values[S("00+")] == pytest.approx(4.0)
    assert values[S("+00")] == pytest.approx(1.0)
    assert values[S("0+0")] == pytest.approx(2.0)
    unbounded_edges = [
        c for c in cpx_b.cells.values() if c.dim == 1 and not is_spatially_bounded(cpx_b, c)
    ]
    assert len(unbounded_edges) == 6


def test_dimension_equals_n0_minus_zero_count(cpx_b):
    for signs, cell in cpx_b.cells.items():
        assert cell.dim == cpx_b.n0 - sum(1 for s in signs if s == 0)


def test_cofacets_examples(cpx_b):
    got = {c.signs for c in cofacets(cpx_b, S("00+"))}
    assert got == {S("+0+"), S("-0+"), S("0++"), S("0-+")}
    assert cofacets(cpx_b, S("+++")) == []
    got = {c.signs for c in cofacets(cpx_b, S("++0"))}
    assert got == {S("+++"), S("++-")}


def test_facets_examples(cpx_b):
    got = {c.signs for c in cpx_b.facets(S("+0+"))}
    assert got == {S("00+"), S("+00")}
    assert cpx_b.facets(S("00+")) == []
    got = {c.signs for c in cpx_b.facets(S("+++"))}
    assert got == {S("0++"), S("+0+"), S("++0")}


def test_face_poset_matches_cofacet_closure(cpx_b):
    # is_face(a, b) iff b is reachable from a by repeated cofacet steps.
    for a in cpx_b.cells.values():
        reach = {a.signs}
        frontier = [a.signs]
        while frontier:
            nxt = []
            for s in frontier:
                for cof in cofacets(cpx_b, s):
                    if cof.signs not in reach:
                        reach.add(cof.signs)
                        nxt.append(cof.signs)
            frontier = nxt
        for b in cpx_b.cells.values():
            assert is_face(a.signs, b.signs) == (b.signs in reach)


def test_vertex_location_examples(cpx_b):
    locations = complex_module._vertex_locations(cpx_b, [S("+00"), S("00+")])
    assert np.allclose(locations, [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(cpx_b.vertices[S("+00")].location, [1.0, 0.0])


def test_vertex_location_homogeneous_identity_net():
    net = ReluNetwork(
        (AffineLayer([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]),),
        AffineLayer([[1.0, 1.0]], [0.0]),
    )
    cpx = complex_module.CanonicalComplex(net, {}, {}, 1e-7)
    assert np.allclose(complex_module._vertex_locations(cpx, [(0, 0)]), [[0.0, 0.0]])


def test_hrep_reads_table_rows_in_sign_word_order():
    net = random_network(Architecture((2, 2, 2)), 0)  # (1,1) (1,2) (2,1) (2,2)

    def table(offsets):
        rows = [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [3.0, 4.0]]
        return NodeMaps(np.array(rows), np.array(offsets, dtype=float))

    # The first offending constant row decides: an infeasible one gives None,
    # a vanishing one raises with its (layer, neuron) name.
    assert _hrep_for(net, (1, 1, 0, 1), table([0.5, -1.0, 0.0, 0.5])) is None
    with pytest.raises(GenericityError, match=r"node map \(1, 2\) vanishes"):
        _hrep_for(net, (1, 0, 1, 1), table([0.5, 0.0, -1.0, 0.5]))
    # A partial word reads only its own rows.
    rep = _hrep_for(net, (1,), table([0.5, 0.0, -1.0, 0.5]))
    assert rep.ge_positions == (0,) and rep.a_eq.shape == (0, 2)
    # Feasible constant rows drop out; the others are unit rows.
    rep = _hrep_for(net, (-1, 1, 1, 0), table([0.5, 2.0, 1.0, 1.0]))
    assert rep.ge_positions == (0,)
    assert np.allclose(rep.a_ge, [[-1.0, -2.0]] / np.sqrt(5.0))
    assert np.allclose(rep.b_ge, [0.5 / np.sqrt(5.0)])
    assert np.allclose(rep.a_eq, [[0.6, 0.8]]) and np.allclose(rep.b_eq, [-0.2])


def _hrep_by_row(form, signs):
    """Arrays of a cell's H-representation built row by row: the loop that
    the table selection in ``_hrep_for`` replaced."""
    eq, eqr, ge, ger, ge_pos = [], [], [], [], []
    for p, s in enumerate(signs):
        row, c = form.rows[p], form.offsets[p]
        nrm = float(np.linalg.norm(row))
        if nrm <= 1e-12 * max(1.0, abs(c)):
            continue  # constant, and satisfied on a cell of the complex
        if s == 0:
            eq.append(row / nrm)
            eqr.append(-c / nrm)
        else:
            ge.append(s * row / nrm)
            ger.append(-s * c / nrm)
            ge_pos.append(p)
    n0 = form.rows.shape[1]
    return (np.array(eq).reshape(-1, n0), np.array(eqr, dtype=float),
            np.array(ge).reshape(-1, n0), np.array(ger, dtype=float), ge_pos)


def test_hrep_matches_row_by_row_loop(differential_draws):
    for _, _, cpx in differential_draws:
        for signs in cpx.cells:
            rep = cpx.hrep(signs)
            *arrays, ge_pos = _hrep_by_row(cpx.table(signs), signs)
            assert rep.ge_positions == tuple(ge_pos)
            for got, want in zip((rep.a_eq, rep.b_eq, rep.a_ge, rep.b_ge), arrays):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_bounded_above_examples(cpx_b):
    assert cpx_b.is_bounded_above(S("+++"))
    assert not cpx_b.is_bounded_above(S("-0+"))
    for signs in cpx_b.vertices:
        assert cpx_b.is_bounded_above(signs)


def test_lower_star_examples(cpx_b):
    star1 = {c.signs for c in lower_star(cpx_b, S("00+"))}
    assert star1 == {S("00+"), S("+0+"), S("0++"), S("+++")}
    star2 = {c.signs for c in lower_star(cpx_b, S("+00"))}
    assert star2 == {S("+00")}
    star3 = {c.signs for c in lower_star(cpx_b, S("0+0"))}
    assert star3 == {S("0+0"), S("++0")}


def test_lower_star_matches_lp_oracle(cpx_b):
    # Independent route: a star cell is in the lower star iff the LP maximum
    # of F over it equals the vertex value.
    for signs, v in cpx_b.vertices.items():
        combinatorial = {c.signs for c in lower_star(cpx_b, signs)}
        via_lp = set()
        for cell in star(cpx_b, signs):
            if not cpx_b.is_bounded_above(cell):
                continue
            if lp_max(cpx_b, cell) == pytest.approx(v.value, abs=1e-9):
                via_lp.add(cell.signs)
        assert combinatorial == via_lp


def test_lower_star_matches_lp_oracle_random():
    for seed, net, cpx in scan_generic_nets((2, 4), 2):
        for signs, v in cpx.vertices.items():
            combinatorial = {c.signs for c in lower_star(cpx, signs)}
            via_lp = {
                c.signs
                for c in star(cpx, signs)
                if cpx.is_bounded_above(c)
                and abs(lp_max(cpx, c) - v.value) <= 1e-9 * max(1.0, abs(v.value))
            }
            assert combinatorial == via_lp, (seed, signs)


def test_f_max_matches_lp_oracle(cpx_b, cpx_b_neg):
    # The single-hyperplane net has no vertex, so f_max keeps the LP value;
    # every other complex here is decided by the rays.  The last four are
    # the benchmark's architectures: seed 0 of (2,8,1) and (4,7,1), and the
    # first seeds of (2,4,3,1) and (3,4,3,1) that build.
    draws = [cpx for _, _, cpx in scan_generic_nets((2, 4), 2)]
    for arch, seed in (((2, 8), 0), ((4, 7), 0), ((2, 4, 3), 12), ((3, 4, 3), 208)):
        draws.append(build_complex(random_network(Architecture(arch), seed=seed)))
    for cpx in (cpx_b, cpx_b_neg, single_hyperplane_complex(), *draws):
        for signs, cell in cpx.cells.items():
            oracle = lp_max(cpx, cell)
            if cpx.is_bounded_above(cell):
                assert cpx.f_max(cell) == pytest.approx(oracle), signs
            else:
                assert cpx.f_max(cell) == oracle == float("inf"), signs
            if signs in cpx.vertices:
                continue
            # The lower end, as the shallow analyzer's global range uses it.
            oracle = lp_max(cpx, cell, -1)
            if oracle < float("inf"):
                assert cpx.sup(signs, -1) == pytest.approx(oracle), signs
            else:
                assert cpx.sup(signs, -1) == oracle, signs


def test_f_max_without_ray_slopes_falls_back_to_lp(monkeypatch):
    # A vertex whose edge slopes raise (flat or singular edge system) must
    # not make export_dict raise: f_max then takes the LP answer.
    def flat(*args):
        raise FlatCellError("flat ray")

    monkeypatch.setattr(complex_module, "_edge_slopes", flat)
    _, _, cpx = scan_generic_nets((2, 4), 1)[0]
    for cell in cpx.cells.values():
        assert cpx.f_max(cell) == pytest.approx(lp_max(cpx, cell)), cell.signs
    assert cpx.export_dict()["cells"]


def _parallel_lines_complex():
    """Two parallel lines: flat cells and no vertex."""
    return build_complex(
        ReluNetwork(
            (AffineLayer([[1.0, 0.0], [1.0, 0.0]], [0.0, -1.0]),),
            AffineLayer([[1.0, 1.0]], [0.0]),
        )
    )


def _near_degenerate_complexes() -> list:
    """Complexes of the near-degenerate integer nets of test_enumeration,
    NEAR_DEGENERATE at noise 1e-6, 1e-8 and 1e-10 and REGRESSION, that build."""
    from test_enumeration import NEAR_DEGENERATE, REGRESSION, _integer_net

    noises = (1e-6, 1e-8, 1e-10)
    cases = sorted({(arch, seed, noise) for arch, seed, _ in NEAR_DEGENERATE for noise in noises})
    out = []
    for net in [_integer_net(*case) for case in cases] + [p.values[0] for p in REGRESSION]:
        try:
            out.append(build_complex(net))
        except StructuredError:
            pass
    return out


def test_sup_matches_the_closure_rule(monkeypatch, sweep_accepted, cpx_b_neg):
    # Read off the vertices' stars, the max and min of F equal, as floats,
    # those read off the union closure's vertex list and rays, and take the
    # cell LP, once at the cell's first call, exactly where that rule does:
    # on no cell of the sweep's accepted nets (NET-B among them) and NET-B's
    # negation, on every cell of the vertex-free complexes, and on the
    # near-degenerate nets that build where a cell has no vertex or its
    # first ray sits at a vertex whose edge slopes raise.
    near = _near_degenerate_complexes()
    assert len(near) >= 6
    free = [single_hyperplane_complex(), _parallel_lines_complex()]
    lps, took = _count_lps(monkeypatch), Counter()
    draws = [*sweep_accepted, (None, cpx_b_neg)] + [(c.net, c) for c in free + near]
    for i, (net, cpx) in enumerate(draws):
        for sense in (1, -1):
            for signs, cell in cpx.cells.items():
                want, took_lp = reference_sup(cpx, cell, sense)
                del lps[:]
                for _ in range(2):
                    got = cpx.f_max(cell) if sense == 1 else cpx.sup(signs, -1)
                    assert (got, len(lps)) == (want, took_lp), (net and net.arch, signs, sense)
                took[i > len(sweep_accepted), took_lp] += 1
    assert took[False, True] == 0 and took[False, False] > 10000
    assert took[True, True] > 2 * sum(len(c.cells) for c in free) + 200 and took[True, False] > 100


def test_f_max_and_export_build_no_facet_map(monkeypatch):
    # Build, f_max of every cell both ways, export_dict and classify_vertex
    # on every vertex read the vertices' stars: no facet map is built after
    # cell enumeration, whose neuron steps (on the nets whose layers do not
    # all come from vertices) build their own.
    maps, inside = [], []
    real_facets, real_enumerate = complex_module._facets, complex_module._enumerate_cells

    def enumerate_cells(*args):
        inside.append(True)
        try:
            return real_enumerate(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(complex_module, "_enumerate_cells", enumerate_cells)
    monkeypatch.setattr(
        complex_module, "_facets", lambda words: maps.append(bool(inside)) or real_facets(words)
    )
    nets = [net_b(), make_net_b_negated()]
    for arch, seed in ((2, 8, 1), 0), ((4, 7, 1), 0), ((2, 3, 1), 0), ((2, 8, 8, 1), 0), ((3, 2, 2, 1), 1):
        nets.append(random_network(Architecture.from_full(arch), seed=seed))
    for net in nets:
        cpx = build_complex(net)
        for signs, cell in cpx.cells.items():
            cpx.f_max(cell), cpx.sup(signs, -1)
        cpx.export_dict()
        for v in cpx.vertices.values():
            classify_vertex(cpx, v)
        if len(net.arch.dims) == 2 and net.arch.dims[1] == net.n0 + 1:
            analyze_shallow(net, cpx)
    assert True in maps and False not in maps


def test_compactify_facets_are_the_full_maps_bounded_lists(sweep_accepted):
    # The facet map compactify builds over the bounded-above cells alone
    # gives each kept cell its facet list in the full map, less no cell,
    # and a ray the basepoint after its vertex.
    for net, cpx in sweep_accepted + [(None, c) for c in _near_degenerate_complexes()]:
        cc = compactify(cpx)
        assert cc.facets.pop(BASEPOINT) == ()
        assert list(cc.facets) == [s for s, c in cpx.cells.items() if cpx.is_bounded_above(c)]
        for signs, got in cc.facets.items():
            full = tuple(f.signs for f in cpx.facets(signs))
            ray = cpx.cells[signs].dim == 1 and len(full) == 1
            assert got == full + (BASEPOINT,) * ray, (net and net.arch, signs)
            assert all(cpx.is_bounded_above(f) for f in full), (net and net.arch, signs)


def test_f_max_takes_the_lp_where_the_first_ray_is_broken(monkeypatch):
    # The stacked solve fails at every other vertex.  A cell solves its own
    # LP exactly where the closure rule meets such a ray before a rising
    # one, and gives +inf without an LP where a rising ray comes first.
    real = complex_module._edge_slopes
    _, _, cpx = scan_generic_nets((4, 7), 1)[0]
    broken = set(sorted(cpx.vertices)[::2])

    def slopes(net, words, tables=None):
        got = real(net, words, tables)
        for v in broken.intersection(got):
            got[v] = SingularSystemError(f"singular edge system at vertex {signs_to_str(v)}")
        return got

    monkeypatch.setattr(complex_module, "_edge_slopes", slopes)
    calls, seen = _count_lps(monkeypatch), Counter()
    for signs, cell in cpx.cells.items():
        del calls[:]
        got = (cpx.f_max(cell), len(calls) == 1)
        assert len(calls) <= 1 and got == reference_sup(cpx, cell), signs
        if cell.dim and any(v in broken for v, _ in cpx.closure(cell)[2]):
            seen["lp" if got[1] else "rise first"] += 1
    assert seen["lp"] > 100 and seen["rise first"] > 100


def test_after_build_forms_are_built_only_for_edge_slopes(monkeypatch):
    # Flat flags, F's maxima and the compactified complex read per-table
    # products, the vertices' stars and a facet map: no cell's affine form
    # is read on its own (CanonicalComplex.f_affine) and no table's F
    # product is taken after build, the only tables asked for after build
    # are those of the edge-slope solves' top cells, 1 + n0 per vertex at
    # most, in one call, and the union of closure vertices and rays is never
    # built for the finished complex.
    forms, unions, inside, asked = [], [], [], []
    real_form, real_closures = complex_module.CanonicalComplex.f_affine, complex_module._closures
    real_product = NodeMaps.f_affine
    real_enumerate = complex_module._enumerate_cells

    def enumerate_cells(*args):
        inside.append(True)
        try:
            return real_enumerate(*args)
        finally:
            inside.pop()

    def closures(dims, facets):
        if not inside:
            unions.append(len(dims))
        return real_closures(dims, facets)

    monkeypatch.setattr(complex_module, "_enumerate_cells", enumerate_cells)
    monkeypatch.setattr(complex_module, "_closures", closures)
    monkeypatch.setattr(
        complex_module.CanonicalComplex,
        "f_affine",
        lambda self, s: forms.append(s) or real_form(self, s),
    )
    cpx = build_complex(random_network(Architecture.from_full((4, 7, 1)), seed=0))
    monkeypatch.setattr(
        NodeMaps, "f_affine", lambda self, *args: forms.append(args) or real_product(self, *args)
    )
    real_tables = cpx.tables
    monkeypatch.setattr(cpx, "tables", lambda prefixes: asked.append(prefixes) or real_tables(prefixes))
    build_dgvf(cpx)
    compactify(cpx)
    assert forms == [] and unions == []
    assert len(asked) == 1
    prefixes = [tuple(p) for p in asked[0]]
    assert 0 < len(prefixes) == len(set(prefixes)) <= (1 + cpx.n0) * len(cpx.vertices)


@pytest.mark.parametrize("sign_tol", [0.0, 1e-9, 1e-4, 0.05])
def test_sorted_injectivity_check_matches_the_pairwise_scan(monkeypatch, sign_tol):
    # _assemble on one net's cells with drawn vertex values: magnitudes from
    # 1e-3 to 1e6, a pair about as far apart as the bound in half the draws,
    # and two values straddling zero in a third.  The sorted filter raises
    # where, and with the message, the pairwise scan over all pairs does.
    _, net, cpx = scan_generic_nets((2, 6), 1)[0]
    n, rng, outcomes = len(cpx.vertices), np.random.default_rng(0), Counter()
    for _ in range(200):
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 6, n)
        if rng.random() < 0.5:
            i, j = rng.choice(n, 2, replace=False)
            step = sign_tol * max(1.0, abs(values[i])) * rng.choice([-1, 1])
            values[j] = values[i] + step * rng.choice([0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 2.5])
        if rng.random() < 0.3:
            values[:2] = np.array([1.0, -1.0]) * sign_tol * rng.choice([0.25, 0.5, 0.501, 1.0])
        drawn = iter(values.tolist())
        monkeypatch.setattr(ReluNetwork, "evaluate", lambda self, x: next(drawn))  # noqa: B023
        try:
            complex_module._assemble(net, list(cpx.cells), sign_tol, cpx.lp_tol)
            got = None
        except InjectivityError as exc:
            got = str(exc)
        records = [VertexRecord(v, None, x) for v, x in zip(cpx.vertices, values.tolist())]
        assert got == reference_injectivity(records, sign_tol), values
        outcomes[got is None] += 1
    assert outcomes[True] > 5 and outcomes[False] > 5


def _blocked_injectivity(records, sign_tol):
    """:func:`conftest.reference_injectivity`'s message, its pairwise test
    run in numpy blocks of rows to find the first agreeing pair."""
    v, index = np.array([r.value for r in records]), np.arange(len(records))
    for lo in range(0, len(v), 500):
        a = v[lo : lo + 500, None]
        agree = np.abs(a - v) <= sign_tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(v)))
        agree &= index > index[lo : lo + 500, None]
        if agree.any():
            i, j = np.argwhere(agree)[0]
            return reference_injectivity([records[lo + i], records[j]], sign_tol)
    return None


@pytest.mark.parametrize("sign_tol", [0.0, 1e-9, 0.05])
def test_sorted_injectivity_check_on_five_thousand_values(sign_tol):
    # About as many vertices as 100 lines in the plane have: values 1.2^k
    # of both signs, shuffled, so no two agree, with an agreeing pair last in
    # list order in half the draws and a few more pairs placed at random.
    # The window scan raises where, and with the message, the pairwise scan
    # does.
    rng, n, outcomes = np.random.default_rng(1), 5_000, Counter()
    words = [tuple((i >> b) & 1 for b in range(13)) for i in range(n)]
    for _ in range(6):
        values = rng.permutation(np.concatenate([1.2 ** np.arange(n // 2), -(1.2 ** np.arange(n // 2))]))
        for i, j in [(n - 2, n - 1)] * int(rng.random() < 0.5) + [rng.choice(n, 2, replace=False)] * 2:
            if rng.random() < 0.5:
                step = sign_tol * max(1.0, abs(values[i])) * rng.choice([0.0, 0.5, 1.0, 1.001, 2.5])
                values[j] = values[i] + step * rng.choice([-1, 1])
        records = [VertexRecord(w, None, x) for w, x in zip(words, values.tolist())]
        try:
            complex_module._check_injective(records, sign_tol)
            got = None
        except InjectivityError as exc:
            got = str(exc)
        assert got == _blocked_injectivity(records, sign_tol)
        outcomes[got is None] += 1
    assert outcomes[True] and outcomes[False]


def test_slopes_are_solved_once_per_vertex_and_edge(monkeypatch):
    # The first classify_vertex solves the 2*n0 edges of every vertex in one
    # stack, and the ray rule of sup reads the same cached entries: no
    # vertex is solved twice.
    stacked, solves = [], []
    real_stack, real_solve = complex_module._edge_slopes, np.linalg.solve
    monkeypatch.setattr(
        complex_module,
        "_edge_slopes",
        lambda net, words, tables=None: stacked.append(list(words)) or real_stack(net, words, tables),
    )
    cpx = build_complex(random_network(Architecture.from_full((4, 7, 1)), seed=0))
    monkeypatch.setattr(
        np.linalg, "solve", lambda a, b: solves.append(np.shape(a)) or real_solve(a, b)
    )
    build_dgvf(cpx)
    assert all(cpx.is_bounded_above(c) for c in compactify(cpx).cells.values())
    assert stacked == [list(cpx.vertices)]
    stacks = [shape for shape in solves if len(shape) == 3]
    assert stacks == [(2 * cpx.n0 * len(cpx.vertices), cpx.n0, cpx.n0)]


def _broken_tables(cpx, net, broken: dict):
    """(tables, form_of): ``cpx``'s node-map tables as ``_edge_slopes`` reads
    them and the affine forms on them, with the tables of the prefixes in
    ``broken`` ({prefix: "flat" | "singular" | "nan" | "ill"}) broken that
    way.  "flat" zeroes the last layer's rows, so F's gradient vanishes on
    their cells; "ill" makes the rows of a 2-input net nearly parallel,
    (1, 1 + 1e-13 p) at row p; the others scale every row by 0 or nan."""
    n_m, real = net.layers[-1].out_dim, cpx.tables

    def table(prefix):
        t, kind = real([prefix])[0], broken.get(tuple(prefix))
        if kind == "flat":
            return NodeMaps(np.vstack([t.rows[:-n_m], 0.0 * t.rows[-n_m:]]), t.offsets)
        if kind == "ill":
            p = np.arange(len(t.rows))
            return NodeMaps(np.column_stack([np.ones(len(p)), 1.0 + 1e-13 * p]), t.offsets)
        if kind:
            return NodeMaps(t.rows * (0.0 if kind == "singular" else np.nan), t.offsets)
        return t

    def tables(prefixes):
        parts = [table(p) for p in prefixes]
        return NodeMaps(np.array([t.rows for t in parts]), np.array([t.offsets for t in parts]))

    return tables, lambda signs: affine_form(net, signs, table(signs[:-n_m]))


def _layer_one_vertex():
    """(net, complex, vertex) of (2,8,8,1) s0 whose two zeros are both in
    layer 1, so that each of its edges' top cells has a table of its own
    but the +1 edges', which share one."""
    _, net, cpx = scan_generic_nets((2, 8, 8), 1)[0]
    return net, cpx, min(v for v in cpx.vertices if 0 not in v[8:])


def _stack_outcomes(net, cpx, tables) -> dict:
    """{vertex: edge_outcome} of one stacked solve over every vertex."""
    got = _edge_slopes(net, list(cpx.vertices), tables)
    return {v: edge_outcome(lambda: complex_module._slopes_of(got[v])) for v in got}  # noqa: B023


@pytest.mark.parametrize("kind", ["flat", "singular", "nan"])
@pytest.mark.parametrize("sigma", [-1, 1])
def test_stacked_edge_slopes_raise_as_the_first_failing_edge(kind, sigma):
    # One top cell's table is broken: its edges (both +1 edges, or the last
    # -1 edge) fail, and the stack over every vertex keeps, at each vertex,
    # what the edges solved one by one raise first.
    net, cpx, v = _layer_one_vertex()
    p = max(q for q, s in enumerate(v) if s == 0)
    broken = tuple(sigma if q == p else 1 if s == 0 else s for q, s in enumerate(v))[:-8]
    tables, form_of = _broken_tables(cpx, net, {broken: kind})
    expected = {w: edge_outcome(lambda: reference_edge_slopes(w, form_of)) for w in cpx.vertices}  # noqa: B023
    assert isinstance(expected[v], tuple) and issubclass(expected[v][0], StructuredError)
    assert _stack_outcomes(net, cpx, tables) == expected


@pytest.mark.parametrize(
    "kinds, failing, kind",
    [
        (("singular", None), 0, "singular"),
        (("nan", None), 0, "ill-conditioned"),
        ((None, "ill"), 1, "ill-conditioned"),
        (("ill", "singular"), 0, "ill-conditioned"),
        ((None, "singular"), 1, "singular"),
    ],
)
def test_stacked_vertex_solve_raises_at_the_first_failing_vertex(monkeypatch, kinds, failing, kind):
    # The tables of two parents of (2,8,8,1) s0's vertices broken as
    # ``kinds``: the one stacked solve of all vertices raises the error,
    # class and message, that the vertices solved one by one in word
    # order raise first, at the first vertex of parent ``failing``.
    net, cpx, _ = _layer_one_vertex()
    words, n_m = sorted(cpx.vertices), net.layers[-1].out_dim
    prefixes = [words[10][:-n_m], words[40][:-n_m]]
    tables, form_of = _broken_tables(cpx, net, {p: k for p, k in zip(prefixes, kinds) if k})
    expected = None
    for v in words:
        try:
            loc = vertex_location_on(v, form_of(v))
        except SingularSystemError as exc:
            expected = str(exc)
            break
        assert np.isfinite(loc).all()
    first = min(v for v in words if v[:-n_m] == prefixes[failing])
    assert expected == f"{kind} vertex system for {signs_to_str(first)}"
    monkeypatch.setattr(cpx, "tables", tables)
    with pytest.raises(SingularSystemError) as caught:
        complex_module._vertex_locations(cpx, words)
    assert str(caught.value) == expected


def test_flat_first_edge_beats_a_later_singular_edge():
    # Edge 0 (the -1 edge of the first zero) is flat and both +1 edges are
    # singular: the singular systems fail the stack, yet edge 0 comes first.
    net, cpx, v = _layer_one_vertex()
    p = v.index(0)
    first = tuple(-1 if q == p else 1 if s == 0 else s for q, s in enumerate(v))[:-8]
    plus = tuple(1 if s == 0 else s for s in v)[:-8]
    tables, form_of = _broken_tables(cpx, net, {first: "flat", plus: "singular"})
    edge0 = v[:p] + (-1,) + v[p + 1 :]
    message = f"F is constant along edge {signs_to_str(edge0)}; network out of scope"
    expected = (FlatCellError, message)
    assert edge_outcome(lambda: reference_edge_slopes(v, form_of)) == expected
    assert _stack_outcomes(net, cpx, tables)[v] == expected


def _singular_edges_at(monkeypatch, cpx, v):
    """Make LAPACK report the edge systems of the one-layer vertex ``v``
    singular, in a stack or alone: they all share its zero rows, which no
    other vertex has."""
    bad, real = cpx.table(v).rows[[p for p, s in enumerate(v) if s == 0]], np.linalg.solve

    def solve(a, b):
        a = np.asarray(a)
        if a.shape[-2:] == bad.shape and (a.reshape(-1, *bad.shape) == bad).all(axis=(1, 2)).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)


@pytest.mark.parametrize("case", ["flat", "singular"])
def test_failed_vertices_raise_and_fall_back_as_solved_one_by_one(case, monkeypatch):
    # A real net whose two vertices 00+ and +00 have a flat edge +0+ (its
    # slope, 1e-8, is within 1e-9 of the gradient's norm, 100, on the top
    # cell, though not of the edge's own gradient), and a (2,8,1) net where
    # the edge systems of the middle vertex that ends a ray are singular.  At every vertex,
    # classify_vertex and edge_slopes, read twice, raise the class and
    # message that the edges solved one by one raise first, or agree with
    # them; sup and f_max take the LP exactly where the closure rule meets a
    # ray at a failed vertex first.
    if case == "flat":
        net = ReluNetwork(net_b().layers, AffineLayer([[1.0 + 1e-8, 100.0, 1.0]], [0.0]))
        cpx = build_complex(net)
    else:
        _, net, cpx = scan_generic_nets((2, 8), 1)[0]
        ends = sorted({v for s in cpx.cells for v, _ in cpx.closure(s)[2]})
        _singular_edges_at(monkeypatch, cpx, ends[len(ends) // 2])
    expected = {v: edge_outcome(lambda: reference_edge_slopes(v, complex_forms(cpx))) for v in cpx.vertices}  # noqa: B023
    failed = {v for v, out in expected.items() if isinstance(out, tuple)}
    assert failed and len(failed) < len(expected)
    for v, out in expected.items():
        for _ in range(2):
            assert edge_outcome(lambda: cpx.edge_slopes(v)) == out, v  # noqa: B023
        try:
            got = classify_vertex(cpx, v)
        except StructuredError as exc:
            got = type(exc), str(exc)
        want = out if v in failed else reference_classify_signs(v, reference_edge_slopes(v, complex_forms(cpx)))
        assert got == want, v
    lps, fallbacks = _count_lps(monkeypatch), 0
    for signs, cell in cpx.cells.items():
        for sense in (1, -1):
            want, took_lp = reference_sup(cpx, cell, sense)
            del lps[:]
            assert (cpx.sup(signs, sense), len(lps) == 1) == (want, took_lp), (signs, sense)
            fallbacks += took_lp
    assert fallbacks > 0


def _count_lps(monkeypatch) -> list:
    calls = []
    real = complex_module.lp_solve

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(complex_module, "lp_solve", spy)
    return calls


def test_validate_and_compactify_solve_no_lp(monkeypatch):
    # build_dgvf runs Matching.validate, which asks every cell whether F is
    # bounded above on it.
    _, _, cpx = scan_generic_nets((2, 4), 1)[0]
    calls = _count_lps(monkeypatch)
    build_dgvf(cpx)
    compactify(cpx)
    assert calls == []


def test_vertex_free_cells_keep_the_lp(monkeypatch):
    calls = _count_lps(monkeypatch)
    single, parallel = single_hyperplane_complex(), _parallel_lines_complex()
    assert not single.vertices and not parallel.vertices
    assert parallel.has_flat_cells
    del calls[:]
    inf = float("inf")
    assert {s: single.f_max(s) for s in single.cells} == {(-1,): 0.5, (0,): 0.5, (1,): inf}
    assert {s: parallel.f_max(s) for s in parallel.cells} == {
        (-1, -1): 0.0, (0, -1): 0.0, (1, -1): 1.0, (1, 0): 1.0, (1, 1): inf
    }
    assert len(calls) == len(single.cells) + len(parallel.cells)


def test_lower_stars_partition_bounded_above_cells(cpx_b):
    seen = {}
    for signs in cpx_b.vertices:
        for cell in lower_star(cpx_b, signs):
            assert cell.signs not in seen, "lower stars must be disjoint"
            seen[cell.signs] = signs
    expected = {s for s, c in cpx_b.cells.items() if cpx_b.is_bounded_above(c)}
    assert set(seen) == expected


def test_duplicated_hyperplane_raises_genericity():
    net = ReluNetwork(
        (AffineLayer([[1.0, 0.0], [1.0, 0.0], [-1.0, -1.0]], [0.0, 0.0, 1.0]),),
        AffineLayer([[1.0, 2.0, 4.0]], [0.0]),
    )
    with pytest.raises(GenericityError):
        build_complex(net)


def test_all_minus_tope_raises_flat():
    net = ReluNetwork(
        (AffineLayer([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 5.0]),),
        AffineLayer([[1.0, 2.0, 4.0]], [0.0]),
    )
    with pytest.raises(FlatCellError):
        build_complex(net)


def test_vertex_value_collision_raises_injectivity():
    # Grid of lines x=0, y=0, x=1, y=1 with inward node maps; the final
    # weights make the non-adjacent corners (0,0) and (1,1) share F = 3
    # while every edge stays non-flat.
    net = ReluNetwork(
        (
            AffineLayer(
                [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                [0.0, 0.0, 1.0, 1.0],
            ),
        ),
        AffineLayer([[1.0, 2.0, 2.0, 1.0]], [0.0]),
    )
    with pytest.raises(InjectivityError):
        build_complex(net)


def test_single_hyperplane_net_builds_with_flagged_flats():
    net = ReluNetwork((AffineLayer([[1.0, 1.0]], [-1.0]),), AffineLayer([[2.0]], [0.5]))
    cpx = build_complex(net)
    assert len(cpx.cells) == 3
    assert not cpx.vertices
    assert cpx.cells[(-1,)].flat and cpx.cells[(0,)].flat
    assert not cpx.cells[(1,)].flat
    assert cpx.is_bounded_above((-1,)) and cpx.is_bounded_above((0,))
    assert not cpx.is_bounded_above((1,))


@pytest.mark.parametrize("n", [3, 4])
def test_shallow_planar_counts(n):
    for seed, net, cpx in scan_generic_nets((2, n), 3):
        vertices = [c for c in cpx.cells.values() if c.dim == 0]
        edges = [c for c in cpx.cells.values() if c.dim == 1]
        twocells = [c for c in cpx.cells.values() if c.dim == 2]
        assert len(vertices) == n * (n - 1) // 2
        assert sum(1 for e in edges if not is_spatially_bounded(cpx, e)) == 2 * n
        assert sum(1 for c in twocells if not is_spatially_bounded(cpx, c)) == 2 * n


def test_witness_signs_match_cell(cpx_b):
    for signs, cell in cpx_b.cells.items():
        witness = interior_witness_of(cpx_b.net, signs, cpx_b.lp_tol)[0]
        assert sign_sequence_at(cpx_b.net, witness) == signs


def test_vertex_facets_match_scan(differential_draws, netb, cpx_b):
    # The closure map against scans over every cell and vertex, and against
    # the rays named by zeroing entries of each word.
    for seed, net, cpx in [*differential_draws, (None, netb, cpx_b)]:
        for signs, cell in cpx.cells.items():
            expected = vertex_facets_scan(cpx, cell)
            assert cpx.vertex_facets(cell) == expected, (net.arch, seed, signs)
            assert cpx.vertex_facets(signs) == expected, (net.arch, seed, signs)
            assert cpx.facets(cell) == facets_scan(cpx, cell), (net.arch, seed, signs)
            assert list(cpx.closure(signs)[2]) == rays_scan(cpx, cell), (net.arch, seed, signs)


def test_word_keys_sort_minus_before_zero_before_plus():
    # All 27 words of length 3 in product order are in key order: each entry
    # is read as entry + 1, since raw int8 bytes put -1 (0xFF) last.  A word
    # that is no row looks up as -1, as every word does in no rows at all.
    words = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int8)
    keys = complex_module._keys(words)
    assert np.argsort(keys, kind="stable").tolist() == list(range(27))
    raw = words.view(np.dtype((np.void, 3))).ravel()
    assert np.argsort(raw, kind="stable").tolist() != list(range(27))
    ids = complex_module._lookup(complex_module._keys(words[::2]), words)
    assert ids.tolist() == [i // 2 if i % 2 == 0 else -1 for i in range(27)]
    assert complex_module._lookup(keys[:0], words[:2]).tolist() == [-1, -1]


def test_word_index_follows_the_cells(cpx_b):
    # The index holds the cells' words in word order, each row's id its
    # place; a copy given other cells indexes those, and its star table,
    # maxima and facets follow, while the original keeps its own.
    names, rows, keys, ids = cpx_b.words()
    assert names == sorted(cpx_b.cells) and rows.tolist() == [list(w) for w in names]
    assert complex_module._lookup(keys, rows).tolist() == list(range(len(names))) == [ids[w] for w in names]
    cpx_b.f_maxes(), cpx_b.facets(S("+++"))
    broken = copy.copy(cpx_b)
    broken.cells = {s: c for s, c in cpx_b.cells.items() if s != S("+++")}
    assert broken.words()[0] == [s for s in names if s != S("+++")]
    assert len(broken.f_maxes()) == len(names) - 1 and len(cpx_b.f_maxes()) == len(names)
    assert [f.signs for f in broken.facets(S("++0"))] == [S("0+0"), S("+00")]
    assert S("+++") not in broken._facet_map() and S("+++") in cpx_b._facet_map()
