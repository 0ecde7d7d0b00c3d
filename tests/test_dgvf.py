import copy
import itertools
import re
from collections import Counter

import numpy as np
import pytest

import relumorse.dgvf as dgvf_module
from relumorse import (
    BASEPOINT,
    CompactifiedComplex,
    Matching,
    build_complex,
    build_dgvf,
    classify_vertex,
    compactify,
    is_acyclic,
    is_face,
    local_check,
    local_pair,
    signs_from_str,
)
from relumorse import AffineLayer, Architecture, ReluNetwork, net_b, random_network
from relumorse.dgvf import _partner
from relumorse.complex import _edge_slopes
from relumorse.errors import (
    DimensionError,
    FlatCellError,
    IncompletePairingError,
    SingularSystemError,
    StructuredError,
    UnboundedCellError,
)
from relumorse.lp import LpResult
from relumorse.network import NodeMaps, node_maps, signs_to_str
from relumorse.orientation import VertexClassification

from conftest import (
    lower_star,
    reference_build_dgvf,
    reference_certified_vertex,
    reference_classify_signs,
    reference_classify_vertex,
    reference_local_pair,
    reference_pair_lower_star,
    reference_slack_certified_vertex,
    reference_validate,
    scan_generic_nets,
    sign_sequence_at,
    stacked_outcomes,
)

S = signs_from_str


def test_pair_regular_examples(cpx_b):
    cls = classify_vertex(cpx_b, S("00+"))
    pairs, _ = reference_pair_lower_star(cpx_b, cls)
    assert pairs == sorted([(S("00+"), S("+0+")), (S("0++"), S("+++"))])
    cls = classify_vertex(cpx_b, S("0+0"))
    assert reference_pair_lower_star(cpx_b, cls)[0] == [(S("0+0"), S("++0"))]


_NET_B_PAIRS = (("00+", "+0+"), ("0+0", "++0"), ("0++", "+++"))


def _words(*texts) -> tuple:
    return tuple(tuple(S(t) for t in item) if isinstance(item, tuple) else S(item) for item in texts)


@pytest.mark.parametrize(
    "pairs, critical, problems",
    [
        (_NET_B_PAIRS, ("+00",), []),
        (
            (("00+", "+0+"), ("0+0", "++++"), ("0++", "+++")),
            ("+00",),
            ["pair (0+0, ++++) not in complex", "uncovered bounded-above cells: 0+0, ++0"],
        ),
        (
            (("00+", "+0+"), ("0+0", "++0"), ("+00", "+++")),
            ("0++",),
            ["pair (+00, +++) dimension step != 1"],
        ),
        (
            (("00+", "++0"), ("0+0", "+0+"), ("0++", "+++")),
            ("+00",),
            ["00+ is not a facet of ++0", "0+0 is not a facet of +0+"],
        ),
        (_NET_B_PAIRS, ("+00", "00+"), ["cell 00+ used more than once"]),
        (_NET_B_PAIRS, (), ["uncovered bounded-above cells: +00"]),
        (_NET_B_PAIRS, ("+00", "-0+"), ["cells outside the bounded-above subcomplex: -0+"]),
    ],
    ids=["valid", "outside", "dimension-step", "non-facet", "duplicate", "uncovered", "extra"],
)
def test_validate_names_each_broken_invariant(cpx_b, pairs, critical, problems):
    # NET-B's matching, hand-corrupted: each broken invariant is named.
    assert Matching(_words(*pairs), _words(*critical)).validate(cpx_b) == problems


def test_pair_lower_star_rejects_a_missing_lower_star_cell(cpx_b):
    # The complex less the 2-cell of 00+'s lower star: its pairing, and so
    # build_dgvf, raises for the missing cell.
    broken = copy.copy(cpx_b)
    broken.cells = {s: c for s, c in cpx_b.cells.items() if s != S("+++")}
    message = "lower-star cell \\+\\+\\+ missing from the complex"
    with pytest.raises(IncompletePairingError, match=message):
        reference_pair_lower_star(broken, classify_vertex(cpx_b, S("00+")))
    with pytest.raises(IncompletePairingError, match=message):
        build_dgvf(broken)


def test_pair_regular_covers_half_the_lower_star(cpx_b):
    for signs in cpx_b.vertices:
        cls = classify_vertex(cpx_b, signs)
        if cls.kind != "regular":
            continue
        pairs, _ = reference_pair_lower_star(cpx_b, cls)
        assert 2 * len(pairs) == len(lower_star(cpx_b, signs))


def test_pair_critical_index_zero(cpx_b):
    cls = classify_vertex(cpx_b, S("+00"))
    pairs, crit = reference_pair_lower_star(cpx_b, cls)
    assert pairs == [] and crit == S("+00")


def test_pair_critical_index_two_cross_polytope(cpx_b_neg):
    # Index-2 vertex: nine lower-star cells over the two descending axes
    # pair up by the first-axis rule, leaving the all-minus quadrant.
    cls = classify_vertex(cpx_b_neg, S("+00"))
    assert cls.index == 2 and cls.descending_axes == (1, 2)
    pairs, crit = reference_pair_lower_star(cpx_b_neg, cls)
    assert crit == S("+--")
    expected = sorted(
        [
            (S("+00"), S("++0")),
            (S("+0-"), S("++-")),
            (S("+0+"), S("+++")),
            (S("+-0"), S("+-+")),
        ]
    )
    assert pairs == expected


def _critical(descending):
    axes = tuple((p, True, True) for p in descending)
    return VertexClassification((0,) * len(axes), "critical", len(axes), axes, None, None)


def test_partner_rule():
    # Critical rows: (descending-axis entries) -> (role, toggled axis).
    table = {
        (): ("critical", None),
        (0,): ("lower", 0),
        (1,): ("upper", 0),
        (-1,): ("critical", None),
        (0, 0): ("lower", 0),
        (0, -1): ("lower", 0),
        (0, 1): ("lower", 0),
        (-1, 0): ("lower", 1),
        (-1, 1): ("upper", 1),
        (1, 0): ("upper", 0),
        (1, -1): ("upper", 0),
        (1, 1): ("upper", 0),
        (-1, -1): ("critical", None),
    }
    for entries, (role, k) in table.items():
        partner = None
        if k is not None:
            new = 1 if role == "lower" else 0
            partner = entries[:k] + (new,) + entries[k + 1 :]
        assert _partner(_critical(range(len(entries))), entries) == (role, partner), entries
    # Regular rows: the flow axis toggles between 0 and the flow sign.
    for sigma in (-1, 1):
        axes = ((0, True, True), (1, sigma < 0, sigma > 0), (2, False, False))
        cls = VertexClassification((0, 0, 0), "regular", None, axes, 1, sigma)
        for first in (-1, 0, 1):
            assert _partner(cls, (first, 0, 0)) == ("lower", (first, sigma, 0))
            assert _partner(cls, (first, sigma, 0)) == ("upper", (first, 0, 0))


def test_build_dgvf_net_b(cpx_b):
    matching = build_dgvf(cpx_b)
    assert matching.pairs == (
        (S("00+"), S("+0+")),
        (S("0+0"), S("++0")),
        (S("0++"), S("+++")),
    )
    assert matching.critical == (S("+00"),)
    assert BASEPOINT in matching.critical_set()
    assert matching.to_json_dict()["basepoint"] is True
    assert matching.validate(cpx_b) == []


def test_build_dgvf_negated(cpx_b_neg):
    matching = build_dgvf(cpx_b_neg)
    assert matching.critical == (S("+--"),)
    assert matching.validate(cpx_b_neg) == []


def test_build_dgvf_no_critical_class(cpx_b):
    for seed, net, cpx in scan_generic_nets((2, 3), 25):
        matching = build_dgvf(cpx)
        if not matching.critical:
            assert matching.critical_set() == {BASEPOINT}
            return
    pytest.fail("no critical-free network among the scanned seeds")


def test_build_dgvf_rejects_flat_complex():
    net = ReluNetwork((AffineLayer([[1.0, 1.0]], [-1.0]),), AffineLayer([[2.0]], [0.5]))
    cpx = build_complex(net)
    with pytest.raises(FlatCellError):
        build_dgvf(cpx)


def test_alternating_sum_matches_critical_cells(cpx_b, cpx_b_neg):
    for cpx in (cpx_b, cpx_b_neg):
        matching = build_dgvf(cpx)
        cc = compactify(cpx)
        total = 1  # the basepoint is a 0-cell
        for cell in cc.cells.values():
            total += (-1) ** cell.dim
        crit = 1
        for signs in matching.critical:
            crit += (-1) ** cc.cells[signs].dim
        assert total == crit


def test_compactify_counts(cpx_b, cpx_b_neg):
    cc = compactify(cpx_b)
    assert len(cc.cells) + 1 == 8
    assert cc.f_max[BASEPOINT] == float("-inf")
    ccn = compactify(cpx_b_neg)
    assert len(ccn.cells) + 1 == 20


def test_compactify_single_hyperplane():
    net = ReluNetwork((AffineLayer([[1.0, 1.0]], [-1.0]),), AffineLayer([[2.0]], [0.5]))
    cc = compactify(build_complex(net))
    assert sorted(cc.cells) == [(-1,), (0,)]
    # The half-plane's only facet is the line; the vertex-free line closes
    # up through the basepoint at both ends, so mod 2 it has no facets.
    assert cc.facets[(-1,)] == ((0,),)
    assert cc.facets[(0,)] == ()


def test_compactify_ray_gains_basepoint(cpx_b_neg):
    cc = compactify(cpx_b_neg)
    assert BASEPOINT in cc.facets[S("-0+")]
    assert BASEPOINT not in cc.facets[S("--+")]


def test_is_acyclic_net_b(cpx_b):
    matching = build_dgvf(cpx_b)
    ok, witness = is_acyclic(matching, compactify(cpx_b))
    assert ok and witness is None


def test_is_acyclic_empty_matching(cpx_b):
    ok, _ = is_acyclic(Matching((), ()), compactify(cpx_b))
    assert ok


def test_is_acyclic_detects_synthetic_cycle():
    # Two vertices a, b joined by two edges e, f; pairing each vertex with
    # the opposite edge creates a closed V-path of length two.
    a, b, e, f = (0, 1), (1, 0), (0, 0), (1, 1)
    cc = CompactifiedComplex(
        n0=1,
        cells={},
        facets={e: (a, b), f: (a, b)},
        f_max={},
        vertex_values=(),
    )
    matching = Matching(((a, e), (b, f)), ())
    ok, witness = is_acyclic(matching, cc)
    assert not ok
    assert witness is not None and len(witness) == 4  # two pairs


def test_local_pair_examples(netb):
    a = local_pair(netb, S("+++"))
    assert a.role == "upper" and a.partner == S("0++")
    assert a.owner_vertex == S("00+")
    a = local_pair(netb, S("+0+"))
    assert a.role == "upper" and a.partner == S("00+")
    with pytest.raises(UnboundedCellError):
        local_pair(netb, S("-0+"))
    with pytest.raises(ValueError, match=r"sign entries must be -1, 0 or \+1"):
        local_pair(netb, (2, 1, 1))


def test_local_check_checks_every_word_first(netb):
    # A malformed word anywhere in the list raises before the unbounded
    # cell listed first; an empty list pairs nothing.
    with pytest.raises(ValueError, match=r"sign entries must be -1, 0 or \+1"):
        local_check(netb, [S("-0+"), S("+++"), (1, 1, 2)])
    with pytest.raises(DimensionError, match="expected 3 sign entries, got 2"):
        local_check(netb, [S("-0+"), (1, 1)])
    assert local_check(netb, []) == []
    assert local_check(netb, [(True, 1.0, 1)]) == [local_pair(netb, S("+++"))]


@pytest.mark.parametrize("lp_tol", [-1.0, 0.0, 2.0, float("inf"), float("nan")])
def test_local_check_rejects_an_lp_tol_outside_the_unit_interval(netb, lp_tol):
    # The check build_complex makes, for every cell alike.
    message = re.escape(f"lp_tol must be finite and in (0, 1), got {lp_tol}")
    with pytest.raises(ValueError, match=message):
        local_check(netb, [S(w) for w in ("+++", "00+", "+0+", "0++", "+00")], lp_tol)
    with pytest.raises(ValueError, match=message):
        local_pair(netb, S("+00"), lp_tol)
    with pytest.raises(ValueError, match=message):
        build_complex(netb, lp_tol=lp_tol)


@pytest.mark.parametrize("length", [4, 6])
def test_local_pair_rejects_a_word_of_the_wrong_length(length):
    # A word of a two-layer net that ends inside layer 1 or past layer 2.
    net = random_network(Architecture((2, 3, 2)), seed=0)
    with pytest.raises(DimensionError, match=f"expected 5 sign entries, got {length}"):
        local_pair(net, (1,) * length)


def test_local_pair_of_critical_vertex(netb):
    a = local_pair(netb, S("+00"))
    assert a.role == "critical" and a.owner_index == 0


def test_local_pair_matches_global(netb, cpx_b, netb_neg, cpx_b_neg):
    for net, cpx in ((netb, cpx_b), (netb_neg, cpx_b_neg)):
        matching = build_dgvf(cpx)
        lower_of = matching.lower_to_upper()
        upper_of = matching.upper_to_lower()
        for signs, cell in cpx.cells.items():
            if not cpx.is_bounded_above(cell):
                continue
            a = local_pair(net, signs)
            if a.role == "critical":
                assert signs in matching.critical
            elif a.role == "lower":
                assert lower_of[signs] == a.partner
            else:
                assert upper_of[signs] == a.partner


def _count_local_lps(monkeypatch) -> list:
    calls = []
    real = dgvf_module.lp_solve
    monkeypatch.setattr(dgvf_module, "lp_solve", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def _bounded_cells(cpx) -> list:
    return sorted(s for s, c in cpx.cells.items() if cpx.is_bounded_above(c))


def _stack(net, cells) -> tuple:
    """(tables, tid, rows) of the cell words, stacked as ``local_check`` stacks them."""
    rows = np.array(cells, dtype=np.int8)
    prefixes, tid = np.unique(rows[:, : -net.final.in_dim], axis=0, return_inverse=True)
    return node_maps(net, prefixes), tid, rows


def _forged(v) -> VertexClassification:
    return VertexClassification(tuple(v), "critical", 0, (), None, None)


def test_certified_vertices_match_the_lp(certified_draws, monkeypatch):
    # The sorted bounded-above cells in one check, as --local-check runs
    # them, against the per-cell reference, one LP per cell: the same
    # assignments, and no LP.
    lps = _count_local_lps(monkeypatch)
    checked = 0
    for net, cpx in certified_draws:
        cells = _bounded_cells(cpx)
        assert local_check(net, cells) == [reference_local_pair(net, s) for s in cells], net.arch
        checked += len(cells)
    assert lps == [] and checked > 2500


def test_vertex_first_check_matches_the_fresh_oracle(sweep_accepted, monkeypatch):
    # Every bounded-above cell of the sweep's accepted nets and of NET-B in
    # one check: no LP, and what the per-cell reference, one LP per cell,
    # gives.  So it does with one vertex left out of the list: the other
    # cells of its lower star then take one LP each.  A word with n0 zeros
    # that names no cell, added to the list, fails its point test: it is
    # not classified, and the check raises its error as the reference does.
    lps = _count_local_lps(monkeypatch)
    real_slopes, classified, dropped_lps = dgvf_module._edge_slopes, [], 0
    monkeypatch.setattr(dgvf_module, "_edge_slopes", lambda net, w: classified.extend(w) or real_slopes(net, w))
    for net, cpx in sweep_accepted:
        cells = _bounded_cells(cpx)
        fresh = [reference_local_pair(net, s) for s in cells]
        del lps[:]
        assert local_check(net, cells) == fresh, net.arch
        assert lps == []
        vertices = [s for s in cells if cpx.cells[s].dim == 0]
        dropped = vertices[len(vertices) // 2]
        kept = [(s, a) for s, a in zip(cells, fresh) if s != dropped]
        assert local_check(net, [s for s, _ in kept]) == [a for _, a in kept], net.arch
        assert len(lps) == sum(a.owner_vertex == dropped for _, a in kept)
        dropped_lps += len(lps)
        v, q = vertices[0], max(p for p, s in enumerate(vertices[0]) if s != 0)
        spurious = v[:q] + (-v[q],) + v[q + 1 :]
        assert spurious not in cpx.cells
        del classified[:]
        got = _outcome(lambda: local_check(net, cells + [spurious]))  # noqa: B023
        assert got == _outcome(lambda: fresh + [reference_local_pair(net, spurious)]), net.arch  # noqa: B023
        assert isinstance(got, tuple) and spurious not in classified
    assert dropped_lps > len(sweep_accepted)


def test_certified_vertex_matches_the_per_cell_reference(certified_draws, monkeypatch):
    # The stacked point test against the per-cell H-representation solve:
    # on every pair a whole check tests, then for each cell on each vertex
    # in its closure and two outside it.  The deep nets do not build (a
    # dead layer on a cell with a vertex), so their top cells come from
    # sample points, their vertices are the per-cell reference's LP
    # vertices, and each cell also meets every word that zeroes n0 of its
    # entries; the dead cells' tables have constant rows.
    draws = [(net, _bounded_cells(cpx), sorted(cpx.vertices), False) for net, cpx in certified_draws]
    rng = np.random.default_rng(0)
    for arch in ((2, 4, 4), (3, 4, 3)):
        for seed in range(6):
            net = random_network(Architecture(arch), seed)
            points = rng.uniform(-4.0, 4.0, (300, net.n0))
            cells = sorted({sign_sequence_at(net, x) for x in points})
            found = [_outcome(lambda: reference_local_pair(net, s)) for s in cells]  # noqa: B023
            draws.append((net, cells, sorted({a.owner_vertex for a in found if not isinstance(a, tuple)}), True))
    real, checked = dgvf_module._certify, Counter()

    def check(tables, tid, rows, verts, pairs, lp_tol):
        got = real(tables, tid, rows, verts, pairs, lp_tol)
        for ok, i, c in zip(got.tolist(), *(p.tolist() for p in pairs)):
            signs, table = tuple(rows[c].tolist()), tables[tid[c]]
            try:
                rep = dgvf_module._hrep_for(net, signs, table)  # noqa: B023
            except StructuredError:
                rep = None
            if rep is not None:
                cls = _forged(verts[i].tolist())
                assert ok == (reference_certified_vertex(signs, rep, [cls], lp_tol) is cls), signs
                checked["constant" if table.const.any() else "live"] += 1
        return got

    monkeypatch.setattr(dgvf_module, "_certify", check)
    for net, cells, vertices, forge in draws:
        _outcome(lambda: local_check(net, cells))  # noqa: B023
        verts, vs, cs = np.array(vertices, dtype=np.int8).reshape(-1, len(cells[0])), [], []
        for s in cells:
            face = ((verts == 0) | (verts == np.array(s))).all(axis=1)
            candidates = [vertices[i] for i in [*np.flatnonzero(face), *np.flatnonzero(~face)[:2]]]
            if forge:
                for zeros in itertools.combinations(range(len(s)), net.n0):
                    candidates.append(tuple(0 if p in zeros else x for p, x in enumerate(s)))
            vs, cs = vs + candidates, cs + [s] * len(candidates)
        n = np.arange(len(cs))
        check(*_stack(net, cs), np.array(vs, dtype=np.int8), (n, n), 1e-7)
    assert checked["live"] > 10000 and checked["constant"] > 100


def test_point_test_certifies_as_the_slack_rows(sweep_accepted, monkeypatch):
    # Every pair a whole check of the sweep's accepted nets tests, then each
    # vertex in a cell's closure and two outside it: the stacked point test
    # certifies the pairs that conftest's slack rows certify, and no other.
    real, checked = dgvf_module._certify, Counter()

    def check(tables, tid, rows, verts, pairs, lp_tol):
        got, points = real(tables, tid, rows, verts, pairs, lp_tol), {}
        for ok, i, c in zip(got.tolist(), *(p.tolist() for p in pairs)):
            signs, cls = tuple(rows[c].tolist()), _forged(verts[i].tolist())
            entry = points.setdefault(int(tid[c]), (tables[tid[c]], {}))
            assert ok == (reference_slack_certified_vertex(signs, entry, [cls], lp_tol) is cls), signs
            checked["vertex" if ok else "none"] += 1
        return got

    monkeypatch.setattr(dgvf_module, "_certify", check)
    for net, cpx in sweep_accepted:
        cells = _bounded_cells(cpx)
        local_check(net, cells)
        vs, cs = [], []
        for s in cells:
            inside = [v.signs for v in cpx.vertex_facets(s)]
            candidates = [*inside, *[v for v in cpx.vertices if v not in inside][:2]]
            vs, cs = vs + candidates, cs + [s] * len(candidates)
        n = np.arange(len(cs))
        check(*_stack(net, cs), np.array(vs, dtype=np.int8), (n, n), 1e-7)
    assert checked["vertex"] > 30000 and checked["none"] > 15000


@pytest.mark.parametrize("vertex, passes", [("00-", True), ("0+0", False)])
def test_constant_rows_take_no_part_in_the_point_test(vertex, passes):
    # Row 2 is constant on this table (norm 1.4e-14) and its offset is
    # within lp_tol of zero, as in no H-representation row: it neither
    # reads as tight at 00-, nor gives 0+0, which zeroes it, a point.
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1e-14, 1e-14]])
    table = NodeMaps(rows, np.array([0.0, 0.0, -5e-8]))
    assert table.const.tolist() == [False, False, True]
    signs, cls = S("++-"), _forged(S(vertex))
    rep = dgvf_module._hrep_for(net_b(), signs, table)
    expected = reference_certified_vertex(signs, rep, [cls], 1e-7)
    assert (expected is cls) == passes
    stack, one = NodeMaps(rows[None], table.offsets[None]), np.zeros(1, dtype=int)
    word, vert = (np.array([w], dtype=np.int8) for w in (signs, cls.vertex))
    assert dgvf_module._certify(stack, one, word, vert, (one, one), 1e-7).tolist() == [passes]


def test_memo_vertex_that_is_not_the_peak_takes_the_lp(netb, monkeypatch):
    # +00 (a minimum) and 0+0 lie in the closure of +++, but +++ is in
    # neither lower star: listed with it, they leave the LP to find its
    # peak 00+, and certify themselves.
    lps = _count_local_lps(monkeypatch)
    got = local_check(netb, [S("+00"), S("0+0"), S("+++")])
    assert [a.owner_vertex for a in got] == [S("+00"), S("0+0"), S("00+")]
    assert got[2].role == "upper" and got[2].partner == S("0++")
    assert len(lps) == 1


def test_memo_peak_vertex_is_certified_without_lp(netb, monkeypatch):
    # With 00+ in the list, the other cells of its lower star need no LP.
    words = [S(w) for w in ("00+", "+++", "+0+", "0++")]
    lps = _count_local_lps(monkeypatch)
    got = local_check(netb, words)
    assert not lps
    assert got == [reference_local_pair(netb, w) for w in words]


def test_memo_does_not_hide_unbounded_cells(netb, monkeypatch):
    # 00+ is a closure vertex of -0+, along which F rises without bound.
    with pytest.raises(UnboundedCellError):
        local_check(netb, [S("00+"), S("-0+")])
    # 00- names no vertex: the lines of its zeros meet at the origin,
    # outside ++-.  Forged as a certified vertex whose every edge descends,
    # its lower star holds ++-, but the point test rejects the pair and the
    # LP reports the unbounded cell.
    real_certify, real_slopes, seen = dgvf_module._certify, dgvf_module._edge_slopes, []

    def certify(tables, tid, rows, verts, pairs, lp_tol):
        got = real_certify(tables, tid, rows, verts, pairs, lp_tol)
        i, c = pairs
        seen.extend(zip(map(tuple, verts[i].tolist()), map(tuple, rows[c].tolist()), got.tolist()))
        return got | (rows[c] == verts[i]).all(axis=1)  # each vertex word passes on itself

    def slopes(net, words):
        d, desc, errors = real_slopes(net, words)
        return d, np.ones_like(desc), [None] * len(words)

    monkeypatch.setattr(dgvf_module, "_certify", certify)
    monkeypatch.setattr(dgvf_module, "_edge_slopes", slopes)
    with pytest.raises(UnboundedCellError):
        local_check(netb, [S("00-"), S("++-")])
    assert (S("00-"), S("00-"), False) in seen and (S("00-"), S("++-"), False) in seen


def _forge_lp_vertex(monkeypatch, net, signs, vertex):
    # An LP optimum whose tight >= rows are the zeros of ``vertex``.
    rep = dgvf_module._hrep_for(net, signs, dgvf_module.node_maps(net, signs[: -net.final.in_dim]))
    tight = tuple(r for r, p in enumerate(rep.ge_positions) if vertex[p] == 0)
    forged = LpResult("optimal", 0.0, None, tight)
    monkeypatch.setattr(dgvf_module, "lp_solve", lambda *a, **k: forged)


@pytest.mark.parametrize(
    "cell, vertex",
    [
        ("+++", "+00"),  # critical owner; +++ is off its (empty) descending axes
        ("+-+", "00+"),  # regular owner; its axis 1 ascends on the - side
    ],
)
def test_local_pair_rejects_cell_outside_lp_vertex_lower_star(netb, monkeypatch, cell, vertex):
    _forge_lp_vertex(monkeypatch, netb, S(cell), S(vertex))
    with pytest.raises(IncompletePairingError, match="not in the lower star of its LP vertex"):
        local_pair(netb, S(cell))


def test_vpath_owner_values_descend():
    # Along any V-path, the owning vertex value never increases, and drops
    # strictly when the path changes lower stars.
    for seed, net, cpx in scan_generic_nets((2, 4), 4):
        matching = build_dgvf(cpx)
        cc = compactify(cpx)
        owner = {}
        for signs in cpx.vertices:
            for cell in lower_star(cpx, signs):
                owner[cell.signs] = cpx.vertices[signs].value
        lower_of = matching.lower_to_upper()
        for lo, up in matching.pairs:
            for nxt in cc.facets[up]:
                if nxt == lo or nxt not in lower_of:
                    continue
                assert owner[nxt] <= owner[lo]
                if abs(owner[nxt] - owner[lo]) > 1e-12:
                    assert owner[nxt] < owner[lo]


def test_matching_export_schema(cpx_b):
    matching = build_dgvf(cpx_b)
    data = matching.to_json_dict()
    assert data == {
        "pairs": [["00+", "+0+"], ["0+0", "++0"], ["0++", "+++"]],
        "critical": ["+00"],
        "basepoint": True,
    }


def test_lower_star_pairings_cover_reference_lower_star(differential_draws):
    # The pairings' words (plus the critical cell) against the reference
    # lower star built from the star scan and per-edge orientations.
    for seed, net, cpx in differential_draws:
        arch = net.arch
        for signs in cpx.vertices:
            cls = classify_vertex(cpx, signs)
            pairs, crit = reference_pair_lower_star(cpx, cls)
            cells = [] if crit is None else [crit]
            cells += [s for pair in pairs for s in pair]
            assert len(cells) == len(set(cells)), (arch, seed, signs)
            expected = {c.signs for c in lower_star(cpx, signs)}
            assert set(cells) == expected, (arch, seed, signs)


def _outcome(call):
    """What ``call()`` returns, or the class and message of its structured error."""
    try:
        return call()
    except StructuredError as exc:
        return type(exc), str(exc)


def test_stacked_pairing_matches_the_per_vertex_loop(sweep_accepted, differential_draws):
    # All vertices classified and their lower stars paired at once, off the
    # star table, give the Matching of conftest's vertex-by-vertex loop, and
    # classify_vertex gives the per-axis rule's classification.
    for net, cpx in sweep_accepted + [(net, cpx) for _, net, cpx in differential_draws]:
        assert build_dgvf(cpx) == reference_build_dgvf(cpx), net.arch
        for v in cpx.vertices:
            assert classify_vertex(cpx, v) == reference_classify_vertex(cpx, v), (net.arch, v)


def _broken(cpx, drop=(), vertices=None, slopes=None):
    """A copy of ``cpx`` less the cells ``drop``, with the vertex table
    ``vertices`` and the edge-slope errors ``slopes`` ({vertex: error}) put
    in, the failing vertices' descent flags cleared."""
    broken = copy.copy(cpx)
    broken.cells = {s: c for s, c in cpx.cells.items() if s not in drop}
    broken.vertices = cpx.vertices if vertices is None else vertices
    broken._edge_slopes = None
    _, desc, errors, row = broken._slopes()
    for v, error in (slopes or {}).items():
        errors[row[v]], desc[row[v]] = error, False
    return broken


def test_stacked_pairing_raises_as_the_per_vertex_loop(sweep_accepted):
    # Broken complexes of the sweep's accepted nets: an edge dropped, a
    # lower-star cell of the top dimension dropped, all of dimension 2 and
    # up (so that the first missing word in the lower-star order, signs as
    # 0, -1, +1, is not the first in word order), a vertex cell dropped, a
    # vertex whose edge slopes fail, and a vertex left out of the vertex
    # table.  The stacked pairing raises the class and message of the first
    # vertex that fails in the per-vertex loop, or both give one Matching.
    kinds = Counter()
    for net, cpx in sweep_accepted:
        words = list(cpx.vertices)
        for v in (words[0], words[len(words) // 2], words[-1]):
            star = [c.signs for c in lower_star(cpx, v)]
            edge = next(e for e in cpx.cells if cpx.cells[e].dim == 1 and is_face(v, e))
            error = SingularSystemError(f"singular edge system at vertex {signs_to_str(v)}")
            cases = {
                "edge": _broken(cpx, drop={edge}),
                "lower star": _broken(cpx, drop={max(star, key=lambda s: cpx.cells[s].dim)}),
                "upper lower star": _broken(cpx, drop={s for s in star if cpx.cells[s].dim >= 2}),
                "vertex cell": _broken(cpx, drop={v}),
                "slopes": _broken(cpx, slopes={v: error}),
                "vertex table": _broken(cpx, vertices={w: r for w, r in cpx.vertices.items() if w != v}),
            }
            for kind, broken in cases.items():
                got = _outcome(lambda: build_dgvf(broken))  # noqa: B023
                assert got == _outcome(lambda: reference_build_dgvf(broken)), (net.arch, v, kind)  # noqa: B023
                kinds[kind, got[0].__name__ if isinstance(got, tuple) else "matching"] += 1
    assert kinds["edge", "MissingEdgeError"] and kinds["slopes", "SingularSystemError"]
    assert kinds["lower star", "IncompletePairingError"] and kinds["vertex cell", "IncompletePairingError"]
    assert kinds["vertex table", "IncompletePairingError"] and kinds["upper lower star", "IncompletePairingError"]


def test_validate_matches_the_pair_by_pair_reference(sweep_accepted):
    # Hand-corrupted matchings of the sweep's accepted nets: a pair left
    # out, a pair twice, a pair reversed, a word of the wrong length twice
    # among the critical cells, a pair with a word that is no cell, and an
    # unbounded cell made critical.  The id arrays name conftest's problems.
    named = Counter()
    for net, cpx in sweep_accepted:
        m = build_dgvf(cpx)
        pairs, crit = list(m.pairs), list(m.critical)
        (lo, up), short = pairs[0], pairs[0][0][:-1]
        unbounded = next((s for s, c in cpx.cells.items() if not cpx.is_bounded_above(c)), short)
        for matching in (
            m,
            Matching(tuple(pairs[1:]), m.critical),
            Matching(tuple(pairs + pairs[:1]), m.critical),
            Matching(tuple([(up, lo)] + pairs[1:]), m.critical),
            Matching(m.pairs, tuple(crit + [short, short])),
            Matching(tuple([(lo, short + (1,) * 2)] + pairs[1:]), m.critical),
            Matching(m.pairs, tuple(crit + [unbounded])),
        ):
            problems = matching.validate(cpx)
            assert problems == reference_validate(matching, cpx), net.arch
            named.update(p.split(" ")[0] for p in problems)
    assert len(named) >= 4 and sum(named.values()) > 6 * len(sweep_accepted)


def test_stacked_point_test_matches_the_per_pair_solve(sweep_accepted):
    # Every vertex word of the sweep's accepted nets on its own word and on
    # another's, then a system that misses its residual by 8e-4, a singular
    # one, a singular one that x = 0 meets, a constant zero row and a live
    # row whose slack is lp_tol exactly: the stacked point test is
    # conftest's slack rows solved pair by pair.
    seen = Counter()
    for net, cpx in sweep_accepted:
        words = list(cpx.vertices)
        tables, tid, rows = _stack(net, words)
        n = np.arange(len(words))
        for c in (n, n[::-1]):
            got = dgvf_module._certify(tables, tid, rows, rows, (n, c), 1e-7).tolist()
            want = [
                reference_slack_certified_vertex(words[j], (tables[tid[j]], {}), [_forged(w)], 1e-7) is not None
                for w, j in zip(words, c.tolist())
            ]
            assert got == want, net.arch
            seen.update(got)
    cases = [
        ([[1.0, 1.0], [1.0, 1.0 + 1e-13], [0.0, 1.0]], [0.3, -0.7, 0.2], S("00+")),  # residual
        ([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], [0.3, -0.7, 0.2], S("00+")),  # singular
        ([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 0.2], S("00+")),  # singular, met
        ([[1.0, 0.0], [0.0, 1.0], [1e-14, 1e-14]], [0.0, 0.0, -5e-8], S("+00")),  # constant
        ([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], [0.0, 0.0, 1e-7], S("00+")),  # tight
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, -1.0], S("00-")),
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, -1.0], S("0+0")),
    ]
    tables = NodeMaps(np.array([r for r, *_ in cases]), np.array([o for _, o, _ in cases]))
    words, n = np.array([w for *_, w in cases], dtype=np.int8), np.arange(len(cases))
    want = [
        reference_slack_certified_vertex(w, (tables[j], {}), [_forged(w)], 1e-7) is not None
        for j, (*_, w) in enumerate(cases)
    ]
    assert want == [False] * 5 + [True] * 2
    assert dgvf_module._certify(tables, n, words, words, (n, n), 1e-7).tolist() == want
    assert seen[True] > 1000 and seen[False] > 1000


def test_stacked_check_classifies_as_the_per_vertex_reference(sweep_accepted, monkeypatch):
    # A check of every bounded-above cell of the sweep's accepted nets
    # classifies, in one call, the vertex words whose table has no constant
    # row and that conftest's slack rows certify on their own word, as the
    # per-axis rule on their edges classifies them; all of the check's
    # point tests are one _certify call.
    real_classify, real_certify, got, certify = dgvf_module.classifications, dgvf_module._certify, [], []
    monkeypatch.setattr(
        dgvf_module, "classifications", lambda vs, desc: got.append(real_classify(vs, desc)) or got[-1]
    )
    monkeypatch.setattr(dgvf_module, "_certify", lambda *a: certify.append(a) or real_certify(*a))
    for net, cpx in sweep_accepted:
        del got[:], certify[:]
        local_check(net, _bounded_cells(cpx))
        want = []
        for w in sorted(cpx.vertices):
            table = node_maps(net, w[: -net.final.in_dim])
            if table.const.any() or reference_slack_certified_vertex(w, (table, {}), [_forged(w)], 1e-7) is None:
                continue
            if isinstance(slopes := stacked_outcomes([w], _edge_slopes(net, [w]))[w], dict):
                want.append(reference_classify_signs(w, slopes))
        assert got == [want] and len(certify) == 1, net.arch
