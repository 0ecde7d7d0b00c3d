import copy
import itertools
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
    local_pair,
    signs_from_str,
)
from relumorse import AffineLayer, Architecture, ReluNetwork, net_b, random_network
from relumorse.dgvf import _partner, seed_vertices
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
    allowed_signs,
    lower_star,
    lower_star_patterns,
    reference_build_dgvf,
    reference_certified_vertex,
    reference_classify_signs,
    reference_classify_vertex,
    reference_index,
    reference_pair_lower_star,
    reference_slack_certified_vertex,
    reference_validate,
    reference_vertex_mask,
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


def _classified_vertices(memo) -> set:
    """The distinct vertices a ``local_pair`` memo has classified."""
    return {cls.vertex for found in memo.values() for cls in found}


def _local_outcome(net, signs, memo, tables=None):
    try:
        return local_pair(net, signs, _classified=memo, _tables=tables)
    except StructuredError as exc:
        return type(exc), str(exc)


def test_certified_vertices_match_the_lp(certified_draws, monkeypatch):
    # One memo shared over the sorted bounded-above cells, as --local-check
    # runs it, against a fresh LP per cell: same assignment or same error.
    lps = _count_local_lps(monkeypatch)
    shared_lps = checked = 0
    for net, cpx in certified_draws:
        cells = sorted(s for s, c in cpx.cells.items() if cpx.is_bounded_above(c))
        memo = {}
        del lps[:]
        shared = [_local_outcome(net, s, memo) for s in cells]
        shared_lps += len(lps)
        checked += len(cells)
        assert shared == [_local_outcome(net, s, None) for s in cells], net.arch
        assert len(_classified_vertices(memo)) <= len(cpx.vertices)
    assert shared_lps < checked / 3


def _vertex_first(net, cells, vertex_words) -> tuple:
    """(outcomes of ``local_pair`` over ``cells``, the memo) as --local-check
    runs it: the memo seeded from ``vertex_words`` first, then shared."""
    memo, tables = {}, {}
    seed_vertices(net, vertex_words, memo, tables)
    return [_local_outcome(net, s, memo, tables) for s in cells], memo


def test_vertex_first_check_matches_the_fresh_oracle(sweep_accepted, monkeypatch):
    # Every bounded-above cell of the sweep's accepted nets and of NET-B:
    # seeded with the complex's vertex words, the check solves no LP and
    # gives what a fresh oracle, one LP per cell, gives.  So it does when
    # the seeding list drops one vertex, which the LPs then find, and adds
    # a word with n0 zeros that names no cell, which fails its point test.
    lps = _count_local_lps(monkeypatch)
    for net, cpx in sweep_accepted:
        cells = sorted(s for s, c in cpx.cells.items() if cpx.is_bounded_above(c))
        fresh = [_local_outcome(net, s, None) for s in cells]
        vertices = [s for s in cells if cpx.cells[s].dim == 0]
        del lps[:]
        assert _vertex_first(net, cells, vertices)[0] == fresh, net.arch
        assert lps == []
        v, q = vertices[0], max(p for p, s in enumerate(vertices[0]) if s != 0)
        spurious = v[:q] + (-v[q],) + v[q + 1 :]
        assert spurious not in cpx.cells
        seeds = [w for w in vertices if w != vertices[len(vertices) // 2]] + [spurious]
        outcomes, memo = _vertex_first(net, cells, seeds)
        assert outcomes == fresh, net.arch
        assert lps and spurious not in memo


def test_certified_vertex_matches_the_per_cell_reference(certified_draws, monkeypatch):
    # The cached vertex points against the per-cell H-representation solve:
    # on the candidates the memo hands over and, once the memo is full, on
    # each classified vertex in a cell's closure and two outside it.  The
    # deep nets do not build (a dead layer on a cell with a vertex), so their
    # top cells come from sample points, and each of their cells also meets
    # every word that zeroes n0 of its entries; the dead cells' tables have
    # constant rows.
    draws = [
        (net, sorted(s for s, c in cpx.cells.items() if cpx.is_bounded_above(c)), False)
        for net, cpx in certified_draws
    ]
    rng = np.random.default_rng(0)
    for arch in ((2, 4, 4), (3, 4, 3)):
        for seed in range(6):
            net = random_network(Architecture(arch), seed)
            points = rng.uniform(-4.0, 4.0, (300, net.n0))
            draws.append((net, sorted({sign_sequence_at(net, x) for x in points}), True))
    real, checked = dgvf_module._certified_vertex, Counter()

    def check(signs, entry, candidates, lp_tol):
        got = real(signs, entry, candidates, lp_tol)
        rep = dgvf_module._hrep_for(net, signs, entry[0])
        assert got is reference_certified_vertex(signs, rep, candidates, lp_tol), signs
        checked["constant" if entry[0].const.any() and candidates else "live"] += 1
        return got

    monkeypatch.setattr(dgvf_module, "_certified_vertex", check)
    for net, cells, forge in draws:
        memo, tables = {}, {}
        for s in cells:
            _local_outcome(net, s, memo, tables)
        found = sorted({c.vertex: c for cs in memo.values() for c in cs}.items())
        for s in cells:
            entry = tables[s[: -net.layers[-1].out_dim]]
            try:
                if dgvf_module._hrep_for(net, s, entry[0]) is None:
                    continue
            except StructuredError:
                continue
            candidates = [c for v, c in found if is_face(v, s)]
            candidates += [c for v, c in found if not is_face(v, s)][:2]
            if forge:
                for zeros in itertools.combinations(range(len(s)), net.n0):
                    v = tuple(0 if p in zeros else x for p, x in enumerate(s))
                    candidates.append(VertexClassification(v, "critical", 0, (), None, None))
            for cls in candidates:
                check(s, entry, [cls], 1e-7)
    assert checked["live"] > 10000 and checked["constant"] > 100


def test_sign_masks_certify_as_the_slack_rows(sweep_accepted, monkeypatch):
    # Every bounded-above cell of the sweep's accepted nets, as --local-check
    # runs them, then each classified vertex in a cell's closure and two
    # outside it: the sign masks certify the vertex that conftest's slack
    # rows certify, or both None.
    real, checked = dgvf_module._certified_vertex, Counter()
    for net, cpx in sweep_accepted:
        n_m, rows = net.layers[-1].out_dim, {}

        def check(signs, entry, candidates, lp_tol):
            got = real(signs, entry, candidates, lp_tol)
            ref = rows.setdefault(signs[:-n_m], (entry[0], {}))  # noqa: B023
            assert got is reference_slack_certified_vertex(signs, ref, candidates, lp_tol), signs
            checked["none" if got is None else "vertex"] += 1
            return got

        monkeypatch.setattr(dgvf_module, "_certified_vertex", check)
        memo, tables = {}, {}
        cells = sorted(s for s, c in cpx.cells.items() if cpx.is_bounded_above(c))
        for s in cells:
            local_pair(net, s, _classified=memo, _tables=tables)
        found = {cls.vertex: cls for cs in memo.values() for cls in cs}
        assert sorted(found) == sorted(cpx.vertices)
        for s in cells:
            inside = {v.signs for v in cpx.vertex_facets(s)}
            for v in [*inside, *[v for v in found if v not in inside][:2]]:
                check(s, tables[s[:-n_m]], [found[v]], 1e-7)
    assert checked["vertex"] > 30000 and checked["none"] > 15000


@pytest.mark.parametrize("vertex, passes", [("00-", True), ("0+0", False)])
def test_constant_rows_take_no_part_in_the_point_test(vertex, passes):
    # Row 2 is constant on this table (norm 1.4e-14) and its offset is
    # within lp_tol of zero, as in no H-representation row: it neither
    # reads as tight at 00-, nor gives 0+0, which zeroes it, a point.
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1e-14, 1e-14]])
    table = NodeMaps(rows, np.array([0.0, 0.0, -5e-8]))
    assert table.const.tolist() == [False, False, True]
    signs, cls = S("++-"), VertexClassification(S(vertex), "critical", 0, (), None, None)
    rep = dgvf_module._hrep_for(net_b(), signs, table)
    expected = reference_certified_vertex(signs, rep, [cls], 1e-7)
    assert (expected is cls) == passes
    assert dgvf_module._certified_vertex(signs, (table, {}), [cls], 1e-7) is expected


def test_memo_vertex_that_is_not_the_peak_takes_the_lp(netb, monkeypatch):
    # +00 (a minimum) and 0+0 lie in the closure of +++, but +++ is in
    # neither lower star: the LP still finds its peak 00+.
    memo = {}
    local_pair(netb, S("+00"), _classified=memo)
    local_pair(netb, S("0+0"), _classified=memo)
    assert _classified_vertices(memo) == {S("+00"), S("0+0")}
    lps = _count_local_lps(monkeypatch)
    a = local_pair(netb, S("+++"), _classified=memo)
    assert a.owner_vertex == S("00+") and a.role == "upper" and a.partner == S("0++")
    assert len(lps) == 1 and S("00+") in _classified_vertices(memo)


def test_memo_peak_vertex_is_certified_without_lp(netb, monkeypatch):
    # With 00+ in the memo, the other cells of its lower star need no LP.
    memo = {}
    local_pair(netb, S("00+"), _classified=memo)
    lps = _count_local_lps(monkeypatch)
    got = {w: local_pair(netb, S(w), _classified=memo) for w in ("+++", "+0+", "0++")}
    assert not lps
    assert got == {w: local_pair(netb, S(w)) for w in got}


def test_memo_does_not_hide_unbounded_cells(netb, monkeypatch):
    # 00+ is a closure vertex of -0+, along which F rises without bound.
    memo = {}
    local_pair(netb, S("00+"), _classified=memo)
    with pytest.raises(UnboundedCellError):
        local_pair(netb, S("-0+"), _classified=memo)
    # A forged lower star for 00-, a word that names no vertex of ++-: the
    # lines of its zeros meet at the origin, outside ++-, so the point test
    # rejects it and the LP reports the unbounded cell.
    forged = VertexClassification(S("00-"), "critical", 2, ((0, True, True), (1, True, True)), None, None)
    memo = {w: [forged] for w in lower_star_patterns(forged.vertex, allowed_signs(forged))}
    real, seen = dgvf_module._certified_vertex, []

    def spy(signs, entry, candidates, lp_tol):
        seen.append((list(candidates), real(signs, entry, candidates, lp_tol)))
        return seen[-1][1]

    monkeypatch.setattr(dgvf_module, "_certified_vertex", spy)
    with pytest.raises(UnboundedCellError):
        local_pair(netb, S("++-"), _classified=memo)
    assert seen == [([forged], None)]


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


def test_stacked_masks_match_the_per_vertex_mask(sweep_accepted):
    # Every vertex word of the sweep's accepted nets on its own parent's
    # table and on another's, then a stack with a singular system, a
    # constant zero row and a system that misses its residual by 8e-4: the
    # stacked masks are conftest's masks solved one by one.
    seen = Counter()
    for net, cpx in sweep_accepted:
        n_m, words = net.layers[-1].out_dim, list(cpx.vertices)
        own = [node_maps(net, w[:-n_m]) for w in words]
        for tables in (own, own[::-1]):
            want = [reference_vertex_mask(t, w, 1e-7) for t, w in zip(tables, words)]
            assert dgvf_module._vertex_masks(tables, words, 1e-7) == want, net.arch
            seen.update(m is None for m in want)
    cases = [
        ([[1.0, 1.0], [1.0, 1.0 + 1e-13], [0.0, 1.0]], [0.3, -0.7, 0.2], S("00+")),  # residual
        ([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], [0.3, -0.7, 0.2], S("00+")),  # singular
        ([[1.0, 0.0], [0.0, 1.0], [1e-14, 1e-14]], [0.0, 0.0, -5e-8], S("+00")),  # constant
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, -1.0], S("00-")),
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, -1.0], S("0+0")),
    ]
    tables = [NodeMaps(np.array(rows), np.array(offsets)) for rows, offsets, _ in cases]
    words = [w for *_, w in cases]
    want = [reference_vertex_mask(t, w, 1e-7) for t, w in zip(tables, words)]
    assert want[:3] == [None] * 3 and None not in want[3:]
    assert dgvf_module._vertex_masks(tables, words, 1e-7) == want
    assert seen[True] and seen[False] > 1000


def test_stacked_seed_gives_the_per_vertex_memo(sweep_accepted, monkeypatch):
    # seed_vertices on every vertex word of the sweep's accepted nets: the
    # memo, and the masks kept on its tables, of the one-by-one seeding with
    # conftest's masks, per-axis classification and lower-star patterns.
    # The masks it keeps on the lower stars' tables leave local_pair none to
    # solve, on the two-layer nets' many parent tables too.
    real, solved = dgvf_module._vertex_masks, []
    for net, cpx in sweep_accepted:
        n_m, memo, tables = net.layers[-1].out_dim, {}, {}
        seed_vertices(net, sorted(cpx.vertices), memo, tables)
        want = {}
        for w in sorted(cpx.vertices):
            table = node_maps(net, w[:-n_m])
            mask = reference_vertex_mask(table, w, 1e-7)
            if table.const.any() or mask is None or dgvf_module._bits(w) & mask:
                continue
            if isinstance(slopes := stacked_outcomes([w], _edge_slopes(net, [w]))[w], dict):
                reference_index(want, reference_classify_signs(w, slopes))
        assert memo == want, net.arch
        monkeypatch.setattr(dgvf_module, "_vertex_masks", lambda *a: solved.append(a) or real(*a))
        for s in sorted(s for s, c in cpx.cells.items() if cpx.is_bounded_above(c)):
            local_pair(net, s, _classified=memo, _tables=tables)
        monkeypatch.setattr(dgvf_module, "_vertex_masks", real)
        assert solved == [], net.arch
        for prefix, (table, masks) in tables.items():
            assert masks == {v: reference_vertex_mask(table, v, 1e-7) for v in masks}, net.arch
