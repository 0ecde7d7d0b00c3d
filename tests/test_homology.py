from types import SimpleNamespace

import numpy as np
import pytest

from relumorse import (
    BASEPOINT,
    CompactifiedComplex,
    Matching,
    betti,
    build_dgvf,
    chain_complex,
    compactify,
    morse_complex,
    signs_from_str,
    verify_relative_perfectness,
)
from relumorse.errors import CyclicMatchingError
from relumorse.homology import ChainComplex

from conftest import (
    dense_betti,
    dense_chain,
    dense_perfectness,
    densify,
    rank_mod2,
    relative_ranks,
    scan_generic_nets,
    sublevel_chain,
)

S = signs_from_str


@pytest.fixture(scope="module")
def cc_b(cpx_b):
    return compactify(cpx_b)


@pytest.fixture(scope="module")
def matching_b(cpx_b):
    return build_dgvf(cpx_b)


def _check_dd_zero(chain):
    """The boundary of every facet list is zero mod 2, read off the facet form."""
    for facet_list in chain.facets.values():
        parity = {}
        for f in facet_list:
            for g in chain.facets[f]:
                parity[g] = parity.get(g, 0) ^ 1
        assert not any(parity.values())


def _check_dense_dd_zero(chain):
    for k in range(1, len(chain.boundary) - 1):
        prod = (chain.boundary[k] @ chain.boundary[k + 1]) % 2
        assert not prod.any()


def test_full_chain_complex(cc_b):
    chain = chain_complex(cc_b)
    assert sum(len(b) for b in chain.cells_by_dim) == 8
    _check_dd_zero(chain)


def test_sublevel_complexes(cc_b):
    chain = sublevel_chain(cc_b, 1.0)
    cells = [k for bucket in chain.cells_by_dim for k in bucket]
    assert cells == [BASEPOINT, S("+00")]
    chain = sublevel_chain(cc_b, 2.0)
    cells = {k for bucket in chain.cells_by_dim for k in bucket}
    assert cells == {BASEPOINT, S("+00"), S("0+0"), S("++0")}


def _vertices(*keys):
    return {key: () for key in keys}


def test_betti_examples(cc_b):
    assert betti(chain_complex(cc_b)) == (2, 0, 0)
    single_vertex = ChainComplex((("v",),), _vertices("v"))
    assert betti(single_vertex) == (1,)
    # Hollow square: four vertices, four edges, no 2-cells.
    edges = {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d"), "da": ("d", "a")}
    square = ChainComplex(
        (("a", "b", "c", "d"), tuple(edges)), {**_vertices(*"abcd"), **edges}
    )
    assert betti(square) == dense_betti(densify(square)) == (1, 1)
    # A loop lists its one vertex twice; the two entries cancel mod 2.
    loop = ChainComplex((("a",), ("aa",)), {"a": (), "aa": ("a", "a")})
    assert betti(loop) == dense_betti(densify(loop)) == (1, 1)


def test_rank_mod2():
    mat = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    assert rank_mod2(mat) == 2  # rows sum to zero mod 2
    # The same matrix as the boundary of a hollow triangle: rank 2 leaves
    # one component and one loop.
    edges = {"e0": ("a", "c"), "e1": ("a", "b"), "e2": ("b", "c")}
    triangle = ChainComplex((("a", "b", "c"), tuple(edges)), {**_vertices(*"abc"), **edges})
    assert np.array_equal(densify(triangle).boundary[1], mat)
    assert betti(triangle) == (1, 1)


def test_relative_ranks_net_b(cc_b, matching_b):
    expected = [(1, 0, 0), (0, 0, 0), (0, 0, 0)]
    assert relative_ranks(cc_b, 1.0, float("-inf")) == expected[0]
    assert relative_ranks(cc_b, 2.0, 1.0) == expected[1]
    assert relative_ranks(cc_b, 4.0, 2.0) == expected[2]
    report = verify_relative_perfectness(cc_b, matching_b)
    assert [r.expected for r in report.levels] == expected


def test_verify_relative_perfectness_net_b(cc_b, matching_b):
    report = verify_relative_perfectness(cc_b, matching_b)
    assert report.passed
    assert [r.level for r in report.levels] == [1.0, 2.0, 4.0]
    assert report.levels[0].critical_counts == (1, 0, 0)
    assert report.levels[1].critical_counts == (0, 0, 0)


def test_verify_relative_perfectness_negated(cpx_b_neg):
    matching = build_dgvf(cpx_b_neg)
    cc = compactify(cpx_b_neg)
    report = verify_relative_perfectness(cc, matching)
    assert report.passed
    top = report.levels[-1]
    assert top.critical_counts == (0, 0, 1)


def test_corrupted_matching_fails_at_named_level(cc_b, matching_b):
    # Removing the pair at the level-2 vertex leaves two unpaired cells there.
    pairs = tuple(p for p in matching_b.pairs if p[0] != S("0+0"))
    corrupted = Matching(pairs, matching_b.critical)
    report = verify_relative_perfectness(cc_b, corrupted)
    assert not report.passed
    failing = [r.level for r in report.levels if not r.passed]
    assert failing == [2.0]


def test_morse_complex_net_b(cc_b, matching_b):
    chain = morse_complex(cc_b, matching_b)
    assert [len(b) for b in chain.cells_by_dim] == [2, 0, 0]
    assert betti(chain) == (2, 0, 0)
    _check_dd_zero(chain)


def test_morse_complex_negated(cpx_b_neg):
    matching = build_dgvf(cpx_b_neg)
    cc = compactify(cpx_b_neg)
    chain = morse_complex(cc, matching)
    assert betti(chain) == betti(chain_complex(cc)) == (1, 0, 1)


def test_morse_complex_single_critical_cell():
    for seed, net, cpx in scan_generic_nets((2, 3), 25):
        matching = build_dgvf(cpx)
        if matching.critical:
            continue
        cc = compactify(cpx)
        chain = morse_complex(cc, matching)
        assert [len(b) for b in chain.cells_by_dim] == [1, 0, 0]
        assert betti(chain) == (1, 0, 0)
        return
    pytest.fail("no critical-free network among the scanned seeds")


def test_morse_complex_rejects_cycles():
    from relumorse import CompactifiedComplex

    a, b, e, f = (0, 1), (1, 0), (0, 0), (1, 1)
    cc = CompactifiedComplex(
        n0=1, cells={}, facets={e: (a, b), f: (a, b)}, f_max={}, vertex_values=()
    )
    with pytest.raises(CyclicMatchingError):
        morse_complex(cc, Matching(((a, e), (b, f)), ()))


def test_level_counts_sum_to_critical_inventory():
    for seed, net, cpx in scan_generic_nets((2, 4), 4):
        matching = build_dgvf(cpx)
        cc = compactify(cpx)
        report = verify_relative_perfectness(cc, matching)
        assert report.passed
        totals = np.zeros(cc.n0 + 1, dtype=int)
        for record in report.levels:
            totals += np.array(record.critical_counts)
        by_dim = np.zeros(cc.n0 + 1, dtype=int)
        for signs in matching.critical:
            by_dim[cc.cells[signs].dim] += 1
        assert np.array_equal(totals, by_dim)
        # Euler characteristic agreement between cells and critical cells.
        chi_cells = 1 + sum((-1) ** c.dim for c in cc.cells.values())
        chi_crit = 1 + sum((-1) ** cc.cells[s].dim for s in matching.critical)
        assert chi_cells == chi_crit


def test_dd_zero_everywhere():
    for seed, net, cpx in scan_generic_nets((3, 4), 2):
        matching = build_dgvf(cpx)
        cc = compactify(cpx)
        _check_dd_zero(chain_complex(cc))
        for level in cc.vertex_values:
            _check_dense_dd_zero(sublevel_chain(cc, level))
        _check_dd_zero(morse_complex(cc, matching))


def test_morse_complex_follows_long_v_paths_without_recursion():
    # A circle of 6,001 edges: vertex i is paired with edge i, which joins
    # vertices i-1 and i, and the closing edge from vertex n to vertex 0 is
    # critical.  Its boundary flows 6,000 V-path steps down to vertex 0.
    n = 6000
    vertex, edge = (lambda i: (0, i)), (lambda i: (1, i))
    cells = {vertex(i): SimpleNamespace(dim=0) for i in range(n + 1)}
    cells.update({edge(i): SimpleNamespace(dim=1) for i in range(1, n + 2)})
    facets = {BASEPOINT: (), **{vertex(i): () for i in range(n + 1)}}
    facets.update({edge(i): (vertex(i - 1), vertex(i)) for i in range(1, n + 1)})
    facets[edge(n + 1)] = (vertex(n), vertex(0))
    f_max = {key: 0.0 for key in cells}
    cc = CompactifiedComplex(1, cells, facets, f_max, (0.0,))
    matching = Matching(
        tuple((vertex(i), edge(i)) for i in range(1, n + 1)), (vertex(0), edge(n + 1))
    )
    chain = morse_complex(cc, matching)
    assert chain.cells_by_dim == ((BASEPOINT, vertex(0)), (edge(n + 1),))
    assert chain.facets[edge(n + 1)] == ()
    assert betti(chain) == (2, 1)


def _corruptions(matching):
    """Drop the first pair; drop the last pair; split two pairs into four
    critical cells."""
    pairs = matching.pairs
    assert len(pairs) >= 2
    mid = len(pairs) // 2
    split = pairs[mid - 1 : mid + 1]
    freed = tuple(sorted(matching.critical + tuple(s for pair in split for s in pair)))
    return [
        Matching(pairs[1:], matching.critical),
        Matching(pairs[:-1], matching.critical),
        Matching(pairs[: mid - 1] + pairs[mid + 1 :], freed),
    ]


def test_bitset_oracle_matches_dense_reference(differential_draws, cpx_b, cpx_b_neg):
    """Per-level reports, full and Morse Betti numbers agree with the dense
    per-level scan on clean and corrupted matchings."""
    failing = 0
    for cpx in [cpx for _, _, cpx in differential_draws] + [cpx_b, cpx_b_neg]:
        cc = compactify(cpx)
        full = betti(chain_complex(cc))
        assert full == dense_betti(dense_chain(cc.sorted_keys(), cc.dim, cc.facets.__getitem__, cc.n0))
        clean = build_dgvf(cpx)
        for matching in [clean] + _corruptions(clean):
            report = verify_relative_perfectness(cc, matching)
            records = [(r.level, r.expected, r.critical_counts, r.passed) for r in report.levels]
            assert records == dense_perfectness(cc, matching)
            failing += not report.passed
            morse = morse_complex(cc, matching)
            assert betti(morse) == dense_betti(densify(morse))
    assert failing == 3 * (len(differential_draws) + 2)
