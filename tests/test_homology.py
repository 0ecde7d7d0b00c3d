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
    relative_ranks,
    signs_from_str,
    verify_relative_perfectness,
)
from relumorse.errors import CyclicMatchingError
from relumorse.homology import ChainComplex, _rank_mod2

from conftest import scan_generic_nets

S = signs_from_str


@pytest.fixture(scope="module")
def cc_b(cpx_b):
    return compactify(cpx_b)


@pytest.fixture(scope="module")
def matching_b(cpx_b):
    return build_dgvf(cpx_b)


def _check_dd_zero(chain):
    for k in range(1, len(chain.boundary) - 1):
        prod = (chain.boundary[k] @ chain.boundary[k + 1]) % 2
        assert not prod.any()


def test_full_chain_complex(cc_b):
    chain = chain_complex(cc_b)
    assert sum(len(b) for b in chain.cells_by_dim) == 8
    _check_dd_zero(chain)


def test_sublevel_complexes(cc_b):
    chain = chain_complex(cc_b, 1.0)
    cells = [k for bucket in chain.cells_by_dim for k in bucket]
    assert cells == [BASEPOINT, S("+00")]
    chain = chain_complex(cc_b, 2.0)
    cells = {k for bucket in chain.cells_by_dim for k in bucket}
    assert cells == {BASEPOINT, S("+00"), S("0+0"), S("++0")}


def test_betti_examples(cc_b):
    assert betti(chain_complex(cc_b)) == (2, 0, 0)
    single_vertex = ChainComplex((("v",),), (np.zeros((0, 1), dtype=np.uint8),))
    assert betti(single_vertex) == (1,)
    # Hollow square: four vertices, four edges, no 2-cells.
    d1 = np.array(
        [[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=np.uint8
    )
    square = ChainComplex(
        (("a", "b", "c", "d"), ("ab", "bc", "cd", "da")),
        (np.zeros((0, 4), dtype=np.uint8), d1),
    )
    assert betti(square) == (1, 1)


def test_rank_mod2():
    mat = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    assert _rank_mod2(mat) == 2  # rows sum to zero mod 2


def test_relative_ranks_net_b(cc_b):
    assert relative_ranks(cc_b, 1.0, float("-inf")) == (1, 0, 0)
    assert relative_ranks(cc_b, 2.0, 1.0) == (0, 0, 0)
    assert relative_ranks(cc_b, 4.0, 2.0) == (0, 0, 0)


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
            _check_dd_zero(chain_complex(cc, level))
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
    assert not chain.boundary[1].any()
    assert betti(chain) == (2, 1)
