"""Differential test of the cell enumeration against brute force.

``brute_force_stage`` is the enumeration that ``build_complex`` used before
cells were split neuron by neuron: inside every parent cell it tries all
3^n_k sign words of the next layer and keeps a word when the interior-witness
LP finds a point clearing its strict inequalities.  Both enumerations must
give the same cells, dimensions, flat flags, vertex records and witnesses,
or the same structured error.
"""

import itertools
import re

import numpy as np
import pytest

from relumorse import AffineLayer, Architecture, ReluNetwork, build_complex, net_b, random_network
from relumorse.complex import _abort_on_forced_flats, _assemble, _hrep_for
from relumorse.errors import GenericityError, StructuredError
from relumorse.lp import interior_witness
from relumorse.network import _prefix_forms, signs_to_str

SIGN_TOL = 1e-9
LP_TOL = 1e-7


def brute_force_stage(net, lp_tol=LP_TOL):
    """{signs: (witness, clearance)} for every cell, trying all 3^n_k words."""
    n0 = net.n0
    stage = {(): None}
    for k, layer in enumerate(net.layers, start=1):
        n_k = layer.out_dim
        new_stage = {}
        for parent in sorted(stage):
            ext = parent + (0,) * n_k
            pre_j, pre_b, _, _ = _prefix_forms(net, ext)
            for t in itertools.product((-1, 0, 1), repeat=n_k):
                cand = parent + t
                rep = _hrep_for(net, cand, (pre_j, pre_b))
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
    return record(cpx, {s: (c.witness, c.clearance) for s, c in cpx.cells.items()})


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
}

RANDOM_ARCHS = ((2, 3, 1), (2, 5, 1), (3, 4, 1), (2, 4, 3, 1), (2, 4, 4, 1), (3, 4, 3, 1))
RANDOM = [(arch, seed) for arch in RANDOM_ARCHS for seed in range(6)]
RANDOM += [((2, 8, 1), 0), ((3, 6, 1), 0)]

CASES = [pytest.param(net_b(), id="net_b")]
CASES += [pytest.param(net, id=name) for name, net in DEGENERATE.items()]
CASES += [
    pytest.param(
        random_network(Architecture.from_full(arch), seed=seed),
        id=f"{'x'.join(map(str, arch))}-s{seed}",
    )
    for arch, seed in RANDOM
]


@pytest.mark.parametrize("net", CASES)
def test_split_enumeration_matches_brute_force(net):
    assert split_outcome(net) == brute_force_outcome(net)


def test_degenerate_cases_raise_genericity():
    for name, expected in (
        ("three_lines", "feasible pattern 000 has 3 > n0 zeros"),
        ("dead_region_vanishes", "node map (2, 1) vanishes identically on a region"),
        ("vanishes_on_a_line", "dependent zero-set equations on +00+"),
    ):
        with pytest.raises(GenericityError, match=re.escape(expected)):
            build_complex(DEGENERATE[name])
