import json

import numpy as np
import pytest

from relumorse import (
    AffineLayer,
    Architecture,
    ReluNetwork,
    build_complex,
    from_weight_dict,
    net_b,
    random_network,
    to_weight_dict,
)
from relumorse.errors import (
    ArchitectureError,
    DimensionError,
    GenericityError,
    SingularSystemError,
    StructuredError,
)
from relumorse.network import node_maps

from conftest import (
    central_difference_gradient,
    complex_forms,
    interior_witness_of,
    node_map,
    sign_sequence_at,
)


def test_evaluate_net_b():
    net = net_b()
    assert net.evaluate([0.0, 0.0]) == pytest.approx(4.0)
    assert net.evaluate([1.0, 0.0]) == pytest.approx(1.0)


def test_evaluate_zero_final_weights_is_constant():
    net = ReluNetwork(
        (AffineLayer([[1.0, 0.0], [0.0, 1.0]], [0.3, -0.2]),),
        AffineLayer([[0.0, 0.0]], [2.5]),
    )
    for x in ([0.0, 0.0], [3.0, -1.0], [-2.0, 7.0]):
        assert net.evaluate(x) == pytest.approx(2.5)


def test_evaluate_shape_error():
    with pytest.raises(DimensionError):
        net_b().evaluate([1.0, 2.0, 3.0])


def test_node_map_examples():
    net = net_b()
    assert node_map(net, 1, 3, [0.0, 0.0]) == pytest.approx(1.0)
    assert node_map(net, 1, 1, [1.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(DimensionError):
        node_map(net, 2, 1, [0.0, 0.0])
    with pytest.raises(DimensionError):
        node_map(net, 1, 4, [0.0, 0.0])


def test_node_map_vanishes_on_hyperplane():
    net = ReluNetwork(
        (AffineLayer([[2.0, -1.0]], [0.5]),), AffineLayer([[1.0]], [0.0])
    )
    # Any point with 2x - y + 0.5 = 0 lies on the hyperplane of neuron (1, 1).
    assert node_map(net, 1, 1, [0.25, 1.0]) == pytest.approx(0.0)


def test_sign_sequence_examples():
    net = net_b()
    assert sign_sequence_at(net, [0.5, 0.2]) == (1, 1, 1)
    assert sign_sequence_at(net, [1.0, 0.0]) == (1, 0, 0)
    assert sign_sequence_at(net, [0.0, 0.0]) == (0, 0, 1)


def test_f_affine_gradients(cpx_b):
    # F's gradient and offset on a cell, one row of last-layer signs each,
    # from the one table of NET-B's single layer; the complex reads a
    # cell's by its word.
    net = net_b()
    grads, offsets = node_maps(net, ()).f_affine(net.final, [(1, 1, 1), (1, -1, 0), (-1, -1, -1)])
    assert np.allclose(grads, [[-3.0, -2.0], [1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(offsets, [4.0, 0.0, 0.0])
    grad, offset = cpx_b.f_affine((1, 1, 1))
    assert grad.tobytes() == grads[0].tobytes() and offset == float(offsets[0])


def test_affine_form_matches_evaluation_on_interior(cpx_b):
    net = cpx_b.net
    for cell in cpx_b.top_cells():
        form = complex_forms(cpx_b)(cell.signs)
        x = interior_witness_of(net, cell.signs, cpx_b.lp_tol)[0]
        expected = float(form.total_gradient @ x + form.total_offset)
        assert net.evaluate(x) == pytest.approx(expected, rel=1e-9)
        assert 0 not in sign_sequence_at(net, x)


@pytest.mark.parametrize("arch", [(2, 4, 3), (3, 4, 3)])
def test_node_map_table_follows_sign_word_order(arch):
    # Row p of a cell's table is node map net.ij(p), across every layer.
    rng = np.random.default_rng(0)
    for seed in range(3):
        net = random_network(Architecture(arch), seed)
        words = {sign_sequence_at(net, x) for x in rng.uniform(-3.0, 3.0, (60, net.n0))}
        for signs in sorted(words):
            form = node_maps(net, signs[: -net.final.in_dim])
            x = interior_witness_of(net, signs, 1e-7)[0]
            for p in range(net.total_neurons):
                expected = node_map(net, *net.ij(p), x)
                got = float(form.rows[p] @ x + form.offsets[p])
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_gradient_matches_finite_differences(cpx_b):
    net = cpx_b.net
    for cell in cpx_b.top_cells():
        witness, clearance = interior_witness_of(net, cell.signs, cpx_b.lp_tol)
        h = min(1e-4, clearance / 2)
        fd = central_difference_gradient(net, witness, h)
        g = cpx_b.f_affine(cell.signs)[0]
        assert np.allclose(fd, g, rtol=1e-6, atol=1e-9)


def test_random_network_determinism():
    a = random_network(Architecture((2, 3)), seed=7)
    b = random_network(Architecture((2, 3)), seed=7)
    c = random_network(Architecture((2, 3)), seed=8)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    assert np.array_equal(a.final.weights, b.final.weights)
    assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)


def test_random_networks_are_generic():
    # Flat or value-colliding draws are possible (and skipped by callers),
    # but positional degeneracies have measure zero under continuous weights.
    for seed in range(100):
        net = random_network(Architecture((2, 3)), seed=seed)
        try:
            build_complex(net)
        except (GenericityError, SingularSystemError) as exc:
            pytest.fail(f"seed {seed} produced a degenerate arrangement: {exc}")
        except StructuredError:
            pass


def test_weight_dict_round_trip():
    net = random_network(Architecture((3, 4)), seed=5)
    text = json.dumps(to_weight_dict(net))
    back = from_weight_dict(json.loads(text))
    assert np.allclose(back.layers[0].weights, net.layers[0].weights)
    assert np.allclose(back.final.bias, net.final.bias)


def test_weight_dict_schema_errors():
    net = net_b()
    data = to_weight_dict(net)
    bad = dict(data)
    del bad["final"]
    with pytest.raises(ValueError):
        from_weight_dict(bad)
    bad = json.loads(json.dumps(data))
    bad["layers"][0]["weights"] = [[1.0, 0.0]]
    with pytest.raises(ValueError, match="layer 1: inconsistent layer shapes"):
        from_weight_dict(bad)


def test_architecture_validation():
    with pytest.raises(ArchitectureError):
        Architecture((2,))
    with pytest.raises(ArchitectureError):
        Architecture((2, 0))
    with pytest.raises(ArchitectureError):
        Architecture.from_full((2, 3, 2))
    assert Architecture.from_full((2, 3, 1)).dims == (2, 3)


def test_layer_shape_chain_validation():
    with pytest.raises(ArchitectureError):
        ReluNetwork(
            (AffineLayer([[1.0, 0.0]], [0.0]), AffineLayer([[1.0, 0.0]], [0.0])),
            AffineLayer([[1.0]], [0.0]),
        )
