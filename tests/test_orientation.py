
import numpy as np
import pytest

from relumorse import (
    AffineLayer,
    ReluNetwork,
    analyze_shallow,
    build_complex,
    classify_vertex,
    net_b,
    orient_edge,
    orientation_field,
    signs_from_str,
)
from relumorse.errors import ArchitectureError, MissingEdgeError

from conftest import (
    away_from_anchor,
    cofacets,
    scan_generic_nets,
    sign_sequence_at,
    single_hyperplane_complex,
)

S = signs_from_str


def test_edge_direction_examples(cpx_b):
    v1 = cpx_b.vertices[S("00+")]
    assert np.allclose(orient_edge(cpx_b, v1, S("+0+")).direction, [1.0, 0.0])
    assert np.allclose(orient_edge(cpx_b, v1, S("0-+")).direction, [0.0, -1.0])


def test_edge_direction_lands_in_edge(cpx_b):
    net = cpx_b.net
    for signs, v in cpx_b.vertices.items():
        scale = max(1.0, float(np.abs(v.location).max()))
        for edge in cofacets(cpx_b, signs):
            d = orient_edge(cpx_b, v, edge).direction
            probe = v.location + 1e-4 * scale * d
            assert sign_sequence_at(net, probe) == edge.signs


def test_orient_edge_examples(cpx_b):
    v1 = cpx_b.vertices[S("00+")]
    assert orient_edge(cpx_b, v1, S("+0+")).derivative_sign == -1
    assert not away_from_anchor(orient_edge(cpx_b, v1, S("+0+")))
    assert orient_edge(cpx_b, v1, S("-0+")).derivative_sign == 1
    v2 = cpx_b.vertices[S("+00")]
    for edge in cofacets(cpx_b, S("+00")):
        assert orient_edge(cpx_b, v2, edge).derivative_sign == 1


def test_orientation_antisymmetry(cpx_b):
    for cell in cpx_b.cells.values():
        if cell.dim != 1:
            continue
        anchors = cpx_b.vertex_facets(cell)
        if len(anchors) != 2:
            continue
        a, b = anchors
        assert (
            orient_edge(cpx_b, a, cell).derivative_sign
            == -orient_edge(cpx_b, b, cell).derivative_sign
        )


def test_derivative_sign_matches_difference_quotient(cpx_b):
    net = cpx_b.net
    for signs, v in cpx_b.vertices.items():
        for edge in cofacets(cpx_b, signs):
            orientation = orient_edge(cpx_b, v, edge)
            for t in (1e-6, 1e-4, 1e-3):
                delta = net.evaluate(v.location + t * orientation.direction) - v.value
                assert np.sign(delta) == orientation.derivative_sign


def test_classify_examples(cpx_b):
    cls = classify_vertex(cpx_b, S("+00"))
    assert cls.kind == "critical" and cls.index == 0
    assert cls.descending_axes == ()
    cls = classify_vertex(cpx_b, S("00+"))
    assert cls.kind == "regular"
    # Both axes flow through at v1.
    assert all(dm != dp for _, dm, dp in cls.axes)
    assert cls.flow_axis == 0 and cls.flow_sign == 1
    cls = classify_vertex(cpx_b, S("0+0"))
    assert cls.kind == "regular"
    assert cls.flow_axis == 0 and cls.flow_sign == 1


def test_classify_negated(cpx_b_neg):
    kinds = {s: classify_vertex(cpx_b_neg, s) for s in cpx_b_neg.vertices}
    assert kinds[S("+00")].kind == "critical" and kinds[S("+00")].index == 2
    assert kinds[S("00+")].kind == "regular"
    assert kinds[S("0+0")].kind == "regular"


def test_classify_missing_edge_error(cpx_b, netb):
    broken = build_complex(netb)
    broken.cells = {s: c for s, c in broken.cells.items() if s != S("-0+")}
    with pytest.raises(MissingEdgeError):
        classify_vertex(broken, S("00+"))


def test_orientation_field_net_b(cpx_b):
    field = orientation_field(cpx_b)
    assert len(field) == 9
    assert field[S("+0+")].anchor == S("00+")
    assert field[S("+0+")].derivative_sign == -1
    assert field[S("++0")].anchor == S("0+0")


def test_orientation_field_single_hyperplane_line_is_flat():
    # The lone bent hyperplane of a one-neuron net is a level set of F, so
    # no direction of increase exists along it and the field omits it.
    assert orientation_field(single_hyperplane_complex()) == {}


def test_orientation_field_tests_an_unflagged_line_by_its_gradient(monkeypatch):
    # With its flat flag cleared, the vertex-free line is judged by the
    # slope of its restricted gradient: still constant, it is omitted; given
    # a gradient along the line, it is oriented the way F increases.
    cpx = single_hyperplane_complex()
    line = S("0")
    cpx.cells[line].flat = False
    assert orientation_field(cpx) == {}
    g = np.array([1.0, -1.0])
    real = cpx.f_affine
    monkeypatch.setattr(cpx, "f_affine", lambda s: (g, real(s)[1]) if s == line else real(s))
    field = orientation_field(cpx)
    assert list(field) == [line]
    assert field[line].anchor is None and field[line].derivative_sign == 1
    assert np.allclose(field[line].direction, g / np.linalg.norm(g))


def test_edge_queries_reject_an_edge_not_at_the_vertex(cpx_b):
    v = cpx_b.vertices[S("00+")]
    with pytest.raises(MissingEdgeError, match=r"\+\+0 is not an incident edge of 00\+"):
        orient_edge(cpx_b, v, S("++0"))


def test_analyze_shallow_net_b(netb, cpx_b):
    report = analyze_shallow(netb, cpx_b)
    assert report.orientation_class == "all-away"
    assert report.unbounded_consistent
    assert report.critical == ((S("+00"), 0, pytest.approx(1.0)),)
    assert report.boundary_type == "empty"  # min F = 1 > 0


def test_analyze_shallow_negated(netb_neg, cpx_b_neg):
    report = analyze_shallow(netb_neg, cpx_b_neg)
    assert report.orientation_class == "all-toward"
    assert [k for _, k, _ in report.critical] == [2]
    assert report.boundary_type == "empty"  # max F = -1 < 0


def test_analyze_shallow_sphere_boundary():
    # Shift NET-B down so the index-0 minimum sits below zero: the zero set
    # bounds a disk.
    net = ReluNetwork(net_b().layers, AffineLayer([[1.0, 2.0, 4.0]], [-2.0]))
    report = analyze_shallow(net)
    assert report.critical and report.boundary_type == "sphere"


def test_analyze_shallow_point_boundary():
    # A mixed-orientation draw has no critical vertex and a contractible
    # zero set.
    for seed, net, cpx in scan_generic_nets((2, 3), 20):
        report = analyze_shallow(net, cpx)
        if report.orientation_class in ("one-toward-rest-away", "one-away-rest-toward"):
            assert not report.critical
            assert report.boundary_type == "point"
            return
    pytest.fail("no mixed-class network among the scanned seeds")


def test_analyze_shallow_architecture_check():
    net = ReluNetwork(
        (AffineLayer(np.eye(2), [0.0, 0.0]),), AffineLayer([[1.0, 1.0]], [0.0])
    )
    with pytest.raises(ArchitectureError):
        analyze_shallow(net)


def test_no_directed_cycles_on_bounded_skeleton(cpx_b):
    edges = []
    for cell in cpx_b.cells.values():
        if cell.dim != 1:
            continue
        anchors = cpx_b.vertex_facets(cell)
        if len(anchors) != 2:
            continue
        a, b = anchors
        if away_from_anchor(orient_edge(cpx_b, a, cell)):
            edges.append((a.signs, b.signs))
        else:
            edges.append((b.signs, a.signs))
    # Longest-path style check: repeatedly remove sources.
    nodes = {s for pair in edges for s in pair}
    while nodes:
        targets = {b for _, b in edges}
        sources = nodes - targets
        assert sources, "directed cycle in the bounded 1-skeleton"
        nodes -= sources
        edges = [(a, b) for a, b in edges if a in nodes and b in nodes]
