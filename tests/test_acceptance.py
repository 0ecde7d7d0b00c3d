"""Acceptance suite: one test per criterion, each printing a PASS line.

Populations are deterministic seed scans (ascending from zero) that skip
draws rejected by the structured build checks, so every run sees the same
networks.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from relumorse import (
    BASEPOINT,
    analyze_shallow,
    betti,
    build_dgvf,
    chain_complex,
    classify_vertex,
    compactify,
    is_acyclic,
    is_face,
    local_pair,
    morse_complex,
    net_b,
    orient_edge,
    signs_from_str,
    verify_relative_perfectness,
)
from relumorse.complex import build_complex

from conftest import (
    away_from_anchor,
    central_difference_gradient,
    cofacets,
    interior_witness_of,
    is_spatially_bounded,
    scan_generic_nets,
    sign_sequence_at,
)

S = signs_from_str

SUITE_ARCHS = ((2, 3), (2, 4), (2, 5), (2, 3, 2), (3, 4))
NETS_PER_ARCH = 40


@dataclass
class SuiteNet:
    arch: tuple
    seed: int
    net: object
    cpx: object
    matching: object
    cc: object


@pytest.fixture(scope="session")
def suite():
    start = time.monotonic()
    nets = []
    for arch in SUITE_ARCHS:
        for seed, net, cpx in scan_generic_nets(arch, NETS_PER_ARCH):
            matching = build_dgvf(cpx)
            cc = compactify(cpx)
            nets.append(SuiteNet(arch, seed, net, cpx, matching, cc))
    elapsed = time.monotonic() - start
    return nets, elapsed


def _report(criterion, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}", flush=True)


def test_criterion_1_closed_form_counts():
    worst = 0.0
    for n in (3, 4, 5):
        for seed, net, _ in scan_generic_nets((2, n), 20):
            t0 = time.monotonic()
            cpx = build_complex(net)
            vertices = sum(1 for c in cpx.cells.values() if c.dim == 0)
            unbounded_edges = sum(
                1
                for c in cpx.cells.values()
                if c.dim == 1 and not is_spatially_bounded(cpx, c)
            )
            unbounded_2cells = sum(
                1
                for c in cpx.cells.values()
                if c.dim == 2 and not is_spatially_bounded(cpx, c)
            )
            per_net = time.monotonic() - t0
            worst = max(worst, per_net)
            assert vertices == n * (n - 1) // 2, (n, seed)
            assert unbounded_edges == 2 * n, (n, seed)
            assert unbounded_2cells == 2 * n, (n, seed)
            assert per_net < 1.0, (n, seed, per_net)
    _report(1, f"60 nets, worst build+count {worst:.3f}s")


def test_criterion_2_shallow_classification():
    t0 = time.monotonic()
    classes = {"all-away": 0, "all-toward": 0,
               "one-toward-rest-away": 0, "one-away-rest-toward": 0}
    for seed, net, cpx in scan_generic_nets((2, 3), 200):
        report = analyze_shallow(net, cpx)
        assert report.unbounded_consistent, seed
        assert report.orientation_class in classes, (seed, report.orientation_class)
        classes[report.orientation_class] += 1
        assert len(report.critical) <= 1, seed
        for _, index, _ in report.critical:
            assert index in (0, 2), (seed, index)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    assert all(v >= 0 for v in classes.values())
    _report(2, f"200 nets in {elapsed:.1f}s, class counts {classes}")


def test_criterion_3_fixture_regression():
    net = net_b()
    cpx = build_complex(net)
    matching = build_dgvf(cpx)
    assert matching.pairs == (
        (S("00+"), S("+0+")),
        (S("0+0"), S("++0")),
        (S("0++"), S("+++")),
    )
    assert matching.critical == (S("+00"),)
    assert BASEPOINT in matching.critical_set()
    assert matching.to_json_dict()["basepoint"] is True
    cls = classify_vertex(cpx, S("+00"))
    assert cls.kind == "critical" and cls.index == 0
    record = cpx.vertices[S("+00")]
    assert np.allclose(record.location, [1.0, 0.0])
    assert record.value == 1.0
    report = verify_relative_perfectness(compactify(cpx), matching)
    assert report.passed and len(report.levels) == 3
    assert all(r.passed for r in report.levels)
    _report(3, "NET-B inventory, matching and perfectness exact")


def test_criterion_4_dgvf_validity(suite):
    nets, build_elapsed = suite
    t0 = time.monotonic()
    assert len(nets) == NETS_PER_ARCH * len(SUITE_ARCHS)
    for item in nets:
        problems = item.matching.validate(item.cpx)
        assert problems == [], (item.arch, item.seed, problems)
        ok, witness = is_acyclic(item.matching, item.cc)
        assert ok, (item.arch, item.seed, witness)
        critical_vertices = {}
        for signs, record in item.cpx.vertices.items():
            cls = classify_vertex(item.cpx, record)
            if cls.kind == "critical":
                critical_vertices[record.value] = (signs, cls.index)
        assert len(critical_vertices) == len(item.matching.critical), (item.arch, item.seed)
        for cell_signs in item.matching.critical:
            value = item.cc.f_max[cell_signs]
            assert value in critical_vertices, (item.arch, item.seed)
            v_signs, index = critical_vertices[value]
            assert item.cc.cells[cell_signs].dim == index, (item.arch, item.seed)
            assert is_face(v_signs, cell_signs), (item.arch, item.seed)
    elapsed = build_elapsed + (time.monotonic() - t0)
    assert elapsed < 300.0, elapsed
    _report(4, f"200 nets (incl. construction) in {elapsed:.1f}s")


def test_criterion_5_relative_perfectness(suite):
    nets, _ = suite
    for item in nets:
        report = verify_relative_perfectness(item.cc, item.matching)
        failures = [r for r in report.levels if not r.passed]
        assert report.passed, (item.arch, item.seed, failures)
    _report(5, "all vertex levels matched on 200 nets")


def test_criterion_6_morse_homology_oracle(suite):
    nets, _ = suite
    for item in nets:
        full = betti(chain_complex(item.cc))
        morse = betti(morse_complex(item.cc, item.matching))
        assert full == morse, (item.arch, item.seed, full, morse)
    _report(6, "Morse Betti numbers equal cellular Betti numbers on 200 nets")


def test_criterion_7_local_global_equivalence(suite):
    nets, _ = suite
    cells_checked = 0
    for item in nets:
        lower_of = item.matching.lower_to_upper()
        upper_of = item.matching.upper_to_lower()
        for signs in item.cc.cells:
            assignment = local_pair(item.net, signs)
            if assignment.role == "critical":
                assert signs in item.matching.critical, (item.arch, item.seed, signs)
            elif assignment.role == "lower":
                assert lower_of.get(signs) == assignment.partner, (item.arch, item.seed, signs)
            else:
                assert upper_of.get(signs) == assignment.partner, (item.arch, item.seed, signs)
            cells_checked += 1
    _report(7, f"{cells_checked} bounded-above cells agreed")


def test_criterion_8_analytic_gradients(suite):
    nets, _ = suite
    gradients = 0
    directions = 0
    for item in nets:
        for cell in item.cpx.top_cells():
            witness, clearance = interior_witness_of(item.net, cell.signs, item.cpx.lp_tol)
            h = min(1e-4, clearance / 2)
            fd = central_difference_gradient(item.net, witness, h)
            g = item.cpx.f_affine(cell.signs)[0]
            assert np.allclose(fd, g, rtol=1e-6, atol=1e-8), (item.arch, item.seed, cell.signs)
            gradients += 1
        for signs, record in item.cpx.vertices.items():
            scale = max(1.0, float(np.abs(record.location).max()))
            for edge in cofacets(item.cpx, signs):
                d = orient_edge(item.cpx, record, edge).direction
                probe = record.location + 1e-4 * scale * d
                assert sign_sequence_at(item.net, probe) == edge.signs, (
                    item.arch,
                    item.seed,
                    edge.signs,
                )
                directions += 1
    _report(8, f"{gradients} gradients and {directions} edge directions verified")


def _bounded_edge_arrow(cpx, cell):
    """(tail, head) vertex signs of a bounded oriented edge."""
    a, b = sorted(cpx.vertex_facets(cell), key=lambda v: v.signs)
    if away_from_anchor(orient_edge(cpx, a, cell)):
        return a.signs, b.signs
    return b.signs, a.signs


def test_criterion_9_structural_properties(suite):
    nets, _ = suite
    zigzag_checks = 0
    for item in nets:
        cpx = item.cpx
        # (a) no directed cycles among bounded edges.
        arcs = []
        for cell in cpx.cells.values():
            if cell.dim == 1 and len(cpx.vertex_facets(cell)) == 2:
                arcs.append(_bounded_edge_arrow(cpx, cell))
        nodes = {s for arc in arcs for s in arc}
        remaining = list(arcs)
        while nodes:
            targets = {head for _, head in remaining}
            sources = nodes - targets
            assert sources, (item.arch, item.seed, "directed cycle")
            nodes -= sources
            remaining = [(t, h) for t, h in remaining if t in nodes and h in nodes]

        # (b) unique source and sink on every bounded 2-cell.
        for cell in cpx.cells.values():
            if cell.dim != 2 or not is_spatially_bounded(cpx, cell):
                continue
            edges = [e for e in cpx.facets(cell) if e.dim == 1]
            sources = sinks = 0
            for v in cpx.vertex_facets(cell):
                incident = [e for e in edges if is_face(v.signs, e.signs)]
                assert len(incident) == 2, (item.arch, item.seed, cell.signs)
                away = [away_from_anchor(orient_edge(cpx, v, e)) for e in incident]
                if all(away):
                    sources += 1
                if not any(away):
                    sinks += 1
            assert sources == 1 and sinks == 1, (item.arch, item.seed, cell.signs)

        # (c) no zigzags, exhaustively on the planar complexes.
        if cpx.n0 != 2:
            continue
        for cell in cpx.cells.values():
            if cell.dim != 2:
                continue
            edges = [e for e in cpx.facets(cell) if e.dim == 1]
            unbounded = [e for e in edges if len(cpx.vertex_facets(e)) == 1]
            for e in edges:
                anchors = cpx.vertex_facets(e)
                if len(anchors) != 2:
                    continue
                for v1, v2 in ((anchors[0], anchors[1]), (anchors[1], anchors[0])):
                    e1 = [u for u in unbounded if is_face(v1.signs, u.signs)]
                    e2 = [u for u in unbounded if is_face(v2.signs, u.signs)]
                    if not e1 or not e2:
                        continue
                    toward_v1 = not away_from_anchor(orient_edge(cpx, v1, e1[0]))
                    away_v2 = away_from_anchor(orient_edge(cpx, v2, e2[0]))
                    if toward_v1 and away_v2:
                        assert away_from_anchor(orient_edge(cpx, v1, e)), (
                            item.arch,
                            item.seed,
                            cell.signs,
                        )
                        zigzag_checks += 1
    _report(9, f"skeleton acyclic, 2-cell extrema unique, {zigzag_checks} zigzag cases")
