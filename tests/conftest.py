import numpy as np
import pytest

from relumorse import (
    AffineLayer,
    Architecture,
    Cell,
    ReluNetwork,
    VertexRecord,
    build_complex,
    is_face,
    net_b,
    orient_edge,
    random_network,
)
from relumorse.complex import _cell_problem
from relumorse.errors import StructuredError
from relumorse.lp import _simplex


def make_net_b_negated() -> ReluNetwork:
    base = net_b()
    return ReluNetwork(base.layers, AffineLayer([[-1.0, -2.0, -4.0]], [0.0]))


@pytest.fixture(scope="session")
def netb():
    return net_b()


@pytest.fixture(scope="session")
def cpx_b(netb):
    return build_complex(netb)


@pytest.fixture(scope="session")
def netb_neg():
    return make_net_b_negated()


@pytest.fixture(scope="session")
def cpx_b_neg(netb_neg):
    return build_complex(netb_neg)


@pytest.fixture(scope="session")
def differential_draws():
    """Three accepted draws each of (2,4,1), (3,4,1) and (2,3,2,1), on which
    the library's sign-word lookups are checked against the oracles below."""
    return [d for arch in ((2, 4), (3, 4), (2, 3, 2)) for d in scan_generic_nets(arch, 3)]


def scan_generic_nets(arch, count, start_seed=0, scale=1.0):
    """First ``count`` seeds (ascending from start_seed) whose complexes build
    without structured errors; degenerate or flat draws are skipped."""
    out = []
    seed = start_seed
    while len(out) < count:
        net = random_network(Architecture(arch), seed=seed, scale=scale)
        try:
            cpx = build_complex(net)
        except StructuredError:
            seed += 1
            continue
        out.append((seed, net, cpx))
        seed += 1
    return out


def central_difference_gradient(net, x, h):
    """Finite-difference oracle for the gradient of F at x."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for axis in range(x.shape[0]):
        step = np.zeros_like(x)
        step[axis] = h
        grad[axis] = (net.evaluate(x + step) - net.evaluate(x - step)) / (2 * h)
    return grad


# -- reference oracles: scans and LPs that the library does not need ---------


def star(cpx, signs) -> list:
    """Cells having ``signs`` as a face, by a scan over every cell."""
    signs = tuple(signs)
    return [c for c in cpx.cells.values() if is_face(signs, c.signs)]


def vertex_facets_scan(cpx, cell) -> list:
    """Vertices in the closure of ``cell``, by a scan over every vertex."""
    signs = cell.signs if isinstance(cell, Cell) else tuple(cell)
    return [v for v in cpx.vertices.values() if is_face(v.signs, signs)]


def lp_max(cpx, cell, sense=1) -> float:
    """Max of sense * F over a cell by the tableau simplex, not read off
    vertex values, rays nor the closed forms of ``lp_solve``; +inf when the
    LP has no optimum."""
    signs = cell.signs if isinstance(cell, Cell) else tuple(cell)
    form = cpx.form(signs)
    res = _simplex(_cell_problem(cpx.hrep(signs), sense * form.total_gradient), cpx.lp_tol)
    return res.value + sense * form.total_offset if res.optimal else float("inf")


def is_spatially_bounded(cpx, cell) -> bool:
    """True iff the cell is a bounded subset of R^n0 (coordinate LPs)."""
    signs = cell.signs if isinstance(cell, Cell) else tuple(cell)
    for axis in range(cpx.n0):
        for direction in (1.0, -1.0):
            obj = np.zeros(cpx.n0)
            obj[axis] = direction
            if not cpx.cell_lp(signs, obj).optimal:
                return False
    return True


def lower_star(cpx, vertex) -> list:
    """Cells of star(v) on which F attains its maximum at v.

    Combinatorial rule: a star cell is in the lower star iff every one of
    its edges at v descends (points toward v); extra nonzero entries of the
    cell name those edges directly.
    """
    v = vertex if isinstance(vertex, VertexRecord) else cpx.vertices[tuple(vertex)]
    zero_pos = [p for p, s in enumerate(v.signs) if s == 0]
    descends = {}
    for p in zero_pos:
        for sigma in (-1, 1):
            e = v.signs[:p] + (sigma,) + v.signs[p + 1 :]
            if e in cpx.cells:
                descends[(p, sigma)] = orient_edge(cpx, v, cpx.cells[e]).derivative_sign < 0
    out = []
    for c in star(cpx, v.signs):
        extras = [(p, c.signs[p]) for p in zero_pos if c.signs[p] != 0]
        if all(descends.get(key, False) for key in extras):
            out.append(c)
    out.sort(key=lambda c: c.signs)
    return out
