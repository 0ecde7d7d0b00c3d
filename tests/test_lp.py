import itertools

import numpy as np
import pytest

from relumorse import lp as lp_module
from relumorse.complex import _cell_problem, _HRep, _witness
from relumorse.lp import (
    FEAS_TOL,
    LpProblem,
    _pivot,
    _point_or_line,
    _simplex,
    lp_solve,
)

from conftest import reference_pivot


def test_triangle_maximum_with_tight_set():
    # max 4 - 3x - 2y over {x >= 0, y >= 0, 1 - x - y >= 0}: the linear part
    # peaks at the origin where the first two constraints are tight.
    problem = LpProblem.build(
        [-3.0, -2.0], a_ge=[[1, 0], [0, 1], [-1, -1]], b_ge=[0, 0, -1]
    )
    res = lp_solve(problem)
    assert res.optimal
    assert res.value + 4.0 == pytest.approx(4.0)
    assert np.allclose(res.x, [0.0, 0.0], atol=1e-9)
    assert res.tight == (0, 1)


def test_single_constraint_optimum():
    res = lp_solve(LpProblem.build([1.0], a_ge=[[-1.0]], b_ge=[-1.0]))
    assert res.optimal
    assert res.value == pytest.approx(1.0)


def test_unbounded():
    assert lp_solve(LpProblem.build([1.0], a_ge=[[1.0]], b_ge=[0.0])).status == "unbounded"


def test_infeasible():
    res = lp_solve(LpProblem.build([1.0], a_ge=[[1.0], [-1.0]], b_ge=[1.0, 0.0]))
    assert res.status == "infeasible"


def test_equality_constraints():
    res = lp_solve(
        LpProblem.build(
            [0.0, 1.0], a_eq=[[1.0, 0.0]], b_eq=[0.5], a_ge=[[1.0, -1.0]], b_ge=[0.0]
        )
    )
    assert res.optimal
    assert res.value == pytest.approx(0.5)
    assert np.allclose(res.x, [0.5, 0.5])


def _brute_force_polygon_max(objective, a, b):
    """Vertex-enumeration oracle for 2-D LPs over bounded polygons."""
    best = None
    m = a.shape[0]
    for i, j in itertools.combinations(range(m), 2):
        mat = a[[i, j]]
        if abs(np.linalg.det(mat)) < 1e-9:
            continue
        x = np.linalg.solve(mat, b[[i, j]])
        if np.all(a @ x >= b - 1e-8):
            val = float(objective @ x)
            if best is None or val > best:
                best = val
    return best


def test_matches_vertex_enumeration_on_random_polygons():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 60:
        # Random halfplanes plus a box to keep the region bounded.
        k = rng.integers(2, 6)
        a = np.vstack([rng.standard_normal((k, 2)),
                       [[1, 0], [-1, 0], [0, 1], [0, -1]]])
        b = np.concatenate([rng.standard_normal(k), [-5, -5, -5, -5]])
        objective = rng.standard_normal(2)
        res = lp_solve(LpProblem.build(objective, a_ge=a, b_ge=b))
        oracle = _brute_force_polygon_max(objective, a, b)
        if res.status == "infeasible":
            assert oracle is None or not np.all(a @ res.x >= b) if res.x is not None else True
            continue
        assert res.optimal
        assert oracle is not None
        assert res.value == pytest.approx(oracle, abs=1e-6)
        assert np.all(a @ res.x >= b - 1e-7)
        checked += 1


def test_interior_witness_finds_incenter_clearance():
    # The right triangle with legs 1 has inradius (2 - sqrt 2) / 2.
    a = np.array([[1.0, 0.0], [0.0, 1.0], [-1 / np.sqrt(2), -1 / np.sqrt(2)]])
    b = np.array([0.0, 0.0, -1 / np.sqrt(2)])
    witness = _witness(_HRep(np.zeros((0, 2)), np.zeros(0), a, b, (0, 1, 2)), FEAS_TOL)
    clearance = float((a @ witness - b).min())
    assert clearance == pytest.approx((2 - np.sqrt(2)) / 2, abs=1e-9)
    assert np.all(a @ witness >= b + clearance - 1e-9)
    assert witness == pytest.approx([clearance, clearance], abs=1e-9)  # the incenter


def test_interior_witness_rejects_empty_region():
    a = np.array([[1.0], [-1.0]])
    b = np.array([1.0, 0.0])
    assert _witness(_HRep(np.zeros((0, 1)), np.zeros(0), a, b, (0, 1)), FEAS_TOL) is None


# -- closed forms on points and lines, checked against the tableau -----------


def _random_flat_problem(rng, n, n_eq):
    """A point or line LP: n_eq consistent equality rows of rank min(n_eq, n)
    and up to five unit-normalized >= rows, some of which cut the feasible set
    away and some of which leave it open."""
    p = rng.standard_normal(n)
    a_eq = rng.standard_normal((n_eq, n))
    n_ge = int(rng.integers(0, 6))
    a_ge = rng.standard_normal((n_ge, n))
    a_ge /= np.linalg.norm(a_ge, axis=1, keepdims=True)
    b_ge = a_ge @ p - rng.normal(0.3, 1.0, n_ge)
    return LpProblem.build(
        rng.standard_normal(n), a_eq=a_eq, b_eq=a_eq @ p, a_ge=a_ge, b_ge=b_ge
    )


def _solve_with_simplex_spy(monkeypatch, problem):
    """lp_solve's result and the problems it handed to _simplex."""
    calls = []

    def spy(problem, feas_tol):
        calls.append(problem)
        return _simplex(problem, feas_tol)

    monkeypatch.setattr(lp_module, "_simplex", spy)
    return lp_solve(problem), calls


def _assert_same_optimum(closed, tableau):
    assert closed.status == tableau.status
    if closed.optimal:
        assert abs(closed.value - tableau.value) <= 1e-9 * max(1.0, abs(tableau.value))


def test_closed_form_matches_simplex_on_random_points_and_lines(monkeypatch):
    rng = np.random.default_rng(7)
    statuses = {}
    for _ in range(600):
        n = int(rng.integers(1, 5))
        problem = _random_flat_problem(rng, n, n + int(rng.integers(-1, 2)))
        flat = _point_or_line(problem.a_eq, problem.b_eq, n)
        assert flat is not None
        closed, calls = _solve_with_simplex_spy(monkeypatch, problem)
        assert not calls  # answered in closed form, not handed to the tableau
        tableau = _simplex(problem, FEAS_TOL)
        _assert_same_optimum(closed, tableau)
        if closed.optimal and (not flat[1].any() or abs(problem.objective @ flat[1]) > 1e-6):
            assert closed.tight == tableau.tight
        statuses[closed.status] = statuses.get(closed.status, 0) + 1
    assert set(statuses) == {"optimal", "unbounded", "infeasible"}


@pytest.mark.parametrize(
    "objective, a_ge, b_ge, status, value",
    [
        ([1.0], [[-1.0]], [-2.0], "optimal", 2.0),
        ([-1.0], [[-1.0]], [-2.0], "unbounded", None),
        ([1.0], [[1.0], [-1.0]], [1.0, 0.0], "infeasible", None),
        ([1.0], None, None, "unbounded", None),
        ([0.0], None, None, "optimal", 0.0),
    ],
)
def test_one_variable_without_equalities(monkeypatch, objective, a_ge, b_ge, status, value):
    problem = LpProblem.build(objective, a_ge=a_ge, b_ge=b_ge)
    assert _point_or_line(problem.a_eq, problem.b_eq, 1) is not None
    res, calls = _solve_with_simplex_spy(monkeypatch, problem)
    assert not calls
    assert res.status == status
    assert res.value == value
    _assert_same_optimum(res, _simplex(problem, FEAS_TOL))


def test_rank_deficient_equalities_fall_back_to_simplex(monkeypatch):
    # Two rows naming one plane in R^3 (up to rounding) leave a plane, not
    # a line.
    problem = LpProblem.build(
        [1.0, 1.0, 0.0],
        a_eq=[[0.1, 0.2, 0.3], [0.3, 0.6, 0.9]],
        b_eq=[0.1, 0.3],
        a_ge=[[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
        b_ge=[-1.0, -2.0],
    )
    assert _point_or_line(problem.a_eq, problem.b_eq, 3) is None
    res, calls = _solve_with_simplex_spy(monkeypatch, problem)
    assert calls == [problem]
    assert res.optimal and res.value == pytest.approx(3.0)
    assert res.tight == (0, 1)


@pytest.mark.parametrize("a_ge, b_ge", [(None, None), ([[0.0, -1.0]], [-1e3])])
def test_near_singular_equalities_fall_back_to_simplex(monkeypatch, a_ge, b_ge):
    # Two unit rows meeting at an angle of 1e-6 pin a point, but their
    # smallest singular value lies below 1e-6 times the largest: taken as a
    # line, the objective along it would be unbounded, or at x2 = 1e3 miss
    # the second equality by about 1e-3.
    angle = 1e-6
    problem = LpProblem.build(
        [0.0, 1.0],
        a_eq=[[1.0, 0.0], [np.cos(angle), np.sin(angle)]],
        b_eq=[1.0, 1.0],
        a_ge=a_ge,
        b_ge=b_ge,
    )
    assert _point_or_line(problem.a_eq, problem.b_eq, 2) is None
    res, calls = _solve_with_simplex_spy(monkeypatch, problem)
    assert calls == [problem]
    assert res.optimal and res.value == pytest.approx(angle / 2, rel=1e-3)


def test_optimum_off_a_flat_row_falls_back_to_simplex(monkeypatch):
    # On the line x1 = 0 the first >= row has slope 1e-10 <= PIVOT_TOL, so
    # only x0 checks it; at the clipped end x2 = -1e5 it fails by 1e-5.
    flat = np.array([1.0, 1e-10]) / np.hypot(1.0, 1e-10)
    problem = LpProblem.build(
        [0.0, -1.0], a_eq=[[1.0, 0.0]], b_eq=[0.0], a_ge=[flat, [0.0, 1.0]], b_ge=[0.0, -1e5]
    )
    assert _point_or_line(problem.a_eq, problem.b_eq, 2) is not None
    res, calls = _solve_with_simplex_spy(monkeypatch, problem)
    assert calls == [problem]
    _assert_same_optimum(res, _simplex(problem, FEAS_TOL))


def test_inconsistent_overdetermined_equalities_are_infeasible():
    problem = LpProblem.build(
        [1.0, 0.0], a_eq=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b_eq=[0.0, 0.0, 1.0]
    )
    assert lp_solve(problem).status == "infeasible"
    assert _simplex(problem, FEAS_TOL).status == "infeasible"


@pytest.mark.parametrize(
    "a_ge, b_ge, ends",
    [
        ([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0], [[0.0, 0.5], [1.0, 0.5]]),
        ([[-1.0, 0.0]], [-1.0], [[1.0, 0.5]]),
        (None, None, []),
    ],
)
def test_tie_returns_an_optimum_with_the_simplex_value(monkeypatch, a_ge, b_ge, ends):
    # The objective is constant along the line y = 0.5.
    problem = LpProblem.build(
        [0.0, 2.0], a_eq=[[0.0, 1.0]], b_eq=[0.5], a_ge=a_ge, b_ge=b_ge
    )
    res, calls = _solve_with_simplex_spy(monkeypatch, problem)
    assert not calls
    _assert_same_optimum(res, _simplex(problem, FEAS_TOL))
    assert res.value == pytest.approx(1.0)
    # The finite end with the least parameter along the line's direction,
    # else the least-squares point.
    x0, d = _point_or_line(problem.a_eq, problem.b_eq, 2)
    ends = [np.array(e) for e in ends]
    expected = min(ends, key=lambda e: (e - x0) @ d) if ends else x0
    assert np.allclose(res.x, expected)


def test_rank_one_pivot_matches_the_row_loop(certified_draws, monkeypatch):
    # Each entry sees the same multiply and subtract, so the tableaux agree
    # exactly: on random ones with zero entries, and at every pivot of the
    # tableau LP of each bounded-above cell of the certification draws.
    rng = np.random.default_rng(0)
    for shape in ((8, 20), (30, 70), (4, 4)):
        for _ in range(25):
            tableau = rng.standard_normal(shape) * (rng.random(shape) < 0.6)
            row, col = rng.integers(shape[0]), rng.integers(shape[1])
            tableau[row, col] = rng.uniform(0.5, 2.0)
            expected = tableau.copy()
            reference_pivot(expected, row, col)
            _pivot(tableau, row, col)
            assert np.array_equal(tableau, expected)
    pivots = []

    def check(tableau, row, col):
        expected = tableau.copy()
        reference_pivot(expected, row, col)
        _pivot(tableau, row, col)
        assert np.array_equal(tableau, expected)
        pivots.append(tableau.shape)

    monkeypatch.setattr(lp_module, "_pivot", check)
    for net, cpx in certified_draws:
        for signs, cell in cpx.cells.items():
            if cell.dim and cpx.is_bounded_above(cell):
                objective = cpx.form(signs).total_gradient
                _simplex(_cell_problem(cpx.hrep(signs), objective), cpx.lp_tol)
    assert len(pivots) > 1000
