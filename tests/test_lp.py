import itertools

import numpy as np
import pytest

import conftest
import relumorse.complex as complex_module
from relumorse.complex import _cell_problem, _HRep, _witness
from relumorse.lp import FEAS_TOL, LpProblem, lp_solve
from relumorse.network import node_maps

from conftest import rank_one_pivot, reference_pivot, reference_simplex


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


def _vertex_enumeration_max(problem):
    """Max of the objective over the vertices of a bounded feasible set: each
    choice of >= rows that completes the independent equality rows to a
    nonsingular square system gives a candidate, kept when feasible."""
    n = problem.objective.shape[0]
    a_eq, b_eq, a_ge, b_ge = problem.a_eq, problem.b_eq, problem.a_ge, problem.b_ge
    picks = list(itertools.combinations(range(len(b_ge)), n - len(b_eq)))
    picks = np.array(picks, dtype=int).reshape(len(picks), n - len(b_eq))
    a = np.concatenate([np.broadcast_to(a_eq, (len(picks), *a_eq.shape)), a_ge[picks]], axis=1)
    b = np.concatenate([np.broadcast_to(b_eq, (len(picks), len(b_eq))), b_ge[picks]], axis=1)
    square = np.abs(np.linalg.det(a)) > 1e-9
    x = np.linalg.solve(a[square], b[square][..., None])[..., 0]
    feasible = (x @ a_ge.T >= b_ge - 1e-8).all(axis=1)
    return float((x[feasible] @ problem.objective).max())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_matches_vertex_enumeration_in_three_to_five_variables(n):
    # A flat of dimension k = n - n_eq from 0 to n inside the box |x_i| <= 3,
    # cut by up to five random unit rows through or near a point p of the
    # flat; k = n takes the recursion to depth n.
    rng = np.random.default_rng(n)
    for n_eq in range(n + 1):
        for _ in range(8):
            p = rng.uniform(-1, 1, n)
            a_eq = rng.standard_normal((n_eq, n))
            m = int(rng.integers(1, 6))
            rows = rng.standard_normal((m, n))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            a_ge = np.vstack([rows, np.eye(n), -np.eye(n)])
            b_ge = np.concatenate([rows @ p - rng.uniform(0.0, 0.5, m), np.full(2 * n, -3.0)])
            problem = LpProblem.build(
                rng.standard_normal(n), a_eq=a_eq, b_eq=a_eq @ p, a_ge=a_ge, b_ge=b_ge
            )
            res = lp_solve(problem)
            assert res.optimal
            assert res.value == pytest.approx(_vertex_enumeration_max(problem), abs=1e-6)
            assert np.all(a_ge @ res.x >= b_ge - 1e-7)
            assert np.abs(a_eq @ res.x - problem.b_eq).max(initial=0.0) <= 1e-7


def test_capped_split_lp_is_bounded():
    # The split LP of a NEAR_DEGENERATE (2,4) net (seed 5, noise 1e-8): rows
    # 0 and 2 are nearly parallel, so the region runs out some 1e8 along
    # them, and the last row caps the objective at 2.41421355...  The
    # tableau reported it unbounded.
    c = np.array([0.7071067777904555, -0.7071067845826395])
    problem = LpProblem.build(
        c,
        a_ge=[
            [-0.4472135993681528, -0.8944271890658184],
            [-0.7071067835508079, 0.7071067788222871],
            [-0.41641120506151347, -0.9091763900911739],
            -c,
        ],
        b_ge=[0.4472135910975639, -0.3535533927549407, 55614498.41516664, -2.414213555891286],
    )
    res = lp_solve(problem, feas_tol=1e-7)
    assert res.optimal
    assert res.value == pytest.approx(2.414213555891286, abs=1e-7)
    assert 3 in res.tight


# -- against the tableau simplex of tests/conftest.py -------------------------


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


def _assert_same_optimum(res, reference):
    assert res.status == reference.status
    if res.optimal:
        assert abs(res.value - reference.value) <= 1e-9 * max(1.0, abs(reference.value))


def _simple_vertex(problem, res) -> bool:
    """Whether the optimum ``res`` is a vertex where exactly n independent
    rows, the equalities and the tight >= rows, meet."""
    rows = np.vstack([problem.a_eq, problem.a_ge[list(res.tight)]])
    n = problem.objective.shape[0]
    return rows.shape[0] == n and np.linalg.matrix_rank(rows) == n


@pytest.mark.parametrize("b0, status", [(1.0, "infeasible"), (1e-8, "optimal"), (-1.0, "optimal")])
def test_a_row_vanishing_on_the_flat_is_checked_as_a_constant(b0, status):
    # On the plane x1 = 0 the last row, x1 >= b0, reads 0 >= b0: missed by
    # more than the tolerance only for b0 = 1.
    problem = LpProblem.build(
        [0.0, 1.0, 1.0],
        a_eq=[[1.0, 0.0, 0.0]],
        b_eq=[0.0],
        a_ge=[[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]],
        b_ge=[-1.0, -1.0, b0],
    )
    res = lp_solve(problem)
    assert res.status == status
    _assert_same_optimum(res, reference_simplex(problem))
    if res.optimal:
        assert res.value == pytest.approx(2.0)


@pytest.mark.parametrize("b0, status", [(1.0, "infeasible"), (5e-8, "optimal"), (-1.0, "optimal")])
def test_a_row_vanishing_on_a_rotated_flat_is_checked_as_a_constant(b0, status):
    # As above on the plane 0.6 x1 + 0.8 x2 = 0, where the last row's
    # coefficients along the plane are rounding residues, not zeros: they
    # must not move the optimum onto that row's hyperplane, some 1e9 out.
    normal, along = [0.6, 0.8, 0.0], [-0.8, 0.6, 0.0]
    problem = LpProblem.build(
        np.add(along, [0.0, 0.0, 1.0]),
        a_eq=[normal],
        b_eq=[0.0],
        a_ge=[np.negative(along), [0.0, 0.0, -1.0], normal],
        b_ge=[-1.0, -1.0, b0],
    )
    res = lp_solve(problem)
    assert res.status == status
    _assert_same_optimum(res, reference_simplex(problem))
    if res.optimal:
        assert res.value == pytest.approx(2.0)


def test_wedge_wholly_past_the_first_box_is_feasible():
    # Along u = (1, 1)/sqrt 2 and n = (-1, 1)/sqrt 2, the rows t >= 1e-9 s + 1
    # and t <= 2e-9 s - 1 in (s, t) = (u.x, n.x) meet at s = 2e9, t = 3,
    # and the region lies beyond, past the box |x_i| <= 1e9: not empty.
    u, n = np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([-1.0, 1.0]) / np.sqrt(2.0)
    a_ge = [n - 1e-9 * u, 2e-9 * u - n]
    for objective, value in ((-u, -2e9), (-n, -3.0)):
        res = lp_solve(LpProblem.build(objective, a_ge=a_ge, b_ge=[1.0, 1.0]))
        assert res.optimal and res.value == pytest.approx(value, rel=1e-6)
        assert res.tight == (0, 1)
    assert lp_solve(LpProblem.build(u, a_ge=a_ge, b_ge=[1.0, 1.0])).status == "unbounded"


def test_closed_form_matches_simplex_on_random_points_and_lines():
    # Points and lines, the LPs the closed forms used to answer: the same
    # status and value as the tableau, and the same tight set unless the
    # objective is constant along the line.
    rng = np.random.default_rng(7)
    statuses = {}
    for _ in range(600):
        n = int(rng.integers(1, 5))
        problem = _random_flat_problem(rng, n, n + int(rng.integers(-1, 2)))
        res = lp_solve(problem)
        reference = reference_simplex(problem)
        _assert_same_optimum(res, reference)
        line = np.linalg.svd(problem.a_eq)[2][-1] if len(problem.b_eq) < n else None
        if res.optimal and (line is None or abs(problem.objective @ line) > 1e-6):
            assert res.tight == reference.tight
        statuses[res.status] = statuses.get(res.status, 0) + 1
    assert set(statuses) == {"optimal", "unbounded", "infeasible"}


@pytest.mark.parametrize(
    "objective, a_ge, b_ge, status, value",
    [
        ([1.0], [[-1.0]], [-2.0], "optimal", 2.0),
        ([-1.0], [[-1.0]], [-2.0], "unbounded", None),
        ([1.0], [[1.0], [-1.0]], [1.0, 0.0], "infeasible", None),
        ([1.0], None, None, "unbounded", None),
        ([0.0], None, None, "optimal", 0.0),
        ([1.0], [[-1.0]], [-7e8], "optimal", 7e8),  # far out, yet bounded
        ([1.0], [[-1.0]], [-(1.0 + 2e9)], "optimal", 2000000001.0),  # past the first box
        ([-1.0], [[1.0], [-1.0]], [2e9, -3e9], "optimal", -2e9),  # wholly past it
    ],
)
def test_one_variable_without_equalities(objective, a_ge, b_ge, status, value):
    problem = LpProblem.build(objective, a_ge=a_ge, b_ge=b_ge)
    res = lp_solve(problem)
    assert res.status == status
    assert res.value == value
    _assert_same_optimum(res, reference_simplex(problem))


def test_rank_deficient_equalities_fall_back_to_simplex():
    # Two rows naming one plane in R^3 (up to rounding) leave a plane, not
    # a line: the SVD counts one row, and the recursion runs in 2-D.
    problem = LpProblem.build(
        [1.0, 1.0, 0.0],
        a_eq=[[0.1, 0.2, 0.3], [0.3, 0.6, 0.9]],
        b_eq=[0.1, 0.3],
        a_ge=[[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
        b_ge=[-1.0, -2.0],
    )
    res = lp_solve(problem)
    assert res.optimal and res.value == pytest.approx(3.0)
    assert res.tight == (0, 1)
    _assert_same_optimum(res, reference_simplex(problem))


@pytest.mark.parametrize("a_ge, b_ge", [(None, None), ([[0.0, -1.0]], [-1e3])])
def test_near_singular_equalities_fall_back_to_simplex(a_ge, b_ge):
    # Two unit rows meeting at an angle of 1e-6 pin a point: their smallest
    # singular value, below 1e-6 times the largest, still counts.  Taken as
    # a line, the objective along it would be unbounded, or at x2 = 1e3
    # miss the second equality by about 1e-3.
    angle = 1e-6
    problem = LpProblem.build(
        [0.0, 1.0],
        a_eq=[[1.0, 0.0], [np.cos(angle), np.sin(angle)]],
        b_eq=[1.0, 1.0],
        a_ge=a_ge,
        b_ge=b_ge,
    )
    res = lp_solve(problem)
    assert res.optimal and res.value == pytest.approx(angle / 2, rel=1e-3)
    _assert_same_optimum(res, reference_simplex(problem))


def test_optimum_off_a_flat_row_falls_back_to_simplex():
    # On the line x1 = 0 the first >= row has slope 1e-10: it bounds x2 from
    # below at 0, and taken as a constant it would be missed by 1e-5 at the
    # other row's end x2 = -1e5.  The tableau drops its entry, below its
    # pivot tolerance 1e-9, and reports the LP infeasible.
    flat = np.array([1.0, 1e-10]) / np.hypot(1.0, 1e-10)
    problem = LpProblem.build(
        [0.0, -1.0], a_eq=[[1.0, 0.0]], b_eq=[0.0], a_ge=[flat, [0.0, 1.0]], b_ge=[0.0, -1e5]
    )
    res = lp_solve(problem)
    assert res.optimal and res.value == pytest.approx(0.0, abs=1e-9)
    assert res.tight == (0,)
    assert reference_simplex(problem).status == "infeasible"


def test_inconsistent_overdetermined_equalities_are_infeasible():
    problem = LpProblem.build(
        [1.0, 0.0], a_eq=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b_eq=[0.0, 0.0, 1.0]
    )
    assert lp_solve(problem).status == "infeasible"
    assert reference_simplex(problem).status == "infeasible"


def test_a_row_constant_on_an_ill_conditioned_flat_stays_constant(monkeypatch):
    # The witness LP of ++00 on a near-degenerate integer net, whose two
    # layer-2 maps are parallel to within 1e-9 and 1 apart: their flat lies
    # in the -- region, so the cell is empty.  Along the flat, the row of
    # the second layer-1 map is constant, but the computed basis (singular
    # values 1.41 and 5e-10) left it a coefficient of 8.8e-8; the recursion
    # ran some 5e15 along it, to a point that missed the equality rows by
    # 0.28 and 0.48 and cleared every row.
    from test_enumeration import _integer_net

    net = _integer_net((3, 2, 2), 9, 1e-9)
    rep = complex_module._hrep_for(net, (1, 1, 0, 0), node_maps(net, (1, 1)))
    problems = []
    monkeypatch.setattr(complex_module, "lp_solve", lambda p, **kw: problems.append(p) or lp_solve(p, **kw))
    assert _witness(rep, FEAS_TOL) is None
    (problem,) = problems
    res = lp_solve(problem, feas_tol=FEAS_TOL)
    assert res.optimal and res.value < -1e8
    assert np.abs(problem.a_eq @ res.x - problem.b_eq).max() <= FEAS_TOL


@pytest.mark.parametrize(
    "a_ge, b_ge, ends",
    [
        ([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0], [[0.0, 0.5], [1.0, 0.5]]),
        ([[-1.0, 0.0]], [-1.0], [[1.0, 0.5]]),
        (None, None, []),
    ],
)
def test_tie_returns_an_optimum_with_the_simplex_value(a_ge, b_ge, ends):
    # The objective is constant along the line y = 0.5: any feasible point
    # of it is an optimum.
    problem = LpProblem.build(
        [0.0, 2.0], a_eq=[[0.0, 1.0]], b_eq=[0.5], a_ge=a_ge, b_ge=b_ge
    )
    res = lp_solve(problem)
    _assert_same_optimum(res, reference_simplex(problem))
    assert res.value == pytest.approx(1.0)
    assert res.x[1] == pytest.approx(0.5)
    assert all(problem.a_ge @ res.x >= problem.b_ge - FEAS_TOL)


def test_matches_the_tableau_on_every_oracle_fallback_lp(sweep_accepted):
    # The LP that local_pair's fallback would solve on each bounded-above
    # cell of the CLI sweep's accepted nets, which --local-check now
    # certifies without one: the same status and value as the tableau, and
    # the same tight set where the tableau's optimum is a simple vertex.
    solved = []
    for net, cpx in sweep_accepted:
        n_m = net.layers[-1].out_dim
        for signs, cell in cpx.cells.items():
            if cpx.is_bounded_above(cell):
                table = node_maps(net, signs[:-n_m])
                gradient = table.f_affine(net.final, [signs[-n_m:]])[0][0]
                problem = _cell_problem(complex_module._hrep_for(net, signs, table), gradient)
                solved.append((problem, lp_solve(problem, feas_tol=FEAS_TOL)))
    assert len(solved) > 1000
    vertices = 0
    for problem, res in solved:
        reference = reference_simplex(problem, FEAS_TOL)
        _assert_same_optimum(res, reference)
        if reference.optimal and _simple_vertex(problem, reference):
            assert res.tight == reference.tight
            vertices += 1
    assert vertices > 1000


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
            rank_one_pivot(tableau, row, col)
            assert np.array_equal(tableau, expected)
    pivots = []

    def check(tableau, row, col):
        expected = tableau.copy()
        reference_pivot(expected, row, col)
        rank_one_pivot(tableau, row, col)
        assert np.array_equal(tableau, expected)
        pivots.append(tableau.shape)

    monkeypatch.setattr(conftest, "rank_one_pivot", check)
    for net, cpx in certified_draws:
        for signs, cell in cpx.cells.items():
            if cell.dim and cpx.is_bounded_above(cell):
                objective = cpx.f_affine(signs)[0]
                reference_simplex(_cell_problem(cpx.hrep(signs), objective), cpx.lp_tol)
    assert len(pivots) > 1000
