"""Small linear programs: closed forms on points and lines, else a dense
tableau simplex with Bland's anti-cycling rule.

Solves  max c.x  subject to  A_eq x = b_eq,  A_ge x >= b_ge  over free x.
When the equalities leave a single point or a line, the optimum is read off
in closed form: the point itself, or the end of the interval that the >=
rows cut from the line.  Every other feasible set goes to the simplex.
The instances here are tiny (a handful of variables, a dozen constraints),
so a plain two-phase tableau with Bland's rule is the right trade-off:
guaranteed termination and no dependence on solver generations elsewhere.

Free variables are split x = u - w with u, w >= 0; each >= row gets a
surplus variable; phase 1 minimizes the sum of artificials.  Problems come
from ``complex._cell_problem``; this module knows nothing of cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalInstabilityError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
_HARD_TOL = 1e-12
_MAX_ITER = 20000
# Singular values of the equality rows above _RANK_TOL times the largest
# count towards their rank, and those below _NULL_TOL times it are zero.
# A system with a singular value between the two goes to the simplex.
_RANK_TOL = 1e-6
_NULL_TOL = 1e-12


@dataclass(frozen=True)
class LpProblem:
    """max objective.x  s.t.  a_eq x = b_eq,  a_ge x >= b_ge, x free."""

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ge: np.ndarray
    b_ge: np.ndarray

    @classmethod
    def build(cls, objective, a_eq=None, b_eq=None, a_ge=None, b_ge=None) -> "LpProblem":
        c = np.atleast_1d(np.asarray(objective, dtype=float))
        n = c.shape[0]

        def norm(a, b):
            if a is None:
                return np.zeros((0, n)), np.zeros(0)
            a = np.asarray(a, dtype=float).reshape(-1, n)
            b = np.asarray(b, dtype=float).reshape(-1)
            if a.shape[0] != b.shape[0]:
                raise ValueError("constraint matrix/rhs row mismatch")
            return a, b

        a_eq, b_eq = norm(a_eq, b_eq)
        a_ge, b_ge = norm(a_ge, b_ge)
        return cls(c, a_eq, b_eq, a_ge, b_ge)


@dataclass(frozen=True)
class LpResult:
    """status is one of "optimal", "unbounded", "infeasible".

    For optimal results ``x`` is an argmax (from the simplex, a vertex of
    the standard-form program) and ``tight`` lists the indices of >= rows
    active at x.
    """

    status: str
    value: float | None = None
    x: np.ndarray | None = None
    tight: tuple = field(default=())

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau, row, col):
    """Scale ``row`` to a unit entry in ``col`` and clear that column from
    every other row of the tableau, in place, by one rank-1 update."""
    tableau[row, :] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    hit = np.flatnonzero(np.abs(factors) > 0.0)
    tableau[hit] -= np.outer(factors[hit], tableau[row])


def _bland_min(tableau, basis, ncols):
    """Run Bland-rule simplex on a minimization tableau in place.

    tableau has shape (m+1, ncols+1); last row holds reduced costs, last
    column the rhs.  Returns "optimal" or "unbounded" (entering column
    with no positive entry).
    """
    m = tableau.shape[0] - 1
    for _ in range(_MAX_ITER):
        costs = tableau[-1, :ncols]
        entering = -1
        for j in range(ncols):
            if costs[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        col = tableau[:m, entering]
        rows = np.nonzero(col > PIVOT_TOL)[0]
        if rows.size == 0:
            if np.any(col > _HARD_TOL):
                raise NumericalInstabilityError(
                    "only degenerate pivots available in ratio test"
                )
            return "unbounded"
        ratios = tableau[rows, -1] / col[rows]
        best = ratios.min()
        # Bland: among minimal ratios, leave the row whose basic variable
        # has the smallest index.
        candidates = rows[ratios <= best + _HARD_TOL]
        leaving = min(candidates, key=lambda r: basis[r])
        if abs(tableau[leaving, entering]) < _HARD_TOL:
            raise NumericalInstabilityError("pivot magnitude below hard threshold")
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    raise NumericalInstabilityError("simplex iteration limit exceeded")


def _point_or_line(a_eq: np.ndarray, b_eq: np.ndarray, n: int):
    """(x0, d) when a_eq x = b_eq leaves at most a line in R^n, else None.

    None also when a singular value lies between the rank and null
    tolerances: the simplex judges such near-singular systems.

    x0 is the least-squares solution of minimum norm and d a unit direction
    of the line, or zero when the equalities pin a single point.
    """
    if a_eq.shape[0] < n - 1:
        return None
    u, s, vh = np.linalg.svd(a_eq)  # no rows (n == 1): s is empty, vh = [[1]]
    s_max = s.max(initial=0.0)
    rank = int(np.count_nonzero(s > _RANK_TOL * s_max))
    if rank < n - 1 or np.any(s[rank:] > _NULL_TOL * s_max):
        return None
    x0 = vh[:rank].T @ ((u[:, :rank].T @ b_eq) / s[:rank])
    return x0, (vh[-1] if rank < n else np.zeros(n))


def lp_solve(problem: LpProblem, feas_tol: float = FEAS_TOL) -> LpResult:
    """Maximize over the problem's feasible set; see the module docstring.

    On a point or a line the equalities must hold at their least-squares
    point within ``feas_tol``, and the parameter t of x0 + t.d is clipped to
    the interval [lo, hi] cut by the >= rows whose slope along d exceeds
    ``PIVOT_TOL`` (the others are checked at x0).  When the objective is
    constant along the line (a tie), the finite end lo, else hi, else x0 is
    returned: an alternative optimum with the same value.  An optimum that
    misses an equality or a >= row by more than ``feas_tol`` is handed to
    the simplex.
    """
    c = problem.objective
    flat = _point_or_line(problem.a_eq, problem.b_eq, c.shape[0])
    if flat is None:
        return _simplex(problem, feas_tol)
    x0, d = flat
    if np.abs(problem.a_eq @ x0 - problem.b_eq).max(initial=0.0) > feas_tol:
        return LpResult("infeasible")
    # (slack at x0, slope along d) per >= row; a few rows, so plain floats.
    rows = list(zip((problem.a_ge @ x0 - problem.b_ge).tolist(), (problem.a_ge @ d).tolist()))
    lo, hi = -math.inf, math.inf
    for r, g in rows:
        if abs(g) <= PIVOT_TOL:
            if r < -feas_tol:
                return LpResult("infeasible")
        elif g > 0:
            lo = max(lo, -r / g)
        else:
            hi = min(hi, -r / g)
    rate = float(c @ d)
    if rate > PIVOT_TOL:
        t = hi
    elif rate < -PIVOT_TOL:
        t = lo
    else:
        t = lo if lo > -math.inf else hi if hi < math.inf else 0.0
    if math.isinf(t):
        return LpResult("unbounded")
    if any(r + t * g < -feas_tol for r, g in rows if abs(g) > PIVOT_TOL):
        return LpResult("infeasible")  # lo > hi: the interval is empty
    x = x0 + t * d
    if (
        np.abs(problem.a_eq @ x - problem.b_eq).max(initial=0.0) > feas_tol
        or (problem.a_ge @ x - problem.b_ge).min(initial=0.0) < -feas_tol
    ):
        return _simplex(problem, feas_tol)  # rounding grew along d
    return _optimum(problem, x, feas_tol)


def _optimum(problem: LpProblem, x: np.ndarray, feas_tol: float) -> LpResult:
    """Optimal result at x; the >= rows within ``feas_tol`` of equality are tight."""
    resid = problem.a_ge @ x - problem.b_ge
    tight = tuple(np.flatnonzero(resid <= feas_tol).tolist())
    return LpResult("optimal", float(problem.objective @ x), x, tight)


def _simplex(problem: LpProblem, feas_tol: float) -> LpResult:
    """Two-phase dense simplex; see the module docstring for conventions."""
    c = problem.objective
    n = c.shape[0]
    n_eq = problem.a_eq.shape[0]
    n_ge = problem.a_ge.shape[0]
    m = n_eq + n_ge

    if m == 0:
        # Unconstrained: optimal only for a zero objective.
        if np.all(np.abs(c) <= PIVOT_TOL):
            return LpResult("optimal", 0.0, np.zeros(n), ())
        return LpResult("unbounded")

    # Standard-form columns: u (n), w (n), surplus (n_ge).
    ncols = 2 * n + n_ge
    A = np.zeros((m, ncols))
    b = np.zeros(m)
    A[:n_eq, :n] = problem.a_eq
    A[:n_eq, n : 2 * n] = -problem.a_eq
    b[:n_eq] = problem.b_eq
    A[n_eq:, :n] = problem.a_ge
    A[n_eq:, n : 2 * n] = -problem.a_ge
    for i in range(n_ge):
        A[n_eq + i, 2 * n + i] = -1.0
    b[n_eq:] = problem.b_ge

    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: artificial basis.
    tableau = np.zeros((m + 1, ncols + m + 1))
    tableau[:m, :ncols] = A
    tableau[:m, ncols : ncols + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, ncols : ncols + m] = 1.0
    tableau[-1, :] -= tableau[:m, :].sum(axis=0)
    basis = [ncols + i for i in range(m)]

    _bland_min(tableau, basis, ncols + m)
    if -tableau[-1, -1] > feas_tol:
        return LpResult("infeasible")

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for r in range(m):
        if basis[r] < ncols:
            keep.append(r)
            continue
        row = tableau[r, :ncols]
        pivots = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
        if pivots.size == 0:
            continue  # redundant constraint
        j = int(pivots[0])
        _pivot(tableau, r, j)
        basis[r] = j
        keep.append(r)

    rows = keep
    work = np.zeros((len(rows) + 1, ncols + 1))
    work[: len(rows), :ncols] = tableau[rows, :ncols]
    work[: len(rows), -1] = tableau[rows, -1]
    basis = [basis[r] for r in rows]

    # Phase 2 costs: minimize -(c.u - c.w).
    cost = np.zeros(ncols)
    cost[:n] = -c
    cost[n : 2 * n] = c
    work[-1, :ncols] = cost
    for r, j in enumerate(basis):
        if abs(cost[j]) > 0.0:
            work[-1, :] -= cost[j] * work[r, :]

    status = _bland_min(work, basis, ncols)
    if status == "unbounded":
        return LpResult("unbounded")

    y = np.zeros(ncols)
    for r, j in enumerate(basis):
        y[j] = work[r, -1]
    return _optimum(problem, y[:n] - y[n : 2 * n], feas_tol)
