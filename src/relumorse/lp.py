"""Small linear programs by Seidel's recursion on the feasible set's flat.

Solves  max c.x  subject to  A_eq x = b_eq,  A_ge x >= b_ge  over free x.
The equality rows' SVD parametrizes their flat once as x = x0 + B.y: x0 is
their least-squares point of minimum norm, and B's columns span their null
space.  The >= rows are then taken in y, in their given order, by Seidel's
incremental algorithm ("Small-dimensional linear programming and convex
hulls made easy", DCG 1991; de Berg et al., *Computational Geometry*, ch.
4) inside a box |y_i| <= 1e9.  While the box may cut the answer off (rows
that meet only outside it, or an optimum past half-way out along which the
rows' recession cone does not rise), it is squared and the LP solved again.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-7
_RANK_TOL = 1e-12  # singular values at most this times the largest are zero
_TIE = 1e-9  # objective coefficients and ray rates at most this are ties
_BOXES = (1e9, 1e18, 1e36, 1e72, 1e144, 1e288)  # boxes |y_i| <= box, tried in turn


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
        n, parts = c.shape[0], [c]
        for a, b in ((a_eq, b_eq), (a_ge, b_ge)):
            a, b = (np.zeros((0, n)), np.zeros(0)) if a is None else (a, b)
            a, b = np.asarray(a, dtype=float).reshape(-1, n), np.asarray(b, dtype=float).reshape(-1)
            if a.shape[0] != b.shape[0]:
                raise ValueError("constraint matrix/rhs row mismatch")
            parts += [a, b]
        return cls(*parts)


@dataclass(frozen=True)
class LpResult:
    """status is one of "optimal", "unbounded", "infeasible".

    For optimal results ``x`` is an argmax and ``tight`` lists the indices
    of the >= rows whose slack at x is at most the feasibility tolerance.
    """

    status: str
    value: float | None = None
    x: np.ndarray | None = None
    tight: tuple = field(default=())

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def lp_solve(problem: LpProblem, feas_tol: float = FEAS_TOL) -> LpResult:
    """Maximize over the problem's feasible set; see the module docstring."""
    c, a_ge = problem.objective, problem.a_ge
    u, s, vh = np.linalg.svd(problem.a_eq)  # no rows: s is empty and vh the identity
    rank = int(np.count_nonzero(s > _RANK_TOL * s.max(initial=0.0)))
    x0, basis = vh[:rank].T @ ((u[:, :rank].T @ problem.b_eq) / s[:rank]), vh[rank:].T
    if np.abs(problem.a_eq @ x0 - problem.b_eq).max(initial=0.0) > feas_tol:
        return LpResult("infeasible")
    g, rate = a_ge @ basis, (c @ basis).tolist()
    if 0 < basis.shape[1] < basis.shape[0]:
        # B is off by about eps * cond(a_eq), so a row (nearly) constant
        # along a flat direction keeps a residue there; read it as constant.
        cut = max(_RANK_TOL, np.finfo(float).eps * s[0] / s[rank - 1])
        g[np.abs(g) <= cut * np.abs(a_ge).max(1, keepdims=True)] = 0.0
    rows = list(zip(g.tolist(), (problem.b_ge - a_ge @ x0).tolist(), itertools.repeat(False)))
    for box in _BOXES:
        try:
            y = _seidel(rate, rows, feas_tol, box)
            if y is None or max(map(abs, y), default=0.0) <= box / 2:
                break
            ray = _seidel(rate, [(r, 0.0, False) for r, _, _ in rows], feas_tol, box)
            if sum(map(operator.mul, rate, ray)) > _TIE * box:
                return LpResult("unbounded")
        except _Cramped:
            y = None
    if y is None:
        return LpResult("infeasible")
    return _optimum(problem, x0 + basis @ np.array(y), feas_tol)


class _Cramped(Exception):
    """The box, not the rows, left a sub-problem empty."""


def _seidel(c: list, rows: list, tol: float, box: float):
    """argmax of c.y over the rows (g, h, b), g.y >= h, b marking rows made
    from the box |y_i| <= box, in plain floats.  When row i cuts off the
    optimum of the rows before it, the new one lies on its hyperplane: y_j,
    y's largest coefficient in row i, is eliminated, and the earlier rows and
    y_j's box rows solved one dimension down.  None when rows not made from
    the box miss by more than ``tol``; _Cramped when only the box does."""
    k = len(c)
    if k == 0:  # constant rows, checked on a line along which they stay constant
        return None if _seidel([0.0], [([0.0], h, b) for _, h, b in rows], tol, box) is None else []
    if k == 1:
        t = _line(c[0], rows, tol, box)
        if t is None and _line(0.0, [r for r in rows if not r[2]], tol, math.inf) is not None:
            raise _Cramped
        return None if t is None else [t]
    y = [math.copysign(box, ci) if abs(ci) > _TIE else 0.0 for ci in c]
    for i, (g, h, b) in enumerate(rows):
        if sum(map(operator.mul, g, y)) >= h:
            continue
        j = max(range(k), key=lambda col: abs(g[col]))
        if g[j] == 0.0:  # a constant row with h > 0
            if _seidel([0.0], [([0.0], h, b)], tol, box) is None:
                return None
            continue
        q, p = [v / g[j] for v in g[:j] + g[j + 1 :]], h / g[j]  # y_j = p - q.z
        sub = [([-v for v in q], -box - p, True), (q, p - box, True)]  # y_j's box rows
        for r, s, d in rows[:i]:
            sub.append(([v - r[j] * w for v, w in zip(r[:j] + r[j + 1 :], q)], s - r[j] * p, d or b))
        z = _seidel([v - c[j] * w for v, w in zip(c[:j] + c[j + 1 :], q)], sub, tol, box)
        if z is None:
            return None
        y = z[:j] + [p - sum(map(operator.mul, q, z))] + z[j:]
    return y


def _line(c: float, rows: list, tol: float, box: float):
    """The end of the rows' interval in [-box, box] that c points to, or
    along a tie the point nearest 0; None when a row misses it."""
    lo = max([-box, *(h / g for (g,), h, _ in rows if g > 0)])
    hi = min([box, *(h / g for (g,), h, _ in rows if g < 0)])
    t = hi if c > _TIE else lo if c < -_TIE else min(max(lo, 0.0), hi)
    # Far out on the box, g.t - h carries a rounding error near 1e-15 |h|.
    return None if any(g * t - h < -tol - 1e-15 * abs(h) for (g,), h, _ in rows) else t


def _optimum(problem: LpProblem, x: np.ndarray, feas_tol: float) -> LpResult:
    """Optimal result at x; the >= rows within ``feas_tol`` of equality are tight."""
    resid = problem.a_ge @ x - problem.b_ge
    tight = tuple(np.flatnonzero(resid <= feas_tol).tolist())
    return LpResult("optimal", float(problem.objective @ x), x, tight)
