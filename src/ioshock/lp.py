"""Best-case feasible allocations via linear programming.

Minimal shock propagation is one polytope with two objectives: pick final
consumption f with 0 <= f <= f_max such that gross output x = L f stays
within 0 <= x <= x_max, then maximize total output 1^T L f or total
consumption 1^T f. Every lower bound is zero, so the all-zero point
(full collapse) is always feasible and the simplex starts there. It is a
self-contained simplex method for bounded variables; the two-sided rows
are handled natively through ranged slacks rather than by doubling rows.

The equality form is ``[G I]``, so every basis is ``[G[:, S] | I[:, T]]``
with S the basic structural columns and T the rows whose slack is basic.
Its linear systems reduce to the structural block ``G[R, S]``, R being the
rows whose slack is nonbasic (|R| = |S|): ``B w = a`` is
``G[R, S] w_S = a_R`` with ``w_T = a_T - G[T, S] w_S``, and ``B^T y = c_B``
is ``G[R, S]^T y_R = c_S`` with ``y_T = 0``, slacks costing nothing (Chvatal,
*Linear Programming*, 1983, ch. 8). The block is gathered once per basis
and every solve is one ``numpy.linalg.solve`` on it with a single
right-hand side: the basic values when a basis is entered, the dual once
per basis, and each entering column. The reduced costs are priced once
per basis; a bound flip (the entering variable crosses its own box before
any basic variable leaves) changes none of them, so it costs only the
entering column's solve.
Pricing and the ratio test are numpy array operations; only the ratio
test's tolerance-based tie-break runs in a loop, over the basic variables
the entering column moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .economy import LeontiefOperator
from .errors import DimensionMismatch, SolverFailure
from .shocks import Allocation, Constraints, allocation_is_feasible

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LinearProgram:
    """maximize c @ y  subject to  0 <= y <= ub,  0 <= G y <= row_ub."""

    c: np.ndarray
    ub: np.ndarray
    G: np.ndarray
    row_ub: np.ndarray

    def __post_init__(self):
        for name in ("ub", "row_ub"):
            bound = getattr(self, name)
            if not np.all(np.isfinite(bound)) or np.any(bound < 0):
                raise ValueError(f"{name} must be finite and nonnegative")


@dataclass(frozen=True)
class LpSolution:
    y: np.ndarray
    objective: float
    iterations: int
    #: always "optimal": a solve that reaches no optimum raises
    #: SolverFailure; benchmarks/tracing.py still reads the name
    status: ClassVar[str] = "optimal"


def build_max_output_lp(op: LeontiefOperator, c: Constraints,
                        objective: str = "output") -> LinearProgram:
    """The best-case program: the variable is consumption f within its
    ceilings, the rows keep output L f within its ceilings, and the
    objective is total output (``"output"``) or total consumption
    (``"consumption"``). The name predates the second objective;
    benchmarks/tracing.py times the builder under it."""
    n = op.n
    if c.x_max.shape != (n,) or c.f_max.shape != (n,):
        raise DimensionMismatch("constraints do not match operator dimension")
    if objective == "output":
        weights = op.L.sum(axis=0)
    elif objective == "consumption":
        weights = np.ones(n)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return LinearProgram(
        c=weights,
        ub=np.array(c.f_max),
        G=op.L,
        row_ub=np.array(c.x_max),
    )


def solve(lp: LinearProgram, max_iter: int | None = None) -> LpSolution:
    """Bounded-variable simplex with Dantzig pricing and a Bland fallback.

    Starts from the all-zero point with a slack basis, feasible for every
    program (the full-collapse allocation), so no start breaks a row bound.
    Switches to Bland's rule after a run of degenerate pivots to rule out
    cycling. Raises SolverFailure when ``max_iter`` pivots do not reach an
    optimum, or when the basis turns singular.
    """
    n = lp.c.size
    m = lp.G.shape[0]
    if max_iter is None:
        max_iter = 50 * (n + m)
    stall_limit = 3 * (n + m)

    # Equality form: [G I] z = row_ub with ranged slack s in [0, row_ub].
    A = np.hstack([lp.G, np.eye(m)])
    b = np.array(lp.row_ub, dtype=float)
    hi = np.concatenate([lp.ub, lp.row_ub])
    cost = np.concatenate([lp.c, np.zeros(m)])

    scale = max(1.0, np.max(hi))  # hi holds b and every bound is >= 0
    ftol = _FEAS_TOL * scale
    movable = hi > ftol  # a variable fixed at zero can never move

    basis = np.arange(n, n + m)
    nonbasic = np.arange(n)
    # nonbasic variables and whether each sits at its upper bound
    at_upper = np.zeros(n + m, dtype=bool)
    z = np.zeros(n + m)

    def refactor():
        """Gather the current basis's block, recompute the basic values and
        price the nonbasic variables; a bound flip changes neither block nor
        prices, so this runs once per basis."""
        # Only the k x k block G[R, S] is ever solved with, and numpy keeps
        # no LU factors, so each of its solves factors it afresh; an explicit
        # inverse (per basis or product-form updated) changes pivot paths,
        # and a two-column solve rounds unlike two one-column solves
        B = _BlockBasis(lp.G, basis)
        N = A[:, nonbasic]
        z[basis] = B.solve(b - N @ z[nonbasic])
        reduced = cost[nonbasic] - N.T @ B.dual(cost[B.cols])
        return B, reduced

    B, reduced = refactor()

    stall = 0
    for it in range(1, max_iter + 1):
        eligible = movable[nonbasic] & np.where(
            at_upper[nonbasic], reduced < -_PIVOT_TOL, reduced > _PIVOT_TOL)
        if not eligible.any():
            _assert_solution(lp, z[:n], ftol)
            return LpSolution(np.array(z[:n]), float(lp.c @ z[:n]), it - 1)

        if stall > stall_limit:
            # Bland: smallest variable index
            k = np.flatnonzero(eligible)[np.argmin(nonbasic[eligible])]
        else:
            # Dantzig: largest |reduced cost|, first position on a tie
            k = np.argmax(np.where(eligible, np.abs(reduced), -1.0))
        j = nonbasic[k]

        sigma = -1.0 if at_upper[j] else 1.0  # direction the entering var moves
        w = B.solve(A[:, j])

        # Ratio test: entering bound flip vs. first basic variable hitting a bound.
        step = sigma * w
        cand = np.flatnonzero(np.abs(step) > _PIVOT_TOL)
        var = basis[cand]
        hits_upper = step[cand] < 0  # basic var increases towards its upper bound
        room = np.where(hits_upper, hi[var] - z[var], z[var])
        ratios = np.maximum(room / np.abs(step[cand]), 0.0)
        t_best = float(hi[j])
        leave_pos = None  # position in basis, or None for a bound flip
        leave_var = -1
        leave_to_upper = False
        for p, v, t_p, up in zip(cand.tolist(), var.tolist(), ratios.tolist(),
                                 hits_upper.tolist()):
            if t_p < t_best - _PIVOT_TOL or (
                t_p < t_best + _PIVOT_TOL and leave_pos is not None and v < leave_var
            ):
                t_best = t_p
                leave_pos = p
                leave_var = v
                leave_to_upper = up

        stall = stall + 1 if t_best <= _PIVOT_TOL else 0

        z[j] += sigma * t_best
        z[basis] -= sigma * t_best * w
        if leave_pos is None:
            at_upper[j] = not at_upper[j]  # bound flip, basis unchanged
        else:
            z[leave_var] = hi[leave_var] if leave_to_upper else 0.0
            at_upper[leave_var] = leave_to_upper
            basis[leave_pos] = j
            nonbasic[k] = leave_var
            at_upper[j] = False
            B, reduced = refactor()  # also refreshes against accumulated drift

    raise SolverFailure(f"simplex reached no optimum in {max_iter} pivots")


class _BlockBasis:
    """A basis of ``[G I]`` held as its structural block ``G[R, S]``."""

    def __init__(self, G: np.ndarray, basis: np.ndarray):
        m, n = G.shape
        self.structural = basis < n  # basis positions holding a column of G
        self.cols = basis[self.structural]  # S, in basis order
        self.slack_rows = basis[~self.structural] - n  # T, in basis order
        free = np.ones(m, dtype=bool)
        free[self.slack_rows] = False
        self.rows = np.flatnonzero(free)  # R: rows whose slack is nonbasic
        basic_columns = G[:, self.cols]
        self.block = basic_columns[self.rows]
        self.coupling = basic_columns[self.slack_rows]

    def solve(self, a: np.ndarray) -> np.ndarray:
        """w with B w = a, indexed by basis position."""
        w_s = _solve(self.block, a[self.rows])
        w = np.empty(self.structural.size)
        w[self.structural] = w_s
        w[~self.structural] = a[self.slack_rows] - self.coupling @ w_s
        return w

    def dual(self, c_s: np.ndarray) -> np.ndarray:
        """y with B^T y = c_B, for costs c_s of the basic structurals and
        zero on every slack."""
        y = np.zeros(self.structural.size)
        y[self.rows] = _solve(self.block.T, c_s)
        return y


def _solve(M, rhs):
    """Solve with a basis block (or its transpose) for one right-hand side."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        # a pivot on a rounding-noise entry can leave the basis singular
        raise SolverFailure(f"simplex basis became singular: {exc}") from exc


def _assert_solution(lp: LinearProgram, y: np.ndarray, ftol: float):
    rel = 1e-9 * np.maximum(np.abs(lp.row_ub), 1.0)
    rows = lp.G @ y
    ok = (
        np.all(y >= -ftol)
        and np.all(y <= lp.ub + ftol)
        and np.all(rows >= -ftol - rel)
        and np.all(rows <= lp.row_ub + ftol + rel)
    )
    if not ok:
        raise SolverFailure("simplex terminated at a point violating its bounds")


def optimal_allocation(op: LeontiefOperator, c: Constraints,
                       objective: str) -> Allocation:
    """Solve the best-case program for one objective and assemble the
    full (x, f) pair.

    ``objective`` is "output" or "consumption"; the method tag records it.
    """
    sol = solve(build_max_output_lp(op, c, objective))
    f = np.maximum(sol.y, 0.0)
    x = op.L @ f
    return Allocation(
        x=x,
        f=f,
        method=f"lp_{objective}",
        feasible=allocation_is_feasible(x, f, op, c),
        iterations=sol.iterations,
    )
