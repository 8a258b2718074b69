"""Best-case feasible allocations via linear programming.

Minimal shock propagation is one polytope with two objectives: pick final
consumption f with 0 <= f <= f_max such that gross output x = L f stays
within 0 <= x <= x_max, then maximize total output 1^T L f or total
consumption 1^T f. A self-contained bounded dual simplex (Maros,
*Computational Techniques of the Simplex Method*, 2003) solves it, with
the two-sided rows as ranged slacks: the equality form is ``[G I]``.

Every variable is boxed (f in [0, f_max], each slack in [0, x_max]), so
placing each nonbasic variable at the bound its reduced cost asks for (the
upper one for a positive reduced cost, zero for a negative one, and the
bound it already holds for one within tolerance of zero) makes every basis
dual feasible, for any G; no phase 1 is needed. A basis
``[G[:, S] | I[:, T]]``, with T the rows whose slack is basic, reduces to
its structural block ``G[R, S]`` over the other rows R (Chvatal, *Linear
Programming*, 1983, ch. 8), gathered once per basis; a pivot solves with it
three times, for the row prices, the basic values and the leaving
variable's row of B^-1.

The start is a crash: the rows where the demand-limited output x*
(``_demand_limited_output``) reaches its ceiling are held tight. Wherever
no input bottleneck emerges, that basis is already optimal.
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
#: the crash's stopping step, relative to the largest ceiling, and its cap
_CRASH_TOL = 1e-15
_CRASH_MAX_ITER = 1000


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


def solve(lp: LinearProgram, tight=(), max_iter: int | None = None) -> LpSolution:
    """Bounded dual simplex from the basis that ``tight`` names.

    The start basis holds y_i for each row i in ``tight`` (whose slack is
    nonbasic at zero) and the slack of every other row. While a basic
    variable lies outside its box by more than the feasibility tolerance,
    the one furthest outside leaves, and the dual ratio test picks the
    entering variable: the smallest |d_j / alpha_j| among the variables
    that can move the leaving one towards its box, a tie going to the
    smallest index (structural columns before slacks). Raises SolverFailure
    when ``max_iter`` pivots reach no optimum, when no variable can enter,
    or when the basis block is singular.
    """
    n = lp.c.size
    m = lp.G.shape[0]
    if max_iter is None:
        max_iter = 50 * (n + m)

    # Equality form: [G I] z = row_ub with ranged slack s in [0, row_ub].
    hi = np.concatenate([lp.ub, lp.row_ub])
    cost = np.concatenate([lp.c, np.zeros(m)])
    ftol = _FEAS_TOL * max(1.0, np.max(hi))  # every bound is >= 0
    movable = hi > ftol  # a variable fixed at zero never limits the dual step

    basis = np.arange(n, n + m)
    tight = np.asarray(tight, dtype=int)
    basis[tight] = tight
    z = np.zeros(n + m)
    for pivots in range(max_iter + 1):
        B = _BlockBasis(lp.G, basis)
        y = B.dual(cost[basis])
        reduced = cost - np.concatenate([lp.G.T @ y, y])
        # a reduced cost within tolerance of zero asks for neither bound: the
        # variable keeps the one it sat at, or the one it left the basis for
        upper = (reduced > _PIVOT_TOL) | ((reduced >= -_PIVOT_TOL) & (z >= hi))
        upper[basis] = False
        z = np.where(upper, hi, 0.0)
        z[basis] = B.solve(lp.row_ub - lp.G @ z[:n] - z[n:])

        excess = np.maximum(-z[basis], z[basis] - hi[basis])
        p = np.argmax(excess)
        if excess[p] <= ftol:
            _assert_solution(lp, z[:n], ftol)
            return LpSolution(z[:n], float(lp.c @ z[:n]), pivots)
        if pivots == max_iter:
            break

        unit = np.zeros(m)
        unit[p] = 1.0
        rho = B.dual(unit)  # row p of B^-1 is rho^T
        alpha = np.concatenate([lp.G.T @ rho, rho])
        alpha[basis] = 0.0
        # the leaving variable rises (below 0) or falls (above hi); a
        # variable at 0 can only rise and one at hi only fall
        rise = 1.0 if z[basis[p]] < 0 else -1.0
        eligible = movable & (np.where(upper, rise, -rise) * alpha > _PIVOT_TOL)
        if not eligible.any():
            raise SolverFailure("simplex found no entering variable")
        ratios = np.full(n + m, np.inf)
        ratios[eligible] = np.abs(reduced[eligible] / alpha[eligible])
        basis[p] = np.argmin(ratios)  # the first minimum: the smallest index

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

    def dual(self, c_b: np.ndarray) -> np.ndarray:
        """y with B^T y = c_B, for costs c_b indexed by basis position."""
        c_t = c_b[~self.structural]
        y = np.empty(self.structural.size)
        y[self.slack_rows] = c_t
        y[self.rows] = _solve(self.block.T,
                              c_b[self.structural] - self.coupling.T @ c_t)
        return y


def _solve(M, rhs):
    """Solve with a basis block (or its transpose) for one right-hand side."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        # a pivot on a rounding-noise entry, or a tight start on a general G,
        # can make the block singular
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


def _demand_limited_output(op: LeontiefOperator, c: Constraints) -> np.ndarray:
    """x*, the greatest x with x <= x_max and x <= A x + f_max: each
    industry makes the lesser of its capacity and what its customers and
    consumers ask for. Iterating x -> min(x_max, A x + f_max) from x_max
    descends to it (Tarski 1955); the first iterate the map moves by at most
    _CRASH_TOL of the largest ceiling, or the last within _CRASH_MAX_ITER
    steps, is returned, and either bounds x* from above."""
    tol = _CRASH_TOL * np.max(c.x_max)
    x = c.x_max
    for _ in range(_CRASH_MAX_ITER):
        step = np.minimum(c.x_max, op.A @ x + c.f_max)
        if np.max(np.abs(step - x)) <= tol:
            break
        x = step
    return x


def optimal_allocation(op: LeontiefOperator, c: Constraints,
                       objective: str) -> Allocation:
    """Solve the best-case program for one objective and assemble the
    full (x, f) pair.

    ``objective`` is "output" or "consumption"; the method tag records it.
    Every principal block of L is nonsingular, so any tight set is a valid
    start with the same optimum; x* only shortens the path, to no pivot
    when f* = (I - A) x* >= 0.
    """
    lp = build_max_output_lp(op, c, objective)
    sol = solve(lp, np.flatnonzero(_demand_limited_output(op, c) == c.x_max))
    f = np.maximum(sol.y, 0.0)
    x = op.L @ f
    return Allocation(
        x=x,
        f=f,
        method=f"lp_{objective}",
        feasible=allocation_is_feasible(x, f, op, c),
        iterations=sol.iterations,
    )
