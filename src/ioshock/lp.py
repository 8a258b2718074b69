"""Best-case feasible allocations via linear programming.

Two box-constrained programs define minimal shock propagation: pick final
consumption to maximize total gross output, or pick gross output to
maximize total final consumption, subject to two-sided row bounds that
keep the complementary quantity inside its ceiling. Both are solved by a
self-contained simplex method for bounded variables; two-sided rows are
handled natively through ranged slacks rather than by doubling rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .economy import Economy, LeontiefOperator
from .errors import DimensionMismatch, InfeasibleStart, IterationLimit, SolverFailure
from .shocks import Allocation, Constraints

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LinearProgram:
    """maximize c @ y  subject to  lb <= y <= ub,  row_lb <= G y <= row_ub."""

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    G: np.ndarray
    row_lb: np.ndarray
    row_ub: np.ndarray

    def __post_init__(self):
        if np.any(self.lb > self.ub) or np.any(self.row_lb > self.row_ub):
            raise ValueError("lower bound exceeds upper bound")
        for name in ("lb", "ub", "row_lb", "row_ub"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "iteration-limit"
    y: np.ndarray
    objective: float
    iterations: int


def build_max_output_lp(op: LeontiefOperator, c: Constraints) -> LinearProgram:
    """Decision variable is consumption; rows keep L f within output ceilings."""
    n = op.n
    if c.x_max.shape != (n,) or c.f_max.shape != (n,):
        raise DimensionMismatch("constraints do not match operator dimension")
    return LinearProgram(
        c=op.L.sum(axis=0),
        lb=np.zeros(n),
        ub=np.array(c.f_max),
        G=np.array(op.L),
        row_lb=np.zeros(n),
        row_ub=np.array(c.x_max),
    )


def build_max_consumption_lp(op: LeontiefOperator, c: Constraints) -> LinearProgram:
    """Decision variable is output; rows keep (I - A) x within demand ceilings."""
    n = op.n
    if c.x_max.shape != (n,) or c.f_max.shape != (n,):
        raise DimensionMismatch("constraints do not match operator dimension")
    ImA = np.eye(n) - op.A
    return LinearProgram(
        c=ImA.sum(axis=0),
        lb=np.zeros(n),
        ub=np.array(c.x_max),
        G=ImA,
        row_lb=np.zeros(n),
        row_ub=np.array(c.f_max),
    )


def solve(lp: LinearProgram, max_iter: int | None = None) -> LpSolution:
    """Bounded-variable simplex with Dantzig pricing and a Bland fallback.

    Starts from the all-lower-bound point with a slack basis; programs
    built by this module are always feasible there (the full-collapse
    allocation). Switches to Bland's rule after a run of degenerate pivots
    to rule out cycling.
    """
    n = lp.c.size
    m = lp.G.shape[0]
    if max_iter is None:
        max_iter = 50 * (n + m)
    stall_limit = 3 * (n + m)

    # Equality form: [G I] z = row_ub with ranged slack s in [0, row_ub - row_lb].
    A = np.hstack([lp.G, np.eye(m)])
    b = np.array(lp.row_ub, dtype=float)
    lo = np.concatenate([lp.lb, np.zeros(m)])
    hi = np.concatenate([lp.ub, lp.row_ub - lp.row_lb])
    cost = np.concatenate([lp.c, np.zeros(m)])

    scale = max(1.0, np.max(np.abs(b)), np.max(np.abs(hi[np.isfinite(hi)])))
    ftol = _FEAS_TOL * scale

    basis = list(range(n, n + m))
    # nonbasic variables and whether each sits at its upper bound
    at_upper = np.zeros(n + m, dtype=bool)
    z = np.array(lo)

    def basic_values():
        nonbasic_part = A @ z - A[:, basis] @ z[basis]
        return _basis_solve(A[:, basis], b - nonbasic_part)

    z[basis] = basic_values()
    if np.any(z[basis] < lo[basis] - ftol) or np.any(z[basis] > hi[basis] + ftol):
        raise InfeasibleStart(
            "all-lower-bound point violates a row bound; "
            "only programs feasible at their lower bounds are supported"
        )

    nonbasic = [j for j in range(n + m) if j not in basis]
    stall = 0
    for it in range(1, max_iter + 1):
        B = A[:, basis]
        dual = _basis_solve(B.T, cost[basis])
        reduced = cost[nonbasic] - A[:, nonbasic].T @ dual

        eligible = []
        for k, j in enumerate(nonbasic):
            if hi[j] - lo[j] <= ftol:
                continue  # fixed variable can never move
            if not at_upper[j] and reduced[k] > _PIVOT_TOL:
                eligible.append((k, j, reduced[k]))
            elif at_upper[j] and reduced[k] < -_PIVOT_TOL:
                eligible.append((k, j, reduced[k]))
        if not eligible:
            _assert_solution(lp, z[:n], ftol)
            return LpSolution("optimal", np.array(z[:n]), float(lp.c @ z[:n]), it - 1)

        if stall > stall_limit:
            k, j, dj = min(eligible, key=lambda t: t[1])  # Bland: smallest index
        else:
            k, j, dj = max(eligible, key=lambda t: abs(t[2]))  # Dantzig

        sigma = -1.0 if at_upper[j] else 1.0  # direction the entering var moves
        w = _basis_solve(B, A[:, j])

        # Ratio test: entering bound flip vs. first basic variable hitting a bound.
        t_best = hi[j] - lo[j]
        leave_pos = None  # position in basis, or None for a bound flip
        leave_to_upper = False
        for p in range(m):
            step = sigma * w[p]
            if step > _PIVOT_TOL:  # basic p decreases
                t_p = (z[basis[p]] - lo[basis[p]]) / step
                hits_upper = False
            elif step < -_PIVOT_TOL:  # basic p increases
                t_p = (hi[basis[p]] - z[basis[p]]) / (-step)
                hits_upper = True
            else:
                continue
            t_p = max(t_p, 0.0)
            if t_p < t_best - _PIVOT_TOL or (
                t_p < t_best + _PIVOT_TOL
                and leave_pos is not None
                and basis[p] < basis[leave_pos]
            ):
                t_best = t_p
                leave_pos = p
                leave_to_upper = hits_upper

        stall = stall + 1 if t_best <= _PIVOT_TOL else 0

        z[j] += sigma * t_best
        z[basis] -= sigma * t_best * w
        if leave_pos is None:
            at_upper[j] = not at_upper[j]  # bound flip, basis unchanged
        else:
            out = basis[leave_pos]
            z[out] = hi[out] if leave_to_upper else lo[out]
            at_upper[out] = leave_to_upper
            basis[leave_pos] = j
            nonbasic[nonbasic.index(j)] = out
            at_upper[j] = False
            z[basis] = basic_values()  # refresh against accumulated drift

    return LpSolution("iteration-limit", np.array(z[:n]), float(lp.c @ z[:n]), max_iter)


def _basis_solve(B, rhs):
    try:
        return np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError as exc:
        # a pivot on a rounding-noise entry can leave the basis singular
        raise SolverFailure(f"simplex basis became singular: {exc}") from exc


def _assert_solution(lp: LinearProgram, y: np.ndarray, ftol: float):
    rel = 1e-9 * np.maximum(np.abs(lp.row_ub), 1.0)
    rows = lp.G @ y
    ok = (
        np.all(y >= lp.lb - ftol)
        and np.all(y <= lp.ub + ftol)
        and np.all(rows >= lp.row_lb - ftol - rel)
        and np.all(rows <= lp.row_ub + ftol + rel)
    )
    if not ok:
        raise SolverFailure("simplex terminated at a point violating its bounds")


def optimal_allocation(e: Economy, c: Constraints, objective: str,
                       op: LeontiefOperator | None = None) -> Allocation:
    """Solve one of the two programs and assemble the full (x, f) pair.

    ``objective`` is "output" or "consumption"; the method tag records it.
    """
    if op is None:
        from .economy import coefficients

        op = coefficients(e)
    if objective == "output":
        sol = solve(build_max_output_lp(op, c))
        f = np.maximum(sol.y, 0.0)
        x = op.L @ f
    elif objective == "consumption":
        sol = solve(build_max_consumption_lp(op, c))
        x = np.maximum(sol.y, 0.0)
        f = (np.eye(op.n) - op.A) @ x
    else:
        raise ValueError(f"unknown objective {objective!r}")
    if sol.status != "optimal":
        raise IterationLimit(f"simplex stopped with status {sol.status}")
    return Allocation(
        x=x,
        f=f,
        method=f"lp_{objective}",
        feasible=True,
        iterations=sol.iterations,
    )
