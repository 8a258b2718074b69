"""Mixed endogenous/exogenous model with infeasibility diagnostics.

Industries are split into a supply-constrained group, whose output is
pinned at its ceiling, and a demand-constrained group, whose consumption
is pinned at its ceiling. The complementary quantities are solved from
the partitioned block system. The solve always satisfies the accounting
identity, but the assembled allocation can violate the exogenous ceilings
(negative or excessive consumption); diagnostics record exactly where.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .economy import Economy, LeontiefOperator
from .errors import SingularBlock
from .shocks import Constraints

_DIAG_TOL = 1e-9


@dataclass(frozen=True)
class MeemSolution:
    x: np.ndarray
    f: np.ndarray
    negative_consumption: np.ndarray
    consumption_above_max: np.ndarray
    output_above_max: np.ndarray
    negative_output: np.ndarray
    feasible: bool


def classify(e: Economy, c: Constraints) -> np.ndarray:
    """Split industries by which applied shock is larger in absolute terms:
    the boolean mask of the supply-constrained ones.

    An industry is supply-constrained when its output shock strictly
    exceeds its consumption shock; ties, including the no-shock case, go
    to the demand side so the unshocked baseline is recovered exactly.
    """
    return e.x - c.x_max > e.f - c.f_max


def solve_meem(e: Economy, op: LeontiefOperator, c: Constraints,
               supply: np.ndarray) -> MeemSolution:
    """Block solve with x fixed at its ceiling where the mask ``supply`` is
    true and f at its ceiling on the rest, the demand side.

    Endogenous output of the demand group comes from inverting its own
    block; endogenous consumption of the supply group is the accounting
    residual. Degenerate partitions (either group empty) are supported.
    """
    S, D = np.flatnonzero(supply), np.flatnonzero(~supply)
    A = op.A
    x_s = c.x_max[S]
    f_d = c.f_max[D]

    A_dd = A[np.ix_(D, D)]
    A_ds = A[np.ix_(D, S)]
    A_ss = A[np.ix_(S, S)]
    A_sd = A[np.ix_(S, D)]

    try:
        x_d = np.linalg.solve(np.eye(D.size) - A_dd, A_ds @ x_s + f_d)
    except np.linalg.LinAlgError as exc:
        raise SingularBlock("(I - A_dd) is singular") from exc
    f_s = (np.eye(S.size) - A_ss) @ x_s - A_sd @ x_d

    x = np.empty(e.n)
    f = np.empty(e.n)
    x[S], x[D] = x_s, x_d
    f[S], f[D] = f_s, f_d
    return check_feasibility(x, f, supply, c)


def check_feasibility(x, f, on_supply: np.ndarray, c: Constraints) -> MeemSolution:
    """Flag every ceiling violation of an assembled MEEM allocation whose
    supply-constrained industries are the mask ``on_supply``.

    Negative output on the demand side is recorded for completeness but
    cannot fire while supply shocks are nonnegative.
    """
    scale = max(float(np.max(np.abs(x))), 1.0)
    tol = _DIAG_TOL * scale

    negative_consumption = on_supply & (f < -tol)
    consumption_above_max = on_supply & (f > c.f_max + tol)
    output_above_max = ~on_supply & (x > c.x_max + tol)
    negative_output = ~on_supply & (x < -tol)
    feasible = not (
        negative_consumption.any()
        or consumption_above_max.any()
        or output_above_max.any()
        or negative_output.any()
    )
    return MeemSolution(
        x=x, f=f,
        negative_consumption=negative_consumption,
        consumption_above_max=consumption_above_max,
        output_above_max=output_above_max,
        negative_output=negative_output,
        feasible=feasible,
    )
