"""Construction of supply/demand shocks and the ceilings they imply.

A supply shock is the share of an industry's labor that is neither
essential nor able to work remotely; a demand shock is supplied directly
as a consumption reduction fraction. Scaled shocks turn into per-industry
output and consumption ceilings which every propagation method consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economy import Economy, LeontiefOperator, total_demand
from .errors import DimensionMismatch, OutOfRange, ZeroAggregate


def _unit_interval(name, value):
    a = np.asarray(value, dtype=float)
    if np.any(a < 0) or np.any(a > 1):
        raise OutOfRange(f"{name} must lie in [0, 1], got {value}")
    return a


@dataclass(frozen=True)
class ShockScenario:
    """Per-industry shock fractions plus the two global scaling factors."""

    eps_supply: np.ndarray
    eps_demand: np.ndarray
    alpha_supply: float = 1.0
    alpha_demand: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "eps_supply", _unit_interval("eps_supply", self.eps_supply))
        object.__setattr__(self, "eps_demand", _unit_interval("eps_demand", self.eps_demand))
        _unit_interval("alpha_supply", self.alpha_supply)
        _unit_interval("alpha_demand", self.alpha_demand)

    def with_alphas(self, alpha_supply, alpha_demand) -> "ShockScenario":
        return ShockScenario(self.eps_supply, self.eps_demand, alpha_supply, alpha_demand)


@dataclass(frozen=True)
class Constraints:
    """Output and consumption ceilings in currency per period."""

    x_max: np.ndarray
    f_max: np.ndarray


@dataclass(frozen=True)
class Allocation:
    """A candidate (x, f) pair with method provenance and how its method
    ended: the iteration count, whether it converged, and the final
    residual of an iterated method (NaN for the others). ``stop_reason``
    says why a rationing run stopped: ``converged``, ``stalled`` or
    ``max_iter``; it is empty for the other methods."""

    x: np.ndarray
    f: np.ndarray
    method: str
    feasible: bool
    iterations: int = 0
    converged: bool = True
    residual: float = math.nan
    stop_reason: str = ""


def supply_shock(rli, essential):
    """Supply shock fraction: labor neither remote-capable nor essential.

    Works element-wise on scalars or arrays; inputs and result in [0, 1].
    """
    rli = _unit_interval("rli", rli)
    essential = _unit_interval("essential", essential)
    return (1.0 - rli) * (1.0 - essential)


def make_constraints(e: Economy, s: ShockScenario) -> Constraints:
    """Ceilings x_max = (1 - aS*epsS) x0 and f_max = (1 - aD*epsD) f0."""
    if s.eps_supply.shape != (e.n,) or s.eps_demand.shape != (e.n,):
        raise DimensionMismatch(
            f"scenario has {s.eps_supply.shape[0]} industries, economy has {e.n}"
        )
    x_max = (1.0 - s.alpha_supply * s.eps_supply) * e.x
    f_max = (1.0 - s.alpha_demand * s.eps_demand) * e.f
    return Constraints(x_max=x_max, f_max=f_max)


def aggregate_shocks(e: Economy, c: Constraints):
    """Economy-wide shock totals (eps_S_total, eps_D_total).

    Each is one minus the ratio of total ceiling to total baseline. A zero
    total final demand gives a zero aggregate demand shock.
    """
    total_x = e.x.sum()
    if total_x <= 0:
        raise ZeroAggregate("total baseline output is zero")
    eps_s = 1.0 - c.x_max.sum() / total_x
    total_f = e.f.sum()
    eps_d = 1.0 - c.f_max.sum() / total_f if total_f > 0 else 0.0
    return float(eps_s), float(eps_d)


def allocation_is_feasible(x, f, op: LeontiefOperator, c: Constraints,
                           tol: float = 1e-8) -> bool:
    """Check 0 <= x <= x_max, 0 <= f <= f_max and x = L f within tol."""
    scale = max(float(np.max(np.abs(x))), 1.0)
    slack = tol * scale
    if np.any(x < -slack) or np.any(x > c.x_max + slack):
        return False
    if np.any(f < -slack) or np.any(f > c.f_max + slack):
        return False
    return bool(np.max(np.abs(x - total_demand(op, np.maximum(f, 0.0)))) <= slack)


def direct_allocation(op: LeontiefOperator, c: Constraints) -> Allocation:
    """The ceilings themselves as an allocation, ignoring network effects.

    Generally infeasible because x_max differs from L f_max; the feasible
    flag is computed honestly against the production recipe.
    """
    return Allocation(
        x=np.array(c.x_max),
        f=np.array(c.f_max),
        method="direct",
        feasible=allocation_is_feasible(c.x_max, c.f_max, op, c),
    )
