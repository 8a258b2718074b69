"""Bottom-up rationing dynamics for supply-constrained networks.

Four rules govern how an output-constrained supplier divides its
production among customers:

* proportional -- everyone, including the final consumer, is scaled by
  the same ratio of capacity to total demand;
* mixed -- intermediate customers are rationed proportionally but always
  ahead of the final consumer;
* largest_first -- intermediate customers are served in descending order
  of their initial demand, final consumers last;
* random -- like largest_first but the per-supplier serving order is a
  seeded random permutation.

Each rule is iterated as a fixed-point map on the total-demand vector.
Convergence requires both that demand stops moving and that production
meets it, x = d: only then has every bottleneck worked itself out and
the allocation is feasible by construction (ceilings hold and x = L f).
Shock patterns that leave a supplier permanently promising more than
its input-constrained production can deliver never reach x = d; they
are reported as non-converged rather than as a spurious equilibrium.

Delivered consumption is capped at its ceiling; the transient excess a
priority rule can produce is treated as discarded. Without the cap the
prioritising rules can converge to consumption above the exogenous
ceiling, breaking feasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economy import Economy, LeontiefOperator
from .errors import DimensionMismatch
from .shocks import Allocation, Constraints, allocation_is_feasible

#: RNG used for random rationing; recorded in outputs for reproducibility.
GENERATOR_NAME = "numpy.random.Generator(PCG64)"


@dataclass(frozen=True)
class RationingOptions:
    tol: float = 1e-10
    max_iter: int = 10**6

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


def _proportional_ratios(d, avail):
    with np.errstate(divide="ignore"):
        return np.where(d > 0, avail / np.where(d > 0, d, 1.0), np.inf)


def _mixed_ratios(d, avail, A):
    inter = A @ d
    with np.errstate(divide="ignore"):
        return np.where(inter > 0, avail / np.where(inter > 0, inter, 1.0), np.inf)


def _bottleneck(r, has_supplier):
    # s_i = min over suppliers j (has_supplier[j, i]: a_ji > 0) of
    # min(r_j, 1); 1 if no suppliers
    return np.where(has_supplier, np.minimum(r, 1.0)[:, None], 1.0).min(
        axis=0, initial=1.0)


def _priority_bottleneck(d, avail, cols, coef):
    """Bottlenecks when suppliers serve intermediate customers in rank order.

    Capacity is granted greedily down the ranking: a customer's ratio is
    the supplier's capacity left after everyone ranked above it, divided
    by its own demand, so total grants never exceed availability. The
    customer's binding constraint is its worst ratio across suppliers.
    Row i of ``cols``/``coef`` is supplier i's ranking (see
    ``largest_first_rankings``). The row-wise cumsum adds in rank order, so
    the result is bitwise that of serving one supplier at a time.
    """
    w = coef * d[cols]
    cum_before = np.zeros_like(w)
    np.cumsum(w[:, :-1], axis=1, out=cum_before[:, 1:])
    remaining = np.maximum(avail[:, None] - cum_before, 0.0)
    with np.errstate(divide="ignore"):
        r = np.where(w > 0, remaining / np.where(w > 0, w, 1.0), np.inf)
    s = np.ones(d.shape)
    np.minimum.at(s, cols, np.minimum(r, 1.0))
    return s


def _iterate(e, op, c, opts, bottleneck, method):
    A, L = op.A, op.L
    floor = 1e-12 * e.x.sum()
    d = L @ c.f_max
    x = f = None
    residual = gap_prev = np.inf
    for t in range(1, opts.max_iter + 1):
        s = bottleneck(d, c.x_max)
        x = np.minimum(c.x_max, s * d)
        f = np.minimum(c.f_max, np.maximum(x - A @ x, 0.0))
        d_next = L @ f
        # demand change between sweeps, and shortfall of output behind demand
        moved = float(np.max(np.abs(d_next - d) / np.maximum(d, floor))) if d.size else 0.0
        gap = float(np.max(np.abs(x - d_next) / np.maximum(d_next, floor))) if d.size else 0.0
        residual = max(moved, gap)
        d = d_next
        if residual <= opts.tol:
            break
        if moved <= opts.tol and gap > gap_prev * (1.0 - 1e-3):
            # demand is stationary and x is a function of d alone, so a
            # non-shrinking gap can never close: the rule has stalled at
            # an overcommitted state short of x = d
            break
        gap_prev = gap
    converged = residual <= opts.tol
    return Allocation(
        x=x, f=f, method=method,
        feasible=converged and allocation_is_feasible(x, f, op, c, tol=10 * opts.tol),
        iterations=t, converged=converged, residual=residual,
    )


def _check_dims(e, op, c):
    if op.n != e.n or c.x_max.shape != (e.n,) or c.f_max.shape != (e.n,):
        raise DimensionMismatch("economy, operator and constraints disagree")


def ration_proportional(e: Economy, op: LeontiefOperator, c: Constraints,
                        opts: RationingOptions = RationingOptions()) -> Allocation:
    """All customers, final consumers included, are rationed by the same share."""
    _check_dims(e, op, c)
    has_supplier = op.A > 0
    return _iterate(
        e, op, c, opts,
        lambda d, avail: _bottleneck(_proportional_ratios(d, avail), has_supplier),
        "proportional",
    )


def ration_mixed(e: Economy, op: LeontiefOperator, c: Constraints,
                 opts: RationingOptions = RationingOptions()) -> Allocation:
    """Proportional among industries, with industries served before consumers."""
    _check_dims(e, op, c)
    has_supplier = op.A > 0
    return _iterate(
        e, op, c, opts,
        lambda d, avail: _bottleneck(_mixed_ratios(d, avail, op.A), has_supplier),
        "mixed",
    )


def _ranked_result(e, op, c, opts, cols, coef, method):
    return _iterate(
        e, op, c, opts,
        lambda d, avail: _priority_bottleneck(d, avail, cols, coef),
        method,
    )


def _ranked_layout(A, order, degree):
    """Cut ``order``, whose row i lists supplier i's ``degree[i]`` customers
    first, to the widest ranking and gather its coefficients. The padding
    falls on non-customers, at coefficient 0: it draws on no capacity and
    bounds no one."""
    cols = order[:, :degree.max(initial=0)].copy()  # lets the n x n order go
    return cols, np.take_along_axis(A, cols, axis=1)


def largest_first_rankings(op: LeontiefOperator, d1: np.ndarray):
    """Per-supplier customer order by initial demand size, frozen at t=1,
    as the padded layout ``(cols, coef)``; the stable sort breaks ties by
    ascending customer index."""
    customer = op.A > 0
    key = np.where(customer, op.A * -d1, np.inf)
    return _ranked_layout(op.A, np.argsort(key, axis=1, kind="stable"),
                          np.count_nonzero(customer, axis=1))


def random_rankings(op: LeontiefOperator, seed):
    """Per-supplier random customer orders, drawn once from the given seed,
    in the layout of ``largest_first_rankings``."""
    rng = np.random.default_rng(seed)
    customer = op.A > 0
    order = np.argsort(~customer, axis=1, kind="stable")  # customers first, by index
    degree = np.count_nonzero(customer, axis=1)
    for row, k in zip(order, degree):
        rng.shuffle(row[:k])  # in place, the draws of rng.permutation
    return _ranked_layout(op.A, order, degree)


def ration_largest_first(e: Economy, op: LeontiefOperator, c: Constraints,
                         opts: RationingOptions = RationingOptions()) -> Allocation:
    """Serve larger intermediate customers first; final consumers last."""
    _check_dims(e, op, c)
    cols, coef = largest_first_rankings(op, op.L @ c.f_max)
    return _ranked_result(e, op, c, opts, cols, coef, "largest_first")


def ration_random(e: Economy, op: LeontiefOperator, c: Constraints, seed,
                  opts: RationingOptions = RationingOptions()) -> Allocation:
    """Serve intermediate customers in a seeded random order, consumers last."""
    _check_dims(e, op, c)
    cols, coef = random_rankings(op, seed)
    return _ranked_result(e, op, c, opts, cols, coef, "random")
