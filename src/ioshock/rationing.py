"""Bottom-up rationing dynamics for supply-constrained networks.

Four rules govern how an output-constrained supplier divides its
production among customers:

* proportional -- everyone, including the final consumer, is scaled by
  the same ratio of capacity to total demand;
* mixed -- intermediate customers are rationed proportionally but always
  ahead of the final consumer;
* largest_first -- intermediate customers are served in descending order
  of their initial demand, final consumers last;
* random -- like largest_first but each supplier serves its customers
  in the order of seeded uniform keys, one draw for the whole network.

Each rule is iterated as a fixed-point map on the total-demand vector.
Convergence requires both that demand stops moving and that production
meets it, x = d: only then has every bottleneck worked itself out and
the allocation is feasible by construction (ceilings hold and x = L f).
Shock patterns that leave a supplier permanently promising more than
its input-constrained production can deliver never reach x = d; they
are reported as non-converged rather than as a spurious equilibrium.
Such a run stops as ``stalled`` once its best residual fails to halve
over a window of sweeps (or once demand is stationary while the gap
does not close), instead of sweeping on to ``max_iter``; each result's
``stop_reason`` is ``converged``, ``stalled`` or ``max_iter``.

The stop rule is fixed: a run converges at residual ``TOL``, and its
window test uses ``STALL_WINDOW`` and ``STALL_FACTOR``. The one setting
a caller chooses is the sweep cap ``max_iter`` (``MAX_ITER`` by
default), which must be at least 1.

Delivered consumption is capped at its ceiling; the transient excess a
priority rule can produce is treated as discarded. Without the cap the
prioritising rules can converge to consumption above the exogenous
ceiling, breaking feasibility.
"""

from __future__ import annotations

import numpy as np

from .economy import Economy, LeontiefOperator
from .errors import DimensionMismatch
from .shocks import Allocation, Constraints, allocation_is_feasible

#: RNG and ranking scheme of random rationing, recorded in outputs
GENERATOR_NAME = "numpy.random.Generator(PCG64) random((n, n)) keys, argsorted per row"

#: a run stops as stalled when, at a check every STALL_WINDOW sweeps, its
#: best residual so far has not fallen below STALL_FACTOR times the best
#: at the previous check
STALL_WINDOW = 50
STALL_FACTOR = 0.5

#: a run has converged when its residual is at most TOL
TOL = 1e-10

#: default sweep cap
MAX_ITER = 10**6


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
    # each row of cols holds distinct customers, so one scatter into a grid
    # of ones puts every ratio in its own cell; min is exact in any order
    grid = np.ones((d.size, d.size))
    np.put_along_axis(grid, cols, np.minimum(r, 1.0), axis=1)
    return grid.min(axis=0, initial=1.0)


def _iterate(e, op, c, max_iter, bottleneck, method):
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    A, L = op.A, op.L
    floor = 1e-12 * e.x.sum()
    d = L @ c.f_max
    x = f = None
    residual = gap_prev = best = checked = np.inf
    for t in range(1, max_iter + 1):
        s = bottleneck(d, c.x_max)
        x = np.minimum(c.x_max, s * d)
        f = np.minimum(c.f_max, np.maximum(x - A @ x, 0.0))
        d_next = L @ f
        # demand change between sweeps, and shortfall of output behind demand
        moved = float(np.max(np.abs(d_next - d) / np.maximum(d, floor))) if d.size else 0.0
        gap = float(np.max(np.abs(x - d_next) / np.maximum(d_next, floor))) if d.size else 0.0
        residual = max(moved, gap)
        d = d_next
        if residual <= TOL:
            break
        if moved <= TOL and gap > gap_prev * (1.0 - 1e-3):
            # demand is stationary and x is a function of d alone, so a
            # non-shrinking gap can never close: the rule has stalled at
            # an overcommitted state short of x = d
            break
        gap_prev = gap
        best = min(best, residual)
        if t % STALL_WINDOW == 0:
            if best > STALL_FACTOR * checked:
                # the residual wanders without closing in on zero
                break
            checked = best
    converged = residual <= TOL
    return Allocation(
        x=x, f=f, method=method,
        feasible=converged and allocation_is_feasible(x, f, op, c, tol=10 * TOL),
        iterations=t, converged=converged, residual=residual,
        stop_reason=("converged" if converged
                     else "max_iter" if t == max_iter else "stalled"),
    )


def _check_dims(e, op, c):
    if op.n != e.n or c.x_max.shape != (e.n,) or c.f_max.shape != (e.n,):
        raise DimensionMismatch("economy, operator and constraints disagree")


def ration_proportional(e: Economy, op: LeontiefOperator, c: Constraints,
                        max_iter: int = MAX_ITER) -> Allocation:
    """All customers, final consumers included, are rationed by the same share."""
    _check_dims(e, op, c)
    has_supplier = op.A > 0
    return _iterate(
        e, op, c, max_iter,
        lambda d, avail: _bottleneck(_proportional_ratios(d, avail), has_supplier),
        "proportional",
    )


def ration_mixed(e: Economy, op: LeontiefOperator, c: Constraints,
                 max_iter: int = MAX_ITER) -> Allocation:
    """Proportional among industries, with industries served before consumers."""
    _check_dims(e, op, c)
    has_supplier = op.A > 0
    return _iterate(
        e, op, c, max_iter,
        lambda d, avail: _bottleneck(_mixed_ratios(d, avail, op.A), has_supplier),
        "mixed",
    )


def _ranked_result(e, op, c, max_iter, cols, coef, method):
    return _iterate(
        e, op, c, max_iter,
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
    """Per-supplier random customer orders in the layout of
    ``largest_first_rankings``: each supplier serves its customers in
    ascending order of one seeded uniform draw of A's shape."""
    customer = op.A > 0
    key = np.random.default_rng(seed).random(op.A.shape)
    # keys are multiples of 2**-53 in [0, 1), so moving the customers' to
    # [-1, 0) is exact: they sort ahead of every non-customer, in their order
    key -= customer
    return _ranked_layout(op.A, np.argsort(key, axis=1),
                          np.count_nonzero(customer, axis=1))


def ration_largest_first(e: Economy, op: LeontiefOperator, c: Constraints,
                         max_iter: int = MAX_ITER) -> Allocation:
    """Serve larger intermediate customers first; final consumers last."""
    _check_dims(e, op, c)
    cols, coef = largest_first_rankings(op, op.L @ c.f_max)
    return _ranked_result(e, op, c, max_iter, cols, coef, "largest_first")


def ration_random(e: Economy, op: LeontiefOperator, c: Constraints, seed,
                  max_iter: int = MAX_ITER) -> Allocation:
    """Serve intermediate customers in a seeded random order, consumers last."""
    _check_dims(e, op, c)
    cols, coef = random_rankings(op, seed)
    return _ranked_result(e, op, c, max_iter, cols, coef, "random")
