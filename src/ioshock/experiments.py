"""Shock-magnitude and network-density sweep experiments.

Both sweeps evaluate every requested propagation method on identical
constraints at each grid point and emit one flat record per evaluation.
Random seeds are derived from (master seed, grid index, replicate,
sample), so reruns are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economy import (
    Economy,
    coefficients,
    metrics,
    remove_links,
    smallest_links,
)
from .errors import IoShockError
from .lp import optimal_allocation
from .meem import classify, solve_meem
from .rationing import (
    MAX_ITER,
    ration_largest_first,
    ration_mixed,
    ration_proportional,
    ration_random,
)
from .shocks import Allocation, ShockScenario, direct_allocation, make_constraints

ALL_METHODS = (
    "direct",
    "lp_output",
    "lp_consumption",
    "proportional",
    "mixed",
    "largest_first",
    "random",
    "meem",
)


@dataclass(frozen=True)
class SweepSpec:
    methods: tuple = ALL_METHODS
    #: (alpha_supply, alpha_demand) pairs for scale sweeps,
    #: density targets for density sweeps
    grid: tuple = ((0.0, 0.0),)
    removal_mode: str = "random"  # "random" | "smallest_first"
    repetitions: int = 1
    #: samples per replicate for the random-rationing method
    random_samples: int = 1
    master_seed: int = 0
    #: rationing sweep cap
    max_iter: int = MAX_ITER

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.random_samples < 1:
            raise ValueError("random_samples must be >= 1")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        for g in self.grid:
            vals = g if isinstance(g, tuple) else (g,)
            if not all(0 <= v <= 1 for v in vals):
                raise ValueError(f"grid value {g} outside [0, 1]")
        unknown = set(self.methods) - set(ALL_METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.removal_mode not in ("random", "smallest_first"):
            raise ValueError(f"unknown removal mode {self.removal_mode!r}")


@dataclass(frozen=True)
class SweepRecord:
    """One row of sweep.csv, whose columns are these fields in order.

    The fields after ``sample`` default to what a failed evaluation
    writes, so an error record names only its point and its error.
    """

    alpha_supply: float
    alpha_demand: float
    density_target: float  # nan for scale sweeps
    method: str
    replicate: int
    sample: int
    total_output: float = math.nan
    total_consumption: float = math.nan
    norm_output: float = math.nan
    norm_consumption: float = math.nan
    feasible: bool = False
    converged: bool = False
    avg_multiplier: float = math.nan
    intermediate_share: float = math.nan
    error: str = ""


@dataclass(frozen=True)
class AllocationRow:
    """One row of allocations.csv, whose columns are these fields in order."""

    industry: str
    method: str
    x: float
    f: float
    x_max: float
    f_max: float
    feasible: bool
    iterations: int


@dataclass(frozen=True)
class SweepSummary:
    """One row of summary.csv, whose columns are these fields in order."""

    alpha_supply: float
    alpha_demand: float
    density_target: float
    method: str
    count: int
    failures: int
    mean_output: float
    q25_output: float
    q50_output: float
    q75_output: float
    mean_consumption: float
    q25_consumption: float
    q50_consumption: float
    q75_consumption: float


def _sample_seed(master, grid_index, replicate, sample):
    return np.random.SeedSequence([int(master), int(grid_index),
                                   int(replicate), 2, int(sample)])


def _removal_seed(master, grid_index, replicate):
    return np.random.SeedSequence([int(master), int(grid_index),
                                   int(replicate), 1])


def run_method(method, e, op, c, max_iter=MAX_ITER, seed=None):
    """Evaluate one propagation method into an Allocation."""
    if method == "direct":
        return direct_allocation(op, c)
    if method == "lp_output":
        return optimal_allocation(op, c, "output")
    if method == "lp_consumption":
        return optimal_allocation(op, c, "consumption")
    if method == "proportional":
        return ration_proportional(e, op, c, max_iter)
    if method == "mixed":
        return ration_mixed(e, op, c, max_iter)
    if method == "largest_first":
        return ration_largest_first(e, op, c, max_iter)
    if method == "random":
        return ration_random(e, op, c, seed, max_iter)
    if method == "meem":
        sol = solve_meem(e, op, c, classify(e, c))
        return Allocation(sol.x, sol.f, "meem", sol.feasible)
    raise ValueError(f"unknown method {method!r}")


def evaluate_point(e, op, c, spec: SweepSpec, grid_index, replicates,
                   alpha_supply, alpha_demand, density_target=float("nan")):
    """Evaluate every method once per sample at one grid point, for each
    replicate in ``replicates`` in turn.

    Returns the records, one per evaluation, and the sample-0 allocation of
    each method that did not raise, from the first of ``replicates`` only.
    """
    m = metrics(e, op)
    base_x = m.total_output
    base_f = m.total_consumption
    records = []
    allocations = []

    def record(method, replicate, sample, **values):
        records.append(SweepRecord(
            alpha_supply, alpha_demand, density_target, method, replicate,
            sample, avg_multiplier=m.avg_multiplier,
            intermediate_share=m.intermediate_share, **values))

    for i, rep in enumerate(replicates):
        for method in spec.methods:
            samples = spec.random_samples if method == "random" else 1
            for k in range(samples):
                # only the random rule draws numbers; building a SeedSequence
                # for the others would import numpy.random for nothing
                seed = (_sample_seed(spec.master_seed, grid_index, rep, k)
                        if method == "random" else None)
                try:
                    allocation = run_method(method, e, op, c, spec.max_iter, seed)
                except IoShockError as exc:
                    record(method, rep, k, error=str(exc))
                    continue
                out = float(allocation.x.sum())
                cons = float(allocation.f.sum())
                record(method, rep, k, total_output=out, total_consumption=cons,
                       norm_output=out / base_x if base_x > 0 else math.nan,
                       norm_consumption=cons / base_f if base_f > 0 else math.nan,
                       feasible=bool(allocation.feasible),
                       converged=allocation.converged)
                if i == 0 and k == 0:
                    allocations.append(allocation)
    return records, allocations


def sweep_scale(e: Economy, s: ShockScenario, spec: SweepSpec):
    """Rebuild constraints at each (alpha_supply, alpha_demand) grid point
    and evaluate every method on them."""
    op = coefficients(e)
    records = []
    for g, (a_s, a_d) in enumerate(spec.grid):
        c = make_constraints(e, s.with_alphas(a_s, a_d))
        records += evaluate_point(e, op, c, spec, g, range(spec.repetitions),
                                  a_s, a_d)[0]
    return records


def sweep_density(e: Economy, s: ShockScenario, spec: SweepSpec):
    """Thin the network to each target density, rebalance, re-shock with
    ``s`` at its own alphas, evaluate.

    Removal order per spec.removal_mode: uniformly random links per replicate
    seed, or the deterministic smallest-first order (one replicate).
    Replicates whose removal leaves an industry with inputs but no output
    are recorded with an error instead of aborting the sweep.
    """
    n = e.n
    current = e.density
    # the positive links in row-major order, as two index arrays
    rows, cols = np.nonzero(e.Z > 0)
    reps = 1 if spec.removal_mode == "smallest_first" else spec.repetitions
    for target in spec.grid:
        if target > current + 1e-12:
            raise ValueError(f"target density {target} above current {current}")

    records = []
    for g, target in enumerate(spec.grid):
        k = int(round((current - target) * n**2))
        k = min(max(k, 0), rows.size)
        for rep in range(reps):
            if spec.removal_mode == "smallest_first":
                links = smallest_links(e, k)
            else:
                rng = np.random.default_rng(_removal_seed(spec.master_seed, g, rep))
                chosen = rng.choice(rows.size, size=k, replace=False)
                links = rows[chosen], cols[chosen]
            e2 = remove_links(e, *links)
            try:
                op2 = coefficients(e2)
            except IoShockError as exc:
                records += [SweepRecord(s.alpha_supply, s.alpha_demand, target,
                                        method, rep, 0, error=str(exc))
                            for method in spec.methods]
                continue
            c2 = make_constraints(e2, s)
            # each replicate thins its own economy, so it is evaluated alone
            records += evaluate_point(e2, op2, c2, spec, g, (rep,), s.alpha_supply,
                                      s.alpha_demand, density_target=target)[0]
    return records


def summarize(records):
    """Aggregate statistics per (grid point, method), pooling replicate
    and random-rationing samples as one distribution."""
    if not records:
        raise ValueError("empty record table")
    groups = {}
    for r in records:
        key = (r.alpha_supply, r.alpha_demand, r.density_target, r.method)
        groups.setdefault(key, []).append(r)
    out = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], _nan_key(k[2]), k[3])):
        rows = groups[key]
        ok = [r for r in rows if r.converged and not r.error]
        outs = np.array([r.norm_output for r in ok])
        cons = np.array([r.norm_consumption for r in ok])
        if outs.size:
            stats = (float(outs.mean()), *_quartiles(outs),
                     float(cons.mean()), *_quartiles(cons))
        else:
            stats = (float("nan"),) * 8
        out.append(SweepSummary(*key, len(rows), len(rows) - len(ok), *stats))
    return out


def _quartiles(values):
    """``np.percentile(values, [25, 50, 75])`` as floats, bit for bit,
    without the ``np.unique`` call through which np.percentile imports
    numpy.ma: numpy's partition (a sort can order 0.0 and -0.0 the other
    way) and its "linear" interpolation."""
    v = np.array(values, dtype=float)
    n = v.size
    picks = []
    for q in (0.25, 0.5, 0.75):
        pos = (n - 1) * q
        lo = math.floor(pos)
        if pos >= n - 1:  # n == 1: numpy takes the last value from both sides
            lo, hi = -1, -1
        else:
            hi = lo + 1
        picks.append((lo, hi, pos - lo))
    v.partition(sorted({0, -1, *(k for lo, hi, _ in picks for k in (lo, hi))}))
    last = float(v[-1])
    if last != last:  # NaN sorts last and then is every quartile
        return [last] * 3
    out = []
    for lo, hi, g in picks:
        a, b = float(v[lo]), float(v[hi])
        d = b - a
        out.append(b - d * (1 - g) if g >= 0.5 else a + d * g)
    return out


def _nan_key(v):
    return (1, 0.0) if v != v else (0, v)
