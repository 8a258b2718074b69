"""Correctness checks computed apart from the program.

Everything the program wrote is compared with numpy and
``scipy.optimize.linprog(method="highs")`` results recomputed from the
generated (Z, f) and shock arrays; nothing here imports ``ioshock``.

An operation is one method evaluation: one row of ``sweep.csv`` or one
method's block of ``allocations.csv``. It fails when it carries an error,
is missing, or fails a check. A non-converged rationing record is the
rule's documented outcome and is not a failure. Checks over a whole file
(``summary.csv``, monotonicity in ``alpha_supply``) report problems
without failing a single operation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

RULES = ("proportional", "mixed", "largest_first", "random")

#: LP optima must match HiGHS to this relative error.
LP_RTOL = 1e-9
#: slack for "at most the LP optimum": a converged allocation is feasible
#: only to 1e-9 of its largest entry per industry
BOUND_RTOL = 1e-7
#: tolerance of x = L f and of the ceilings, relative to max |x|, as in
#: the program's documented feasibility test
FEAS_RTOL = 1e-8
#: values the program derives by the same formula as the check
EXACT_RTOL = 1e-12
#: alpha_supply of every sweep-density command (alpha_demand is always 1)
DENSITY_ALPHA_SUPPLY = 1.0


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    #: operations that failed a check (not those that carry an error)
    violations: list = field(default_factory=list)
    #: whole-file check failures
    problems: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def correct(self):
        return not self.violations and not self.problems

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.violations += other.violations
        self.problems += other.problems
        self.errors += other.errors


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def close(a, b, rtol):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


class Point:
    """Reference quantities for one (economy, alphas) pair."""

    def __init__(self, Z, f, eps_s, eps_d, alpha_supply, alpha_demand):
        n = f.size
        self.Z, self.f = Z, f
        self.x = Z.sum(axis=1) + f
        self.A = Z / self.x[np.newaxis, :]
        self.L = np.linalg.inv(np.eye(n) - self.A)
        self.x_max = (1.0 - alpha_supply * eps_s) * self.x
        self.f_max = (1.0 - alpha_demand * eps_d) * f
        self.avg_multiplier = float(self.L.sum() / n)
        self.intermediate_share = float(Z.sum() / self.x.sum())
        self.out_opt, self.cons_opt = lp_optima(self.A, self.L, self.x_max, self.f_max)


def lp_optima(A, L, x_max, f_max):
    """Max Σ L f over 0 <= f <= f_max, L f <= x_max, and max Σ (I - A) x
    over 0 <= x <= x_max, 0 <= (I - A) x <= f_max, both by HiGHS."""
    n = f_max.size
    opts = {"primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10}
    out = linprog(-L.sum(axis=0), A_ub=L, b_ub=x_max,
                  bounds=list(zip(np.zeros(n), f_max)), method="highs", options=opts)
    M = np.eye(n) - A
    cons = linprog(-M.sum(axis=0), A_ub=np.vstack([M, -M]),
                   b_ub=np.concatenate([f_max, np.zeros(n)]),
                   bounds=list(zip(np.zeros(n), x_max)), method="highs", options=opts)
    if out.status != 0 or cons.status != 0:
        raise RuntimeError(f"reference LP did not solve: {out.message}; {cons.message}")
    return -out.fun, -cons.fun


def thinned(Z, master_seed, grid_index, replicate, target):
    """The flows after random link removal as ``ioshock.experiments.
    sweep_density`` does it: k = round((density - target) n^2) of the
    positive links in row-major order, chosen without replacement by a
    generator seeded with SeedSequence([master, grid index, replicate, 1]).

    The records' avg_multiplier and intermediate_share are compared with
    the economy rebuilt here, so a change to that rule shows as a failed
    check rather than passing unnoticed."""
    n = Z.shape[0]
    rows, cols = np.nonzero(Z > 0)
    k = int(round((rows.size / n**2 - target) * n**2))
    k = min(max(k, 0), rows.size)
    rng = np.random.default_rng(np.random.SeedSequence(
        [int(master_seed), int(grid_index), int(replicate), 1]))
    chosen = rng.choice(rows.size, size=k, replace=False)
    Z2 = np.array(Z)
    Z2[rows[chosen], cols[chosen]] = 0.0
    return Z2


def check_record(r, point):
    """Checks on one sweep record; returns the messages of those that fail."""
    bad = []
    method = r["method"]
    out, cons = float(r["total_output"]), float(r["total_consumption"])
    converged = r["converged"] == "true"
    if not close(float(r["avg_multiplier"]), point.avg_multiplier, 1e-9):
        bad.append(f"avg_multiplier {r['avg_multiplier']} != {point.avg_multiplier!r}")
    if not close(float(r["intermediate_share"]), point.intermediate_share, 1e-9):
        bad.append("intermediate_share differs from the recomputed economy")
    if not close(float(r["norm_output"]), out / point.x.sum(), EXACT_RTOL):
        bad.append("norm_output is not total_output / baseline output")
    if method == "direct":
        if not close(out, float(point.x_max.sum()), EXACT_RTOL):
            bad.append(f"direct output {out!r} != sum x_max {float(point.x_max.sum())!r}")
        if not close(cons, float(point.f_max.sum()), EXACT_RTOL):
            bad.append(f"direct consumption {cons!r} != sum f_max {float(point.f_max.sum())!r}")
    elif method == "lp_output" and not close(out, point.out_opt, LP_RTOL):
        bad.append(f"lp_output optimum {out!r} != HiGHS {point.out_opt!r}")
    elif method == "lp_consumption" and not close(cons, point.cons_opt, LP_RTOL):
        bad.append(f"lp_consumption optimum {cons!r} != HiGHS {point.cons_opt!r}")
    elif method in RULES and converged:
        if out > point.out_opt * (1 + BOUND_RTOL):
            bad.append(f"converged output {out!r} above LP optimum {point.out_opt!r}")
        if cons > point.cons_opt * (1 + BOUND_RTOL):
            bad.append(f"converged consumption {cons!r} above LP optimum {point.cons_opt!r}")
    # direct, the LPs and meem are recorded as converged whatever their
    # feasibility; the implication is a property of the rationing rules
    if method in RULES and converged and r["feasible"] != "true":
        bad.append("converged but not feasible")
    return bad


def check_sweep(rows, expected, report):
    """expected: ((grid label, replicate, method, sample), Point) pairs,
    one per operation, where the label is the grid value as written."""
    index = {}
    for r in rows:
        density = r["density_target"]
        label = r["alpha_supply"] if math.isnan(float(density)) else density
        index[(label, int(r["replicate"]), r["method"], int(r["sample"]))] = r
    for key, point in expected:
        report.attempted += 1
        r = index.pop(key, None)
        where = "sweep {} rep {} {} sample {}".format(*key)
        if r is None:
            report.failed += 1
            report.violations.append(f"{where}: record missing")
        elif r["error"]:
            report.failed += 1
            report.errors.append(f"{where}: {r['error']}")
        else:
            bad = check_record(r, point)
            if bad:
                report.failed += 1
                report.violations += [f"{where}: {msg}" for msg in bad]
    if index:
        report.problems.append(f"sweep.csv has {len(index)} unexpected records")


def check_monotone(rows, report):
    """LP optima must not increase as alpha_supply rises."""
    for method, col in (("lp_output", "total_output"), ("lp_consumption", "total_consumption")):
        pts = sorted((float(r["alpha_supply"]), float(r[col]))
                     for r in rows if r["method"] == method and not r["error"])
        for (a0, v0), (a1, v1) in zip(pts, pts[1:]):
            if v1 > v0 + LP_RTOL * max(abs(v0), 1.0):
                report.problems.append(
                    f"{method} optimum rises from {v0!r} at alpha {a0} to {v1!r} at {a1}")


def _quantile(sorted_vals, q):
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def check_summary(sweep_rows, summary_rows, report):
    """summary.csv must match counts, means and quartiles recomputed from
    sweep.csv, pooling replicates and samples per (grid point, method)."""
    groups = {}
    for r in sweep_rows:
        key = (r["alpha_supply"], r["alpha_demand"], r["density_target"], r["method"])
        groups.setdefault(key, []).append(r)
    seen = set()
    for s in summary_rows:
        key = (s["alpha_supply"], s["alpha_demand"], s["density_target"], s["method"])
        seen.add(key)
        rows = groups.get(key)
        if rows is None:
            report.problems.append(f"summary row {key} has no sweep records")
            continue
        ok = [r for r in rows if r["converged"] == "true" and not r["error"]]
        want = {"count": len(rows), "failures": len(rows) - len(ok)}
        for col in ("output", "consumption"):
            vals = sorted(float(r["norm_" + col]) for r in ok)
            if vals:
                want["mean_" + col] = math.fsum(vals) / len(vals)
                for q in (25, 50, 75):
                    want[f"q{q}_{col}"] = _quantile(vals, q / 100)
            else:
                for name in ("mean_", "q25_", "q50_", "q75_"):
                    want[name + col] = float("nan")
        for name, value in want.items():
            got = float(s[name])
            if not close(got, float(value), EXACT_RTOL):
                report.problems.append(f"summary {key} {name} = {got!r}, recomputed {value!r}")
    missing = set(groups) - seen
    if missing:
        report.problems.append(f"summary.csv lacks {len(missing)} groups, e.g. {sorted(missing)[0]}")


def check_allocations(rows, methods, point, report):
    """One operation per method block of allocations.csv."""
    n = point.f.size
    blocks = {}
    for r in rows:
        blocks.setdefault(r["method"], []).append(r)
    for method in methods:
        report.attempted += 1
        block = blocks.pop(method, None)
        where = f"allocations {method}"
        if block is None or len(block) != n:
            report.failed += 1
            report.violations.append(f"{where}: expected {n} rows")
            continue
        x = np.array([float(r["x"]) for r in block])
        f = np.array([float(r["f"]) for r in block])
        x_max = np.array([float(r["x_max"]) for r in block])
        f_max = np.array([float(r["f_max"]) for r in block])
        bad = []
        if not (np.allclose(x_max, point.x_max, rtol=EXACT_RTOL, atol=0)
                and np.allclose(f_max, point.f_max, rtol=EXACT_RTOL, atol=0)):
            bad.append("ceilings differ from the recomputed x_max, f_max")
        slack = FEAS_RTOL * max(float(np.abs(x).max()), 1.0)
        balanced = float(np.abs(x - point.L @ f).max()) <= slack
        if block[0]["feasible"] == "true":
            if (x < -slack).any() or (x > point.x_max + slack).any():
                bad.append("flagged feasible but x outside [0, x_max]")
            if (f < -slack).any() or (f > point.f_max + slack).any():
                bad.append("flagged feasible but f outside [0, f_max]")
            if not balanced:
                bad.append("flagged feasible but x != L f")
        if method == "meem" and not balanced:
            bad.append("meem allocation has x != L f")
        if method == "direct" and not (np.array_equal(x, x_max) and np.array_equal(f, f_max)):
            bad.append("direct allocation is not the ceilings")
        if method == "lp_output" and not close(float(x.sum()), point.out_opt, LP_RTOL):
            bad.append(f"lp_output total {float(x.sum())!r} != HiGHS {point.out_opt!r}")
        if method == "lp_consumption" and not close(float(f.sum()), point.cons_opt, LP_RTOL):
            bad.append(f"lp_consumption total {float(f.sum())!r} != HiGHS {point.cons_opt!r}")
        if method in RULES and block[0]["feasible"] == "true" and (
                x.sum() > point.out_opt * (1 + BOUND_RTOL)
                or f.sum() > point.cons_opt * (1 + BOUND_RTOL)):
            bad.append("feasible rationing total above the LP optimum")
        if bad:
            report.failed += 1
            report.violations += [f"{where}: {msg}" for msg in bad]
    if blocks:
        report.problems.append(f"allocations.csv has unexpected methods {sorted(blocks)}")


def check_output(spec, Z, f, eps_s, eps_d, out_dir):
    """Every check on one command's output directory.

    ``spec.grid`` holds alpha_supply values for ``sweep-scale`` and
    ``run``, density targets for ``sweep-density``; alpha_demand is 1.
    """
    report = Report()
    expected = []
    point = None
    for g, value in enumerate(spec.grid):
        for rep in range(spec.reps):
            if spec.subcommand == "sweep-density":
                point = Point(thinned(Z, spec.seed, g, rep, value), f,
                              eps_s, eps_d, DENSITY_ALPHA_SUPPLY, 1.0)
            elif rep == 0:
                point = Point(Z, f, eps_s, eps_d, value, 1.0)
            for method in spec.methods:
                for k in range(spec.samples if method == "random" else 1):
                    expected.append(((repr(float(value)), rep, method, k), point))
    sweep = read_csv(f"{out_dir}/sweep.csv")
    check_sweep(sweep, expected, report)
    check_summary(sweep, read_csv(f"{out_dir}/summary.csv"), report)
    if spec.subcommand == "sweep-scale":
        check_monotone(sweep, report)
    if spec.subcommand == "run":
        check_allocations(read_csv(f"{out_dir}/allocations.csv"), spec.methods, point, report)
    return report
