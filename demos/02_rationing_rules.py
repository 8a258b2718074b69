"""Compare the allocation rules on one shocked economy.

Applies a 50% capacity shock to the upstream supplier of the bundled
chain economy and contrasts the best-case LP allocations, the four
bottom-up rationing rules, and the mixed endogenous/exogenous block
solve — including the point where the latter produces negative
consumption.
"""

from pathlib import Path

import numpy as np

from ioshock import (
    SweepSpec,
    aggregate_shocks,
    classify,
    coefficients,
    make_constraints,
    optimal_allocation,
    parse_economy_csv,
    parse_shocks_csv,
    ration_largest_first,
    ration_mixed,
    ration_proportional,
    solve_meem,
    summarize,
    sweep_scale,
)

DATA = Path(__file__).parent / "data"


def show(name, x, f, note=""):
    print(f"{name:<22} x={np.round(x, 3)}  f={np.round(f, 3)} "
          f" total output={x.sum():.3f} {note}")


def main():
    e = parse_economy_csv(DATA / "chain3.csv")
    s = parse_shocks_csv(DATA / "chain3_shocks.csv", e.labels)
    op = coefficients(e)
    c = make_constraints(e, s)
    eps_s, eps_d = aggregate_shocks(e, c)
    print(f"aggregate supply shock {eps_s:.3f}, demand shock {eps_d:.3f}")
    print("output ceilings     x_max =", c.x_max)
    print("consumption ceilings f_max =", c.f_max, "\n")

    best = optimal_allocation(op, c, "output")
    show("lp best-case output", best.x, best.f)
    cons = optimal_allocation(op, c, "consumption")
    show("lp best consumption", cons.x, cons.f)

    for name, rule in [("proportional", ration_proportional),
                       ("mixed prop./priority", ration_mixed),
                       ("largest first", ration_largest_first)]:
        res = rule(e, op, c)
        show(name, res.x, res.f,
             f"({res.iterations} sweeps)")

    spec = SweepSpec(methods=("random",), grid=((1.0, 1.0),),
                     random_samples=100, master_seed=0)
    (stats,) = summarize(sweep_scale(e, s, spec))
    # summaries hold output normalized by the baseline total
    mean, q25, q50, q75 = (e.x.sum() * v for v in (
        stats.mean_output, stats.q25_output, stats.q50_output, stats.q75_output))
    print(f"{'random (100 samples)':<22} mean output={mean:.3f} "
          f" quartiles=({q25:.2f}, {q50:.2f}, {q75:.2f})")

    sol = solve_meem(e, op, c, classify(e, c))
    show("\nmeem block solve", sol.x, sol.f)
    if not sol.feasible:
        where = [e.labels[i] for i in np.flatnonzero(sol.negative_consumption)]
        print("meem is infeasible here: negative consumption for", where)
        print("the rationing rules above stay feasible by construction")


if __name__ == "__main__":
    main()
