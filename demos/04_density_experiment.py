"""Thin a random production network and watch shock amplification change.

Generates a denser synthetic economy, removes links to hit a range of
density targets (rebalancing the accounts after each removal), re-applies
the same shock scenario and summarizes the outcome distribution per
density level.
"""

import numpy as np

from ioshock import (
    ShockScenario,
    SweepSpec,
    build_economy,
    coefficients,
    make_constraints,
    metrics,
    summarize,
    sweep_density,
)


def synthetic_economy(n=8, seed=3):
    """A random productive economy with roughly 60% of links present."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.05, 0.6, size=(n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(A, 0.0)
    A *= 0.8 / np.maximum(A.sum(axis=0), 1.0)  # keep it productive
    f = rng.uniform(2.0, 10.0, size=n)
    x = np.linalg.solve(np.eye(n) - A, f)
    return build_economy(A * x[np.newaxis, :], f)


def main():
    e = synthetic_economy()
    m = metrics(e, coefficients(e))
    print(f"synthetic economy: n={e.n}, density={m.density:.3f}, "
          f"avg multiplier={m.avg_multiplier:.3f}")

    rng = np.random.default_rng(7)
    scenario = ShockScenario(rng.uniform(0.0, 0.6, e.n), np.zeros(e.n))
    c = make_constraints(e, scenario)
    print(f"shock removes {1 - c.x_max.sum() / e.x.sum():.1%} "
          "of aggregate capacity\n")

    targets = tuple(round(m.density - 0.1 * k, 3) for k in range(4))
    spec = SweepSpec(methods=("lp_output", "proportional", "largest_first"),
                     grid=targets, repetitions=20, master_seed=11)
    summaries = summarize(sweep_density(e, scenario, spec))

    print("normalized output, pooled over 20 random link-removal replicates")
    print(f"{'density':>8} {'method':>15} {'mean':>8} {'q25':>8} {'q75':>8}")
    for t in summaries:
        print(f"{t.density_target:>8.3f} {t.method:>15} "
              f"{t.mean_output:>8.4f} {t.q25_output:>8.4f} {t.q75_output:>8.4f}")

    print("\nsparser networks concentrate dependencies: removing links")
    print("shifts output between methods and widens the replicate spread")


if __name__ == "__main__":
    main()
