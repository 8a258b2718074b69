"""Sweep the shock magnitude and tabulate how each method degrades.

Scales the bundled supply shock from 0% to 100% in ten steps and prints
normalized total output per method — the plot-ready counterpart of a
shock-amplification figure.
"""

from pathlib import Path

from ioshock import (
    SweepSpec,
    parse_economy_csv,
    parse_shocks_csv,
    summarize,
    sweep_scale,
)

DATA = Path(__file__).parent / "data"
METHODS = ("direct", "lp_output", "proportional", "mixed",
           "largest_first", "random", "meem")


def main():
    e = parse_economy_csv(DATA / "chain3.csv")
    s = parse_shocks_csv(DATA / "chain3_shocks.csv", e.labels)

    grid = tuple((a / 10.0, a / 10.0) for a in range(11))
    spec = SweepSpec(methods=METHODS, grid=grid, random_samples=25,
                     master_seed=42)
    records, _ = sweep_scale(e, s, spec)
    summaries = summarize(records)

    print("normalized total output by shock scale")
    print("alpha  " + "".join(f"{m:>15}" for m in METHODS))
    for alpha, _ in grid:
        row = {t.method: t for t in summaries if t.alpha_supply == alpha}
        cells = "".join(f"{row[m].mean_output:>15.4f}" for m in METHODS)
        print(f"{alpha:>5.1f}  {cells}")

    print("\nnotes:")
    print("- 'direct' ignores propagation, so it only tracks the shock itself")
    print("- the LP is the feasible best case; rationing rules fall below it")
    print("- 'random' is averaged over 25 seeded rankings per grid point")


if __name__ == "__main__":
    main()
