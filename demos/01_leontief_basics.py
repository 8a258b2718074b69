"""Build an economy from a CSV table and inspect its Leontief structure.

Walks through the accounting identities, the technical coefficients, the
Leontief inverse and the summary metrics on the bundled three-industry
chain economy.
"""

from pathlib import Path

import numpy as np

from ioshock import coefficients, metrics, parse_economy_csv, total_demand

DATA = Path(__file__).parent / "data"


def main():
    e = parse_economy_csv(DATA / "chain3.csv")
    print(f"economy with {e.n} industries: {', '.join(e.labels)}")
    print("intermediate flows Z:\n", e.Z)
    print("final demand f:     ", e.f)
    print("gross output  x:    ", e.x, "(row sums of Z plus f)")
    print("value added   v:    ", e.v, "(x minus column sums of Z)")
    assert np.isclose(e.v.sum(), e.f.sum()), "GDP identity"

    op = coefficients(e)
    print("\ntechnical coefficients A = Z diag(x)^-1:\n", np.round(op.A, 4))
    print("Leontief inverse L = (I - A)^-1:\n", np.round(op.L, 4))

    # L answers: how much output everywhere does one unit of consumption need?
    unit = np.zeros(e.n)
    unit[1] = 1.0
    print("\none extra unit of 'parts' consumption needs output",
          np.round(total_demand(op, unit), 4))

    m = metrics(e, op)
    print(f"\naverage output multiplier : {m.avg_multiplier:.4f}")
    print(f"intermediate share        : {m.intermediate_share:.4f}")
    print(f"network density           : {e.density:.4f}")


if __name__ == "__main__":
    main()
