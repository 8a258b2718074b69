"""Seeded synthetic economies and shock files for the benchmark.

The recipe extends ``random_economy`` in ``tests/conftest.py`` with a size
and a link density: a random technical-coefficient matrix whose entries
are present with probability ``density``, columns rescaled so each sums
to a value in [0.1, 0.9) (a productive economy), and final demand drawn
from [0.1, 10.1) so every industry keeps positive output however many of
its links are later removed. Gross output is x = (I - A)^-1 f and flows
are Z = A diag(x).

Files are written here, not with the program's own writer, so a change
to ``ioshock.fileio`` cannot change the benchmark's inputs. Numbers are
written with the shortest round-trip ``repr`` so the program parses back
exactly the arrays the checks recompute from.
"""

from __future__ import annotations

import numpy as np


def make_economy(seed: int, n: int, density: float):
    """(Z, f) for a seeded productive economy of n industries."""
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)) * (rng.random((n, n)) < density)
    col = A.sum(axis=0)
    target = 0.1 + 0.8 * rng.random(n)
    A = A / np.where(col > 0, col, 1.0)[np.newaxis, :] * target[np.newaxis, :]
    f = 0.1 + 10.0 * rng.random(n)
    x = np.linalg.solve(np.eye(n) - A, f)
    return A * x[np.newaxis, :], f


def make_shocks(seed: int, n: int):
    """(eps_supply, eps_demand): about 70 % of industries hit on each side,
    supply shocks below 0.8 and demand shocks below 0.5."""
    rng = np.random.default_rng([seed, 1])
    eps_s = 0.8 * rng.random(n) * (rng.random(n) < 0.7)
    eps_d = 0.5 * rng.random(n) * (rng.random(n) < 0.7)
    return eps_s, eps_d


def labels(n: int):
    return [f"S{k + 1:03d}" for k in range(n)]


def write_economy(path, Z, f):
    names = labels(f.size)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["industry", *names, "final_demand"]) + "\n")
        for i, name in enumerate(names):
            cells = [repr(float(v)) for v in Z[i]] + [repr(float(f[i]))]
            fh.write(",".join([name, *cells]) + "\n")


def write_shocks(path, eps_s, eps_d):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("industry,supply_shock,demand_shock\n")
        for name, s, d in zip(labels(eps_s.size), eps_s, eps_d):
            fh.write(f"{name},{float(s)!r},{float(d)!r}\n")
