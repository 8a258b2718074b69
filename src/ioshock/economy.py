"""Input-output accounting core.

Holds the economy data model (flow matrix, final demand, gross output,
value added), the Leontief algebra built on top of it, and the network
surgery (link removal with rebalancing) used by the density experiments.

Conventions: ``Z[i, j]`` is the value of goods sold by industry ``i`` to
industry ``j`` per period. Row sums plus final demand give gross output;
column sums plus value added give the same gross output from the cost
side. All indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    KTooLarge,
    NegativeEntry,
    NonProductive,
    ZeroOutputWithInputs,
)

# Any Leontief-inverse entry below this is treated as a Hawkins-Simon
# violation rather than numerical noise.
_HS_TOLERANCE = -1e-10


@dataclass(frozen=True)
class Economy:
    """An input-output accounting state.

    Both accounting identities hold by construction:
    ``x = Z.sum(axis=1) + f`` and ``x = Z.sum(axis=0) + v``.
    """

    labels: tuple[str, ...]
    Z: np.ndarray
    f: np.ndarray
    x: np.ndarray
    v: np.ndarray
    #: True if the input data force a negative value-added entry.
    negative_value_added: bool = False

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def density(self) -> float:
        """Share of the n**2 flows that are positive."""
        return float(np.count_nonzero(self.Z > 0) / self.n**2)


@dataclass(frozen=True)
class LeontiefOperator:
    """Technical coefficients and the Leontief inverse of an Economy."""

    A: np.ndarray
    L: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class EconomyMetrics:
    """Aggregate indicators used by the density experiments."""

    avg_multiplier: float
    intermediate_share: float
    total_output: float
    total_consumption: float


def build_economy(Z, f, labels=None) -> Economy:
    """Construct an Economy from a flow matrix and final demand.

    Gross output and value added are derived from the two accounting
    identities. The caller hands Z and f over: float arrays are kept, not
    copied, and made read-only; lists and other dtypes are copied first.
    Raises NegativeEntry or DimensionMismatch on bad input.
    """
    Z = np.asarray(Z, dtype=float)
    f = np.asarray(f, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise DimensionMismatch(f"flow matrix must be square, got {Z.shape}")
    n = Z.shape[0]
    if f.shape != (n,):
        raise DimensionMismatch(f"final demand has shape {f.shape}, expected ({n},)")
    if np.any(Z < 0):
        i, j = np.argwhere(Z < 0)[0]
        raise NegativeEntry(f"Z[{i},{j}] = {Z[i, j]} is negative")
    if np.any(f < 0):
        i = int(np.argmin(f))
        raise NegativeEntry(f"f[{i}] = {f[i]} is negative")
    if labels is None:
        labels = tuple(f"I{k + 1}" for k in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise DimensionMismatch(f"{len(labels)} labels for {n} industries")
    x = Z.sum(axis=1) + f
    v = x - Z.sum(axis=0)
    for a in (Z, f, x, v):
        a.setflags(write=False)
    return Economy(labels, Z, f, x, v, negative_value_added=bool(np.any(v < 0)))


def coefficients(e: Economy) -> LeontiefOperator:
    """Derive A = Z diag(x)^-1 and L = (I - A)^-1 with ``numpy.linalg.inv``
    (one dense LU factorization).

    Industries with zero output must have an all-zero input column (their
    A column is zero). Raises NonProductive if (I - A) is singular or the
    inverse carries negative entries (Hawkins-Simon failure). Holds about
    three n x n arrays at its peak: A, I - A and L.
    """
    x = e.x
    zero_out = x <= 0
    if np.any(zero_out):
        bad = np.flatnonzero(zero_out & (e.Z.sum(axis=0) > 0))
        if bad.size:
            j = int(bad[0])
            raise ZeroOutputWithInputs(
                f"industry {e.labels[j]} has zero output but nonzero inputs"
            )
    denom = np.where(zero_out, 1.0, x)
    A = e.Z / denom[np.newaxis, :]
    # 0 - A, then the diagonal + 1: bitwise np.eye(n) - A, signed zeros too
    ImA = np.subtract(0.0, A)
    ImA[np.diag_indices_from(ImA)] += 1.0
    try:
        L = np.linalg.inv(ImA)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NonProductive(f"(I - A) is singular: {exc}") from exc
    if not np.all(np.isfinite(L)):
        raise NonProductive("(I - A) is numerically singular")
    if np.min(L) < _HS_TOLERANCE:
        raise NonProductive(
            f"Leontief inverse has entry {np.min(L):.3e} < {_HS_TOLERANCE}"
        )
    A.setflags(write=False)
    L.setflags(write=False)
    return LeontiefOperator(A=A, L=L)


def total_demand(op: LeontiefOperator, f) -> np.ndarray:
    """Total (direct plus indirect) output demanded to serve consumption f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (op.n,):
        raise DimensionMismatch(f"consumption has shape {f.shape}, expected ({op.n},)")
    return op.L @ f


def remove_links(e: Economy, rows, cols) -> Economy:
    """Zero out the supplier-customer links (rows[t], cols[t]) and rebalance.

    The supplier's gross output shrinks so the row identity keeps holding;
    the customer's output is unchanged, with the lost intermediate input
    absorbed into its value added. Final demand is never touched.
    """
    Z = np.array(e.Z)
    Z[rows, cols] = 0.0
    return build_economy(Z, e.f, labels=e.labels)


def smallest_links(e: Economy, k: int):
    """The k strictly positive links with smallest flow, ascending, as
    index arrays (rows, cols).

    Ties break by (row, column) index order. Raises KTooLarge when fewer
    than k positive links exist.
    """
    rows, cols = np.nonzero(e.Z > 0)
    if k > rows.size:
        raise KTooLarge(f"asked for {k} links but only {rows.size} are positive")
    values = e.Z[rows, cols]
    order = np.lexsort((cols, rows, values))[:k]
    return rows[order], cols[order]


def metrics(e: Economy, op: LeontiefOperator) -> EconomyMetrics:
    """Aggregate multiplier, intermediate share and totals."""
    n = e.n
    return EconomyMetrics(
        avg_multiplier=float(op.L.sum() / n),
        intermediate_share=float(e.Z.sum() / e.x.sum()) if e.x.sum() > 0 else 0.0,
        total_output=float(e.x.sum()),
        total_consumption=float(e.f.sum()),
    )
