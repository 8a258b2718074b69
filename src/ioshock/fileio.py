"""CSV file formats: economies, shock files, result tables.

All files are UTF-8 comma-separated with ``.`` decimals; lines starting
with ``#`` are comments. Every emitted file opens with one provenance
comment line (seeds, tolerances, input digests as JSON); stripping it
yields strict CSV. Numbers are written with shortest round-trip repr so
reruns with the same inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from .economy import Economy, build_economy
from .errors import (
    IdentityViolation,
    MissingIndustry,
    OutOfRange,
    ParseError,
    UnknownIndustry,
)
from .shocks import ShockScenario, supply_shock

ECONOMY_GROSS_OUTPUT_RTOL = 1e-6

RAW_SHOCK_HEADER = ["industry", "rli", "essential_share", "demand_shock"]
DIRECT_SHOCK_HEADER = ["industry", "supply_shock", "demand_shock"]

ALLOCATIONS_HEADER = ["industry", "method", "x", "f", "x_max", "f_max",
                      "feasible", "iterations"]
SWEEP_HEADER = ["alpha_supply", "alpha_demand", "density_target", "method",
                "replicate", "sample", "total_output", "total_consumption",
                "norm_output", "norm_consumption", "feasible", "converged",
                "avg_multiplier", "intermediate_share", "error"]
SUMMARY_HEADER = ["alpha_supply", "alpha_demand", "density_target", "method",
                  "count", "failures",
                  "mean_output", "q25_output", "q50_output", "q75_output",
                  "mean_consumption", "q25_consumption", "q50_consumption",
                  "q75_consumption"]


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _data_rows(path):
    """Yield (line_number, row) skipping comments and blank lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            row = next(csv.reader(io.StringIO(line)))
            yield lineno, [cell.strip() for cell in row]


def _parse_float(cell, path, lineno, col):
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"{path}:{lineno} column {col + 1}: {cell!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"{path}:{lineno} column {col + 1}: {cell!r} is not finite")
    return value


def parse_economy_csv(path) -> Economy:
    """Read an economy file: one supplier row of Z per industry plus f.

    Header is ``industry,<labels...>,final_demand`` with an optional
    trailing ``gross_output`` column cross-checked against the derived x.
    """
    rows = list(_data_rows(path))
    if not rows:
        raise ParseError(f"{path}: no header row")
    (header_lineno, header), data = rows[0], rows[1:]
    if len(header) < 3 or header[0] != "industry":
        raise ParseError(f"{path}:{header_lineno}: header must start with 'industry'")
    has_x = header[-1] == "gross_output"
    labels = header[1:-2] if has_x else header[1:-1]
    fd_col = header[-2] if has_x else header[-1]
    if fd_col != "final_demand":
        raise ParseError(f"{path}:{header_lineno}: expected 'final_demand' column, got {fd_col!r}")
    n = len(labels)
    if len(data) != n:
        raise ParseError(f"{path}: header names {n} industries but file has {len(data)} data rows")

    Z = np.zeros((n, n))
    f = np.zeros(n)
    declared_x = np.zeros(n) if has_x else None
    width = n + (3 if has_x else 2)
    for r, (lineno, row) in enumerate(data):
        if len(row) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
        if row[0] != labels[r]:
            raise ParseError(
                f"{path}:{lineno}: row label {row[0]!r} does not match header order ({labels[r]!r})"
            )
        for j in range(n):
            Z[r, j] = _parse_float(row[1 + j], path, lineno, 1 + j)
        f[r] = _parse_float(row[1 + n], path, lineno, 1 + n)
        if has_x:
            declared_x[r] = _parse_float(row[2 + n], path, lineno, 2 + n)

    e = build_economy(Z, f, labels=labels)
    if has_x:
        scale = np.maximum(np.abs(e.x), 1.0)
        bad = np.flatnonzero(np.abs(declared_x - e.x) > ECONOMY_GROSS_OUTPUT_RTOL * scale)
        if bad.size:
            i = int(bad[0])
            raise IdentityViolation(
                f"{path}: declared gross_output {declared_x[i]} for {labels[i]} "
                f"disagrees with derived {e.x[i]}"
            )
    return e


def parse_shocks_csv(path, labels, percent=False, allow_missing=False,
                     alpha_supply=1.0, alpha_demand=1.0) -> ShockScenario:
    """Read a shock file in raw (rli/essential) or direct (supply_shock) form.

    Industries are matched to economy labels. Missing industries are an
    error unless ``allow_missing`` is set, in which case they get zero
    shocks. ``percent`` rescales all values by 1/100.
    """
    rows = list(_data_rows(path))
    if not rows:
        raise ParseError(f"{path}: no header row")
    (header_lineno, header), data = rows[0], rows[1:]
    if header == RAW_SHOCK_HEADER:
        raw = True
    elif header == DIRECT_SHOCK_HEADER:
        raw = False
    else:
        raise ParseError(
            f"{path}:{header_lineno}: header must be "
            f"{','.join(RAW_SHOCK_HEADER)} or {','.join(DIRECT_SHOCK_HEADER)}"
        )

    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    eps_s = np.zeros(n)
    eps_d = np.zeros(n)
    seen = set()
    scale = 0.01 if percent else 1.0
    for lineno, row in data:
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        label = row[0]
        if label not in index:
            raise UnknownIndustry(f"{path}:{lineno}: industry {label!r} not in the economy")
        if label in seen:
            raise ParseError(f"{path}:{lineno}: duplicate industry {label!r}")
        seen.add(label)
        i = index[label]
        values = [scale * _parse_float(cell, path, lineno, col)
                  for col, cell in enumerate(row[1:], start=1)]
        try:
            if raw:
                rli, essential, demand = values
                eps_s[i] = supply_shock(rli, essential)
                eps_d[i] = _require_unit(demand, "demand_shock", path, lineno)
            else:
                supply, demand = values
                eps_s[i] = _require_unit(supply, "supply_shock", path, lineno)
                eps_d[i] = _require_unit(demand, "demand_shock", path, lineno)
        except OutOfRange as exc:
            raise OutOfRange(f"{path}:{lineno}: {exc}") from None

    missing = [label for label in labels if label not in seen]
    if missing and not allow_missing:
        raise MissingIndustry(
            f"{path}: no shock row for {missing[:5]}; pass allow_missing to zero-fill"
        )
    return ShockScenario(eps_s, eps_d, alpha_supply, alpha_demand)


def _require_unit(value, name, path, lineno):
    if not 0 <= value <= 1:
        raise OutOfRange(f"{name} {value} outside [0, 1]")
    return value


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path, provenance, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(provenance, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_economy_csv(path, e: Economy, provenance=None):
    """Serialize an Economy; re-parsing yields bit-identical Z and f."""
    header = ["industry", *e.labels, "final_demand", "gross_output"]
    rows = [[e.labels[i], *e.Z[i], e.f[i], e.x[i]] for i in range(e.n)]
    _write_csv(path, provenance or {}, header, rows)


def write_results(out_dir, economy, constraints, allocations,
                  sweep_records=(), summaries=(), provenance=None):
    """Write allocations.csv, sweep.csv and summary.csv into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    provenance = provenance or {}
    alloc_rows = []
    for a in allocations:
        for i, label in enumerate(economy.labels):
            alloc_rows.append([
                label, a.method, a.x[i], a.f[i],
                constraints.x_max[i], constraints.f_max[i],
                a.feasible, a.iterations,
            ])
    _write_csv(os.path.join(out_dir, "allocations.csv"), provenance,
               ALLOCATIONS_HEADER, alloc_rows)
    _write_csv(os.path.join(out_dir, "sweep.csv"), provenance, SWEEP_HEADER,
               [[r.alpha_supply, r.alpha_demand, r.density_target, r.method,
                 r.replicate, r.sample, r.total_output, r.total_consumption,
                 r.norm_output, r.norm_consumption, r.feasible, r.converged,
                 r.avg_multiplier, r.intermediate_share, r.error]
                for r in sweep_records])
    _write_csv(os.path.join(out_dir, "summary.csv"), provenance, SUMMARY_HEADER,
               [[s.alpha_supply, s.alpha_demand, s.density_target, s.method,
                 s.count, s.failures,
                 s.mean_output, s.q25_output, s.q50_output, s.q75_output,
                 s.mean_consumption, s.q25_consumption, s.q50_consumption,
                 s.q75_consumption]
                for s in summaries])
    return [os.path.join(out_dir, name)
            for name in ("allocations.csv", "sweep.csv", "summary.csv")]
