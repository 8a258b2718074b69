"""CSV file formats: economies, shock files, result tables.

All files are UTF-8 comma-separated with ``.`` decimals; lines starting
with ``#`` are comments. Every emitted file opens with one provenance
comment line (seeds, tolerances, input digests as JSON); stripping it
yields strict CSV. Numbers are written with shortest round-trip repr so
reruns with the same inputs produce byte-identical files.

Input files are read one line at a time: an economy file goes row by row
straight into its arrays and never lives in memory as text, and inputs
are hashed in fixed-size chunks.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
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
from .experiments import AllocationRow, SweepRecord, SweepSummary
from .shocks import ShockScenario, _unit_interval, supply_shock

ECONOMY_GROSS_OUTPUT_RTOL = 1e-6

RAW_SHOCK_HEADER = ["industry", "rli", "essential_share", "demand_shock"]
DIRECT_SHOCK_HEADER = ["industry", "supply_shock", "demand_shock"]


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def _data_rows(path):
    """Yield (line_number, row) skipping comments and blank lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            row = next(csv.reader((line,)))
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


def _economy_header(header, path, lineno):
    """(labels, has_x) named by an economy file's header row."""
    if len(header) < 3 or header[0] != "industry":
        raise ParseError(f"{path}:{lineno}: header must start with 'industry'")
    has_x = header[-1] == "gross_output"
    fd_col = header[-2] if has_x else header[-1]
    if fd_col != "final_demand":
        raise ParseError(f"{path}:{lineno}: expected 'final_demand' column, got {fd_col!r}")
    return (header[1:-2] if has_x else header[1:-1]), has_x


def _economy_row(row, label, width, path, lineno):
    """The numbers of one economy data row: its flows, f and declared x."""
    if len(row) != width:
        raise ParseError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
    if row[0] != label:
        raise ParseError(
            f"{path}:{lineno}: row label {row[0]!r} does not match header order ({label!r})"
        )
    try:
        values = list(map(float, row[1:]))
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        # cell by cell, which raises the located error of the first bad one
        for col, cell in enumerate(row[1:], start=1):
            _parse_float(cell, path, lineno, col)
    return values


def parse_economy_csv(path) -> Economy:
    """Read an economy file: one supplier row of Z per industry plus f.

    Header is ``industry,<labels...>,final_demand`` with an optional
    trailing ``gross_output`` column cross-checked against the derived x.
    The file is read one row at a time straight into preallocated arrays,
    which the Economy takes over, so parsing holds about n**2 doubles (Z),
    never the text of every cell. Errors rank as if the whole file were
    read first: a line that does not decode, then the header, then
    the number of data rows, then the first bad row.
    """
    with contextlib.closing(_data_rows(path)) as rows:
        first = next(rows, None)
        if first is None:
            raise ParseError(f"{path}: no header row")
        header_lineno, header = first
        try:
            labels, has_x = _economy_header(header, path, header_lineno)
        except ParseError:
            for _ in rows:  # a line further on that does not decode outranks it
                pass
            raise
        n = len(labels)
        width = n + (3 if has_x else 2)
        Z = np.empty((n, n))
        f = np.empty(n)
        declared_x = np.empty(n) if has_x else None
        count, error = 0, None
        for lineno, row in rows:
            r, count = count, count + 1
            if r >= n or error is not None:
                continue  # only counted: a wrong row count outranks a bad row
            try:
                values = _economy_row(row, labels[r], width, path, lineno)
            except ParseError as exc:
                error = exc
                continue
            Z[r] = values[:n]
            f[r] = values[n]
            if has_x:
                declared_x[r] = values[n + 1]
    if count != n:
        raise ParseError(f"{path}: header names {n} industries but file has {count} data rows")
    if error is not None:
        raise error

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


def parse_shocks_csv(path, labels, percent=False, allow_missing=False) -> ShockScenario:
    """Read a shock file in raw (rli/essential) or direct (supply_shock) form.

    Industries are matched to economy labels. Missing industries are an
    error unless ``allow_missing`` is set, in which case they get zero
    shocks. ``percent`` rescales all values by 1/100. Both alphas are 1;
    ``ShockScenario.with_alphas`` sets others.
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
            eps_s[i] = (supply_shock(values[0], values[1]) if raw
                        else _unit_interval("supply_shock", values[0]))
            eps_d[i] = _unit_interval("demand_shock", values[-1])
        except OutOfRange as exc:
            raise OutOfRange(f"{path}:{lineno}: {exc}") from None

    missing = [label for label in labels if label not in seen]
    if missing and not allow_missing:
        raise MissingIndustry(
            f"{path}: no shock row for {missing[:5]}; pass allow_missing to zero-fill"
        )
    return ShockScenario(eps_s, eps_d)


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
    """Serialize an Economy; re-parsing yields bit-identical Z, f and labels.

    Raises ParseError, before writing anything, for a label the format
    cannot carry back: empty, with surrounding blanks (cells are stripped),
    starting with ``#`` (a comment line) or holding a line break.
    """
    for label in e.labels:
        if (not label or label != label.strip() or label.startswith("#")
                or "\n" in label or "\r" in label):
            raise ParseError(f"industry label {label!r} would not read back "
                             f"from an economy file")
    header = ["industry", *e.labels, "final_demand", "gross_output"]
    rows = [[e.labels[i], *e.Z[i], e.f[i], e.x[i]] for i in range(e.n)]
    _write_csv(path, provenance or {}, header, rows)


def write_results(out_dir, allocations, sweep_records, summaries, provenance):
    """Write allocations.csv, sweep.csv and summary.csv into out_dir and
    return their paths. Each table's columns are the fields of its record
    type, so a table with no records still has its header. ``allocations``
    None writes no allocations.csv, as for a sweep."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, kind, records in (("allocations.csv", AllocationRow, allocations),
                                ("sweep.csv", SweepRecord, sweep_records),
                                ("summary.csv", SweepSummary, summaries)):
        if records is not None:
            header = [field.name for field in dataclasses.fields(kind)]
            paths.append(os.path.join(out_dir, name))
            _write_csv(paths[-1], provenance, header,
                       ([getattr(r, col) for col in header] for r in records))
    return paths
