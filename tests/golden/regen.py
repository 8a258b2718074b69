"""Rewrite the golden corpus: the result tables of a few seeded commands.

    python3 tests/golden/regen.py

Each case in ``CASES`` runs ``python -m ioshock.cli`` in a child process
with one BLAS thread and leaves its result tables and standard error in
``tests/golden/<case>/``. ``manifest.json`` records the numpy and the
BLAS the corpus was made with: ``tests/test_golden.py`` compares bytes
where they match this machine's and numbers where they do not.

A change that moves outputs on purpose regenerates the corpus in the
same commit. Before it rewrites a case, the script prints what moved in
each file: whether the file is new or lost, a new header or provenance
line, rows added or lost, and each row whose values moved, keyed by its
point and method (and industry in ``allocations.csv``) with its largest
relative change. The n=56 inputs next to this script are fixed files;
nothing here rewrites them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
REPO = GOLDEN.parents[1]

#: one BLAS thread: from n of about 120 the thread count moves last bits
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS")}

CHAIN3 = ["--economy", str(REPO / "demos" / "data" / "chain3.csv"),
          "--shocks", str(REPO / "demos" / "data" / "chain3_shocks.csv")]
#: seed 0 of benchmarks/inputs.py at n=56, link density 0.8
N56 = ["--economy", str(GOLDEN / "economy56.csv"),
       "--shocks", str(GOLDEN / "shocks56.csv")]

#: case name -> CLI arguments, less --out
CASES = {
    "chain3-run": ["run", *CHAIN3, "--reps", "2", "--samples", "8", "--seed", "42"],
    "chain3-scale": ["sweep-scale", *CHAIN3, "--alpha-supply", "0:1:0.25"],
    "n56-scale": ["sweep-scale", *N56, "--alpha-supply", "0:1:0.25",
                  "--samples", "4"],
    "n56-density": ["sweep-density", *N56, "--densities", "0.3:0.05:-0.05",
                    "--samples", "4", "--reps", "2", "--max-iter", "3000"],
}

STDERR = "stderr.txt"

#: columns that name a row of a result table: its point, its method, its
#: replicate and sample, and its industry; every other column is a value
KEY_COLUMNS = ("alpha_supply", "alpha_demand", "density_target", "method",
               "replicate", "sample", "industry")

#: moved rows listed per file, largest change first
LISTED = 10


def manifest():
    """The numpy version and the BLAS numpy was built against."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = None
    return {"numpy": np.__version__, "blas": blas}


def run_case(argv, out, env):
    """Run one case's command with its tables written into ``out``, and
    keep its standard error next to them."""
    proc = subprocess.run([sys.executable, "-m", "ioshock.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr[-500:]}")
    Path(out, STDERR).write_text(proc.stderr, encoding="utf-8")


def _relative_change(old, new):
    """The largest relative change between two rows of value cells;
    infinity when a cell that is not a number changed."""
    worst = 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        try:
            x, y = float(a), float(b)
        except ValueError:
            return math.inf
        scale = max(abs(x), abs(y))
        change = abs(x - y) / scale if scale > 0 else math.inf
        # a NaN on one side, or inf against -inf, gives NaN: count it as inf
        worst = max(worst, change if change == change else math.inf)
    return worst


def _keyed(header, body, keys, values):
    """Row key -> value cells, per row of ``body``; a key that repeats
    gets its occurrence number appended."""
    ki = [header.index(c) for c in keys]
    vi = [header.index(c) for c in values]
    out, seen = {}, Counter()
    for row in body:
        key = " ".join(f"{header[i]}={row[i]}" for i in ki)
        seen[key] += 1
        out[key if seen[key] == 1 else f"{key} #{seen[key]}"] = [row[i] for i in vi]
    return out


def describe_table(old, new):
    """Lines that say how result table ``new`` departs from ``old``."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    lines = []
    if old_lines[:1] != new_lines[:1]:
        lines.append("new provenance line")
    (old_header, *old_body) = list(csv.reader(old_lines[1:]))
    (new_header, *new_body) = list(csv.reader(new_lines[1:]))
    if old_header != new_header:
        lines.append(f"new header: {','.join(new_header)}")
    shared = [c for c in new_header if c in old_header]
    keys = [c for c in shared if c in KEY_COLUMNS]
    values = [c for c in shared if c not in KEY_COLUMNS]
    before = _keyed(old_header, old_body, keys, values)
    after = _keyed(new_header, new_body, keys, values)
    lost = [k for k in before if k not in after]
    added = [k for k in after if k not in before]
    if lost:
        lines.append(f"{len(lost)} rows lost, first: {lost[0]}")
    if added:
        lines.append(f"{len(added)} rows added, first: {added[0]}")
    moved = sorted(((_relative_change(before[k], after[k]), k)
                    for k in before if k in after and before[k] != after[k]),
                   reverse=True)
    if moved:
        lines.append(f"{len(moved)} of {len(after)} rows moved, largest relative "
                     f"change {moved[0][0]:.3g}")
        lines += [f"  {k}: {change:.3g}" for change, k in moved[:LISTED]]
        if len(moved) > LISTED:
            lines.append(f"  ... and {len(moved) - LISTED} more")
    elif not (lost or added):
        lines.append(f"all {len(after)} rows unchanged in the shared columns")
    return lines


def describe(old_dir, new_dir):
    """One line or more per file of two case directories: what is new,
    lost or moved from ``old_dir`` to ``new_dir``."""
    names = sorted({p.name for d in (old_dir, new_dir) if d.is_dir()
                    for p in d.iterdir()})
    lines = []
    for name in names:
        old, new = Path(old_dir, name), Path(new_dir, name)
        if not old.exists():
            count = len(new.read_text(encoding="utf-8").splitlines())
            # a result table's first two lines are provenance and header
            rows = f"{count - 2} rows" if name.endswith(".csv") else f"{count} lines"
            lines.append(f"{name}: new, {rows}")
        elif not new.exists():
            lines.append(f"{name}: lost")
        else:
            a = old.read_text(encoding="utf-8")
            b = new.read_text(encoding="utf-8")
            if a == b:
                lines.append(f"{name}: unchanged")
            elif name == STDERR:
                a_lines, b_lines = a.splitlines(), b.splitlines()
                lines.append(f"{name}: changed")
                lines += [f"  - {line}" for line in a_lines if line not in b_lines]
                lines += [f"  + {line}" for line in b_lines if line not in a_lines]
            else:
                lines += [f"{name}: {line}" for line in describe_table(a, b)]
    return lines


def main():
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            run_case(argv, Path(tmp, name), env)
        for name in CASES:
            for line in describe(GOLDEN / name, Path(tmp, name)):
                print(f"{name}/{line}")
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            shutil.copytree(Path(tmp, name), GOLDEN / name)
    # the children's numpy is this interpreter's
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest(), indent=1) + "\n",
                                          encoding="utf-8")


if __name__ == "__main__":
    main()
