"""Rewrite the golden corpus: the result tables of a few seeded commands.

    python3 tests/golden/regen.py

Each case in ``CASES`` runs ``python -m ioshock.cli`` in a child process
with one BLAS thread and leaves its result tables and standard error in
``tests/golden/<case>/``. ``manifest.json`` records the numpy and the
BLAS the corpus was made with: ``tests/test_golden.py`` compares bytes
where they match this machine's and numbers where they do not.

A change that moves outputs on purpose regenerates the corpus in the
same commit, so the diff shows every row that moved. The n=56 inputs
next to this script are fixed files; nothing here rewrites them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
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


def main():
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            run_case(argv, Path(tmp, name), env)
        for name in CASES:
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            shutil.copytree(Path(tmp, name), GOLDEN / name)
    # the children's numpy is this interpreter's
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest(), indent=1) + "\n",
                                          encoding="utf-8")


if __name__ == "__main__":
    main()
