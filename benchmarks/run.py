"""Layered benchmark for ioshock.

    python3 benchmarks/run.py --workload scale-dense --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py                  # every workload, untraced and traced

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/``. With ``--trace 0`` each round runs the
workload's CLI commands as child processes and the result holds the
end-to-end metrics. With ``--trace 1`` the same commands run in this
process through ``ioshock.cli.run_command``, once plain and once with
spans installed around the program's public functions, and the result
holds the per-layer metrics. Either way the outputs are checked against
numpy and HiGHS outside the timed region, and the last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc on any machine), fixed before numpy loads,
# for this process and the child processes it starts.
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

ALL_METHODS = ("direct", "lp_output", "lp_consumption", "proportional",
               "mixed", "largest_first", "random", "meem")
#: lp_consumption ends in SolverFailure on some seeds of sparse economies
#: (see README.md, Known faults), so run-large leaves it out
NO_LP_CONSUMPTION = tuple(m for m in ALL_METHODS if m != "lp_consumption")
#: methods that neither fail nor stall on seeded thinned economies
STEADY_METHODS = ("direct", "lp_output", "proportional", "mixed", "meem")
#: economy and master seed of the fixed cases in run-large and density-thin
FIXED_SEED = 0
#: the LPs alone, for the fixed dense supply sweep of run-large
LP_METHODS = ("direct", "lp_output", "lp_consumption")
SETUP_REPEATS = 5
RESULT_FILES = ("allocations.csv", "sweep.csv", "summary.csv")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    [f"rationing.{r}_{k}" for r in tracing.RULES
     for k in ("s", "calls", "iters", "s_per_iter", "nonconverged")]
    + ["rationing.rankings_s", "rationing.useful_iter_ratio",
       "lp.solve_s", "lp.build_s", "lp.solves", "lp.pivots", "lp.s_per_pivot",
       "lp.failed", "experiments.evals", "experiments.self_s",
       "experiments.summarize_s", "fileio.parse_economy_s",
       "fileio.parse_shocks_s", "fileio.write_results_s", "fileio.bytes_written",
       "economy.coefficients_s", "economy.coefficients_calls",
       "economy.remove_links_s", "shocks.make_constraints_s",
       "shocks.feasibility_check_s", "meem.s", "meem.calls", "meem.violations",
       "cli.self_s", "trace.overhead_s"])


def layer_unit(name):
    if name.endswith(("_s", ".s", "_per_iter", "_per_pivot")):
        return "s"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


@dataclass(frozen=True)
class Spec:
    """One CLI command of a workload, with what the checks need to know."""

    subcommand: str
    #: seeds the economy, the shocks and the program's master seed
    seed: int
    n: int
    link_density: float
    #: alpha_supply values (sweep-scale, run) or density targets, and the
    #: same grid as the CLI takes it
    grid: tuple
    grid_arg: str
    reps: int = 1
    samples: int = 1
    methods: tuple = ALL_METHODS
    max_iter: int = 500

    def argv(self, economy, shocks, out):
        argv = [self.subcommand, "--economy", economy, "--shocks", shocks,
                "--out", out, "--methods", ",".join(self.methods),
                "--seed", str(self.seed), "--samples", str(self.samples),
                "--reps", str(self.reps), "--max-iter", str(self.max_iter)]
        if self.subcommand == "sweep-density":
            return argv + ["--densities", self.grid_arg,
                           "--alpha-supply", repr(checks.DENSITY_ALPHA_SUPPLY)]
        return argv + ["--alpha-supply", self.grid_arg]


def workload(name, seed):
    """The commands of one workload; sizes are explained in README.md."""
    if name == "scale-dense":
        return [Spec("sweep-scale", seed, 56, 0.8,
                     tuple(round(k / 10, 12) for k in range(11)), "0:1:0.1",
                     samples=100, max_iter=10)]
    if name == "run-large":
        return [Spec("run", seed, 250, 0.3, (0.5,), "0.5", samples=10,
                     methods=NO_LP_CONSUMPTION, max_iter=10),
                Spec("sweep-scale", FIXED_SEED, 56, 0.8,
                     (0.0, 0.25, 0.5, 0.75, 1.0), "0:1:0.25", methods=LP_METHODS)]
    if name == "density-thin":
        return [Spec("sweep-density", seed, 56, 0.8,
                     (0.5, 0.4, 0.3, 0.2, 0.1), "0.5:0.1:-0.1", reps=2,
                     methods=STEADY_METHODS),
                Spec("sweep-density", FIXED_SEED, 56, 0.8,
                     (0.1,), "0.1", samples=10)]
    raise KeyError(name)


WORKLOADS = ("scale-dense", "run-large", "density-thin")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def write_inputs(specs, work):
    """Generate and write each command's economy and shock files."""
    made = []
    for k, spec in enumerate(specs):
        Z, f = inputs.make_economy(spec.seed, spec.n, spec.link_density)
        eps_s, eps_d = inputs.make_shocks(spec.seed, spec.n)
        economy, shocks = str(work / f"economy{k}.csv"), str(work / f"shocks{k}.csv")
        inputs.write_economy(economy, Z, f)
        inputs.write_shocks(shocks, eps_s, eps_d)
        made.append(((Z, f, eps_s, eps_d), economy, shocks))
    return made


def run_cli(argv, work, tag):
    """Run one CLI command through launch.py: (wall s, peak RSS MB)."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    launched = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), str(work / f"{tag}.out"),
         str(work / f"{tag}.err"),
         sys.executable, "-c", "from ioshock.cli import main; main()", *argv],
        capture_output=True, text=True, cwd=work, env=env, check=False)
    if launched.returncode != 0:
        raise BenchError(f"launcher failed: {launched.stderr[-500:]}")
    result = json.loads(launched.stdout)
    if result["returncode"] != 0:
        message = (work / f"{tag}.err").read_text(errors="replace").strip()
        raise BenchError(f"{argv[0]} exited {result['returncode']}: {message[-500:]}")
    return result["wall_s"], result["peak_rss_kb"] / 1024.0


def digests(out_dir):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in RESULT_FILES if (out_dir / name).exists()}


def check_rounds(specs, made, out_dirs):
    """Full checks on the first round; byte identity across all rounds."""
    report = checks.Report()
    for k, (spec, (arrays, _, _)) in enumerate(zip(specs, made)):
        report.add(checks.check_output(spec, *arrays, out_dirs[0][k]))
        first = digests(out_dirs[0][k])
        for dirs in out_dirs[1:]:
            if digests(dirs[k]) != first:
                report.problems.append(f"command {k}: result files differ between rounds")
    rounds = len(out_dirs)
    report.attempted *= rounds
    report.failed *= rounds
    return report


def measure_untraced(specs, made, work, seconds):
    """Whole rounds of the workload's commands, each after one set-up run,
    so that set-up samples are spread over the run like the rounds."""
    validate = ["validate", "--economy", made[0][1], "--shocks", made[0][2]]
    setup, walls, rss, out_dirs = [], [], [], []
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        setup.append(run_cli(validate, work, "validate")[0])
        dirs, wall, peak = [], 0.0, 0.0
        for k, (spec, (_, economy, shocks)) in enumerate(zip(specs, made)):
            out = work / f"round{len(walls)}" / f"cmd{k}"
            w, m = run_cli(spec.argv(economy, shocks, str(out)), work, f"cmd{k}")
            dirs.append(out)
            wall += w
            peak = max(peak, m)
        walls.append(wall)
        rss.append(peak)
        out_dirs.append(dirs)
    while len(setup) < SETUP_REPEATS:
        setup.append(run_cli(validate, work, "validate")[0])
    # the fastest round: on a shared host slower rounds measure other
    # tenants (README.md, Reference figures)
    metrics = {"wall_s": min(walls),
               "setup_s": min(setup),
               "peak_rss_mb": statistics.median(rss)}
    return metrics, check_rounds(specs, made, out_dirs)


def run_in_process(specs, made, out_root, tracer=None):
    """One round through ioshock.cli.run_command; returns its wall time."""
    from ioshock.cli import run_command

    out_dirs = []
    sink = io.StringIO()
    start = time.perf_counter()
    for k, (spec, (_, economy, shocks)) in enumerate(zip(specs, made)):
        out = out_root / f"cmd{k}"
        argv = spec.argv(economy, shocks, str(out))
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                code = run_command(argv)
            else:
                with tracer.span(tracing.ROOT_SPAN):
                    code = run_command(argv)
        if code != 0:
            raise BenchError(f"{argv[0]} returned {code}: {sink.getvalue()[-500:]}")
        out_dirs.append(out)
    return time.perf_counter() - start, out_dirs


def measure_traced(name, specs, made, work, seconds):
    """Pairs of traced and plain in-process rounds; per-layer metrics."""
    import ioshock

    if not Path(ioshock.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"ioshock imported from {ioshock.__file__}, not {SRC}")
    start = time.perf_counter()
    # the first plain round pays first-call costs and is not timed
    out_dirs = [run_in_process(specs, made, work / "warmup")[1]]
    plain, traced, layers = [], [], []
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            wall, dirs = run_in_process(specs, made, work / f"traced{len(traced)}", tracer)
        traced.append(wall)
        out_dirs.append(dirs)
        layers.append(tracing.layer_metrics(tracer))
        wall, dirs = run_in_process(specs, made, work / f"plain{len(plain)}")
        plain.append(wall)
        out_dirs.append(dirs)
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"trace-{name}.json")
    if tracer.missing:
        absent = [k for k in PER_LAYER[:-1] if k not in layers[0]]
        print(f"absent from the program: {', '.join(tracer.missing)}; "
              f"metrics left out: {', '.join(absent)}", file=sys.stderr)
    report = check_rounds(specs, made, out_dirs)
    metrics = {}
    for key in layers[0]:
        values = [m[key] for m in layers]
        if layer_unit(key) == "s":
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            if any(v != values[0] for v in values):
                report.problems.append(f"{key} differs between traced rounds: {values}")
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, report


def run_workload(name, seed, seconds, trace):
    specs = workload(name, seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        made = write_inputs(specs, work)
        if trace:
            values, report = measure_traced(name, specs, made, work, seconds)
            units = {k: layer_unit(k) for k in values}
        else:
            values, report = measure_untraced(specs, made, work, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in (report.violations + report.problems)[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if report.errors:
        print(f"{len(report.errors)} operations carry an error per round, "
              f"first: {report.errors[0]}", file=sys.stderr)
    return {"correct": report.correct, "attempted": report.attempted,
            "failed": report.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    # run_seconds of BENCHMARK.json
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ioshock" / "cli.py").is_file():
        print(f"error: no ioshock sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        results = {}
        for name in WORKLOADS:
            for trace in (0, 1):
                result = run_workload(name, args.seed, args.seconds, trace)
                results[f"{name}/trace{trace}"] = result
                print(f"{name}  trace={trace}  correct={result['correct']}  "
                      f"attempted={result['attempted']}  failed={result['failed']}")
                for key, m in result["metrics"].items():
                    print(f"  {key:40s} {m['value']:14.6g} {m['unit']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
