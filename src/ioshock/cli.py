"""Command-line front end.

Subcommands: ``validate`` (parse and report invariants), ``shock`` (emit
constraint ceilings), ``sweep-scale`` (all methods at each point of an
alpha grid), ``run`` (its one-point case) and ``sweep-density``. Exit
status is 0 on success, 1 on bad input (an ``InputError``: unreadable
or malformed files, bad flag values, an output directory that cannot be
written, or an economy that is not productive, has an industry with
inputs but no output, or has no output at all), 2 on a computation
error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import re
import sys

from . import __version__
from .economy import coefficients, metrics
from .errors import InputError, IoShockError, ParseError
from .experiments import ALL_METHODS, SweepSpec, summarize, sweep_density, sweep_scale
from .fileio import file_digest, parse_economy_csv, parse_shocks_csv, write_results
from .rationing import GENERATOR_NAME, MAX_ITER, TOL
from .shocks import aggregate_shocks, make_constraints

#: most points a start:stop:step grid may hold
MAX_GRID_POINTS = 10_000

#: how a byte that is not UTF-8 reads back under errors="surrogateescape"
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _grid_values(text, flag="grid"):
    """Parse '0.3' or 'start:stop:step' into a nonempty list of finite
    floats; ``flag`` names the option in error messages."""
    try:
        values = [float(v) for v in text.split(":")]
    except ValueError:
        values = []
    if len(values) not in (1, 3) or not all(map(math.isfinite, values)):
        raise ParseError(f"{flag} {text!r}: expected a finite number or start:stop:step")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step == 0:
        raise ParseError(f"{flag} {text!r}: step is zero")
    if (stop - start) * step < 0:
        # the grid would be empty or hold only the start
        raise ParseError(f"{flag} {text!r}: step {step} leads away from stop {stop}")
    # the tolerance keeps a stop that the division lands just short of
    span = (stop - start) / step + 1e-9
    # also rejects an overflowed, infinite span, which floor() cannot take
    if not span < MAX_GRID_POINTS:
        raise ParseError(f"{flag} {text!r}: more than {MAX_GRID_POINTS} points")
    return [round(start + k * step, 12) for k in range(math.floor(span) + 1)]


def _check_numeric_flags(args):
    """Reject iteration and sample settings no run can use."""
    for name in ("samples", "reps", "max_iter"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ParseError(f"--{name.replace('_', '-')} must be at least 1, got {value}")


def _add_inputs(p):
    """The input files and shock scaling every shock command reads."""
    p.add_argument("--economy", required=True, help="economy CSV file")
    p.add_argument("--shocks", required=True, help="shock CSV file")
    p.add_argument("--percent", action="store_true",
                   help="shock file values are percentages")
    p.add_argument("--allow-missing", action="store_true",
                   help="zero-fill industries absent from the shock file")
    p.add_argument("--alpha-supply", default="1",
                   help="supply scaling factor, or start:stop:step grid")
    p.add_argument("--alpha-demand", default="1",
                   help="demand scaling factor, or start:stop:step grid")


def _add_common(p):
    """Inputs plus the method, sampling and output options of an evaluation."""
    _add_inputs(p)
    p.add_argument("--methods", default="all",
                   help="comma-separated method list or 'all'")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--samples", type=int, default=100,
                   help="random-rationing samples")
    p.add_argument("--reps", type=int, default=1, help="replicates per grid point")
    p.add_argument("--max-iter", type=int, default=MAX_ITER,
                   help="rationing iteration cap")
    p.add_argument("--out", default="out", help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ioshock",
        description="Propagate simultaneous supply and demand shocks "
                    "through an input-output production network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse inputs and report invariants")
    p.add_argument("--economy", required=True)
    p.add_argument("--shocks")
    p.add_argument("--percent", action="store_true")
    p.add_argument("--allow-missing", action="store_true")

    p = sub.add_parser("shock", help="emit output/consumption ceilings")
    _add_inputs(p)

    p = sub.add_parser("run", help="evaluate methods on one scenario")
    _add_common(p)

    p = sub.add_parser("sweep-scale", help="shock-magnitude sweep")
    _add_common(p)

    p = sub.add_parser("sweep-density", help="network-density sweep")
    _add_common(p)
    p.add_argument("--densities", required=True,
                   help="density targets, value or start:stop:step")
    p.add_argument("--removal-mode", default="random",
                   choices=["random", "smallest_first"])
    return parser


def _methods(arg):
    if arg == "all":
        return ALL_METHODS
    methods = tuple(m.strip() for m in arg.split(",") if m.strip())
    if not methods or not set(methods) <= set(ALL_METHODS):
        raise ParseError(f"--methods {arg!r}: expected 'all' or a comma-separated "
                         f"list of {', '.join(ALL_METHODS)}")
    return methods


def _not_utf8(path, exc):
    """A ParseError naming the first line of path that does not decode,
    lines counted as the parsers count them."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            bad = _ESCAPED_BYTE.search(line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                return ParseError(f"{path}:{lineno}: byte {byte:#04x} is not UTF-8 "
                                  f"({exc.reason})")
    return ParseError(f"{path}: not UTF-8 ({exc})")


def _parse(parse, flag, path, *args, **kwargs):
    """Run one file parser on the path given to ``flag``; a file that
    cannot be read or is not UTF-8 raises a ParseError that names it, or
    names the flag when the path is empty."""
    try:
        return parse(path, *args, **kwargs)
    except OSError as exc:
        name = path or f"{flag} ''"
        raise ParseError(f"{name}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _load(args):
    economy = _parse(parse_economy_csv, "--economy", args.economy)
    scenario = None
    if args.shocks is not None:
        scenario = _parse(
            parse_shocks_csv, "--shocks", args.shocks, economy.labels,
            percent=args.percent, allow_missing=args.allow_missing,
        )
    return economy, scenario


def _provenance(args, extra):
    """The provenance line of an evaluation command's result tables."""
    return {
        "tool": f"ioshock {__version__}",
        "generator": GENERATOR_NAME,
        "economy_sha256": file_digest(args.economy),
        "shocks_sha256": file_digest(args.shocks),
        "seed": args.seed,
        "tol": TOL,
        "max_iter": args.max_iter,
        **extra,
    }


def _cmd_validate(args):
    economy, scenario = _load(args)
    op = coefficients(economy)
    m = metrics(economy, op)
    report = {
        "industries": economy.n,
        "total_output": m.total_output,
        "total_consumption": m.total_consumption,
        "density": economy.density,
        "avg_multiplier": m.avg_multiplier,
        "intermediate_share": m.intermediate_share,
        "negative_value_added": economy.negative_value_added,
    }
    if scenario is not None:
        c = make_constraints(economy, scenario)
        eps_s, eps_d = aggregate_shocks(economy, c)
        report["aggregate_supply_shock"] = eps_s
        report["aggregate_demand_shock"] = eps_d
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _unit_grid(text, flag):
    """_grid_values, with every value required to lie in [0, 1]."""
    values = _grid_values(text, flag)
    for v in values:
        if not 0 <= v <= 1:
            raise ParseError(f"{flag} {text!r}: value {v} outside [0, 1]")
    return values


def _alphas(args):
    """The (alpha_supply, alpha_demand) grids of the command line; every
    command but sweep-scale takes one value of each."""
    a_s = _unit_grid(args.alpha_supply, "--alpha-supply")
    a_d = _unit_grid(args.alpha_demand, "--alpha-demand")
    if args.command != "sweep-scale" and (len(a_s) != 1 or len(a_d) != 1):
        raise ParseError(f"{args.command} takes scalar alpha values")
    return a_s, a_d


def _scenario_at(scenario, args):
    (a_s,), (a_d,) = _alphas(args)
    return scenario.with_alphas(a_s, a_d)


def _cmd_shock(args):
    economy, scenario = _load(args)
    c = make_constraints(economy, _scenario_at(scenario, args))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["industry", "x_max", "f_max"])
    for i, label in enumerate(economy.labels):
        writer.writerow([label, repr(float(c.x_max[i])), repr(float(c.f_max[i]))])
    return 0


def _spec(args, grid, **extra):
    """The SweepSpec of an evaluation command over ``grid``."""
    return SweepSpec(methods=_methods(args.methods), grid=grid,
                     repetitions=args.reps, random_samples=args.samples,
                     master_seed=args.seed, max_iter=args.max_iter, **extra)


def _write(args, records, allocations=None, **extra):
    """Summarize the records, write the result tables into --out and
    print their paths; ``extra`` goes into the provenance line."""
    try:
        files = write_results(args.out, allocations, records, summarize(records),
                              _provenance(args, extra))
    except OSError as exc:
        raise ParseError(f"{args.out}: {exc.strerror or exc}") from None
    print("\n".join(files))
    return 0


def _cmd_sweep_scale(args):
    """sweep-scale, and run as its one-point case."""
    economy, scenario = _load(args)
    a_s, a_d = _alphas(args)
    spec = _spec(args, tuple((s, d) for s in a_s for d in a_d))
    records, rows = sweep_scale(economy, scenario, spec)
    for r in records:
        # allocations.csv holds replicate 0, sample 0, so warn about that one
        if r.replicate == 0 and r.sample == 0 and (r.error or not r.converged):
            at = f"at alpha_supply={r.alpha_supply}, alpha_demand={r.alpha_demand}"
            problem = f"failed {at}: {r.error}" if r.error else f"did not converge {at}"
            print(f"warning: {r.method} {problem}", file=sys.stderr)
    return _write(args, records, rows)


def _cmd_sweep_density(args):
    economy, scenario = _load(args)
    scenario = _scenario_at(scenario, args)
    if args.removal_mode == "smallest_first" and args.reps > 1:
        raise ParseError(f"--reps {args.reps}: --removal-mode smallest_first removes "
                         "one fixed set of links, so it takes one replicate")
    densities = _unit_grid(args.densities, "--densities")
    highest = max(densities)
    if highest > economy.density + 1e-12:
        # thinning removes links; it cannot reach a denser network
        raise ParseError(f"--densities {args.densities!r}: target {highest} "
                         f"above the economy's density {economy.density}")
    spec = _spec(args, tuple(densities), removal_mode=args.removal_mode)
    records = sweep_density(economy, scenario, spec)
    return _write(args, records, removal_mode=args.removal_mode)


_COMMANDS = {
    "validate": _cmd_validate,
    "shock": _cmd_shock,
    "run": _cmd_sweep_scale,
    "sweep-scale": _cmd_sweep_scale,
    "sweep-density": _cmd_sweep_density,
}


def run_command(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numeric_flags(args)
        return _COMMANDS[args.command](args)
    except (IoShockError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InputError) else 2


def main():
    # start-up and the imports (numpy's about 9,000) leave about 22,000
    # objects that live until exit; frozen, neither the command's
    # collections nor the interpreter's final ones traverse them again
    gc.freeze()
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
