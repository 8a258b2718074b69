import csv
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ioshock
from ioshock import cli, errors, experiments, file_digest
from ioshock.cli import MAX_GRID_POINTS, _grid_values, build_parser, run_command
from ioshock.errors import InputError, IoShockError, ParseError, SolverFailure
from ioshock.experiments import AllocationRow

ECONOMY = """\
industry,upstream,parts,goods,final_demand
upstream,0,4,2,4
parts,0,0,0,6
goods,0,0,0,8
"""

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

SHOCKS = """\
industry,supply_shock,demand_shock
upstream,0.5,0
parts,0,0
goods,0,0
"""


@pytest.fixture
def files(tmp_path):
    e = tmp_path / "economy.csv"
    s = tmp_path / "shocks.csv"
    e.write_text(ECONOMY, encoding="utf-8")
    s.write_text(SHOCKS, encoding="utf-8")
    return {"economy": str(e), "shocks": str(s), "out": str(tmp_path / "out")}


def read_table(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0].startswith("# ")
    return json.loads(lines[0][2:]), list(csv.DictReader(lines[1:]))


class TestGridValues:
    def test_scalar(self):
        assert _grid_values("0.3") == [0.3]

    def test_range(self):
        assert _grid_values("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_range_avoids_float_drift(self):
        vals = _grid_values("0:1:0.1")
        assert len(vals) == 11
        assert vals[3] == 0.3

    @pytest.mark.parametrize("text,values", [
        ("0:0.5:0.3", [0.0, 0.3]),
        ("0:1:0.6", [0.0, 0.6]),
        # 0.3 / 0.1 is 2.9999999999999996, yet the stop is on the grid
        ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
    ])
    def test_never_passes_stop(self, text, values):
        assert _grid_values(text) == values

    def test_largest_allowed_grid(self):
        assert len(_grid_values(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS

    @pytest.mark.parametrize("text", ["0:1:0", "1:0:0.1", "0:1:-0.5", "0:1",
                                      "nan", "0:inf:0.1", "0.5,0.3", "",
                                      "0:1:1e-9", f"0:{MAX_GRID_POINTS}:1",
                                      "-1e308:1e308:1"])
    def test_rejected(self, text):
        with pytest.raises(ParseError, match="--densities"):
            _grid_values(text, "--densities")


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("validate", "shock", "run", "sweep-scale", "sweep-density"):
            args = parser.parse_args(
                [cmd, "--economy", "e.csv"]
                + (["--shocks", "s.csv"] if cmd != "validate" else [])
                + (["--densities", "0.1"] if cmd == "sweep-density" else []))
            assert args.command == cmd

    def test_missing_subcommand_fails(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestNumericFlags:
    @pytest.mark.parametrize("command,flag,value", [
        ("sweep-scale", "--alpha-supply", "0:1:0"),
        ("sweep-scale", "--alpha-supply", "1:0:0.1"),
        ("sweep-scale", "--alpha-demand", "0:1:-0.5"),
        ("run", "--alpha-supply", "nan"),
        ("sweep-scale", "--alpha-supply", "0:1:1e-9"),
        ("sweep-density", "--densities", "0.1:0.5:-0.1"),
        ("sweep-density", "--densities", "0.5,0.3,0.1"),
        ("sweep-density", "--densities", "-0.1"),
        ("sweep-scale", "--alpha-supply", "0:2:1"),
        ("sweep-scale", "--alpha-supply", "-0.5"),
        ("run", "--alpha-supply", "2"),
        ("sweep-scale", "--samples", "0"),
        ("run", "--samples", "0"),
        ("sweep-density", "--reps", "0"),
        ("sweep-scale", "--max-iter", "0"),
        ("run", "--methods", "oracle"),
        ("run", "--methods", ""),
    ])
    def test_bad_value_exits_one(self, files, capsys, command, flag, value):
        argv = [command, "--economy", files["economy"], "--shocks",
                files["shocks"], "--out", files["out"], "--max-iter", "50"]
        if command == "sweep-density":
            argv += ["--densities", "0.2"]
        assert run_command(argv + [flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("command", ["run", "sweep-scale", "sweep-density"])
    def test_tol_is_a_usage_error(self, files, capsys, command):
        # the convergence tolerance is the constant rationing.TOL
        argv = [command, "--economy", files["economy"], "--shocks",
                files["shocks"], "--out", files["out"], "--tol", "1e-9"]
        if command == "sweep-density":
            argv += ["--densities", "0.2"]
        with pytest.raises(SystemExit) as exc:
            run_command(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep-scale", "sweep-density"])
def test_unusable_out_exits_one(tmp_path, files, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("not a directory", encoding="utf-8")
    argv = [command, "--economy", files["economy"], "--shocks",
            files["shocks"], "--out", str(afile), "--methods", "direct"]
    if command == "sweep-density":
        argv += ["--densities", "0.2"]
    assert run_command(argv) == 1
    assert capsys.readouterr().err == f"error: {afile}: File exists\n"


class TestValidate:
    def test_economy_only(self, files, capsys):
        assert run_command(["validate", "--economy", files["economy"]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["industries"] == 3
        assert report["total_output"] == 24.0
        assert report["density"] == pytest.approx(2.0 / 9.0)

    def test_with_shocks(self, files, capsys):
        code = run_command(["validate", "--economy", files["economy"],
                            "--shocks", files["shocks"]])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["aggregate_supply_shock"] == pytest.approx(5.0 / 24.0)
        assert report["aggregate_demand_shock"] == 0.0

    def test_bad_economy_exits_one(self, tmp_path, files, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(ECONOMY.replace(",4,2,", ",-4,2,"), encoding="utf-8")
        assert run_command(["validate", "--economy", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_industry_exits_one(self, tmp_path, files):
        bad = tmp_path / "bad_shocks.csv"
        bad.write_text(SHOCKS.replace("upstream,", "steel,", 1),
                       encoding="utf-8")
        assert run_command(["validate", "--economy", files["economy"],
                            "--shocks", str(bad)]) == 1

    @pytest.mark.parametrize("which", ["economy", "shocks"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_input_cell_exits_one(self, tmp_path, files, capsys,
                                             which, cell):
        text, good = {"economy": (ECONOMY, "upstream,0,"),
                      "shocks": (SHOCKS, "upstream,0.5,")}[which]
        bad = tmp_path / f"bad_{which}.csv"
        bad.write_text(text.replace(good, f"upstream,{cell},"), encoding="utf-8")
        paths = dict(files, **{which: str(bad)})
        assert run_command(["validate", "--economy", paths["economy"],
                            "--shocks", paths["shocks"]]) == 1
        err = capsys.readouterr().err
        assert f"bad_{which}.csv:2 column 2: {cell!r} is not finite" in err

    @pytest.mark.parametrize("which", ["economy", "shocks"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_exits_one(self, tmp_path, files, capsys, which, kind):
        path = tmp_path / "absent.csv" if kind == "missing" else tmp_path
        try:
            open(path, encoding="utf-8").close()
        except OSError as exc:
            reason = exc.strerror
        paths = dict(files, **{which: str(path)})
        assert run_command(["validate", "--economy", paths["economy"],
                            "--shocks", paths["shocks"]]) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("which", ["economy", "shocks"])
    def test_empty_path_names_the_flag(self, files, capsys, which):
        try:
            open("", encoding="utf-8").close()
        except OSError as exc:
            reason = exc.strerror
        paths = dict(files, **{which: ""})
        assert run_command(["validate", "--economy", paths["economy"],
                            "--shocks", paths["shocks"]]) == 1
        assert capsys.readouterr().err == f"error: --{which} '': {reason}\n"

    @pytest.mark.parametrize("which", ["economy", "shocks"])
    def test_non_utf8_input_exits_one(self, tmp_path, files, capsys, which):
        text = {"economy": ECONOMY, "shocks": SHOCKS}[which]
        lines = text.encode().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"0", b"\xff", 1)
        bad = tmp_path / f"bad_{which}.csv"
        bad.write_bytes(b"".join(lines))
        paths = dict(files, **{which: str(bad)})
        assert run_command(["validate", "--economy", paths["economy"],
                            "--shocks", paths["shocks"]]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}:3: byte 0xff is not UTF-8 (invalid start byte)\n")


#: every IoShockError class of ioshock.errors, the base included
ERROR_CLASSES = sorted((cls for cls in vars(errors).values()
                        if isinstance(cls, type) and issubclass(cls, IoShockError)),
                       key=lambda cls: cls.__name__)

#: the bad-input classes; moving a class in or out of InputError edits this
INPUT_ERRORS = {
    "InputError", "DimensionMismatch", "NegativeEntry", "ZeroOutputWithInputs",
    "NonProductive", "OutOfRange", "ZeroAggregate", "ParseError",
    "IdentityViolation", "UnknownIndustry", "MissingIndustry",
}

TWO_SHOCKS = """\
industry,supply_shock,demand_shock
a,0.5,0
b,0,0
"""


class TestExitStatus:
    """An InputError exits 1; any other IoShockError exits 2."""

    def test_input_errors_are_pinned(self):
        assert {cls.__name__ for cls in ERROR_CLASSES
                if issubclass(cls, InputError)} == INPUT_ERRORS

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_error_class_sets_status(self, files, capsys, monkeypatch, cls):
        def fail(economy):
            raise cls(f"{cls.__name__} raised")

        monkeypatch.setattr(cli, "coefficients", fail)
        code = run_command(["validate", "--economy", files["economy"]])
        assert code == (1 if issubclass(cls, InputError) else 2)
        assert capsys.readouterr().err == f"error: {cls.__name__} raised\n"

    @pytest.mark.parametrize("command", ["validate", "run", "sweep-scale"])
    @pytest.mark.parametrize("rows,message", [
        ("a,0,100,0\nb,100,0,0\n", "(I - A) is singular: Singular matrix"),
        ("a,0,0,0\nb,5,0,1\n", "industry a has zero output but nonzero inputs"),
    ], ids=["not_productive", "inputs_without_output"])
    def test_unusable_economy_exits_one(self, tmp_path, capsys, command, rows,
                                        message):
        economy = tmp_path / "economy.csv"
        shocks = tmp_path / "shocks.csv"
        economy.write_text("industry,a,b,final_demand\n" + rows, encoding="utf-8")
        shocks.write_text(TWO_SHOCKS, encoding="utf-8")
        argv = [command, "--economy", str(economy)]
        if command != "validate":
            argv += ["--shocks", str(shocks), "--out", str(tmp_path / "out")]
        assert run_command(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_economy_without_output_exits_one(self, tmp_path, capsys):
        economy = tmp_path / "economy.csv"
        shocks = tmp_path / "shocks.csv"
        economy.write_text("industry,a,b,final_demand\na,0,0,0\nb,0,0,0\n",
                           encoding="utf-8")
        shocks.write_text(TWO_SHOCKS, encoding="utf-8")
        assert run_command(["validate", "--economy", str(economy),
                            "--shocks", str(shocks)]) == 1
        assert capsys.readouterr().err == "error: total baseline output is zero\n"

    def test_economy_without_industries_exits_one(self, tmp_path, capsys):
        economy = tmp_path / "economy.csv"
        economy.write_text("industry,final_demand,gross_output\n", encoding="utf-8")
        assert run_command(["validate", "--economy", str(economy)]) == 1
        assert capsys.readouterr().err == (
            "error: flow matrix must be square and nonempty, got (0, 0)\n")


def child_env():
    """The environment of a child process that imports this ioshock."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ioshock.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TestStartup:
    def test_cli_imports_no_scipy(self):
        """A CLI process loads numpy only: scipy is the benchmark's oracle,
        not a runtime dependency, and importing it would double start-up."""
        chain3 = Path(__file__).resolve().parents[1] / "demos" / "data" / "chain3.csv"
        child = ("import sys\n"
                 "import ioshock.cli\n"
                 "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                 "code = ioshock.cli.run_command(['validate', '--economy', sys.argv[1]])\n"
                 "print(loaded)\n"
                 "sys.exit(code)\n")
        proc = subprocess.run([sys.executable, "-c", child, str(chain3)],
                              capture_output=True, text=True, env=child_env(),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_lp_sweep_imports_no_random_or_masked_arrays(self, tmp_path):
        """A sweep without the random rule draws no random numbers, and its
        summary's quartiles need no numpy.ma, so neither module loads."""
        data = Path(__file__).resolve().parents[1] / "demos" / "data"
        child = ("import sys\n"
                 "import ioshock.cli\n"
                 "code = ioshock.cli.run_command(sys.argv[1:])\n"
                 "print([m for m in ('numpy.random', 'numpy.ma') if m in sys.modules])\n"
                 "sys.exit(code)\n")
        argv = ["sweep-scale", "--economy", str(data / "chain3.csv"),
                "--shocks", str(data / "chain3_shocks.csv"),
                "--methods", "direct,lp_output,lp_consumption",
                "--alpha-supply", "0:1:0.5", "--out", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, "-c", child, *argv],
                              capture_output=True, text=True, env=child_env(),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("economy,code", [("chain3.csv", 0), ("absent.csv", 1)])
    def test_main_exits_as_run_command_returns(self, capsys, economy, code):
        """The console entry point, run as a program: the exit status is
        run_command's return value, and its output is complete."""
        argv = ["validate", "--economy",
                str(Path(__file__).resolve().parents[1] / "demos" / "data" / economy)]
        assert run_command(argv) == code
        expected = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-c", "from ioshock.cli import main; main()", *argv],
            capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == code
        assert (proc.stdout, proc.stderr) == (expected.out, expected.err)


class TestShock:
    def test_ceilings_on_stdout(self, files, capsys):
        assert run_command(["shock", "--economy", files["economy"],
                            "--shocks", files["shocks"]]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert rows[0] == {"industry": "upstream", "x_max": "5.0",
                           "f_max": "4.0"}
        assert rows[2]["x_max"] == "8.0"

    def test_alpha_scaling(self, files, capsys):
        run_command(["shock", "--economy", files["economy"],
                     "--shocks", files["shocks"], "--alpha-supply", "0.5"])
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert rows[0]["x_max"] == "7.5"

    def test_grid_alpha_rejected(self, files, capsys):
        assert run_command(["shock", "--economy", files["economy"],
                            "--shocks", files["shocks"],
                            "--alpha-supply", "0:1:0.5"]) == 1

    def test_exact_output(self, files, capsys):
        assert run_command(["shock", "--economy", files["economy"],
                            "--shocks", files["shocks"], "--percent",
                            "--allow-missing", "--alpha-demand", "1"]) == 0
        assert capsys.readouterr().out == (
            "industry,x_max,f_max\n"
            "upstream,9.95,4.0\n"
            "parts,6.0,6.0\n"
            "goods,8.0,8.0\n")

    @pytest.mark.parametrize("flag,value", [
        ("--methods", "all"), ("--seed", "1"), ("--samples", "5"),
        ("--reps", "2"), ("--tol", "1e-9"), ("--max-iter", "10"),
        ("--out", "out"),
    ])
    def test_evaluation_flags_rejected(self, files, capsys, flag, value):
        # shock evaluates no method, so these options are usage errors
        with pytest.raises(SystemExit) as exc:
            run_command(["shock", "--economy", files["economy"],
                         "--shocks", files["shocks"], flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestRun:
    def test_end_to_end(self, files, capsys):
        code = run_command(["run", "--economy", files["economy"],
                            "--shocks", files["shocks"],
                            "--out", files["out"], "--samples", "5"])
        assert code == 0
        paths = capsys.readouterr().out.splitlines()
        assert [p.split("/")[-1] for p in paths] == [
            "allocations.csv", "sweep.csv", "summary.csv"]
        prov, rows = read_table(paths[0])
        assert prov["economy_sha256"] == file_digest(files["economy"])
        assert prov["shocks_sha256"] == file_digest(files["shocks"])
        # 8 methods x 3 industries
        assert len(rows) == 24
        lp = {r["industry"]: r for r in rows if r["method"] == "lp_output"}
        assert float(lp["upstream"]["x"]) == pytest.approx(5.0)
        assert float(lp["parts"]["x"]) == pytest.approx(4.5)
        _, sweep_rows = read_table(paths[1])
        assert len(sweep_rows) == 7 + 5  # non-random methods + samples
        _, summary_rows = read_table(paths[2])
        assert len(summary_rows) == 8

    def test_method_subset(self, files, capsys):
        run_command(["run", "--economy", files["economy"],
                     "--shocks", files["shocks"], "--out", files["out"],
                     "--methods", "proportional,lp_output"])
        paths = capsys.readouterr().out.splitlines()
        _, rows = read_table(paths[0])
        assert {r["method"] for r in rows} == {"proportional", "lp_output"}

    def test_random_allocation_is_sweep_sample_zero(self, tmp_path, files, capsys):
        # chain3's two random rankings give different totals, so a draw
        # apart from the sweep's sample 0 would disagree on some seed
        for seed in range(8):
            out = tmp_path / f"o{seed}"
            assert run_command(["run", "--economy", files["economy"],
                                "--shocks", files["shocks"], "--out", str(out),
                                "--methods", "random", "--samples", "3",
                                "--seed", str(seed)]) == 0
            _, allocation = read_table(out / "allocations.csv")
            _, sweep = read_table(out / "sweep.csv")
            (sample0,) = [r for r in sweep if r["sample"] == "0"]
            assert sum(float(r["x"]) for r in allocation) == pytest.approx(
                float(sample0["total_output"]), rel=1e-12)
            assert sum(float(r["f"]) for r in allocation) == pytest.approx(
                float(sample0["total_consumption"]), rel=1e-12)

    @pytest.mark.parametrize("methods, rows, records", [
        ("all", 7 * 3, 7 + 5),
        # nothing to allocate: allocations.csv is the header alone
        ("lp_consumption", 0, 1),
    ], ids=["all", "lp_consumption"])
    def test_failing_method_is_an_error_record(self, files, capsys, monkeypatch,
                                               methods, rows, records):
        real = experiments.optimal_allocation

        def failing(op, c, objective):
            if objective == "consumption":
                raise SolverFailure("simplex terminated at a point violating its bounds")
            return real(op, c, objective)

        monkeypatch.setattr(experiments, "optimal_allocation", failing)
        assert run_command(["run", "--economy", files["economy"],
                            "--shocks", files["shocks"], "--out", files["out"],
                            "--methods", methods, "--samples", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: lp_consumption failed at alpha_supply=1.0, "
                                "alpha_demand=1.0: simplex terminated at a point "
                                "violating its bounds\n")
        paths = captured.out.splitlines()
        allocation, sweep, summary = (read_table(p)[1] for p in paths)
        assert "lp_consumption" not in {r["method"] for r in allocation}
        assert len(allocation) == rows
        # the header comes from AllocationRow, not from a first row
        header = open(paths[0], encoding="utf-8").read().splitlines()[1]
        assert header == ",".join(f.name for f in dataclasses.fields(AllocationRow))
        assert len(sweep) == records
        (failed,) = [r for r in sweep if r["method"] == "lp_consumption"]
        assert failed["error"].startswith("simplex terminated")
        (row,) = [r for r in summary if r["method"] == "lp_consumption"]
        assert (row["count"], row["failures"]) == ("1", "1")

    def test_economy_without_output_finishes(self, tmp_path):
        """Every rationing rule converges at sweep 1 on an economy with no
        output, so run finishes well within the timeout; run as a program,
        since a run that never stops could not be interrupted in-process."""
        economy = tmp_path / "economy.csv"
        shocks = tmp_path / "shocks.csv"
        economy.write_text("industry,a,b,final_demand\na,0,0,0\nb,0,0,0\n",
                           encoding="utf-8")
        shocks.write_text(TWO_SHOCKS, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", "from ioshock.cli import main; main()", "run",
             "--economy", str(economy), "--shocks", str(shocks),
             "--out", str(tmp_path / "out"), "--samples", "2"],
            capture_output=True, text=True, env=child_env(), timeout=30)
        assert proc.returncode == 0, proc.stderr
        _, sweep = read_table(tmp_path / "out" / "sweep.csv")
        assert len(sweep) == 7 + 2
        assert all(r["converged"] == "true" and r["total_output"] == "0.0"
                   for r in sweep)

    def test_reps_are_replicates(self, files, capsys):
        assert run_command(["run", "--economy", files["economy"],
                            "--shocks", files["shocks"], "--out", files["out"],
                            "--reps", "3", "--samples", "2"]) == 0
        allocation, sweep, _ = (read_table(p)[1]
                                for p in capsys.readouterr().out.splitlines())
        for rep in "012":
            rows = [r for r in sweep if r["replicate"] == rep]
            assert len(rows) == 7 + 2
        assert len(sweep) == 3 * (7 + 2)
        # allocations.csv holds replicate 0 only: 8 methods x 3 industries
        assert len(allocation) == 24

    def test_unknown_method_exits_one(self, files, capsys):
        assert run_command(["run", "--economy", files["economy"],
                            "--shocks", files["shocks"], "--out", files["out"],
                            "--methods", "direct,oracle"]) == 1
        assert capsys.readouterr().err == (
            "error: --methods 'direct,oracle': expected 'all' or a comma-separated "
            "list of direct, lp_output, lp_consumption, proportional, mixed, "
            "largest_first, random, meem\n")

    def test_reruns_byte_identical(self, tmp_path, files, capsys):
        argv = ["run", "--economy", files["economy"], "--shocks",
                files["shocks"], "--samples", "8", "--seed", "42"]
        run_command(argv + ["--out", str(tmp_path / "o1")])
        run_command(argv + ["--out", str(tmp_path / "o2")])
        a, b, *_ = capsys.readouterr().out.splitlines(), None
        o1 = sorted((tmp_path / "o1").glob("*.csv"))
        o2 = sorted((tmp_path / "o2").glob("*.csv"))
        assert [file_digest(p) for p in o1] == [file_digest(p) for p in o2]


#: chain3 with a demand shock too, so that f_max moves with alpha_demand
DEMAND_SHOCKS = """\
industry,supply_shock,demand_shock
upstream,0.5,0.25
parts,0,0.5
goods,0.2,0
"""


class TestOnePath:
    """run is the one-point case of sweep-scale: one command function and
    one evaluation loop."""

    @pytest.fixture
    def shocked(self, tmp_path, files):
        path = tmp_path / "demand_shocks.csv"
        path.write_text(DEMAND_SHOCKS, encoding="utf-8")
        return dict(files, shocks=str(path))

    def test_run_is_a_one_point_sweep(self, tmp_path, shocked, capsys):
        flags = ["--economy", shocked["economy"], "--shocks", shocked["shocks"],
                 "--alpha-supply", "0.5", "--alpha-demand", "0.75",
                 "--reps", "2", "--samples", "3", "--seed", "7"]
        for command in ("run", "sweep-scale"):
            assert run_command([command, *flags, "--out", str(tmp_path / command)]) == 0
        names = ["allocations.csv", "sweep.csv", "summary.csv"]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(names)
        for name in names:
            assert ((tmp_path / "run" / name).read_bytes()
                    == (tmp_path / "sweep-scale" / name).read_bytes()), name

    def test_sweep_keeps_every_points_allocations(self, shocked, capsys):
        assert run_command(["sweep-scale", "--economy", shocked["economy"],
                            "--shocks", shocked["shocks"], "--out", shocked["out"],
                            "--alpha-supply", "0:1:0.5", "--alpha-demand", "0.5:1:0.5",
                            "--reps", "2", "--samples", "3"]) == 0
        paths = capsys.readouterr().out.splitlines()
        (_, allocation), (_, sweep) = read_table(paths[0]), read_table(paths[1])
        blocks = {}
        for r in allocation:
            blocks.setdefault((r["alpha_supply"], r["alpha_demand"], r["method"]),
                              []).append(r)
        firsts = {(r["alpha_supply"], r["alpha_demand"], r["method"]): r
                  for r in sweep if r["replicate"] == "0" and r["sample"] == "0"}
        # 3 x 2 points x 8 methods, and no method failed
        assert len(firsts) == 48
        assert sorted(blocks) == sorted(firsts)
        for (a_s, a_d, method), block in blocks.items():
            assert [r["industry"] for r in block] == ["upstream", "parts", "goods"]
            record = firsts[a_s, a_d, method]
            for column, total in (("x", "total_output"), ("f", "total_consumption")):
                assert sum(float(r[column]) for r in block) == pytest.approx(
                    float(record[total]), rel=1e-12, abs=0), (a_s, a_d, method)
        for a_s, a_d, _ in firsts:
            assert run_command(["shock", "--economy", shocked["economy"],
                                "--shocks", shocked["shocks"],
                                "--alpha-supply", a_s, "--alpha-demand", a_d]) == 0
            ceilings = list(csv.DictReader(capsys.readouterr().out.splitlines()))
            for method in experiments.ALL_METHODS:
                block = blocks[a_s, a_d, method]
                assert [(r["x_max"], r["f_max"]) for r in block] == [
                    (c["x_max"], c["f_max"]) for c in ceilings]

    def test_warnings_name_the_point(self, files, capsys):
        assert run_command(["sweep-scale", "--economy", files["economy"],
                            "--shocks", files["shocks"], "--out", files["out"],
                            "--alpha-supply", "0:1:0.5", "--max-iter", "1",
                            "--methods", "proportional,direct"]) == 0
        # at alpha 0 no supplier rations, so one sweep converges
        assert capsys.readouterr().err == (
            "warning: proportional did not converge at alpha_supply=0.5, "
            "alpha_demand=1.0\n"
            "warning: proportional did not converge at alpha_supply=1.0, "
            "alpha_demand=1.0\n")

    @pytest.mark.parametrize("command", ["run", "sweep-density"])
    def test_grid_alpha_rejected(self, files, capsys, command):
        argv = [command, "--economy", files["economy"], "--shocks", files["shocks"],
                "--out", files["out"], "--alpha-supply", "0:1:0.5"]
        if command == "sweep-density":
            argv += ["--densities", "0.1"]
        assert run_command(argv) == 1
        assert capsys.readouterr().err == f"error: {command} takes scalar alpha values\n"
        assert not os.path.exists(files["out"])


class TestSweepScale:
    def test_grid_record_count(self, files, capsys):
        code = run_command(["sweep-scale", "--economy", files["economy"],
                            "--shocks", files["shocks"],
                            "--alpha-supply", "0:1:0.1",
                            "--methods", "proportional,direct",
                            "--out", files["out"]])
        assert code == 0
        paths = capsys.readouterr().out.splitlines()
        assert [p.split("/")[-1] for p in paths] == [
            "allocations.csv", "sweep.csv", "summary.csv"]
        _, rows = read_table(paths[1])
        assert len(rows) == 11 * 2
        assert len({r["alpha_supply"] for r in rows}) == 11
        baseline = [r for r in rows if float(r["alpha_supply"]) == 0.0]
        assert all(float(r["norm_output"]) == 1.0 for r in baseline)


class TestSweepDensity:
    def test_smallest_first(self, files, capsys):
        code = run_command(["sweep-density", "--economy", files["economy"],
                            "--shocks", files["shocks"],
                            "--densities", "0", "--removal-mode",
                            "smallest_first", "--methods", "proportional",
                            "--out", files["out"]])
        assert code == 0
        paths = capsys.readouterr().out.splitlines()
        assert [p.split("/")[-1] for p in paths] == ["sweep.csv", "summary.csv"]
        prov, rows = read_table(paths[0])
        assert prov["removal_mode"] == "smallest_first"
        assert len(rows) == 1
        assert float(rows[0]["total_output"]) == pytest.approx(16.0)

    def test_smallest_first_rejects_reps(self, files, capsys):
        assert run_command(["sweep-density", "--economy", files["economy"],
                            "--shocks", files["shocks"], "--densities", "0",
                            "--removal-mode", "smallest_first", "--reps", "3",
                            "--out", files["out"]]) == 1
        assert capsys.readouterr().err == (
            "error: --reps 3: --removal-mode smallest_first removes one fixed "
            "set of links, so it takes one replicate\n")

    def test_density_above_current_exits_one(self, files, capsys):
        assert run_command(["sweep-density", "--economy", files["economy"],
                            "--shocks", files["shocks"],
                            "--densities", "0.5:0.1:-0.2",
                            "--out", files["out"]]) == 1
        assert capsys.readouterr().err == (
            "error: --densities '0.5:0.1:-0.2': target 0.5 above the "
            f"economy's density {2 / 9}\n")


class TestTracedRun:
    """benchmarks/tracing.py wraps the program's functions and counts from
    what they return, so a changed return type could silently empty the
    per-layer benchmark metrics."""

    def test_tracer_reads_every_layer(self, files, capsys, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            assert run_command(["run", "--economy", files["economy"],
                                "--shocks", files["shocks"],
                                "--out", files["out"], "--samples", "2"]) == 0
        assert tracer.missing == ["ioshock.cli.run_method",
                                  "ioshock.lp.build_max_consumption_lp"]
        assert dict(tracer.counts) == {
            "converged_iters": 10,
            "economy.coefficients.calls": 1,
            "experiments.evaluate_point.calls": 1,
            "experiments.run_method.calls": 9,
            "experiments.summarize.calls": 1,
            "experiments.sweep_scale.calls": 1,
            "fileio.bytes": 4689,
            "fileio.parse_economy_csv.calls": 1,
            "fileio.parse_shocks_csv.calls": 1,
            "fileio.write_results.calls": 1,
            "largest_first.iters": 2,
            "lp.build_max_output_lp.calls": 2,
            "lp.optimal_allocation.calls": 2,
            "lp.pivots": 2,
            "lp.solve.calls": 2,
            "meem.classify.calls": 1,
            "meem.solve_meem.calls": 1,
            "meem.violations": 1,
            "mixed.iters": 2,
            "proportional.iters": 2,
            "random.iters": 4,
            "rationing.largest_first_rankings.calls": 1,
            "rationing.random_rankings.calls": 2,
            "rationing.ration_largest_first.calls": 1,
            "rationing.ration_mixed.calls": 1,
            "rationing.ration_proportional.calls": 1,
            "rationing.ration_random.calls": 2,
            "shocks.allocation_is_feasible.calls": 6,
            "shocks.make_constraints.calls": 1,
        }
        declared = json.loads((BENCHMARKS.parent / "BENCHMARK.json").read_text())
        # trace.overhead_s is measured by benchmarks/run.py, not by a tracer
        expected = {m["name"] for m in declared["per_layer"]} - {"trace.overhead_s"}
        metrics = tracing.layer_metrics(tracer)
        assert len(metrics) == 44
        assert set(metrics) == expected
