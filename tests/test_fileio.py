import csv
import hashlib
import io
import json
import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ioshock import (
    ShockScenario,
    SweepSpec,
    build_economy,
    direct_allocation,
    file_digest,
    make_constraints,
    parse_economy_csv,
    parse_shocks_csv,
    summarize,
    sweep_scale,
    write_economy_csv,
    write_results,
)
from ioshock.errors import (
    IdentityViolation,
    IoShockError,
    MissingIndustry,
    NegativeEntry,
    OutOfRange,
    ParseError,
    UnknownIndustry,
)
from ioshock.experiments import AllocationRow
from ioshock.fileio import ECONOMY_GROSS_OUTPUT_RTOL

from conftest import random_economy, sized_economy, traced_peak

CHAIN3_CSV = """\
# toy three-industry chain
industry,upstream,parts,goods,final_demand
upstream,0,4,2,4
parts,0,0,0,6
goods,0,0,0,8
"""

CHAIN3_CSV_WITH_X = """\
industry,upstream,parts,goods,final_demand,gross_output
upstream,0,4,2,4,10
parts,0,0,0,6,6
goods,0,0,0,8,8
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestParseEconomy:
    def test_chain3(self, tmp_path):
        e = parse_economy_csv(write(tmp_path, "e.csv", CHAIN3_CSV))
        assert e.labels == ("upstream", "parts", "goods")
        npt.assert_array_equal(e.Z, [[0, 4, 2], [0, 0, 0], [0, 0, 0]])
        npt.assert_array_equal(e.f, [4.0, 6.0, 8.0])
        npt.assert_array_equal(e.x, [10.0, 6.0, 8.0])

    def test_gross_output_cross_check(self, tmp_path):
        e = parse_economy_csv(write(tmp_path, "e.csv", CHAIN3_CSV_WITH_X))
        npt.assert_array_equal(e.x, [10.0, 6.0, 8.0])

    def test_gross_output_mismatch(self, tmp_path):
        bad = CHAIN3_CSV_WITH_X.replace(",4,10", ",4,11")
        with pytest.raises(IdentityViolation, match="upstream"):
            parse_economy_csv(write(tmp_path, "e.csv", bad))

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        text = "\n# a\n" + CHAIN3_CSV.replace("parts,0,0,0,6\n",
                                              "parts,0,0,0,6\n\n  # b\n")
        e = parse_economy_csv(write(tmp_path, "e.csv", text))
        assert e.n == 3

    def test_row_label_order_enforced(self, tmp_path):
        swapped = CHAIN3_CSV.replace("parts,0,0,0,6", "goods,0,0,0,6")
        with pytest.raises(ParseError, match="row label"):
            parse_economy_csv(write(tmp_path, "e.csv", swapped))

    def test_wrong_cell_count(self, tmp_path):
        bad = CHAIN3_CSV.replace("parts,0,0,0,6", "parts,0,0,0")
        with pytest.raises(ParseError, match="expected 5 cells"):
            parse_economy_csv(write(tmp_path, "e.csv", bad))

    def test_non_numeric_cell_reports_location(self, tmp_path):
        bad = CHAIN3_CSV.replace("goods,0,0,0,8", "goods,0,0,x,8")
        with pytest.raises(ParseError, match=r"e\.csv:5"):
            parse_economy_csv(write(tmp_path, "e.csv", bad))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_reports_location(self, tmp_path, cell):
        bad = CHAIN3_CSV.replace("goods,0,0,0,8", f"goods,0,0,{cell},8")
        with pytest.raises(ParseError, match=r"e\.csv:5 column 4: .* not finite"):
            parse_economy_csv(write(tmp_path, "e.csv", bad))

    def test_negative_flow_rejected(self, tmp_path):
        bad = CHAIN3_CSV.replace("upstream,0,4,2,4", "upstream,0,-4,2,4")
        with pytest.raises(NegativeEntry):
            parse_economy_csv(write(tmp_path, "e.csv", bad))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="no header"):
            parse_economy_csv(write(tmp_path, "e.csv", "# only comments\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError, match="final_demand"):
            parse_economy_csv(write(tmp_path, "e.csv",
                                    "industry,a,b,demand\na,0,0,1\nb,0,0,1\n"))


class TestEconomyRoundTrip:
    def test_bit_identical(self, tmp_path):
        rng = np.random.default_rng(19)
        for k in range(5):
            e = random_economy(rng)
            p1, p2 = tmp_path / f"a{k}.csv", tmp_path / f"b{k}.csv"
            write_economy_csv(p1, e)
            e2 = parse_economy_csv(p1)
            npt.assert_array_equal(e2.Z, e.Z)
            npt.assert_array_equal(e2.f, e.f)
            write_economy_csv(p2, e2)
            assert file_digest(p1) == file_digest(p2)

    @pytest.mark.parametrize("label", ["#a", " a", "a ", "", "a\nb", "a\rb"])
    def test_unwritable_label(self, tmp_path, label):
        e = build_economy(np.zeros((2, 2)), [1.0, 2.0], labels=[label, "b"])
        p = tmp_path / "e.csv"
        with pytest.raises(ParseError, match=re.escape(repr(label))):
            write_economy_csv(p, e)
        assert not p.exists()

    def test_provenance_line(self, tmp_path):
        p = tmp_path / "e.csv"
        write_economy_csv(p, parse_economy_csv(write(tmp_path, "in.csv",
                                                     CHAIN3_CSV)),
                          provenance={"seed": 7})
        first = p.read_text().splitlines()[0]
        assert first.startswith("# ")
        assert json.loads(first[2:]) == {"seed": 7}


# Labels the format can carry: no newline, no surrounding blanks (cells are
# stripped), no leading '#' (a comment line). Commas and quotes are quoted.
LABEL = st.text(st.sampled_from("abcXYZ019 _-&,.()\"'"), min_size=1,
                max_size=8).filter(lambda t: t == t.strip()
                                   and not t.startswith("#"))
UNIT = st.floats(0.0, 1.0)


@st.composite
def economies(draw):
    labels = draw(st.lists(LABEL, min_size=1, max_size=6, unique=True))
    n = len(labels)
    cells = st.floats(0.0, 1e6, allow_subnormal=True)
    Z = draw(hnp.arrays(float, (n, n), elements=cells))
    f = draw(hnp.arrays(float, n, elements=cells))
    return build_economy(Z, f, labels=labels)


def write_table(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


@st.composite
def shock_tables(draw):
    labels = draw(st.lists(LABEL, min_size=1, max_size=6, unique=True))
    rows = draw(st.permutations(labels))
    values = {label: draw(st.tuples(UNIT, UNIT, UNIT)) for label in labels}
    return labels, rows, values


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(economies())
    def test_economy(self, tmp_path_factory, e):
        p = tmp_path_factory.mktemp("economy") / "e.csv"
        write_economy_csv(p, e)
        back = parse_economy_csv(p)
        assert back.labels == e.labels
        npt.assert_array_equal(back.Z, e.Z)
        npt.assert_array_equal(back.f, e.f)

    @settings(max_examples=100, deadline=None)
    @given(shock_tables())
    def test_shocks(self, tmp_path_factory, table):
        labels, rows, values = table
        directory = tmp_path_factory.mktemp("shocks")
        direct, raw = directory / "direct.csv", directory / "raw.csv"
        write_table(direct, ["industry", "supply_shock", "demand_shock"],
                    [[label, repr(values[label][0]), repr(values[label][2])]
                     for label in rows])
        write_table(raw, ["industry", "rli", "essential_share", "demand_shock"],
                    [[label, *map(repr, values[label])] for label in rows])

        demand = [values[label][2] for label in labels]
        s = parse_shocks_csv(direct, labels)
        npt.assert_array_equal(s.eps_supply, [values[label][0] for label in labels])
        npt.assert_array_equal(s.eps_demand, demand)
        s = parse_shocks_csv(raw, labels)
        npt.assert_array_equal(
            s.eps_supply,
            [(1.0 - rli) * (1.0 - ess) for rli, ess, _ in map(values.get, labels)])
        npt.assert_array_equal(s.eps_demand, demand)


def loop_data_rows(path):
    """Reference: the line reader as first written, a StringIO per line."""
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            row = next(csv.reader(io.StringIO(line)))
            yield lineno, [cell.strip() for cell in row]


def loop_parse_float(cell, path, lineno, col):
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"{path}:{lineno} column {col + 1}: {cell!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"{path}:{lineno} column {col + 1}: {cell!r} is not finite")
    return value


def loop_parse_economy_csv(path):
    """Reference: the economy parser as first written, which holds every
    line of the file before it converts one cell at a time."""
    rows = list(loop_data_rows(path))
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
            Z[r, j] = loop_parse_float(row[1 + j], path, lineno, 1 + j)
        f[r] = loop_parse_float(row[1 + n], path, lineno, 1 + n)
        if has_x:
            declared_x[r] = loop_parse_float(row[2 + n], path, lineno, 2 + n)

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


def assert_same_economy(a, b):
    """Equal labels and bitwise equal arrays, so signed zeros count."""
    assert a.labels == b.labels
    for name in ("Z", "f", "x", "v"):
        assert np.array_equal(getattr(a, name).view(np.int64),
                              getattr(b, name).view(np.int64)), name


def parse_outcome(parse, path):
    """The Economy parse makes of path, or the (type, message) it raises."""
    try:
        return parse(path)
    except (IoShockError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


PARTS_ROW = "parts,0,0,0,6,6\n"
#: comment lines enough to push a later line past the first decoded chunk
PADDING = "# padding\n" * 3000


MALFORMED = {
    **{f"{cell}-in-{where}": CHAIN3_CSV_WITH_X.replace(PARTS_ROW, row)
       for cell in ("nan", "inf", "abc")
       for where, row in (("Z", f"parts,0,{cell},0,6,6\n"),
                          ("final_demand", f"parts,0,0,0,{cell},6\n"),
                          ("gross_output", f"parts,0,0,0,6,{cell}\n"))},
    "short-row": CHAIN3_CSV_WITH_X.replace(PARTS_ROW, "parts,0,0,0,6\n"),
    "long-row": CHAIN3_CSV_WITH_X.replace(PARTS_ROW, "parts,0,0,0,6,6,1\n"),
    "wrong-row-label": CHAIN3_CSV_WITH_X.replace(PARTS_ROW, "goods,0,0,0,6,6\n"),
    "too-few-rows": CHAIN3_CSV_WITH_X.replace("goods,0,0,0,8,8\n", ""),
    "too-few-rows-and-bad-cell": CHAIN3_CSV_WITH_X.replace(
        "goods,0,0,0,8,8\n", "").replace(PARTS_ROW, "parts,0,abc,0,6,6\n"),
    "too-many-rows": CHAIN3_CSV_WITH_X + "extra,0,0,0,1,1\n",
    "too-many-rows-and-bad-cell": CHAIN3_CSV_WITH_X.replace(
        PARTS_ROW, "parts,0,nan,0,6,6\n") + "extra,0,0,0,1,1\n",
    "too-many-rows-and-short-row": CHAIN3_CSV_WITH_X.replace(
        PARTS_ROW, "parts,0\n") + "extra\n",
    "empty-file": "",
    "only-comments": "# only comments\n\n",
    "bad-first-header-cell": CHAIN3_CSV_WITH_X.replace("industry,", "sector,"),
    "no-final-demand": CHAIN3_CSV_WITH_X.replace("final_demand", "demand"),
    "bad-header-and-too-few-rows": "industry,a,b,demand\na,0,0,1\n",
    "gross-output-mismatch": CHAIN3_CSV_WITH_X.replace(",4,10", ",4,11"),
    "negative-flow": CHAIN3_CSV.replace("upstream,0,4,2,4", "upstream,0,-4,2,4"),
    "crlf": CHAIN3_CSV_WITH_X.replace("\n", "\r\n"),
    "crlf-and-bad-cell": CHAIN3_CSV_WITH_X.replace(
        PARTS_ROW, "parts,0,0,abc,6,6\n").replace("\n", "\r\n"),
    "interleaved-comments": CHAIN3_CSV.replace(
        "parts,0,0,0,6\n", "\n# a\nparts,0,0,0,6\n  \n  # b\n\n"),
    "interleaved-comments-and-bad-cell": CHAIN3_CSV.replace(
        "parts,0,0,0,6\n", "\n# a\nparts,0,0,0,6\n  \n  # b\n\n").replace(
        "goods,0,0,0,8", "goods,0,0,inf,8"),
    "quoted-label-with-comma": CHAIN3_CSV.replace("upstream", '"up,stream"'),
    "quoted-label-with-comma-and-long-row": CHAIN3_CSV.replace(
        "upstream", '"up,stream"').replace("goods,0,0,0,8", 'goods,0,0,0,8,"9,9"'),
    "signed-zeros": CHAIN3_CSV.replace("parts,0,0,0,6", "parts,-0.0,-0,0,6"),
    "spaces-and-exponents": CHAIN3_CSV.replace("upstream,0,4,2,4",
                                               "upstream, 0 ,4e0, 2.0 ,+4"),
}
#: files that do not decode as UTF-8, the bad byte past the first chunk read
UNDECODABLE = {
    "undecodable-after-bad-header": (
        CHAIN3_CSV.replace("industry,", "sector,") + PADDING).encode() + b"\xff\n",
    "undecodable-after-bad-cell": (
        CHAIN3_CSV.replace("parts,0,0,0,6", "parts,0,x,0,6") + PADDING).encode()
        + b"# \xff\n",
    "undecodable-after-all-rows": (CHAIN3_CSV + PADDING).encode() + b"\xfe\n",
}


class TestStreamingParser:
    """parse_economy_csv against the whole-file loop form it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(economies())
    def test_matches_loop_form(self, tmp_path_factory, e):
        p = tmp_path_factory.mktemp("economy") / "e.csv"
        write_economy_csv(p, e)
        assert_same_economy(parse_economy_csv(p), loop_parse_economy_csv(p))

    @pytest.mark.parametrize("name", [*MALFORMED, *UNDECODABLE])
    def test_same_outcome_as_loop_form(self, tmp_path, name):
        p = tmp_path / "e.csv"
        if name in UNDECODABLE:
            p.write_bytes(UNDECODABLE[name])
        else:
            p.write_text(MALFORMED[name], encoding="utf-8", newline="")
        got, want = parse_outcome(parse_economy_csv, p), parse_outcome(loop_parse_economy_csv, p)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_economy(got, want)

    def test_row_count_outranks_a_bad_cell(self, tmp_path):
        for name, count in (("too-few-rows-and-bad-cell", 2),
                            ("too-many-rows-and-bad-cell", 4)):
            p = write(tmp_path, f"{name}.csv", MALFORMED[name])
            with pytest.raises(ParseError, match=rf"{name}\.csv: header names 3 "
                                                 rf"industries but file has {count} data rows"):
                parse_economy_csv(p)

    def test_crlf_reads_like_lf(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_text(MALFORMED["crlf"], encoding="utf-8", newline="")
        assert_same_economy(parse_economy_csv(p), parse_economy_csv(
            write(tmp_path, "lf.csv", CHAIN3_CSV_WITH_X)))
        p.write_text(MALFORMED["crlf-and-bad-cell"], encoding="utf-8", newline="")
        with pytest.raises(ParseError, match=r"crlf\.csv:3 column 4: 'abc'"):
            parse_economy_csv(p)

    def test_quoted_label_with_comma(self, tmp_path):
        e = parse_economy_csv(write(tmp_path, "e.csv", MALFORMED["quoted-label-with-comma"]))
        assert e.labels == ("up,stream", "parts", "goods")


class TestParseMemory:
    N = 200

    def test_parse_holds_few_copies_of_z(self, tmp_path):
        p = tmp_path / "e.csv"
        write_economy_csv(p, sized_economy(3, self.N, 0.3))
        # test_economy_takes_over_parsed_z below holds the tighter bound
        assert traced_peak(parse_economy_csv, p) <= 3 * self.N**2 * 8

    def test_economy_takes_over_parsed_z(self, tmp_path):
        p = tmp_path / "e.csv"
        write_economy_csv(p, sized_economy(3, self.N, 0.3))
        # Z alone, which the Economy keeps: about 1.3 n**2 doubles
        assert traced_peak(parse_economy_csv, p) <= 1.5 * self.N**2 * 8


class TestParseShocks:
    LABELS = ("upstream", "parts", "goods")

    def test_raw_form(self, tmp_path):
        text = ("industry,rli,essential_share,demand_shock\n"
                "upstream,0.15,0,0.1\nparts,0.136,1,0\ngoods,0.569,0,0.2\n")
        s = parse_shocks_csv(write(tmp_path, "s.csv", text), self.LABELS)
        npt.assert_allclose(s.eps_supply, [0.85, 0.0, 0.431])
        npt.assert_allclose(s.eps_demand, [0.1, 0.0, 0.2])

    def test_direct_form_any_order(self, tmp_path):
        text = ("industry,supply_shock,demand_shock\n"
                "goods,0.3,0\nupstream,0.5,0.1\nparts,0,0\n")
        s = parse_shocks_csv(write(tmp_path, "s.csv", text), self.LABELS)
        npt.assert_allclose(s.eps_supply, [0.5, 0.0, 0.3])

    def test_percent(self, tmp_path):
        text = ("industry,supply_shock,demand_shock\n"
                "upstream,50,10\nparts,0,0\ngoods,30,0\n")
        s = parse_shocks_csv(write(tmp_path, "s.csv", text), self.LABELS,
                             percent=True)
        npt.assert_allclose(s.eps_supply, [0.5, 0.0, 0.3])
        npt.assert_allclose(s.eps_demand, [0.1, 0.0, 0.0])

    def test_alphas_attached(self, tmp_path):
        text = ("industry,supply_shock,demand_shock\n"
                "upstream,0.5,0\nparts,0,0\ngoods,0,0\n")
        s = parse_shocks_csv(write(tmp_path, "s.csv", text), self.LABELS)
        assert (s.alpha_supply, s.alpha_demand) == (1.0, 1.0)
        # the command line sets the alphas on the parsed scenario
        s = s.with_alphas(0.25, 0.75)
        assert (s.alpha_supply, s.alpha_demand) == (0.25, 0.75)

    def test_unknown_industry(self, tmp_path):
        text = "industry,supply_shock,demand_shock\nsteel,0.5,0\n"
        with pytest.raises(UnknownIndustry, match=r"s\.csv:2"):
            parse_shocks_csv(write(tmp_path, "s.csv", text), self.LABELS)

    def test_missing_industry(self, tmp_path):
        text = "industry,supply_shock,demand_shock\nupstream,0.5,0\n"
        p = write(tmp_path, "s.csv", text)
        with pytest.raises(MissingIndustry, match="parts"):
            parse_shocks_csv(p, self.LABELS)
        s = parse_shocks_csv(p, self.LABELS, allow_missing=True)
        npt.assert_allclose(s.eps_supply, [0.5, 0.0, 0.0])

    def test_duplicate_industry(self, tmp_path):
        text = ("industry,supply_shock,demand_shock\n"
                "upstream,0.5,0\nupstream,0.2,0\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_shocks_csv(write(tmp_path, "s.csv", text), self.LABELS)

    @pytest.mark.parametrize("header,row,name", [
        ("supply_shock,demand_shock", "1.5,0", "supply_shock"),
        ("supply_shock,demand_shock", "0,3", "demand_shock"),
        ("rli,essential_share,demand_shock", "1.5,0,0", "rli"),
        ("rli,essential_share,demand_shock", "0,-0.5,0", "essential"),
        ("rli,essential_share,demand_shock", "0,0,3", "demand_shock"),
    ], ids=["supply_shock", "demand_shock", "rli", "essential_share",
            "raw_demand_shock"])
    def test_out_of_range_reports_location(self, tmp_path, header, row, name):
        zeros = ",0" * (header.count(",") + 1)
        text = f"industry,{header}\nupstream{zeros}\nparts,{row}\ngoods{zeros}\n"
        with pytest.raises(OutOfRange, match=rf"s\.csv:3: {name} must lie in \[0, 1\]"):
            parse_shocks_csv(write(tmp_path, "s.csv", text), self.LABELS)

    @pytest.mark.parametrize("text", [
        "industry,supply_shock,demand_shock\nparts,{},0\n",
        "industry,supply_shock,demand_shock\nparts,0,{}\n",
        "industry,rli,essential_share,demand_shock\nparts,{},0.5,0\n",
    ])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_location(self, tmp_path, text, cell):
        path = write(tmp_path, "s.csv", text.format(cell))
        with pytest.raises(ParseError, match=r"s\.csv:2 column \d: .* not finite"):
            parse_shocks_csv(path, self.LABELS)

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError, match="header must be"):
            parse_shocks_csv(write(tmp_path, "s.csv", "industry,shock\na,1\n"),
                             self.LABELS)


class TestWriteResults:
    def files(self, tmp_path, chain3, chain3_op, chain3_scenario):
        c = make_constraints(chain3, chain3_scenario)
        a = direct_allocation(chain3_op, c)
        rows = [AllocationRow(label, a.method, a.x[i], a.f[i], c.x_max[i],
                              c.f_max[i], a.feasible, a.iterations)
                for i, label in enumerate(chain3.labels)]
        records = sweep_scale(chain3, chain3_scenario,
                              SweepSpec(grid=((0.0, 0.0), (1.0, 1.0))))
        return write_results(tmp_path / "out", rows, records,
                             summarize(records), {"master_seed": 0})

    def test_three_files_strict_csv(self, tmp_path, chain3, chain3_op,
                                    chain3_scenario):
        paths = self.files(tmp_path, chain3, chain3_op, chain3_scenario)
        assert [p.split("/")[-1] for p in paths] == [
            "allocations.csv", "sweep.csv", "summary.csv"]
        for p in paths:
            lines = open(p, encoding="utf-8").read().splitlines()
            assert lines[0].startswith("# ")
            json.loads(lines[0][2:])
            body = list(csv.reader(lines[1:]))
            width = len(body[0])
            assert all(len(row) == width for row in body)
            assert len(body) > 1

    def test_column_order(self, tmp_path, chain3, chain3_op, chain3_scenario):
        # benchmarks and users read these columns; pin names and order
        paths = self.files(tmp_path, chain3, chain3_op, chain3_scenario)
        headers = [open(p, encoding="utf-8").read().splitlines()[1].split(",")
                   for p in paths]
        assert headers == [
            ["industry", "method", "x", "f", "x_max", "f_max", "feasible",
             "iterations"],
            ["alpha_supply", "alpha_demand", "density_target", "method",
             "replicate", "sample", "total_output", "total_consumption",
             "norm_output", "norm_consumption", "feasible", "converged",
             "avg_multiplier", "intermediate_share", "error"],
            ["alpha_supply", "alpha_demand", "density_target", "method",
             "count", "failures", "mean_output", "q25_output", "q50_output",
             "q75_output", "mean_consumption", "q25_consumption",
             "q50_consumption", "q75_consumption"],
        ]

    def test_allocations_content(self, tmp_path, chain3, chain3_op,
                                 chain3_scenario):
        paths = self.files(tmp_path, chain3, chain3_op, chain3_scenario)
        lines = open(paths[0], encoding="utf-8").read().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert [r["industry"] for r in rows] == ["I1", "I2", "I3"]
        assert rows[0]["method"] == "direct"
        assert rows[0]["x"] == "5.0"
        assert rows[0]["feasible"] == "false"

    def test_rerun_is_byte_identical(self, tmp_path, chain3, chain3_op,
                                     chain3_scenario):
        a = self.files(tmp_path / "a", chain3, chain3_op, chain3_scenario)
        b = self.files(tmp_path / "b", chain3, chain3_op, chain3_scenario)
        for pa, pb in zip(a, b):
            assert file_digest(pa) == file_digest(pb)

    def test_digest_is_sha256(self, tmp_path):
        p = write(tmp_path, "x.txt", "hello\n")
        assert file_digest(p) == (
            "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03")

    def test_digest_of_file_larger_than_chunks(self, tmp_path):
        data = np.random.default_rng(5).bytes(3 * 2**20 + 12345)
        p = tmp_path / "big.bin"
        p.write_bytes(data)
        assert file_digest(p) == hashlib.sha256(data).hexdigest()
