import csv
import json

import numpy as np
import numpy.testing as npt
import pytest

from ioshock import (
    ShockScenario,
    SweepSpec,
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
    MissingIndustry,
    NegativeEntry,
    OutOfRange,
    ParseError,
    UnknownIndustry,
)

from conftest import random_economy

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

    def test_provenance_line(self, tmp_path):
        p = tmp_path / "e.csv"
        write_economy_csv(p, parse_economy_csv(write(tmp_path, "in.csv",
                                                     CHAIN3_CSV)),
                          provenance={"seed": 7})
        first = p.read_text().splitlines()[0]
        assert first.startswith("# ")
        assert json.loads(first[2:]) == {"seed": 7}


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
        s = parse_shocks_csv(write(tmp_path, "s.csv", text), self.LABELS,
                             alpha_supply=0.25, alpha_demand=0.75)
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

    def test_out_of_range_reports_location(self, tmp_path):
        text = ("industry,supply_shock,demand_shock\n"
                "upstream,0.5,0\nparts,1.5,0\ngoods,0,0\n")
        with pytest.raises(OutOfRange, match=r"s\.csv:3"):
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
        allocations = [direct_allocation(chain3, c, chain3_op)]
        records = sweep_scale(chain3, chain3_scenario,
                              SweepSpec(grid=((0.0, 0.0), (1.0, 1.0))))
        return write_results(tmp_path / "out", chain3, c, allocations,
                             records, summarize(records),
                             provenance={"master_seed": 0})

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
