"""The seeded commands of ``tests/golden/regen.py`` still write their
golden tables.

Where the recorded numpy and BLAS are this machine's, every file must
match byte for byte. Elsewhere numbers may move in their last bits, so
they must agree to ``RTOL``, while flags, counts, method names, errors
and the provenance line must match exactly.
"""

import csv
import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

from test_cli import child_env

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

RTOL = 1e-12
_INTEGER = re.compile(r"-?\d+\Z")


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def numeric_diffs(golden, produced):
    """Where ``produced`` departs from ``golden`` beyond last-bit noise:
    a cell that is not a non-integer number must be equal as text; a
    number may differ by RTOL times the larger of its own magnitude and
    the largest in its column of the golden table."""
    want = list(csv.reader(golden.splitlines()))
    got = list(csv.reader(produced.splitlines()))
    if len(want) != len(got):
        return [f"{len(got)} lines, expected {len(want)}"]
    scale = {}
    for row in want:
        for j, cell in enumerate(row):
            v = _float(cell)
            if v is not None and math.isfinite(v):
                scale[j] = max(scale.get(j, 0.0), abs(v))
    diffs = []
    for line, (w_row, g_row) in enumerate(zip(want, got), start=1):
        if len(w_row) != len(g_row):
            diffs.append(f"line {line}: {len(g_row)} cells, expected {len(w_row)}")
            continue
        for j, (w, g) in enumerate(zip(w_row, g_row)):
            if w == g:
                continue
            a, b = _float(w), _float(g)
            if (_INTEGER.match(w) or a is None or b is None
                    or not abs(a - b) <= RTOL * max(abs(a), scale.get(j, 0.0))):
                diffs.append(f"line {line}, cell {j + 1}: {g!r}, expected {w!r}")
    return diffs


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """Every case run once, each into its own directory."""
    root = tmp_path_factory.mktemp("golden")
    env = dict(child_env(), **regen.ONE_THREAD)
    for name, argv in regen.CASES.items():
        regen.run_case(argv, root / name, env)
    return root


def recorded_manifest():
    return json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def test_corpus_holds_every_case():
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == sorted(regen.CASES)


@pytest.mark.parametrize("case", sorted(regen.CASES))
def test_outputs_match_golden(produced, case):
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in (produced / case).iterdir()) == expected
    exact = regen.manifest() == recorded_manifest()
    for name in expected:
        want = (GOLDEN / case / name).read_text(encoding="utf-8")
        got = (produced / case / name).read_text(encoding="utf-8")
        if exact:
            assert got == want, f"{case}/{name} differs from the golden file"
        else:
            assert numeric_diffs(want, got) == [], f"{case}/{name}"


class TestNumericDiffs:
    TABLE = ("# {\"seed\": 7, \"tol\": 1e-10}\n"
             "method,replicate,total_output,converged,error\n"
             "direct,0,19.0,true,\n"
             "random,1,17.123456789012345,false,singular block\n"
             "meem,0,1e-17,true,\n")

    def test_equal_tables_agree(self):
        assert numeric_diffs(self.TABLE, self.TABLE) == []

    def test_last_bits_forgiven(self):
        moved = self.TABLE.replace("17.123456789012345", "17.123456789012348")
        assert numeric_diffs(self.TABLE, moved.replace("1e-17", "0.0")) == []

    @pytest.mark.parametrize("old,new", [
        ("17.123456789012345", "17.123456789112345"),  # one digit, 1e-10 away
        ("19.0", "18.0"),
        ("direct,0", "direct,1"),                       # a count
        ("false", "true"),
        ("singular block", "singular blocks"),
        ("1e-10", "1e-11"),                             # the provenance line
    ])
    def test_real_changes_caught(self, old, new):
        assert numeric_diffs(self.TABLE, self.TABLE.replace(old, new, 1)) != []

    def test_lost_row_caught(self):
        assert numeric_diffs(self.TABLE, self.TABLE.rsplit("meem", 1)[0]) != []


class TestDescribe:
    """regen.py says what moved before it rewrites the corpus."""

    TABLE = ("# {\"seed\": 7}\n"
             "alpha_supply,method,sample,total_output,error\n"
             "0.5,direct,0,19.0,\n"
             "0.5,random,0,17.0,\n"
             "0.5,random,1,16.0,\n")

    def write(self, root, files):
        root.mkdir()
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8")
        return root

    def test_unchanged(self):
        assert regen.describe_table(self.TABLE, self.TABLE) == [
            "all 3 rows unchanged in the shared columns"]

    def test_moved_rows_keyed_largest_first(self):
        moved = (self.TABLE.replace("17.0", "17.0000001")
                 .replace("16.0,", "8.0,singular block"))
        assert regen.describe_table(self.TABLE, moved) == [
            "2 of 3 rows moved, largest relative change inf",
            "  alpha_supply=0.5 method=random sample=1: inf",
            "  alpha_supply=0.5 method=random sample=0: 5.88e-09"]

    def test_new_header_compares_shared_columns(self):
        lines = self.TABLE.splitlines()
        wider = "\n".join([lines[0], "alpha_supply,alpha_demand,method,sample,"
                           "total_output,error",
                           *(line.replace("0.5,", "0.5,1.0,", 1)
                             for line in lines[2:])]) + "\n"
        assert regen.describe_table(self.TABLE, wider) == [
            "new header: alpha_supply,alpha_demand,method,sample,total_output,error",
            "all 3 rows unchanged in the shared columns"]

    def test_rows_added_and_lost(self):
        fewer = self.TABLE.rsplit("0.5,random,1", 1)[0]
        more = (self.TABLE.replace("7", "8", 1)  # the provenance line
                + "1.0,direct,0,20.0,\n")
        assert regen.describe_table(self.TABLE, fewer) == [
            "1 rows lost, first: alpha_supply=0.5 method=random sample=1"]
        assert regen.describe_table(self.TABLE, more) == [
            "new provenance line",
            "1 rows added, first: alpha_supply=1.0 method=direct sample=0"]

    def test_files_new_lost_and_unchanged(self, tmp_path):
        old = self.write(tmp_path / "old", {"sweep.csv": self.TABLE,
                                            "summary.csv": self.TABLE,
                                            regen.STDERR: "warning: a\n"})
        new = self.write(tmp_path / "new", {"sweep.csv": self.TABLE,
                                            "allocations.csv": self.TABLE,
                                            regen.STDERR: "warning: b\n"})
        assert regen.describe(old, new) == [
            "allocations.csv: new, 3 rows",
            f"{regen.STDERR}: changed",
            "  - warning: a",
            "  + warning: b",
            "summary.csv: lost",
            "sweep.csv: unchanged"]
