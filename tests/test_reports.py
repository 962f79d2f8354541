"""Report payloads of the result types that serialize their own fields, and
the files that ``reportio`` writes from them."""

import csv
import json
import math
import os
from dataclasses import fields

import pytest

from featscan.embedded import FitMetrics
from featscan.inference import Characterization, RestrictionProfile, SignificanceResult
from featscan.reportio import dumps_canonical, write_csv_atomic, write_report
from featscan.wrapper import EliminationStep, EliminationTrace

METRICS = FitMetrics(f1=0.5, accuracy=0.75, log_loss=0.6931471805599453,
                     holdout_fraction=0.2, n_holdout=40, seed=3)
SIGNIFICANCE = SignificanceResult(observed_score=12.5,
                                  replicate_scores=(3.25, 0.1 + 0.2, 0.0),
                                  p_value=0.5, r_replicates=3, seed=7)
CHARACTERIZATION = Characterization(
    records=(
        RestrictionProfile("dept", ("er", "icu"), 0.4, {"icu": 0.75, "er": 0.25}),
        RestrictionProfile("sex", ("F",), 0.5, {"F": 1.0}),
    ),
    subset_size=8, subset_outcome_rate=0.625, alpha_g=0.3)
TRACE = EliminationTrace(
    initial=("a", "b", "c"),
    steps=[EliminationStep("c", 0.75, ("a", "b")),
           EliminationStep("b", None, ("a",))],
    final=["a"])

# each instance's to_json_dict() as hand-written mappings gave it, before
# the payload became the dataclass's fields
PINNED = {
    "significance": (SIGNIFICANCE, {
        "observed_score": 12.5,
        "p_value": 0.5,
        "r_replicates": 3,
        "seed": 7,
        "replicate_scores": [3.25, 0.30000000000000004, 0.0],
    }),
    "characterization": (CHARACTERIZATION, {
        "records": [
            {"feature": "dept", "values": ["er", "icu"],
             "population_prevalence": 0.4,
             "subset_value_shares": {"er": 0.25, "icu": 0.75}},
            {"feature": "sex", "values": ["F"], "population_prevalence": 0.5,
             "subset_value_shares": {"F": 1.0}},
        ],
        "subset_size": 8,
        "subset_outcome_rate": 0.625,
        "alpha_g": 0.3,
    }),
    "elimination_trace": (TRACE, {
        "initial": ["a", "b", "c"],
        "steps": [
            {"dropped": "c", "p_value": 0.75, "surviving": ["a", "b"]},
            {"dropped": "b", "p_value": None, "surviving": ["a"]},
        ],
        "final": ["a"],
    }),
}


@pytest.mark.parametrize("name", PINNED)
def test_report_bytes_pinned(name):
    result, expected = PINNED[name]
    assert dumps_canonical(result.to_json_dict()) == dumps_canonical(expected)


def field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


@pytest.mark.parametrize("result", [METRICS, SIGNIFICANCE, CHARACTERIZATION, TRACE],
                         ids=lambda r: type(r).__name__)
def test_report_keys_are_field_names(result):
    doc = result.to_json_dict()
    assert set(doc) == field_names(type(result))
    for key, item_cls in (("records", RestrictionProfile), ("steps", EliminationStep)):
        for item in doc.get(key, ()):
            assert set(item) == field_names(item_cls)


def test_report_values_read_back_exactly(tmp_path):
    # a float keeps its type, its bits and the sign of zero; an int stays
    # an int
    values = [1.0, -0.0, 1e16, 0.1, 5e-324, math.inf, -math.inf, math.nan, 3]
    path = write_report(tmp_path / "r.json", {"values": values})
    with open(path, encoding="utf-8") as fh:
        got = json.load(fh)["values"]
    assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in values]


def test_csv_cells_read_back_as_written(tmp_path):
    path = write_csv_atomic(tmp_path / "r.csv", ["label", "x", "n"],
                            [['a, "b"', 0.05, 2], ["c", -0.0, 3]])
    with open(path, encoding="utf-8", newline="") as fh:
        got = list(csv.reader(fh))
    assert got == [["label", "x", "n"], ['a, "b"', "0.05", "2"], ["c", "-0.0", "3"]]
    assert b"\r" not in path.read_bytes()


@pytest.mark.parametrize("write", [
    lambda path: write_report(path, {"a": 1.0}),
    lambda path: write_csv_atomic(path, ["a"], [[1.0]]),
], ids=["report", "csv"])
def test_file_mode_follows_umask(tmp_path, write):
    # a written file gets the mode a plainly created file gets, not a
    # temp file's 0600
    old = os.umask(0o022)
    try:
        with open(tmp_path / "plain", "x"):
            pass
        path = write(tmp_path / "written")
    finally:
        os.umask(old)
    want = (tmp_path / "plain").stat().st_mode & 0o777
    assert path.stat().st_mode & 0o777 == want == 0o644


class Unwritable:
    def __str__(self):
        raise ValueError("no text")


def test_failed_write_keeps_old_file(tmp_path):
    path = write_csv_atomic(tmp_path / "r.csv", ["a"], [[1]])
    with pytest.raises(ValueError, match="no text"):
        write_csv_atomic(path, ["a"], [[2], [Unwritable()]])
    assert path.read_text(encoding="utf-8") == "a\n1\n"
    assert os.listdir(tmp_path) == ["r.csv"]
