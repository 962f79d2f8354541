"""Report payloads of the result types that serialize their own fields."""

from dataclasses import fields

import pytest

from featscan.embedded import FitMetrics
from featscan.inference import Characterization, RestrictionProfile, SignificanceResult
from featscan.reportio import dumps_canonical
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
