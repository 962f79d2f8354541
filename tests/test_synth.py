"""Synthetic data generation and its ground truth."""

import json
import math

import numpy as np
import pytest

from featscan.errors import InvalidSpecError
from featscan.mdss import score_bernoulli
from featscan.synth import PlantSpec, SynthSpec, generate, planted_probability, save
from featscan.tabular import FeatureKind, Schema, load_csv


def base_spec(**kw):
    args = dict(n_rows=2000, base_rate=0.2, n_continuous=2,
                arities=(3, 3), seed=0)
    args.update(kw)
    return SynthSpec(**args)


class TestGenerate:
    def test_no_plant_rate_near_base(self):
        d, gt = generate(base_spec(n_rows=5000))
        assert gt is None
        se = math.sqrt(0.2 * 0.8 / 5000)
        assert abs(d.outcome_mean() - 0.2) <= 3 * se

    def test_planted_rate_matches_odds_formula(self):
        plant = PlantSpec({"cat01": ("a",), "cat02": ("b",)}, q_star=4.0)
        d, gt = generate(base_spec(n_rows=20000, plant=plant))
        # odds multiplied by 4 at base 0.2 gives probability 0.5
        p1 = planted_probability(0.2, 4.0)
        assert p1 == pytest.approx(0.5)
        mask = (d.column("cat01") == "a") & (d.column("cat02") == "b")
        n_in = mask.sum()
        rate = d.outcome[mask].mean()
        assert abs(rate - p1) <= 3 * math.sqrt(p1 * (1 - p1) / n_in)

    def test_collinear_triple(self):
        spec = base_spec(n_continuous=3, collinear_triples=((0, 1, 2),))
        d, _ = generate(spec)
        resid = d.column("num03") - d.column("num01") - d.column("num02")
        assert resid.std() == pytest.approx(0.01, rel=0.2)

    def test_pairwise_correlation(self):
        spec = base_spec(n_rows=20000, n_continuous=3, pairwise_rho=0.6)
        d, _ = generate(spec)
        got = np.corrcoef(d.column("num01"), d.column("num02"))[0, 1]
        assert got == pytest.approx(0.6, abs=0.03)

    def test_bit_identical_for_equal_seeds(self):
        d1, _ = generate(base_spec(seed=11))
        d2, _ = generate(base_spec(seed=11))
        for f in d1.feature_names:
            np.testing.assert_array_equal(d1.column(f), d2.column(f))
        np.testing.assert_array_equal(d1.outcome, d2.outcome)

    def test_different_seeds_differ(self):
        d1, _ = generate(base_spec(seed=1))
        d2, _ = generate(base_spec(seed=2))
        assert not np.array_equal(d1.outcome, d2.outcome)

    def test_schema_kinds(self):
        spec = base_spec(arities=(2, 5))
        schema = spec.schema()
        assert schema.kind("cat01") is FeatureKind.BINARY
        assert schema.kind("cat02") is FeatureKind.NOMINAL
        assert schema.kind("num01") is FeatureKind.CONTINUOUS

    def test_planted_q_recoverable(self):
        # needs a small plant: a large one inflates the global mean and
        # biases the fitted odds multiplier downward
        hits = 0
        for seed in range(20):
            plant = PlantSpec({"cat01": ("a",), "cat02": ("b",)}, q_star=4.0)
            spec = SynthSpec(n_rows=20000, base_rate=0.2, n_continuous=1,
                             arities=(4, 4), plant=plant, seed=seed)
            d, _ = generate(spec)
            mask = (d.column("cat01") == "a") & (d.column("cat02") == "b")
            score, q = score_bernoulli(
                int(d.outcome[mask].sum()), int(mask.sum()), d.outcome_mean()
            )
            if score > 0 and abs(q - 4.0) / 4.0 <= 0.15:
                hits += 1
        assert hits > 10


class TestSpecValidation:
    def test_plant_on_continuous_rejected(self):
        with pytest.raises(InvalidSpecError):
            base_spec(plant=PlantSpec({"num01": ("a",)}, q_star=4.0))

    def test_plant_value_outside_domain(self):
        with pytest.raises(InvalidSpecError):
            base_spec(plant=PlantSpec({"cat01": ("z",)}, q_star=4.0))

    def test_q_star_must_exceed_one(self):
        with pytest.raises(InvalidSpecError):
            PlantSpec({"cat01": ("a",)}, q_star=1.0)

    @pytest.mark.parametrize("q_star", [math.inf, math.nan])
    def test_q_star_must_be_finite(self, q_star):
        with pytest.raises(InvalidSpecError, match="q_star must be in"):
            PlantSpec({"cat01": ("a",)}, q_star=q_star)

    def test_base_rate_domain(self):
        with pytest.raises(InvalidSpecError):
            base_spec(base_rate=0.0)

    def test_bad_triple(self):
        with pytest.raises(InvalidSpecError):
            base_spec(n_continuous=2, collinear_triples=((0, 1, 5),))

    def test_json_round_trip(self):
        spec = base_spec(plant=PlantSpec({"cat01": ("a", "b")}, q_star=3.0))
        doc = {
            "n_rows": spec.n_rows,
            "base_rate": spec.base_rate,
            "n_continuous": spec.n_continuous,
            "arities": list(spec.arities),
            "plant": {
                "restrictions": {"cat01": ["a", "b"]},
                "q_star": 3.0,
            },
            "seed": 0,
        }
        assert SynthSpec.from_json_dict(doc) == spec


SPEC_DOC = {
    "n_rows": 100, "base_rate": 0.2, "n_continuous": 3, "pairwise_rho": 0,
    "collinear_triples": [[0, 1, 2]], "arities": [3, 2],
    "plant": {"restrictions": {"cat01": ["a"]}, "q_star": 3}, "seed": 1,
}


def test_json_integer_for_a_number_is_read():
    spec = SynthSpec.from_json_dict(SPEC_DOC)
    assert (spec.pairwise_rho, spec.plant.q_star) == (0.0, 3.0)
    assert spec.collinear_triples == ((0, 1, 2),)


@pytest.mark.parametrize("key, value", [
    ("arities", [2.5]),
    ("arities", [True]),
    ("n_continuous", 2.7),
    ("seed", 1.5),
    ("n_rows", "100"),
    ("base_rate", None),
    ("collinear_triples", [[0.5, 1, 2]]),
    ("collinear_triples", [[0, 1]]),
    ("plant", []),
    ("restrictions", {"cat01": "ab"}),
    ("q_star", "3"),
])
def test_json_value_of_wrong_type_rejected(key, value):
    doc = json.loads(json.dumps(SPEC_DOC))
    (doc["plant"] if key in doc["plant"] else doc)[key] = value
    with pytest.raises(InvalidSpecError, match=f"{key!r} must be"):
        SynthSpec.from_json_dict(doc)


@pytest.mark.parametrize("q_star", ["Infinity", "NaN", "1e400", "1" + "0" * 400],
                         ids=["Infinity", "NaN", "1e400", "10**400"])
def test_json_q_star_must_be_finite(q_star):
    doc = json.loads(json.dumps(SPEC_DOC).replace('"q_star": 3', f'"q_star": {q_star}'))
    with pytest.raises(InvalidSpecError):
        SynthSpec.from_json_dict(doc)


@pytest.mark.parametrize("extra, plant_extra, named", [
    ({"n_continous": 3}, {}, ["'n_continous'"]),
    ({}, {"qstar": 9}, ["plant 'qstar'"]),
    ({"n_continous": 3, "Seed": 2}, {"qstar": 9},
     ["'n_continous'", "'Seed'", "plant 'qstar'"]),
], ids=["spec", "plant", "both"])
def test_json_unknown_keys_rejected(extra, plant_extra, named):
    # a misspelt key would otherwise fall back to its default silently
    doc = json.loads(json.dumps(SPEC_DOC))
    doc.update(extra)
    doc["plant"].update(plant_extra)
    with pytest.raises(InvalidSpecError, match="unknown keys") as info:
        SynthSpec.from_json_dict(doc)
    for name in named:
        assert name in str(info.value)


class TestSave:
    def test_files_round_trip(self, tmp_path):
        plant = PlantSpec({"cat01": ("a",)}, q_star=4.0)
        d, gt = generate(base_spec(n_rows=200, plant=plant))
        paths = save(d, gt, tmp_path)
        schema = Schema.from_json_file(paths["schema"])
        loaded = load_csv(paths["data"], schema)
        assert loaded.n_rows == d.n_rows
        np.testing.assert_array_equal(loaded.outcome, d.outcome)
        np.testing.assert_allclose(loaded.column("num01"), d.column("num01"))
        with open(paths["ground_truth"]) as fh:
            doc = json.load(fh)
        assert doc["plant"] == {"cat01": ["a"]}
