"""Randomization testing, odds ratios, and subset characterization."""

import math

import numpy as np
import pytest

from featscan.errors import EmptySubsetError, FullSubsetError
from featscan.inference import characterize, empirical_p_value, odds_ratio
from featscan.mdss import ScanConfig, ScoredSubset, SubsetDescriptor, scan
from featscan.tabular import Dataset, DiscretizationSpec, FeatureKind, Schema, discretize


def categorical_dataset(columns, outcome):
    names = tuple(columns)
    kinds = {
        f: FeatureKind.BINARY if len(set(v)) <= 2 else FeatureKind.NOMINAL
        for f, v in columns.items()
    }
    d = Dataset(
        Schema(names, kinds, "y"),
        {f: np.asarray(v, str) for f, v in columns.items()},
        np.asarray(outcome),
    )
    return discretize(d, DiscretizationSpec())


def null_dataset(seed, n=400):
    rng = np.random.default_rng(seed)
    return categorical_dataset(
        {
            "g": rng.choice(list("abc"), size=n),
            "h": rng.choice(list("xy"), size=n),
        },
        rng.integers(0, 2, size=n),
    )


def fake_observed(data, score):
    return ScoredSubset(
        subset=SubsetDescriptor(),
        score=score,
        q_mle=1.0,
        n_members=data.n_rows,
        sum_outcomes=int(data.outcome.sum()),
        alpha_g=data.outcome_mean(),
    )


class TestEmpiricalPValue:
    def test_observed_below_everything(self):
        d = null_dataset(seed=0)
        cfg = ScanConfig(n_restarts=3, seed=1)
        res = empirical_p_value(d, ["g", "h"], cfg, fake_observed(d, 0.0), r=19)
        assert res.p_value == 1.0

    def test_observed_above_everything(self):
        d = null_dataset(seed=1)
        cfg = ScanConfig(n_restarts=3, seed=2)
        res = empirical_p_value(d, ["g", "h"], cfg, fake_observed(d, 1e9), r=99)
        assert res.p_value == pytest.approx(0.01)

    def test_minimum_replicates_enforced(self):
        d = null_dataset(seed=2)
        with pytest.raises(ValueError):
            empirical_p_value(d, ["g"], ScanConfig(), fake_observed(d, 1.0), r=10)

    def test_formula_invariant(self):
        d = null_dataset(seed=3, n=300)
        cfg = ScanConfig(n_restarts=3, seed=5)
        observed = scan(d, ["g", "h"], cfg)
        res = empirical_p_value(d, ["g", "h"], cfg, observed, r=19)
        exceed = sum(1 for s in res.replicate_scores if s >= observed.score)
        assert res.p_value == (1 + exceed) / 20
        assert 1 / 20 <= res.p_value <= 1.0

    def test_deterministic(self):
        d = null_dataset(seed=4, n=300)
        cfg = ScanConfig(n_restarts=3, seed=7)
        observed = scan(d, ["g", "h"], cfg)
        r1 = empirical_p_value(d, ["g", "h"], cfg, observed, r=19)
        r2 = empirical_p_value(d, ["g", "h"], cfg, observed, r=19)
        assert r1.replicate_scores == r2.replicate_scores
        assert r1.p_value == r2.p_value

    def test_planted_signal_significant(self):
        rng = np.random.default_rng(11)
        n = 1000
        g = rng.choice(list("abc"), size=n)
        h = rng.choice(list("xy"), size=n)
        mask = (g == "a") & (h == "x")
        y = (rng.random(n) < np.where(mask, 0.7, 0.2)).astype(int)
        d = categorical_dataset({"g": g, "h": h}, y)
        cfg = ScanConfig(n_restarts=10, seed=3)
        observed = scan(d, ["g", "h"], cfg)
        res = empirical_p_value(d, ["g", "h"], cfg, observed, r=99)
        assert res.p_value <= 0.02

    def test_constant_replicate_draw_scores_zero(self):
        # one positive in 30 rows: about a third of the replicates draw no
        # positive at all, which leaves nothing to contrast
        rng = np.random.default_rng(5)
        d = categorical_dataset({"g": rng.choice(list("abc"), size=30)},
                                [1] + [0] * 29)
        cfg = ScanConfig(n_restarts=3, seed=8)
        observed = scan(d, ["g"], cfg)
        res = empirical_p_value(d, ["g"], cfg, observed, r=19)
        assert len(res.replicate_scores) == 19
        assert res.replicate_scores.count(0.0) >= 1
        assert all(s >= 0.0 for s in res.replicate_scores)
        exceed = sum(1 for s in res.replicate_scores if s >= observed.score)
        assert res.p_value == (1 + exceed) / 20


def table_dataset(a, b, c, d):
    """Rows laid out so feature m=1 marks the (a+b) in-subset block."""
    m = ["1"] * (a + b) + ["0"] * (c + d)
    y = [1] * a + [0] * b + [1] * c + [0] * d
    return categorical_dataset({"m": m}, y)


IN_SUBSET = SubsetDescriptor({"m": frozenset({"1"})})


class TestOddsRatio:
    def test_hand_arithmetic(self):
        d = table_dataset(30, 70, 10, 90)
        est = odds_ratio(d, IN_SUBSET)
        assert (est.a, est.b, est.c, est.d) == (30, 70, 10, 90)
        assert est.odds_ratio == pytest.approx(27 / 7, abs=1e-12)
        want_se = math.sqrt(1 / 30 + 1 / 70 + 1 / 10 + 1 / 90)
        assert est.log_se == pytest.approx(want_se, abs=1e-12)
        assert est.ci_low == pytest.approx(math.exp(math.log(27 / 7) - 1.96 * want_se))
        assert est.ci_high == pytest.approx(math.exp(math.log(27 / 7) + 1.96 * want_se))
        assert not est.corrected

    def test_equal_odds_is_one(self):
        est = odds_ratio(table_dataset(20, 40, 10, 20), IN_SUBSET)
        assert est.odds_ratio == pytest.approx(1.0, abs=1e-12)

    def test_zero_cell_corrected(self):
        est = odds_ratio(table_dataset(10, 0, 5, 85), IN_SUBSET)
        assert est.corrected
        assert math.isfinite(est.odds_ratio)
        assert est.odds_ratio == pytest.approx((10.5 * 85.5) / (0.5 * 5.5))

    def test_label_swap_inverts(self):
        d = table_dataset(30, 50, 20, 60)
        est = odds_ratio(d, IN_SUBSET)
        flipped = d.with_outcome(1 - np.asarray(d.outcome))
        inv = odds_ratio(flipped, IN_SUBSET)
        assert inv.odds_ratio == pytest.approx(1 / est.odds_ratio, rel=1e-12)
        assert inv.ci_low == pytest.approx(1 / est.ci_high, rel=1e-12)
        assert inv.ci_high == pytest.approx(1 / est.ci_low, rel=1e-12)

    def test_empty_and_full_subsets(self):
        # g=b never co-occurs with h=x, so that conjunction is empty
        d = categorical_dataset(
            {"g": ["a", "a", "b", "b"], "h": ["x", "x", "y", "y"]},
            [1, 0, 1, 0],
        )
        empty = SubsetDescriptor(
            {"g": frozenset({"b"}), "h": frozenset({"x"})}
        )
        with pytest.raises(EmptySubsetError):
            odds_ratio(d, empty)
        with pytest.raises(FullSubsetError):
            odds_ratio(d, SubsetDescriptor())

    def test_detected_subset_elevated(self):
        # any positive-score scan result has uncorrected odds ratio above 1
        rng = np.random.default_rng(17)
        n = 600
        g = rng.choice(list("abc"), size=n)
        y = (rng.random(n) < np.where(g == "b", 0.6, 0.25)).astype(int)
        d = categorical_dataset({"g": g}, y)
        result = scan(d, ["g"], ScanConfig(n_restarts=5, seed=1))
        assert result.score > 0
        est = odds_ratio(d, result.subset)
        assert est.odds_ratio > 1.0

    def test_works_on_raw_dataset(self):
        raw = Dataset(
            Schema(("m",), {"m": FeatureKind.BINARY}, "y"),
            {"m": np.array(["1", "1", "0", "0"])},
            np.array([1, 0, 0, 1]),
        )
        est = odds_ratio(raw, IN_SUBSET)
        assert est.a == 1 and est.d == 1


class TestCharacterize:
    def test_unrestricted(self):
        d = null_dataset(seed=19, n=200)
        scored = fake_observed(d, 0.0)
        ch = characterize(d, scored)
        assert ch.records == ()
        assert ch.subset_size == 200
        assert ch.subset_outcome_rate == pytest.approx(ch.alpha_g)

    def test_population_prevalence(self):
        g = ["a"] * 40 + ["b"] * 60
        y = [1] * 20 + [0] * 80
        d = categorical_dataset({"g": g}, y)
        scored = ScoredSubset(
            subset=SubsetDescriptor({"g": frozenset({"a"})}),
            score=1.0, q_mle=2.0, n_members=40, sum_outcomes=20,
            alpha_g=0.2,
        )
        ch = characterize(d, scored)
        assert len(ch.records) == 1
        rec = ch.records[0]
        assert rec.feature == "g"
        assert rec.population_prevalence == pytest.approx(0.4)
        assert rec.subset_value_shares == {"a": 1.0}
        assert ch.subset_size == 40

    def test_planted_recovery_roundtrip(self):
        rng = np.random.default_rng(23)
        n = 900
        g = rng.choice(list("abc"), size=n)
        h = rng.choice(list("xy"), size=n)
        mask = (g == "a") & (h == "x")
        y = (rng.random(n) < np.where(mask, 0.75, 0.2)).astype(int)
        d = categorical_dataset({"g": g, "h": h}, y)
        result = scan(d, ["g", "h"], ScanConfig(n_restarts=10, seed=5))
        ch = characterize(d, result)
        got = {r.feature: set(r.values) for r in ch.records}
        assert got == {"g": {"a"}, "h": {"x"}}
        assert ch.subset_outcome_rate > ch.alpha_g

    def test_json_serializable(self):
        import json

        d = null_dataset(seed=29, n=150)
        result = scan(d, ["g", "h"], ScanConfig(n_restarts=3, seed=2))
        ch = characterize(d, result)
        json.dumps(ch.to_json_dict())
