"""Gradient-boosted rankings, normalization, committee vote, top-K."""

import dataclasses

import numpy as np
import pytest

from featscan import embedded
from featscan.embedded import (
    FeatureRanking,
    GbmConfig,
    Preset,
    committee_vote,
    encode_design,
    extract_importance,
    gbm_train,
    minmax_normalize,
    top_k,
)
from featscan.errors import (
    KTooLargeError,
    MismatchedFeatureSetsError,
    NoFeaturesError,
    SingleClassOutcomeError,
)
from featscan.synth import SynthSpec, generate
from featscan.tabular import Dataset, FeatureKind, Schema
from helpers import traced_peak


def numeric_dataset(columns, outcome):
    names = tuple(columns)
    schema = Schema(names, {f: FeatureKind.CONTINUOUS for f in names}, "y")
    return Dataset(schema, {f: np.asarray(v, float) for f, v in columns.items()},
                   np.asarray(outcome))


def separable_dataset(seed, n=2000, n_noise=9):
    rng = np.random.default_rng(seed)
    cols = {"signal": rng.normal(size=n)}
    for i in range(n_noise):
        cols[f"noise{i}"] = rng.normal(size=n)
    y = (cols["signal"] > np.median(cols["signal"])).astype(int)
    return numeric_dataset(cols, y)


class TestGbmTrain:
    def test_separable_high_f1(self):
        d = separable_dataset(seed=0)
        model, metrics = gbm_train(d, GbmConfig(Preset.A, seed=0, n_trees=100))
        assert metrics.f1 >= 0.95
        ranking = extract_importance(model)
        assert top_k(ranking, 1) == ["signal"]

    def test_null_f1_near_half(self):
        # On noise, one seed's held-out F1 has mean 0.4925 and sd 0.078
        # (seeds 0-4999 of this setup), so a tight band per seed fails by
        # chance. Each bound below is missed by a correct engine with
        # probability below 1e-4 per run of the test.
        f1 = []
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            cols = {f"f{i}": rng.normal(size=600) for i in range(4)}
            y = rng.integers(0, 2, size=600)
            d = numeric_dataset(cols, y)
            _, metrics = gbm_train(
                d, GbmConfig(Preset.A, seed=seed, n_trees=40, max_depth=3)
            )
            f1.append(metrics.f1)
        # the mean of 20 has sd 0.078 / sqrt(20) = 0.017: both bounds are
        # over 5 sd from 0.4925, and at least 4 sd from a mean 0.02 away
        assert 0.40 <= np.mean(f1) <= 0.58
        # the 120 held-out labels are coin flips independent of the
        # predictions: F1 above 0.85 has probability below 6e-8 for any
        # predictor, and F1 below 0.05 needs so few predicted positives that,
        # over the predicted-positive counts of seeds 0-4999, it has 1e-7
        assert all(0.05 <= f <= 0.85 for f in f1)

    def test_constant_feature_zero_importance(self):
        d = separable_dataset(seed=3, n=500, n_noise=2)
        cols = {f: d.column(f) for f in d.feature_names}
        cols["flat"] = np.full(500, 7.0)
        d2 = numeric_dataset(cols, d.outcome)
        model, _ = gbm_train(d2, GbmConfig(Preset.A, seed=1, n_trees=30))
        ranking = extract_importance(model)
        assert ranking.scores[ranking.feature_names.index("flat")] == 0.0

    def test_zero_trees_zero_ranking(self):
        d = separable_dataset(seed=5, n=300, n_noise=2)
        model, _ = gbm_train(d, GbmConfig(Preset.A, seed=0, n_trees=0))
        ranking = extract_importance(model)
        assert all(s == 0.0 for s in ranking.scores)

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_error(self, label):
        rng = np.random.default_rng(7)
        d = numeric_dataset({"a": rng.normal(size=50)}, np.full(50, label))
        with pytest.raises(SingleClassOutcomeError, match="^outcome"):
            gbm_train(d, GbmConfig(Preset.A))

    def test_no_features_error(self):
        d = numeric_dataset({}, np.tile([0, 1], 25))
        with pytest.raises(NoFeaturesError):
            gbm_train(d, GbmConfig(Preset.A))

    def test_single_class_training_split_error(self):
        # a lone positive row: the fits whose hold-out takes it train on
        # negatives only
        rng = np.random.default_rng(8)
        y = np.zeros(50, int)
        y[17] = 1
        d = numeric_dataset({"a": rng.normal(size=50)}, y)
        raised = 0
        for seed in range(20):
            try:
                gbm_train(d, GbmConfig(Preset.A, seed=seed, n_trees=1))
            except SingleClassOutcomeError as exc:
                assert str(exc) == "training split has a single class"
                raised += 1
        assert 0 < raised < 20

    def test_bit_reproducible(self):
        d = separable_dataset(seed=11, n=600, n_noise=3)
        cfg = GbmConfig(Preset.B, seed=42, n_trees=25)
        m1, met1 = gbm_train(d, cfg)
        m2, met2 = gbm_train(d, cfg)
        assert met1 == met2
        np.testing.assert_array_equal(m1.column_gain, m2.column_gain)
        for t1, t2 in zip(m1.trees, m2.trees):
            assert t1.feature == t2.feature
            assert t1.threshold == t2.threshold
            assert t1.value == t2.value

    def test_preset_fixes_subsampling(self):
        # a config names its preset and nothing the preset fixes: the row
        # subsampling is looked up from the preset, and no field or second
        # constructor can set it
        fields = [f.name for f in dataclasses.fields(GbmConfig)]
        assert fields == ["preset", "n_trees", "max_depth", "learning_rate", "seed"]
        assert not hasattr(GbmConfig, "preset_a")
        assert not hasattr(GbmConfig, "preset_b")
        assert embedded._SUBSAMPLE == {Preset.A: 1.0, Preset.B: 0.8}

    def test_importance_conservation(self):
        d = separable_dataset(seed=13, n=800, n_noise=4)
        model, _ = gbm_train(d, GbmConfig(Preset.A, seed=2, n_trees=50))
        assert sum(extract_importance(model).scores) == pytest.approx(
            model.total_gain, rel=1e-9
        )

    def test_duplicated_signal_importance_sum(self):
        d = separable_dataset(seed=17, n=1200, n_noise=3)
        cfg = GbmConfig(Preset.A, seed=3, n_trees=60)
        r1 = extract_importance(gbm_train(d, cfg)[0])
        single = r1.scores[r1.feature_names.index("signal")]
        cols = {f: d.column(f) for f in d.feature_names}
        cols["signal2"] = cols["signal"].copy()
        d2 = numeric_dataset(cols, d.outcome)
        r2 = extract_importance(gbm_train(d2, cfg)[0])
        combined = sum(r2.scores[r2.feature_names.index(f)] for f in ("signal", "signal2"))
        assert combined == pytest.approx(single, rel=0.2)

    def test_nominal_encodings_both_presets(self):
        rng = np.random.default_rng(19)
        g = rng.integers(0, 4, size=1000)
        y = (rng.random(1000) < np.where(g == 1, 0.85, 0.15)).astype(int)
        schema = Schema(
            ("grp", "x"),
            {"grp": FeatureKind.NOMINAL, "x": FeatureKind.CONTINUOUS},
            "y",
        )
        d = Dataset(
            schema,
            {"grp": np.array("abcd")[0] if False else np.array([chr(97 + v) for v in g]),
             "x": rng.normal(size=1000)},
            y,
        )
        for cfg in (GbmConfig(Preset.A, seed=5, n_trees=40),
                    GbmConfig(Preset.B, seed=5, n_trees=40)):
            model, metrics = gbm_train(d, cfg)
            ranking = extract_importance(model)
            assert ranking.feature_names == ("grp", "x")
            assert top_k(ranking, 1) == ["grp"]
            assert metrics.f1 > 0.5

    def test_three_dominant_signals_in_top_five(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            cols = {f"s{i}": rng.normal(size=1000) for i in range(3)}
            for i in range(7):
                cols[f"n{i}"] = rng.normal(size=1000)
            logits = 1.5 * (cols["s0"] + cols["s1"] + cols["s2"])
            y = (rng.random(1000) < 1 / (1 + np.exp(-logits))).astype(int)
            d = numeric_dataset(cols, y)
            ok = True
            for cfg in (GbmConfig(Preset.A, seed=seed, n_trees=60),
                        GbmConfig(Preset.B, seed=seed, n_trees=60)):
                ranking = extract_importance(gbm_train(d, cfg)[0])
                ok &= {"s0", "s1", "s2"} <= set(top_k(ranking, 5))
            hits += ok
        assert hits > 10

    @pytest.mark.parametrize("preset, bound", [(Preset.A, 0.7), (Preset.B, 1.3)])
    def test_peak_memory_holds_one_design(self, preset, bound):
        # the design is binned one feature at a time, held-out rows with the
        # training rows, and no float design is built; preset A bins its
        # nominal features straight from their level codes
        d, _ = generate(SynthSpec(n_rows=20_000, base_rate=0.3, n_continuous=10,
                                  arities=(3, 4, 5) * 4, seed=7))
        design = len(encode_design(d, preset).sources) * d.n_rows * 8
        _, peak = traced_peak(gbm_train, d, GbmConfig(preset, n_trees=2))
        assert peak < bound * design


def ranking(scores, names=None, **kw):
    names = names or tuple(f"f{i + 1}" for i in range(len(scores)))
    return FeatureRanking(tuple(names), tuple(float(s) for s in scores),
                          Preset.A, **kw)


class TestMinMaxNormalize:
    def test_endpoints(self):
        got = minmax_normalize(ranking([4, 2, 0]))
        assert got.scores == (1.0, 0.5, 0.0)
        assert got.normalized and not got.degenerate

    def test_constant_degenerate(self):
        got = minmax_normalize(ranking([3, 3, 3]))
        assert got.scores == (0.0, 0.0, 0.0)
        assert got.degenerate

    def test_ascending(self):
        assert minmax_normalize(ranking([0, 1, 2])).scores == (0.0, 0.5, 1.0)


class TestCommitteeVote:
    def test_mean_of_equals(self):
        a = minmax_normalize(ranking([4, 2, 0]))
        assert committee_vote([a, a]).scores == a.scores

    def test_opposed_rankings_tie(self):
        a = ranking([1.0, 0.5, 0.0], normalized=True)
        b = ranking([0.0, 0.5, 1.0], normalized=True)
        vote = committee_vote([a, b])
        assert vote.scores == (0.5, 0.5, 0.5)
        assert top_k(vote, 1) == ["f1"]   # tie falls to name order

    def test_disjoint_support(self):
        a = ranking([1, 0, 0], normalized=True)
        b = ranking([0, 1, 0], normalized=True)
        assert committee_vote([a, b]).scores == (0.5, 0.5, 0.0)

    def test_permutation_invariant(self):
        a = ranking([1.0, 0.3, 0.0], normalized=True)
        b = ranking([0.2, 1.0, 0.4], normalized=True)
        c = ranking([0.0, 0.1, 1.0], normalized=True)
        v1 = committee_vote([a, b, c])
        v2 = committee_vote([c, a, b])
        assert v1.scores == v2.scores

    def test_mismatched_sets(self):
        a = ranking([1, 0], names=("a", "b"), normalized=True)
        b = ranking([1, 0], names=("a", "c"), normalized=True)
        with pytest.raises(MismatchedFeatureSetsError):
            committee_vote([a, b])

    def test_unnormalized_rejected(self):
        a = ranking([2, 1, 0])
        with pytest.raises(ValueError):
            committee_vote([a, a])


class TestTopK:
    def test_basic(self):
        assert top_k(ranking([0.9, 0.1, 0.5]), 2) == ["f1", "f3"]

    def test_all_features(self):
        assert top_k(ranking([0.1, 0.9, 0.5]), 3) == ["f2", "f3", "f1"]

    def test_k_too_large(self):
        with pytest.raises(KTooLargeError):
            top_k(ranking([1, 2]), 3)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(23)
        scores = rng.uniform(0, 5, size=8)
        base = ranking(scores)
        squashed = ranking(np.tanh(scores))
        for k in (1, 3, 8):
            assert top_k(base, k) == top_k(squashed, k)


def test_ranking_carries_its_preset():
    # the report names a ranking's source from its preset, or "committee"
    d = separable_dataset(seed=29, n=400, n_noise=2)
    normalized = []
    for preset, source in ((Preset.A, "preset_a"), (Preset.B, "preset_b")):
        r = extract_importance(gbm_train(d, GbmConfig(preset, seed=1, n_trees=3))[0])
        assert r.preset is preset
        assert r.to_json_dict()["source"] == source
        normalized.append(minmax_normalize(r))
        assert normalized[-1].preset is preset
    vote = committee_vote(normalized)
    assert vote.preset is None
    assert vote.to_json_dict()["source"] == "committee"


class TestFeatureRankingValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ranking([-1, 0, 1])

    def test_normalized_range_enforced(self):
        with pytest.raises(ValueError):
            ranking([2.0, 0.0], normalized=True)
