"""Scoring function, priority prefixes, and the subset scanner."""

import collections
import math

import numpy as np
import pytest

from featscan import synth
from featscan.errors import (
    AlphaOutOfRangeError,
    DegenerateOutcomeError,
    EmptyRecordsError,
    NoFeaturesError,
    NonBinaryOutcomeError,
    SchemaMismatchError,
    UnknownFeatureError,
)
from featscan.mdss import (
    ScanConfig,
    _pattern_table,
    SubsetDescriptor,
    best_value_subset,
    scan,
    score_bernoulli,
)
from featscan.inference import empirical_p_value
from featscan.tabular import Dataset, DiscretizationSpec, FeatureKind, MissingPolicy, Schema, discretize

from oracles import (
    aggregate_by_value,
    brute_force_scan,
    brute_force_value_subset,
    grid_max_score,
    reference_replicate_scores,
    reference_scan,
)


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


class TestScoreBernoulli:
    def test_observed_equals_expected(self):
        assert score_bernoulli(5, 10, 0.5) == (0.0, 1.0)

    def test_derived_value_against_grid(self):
        score, q = score_bernoulli(40, 100, 0.2)
        assert q == pytest.approx(8 / 3, abs=1e-12)
        assert score == pytest.approx(grid_max_score(40, 100, 0.2), abs=1e-6)
        assert score == pytest.approx(10.465, abs=1e-3)

    def test_zero_positives(self):
        assert score_bernoulli(0, 25, 0.3) == (0.0, 1.0)

    def test_all_positives_limit(self):
        score, q = score_bernoulli(8, 8, 0.25)
        assert q == math.inf
        assert score == pytest.approx(8 * math.log(4.0), abs=1e-12)

    def test_empty(self):
        assert score_bernoulli(0, 0, 0.4) == (0.0, 1.0)

    def test_alpha_domain(self):
        with pytest.raises(AlphaOutOfRangeError):
            score_bernoulli(1, 2, 0.0)
        with pytest.raises(AlphaOutOfRangeError):
            score_bernoulli(1, 2, 1.0)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            score_bernoulli(5, 3, 0.5)

    def test_below_expectation_scores_zero(self):
        assert score_bernoulli(10, 100, 0.5) == (0.0, 1.0)


class TestAggregateByValue:
    def fixture(self):
        # 12 rows, 3-value feature g, binary feature b, hand-tabulated
        g = ["a", "a", "a", "a", "b", "b", "b", "c", "c", "c", "c", "c"]
        b = ["0", "1", "0", "1", "0", "1", "0", "1", "0", "1", "0", "1"]
        y = [1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1]
        return categorical_dataset({"g": g, "b": b}, y)

    def test_unconditioned_counts(self):
        # counts and sums follow the levels a, b, c
        got = aggregate_by_value(self.fixture(), "g", SubsetDescriptor())
        assert got == ([4, 3, 5], [2, 1, 3])

    def test_conditioned_counts(self):
        cond = SubsetDescriptor({"b": frozenset({"1"})})
        got = aggregate_by_value(self.fixture(), "g", cond)
        # rows with b=1: indices 1,3,5,7,9,11 -> g a,a,b,c,c,c y 1,0,0,0,1,1
        assert got == ([2, 1, 3], [1, 0, 2])

    def test_empty_conditioning(self):
        d = categorical_dataset(
            {"g": ["a", "b"], "b": ["0", "0"]}, [0, 1]
        )
        cond = SubsetDescriptor({"b": frozenset({"1"})})
        with pytest.raises(Exception):
            # b only has level "0" in this tiny table
            aggregate_by_value(d, "g", cond)

    def test_zero_rows_all_zero(self):
        d = categorical_dataset(
            {"g": ["a", "b", "a"], "b": ["0", "0", "1"]}, [0, 1, 1]
        )
        cond = SubsetDescriptor({"g": frozenset({"b"})})
        got = aggregate_by_value(d, "b", cond)
        # only row 1 matches g=b; b column there is "0" (levels "0", "1")
        assert got == ([1, 0], [1, 0])

    def test_restricted_feature_rejected(self):
        d = self.fixture()
        with pytest.raises(ValueError):
            aggregate_by_value(d, "g", SubsetDescriptor({"g": frozenset({"a"})}))


class TestBestValueSubset:
    def test_single_value(self):
        codes, score = best_value_subset([10], [7], 0.5)
        assert codes == [0]
        assert score == pytest.approx(score_bernoulli(7, 10, 0.5)[0])

    def test_two_values_brute_forced(self):
        codes, score = best_value_subset([10, 10], [9, 1], 0.5)
        want_score, want_combo = brute_force_value_subset([10, 10], [9, 1], 0.5)
        assert codes == [0]
        assert score == want_score
        assert want_combo == (0,)

    def test_all_at_expectation_returns_full_domain(self):
        codes, score = best_value_subset([10, 4, 2], [5, 2, 1], 0.5)
        assert score == 0.0
        assert sorted(codes) == [0, 1, 2]

    def test_zero_count_values_excluded(self):
        codes, _ = best_value_subset([10, 0], [8, 0], 0.5)
        assert codes == [0]

    def test_empty_records_error(self):
        with pytest.raises(EmptyRecordsError):
            best_value_subset([0], [0], 0.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, math.nan, -0.5, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(AlphaOutOfRangeError):
            best_value_subset([3, 2], [1, 1], alpha)

    @pytest.mark.parametrize("counts, sums", [
        ([3, 2], [1, 3]),      # more positives than members
        ([-1, 2], [0, 1]),     # a negative count
        ([3, 2], [-1, 1]),     # a negative sum
        ([3, 0], [1, 1]),      # positives in an empty value
        ([math.inf, 3], [math.inf, 1]),   # an infinite count
        ([math.nan, 3], [1, 1]),          # a NaN count
    ])
    def test_inconsistent_counts_rejected(self, counts, sums):
        with pytest.raises(ValueError, match="0 <= sum_y <= n < inf"):
            best_value_subset(counts, sums, 0.5)

    def test_ltss_prefix_matches_brute_force(self):
        rng = np.random.default_rng(111)
        for _ in range(60):
            j = int(rng.integers(1, 9))
            counts = rng.integers(0, 12, size=j)
            sums = np.array([rng.integers(0, c + 1) for c in counts])
            if counts.sum() == 0:
                continue
            alpha = float(rng.uniform(0.05, 0.95))
            _, got = best_value_subset(counts.tolist(), sums.tolist(), alpha)
            want, _ = brute_force_value_subset(counts.tolist(), sums.tolist(),
                                               alpha)
            assert got == want


class TestSubsetDescriptor:
    def test_encode_sorted(self):
        desc = SubsetDescriptor({"b": frozenset({"2", "1"}), "a": frozenset({"x"})})
        assert desc.encode() == "a=x;b=1|2"

    def test_matches_counts(self):
        d = categorical_dataset(
            {"g": ["a", "b", "a", "c"], "h": ["0", "0", "1", "1"]}, [0, 1, 0, 1]
        )
        desc = SubsetDescriptor({"g": frozenset({"a"})})
        np.testing.assert_array_equal(desc.matches(d), [True, False, True, False])

    def raw_and_discretized(self):
        rng = np.random.default_rng(11)
        schema = Schema(
            ("g", "b", "x"),
            {"g": FeatureKind.NOMINAL, "b": FeatureKind.BINARY,
             "x": FeatureKind.CONTINUOUS},
            "y",
        )
        raw = Dataset(
            schema,
            {"g": rng.choice(list("abcd"), size=50),
             "b": rng.choice(["0", "1"], size=50), "x": rng.normal(size=50)},
            rng.integers(0, 2, size=50),
        )
        return raw, discretize(raw, DiscretizationSpec())

    @pytest.mark.parametrize("restrictions", [
        {}, {"g": {"a"}}, {"g": {"b", "d"}, "b": {"1"}}, {"b": {"0", "1"}},
    ])
    def test_raw_and_discretized_masks_agree(self, restrictions):
        raw, dd = self.raw_and_discretized()
        desc = SubsetDescriptor({f: frozenset(v) for f, v in restrictions.items()})
        want = np.ones(raw.n_rows, dtype=bool)
        for f, values in restrictions.items():
            want &= np.isin(raw.column(f), sorted(values))
        np.testing.assert_array_equal(desc.matches(raw), want)
        np.testing.assert_array_equal(desc.matches(dd), want)

    def test_out_of_domain_value_rejected_on_both_views(self):
        desc = SubsetDescriptor({"g": frozenset({"a", "zz"})})
        for data in self.raw_and_discretized():
            with pytest.raises(UnknownFeatureError, match="zz"):
                desc.matches(data)

    def test_continuous_restriction_rejected_on_raw_dataset(self):
        raw, dd = self.raw_and_discretized()
        desc = SubsetDescriptor({"x": frozenset({"0"})})
        with pytest.raises(ValueError):
            desc.matches(raw)
        assert desc.matches(dd).sum() == (dd.codes("x") == 0).sum()

    def test_json_round_trip(self):
        desc = SubsetDescriptor({"g": frozenset({"a", "c"})})
        assert SubsetDescriptor.from_json_dict(desc.to_json_dict()) == desc

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            SubsetDescriptor({"g": frozenset()})


def planted_dataset(seed, n=1200, alpha=0.2, q_star=6.0):
    rng = np.random.default_rng(seed)
    f1 = rng.choice(list("abc"), size=n)
    f2 = rng.choice(list("xyz"), size=n)
    f3 = rng.choice(list("pq"), size=n)
    mask = (f1 == "a") & (f2 == "x")
    p1 = q_star * alpha / (1 - alpha + q_star * alpha)
    y = (rng.random(n) < np.where(mask, p1, alpha)).astype(int)
    return categorical_dataset({"f1": f1, "f2": f2, "f3": f3}, y)


class TestScan:
    def test_recovers_planted_subgroup(self):
        d = planted_dataset(seed=42)
        result = scan(d, ["f1", "f2", "f3"], ScanConfig(n_restarts=20, seed=0))
        assert result.subset.restrictions == {
            "f1": frozenset({"a"}), "f2": frozenset({"x"}),
        }
        assert result.score > 20.0

    def test_matches_brute_force_on_fixture(self):
        rng = np.random.default_rng(7)
        n = 60
        cols = {
            "u": rng.choice(list("ab"), size=n),
            "v": rng.choice(list("lmn"), size=n),
            "w": rng.choice(list("st"), size=n),
        }
        y = rng.integers(0, 2, size=n)
        d = categorical_dataset(cols, y)
        result = scan(d, ["u", "v", "w"], ScanConfig(n_restarts=20, seed=1))
        want_score, _ = brute_force_scan(d, ["u", "v", "w"])
        assert result.score == want_score

    def test_constant_outcome_rejected(self):
        d = categorical_dataset({"g": ["a", "b", "a"]}, [0, 0, 0])
        with pytest.raises(DegenerateOutcomeError):
            scan(d, ["g"], ScanConfig())

    def test_no_features_rejected(self):
        d = planted_dataset(seed=1, n=100)
        with pytest.raises(NoFeaturesError):
            scan(d, [], ScanConfig())

    def test_deterministic(self):
        d = planted_dataset(seed=3, n=400)
        cfg = ScanConfig(n_restarts=8, seed=9)
        r1 = scan(d, ["f1", "f2", "f3"], cfg)
        r2 = scan(d, ["f1", "f2", "f3"], cfg)
        assert r1 == r2

    def test_restart_dominance(self):
        d = planted_dataset(seed=5, n=300)
        feats = ["f1", "f2", "f3"]
        s1 = scan(d, feats, ScanConfig(n_restarts=2, seed=4)).score
        s2 = scan(d, feats, ScanConfig(n_restarts=10, seed=4)).score
        assert s2 >= s1

    def test_score_recomputable_and_membership(self):
        d = planted_dataset(seed=8, n=500)
        result = scan(d, ["f1", "f2", "f3"], ScanConfig(n_restarts=5, seed=2))
        mask = result.subset.matches(d)
        assert int(mask.sum()) == result.n_members
        assert int(d.outcome[mask].sum()) == result.sum_outcomes
        want, want_q = score_bernoulli(result.sum_outcomes, result.n_members,
                                       result.alpha_g)
        assert result.score == want
        assert result.q_mle == want_q
        assert result.n_members + int((~mask).sum()) == d.n_rows

    def test_beats_single_coordinate_moves(self):
        # one ascent pass can only improve on the best single-feature move
        d = planted_dataset(seed=13, n=400)
        feats = ["f1", "f2", "f3"]
        result = scan(d, feats, ScanConfig(n_restarts=1, seed=0))
        for f in feats:
            counts, sums = aggregate_by_value(d, f, SubsetDescriptor())
            _, single = best_value_subset(counts, sums, d.outcome_mean())
            assert result.score >= single - 1e-12

    def test_restrictions_never_full_domain(self):
        d = planted_dataset(seed=21, n=300)
        result = scan(d, ["f1", "f2", "f3"], ScanConfig(n_restarts=6, seed=3))
        for f, values in result.subset.restrictions.items():
            assert values != frozenset(d.levels(f))

    def test_all_features_dominate_subsets_at_optimum(self):
        # widening the search space cannot lower the global maximum; both
        # sides are solved exactly on instances this small
        rng = np.random.default_rng(37)
        for trial in range(10):
            n = 80
            cols = {
                "a": rng.choice(list("pq"), size=n),
                "b": rng.choice(list("lmn"), size=n),
                "c": rng.choice(list("xy"), size=n),
            }
            y = rng.integers(0, 2, size=n)
            d = categorical_dataset(cols, y)
            full = scan(d, ["a", "b", "c"], ScanConfig(n_restarts=20, seed=trial))
            assert full.score == brute_force_scan(d, ["a", "b", "c"])[0]
            for subset in (["a"], ["a", "b"], ["b", "c"]):
                partial = scan(d, subset, ScanConfig(n_restarts=20, seed=trial))
                assert full.score >= partial.score

    def test_binned_continuous_features_scan(self):
        rng = np.random.default_rng(31)
        n = 800
        x = rng.normal(size=n)
        g = rng.choice(list("ab"), size=n)
        y = (rng.random(n) < np.where(x > 1.0, 0.7, 0.15)).astype(int)
        schema = Schema(
            ("x", "g"),
            {"x": FeatureKind.CONTINUOUS, "g": FeatureKind.BINARY},
            "y", MissingPolicy.ERROR,
        )
        raw = Dataset(schema, {"x": x, "g": g}, y)
        dd = discretize(raw, DiscretizationSpec(n_bins=5))
        result = scan(dd, ["x", "g"], ScanConfig(n_restarts=10, seed=7))
        assert "x" in result.subset.restrictions
        # top bin (code 4) must be among the retained values
        assert "4" in result.subset.restrictions["x"]


def table_case(name):
    """Categorical columns of one pattern-table case, and their outcome."""
    rng = np.random.default_rng(17)
    if name == "overflow":
        # 70 binary features: the mixed-radix key needs re-compression
        distinct = rng.choice(list("xy"), size=(40, 70))
        rows = distinct[rng.integers(0, 40, size=300)]
        cols = {f"b{i:02d}": rows[:, i] for i in range(70)}
    elif name == "tall":
        cols = {f"t{a}": rng.choice([f"v{v}" for v in range(a)], size=3000)
                for a in (2, 3, 4, 5)}
    elif name == "wide":
        cols = {f"w{i:02d}": rng.choice([f"v{v}" for v in range(4)], size=500)
                for i in range(10)}
    else:   # a 300-level feature, with two-byte codes
        cols = {"x": rng.choice([f"v{v:03d}" for v in range(300)], size=2000),
                "g": rng.choice(list("abc"), size=2000)}
    n = len(next(iter(cols.values())))
    return cols, rng.integers(0, 2, size=n)


class TestPatternTable:
    @pytest.mark.parametrize("name, lookup", [
        ("overflow", False), ("tall", True), ("wide", False), ("levels300", True)])
    def test_equals_the_sort_based_table(self, name, lookup):
        cols, y = table_case(name)
        d = categorical_dataset(cols, y)
        feats = list(cols)
        # the case reaches the id path it names: lookup where the key range
        # is at most the row count
        assert (math.prod(d.arity(f) for f in feats) <= d.n_rows) == lookup
        assert name != "levels300" or d.codes("x").dtype == np.uint16
        inverse, codes, counts = _pattern_table(d, feats)
        # rows sorted lexicographically by code, first feature first, are
        # in mixed-radix key order
        stacked = np.column_stack([d.codes(f) for f in feats])
        unique, want_inverse, want_counts = np.unique(
            stacked, axis=0, return_inverse=True, return_counts=True)
        assert inverse.dtype == np.intp
        np.testing.assert_array_equal(inverse, want_inverse.ravel())
        assert all(c.dtype == np.intp for c in codes)
        np.testing.assert_array_equal(np.column_stack(codes), unique)
        assert counts.dtype == np.float64
        np.testing.assert_array_equal(counts, want_counts)

    @staticmethod
    def masks(d):
        return d.covariate_cache["scan_patterns"][3]

    def test_one_table_per_dataset_shared_by_outcome_copies(self):
        d = planted_dataset(seed=2, n=200)
        cfg = ScanConfig(n_restarts=2, seed=1)
        scan(d, ["f1", "f2"], cfg)
        table, masks = d.covariate_cache["scan_patterns"], self.masks(d)
        stored = dict(masks)
        assert stored
        rep = d.with_outcome(1 - np.asarray(d.outcome))
        assert rep.covariate_cache is d.covariate_cache
        scan(rep, ["f1", "f2"], cfg)
        assert d.covariate_cache["scan_patterns"] is table
        # the copy's scan kept every stored mask as it was
        assert self.masks(d) is masks
        assert all(masks[key] is mask for key, mask in stored.items())
        scan(rep, ["f2", "f1"], cfg)
        assert d.covariate_cache["scan_patterns"] is table
        scan(rep, ["f1", "f3"], cfg)
        assert d.covariate_cache["scan_patterns"] is not table
        assert not any(self.masks(d).get(key) is mask for key, mask in stored.items())
        assert list(d.covariate_cache) == ["scan_patterns"]

    def test_stored_masks_are_read_only(self):
        d = planted_dataset(seed=2, n=200)
        scan(d, ["f1", "f2", "f3"], ScanConfig(n_restarts=3, seed=1))
        assert self.masks(d)
        for mask in self.masks(d).values():
            with pytest.raises(ValueError, match="read-only"):
                mask[0] = 1

    def test_feature_past_the_storage_rule_stores_no_masks(self):
        # 9 values leave 510 proper value sets: computed at each use
        rng = np.random.default_rng(8)
        cols = {"g": rng.choice(list("abc"), size=400),
                "h": rng.choice([f"v{v}" for v in range(9)], size=400)}
        d = categorical_dataset(cols, rng.integers(0, 2, size=400))
        cfg = ScanConfig(n_restarts=6, seed=3)
        got = scan(d, ["g", "h"], cfg)
        assert got == reference_scan(d, ["g", "h"], cfg)
        assert self.masks(d)
        assert {j for j, _ in self.masks(d)} == {0}   # "g" only


def wide_dataset():
    # 12 features on 600 rows: few rows per pattern, so the coordinate
    # order changes where an ascent ends up
    plant = synth.PlantSpec({"cat01": ("a",), "cat02": ("b",)}, 3.0)
    spec = synth.SynthSpec(n_rows=600, base_rate=0.2, n_continuous=4,
                           arities=(2, 3, 4, 5, 2, 3, 4, 5), plant=plant,
                           seed=23)
    return discretize(synth.generate(spec)[0], DiscretizationSpec())


class TestFeatureSetSemantics:
    def test_any_order_gives_the_same_scan_and_p_value(self):
        cfg = ScanConfig(n_restarts=2, seed=5)
        schema_order = list(wide_dataset().feature_names)
        rng = np.random.default_rng(4)
        orders = [schema_order, schema_order[::-1]]
        orders += [[schema_order[i] for i in rng.permutation(len(schema_order))]
                   for _ in range(4)]
        results = []
        for feats in orders:
            d = wide_dataset()   # a fresh cache: no table or memo to reuse
            observed = scan(d, feats, cfg)
            sig = empirical_p_value(d, feats, cfg, observed, 19)
            results.append((observed, sig))
        assert all(r == results[0] for r in results[1:])

    def test_table_is_built_over_the_sorted_set(self):
        d = planted_dataset(seed=2, n=200)
        scan(d, ["f3", "f1", "f2"], ScanConfig(n_restarts=1))
        assert d.covariate_cache["scan_patterns"][0] == ("f1", "f2", "f3")


class TestScanMemo:
    FEATS = ["f3", "f1", "f2"]
    CFG = ScanConfig(n_restarts=4, seed=6)

    @staticmethod
    def memo(d):
        return d.covariate_cache["scan_patterns"][2]

    def test_hit_equals_fresh_scan(self):
        d = planted_dataset(seed=4, n=400)
        first = scan(d, self.FEATS, self.CFG)
        assert len(self.memo(d)) == 1
        again = scan(d, self.FEATS[::-1], self.CFG)
        assert again is first
        assert len(self.memo(d)) == 1
        assert again == scan(planted_dataset(seed=4, n=400), self.FEATS, self.CFG)

    def test_new_outcome_misses_and_equals_fresh_scan(self):
        d = planted_dataset(seed=4, n=400)
        first = scan(d, self.FEATS, self.CFG)
        y2 = np.random.default_rng(9).integers(0, 2, size=d.n_rows)
        got = scan(d.with_outcome(y2), self.FEATS, self.CFG)
        assert len(self.memo(d)) == 2
        fresh = scan(planted_dataset(seed=4, n=400).with_outcome(y2),
                     self.FEATS, self.CFG)
        assert got == fresh
        assert got != first
        assert scan(d, self.FEATS, self.CFG) is first

    def test_non_binary_outcome_is_rejected(self):
        # the memo key packs every nonzero outcome as 1, so 2 * y would get
        # y's stored result, and an int8 cast reads 0.5 as 0; neither may
        # reach a scan, on a scanned dataset or a fresh one
        d = planted_dataset(seed=4, n=400)
        scan(d, self.FEATS, self.CFG)
        y = np.asarray(d.outcome)
        for data in (d, planted_dataset(seed=4, n=400)):
            for bad in (2 * y, 0.5 * y, y - 1):
                with pytest.raises(NonBinaryOutcomeError):
                    scan(data.with_outcome(bad), self.FEATS, self.CFG)
            with pytest.raises(SchemaMismatchError):
                data.with_outcome(y[:, None])
            assert scan(data.with_outcome(y.astype(float)), self.FEATS,
                        self.CFG) == scan(d, self.FEATS, self.CFG)
        assert len(self.memo(d)) == 1

    def test_changed_config_misses(self):
        d = planted_dataset(seed=4, n=400)
        scan(d, self.FEATS, self.CFG)
        for cfg in (ScanConfig(n_restarts=4, seed=7),
                    ScanConfig(n_restarts=5, seed=6),
                    ScanConfig(n_restarts=5, seed=7)):
            got = scan(d, self.FEATS, cfg)
            assert got == scan(planted_dataset(seed=4, n=400), self.FEATS, cfg)
        assert len(self.memo(d)) == 4

    def test_another_set_drops_the_memo_with_the_table(self):
        d = planted_dataset(seed=4, n=400)
        first = scan(d, self.FEATS, self.CFG)
        memo = self.memo(d)
        scan(d, ["f1", "f2"], self.CFG)
        assert self.memo(d) is not memo
        assert len(self.memo(d)) == 1
        again = scan(d, self.FEATS, self.CFG)
        assert again == first and again is not first


def random_scan_case(case):
    """A small random table, up to 12 features, and a scan config.

    Every third case starts with a one-level feature. Most features are
    binary, which often draw no value at a random start, and a wide
    random start on a few dozen rows usually matches no row.
    """
    rng = np.random.default_rng(1000 + case)
    k = int(rng.integers(1, 13))
    n = int(rng.integers(12, 120))
    cols = {}
    for i in range(k):
        arity = 1 if i == 0 and case % 3 == 0 else int(rng.choice([2, 2, 2, 3, 4, 5]))
        cols[f"f{i:02d}"] = rng.choice([f"v{v}" for v in range(arity)], size=n)
    y = (rng.random(n) < rng.uniform(0.1, 0.6)).astype(int)
    y[:2] = [0, 1]
    cfg = ScanConfig(n_restarts=int(rng.integers(1, 7)),
                     seed=int(rng.integers(0, 2**32)))
    return categorical_dataset(cols, y), list(cols)[::-1], cfg


class TestAscentOracle:
    def test_scan_and_replicates_match_the_row_level_ascent(self):
        paths = collections.Counter()
        one_level = 0
        for case in range(36):
            d, feats, cfg = random_scan_case(case)
            one_level += any(d.arity(f) == 1 for f in feats)
            observed = scan(d, feats, cfg)
            assert observed == reference_scan(d, feats, cfg, paths), case
            sig = empirical_p_value(d, feats, cfg, observed, 19)
            want = reference_replicate_scores(d, feats, cfg, 19)
            assert sig.replicate_scores == tuple(want), case
        # the cases reach the start redraw, the relax step and a one-level
        # feature
        assert paths["redraw"] > 0 and paths["relax"] > 0 and one_level > 0

    def test_scan_over_300_bins_matches_the_row_level_ascent(self):
        # 300 bins take two-byte codes, the pattern table's codes intp
        rng = np.random.default_rng(31)
        x = rng.normal(size=1500)
        g = rng.choice(["a", "b", "c"], size=1500)
        y = (rng.random(1500) < np.where((x > 1) & (g == "a"), 0.6, 0.2)).astype(int)
        schema = Schema(("g", "x"), {"g": FeatureKind.NOMINAL,
                                     "x": FeatureKind.CONTINUOUS}, "y")
        d = discretize(Dataset(schema, {"g": g, "x": x}, y),
                       DiscretizationSpec(n_bins=300))
        assert d.arity("x") == 300 and d.codes("x").dtype == np.uint16
        cfg = ScanConfig(n_restarts=3, seed=5)
        assert scan(d, ["g", "x"], cfg) == reference_scan(d, ["g", "x"], cfg)

    def test_scan_over_260_features_matches_the_row_level_ascent(self):
        # 262 features take two-byte block counts. 256 copies of one binary
        # column are all restricted together, so rows outside the chosen
        # value are blocked 256 or more times: a one-byte count wraps there
        rng = np.random.default_rng(260)
        z = rng.choice(list("xy"), size=400)
        cols = {f"b{i:03d}": z for i in range(256)}
        cols |= {f"b{i:03d}": rng.choice(list("xy"), size=400) for i in range(256, 260)}
        cols |= {"n1": rng.choice(list("abc"), size=400),
                 "n2": rng.choice(list("pqrs"), size=400)}
        y = (rng.random(400) < np.where(z == "x", 0.35, 0.15)).astype(int)
        d = categorical_dataset(cols, y)
        feats, cfg = list(cols), ScanConfig(n_restarts=2, seed=11)
        observed = scan(d, feats, cfg)
        assert observed.subset.n_restricted > 256
        assert observed == reference_scan(d, feats, cfg)
        masks = d.covariate_cache["scan_patterns"][3].values()
        assert {m.dtype for m in masks} == {np.dtype(np.uint16)}
        sig = empirical_p_value(d, feats, cfg, observed, 19)
        # the row-level ascent takes seconds per replicate here, so the first
        # replicate, which reuses the observed scan's masks, stands for all
        want = reference_replicate_scores(d, feats, cfg, 1)
        assert sig.replicate_scores[:1] == tuple(want)

