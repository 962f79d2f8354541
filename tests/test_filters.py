"""Filter statistics against hand-computed and independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from featscan.errors import (
    ConstantInputError,
    DegenerateTableError,
    InsufficientRowsError,
)
from featscan.filters import (
    FilterThresholds,
    _vif_factor,
    chi_square,
    cramers_v,
    feature_outcome_corr,
    filter_select,
    mutual_information,
    pearson,
    vif,
)
from featscan.synth import SynthSpec, generate
from featscan.tabular import Dataset, FeatureKind, Schema, one_hot


def table_to_vectors(table):
    """Expand a contingency table into two label vectors."""
    a, b = [], []
    for i, row in enumerate(table):
        for j, count in enumerate(row):
            a.extend([f"r{i}"] * count)
            b.extend([f"c{j}"] * count)
    return np.array(a), np.array(b)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value(self):
        # deviations (-1.5,-.5,.5,1.5) and (-1.5,.5,-.5,1.5):
        # sum xy = 4, sum x^2 = sum y^2 = 5, so rho = 4/5
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            r = pearson(x, y)
            assert pearson(y, x) == pytest.approx(r, abs=1e-13)
            a, b = rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0)
            assert pearson(a * x + b, y) == pytest.approx(r, abs=1e-10)

    def test_constant_input(self):
        with pytest.raises(ConstantInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestOutcomeCorrelation:
    def test_identical(self):
        y = np.array([0, 1, 0, 1, 1])
        assert feature_outcome_corr(y.astype(float), y) == pytest.approx(1.0)

    def test_hand_value(self):
        # point-biserial of [1,2,3,4] against [0,0,1,1] is 2/sqrt(5)
        got = feature_outcome_corr([1, 2, 3, 4], [0, 0, 1, 1])
        assert got == pytest.approx(math.sqrt(4 / 5), abs=1e-12)
        assert got == pytest.approx(0.8944, abs=1e-4)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=20000)
        y = rng.integers(0, 2, size=20000)
        assert abs(feature_outcome_corr(x, y)) < 0.03


def continuous_dataset(columns, outcome):
    names = tuple(columns)
    schema = Schema(names, {f: FeatureKind.CONTINUOUS for f in names}, "y")
    return Dataset(schema, {f: np.asarray(v, float) for f, v in columns.items()},
                   np.asarray(outcome))


class TestVif:
    def test_orthogonal_is_one(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=500)
        b = rng.normal(size=500)
        # exactly orthogonalize and center b against a
        a = a - a.mean()
        b = b - b.mean()
        b = b - (a @ b) / (a @ a) * a
        d = continuous_dataset({"a": a, "b": b}, np.r_[1, np.zeros(499)])
        assert vif(d, "a") == pytest.approx(1.0, abs=1e-9)

    def test_duplicate_is_infinite(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=100)
        d = continuous_dataset({"a": x, "b": x.copy()}, np.r_[1, np.zeros(99)])
        assert vif(d, "a") == math.inf

    def test_planted_trio_matches_oracle(self):
        rng = np.random.default_rng(41)
        f1 = rng.normal(size=2000)
        f2 = rng.normal(size=2000)
        f3 = f1 + f2 + 0.01 * rng.normal(size=2000)
        d = continuous_dataset({"f1": f1, "f2": f2, "f3": f3},
                               np.r_[1, np.zeros(1999)])
        # independent oracle: R^2 via direct least squares
        X = np.column_stack([np.ones(2000), f1, f2])
        beta, _, _, _ = np.linalg.lstsq(X, f3, rcond=None)
        resid = f3 - X @ beta
        r2 = 1 - resid @ resid / ((f3 - f3.mean()) ** 2).sum()
        want = 1.0 / (1.0 - r2)
        got = vif(d, "f3")
        assert got == pytest.approx(want, rel=1e-6)
        assert got > 10.0


    def test_errors(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=6)
        d = continuous_dataset({"a": x, "flat": np.full(6, 2.0), "b": x ** 2},
                               np.r_[1, np.zeros(5)])
        with pytest.raises(ConstantInputError):
            vif(d, "flat")
        assert math.isfinite(vif(d, "a"))   # a constant predictor is harmless
        few = continuous_dataset({"a": x[:3], "flat": np.full(3, 2.0),
                                  "b": x[:3] ** 2}, np.r_[1, 0, 0])
        with pytest.raises(InsufficientRowsError):
            vif(few, "a")
        with pytest.raises(ValueError):
            vif(continuous_dataset({"a": x}, np.r_[1, np.zeros(5)]), "a")

    def test_rank_cutoff_scales_with_rows(self):
        # ``c`` is ``b`` plus 1e-13 of a direction ``f`` follows, so the
        # singular-value ratio of [1, b, c] lies between 3 eps and n eps.
        # An n-row lstsq drops that direction and reads a VIF near 1; the
        # small factor must cut at n eps too, not at its own 3 eps.
        rng = np.random.default_rng(43)
        n = 2000
        b, e = rng.normal(size=(2, n))
        e -= (e @ b) / (b @ b) * b
        f = e + 0.1 * rng.normal(size=n)
        c = b + 1e-13 * e
        d = continuous_dataset({"b": b, "c": c, "f": f}, np.r_[1, np.zeros(n - 1)])
        design = np.column_stack([np.ones(n), b, c])
        s = np.linalg.svd(design, compute_uv=False)
        assert 3 * np.finfo(float).eps < s[-1] / s[0] < n * np.finfo(float).eps
        beta = np.linalg.lstsq(design, f, rcond=None)[0]
        resid = f - design @ beta
        want = ((f - f.mean()) ** 2).sum() / (resid @ resid)
        assert want < 1.1
        assert vif(d, "f") == pytest.approx(want, rel=1e-9)

    def test_factor_peak_memory_holds_one_design(self):
        # [1, X] is written in Fortran order and factored in place; its
        # bytes are 1.1 of X's here, and tracemalloc does not trace LAPACK's
        # work buffer
        d, _ = generate(SynthSpec(n_rows=20_000, base_rate=0.3,
                                  n_continuous=10, arities=(), seed=7))
        features = list(d.feature_names)
        design = one_hot(d, features)[0].nbytes
        tracemalloc.start()
        try:
            _vif_factor(d, features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * design


class TestChiSquare:
    def test_hand_table(self):
        # shortcut for 2x2: n (ad - bc)^2 / ((a+b)(c+d)(a+c)(b+d))
        a, b = table_to_vectors([[10, 20], [20, 10]])
        chi2, dof, p = chi_square(a, b)
        assert chi2 == pytest.approx(60 * (10 * 10 - 20 * 20) ** 2 / 810000,
                                     abs=1e-10)
        assert chi2 == pytest.approx(6.6667, abs=1e-4)
        assert dof == 1
        assert p == pytest.approx(0.00982, abs=1e-5)

    def test_perfect_association(self):
        labels = np.array(["x"] * 30 + ["y"] * 30)
        chi2, dof, p = chi_square(labels, labels)
        assert chi2 == pytest.approx(60.0, abs=1e-9)
        assert p < 1e-13

    def test_null_expectation(self):
        # under independence the statistic averages about its dof
        rng = np.random.default_rng(43)
        stats = []
        for _ in range(200):
            a = rng.integers(0, 3, size=300)
            b = rng.integers(0, 4, size=300)
            stats.append(chi_square(a, b)[0])
        assert np.mean(stats) == pytest.approx(6.0, abs=0.6)

    def test_matches_scipy(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            a = rng.integers(0, 3, size=120)
            b = rng.integers(0, 3, size=120)
            chi2, dof, p = chi_square(a, b)
            table = np.zeros((3, 3))
            np.add.at(table, (a, b), 1)
            want = scipy.stats.chi2_contingency(table, correction=False)
            assert chi2 == pytest.approx(want.statistic, rel=1e-12)
            assert p == pytest.approx(want.pvalue, rel=1e-9, abs=1e-300)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(53)
        a = rng.integers(0, 3, size=200)
        b = rng.integers(0, 3, size=200)
        chi2, _, _ = chi_square(a, b)
        relabel = np.array(["zz", "aa", "mm"])
        chi2r, _, _ = chi_square(relabel[a], b)
        assert chi2r == pytest.approx(chi2, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateTableError):
            chi_square(np.zeros(10, int), np.arange(10) % 2)


class TestCramersV:
    def test_identical_vectors(self):
        v = np.array(["a", "b"] * 30)
        assert cramers_v(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_hand_table(self):
        a, b = table_to_vectors([[10, 20], [20, 10]])
        assert cramers_v(a, b) == pytest.approx(math.sqrt(6.666667 / 60), abs=1e-6)
        assert cramers_v(a, b) == pytest.approx(0.3333, abs=1e-4)

    def test_independent_small(self):
        rng = np.random.default_rng(59)
        a = rng.integers(0, 2, size=5000)
        b = rng.integers(0, 2, size=5000)
        assert cramers_v(a, b) < 0.05

    def test_bounds(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            a = rng.integers(0, 4, size=80)
            b = rng.integers(0, 3, size=80)
            assert 0.0 <= cramers_v(a, b) <= 1.0


class TestMutualInformation:
    def test_independent_product_table(self):
        a, b = table_to_vectors([[9, 3], [6, 2]])   # rows proportional
        assert mutual_information(a, b, normalized=False) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_identical_balanced(self):
        y = np.array([0, 1] * 20)
        assert mutual_information(y, y) == pytest.approx(1.0)

    def test_hand_value_nats(self):
        # plug-in oracle: sum p log(p / (pf * py)) over the joint
        # [[4,1],[1,4]]/10 gives 0.8 ln 1.6 + 0.2 ln 0.4
        f, y = table_to_vectors([[4, 1], [1, 4]])
        want = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
        got = mutual_information(f, (y == "c1").astype(int), normalized=False)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.192745, abs=1e-6)

    def test_bounds(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            f = rng.integers(0, 4, size=100)
            y = rng.integers(0, 2, size=100)
            info = mutual_information(f, y, normalized=False)
            pf = np.bincount(f) / 100
            py = np.bincount(y) / 100
            hf = -(pf[pf > 0] * np.log(pf[pf > 0])).sum()
            hy = -(py[py > 0] * np.log(py[py > 0])).sum()
            assert 0.0 <= info <= min(hf, hy) + 1e-12
            assert 0.0 <= mutual_information(f, y) <= 1.0

    def test_degenerate_returns_zero(self):
        assert mutual_information(np.zeros(10), np.arange(10) % 2) == 0.0


def mixed_dataset(cont, cat, outcome):
    names = tuple(cont) + tuple(cat)
    kinds = {f: FeatureKind.CONTINUOUS for f in cont}
    for f, vals in cat.items():
        kinds[f] = (FeatureKind.BINARY if len(set(vals)) <= 2
                    else FeatureKind.NOMINAL)
    cols = {f: np.asarray(v, float) for f, v in cont.items()}
    cols.update({f: np.asarray(v, str) for f, v in cat.items()})
    return Dataset(Schema(names, kinds, "y"), cols, np.asarray(outcome))


class TestFilterSelect:
    def test_duplicate_continuous_dropped(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=300)
        z = rng.normal(size=300)
        y = rng.integers(0, 2, size=300)
        d = mixed_dataset({"a_feat": x, "b_feat": x.copy(), "c_feat": z}, {}, y)
        diag = filter_select(d, FilterThresholds())
        assert diag.kept_continuous == ["a_feat", "c_feat"]
        assert [f for f, _ in diag.dropped] == ["b_feat"]

    def test_outcome_correlation_read_once_per_feature(self):
        # with a constant outcome every read of a feature's outcome
        # correlation writes a note, so the notes list the reads
        x = np.random.default_rng(103).normal(size=100)
        d = mixed_dataset({"p": x, "q": x.copy(), "r": x.copy()}, {},
                          np.zeros(100, dtype=int))
        diag = filter_select(d, FilterThresholds())
        assert diag.notes == [f"outcome correlation undefined for {f}, using 0"
                              for f in "pqr"]
        assert [f for f, _ in diag.dropped] == ["q", "r"]

    def test_independent_features_all_kept(self):
        rng = np.random.default_rng(73)
        d = mixed_dataset(
            {"a": rng.normal(size=200), "b": rng.normal(size=200)},
            {"g": rng.integers(0, 3, size=200).astype(str)},
            rng.integers(0, 2, size=200),
        )
        diag = filter_select(d, FilterThresholds())
        assert diag.dropped == []
        assert diag.kept == ["a", "b", "g"]

    def test_planted_trio_drops_max_vif(self):
        rng = np.random.default_rng(79)
        f1 = rng.normal(size=1000)
        f2 = rng.normal(size=1000)
        f3 = f1 + f2 + 0.01 * rng.normal(size=1000)
        d = mixed_dataset({"f1": f1, "f2": f2, "f3": f3}, {},
                          rng.integers(0, 2, size=1000))
        diag = filter_select(d, FilterThresholds(vif_max=10))
        assert [f for f, _ in diag.dropped] == ["f3"]
        assert diag.kept_continuous == ["f1", "f2"]

    def test_categorical_association_drop(self):
        rng = np.random.default_rng(83)
        g = rng.integers(0, 3, size=600)
        y = (rng.random(600) < np.where(g == 0, 0.8, 0.2)).astype(int)
        d = mixed_dataset(
            {},
            {"g1": g.astype(str), "g2": g.astype(str), "h": rng.integers(0, 2, 600).astype(str)},
            y,
        )
        diag = filter_select(d, FilterThresholds(cramers_v_max=0.8))
        # the g pair is perfectly associated; exactly one survives and the
        # tie on mutual information keeps the alphabetically first
        assert diag.kept_categorical == ["g1", "h"]
        assert [f for f, _ in diag.dropped] == ["g2"]

    def test_categorical_statistics_equal_public_functions(self):
        # the cascade codes each column once; its figures must be the
        # exact values the public per-pair functions give
        rng = np.random.default_rng(87)
        g = rng.integers(0, 4, size=500)
        cat = {
            "g1": g.astype(str),
            "g2": np.where(rng.random(500) < 0.9, g, 3).astype(str),
            "h": rng.integers(0, 2, 500).astype(str),
            "k": rng.choice(["x", "yy", "z"], size=500),
            "one": np.full(500, "c"),
        }
        y = (rng.random(500) < np.where(g == 0, 0.6, 0.2)).astype(int)
        diag = filter_select(mixed_dataset({}, cat, y),
                             FilterThresholds(cramers_v_max=0.5))
        assert diag.mi_values == [
            (f, mutual_information(cat[f], y)) for f in cat
        ]
        names = list(cat)
        want_chi2, want_v = [], []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if "one" in (a, b):
                    continue   # degenerate table, noted and skipped
                chi2, _, p = chi_square(cat[a], cat[b])
                want_chi2.append((a, b, chi2, p))
                want_v.append((a, b, cramers_v(cat[a], cat[b])))
        assert diag.chi2_pairs == want_chi2
        assert diag.cramers_pairs == want_v
        assert len(diag.notes) == 4
        assert [f for f, _ in diag.dropped] == ["g2"]

    def test_wide_nominal_pair_statistics_equal_public_functions(self):
        # two 20-level features make a 400-cell table, whose cell index
        # a * 20 + b passes 255: one-byte codes must not wrap in it
        rng = np.random.default_rng(91)
        a = rng.integers(0, 20, size=2000)
        b = np.where(rng.random(2000) < 0.5, a, rng.integers(0, 20, size=2000))
        cat = {"a": np.char.add("a", a.astype(str)),
               "b": np.char.add("b", b.astype(str))}
        y = rng.integers(0, 2, size=2000)
        d = mixed_dataset({}, cat, y)
        assert d.codes("a").dtype == np.uint8 and d.arity("a") == d.arity("b") == 20
        diag = filter_select(d, FilterThresholds())
        chi2, _, p = chi_square(cat["a"], cat["b"])
        assert diag.chi2_pairs == [("a", "b", chi2, p)]
        assert diag.cramers_pairs == [("a", "b", cramers_v(cat["a"], cat["b"]))]
        assert diag.mi_values == [(f, mutual_information(cat[f], y)) for f in cat]

    def test_partition_invariant(self):
        rng = np.random.default_rng(89)
        d = mixed_dataset(
            {"a": rng.normal(size=150), "b": rng.normal(size=150)},
            {"g": rng.integers(0, 3, 150).astype(str)},
            rng.integers(0, 2, size=150),
        )
        diag = filter_select(d, FilterThresholds())
        assert sorted(diag.kept + [f for f, _ in diag.dropped]) == ["a", "b", "g"]

    def test_deterministic(self):
        rng = np.random.default_rng(97)
        x = rng.normal(size=200)
        d = mixed_dataset(
            {"a": x, "b": x + 0.001 * rng.normal(size=200)},
            {}, rng.integers(0, 2, size=200),
        )
        d1 = filter_select(d, FilterThresholds())
        d2 = filter_select(d, FilterThresholds())
        assert d1.kept == d2.kept and d1.dropped == d2.dropped

    def test_json_serializable(self):
        import json

        rng = np.random.default_rng(101)
        d = mixed_dataset({"a": rng.normal(size=100)},
                          {"g": rng.integers(0, 2, 100).astype(str)},
                          rng.integers(0, 2, size=100))
        doc = filter_select(d, FilterThresholds()).to_json_dict()
        json.dumps(doc)   # must not raise

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            FilterThresholds(rho_max=1.5)
        with pytest.raises(ValueError):
            FilterThresholds(vif_max=-1)
