"""OLS fitting and backward elimination."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from featscan.errors import InsufficientRowsError, KTooLargeError
from featscan.synth import PlantSpec, SynthSpec, generate
from featscan.tabular import Dataset, FeatureKind, Schema, one_hot
from featscan.wrapper import _qr_r, backward_eliminate, ols_fit
from oracles import reference_ols_p_values, reference_one_hot

mpmath.mp.dps = 40


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestOlsFit:
    def test_exact_linear_fit(self):
        x = np.arange(10, dtype=float)
        y = 2.0 * x + 1.0
        fit = ols_fit(x.reshape(-1, 1), y)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-10)
        assert fit.intercept == pytest.approx(1.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.regularized

    def test_null_pvalues_mostly_insignificant(self):
        # pure-noise regressions should rarely look significant
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(1000, 1))
            y = rng.normal(size=1000)
            fit = ols_fit(x, y)
            if fit.p_values[0] > 0.05:
                hits += 1
        assert hits >= 90

    def test_duplicated_column_flagged(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=50)
        X = np.column_stack([x, x])
        y = rng.normal(size=50)
        fit = ols_fit(X, y)
        assert fit.regularized

    def test_rank_tolerance_scales_with_rows(self):
        # a column within 3e-14 of another: its singular value ratio lies
        # between (m + 1) eps and n eps, so only the row count flags it
        rng = np.random.default_rng(59)
        n = 300
        x = rng.normal(size=n)
        X = np.column_stack([x, x + 3e-14 * rng.normal(size=n)])
        s = np.linalg.svd(np.column_stack([np.ones(n), X]), compute_uv=False)
        eps = np.finfo(np.float64).eps
        assert 10 * 3 * eps < s[-1] / s[0] < n * eps / 2
        assert ols_fit(X, rng.normal(size=n)).regularized

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 4))
        y = rng.normal(size=200)
        fit = ols_fit(X, y)
        design = np.column_stack([np.ones(200), X])
        resid = y - design @ np.r_[fit.intercept, fit.coefficients]
        bound = 1e-8 * 200 * np.abs(design).max()
        assert np.abs(design.T @ resid).max() <= bound

    def test_affine_equivariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(300, 3))
        y = rng.normal(size=300) + X[:, 0]
        fit = ols_fit(X, y)
        scaled = X.copy()
        scaled[:, 0] *= 10.0
        fit2 = ols_fit(scaled, y)
        assert fit2.coefficients[0] == pytest.approx(fit.coefficients[0] / 10.0,
                                                     rel=1e-9)
        np.testing.assert_allclose(fit2.p_values, fit.p_values, atol=1e-9)

    def test_pvalues_match_high_precision_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 2))
        y = rng.normal(size=60)
        fit = ols_fit(X, y)
        for t, p in zip(fit.t_stats, fit.p_values):
            dof = fit.residual_dof
            x = dof / (dof + float(t) ** 2)
            want = float(mpmath.betainc(dof / 2, 0.5, 0, x, regularized=True))
            assert p == pytest.approx(want, abs=1e-9)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientRowsError):
            ols_fit(np.ones((3, 2)), np.ones(3))

    @pytest.mark.parametrize("name, value", [
        ("y", np.nan), ("y", np.inf), ("X", np.nan), ("X", np.inf), ("X", -np.inf),
    ])
    def test_non_finite_input_rejected(self, name, value):
        # a NaN standard error would otherwise read as t = inf, p = 0
        rng = np.random.default_rng(41)
        data = {"X": rng.normal(size=(30, 2)), "y": rng.normal(size=30)}
        data[name].flat[4] = value
        with pytest.raises(ValueError, match=f"^{name} holds"):
            ols_fit(data["X"], data["y"])

    def test_intercept_only_design(self):
        rng = np.random.default_rng(43)
        y = rng.normal(size=25)
        fit = ols_fit(np.empty((25, 0)), y)
        assert fit.intercept == pytest.approx(y.mean(), rel=1e-12)
        assert fit.p_values.shape == (0,)
        assert fit.coefficients.shape == (0,)
        assert fit.residual_dof == 24
        assert fit.r_squared == pytest.approx(0.0, abs=1e-12)
        assert not fit.regularized

    def test_pvalues_match_normal_equations_oracle(self):
        d = oracle_table()
        X, _, _ = reference_one_hot(d, ORACLE_FEATURES)
        y = d.outcome.astype(float)
        fit = ols_fit(X, y)
        assert not fit.regularized
        want = reference_ols_p_values(X, y)
        assert len(want) == X.shape[1] == 6
        for got, p in zip(fit.p_values, want):
            assert got == pytest.approx(p, rel=1e-9)


ORACLE_FEATURES = ["c1", "grp", "c2", "bin", "c3"]


def oracle_table():
    """200 rows: one nominal, one binary and three continuous features."""
    rng = np.random.default_rng(53)
    n = 200
    g = rng.integers(0, 3, size=n)
    b = rng.integers(0, 2, size=n)
    c = rng.normal(size=(3, n))
    y = (rng.random(n) < sigmoid(0.8 * c[0] - 0.7 * (g == 2) + 0.3 * b)).astype(int)
    C = FeatureKind.CONTINUOUS
    return feature_dataset(
        {"c1": c[0], "grp": g, "c2": c[1], "bin": b, "c3": c[2]}, y,
        kinds={"c1": C, "grp": FeatureKind.NOMINAL, "c2": C,
               "bin": FeatureKind.BINARY, "c3": C},
    )


def feature_dataset(columns, outcome, kinds=None):
    names = tuple(columns)
    if kinds is None:
        kinds = {f: FeatureKind.CONTINUOUS for f in names}
    cols = {
        f: np.asarray(v, float if kinds[f] is FeatureKind.CONTINUOUS else str)
        for f, v in columns.items()
    }
    return Dataset(Schema(names, kinds, "y"), cols, np.asarray(outcome))


class TestBackwardEliminate:
    def test_signal_outlives_noise(self):
        agree = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            f1 = rng.normal(size=2000)
            f2 = rng.normal(size=2000)
            y = (rng.random(2000) < sigmoid(2.0 * f1)).astype(int)
            d = feature_dataset({"f1": f1, "f2": f2}, y)
            trace = backward_eliminate(d, ["f1", "f2"], k=1)
            if trace.final == ["f1"] and trace.steps[0].dropped == "f2":
                agree += 1
        assert agree >= 19

    def test_k_equals_candidates(self):
        rng = np.random.default_rng(13)
        d = feature_dataset(
            {"a": rng.normal(size=50), "b": rng.normal(size=50)},
            rng.integers(0, 2, size=50),
        )
        trace = backward_eliminate(d, ["a", "b"], k=2)
        assert trace.steps == []
        assert trace.final == ["a", "b"]

    def test_identical_noise_tiebreak(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=200)
        d = feature_dataset({"n1": x, "n2": x.copy()},
                            rng.integers(0, 2, size=200))
        trace = backward_eliminate(d, ["n1", "n2"], k=1)
        assert len(trace.steps) == 1
        # identical columns give identical p-values; the alphabetically
        # first survives
        assert trace.final == ["n1"]

    def test_k_too_large(self):
        rng = np.random.default_rng(19)
        d = feature_dataset({"a": rng.normal(size=30)},
                            rng.integers(0, 2, size=30))
        with pytest.raises(KTooLargeError):
            backward_eliminate(d, ["a"], k=2)

    def test_trace_shrinks_by_one(self):
        rng = np.random.default_rng(23)
        cols = {f"f{i}": rng.normal(size=300) for i in range(6)}
        d = feature_dataset(cols, rng.integers(0, 2, size=300))
        trace = backward_eliminate(d, sorted(cols), k=2)
        assert len(trace.steps) == 4
        sizes = [len(s.surviving) for s in trace.steps]
        assert sizes == [5, 4, 3, 2]
        assert len(trace.final) == 2
        assert trace.surviving_at(4) == list(trace.steps[1].surviving)
        assert trace.surviving_at(6) == sorted(cols)

    def test_nominal_feature_group_significance(self):
        rng = np.random.default_rng(29)
        g = rng.integers(0, 3, size=1500)
        y = (rng.random(1500) < np.where(g == 2, 0.8, 0.2)).astype(int)
        noise = rng.normal(size=1500)
        d = feature_dataset(
            {"grp": g.astype(str), "noise": noise},
            y,
            kinds={"grp": FeatureKind.NOMINAL, "noise": FeatureKind.CONTINUOUS},
        )
        trace = backward_eliminate(d, ["grp", "noise"], k=1)
        assert trace.final == ["grp"]

    def test_rounds_match_fresh_encoding(self):
        # every round fits the survivors' own one-hot design: each step's
        # drop equals that of a fit on a fresh encoding, and its p-value
        # agrees with that fit to rounding (the round's R factor is the
        # previous one less the dropped columns, re-triangularized)
        rng = np.random.default_rng(37)
        n = 400
        g = rng.integers(0, 4, size=n)
        columns = {
            "z": rng.normal(size=n), "grp": g, "x": rng.normal(size=n),
            "flat": np.zeros(n, int), "bin": rng.integers(0, 2, size=n),
        }
        kinds = {"z": FeatureKind.CONTINUOUS, "grp": FeatureKind.NOMINAL,
                 "x": FeatureKind.CONTINUOUS, "flat": FeatureKind.NOMINAL,
                 "bin": FeatureKind.BINARY}
        y = (rng.random(n) < np.where(g == 1, 0.7, 0.3)).astype(int)
        d = feature_dataset(columns, y, kinds=kinds)
        candidates = ["x", "grp", "flat", "z", "bin"]
        trace = backward_eliminate(d, candidates, k=1)
        survivors = list(candidates)
        for step in trace.steps:
            X, names, sources = one_hot(d, survivors)
            fit = ols_fit(X, d.outcome.astype(float), names, sources)
            sig = fit.min_p_by_feature()
            full = {f: sig.get(f, math.inf) for f in survivors}
            assert step.dropped == max(survivors, key=lambda f: (full[f], f))
            p = full[step.dropped]
            if math.isinf(p):
                assert step.p_value is None
            else:
                assert step.p_value == pytest.approx(p, rel=1e-9)
            survivors.remove(step.dropped)
            assert list(step.surviving) == survivors
        assert trace.steps[0].dropped == "flat"

    def test_rounds_match_normal_equations_oracle(self):
        d = oracle_table()
        y = d.outcome.astype(float)
        trace = backward_eliminate(d, ORACLE_FEATURES, k=1)
        assert len(trace.steps) == 4
        survivors = list(ORACLE_FEATURES)
        for step in trace.steps:
            X, _, sources = reference_one_hot(d, survivors)
            sig: dict[str, float] = {}
            for p, src in zip(reference_ols_p_values(X, y), sources):
                sig[src] = min(p, sig.get(src, math.inf))
            assert step.dropped == max(survivors, key=lambda f: (sig[f], f))
            assert step.p_value == pytest.approx(sig[step.dropped], rel=1e-9)
            survivors.remove(step.dropped)
            assert list(step.surviving) == survivors

    def test_rank_deficiency_through_downdate(self):
        # x_copy duplicates x and grp_is_2 is grp's "2" indicator, so the
        # design stays rank-deficient until one of each pair has gone
        C, B = FeatureKind.CONTINUOUS, FeatureKind.BINARY
        candidates = ["x", "grp", "u", "x_copy", "v", "grp_is_2"]
        pairs = ({"x", "x_copy"}, {"grp", "grp_is_2"})
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = 300
            x = rng.normal(size=n)
            g = rng.integers(0, 3, size=n)
            columns = {"x": x, "x_copy": x.copy(), "u": rng.normal(size=n),
                       "v": rng.normal(size=n), "grp": g,
                       "grp_is_2": (g == 2).astype(int)}
            kinds = {"x": C, "x_copy": C, "u": C, "v": C,
                     "grp": FeatureKind.NOMINAL, "grp_is_2": B}
            y = (rng.random(n) < sigmoid(1.5 * x + 0.8 * (g == 1))).astype(int)
            d = feature_dataset(columns, y, kinds=kinds)
            trace = backward_eliminate(d, candidates, k=1)
            survivors = list(candidates)
            for step in trace.steps:
                X, names, sources = one_hot(d, survivors)
                fit = ols_fit(X, y.astype(float), names, sources)
                assert fit.regularized == any(q <= set(survivors) for q in pairs)
                sig = fit.min_p_by_feature()
                want = max(survivors, key=lambda f: (sig[f], f))
                if step.dropped != want:
                    # exact copies tie: rounding in any fit, a fresh one
                    # included, decides which of the two goes
                    assert {step.dropped, want} == {"x", "x_copy"}, seed
                assert step.p_value == pytest.approx(sig[step.dropped], rel=1e-9)
                survivors.remove(step.dropped)
            assert trace.final == survivors

    def test_peak_memory_holds_one_design(self):
        # tracemalloc traces numpy's arrays but not LAPACK's work buffer:
        # [1, X, y] is written straight from the dataset and factored in
        # place, so it is the one n-row copy
        d, _ = generate(SynthSpec(n_rows=20_000, base_rate=0.3, n_continuous=10,
                                  arities=(3, 4, 5) * 4, seed=7))
        features = list(d.feature_names)
        design = one_hot(d, features)[0].nbytes
        tracemalloc.start()
        try:
            backward_eliminate(d, features, k=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * design

    def test_survivors_ranked_as_a_fresh_fit_ranks_them(self):
        # each survivor set is ranked by the elimination's own fit of it, a
        # factor of the first round's design less the dropped columns; on
        # these seeds every ranking equals a fresh fit's
        for seed in range(60):
            d, _ = generate(SynthSpec(
                n_rows=500, base_rate=0.2, n_continuous=12, pairwise_rho=0.2,
                arities=(2, 3, 4, 5) * 4 + (2, 3),
                plant=PlantSpec({"cat01": ("a",), "cat02": ("b",)}, 3.0),
                seed=seed))
            trace = backward_eliminate(d, list(d.feature_names), k=3)
            for k in (3, 5, 10, 20, 30):
                survivors = trace.surviving_at(k)
                X, names, sources = one_hot(d, survivors)
                sig = ols_fit(X, d.outcome, names, sources).min_p_by_feature()
                want = sorted(survivors, key=lambda f: (sig.get(f, 1.0), f))
                assert trace.ranked_at(k) == want, (seed, k)

    def test_ranking_without_elimination(self):
        # k equal to the candidate count fits the candidates once; a
        # feature with no design columns ranks as p = 1
        rng = np.random.default_rng(53)
        n = 300
        x = rng.normal(size=n)
        y = (rng.random(n) < sigmoid(2.0 * x)).astype(int)
        d = feature_dataset({"x": x, "flat": np.full(n, "c"),
                             "noise": rng.normal(size=n)}, y,
                            kinds={"x": FeatureKind.CONTINUOUS,
                                   "flat": FeatureKind.NOMINAL,
                                   "noise": FeatureKind.CONTINUOUS})
        trace = backward_eliminate(d, ["noise", "flat", "x"], k=3)
        assert trace.steps == []
        assert trace.ranked_at(3)[0] == "x"
        assert trace.ranked_at(3)[-1] == "flat"
        with pytest.raises(KTooLargeError):
            trace.ranked_at(2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, value):
        # Dataset admits only a 0/1 outcome, so the design is what can hold one
        rng = np.random.default_rng(47)
        u = rng.normal(size=40)
        u[7] = value
        d = feature_dataset({"u": u, "v": rng.normal(size=40)},
                            rng.integers(0, 2, size=40))
        with pytest.raises(ValueError, match="^X holds"):
            backward_eliminate(d, ["u", "v"], k=1)

    def test_json_round_trip(self):
        import json

        rng = np.random.default_rng(31)
        d = feature_dataset(
            {"a": rng.normal(size=100), "b": rng.normal(size=100)},
            rng.integers(0, 2, size=100),
        )
        trace = backward_eliminate(d, ["a", "b"], k=1)
        json.dumps(trace.to_json_dict())


class TestQrR:
    @staticmethod
    def inputs():
        rng = np.random.default_rng(59)
        tall = rng.normal(size=(3_000, 40))
        deficient = rng.normal(size=(400, 9))
        deficient[:, 4] = deficient[:, 1] - 2.0 * deficient[:, 7]
        deficient[:, 8] = 0.0
        return {"tall": tall, "square": rng.normal(size=(60, 60)),
                "one_column": rng.normal(size=(500, 1)),
                "rank_deficient": deficient,
                "wide": rng.normal(size=(7, 12))}

    @pytest.mark.parametrize("name", ["tall", "square", "one_column",
                                      "rank_deficient", "wide"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_identical_to_numpy_qr(self, name, order):
        a = self.inputs()[name]
        want = np.linalg.qr(a, mode="r")
        got = _qr_r(np.array(a, order=order))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_fortran_input_factored_in_place(self):
        a = np.asfortranarray(np.random.default_rng(61).normal(size=(20_000, 20)))
        tracemalloc.start()
        try:
            r = _qr_r(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # R, tau and the work array; no n-row copy
        assert peak < 0.05 * a.nbytes
        assert (np.triu(a[:20]) == r).all()
