"""Acceptance gate: one test per release criterion, with stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. Every expected value here comes from an independent
oracle: exhaustive enumeration, grid maximization, or hand arithmetic.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import featscan
from featscan.cli import main
from featscan.embedded import GbmConfig, Preset, extract_importance, gbm_train, top_k
from featscan.filters import FilterThresholds, chi_square, cramers_v, filter_select, pearson, vif
from featscan.inference import empirical_p_value
from featscan.mdss import ScanConfig, best_value_subset, scan, score_bernoulli
from featscan.synth import PlantSpec, SynthSpec, generate
from featscan.tabular import Dataset, DiscretizationSpec, FeatureKind, Schema, discretize
from featscan.wrapper import backward_eliminate

from oracles import brute_force_scan, brute_force_value_subset, grid_max_score
from test_cli import GOLDEN_HEADER


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def random_discrete_dataset(rng, max_features=3, max_values=4, max_rows=200):
    n = int(rng.integers(40, max_rows + 1))
    n_feat = int(rng.integers(1, max_features + 1))
    cols = {}
    for i in range(n_feat):
        arity = int(rng.integers(2, max_values + 1))
        cols[f"f{i}"] = rng.choice([chr(97 + v) for v in range(arity)], size=n)
    alpha = float(rng.uniform(0.15, 0.6))
    y = (rng.random(n) < alpha).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    kinds = {
        f: FeatureKind.BINARY if len(set(v)) <= 2 else FeatureKind.NOMINAL
        for f, v in cols.items()
    }
    d = Dataset(Schema(tuple(cols), kinds, "y"),
                {f: np.asarray(v, str) for f, v in cols.items()},
                y)
    return discretize(d, DiscretizationSpec()), list(cols)


class TestScanOracleEquivalence:
    def test_scan_matches_exhaustive_search(self):
        started = time.monotonic()
        rng = np.random.default_rng(20260809)
        for i in range(100):
            dd, features = random_discrete_dataset(rng)
            got = scan(dd, features, ScanConfig(n_restarts=20, seed=i))
            want, _ = brute_force_scan(dd, features)
            assert got.score == want, f"instance {i}: {got.score} != {want}"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        report("scan-oracle equivalence (100 instances, bitwise)")


class TestLtssPrefixProperty:
    def test_prefix_equals_brute_force(self):
        started = time.monotonic()
        rng = np.random.default_rng(31337)
        for i in range(200):
            j = int(rng.integers(1, 13))
            counts = rng.integers(0, 15, size=j)
            if counts.sum() == 0:
                counts[0] = 1
            sums = np.array([rng.integers(0, c + 1) for c in counts])
            alpha = float(rng.uniform(0.05, 0.95))
            _, got = best_value_subset(counts.tolist(), sums.tolist(), alpha)
            want, _ = brute_force_value_subset(counts.tolist(), sums.tolist(),
                                               alpha)
            assert got == want, f"set {i}: {got} != {want}"
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        report("linear-time prefix property (200 record sets)")


class TestClosedFormMaximizer:
    def test_against_grid_maximization(self):
        rng = np.random.default_rng(424242)
        for _ in range(1000):
            n_s = int(rng.integers(1, 500))
            sum_y = int(rng.integers(0, n_s + 1))
            alpha = float(rng.uniform(0.02, 0.98))
            got, _ = score_bernoulli(sum_y, n_s, alpha)
            want = grid_max_score(sum_y, n_s, alpha)
            assert got == pytest.approx(want, abs=1e-6)
        report("closed-form q maximizer (1000 triples, 1e-6)")


def planted_pipeline_spec(seed):
    return SynthSpec(
        n_rows=2000,
        base_rate=0.2,
        n_continuous=2,
        arities=(3, 3, 2, 2, 2),
        plant=PlantSpec({"cat01": ("a",), "cat02": ("b",)}, q_star=4.0),
        seed=seed,
    )


class TestPlantedAnomalyRecovery:
    def test_full_pipeline_recovers_plant(self):
        started = time.monotonic()
        plant_pairs = {("cat01", "a"), ("cat02", "b")}
        recovered = 0
        significant = 0
        for seed in range(20):
            data, _ = generate(planted_pipeline_spec(seed))
            # filter+wrapper selection keeps K=5 of the 7 features
            diag = filter_select(data, FilterThresholds())
            selected = backward_eliminate(data, diag.kept, k=5).final

            dd = discretize(data, DiscretizationSpec(n_bins=3))
            scan_cfg = ScanConfig(n_restarts=20, seed=seed)
            observed = scan(dd, selected, scan_cfg)
            got_pairs = {
                (f, v)
                for f, vals in observed.subset.restrictions.items()
                for v in vals
            }
            union = got_pairs | plant_pairs
            jaccard = len(got_pairs & plant_pairs) / len(union) if union else 0.0
            recovered += jaccard >= 0.8

            sig = empirical_p_value(dd, selected, scan_cfg, observed, r=99)
            significant += sig.p_value <= 0.02
        elapsed = time.monotonic() - started
        assert recovered >= 18, f"plant recovered in {recovered}/20 seeds"
        assert significant >= 18, f"significant in {significant}/20 seeds"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        report(f"planted-anomaly recovery ({recovered}/20 exact, "
               f"{significant}/20 significant, {elapsed:.0f}s)")


class TestNullCalibration:
    def test_p_values_uniform_under_null(self):
        # 500 null scans, each with 39 replicates. A calibrated p-value is
        # then uniform on the support {1/40, ..., 40/40}, and each check
        # below fails a calibrated scan with probability under 1e-3.
        r = 39
        pvals = []
        for meta in range(10):
            for i in range(50):
                spec = SynthSpec(n_rows=1000, base_rate=0.3, n_continuous=0,
                                 arities=(3, 3, 3, 3, 3),
                                 seed=meta * 1000 + i)
                data, _ = generate(spec)
                dd = discretize(data, DiscretizationSpec())
                feats = list(data.feature_names)
                cfg = ScanConfig(n_restarts=3, seed=meta * 1000 + i)
                observed = scan(dd, feats, cfg)
                sig = empirical_p_value(dd, feats, cfg, observed, r=r)
                pvals.append(sig.p_value)
        n, pvals = len(pvals), np.array(pvals)
        ranks = np.rint(pvals * (r + 1)).astype(int)
        # a value off the support has probability 0
        assert np.array_equal(ranks / (r + 1), pvals)
        assert ranks.min() >= 1 and ranks.max() <= r + 1
        # p <= 0.05 holds for ranks 1 and 2, so the count is Bin(n, 2/40);
        # above this bound with probability sf(41) = 8.6e-4
        hits = int((pvals <= 0.05).sum())
        bound = int(scipy.stats.binom.isf(1e-3, n, 2 / (r + 1)))
        assert hits <= bound, f"{hits}/{n} p-values at or below 0.05"
        # Kolmogorov distance to the discrete uniform. The DKW inequality
        # with Massart's constant holds for any distribution, discrete
        # ones too: P(D > eps) <= 2 exp(-2 n eps^2), which is 5e-4 here
        eps = math.sqrt(math.log(2 / 5e-4) / (2 * n))
        ecdf = np.cumsum(np.bincount(ranks, minlength=r + 2)[1:]) / n
        dist = float(np.abs(ecdf - np.arange(1, r + 2) / (r + 1)).max())
        assert dist <= eps, f"Kolmogorov distance {dist:.4f} > {eps:.4f}"
        report(f"null p-value calibration ({hits}/{n} at or below 0.05, bound "
               f"{bound}; Kolmogorov distance {dist:.3f} <= {eps:.3f})")


class TestFilterStatisticsHandValues:
    def test_known_values(self):
        # 2x2 table [[10,20],[20,10]]
        a = np.array(["r0"] * 30 + ["r1"] * 30)
        b = np.array(["c0"] * 10 + ["c1"] * 20 + ["c0"] * 20 + ["c1"] * 10)
        chi2, dof, p = chi_square(a, b)
        assert chi2 == pytest.approx(6.6667, abs=1e-4)
        assert p == pytest.approx(0.00982, abs=1e-5)
        assert cramers_v(a, b) == pytest.approx(0.3333, abs=1e-4)
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-4)

        rng = np.random.default_rng(1)
        x = rng.normal(size=60)
        dup = Dataset(
            Schema(("u", "v"),
                   {"u": FeatureKind.CONTINUOUS, "v": FeatureKind.CONTINUOUS},
                   "y"),
            {"u": x, "v": x.copy()},
            np.r_[1, np.zeros(59)].astype(int),
        )
        assert vif(dup, "u") == math.inf
        report("filter statistics vs hand values")


class TestSelectionBehavior:
    def test_duplicate_feature_filtered_once(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=400)
        z = rng.normal(size=400)
        y = rng.integers(0, 2, size=400)
        d = Dataset(
            Schema(("dup_a", "dup_b", "other"),
                   {f: FeatureKind.CONTINUOUS for f in
                    ("dup_a", "dup_b", "other")}, "y"),
            {"dup_a": x, "dup_b": x.copy(), "other": z},
            y,
        )
        diag = filter_select(d, FilterThresholds())
        assert diag.kept_continuous == ["dup_a", "other"]
        assert len(diag.dropped) == 1

    def test_wrapper_drops_noise_first(self):
        agree = 0
        for seed in range(20):
            rng = np.random.default_rng(10_000 + seed)
            f1 = rng.normal(size=2000)
            f2 = rng.normal(size=2000)
            y = (rng.random(2000) < 1 / (1 + np.exp(-2.0 * f1))).astype(int)
            d = Dataset(
                Schema(("f1", "f2"),
                       {"f1": FeatureKind.CONTINUOUS,
                        "f2": FeatureKind.CONTINUOUS}, "y"),
                {"f1": f1, "f2": f2},
                y,
            )
            trace = backward_eliminate(d, ["f1", "f2"], k=1)
            agree += trace.final == ["f1"]
        assert agree >= 19, f"noise dropped first in {agree}/20 seeds"

    def test_gbm_separable_f1_and_top_importance(self):
        rng = np.random.default_rng(3)
        cols = {"signal": rng.normal(size=2000)}
        for i in range(9):
            cols[f"noise{i}"] = rng.normal(size=2000)
        y = (cols["signal"] > np.median(cols["signal"])).astype(int)
        d = Dataset(
            Schema(tuple(cols),
                   {f: FeatureKind.CONTINUOUS for f in cols}, "y"),
            cols, y,
        )
        model, metrics = gbm_train(d, GbmConfig(Preset.A, seed=0))
        assert metrics.f1 >= 0.95
        assert top_k(extract_importance(model), 1) == ["signal"]
        report("selection behavior (filters, wrapper, tree importance)")


def sweep_dataset(tmp_path, n_continuous=16, arities=16 * (3,), n_rows=500,
                  seed=9):
    spec = SynthSpec(n_rows=n_rows, base_rate=0.3, n_continuous=n_continuous,
                     arities=arities, seed=seed)
    data, _ = generate(spec)
    from featscan.synth import save

    save(data, None, tmp_path)
    return tmp_path


class TestSweepArithmetic:
    def test_25_rows_and_golden_schema(self, tmp_path):
        src = sweep_dataset(tmp_path / "data")
        out = tmp_path / "out"
        rc = main([
            "sweep",
            "--data", str(src / "data.csv"),
            "--schema", str(src / "schema.json"),
            "--out", str(out),
            "--k-sweep", "5,10,15,20,25,30",
            "--gbm-trees", "25",
            "--restarts", "3",
            "--bootstrap-r", "19",
            "--seed", "7",
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == GOLDEN_HEADER.read_text().strip()
        assert len(lines) - 1 == 4 * 6 + 1 == 25
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"filter_wrapper", "embedded_a", "embedded_b",
                           "committee", "all_features"}
        for line in lines[1:]:
            assert len(line.split(",")) == 8
        report("sweep arithmetic (4 methods x 6 K + all features = 25 rows)")


class TestDeterminism:
    def test_byte_identical_across_repeated_runs(self, tmp_path):
        # each run in a fresh interpreter under its own string-hash seed, so
        # no report byte may depend on the iteration order of a str set
        src = sweep_dataset(tmp_path / "data", n_continuous=4,
                            arities=(3, 3, 2, 3), n_rows=400, seed=11)
        package = str(Path(featscan.__file__).parents[1])
        outputs = {}
        for hash_seed in ("0", "1"):
            out = tmp_path / f"run{hash_seed}"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [package, os.environ.get("PYTHONPATH")]))}
            subprocess.run([
                sys.executable, "-c",
                "import sys; from featscan.cli import main; sys.exit(main(sys.argv[1:]))",
                "sweep",
                "--data", str(src / "data.csv"),
                "--schema", str(src / "schema.json"),
                "--out", str(out),
                "--k-sweep", "3,6",
                "--gbm-trees", "20",
                "--restarts", "4",
                "--bootstrap-r", "19",
                "--seed", "13",
            ], env=env, check=True, capture_output=True)
            outputs[hash_seed] = {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name != "run_meta.json"
            }
        assert outputs["0"] == outputs["1"]
        assert len(outputs["0"]) > 3
        report("determinism (byte-identical across two fresh interpreters)")
