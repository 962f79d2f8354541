"""End-to-end command-line behavior: files in, reports out, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import featscan
from featscan.cli import (
    DEFAULT_K_SWEEP,
    PipelineConfig,
    _build_config,
    build_parser,
    main,
)
from featscan.embedded import GbmConfig, Preset
from featscan.errors import InvalidSpecError
from featscan.mdss import ScanConfig, scan
from featscan.rng import derive_seed
from featscan.synth import SynthSpec
from featscan.tabular import DiscretizationSpec, Schema, discretize, load_csv

from oracles import brute_force_scan

GOLDEN_HEADER = Path(__file__).parent / "data" / "sweep_header.golden"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small planted dataset written through the synth command."""
    out = tmp_path_factory.mktemp("synth")
    spec = {
        "n_rows": 700,
        "base_rate": 0.2,
        "n_continuous": 3,
        "arities": [3, 3, 2],
        "plant": {
            "restrictions": {"cat01": ["a"], "cat02": ["b"]},
            "q_star": 6.0,
        },
        "seed": 5,
    }
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def common_flags(synth_dir, out, **extra):
    flags = [
        "--data", str(synth_dir / "data.csv"),
        "--schema", str(synth_dir / "schema.json"),
        "--out", str(out),
        "--seed", "3",
        "--gbm-trees", "25",
        "--restarts", "5",
        "--bootstrap-r", "19",
    ]
    for key, val in extra.items():
        flags += [f"--{key.replace('_', '-')}", str(val)]
    return flags


class TestSynthCommand:
    def test_outputs_exist(self, synth_dir):
        assert (synth_dir / "data.csv").exists()
        assert (synth_dir / "schema.json").exists()
        doc = json.loads((synth_dir / "ground_truth.json").read_text())
        assert doc["plant"] == {"cat01": ["a"], "cat02": ["b"]}

    def test_bad_spec_exit_code(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"n_rows": 0, "base_rate": 0.2}))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("seed", [[], ["--seed", "4"]], ids=["no-seed", "seed"])
    def test_spec_not_an_object_exits_one(self, tmp_path, caplog, seed):
        spec = tmp_path / "spec.json"
        spec.write_text("[1, 2]")
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec), "--out", str(out), *seed]) == 1
        assert f"{spec}: spec must be a JSON object" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("plant", [
        3,
        {"q_star": 3.0},
        {"restrictions": {"cat01": ["a"]}},
        {"restrictions": [["cat01", "a"]], "q_star": 3.0},
        {"restrictions": {"cat01": 1}, "q_star": 3.0},
        {"restrictions": {"cat01": ["a"]}, "q_star": "high"},
    ], ids=["int", "no-restrictions", "no-q-star", "list-restrictions",
            "int-values", "text-q-star"])
    def test_malformed_plant_exits_one(self, tmp_path, caplog, plant):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_rows": 10, "base_rate": 0.2,
                                    "arities": [2], "plant": plant}))
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert "malformed synth spec" in caplog.text
        assert not out.exists()

    def test_unknown_spec_keys_exit_one(self, tmp_path, caplog):
        # a typo'd key and a stray plant key, which once fell back to
        # their defaults and wrote a table with only cat01
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_rows": 400, "base_rate": 0.2, "n_continous": 3, "arities": [3],
            "plant": {"restrictions": {"cat01": ["a"]}, "q_star": 4.0,
                      "qstar": 9}}))
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert "unknown keys 'n_continous', plant 'qstar'" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"n_rows": 10, "base_rate": 0.2, "arities": [2],'
        ' "plant": {"restrictions": {"cat01": ["a"]}, "q_star": Infinity}}',
        '{"n_rows": 10, "base_rate": 0.2, "arities": [2.5]}',
    ], ids=["infinite-q-star", "fractional-arity"])
    def test_invalid_spec_value_exits_one(self, tmp_path, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert not out.exists()


class TestSelectCommand:
    def test_committee_returns_k_features(self, synth_dir, tmp_path):
        rc = main(["select", "--method", "committee", "--k", "3",
                   *common_flags(synth_dir, tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "select_committee.json").read_text())
        assert doc["report_version"] == 1
        assert len(doc["selected"]) == 3
        assert "ranking_a" in doc and "ranking_b" in doc
        assert doc["fit_metrics_a"]["f1"] >= 0.0

    def test_all_methods_with_overlap(self, synth_dir, tmp_path):
        rc = main(["select", "--method", "all", "--k", "3",
                   *common_flags(synth_dir, tmp_path)])
        assert rc == 0
        for method in ("filter_wrapper", "embedded_a", "embedded_b",
                       "committee"):
            assert (tmp_path / f"select_{method}.json").exists()
        summary = json.loads((tmp_path / "select_summary.json").read_text())
        assert 0 <= summary["overlap_embedded_a_b"] <= 3
        # each embedded method ranks by its own preset, under that preset's seed
        committee = json.loads((tmp_path / "select_committee.json").read_text())
        for preset, key in (("a", 0), ("b", 1)):
            doc = json.loads((tmp_path / f"select_embedded_{preset}.json").read_text())
            assert doc["ranking"]["source"] == f"preset_{preset}"
            assert doc["fit_metrics"]["seed"] == derive_seed(3, 4, key)
            assert committee[f"fit_metrics_{preset}"] == doc["fit_metrics"]

    def test_k_too_large_exits_one(self, synth_dir, tmp_path):
        rc = main(["select", "--method", "embedded_a", "--k", "99",
                   *common_flags(synth_dir, tmp_path)])
        assert rc == 1

    def test_missing_data_exits_two(self, synth_dir, tmp_path):
        rc = main(["select", "--method", "committee", "--k", "2",
                   "--data", str(tmp_path / "nope.csv"),
                   "--schema", str(synth_dir / "schema.json"),
                   "--out", str(tmp_path)])
        assert rc == 2


class TestScanCommand:
    def test_scan_all_recovers_plant(self, synth_dir, tmp_path):
        rc = main(["scan", "--features", "all",
                   *common_flags(synth_dir, tmp_path, restarts=10)])
        assert rc == 0
        doc = json.loads((tmp_path / "scan_all.json").read_text())
        restrictions = doc["subset"]["restrictions"]
        assert restrictions.get("cat01") == ["a"]
        assert restrictions.get("cat02") == ["b"]
        assert doc["significance"]["p_value"] <= 0.05
        assert doc["effect"]["odds_ratio"] > 1.0
        assert (tmp_path / "replicates_all.csv").exists()
        assert (tmp_path / "cutpoints_all.json").exists()

    def test_scan_report_carries_p_value(self, synth_dir, tmp_path):
        rc = main(["scan", "--features", "all",
                   *common_flags(synth_dir, tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "scan_all.json").read_text())
        assert doc["significance"]["r_replicates"] == 19
        assert 1 / 20 <= doc["significance"]["p_value"] <= 1.0
        lines = (tmp_path / "replicates_all.csv").read_text().splitlines()
        assert lines[0] == "replicate,score"
        assert len(lines) == 20

    def test_feature_file_and_oracle_score(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = ["g,h,y"]
        g = rng.choice(list("abc"), size=12)
        h = rng.choice(list("xy"), size=12)
        y = rng.integers(0, 2, size=12)
        y[0] = 1   # keep both outcome classes present
        rows += [f"{g[i]},{h[i]},{int(y[i])}" for i in range(12)]
        data = tmp_path / "fix.csv"
        data.write_text("\n".join(rows) + "\n")
        schema = {
            "features": [{"name": "g", "kind": "nominal"},
                         {"name": "h", "kind": "binary"}],
            "outcome": "y",
            "missing_policy": "error",
        }
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(schema))
        feats = tmp_path / "feats.json"
        feats.write_text(json.dumps({"features": ["g", "h"]}))
        out = tmp_path / "out"
        rc = main(["scan", "--data", str(data), "--schema", str(schema_path),
                   "--features", str(feats), "--out", str(out),
                   "--restarts", "20", "--bootstrap-r", "19", "--seed", "0"])
        assert rc == 0
        doc = json.loads((out / "scan_feats.json").read_text())
        d = load_csv(data, Schema.from_json_file(schema_path))
        dd = discretize(d, DiscretizationSpec())
        want, _ = brute_force_scan(dd, ["g", "h"])
        assert doc["subset"]["score"] == want

    def test_empty_feature_file_exits_one(self, synth_dir, tmp_path):
        feats = tmp_path / "empty.json"
        feats.write_text(json.dumps({"features": []}))
        rc = main(["scan", "--features", str(feats),
                   *common_flags(synth_dir, tmp_path)])
        assert rc == 1


class TestSweepCommand:
    def run_sweep(self, synth_dir, out):
        rc = main(["sweep", "--k-sweep", "2,4", *common_flags(synth_dir, out)])
        assert rc == 0
        return (out / "sweep.csv").read_text()

    def test_row_arithmetic_and_schema(self, synth_dir, tmp_path):
        csv_text = self.run_sweep(synth_dir, tmp_path)
        lines = csv_text.splitlines()
        assert lines[0] == GOLDEN_HEADER.read_text().strip()
        # 4 methods x 2 K values + the all-features row
        assert len(lines) == 1 + 4 * 2 + 1
        assert lines[-1].startswith("all_features,6,")
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["n_scans"] == 9
        assert set(summary["smallest_sufficient_k"]) == {
            "filter_wrapper", "embedded_a", "embedded_b", "committee",
        }

    def test_byte_identical_across_repeated_runs(self, synth_dir, tmp_path):
        outs = {}
        for run in (1, 2):
            out = tmp_path / f"run{run}"
            self.run_sweep(synth_dir, out)
            outs[run] = {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name != "run_meta.json"
            }
        assert outs[1] == outs[2]

    def test_cells_share_one_bootstrap_null(self, synth_dir, tmp_path,
                                            monkeypatch):
        # every scan of a command takes one scan seed, so replicate i of
        # every cell rescans the same outcome vector, whatever the cell's
        # feature set
        outcomes = []

        def spy(data, features, cfg):
            outcomes.append(np.asarray(data.outcome).tobytes())
            return scan(data, features, cfg)

        monkeypatch.setattr("featscan.inference.scan", spy)
        self.run_sweep(synth_dir, tmp_path / "sweep")
        cells = sorted((tmp_path / "sweep").glob("sweep_*_k*.json"))
        assert len(cells) == 9
        # 19 replicates a cell, none with a constant outcome
        assert len(outcomes) == 19 * len(cells)
        nulls = {tuple(outcomes[i:i + 19]) for i in range(0, len(outcomes), 19)}
        assert len(nulls) == 1
        assert len(set(nulls.pop())) == 19

        seed = derive_seed(3, 3)
        for path in cells:
            assert json.loads(path.read_text())["significance"]["seed"] == seed
        assert main(["scan", "--features", "all",
                     *common_flags(synth_dir, tmp_path / "scan")]) == 0
        doc = json.loads((tmp_path / "scan" / "scan_all.json").read_text())
        assert doc["significance"]["seed"] == seed

    def test_report_files_per_cell(self, synth_dir, tmp_path):
        self.run_sweep(synth_dir, tmp_path)
        assert (tmp_path / "sweep_committee_k2.json").exists()
        assert (tmp_path / "sweep_all_features_k6.json").exists()

    def test_k_equal_to_m_matches_all_features_scan(self, synth_dir, tmp_path):
        # every method then selects the full feature set, and an identical
        # feature set means an identical scan
        rc = main(["sweep", "--k-sweep", "6",
                   *common_flags(synth_dir, tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        scores = {line.split(",")[0]: line.split(",")[2] for line in lines[1:]}
        assert len(set(scores.values())) == 1

    def test_every_full_set_cell_equals_all_features(self, synth_dir, tmp_path):
        # a scan depends on the feature set, not the order a method lists
        # it in, so each cell that selects every feature repeats the
        # all-features cell block for block
        rc = main(["sweep", "--k-sweep", "4,6",
                   *common_flags(synth_dir, tmp_path)])
        assert rc == 0
        want = json.loads((tmp_path / "sweep_all_features_k6.json").read_text())
        full = [p for p in sorted(tmp_path.glob("sweep_*_k6.json"))
                if p.name != "sweep_all_features_k6.json"]
        assert len(full) == 4
        for path in full:
            doc = json.loads(path.read_text())
            assert doc["features_scanned"] == want["features_scanned"]
            for block in ("subset", "significance", "effect", "characterization"):
                assert doc[block] == want[block], (path.name, block)
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["n_scans"] == 4 * 2 + 1

    def test_concentrated_signal_needs_few_features(self, tmp_path):
        # five features carry all the signal, so every embedded method
        # reaches the all-features score by K=10
        rng_spec = {
            "n_rows": 2000,
            "base_rate": 0.2,
            "n_continuous": 2,
            "arities": [3, 3, 2, 2, 2, 2, 2, 2, 2, 2],
            "plant": {
                "restrictions": {"cat01": ["a"], "cat02": ["b"]},
                "q_star": 6.0,
            },
            "seed": 17,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(rng_spec))
        src = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec_path), "--out", str(src)]) == 0
        out = tmp_path / "out"
        rc = main([
            "sweep",
            "--data", str(src / "data.csv"),
            "--schema", str(src / "schema.json"),
            "--out", str(out),
            "--k-sweep", "5,10",
            "--bins", "3",
            "--gbm-trees", "50",
            "--restarts", "5",
            "--bootstrap-r", "19",
            "--seed", "2",
        ])
        assert rc == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        for method in ("embedded_a", "embedded_b", "committee"):
            assert summary["smallest_sufficient_k"][method] is not None
            assert summary["smallest_sufficient_k"][method] <= 10

    def test_k_above_filter_survivors_exits_one(self, tmp_path, caplog):
        # the collinear triple loses one member to the VIF filter, so 6 of
        # the 7 features survive; sweep must refuse K=7 as select does
        spec = {"n_rows": 500, "base_rate": 0.2, "n_continuous": 3,
                "collinear_triples": [[0, 1, 2]], "arities": [3, 2, 2, 3],
                "seed": 8}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        src = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec_path), "--out", str(src)]) == 0
        out = tmp_path / "out"
        rc = main(["sweep", "--k-sweep", "2,7", *common_flags(src, out)])
        assert rc == 1
        assert "k=7 but filters kept 6 features" in caplog.text
        assert not list(out.glob("sweep*"))


class TestConfigFile:
    def test_config_with_flag_override(self, synth_dir, tmp_path):
        cfg = {
            "data": str(synth_dir / "data.csv"),
            "schema": str(synth_dir / "schema.json"),
            "output_dir": str(tmp_path / "from_cfg"),
            "k": 2,
            "method": "embedded_a",
            "gbm_trees": 10,
            "n_restarts": 3,
            "seed": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["select", "--config", str(cfg_path), "--k", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "select_embedded_a.json").read_text())
        assert doc["k"] == 3   # the flag wins over the config file

    def test_missing_required_exits_one(self):
        assert main(["select", "--method", "committee", "--k", "2"]) == 1

    def write_config(self, synth_dir, tmp_path, **extra):
        cfg = {
            "data": str(synth_dir / "data.csv"),
            "schema": str(synth_dir / "schema.json"),
            "output_dir": str(tmp_path / "out"),
            "k": 2,
            "method": "embedded_a",
            "gbm_trees": 5,
            **extra,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        return cfg_path

    def test_unknown_key_exits_one(self, synth_dir, tmp_path, caplog):
        cfg_path = self.write_config(synth_dir, tmp_path, restart=3, workers=4)
        assert main(["select", "--config", str(cfg_path)]) == 1
        assert "'restart'" in caplog.text
        assert not (tmp_path / "out" / "select_embedded_a.json").exists()

    def test_wrong_value_type_exits_one(self, synth_dir, tmp_path, caplog):
        cfg_path = self.write_config(synth_dir, tmp_path, bootstrap_r="19")
        assert main(["select", "--config", str(cfg_path)]) == 1
        assert "'bootstrap_r'" in caplog.text

    @pytest.mark.parametrize("key, value", [
        ("k", True), ("k", 2.0), ("rho_max", "0.9"), ("k_sweep", "5,10"),
        ("k_sweep", [5, "10"]), ("output_dir", 3),
    ])
    def test_mistyped_values_exit_one(self, synth_dir, tmp_path, key, value):
        cfg_path = self.write_config(synth_dir, tmp_path, **{key: value})
        assert main(["select", "--config", str(cfg_path)]) == 1

    def test_bin_method_checked_where_unused(self, synth_dir, tmp_path, caplog):
        # embedded_a never discretizes, yet every option is checked
        cfg_path = self.write_config(synth_dir, tmp_path, bin_method="nope")
        assert main(["select", "--config", str(cfg_path)]) == 1
        assert "nope" in caplog.text
        assert list((tmp_path / "out").glob("*")) == []

    def test_removed_max_iterations_key_exits_one(self, synth_dir, tmp_path, caplog):
        cfg_path = self.write_config(synth_dir, tmp_path, max_iterations=50)
        assert main(["select", "--config", str(cfg_path)]) == 1
        assert "'max_iterations'" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_removed_max_iterations_flag_exits_one(self, synth_dir, tmp_path):
        rc = main(["scan", "--features", "all", "--max-iterations", "50",
                   *common_flags(synth_dir, tmp_path / "out")])
        assert rc == 1
        assert not (tmp_path / "out").exists()

    def test_null_k_reads_as_not_given(self, synth_dir, tmp_path, caplog):
        cfg_path = self.write_config(synth_dir, tmp_path, k=None)
        assert main(["select", "--config", str(cfg_path), "--k", "3"]) == 0
        doc = json.loads((tmp_path / "out" / "select_embedded_a.json").read_text())
        assert doc["k"] == 3
        assert main(["select", "--config", str(cfg_path),
                     "--out", str(tmp_path / "no_k")]) == 1
        assert "select needs --k" in caplog.text
        assert not (tmp_path / "no_k").exists()

    def test_well_typed_values_accepted(self, synth_dir, tmp_path):
        # an integer is a valid JSON number for a float field
        cfg_path = self.write_config(synth_dir, tmp_path, vif_max=12,
                                     k_sweep=[2, 3], n_restarts=2)
        assert main(["select", "--config", str(cfg_path)]) == 0


class TestErrorExitCodes:
    def test_removed_pvalue_command_exits_one(self, synth_dir, tmp_path):
        rc = main(["pvalue", "--features", "all",
                   *common_flags(synth_dir, tmp_path)])
        assert rc == 1

    def test_removed_workers_flag_exits_one(self, synth_dir, tmp_path):
        rc = main(["sweep", "--k-sweep", "2", "--workers", "2",
                   *common_flags(synth_dir, tmp_path)])
        assert rc == 1

    def test_scan_without_features_exits_one(self, synth_dir, tmp_path):
        assert main(["scan", *common_flags(synth_dir, tmp_path)]) == 1

    def missing_data_flags(self, synth_dir, tmp_path):
        return ["--data", str(tmp_path / "missing.csv"),
                "--schema", str(synth_dir / "schema.json"),
                "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("argv", [
        ["select", "--method", "committee"],
        ["select", "--method", "embedded_a", "--k", "0"],
        ["select", "--method", "embedded_a", "--k", "7"],
        ["sweep", "--k-sweep", "2,7"],
    ], ids=["select-without-k", "k-zero", "k-above-features", "sweep-k-above"])
    def test_usage_error_exits_one_before_data_is_read(self, synth_dir, tmp_path,
                                                       argv):
        # the fixture's schema has 6 features; its data path does not exist
        assert main([*argv, *self.missing_data_flags(synth_dir, tmp_path)]) == 1

    @pytest.mark.parametrize("features", [[], ["nope"], ["cat01", "num01", "cat01"]],
                             ids=["empty", "unknown", "duplicated"])
    def test_bad_feature_file_exits_one_before_data_is_read(self, synth_dir,
                                                            tmp_path, features):
        feats = tmp_path / "feats.json"
        feats.write_text(json.dumps({"features": features}))
        rc = main(["scan", "--features", str(feats),
                   *self.missing_data_flags(synth_dir, tmp_path)])
        assert rc == 1

    @staticmethod
    def input_file_argv(synth_dir, out, option, path):
        """A command that reads ``path`` for ``option``, the rest well-formed."""
        if option == "--spec":
            return ["synth", "--spec", path, "--out", str(out)]
        flags = {"--features": "all", "--data": str(synth_dir / "data.csv"),
                 "--schema": str(synth_dir / "schema.json"), "--out": str(out),
                 option: path}
        return ["scan", *(x for pair in flags.items() for x in pair)]

    @pytest.mark.parametrize("option, expected", [
        ("--config", 1), ("--features", 1), ("--spec", 1),
        ("--schema", 2), ("--data", 2),
    ])
    def test_missing_input_file_exit_code(self, synth_dir, tmp_path, caplog,
                                          option, expected):
        # a missing config-like file is a usage error; missing data is not
        missing = str(tmp_path / "missing.json")
        out = tmp_path / "out"
        assert main(self.input_file_argv(synth_dir, out, option, missing)) == expected
        assert missing in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("option, content, expected", [
        ("--schema", b'{"features":\n', 2),
        ("--schema", b"\xff{}", 2),
        ("--schema", b'{"features": 3, "outcome": "y"}', 2),
        ("--schema", b'{"features": [{"name": 1, "kind": "binary"}], "outcome": "y"}', 2),
        ("--data", b"\xff", 2),
        ("--data", b"9" * 131_073, 2),
        ("--config", b"{oops}", 1),
        ("--config", b"\xff{}", 1),
        ("--features", b"{oops}", 1),
        ("--spec", b"{oops}", 1),
    ], ids=["schema-not-json", "schema-not-utf8", "schema-malformed", "schema-int-name",
            "data-not-utf8", "data-overlong-cell", "config-not-json", "config-not-utf8",
            "features-not-json", "spec-not-json"])
    def test_unreadable_input_file_exit_code(self, synth_dir, tmp_path, caplog,
                                             option, content, expected):
        # each names the file; a bad schema or data file is a data error.
        # A --data case's content goes before the first cell of a data row.
        if option == "--data":
            lines = (synth_dir / "data.csv").read_bytes().split(b"\n")
            lines[3] = content + lines[3]
            content = b"\n".join(lines)
        bad = tmp_path / "bad_input"
        bad.write_bytes(content)
        out = tmp_path / "out"
        assert main(self.input_file_argv(synth_dir, out, option, str(bad))) == expected
        assert f"{bad}: " in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("entry, key", [(None, "missing_polcy"), (0, "knd")],
                             ids=["top-level", "feature-entry"])
    def test_schema_unknown_key_exit_code(self, synth_dir, tmp_path, caplog,
                                          entry, key):
        # a misspelt key is a data error that names it, not a silent default:
        # "missing_polcy" would otherwise run with the "error" policy
        doc = json.loads((synth_dir / "schema.json").read_text())
        (doc if entry is None else doc["features"][entry])[key] = "drop_row"
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(self.input_file_argv(synth_dir, out, "--schema", str(bad))) == 2
        assert f"{bad}: " in caplog.text and repr(key) in caplog.text
        assert not out.exists()

    def test_byte_order_marks_are_skipped(self, synth_dir, tmp_path):
        # Excel writes CSV and JSON with a leading UTF-8 byte-order mark
        plain, bom = tmp_path / "plain", tmp_path / "bom"
        plain.mkdir()
        bom.mkdir()
        (plain / "feats.json").write_text(json.dumps(["cat01", "num01"]))
        (plain / "cfg.json").write_text(json.dumps({"n_restarts": 2}))
        for name in ("data.csv", "schema.json"):
            (plain / name).write_bytes((synth_dir / name).read_bytes())
        for path in plain.iterdir():
            (bom / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for src in (plain, bom):
            assert main(["scan", "--features", str(src / "feats.json"),
                         "--config", str(src / "cfg.json"),
                         "--data", str(src / "data.csv"),
                         "--schema", str(src / "schema.json"),
                         "--out", str(src / "out"), "--bootstrap-r", "19"]) == 0
        assert ((bom / "out" / "scan_feats.json").read_bytes()
                == (plain / "out" / "scan_feats.json").read_bytes())

    @pytest.mark.parametrize("data", ["present", "missing"])
    def test_scan_all_of_a_featureless_schema_exits_one_before_data_is_read(
            self, tmp_path, caplog, data):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"features": [], "outcome": "y"}))
        csv_path = tmp_path / "data.csv"
        if data == "present":
            csv_path.write_text("y\n0\n1\n")
        out = tmp_path / "out"
        rc = main(["scan", "--features", "all", "--data", str(csv_path),
                   "--schema", str(schema), "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "scan needs at least one feature" in caplog.text

    @pytest.mark.parametrize("command, under", [
        (["select", "--method", "embedded_a", "--k", "2"], ""),
        (["scan", "--features", "all"], "sub"),
        (["synth"], ""),
    ], ids=["select-out-is-a-file", "scan-out-under-a-file", "synth-out-is-a-file"])
    def test_out_at_or_under_a_file_exits_one_before_data_is_read(
            self, synth_dir, tmp_path, caplog, command, under):
        # the inputs exist, so a late check would read them and exit 2
        work = tmp_path / "work"
        work.mkdir()
        blocker = work / "report"
        blocker.write_text("keep\n")
        out = blocker / under
        if command == ["synth"]:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"n_rows": 10, "base_rate": 0.2,
                                        "arities": [2]}))
            argv = ["synth", "--spec", str(spec), "--out", str(out)]
        else:
            argv = [*command, *common_flags(synth_dir, out)]
        assert main(argv) == 1
        assert f"{blocker} is not a directory" in caplog.text
        assert blocker.read_text() == "keep\n"
        assert list(work.iterdir()) == [blocker]

    def test_empty_k_sweep_exits_one_before_data_is_read(self, synth_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"k_sweep": []}))
        rc = main(["sweep", "--config", str(cfg_path),
                   *self.missing_data_flags(synth_dir, tmp_path)])
        assert rc == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--help"])
        assert exc.value.code == 0
        assert "--features" in capsys.readouterr().out

    def test_non_finite_continuous_cell_exits_two(self, synth_dir, tmp_path):
        lines = (synth_dir / "data.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = lines[5].split(",")
        row[header.index("num01")] = "inf"
        lines[5] = ",".join(row)
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        rc = main(["scan", "--features", "all",
                   "--data", str(data),
                   "--schema", str(synth_dir / "schema.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_linalg_error_exits_three(self, synth_dir, tmp_path, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("featscan.cli.filter_select", singular)
        rc = main(["select", "--method", "filter_wrapper", "--k", "2",
                   *common_flags(synth_dir, tmp_path)])
        assert rc == 3


@pytest.mark.parametrize("build, value", [
    (lambda v: ScanConfig(n_restarts=v), -3),
    (lambda v: GbmConfig(Preset.A, n_trees=v), -2),
    (lambda v: GbmConfig(Preset.A, max_depth=v), 0),
    (lambda v: GbmConfig(Preset.A, learning_rate=v), 1.75),
    (lambda v: GbmConfig(Preset.A, learning_rate=v), float("nan")),
    (lambda v: GbmConfig(Preset.A, seed=v), -7),
    (lambda v: SynthSpec(n_rows=10, base_rate=v, arities=(2,)), 1.125),
], ids=["n_restarts", "n_trees", "max_depth", "learning_rate", "learning_rate_nan",
        "seed", "base_rate"])
def test_config_error_names_rejected_value(build, value):
    with pytest.raises((ValueError, InvalidSpecError),
                       match=re.escape(f"got {value}")):
        build(value)


def test_gbm_config_of_each_preset():
    cfg = PipelineConfig("d.csv", "s.json", "out", gbm_trees=7, gbm_depth=2,
                         gbm_lr=0.5, seed=11)
    assert cfg.gbm(Preset.A) == GbmConfig(Preset.A, 7, 2, 0.5, derive_seed(11, 4, 0))
    assert cfg.gbm(Preset.B) == GbmConfig(Preset.B, 7, 2, 0.5, derive_seed(11, 4, 1))


def test_data_commands_leave_numpy_random_unloaded(synth_dir, tmp_path):
    # every random draw of select, scan and sweep comes from featscan.rng.
    # numpy.random, with the secrets and hashlib modules it imports (and
    # OpenSSL's libcrypto that hashlib maps in), would add about 6 MiB to
    # each command's peak memory. Only the synth command imports
    # featscan.synth, which the data commands would compile for nothing
    src = str(Path(featscan.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    data = ["--data", str(synth_dir / "data.csv"),
            "--schema", str(synth_dir / "schema.json")]
    argvs = [
        ["scan", "--features", "all", "--bootstrap-r", "19", "--restarts", "3",
         *data, "--out", str(tmp_path / "scan")],
        ["select", "--method", "all", "--k", "2", "--gbm-trees", "3",
         *data, "--out", str(tmp_path / "select")],
        ["sweep", "--k-sweep", "2", "--gbm-trees", "3", "--bootstrap-r", "19",
         "--restarts", "3", *data, "--out", str(tmp_path / "sweep")],
    ]
    code = textwrap.dedent("""
        import json, sys
        from featscan.cli import main
        codes = [main(argv) for argv in json.loads(sys.argv[1])]
        print(json.dumps([codes, [m for m in ("numpy.random", "secrets", "hashlib",
                                              "featscan.synth")
                                  if m in sys.modules]]))
    """)
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == [[0, 0, 0], []]


def test_select_leaves_numpy_ma_unloaded(synth_dir, tmp_path):
    # np.unique without return_inverse imports numpy.ma, 13-26 ms of a
    # select command; every method selects without it
    src = str(Path(featscan.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = textwrap.dedent("""
        import sys
        from featscan.cli import main
        rc = main(sys.argv[1:])
        print(rc, "numpy.ma" in sys.modules)
    """)
    argv = ["select", "--method", "all", "--k", "2",
            *common_flags(synth_dir, tmp_path / "out")]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["0", "False"]


@pytest.mark.parametrize("command", [["scan", "--features", "all"],
                                     ["sweep", "--k-sweep", "2"]])
def test_scan_leaves_numpy_ma_unloaded(tmp_path, command):
    # 12 binary features over 400 rows: the scan's key range, 2**12,
    # exceeds the row count, so its pattern table takes the sort path
    spec = {"n_rows": 400, "base_rate": 0.2, "arities": [2] * 12,
            "plant": {"restrictions": {"cat01": ["a"]}, "q_star": 4.0},
            "seed": 1}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path)]) == 0
    src = str(Path(featscan.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = textwrap.dedent("""
        import sys
        from featscan.cli import main
        rc = main(sys.argv[1:])
        print(rc, "numpy.ma" in sys.modules)
    """)
    argv = [*command, *common_flags(tmp_path, tmp_path / "out")]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["0", "False"]


# flag, config key, value: each is out of range for its option
BAD_VALUES = [
    ("--bins", "bins", 1),
    ("--bin-method", "bin_method", "nope"),
    ("--rho-max", "rho_max", 2),
    ("--rho-max", "rho_max", 1),
    ("--vif-max", "vif_max", float("nan")),
    ("--chi2-alpha", "chi2_alpha", 1),
    ("--cramers-max", "cramers_v_max", 0),
    ("--gbm-lr", "gbm_lr", 0),
    ("--gbm-depth", "gbm_depth", 0),
    ("--gbm-trees", "gbm_trees", -1),
    ("--restarts", "n_restarts", 0),
    ("--bootstrap-r", "bootstrap_r", 5),
    ("--seed", "seed", -1),
    ("--method", "method", "bogus"),
    ("--score-tolerance", "score_tolerance", 1.5),
    ("--score-tolerance", "score_tolerance", -0.125),
]
COMMAND_ARGV = {
    "select": ["select", "--k", "2"],
    "scan": ["scan", "--features", "all"],
    "sweep": ["sweep", "--k-sweep", "2"],
}


def bad_value_cases():
    for flag, key, value in BAD_VALUES:
        for command in COMMAND_ARGV:
            yield pytest.param(command, [], {key: value}, f"{flag} / {key} ",
                               id=f"{command}-config-{key}={value}")
            if flag != "--method" or command == "select":
                # argparse itself rejects a choice flag's value, naming the flag
                named = (f"argument {flag}: invalid choice" if flag in
                         ("--method", "--bin-method") else f"{flag} / {key} ")
                yield pytest.param(command, [flag, str(value)], {}, named,
                                   id=f"{command}-flag-{flag}={value}")


@pytest.mark.parametrize("command, flags, config, named", bad_value_cases())
def test_bad_option_value_exits_one_before_data_is_read(synth_dir, tmp_path, caplog,
                                                        command, flags, config, named):
    # the data path does not exist, so reading it would exit 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main([*COMMAND_ARGV[command], "--config", str(cfg_path), *flags,
               "--data", str(tmp_path / "missing.csv"),
               "--schema", str(synth_dir / "schema.json"), "--out", str(out)])
    assert rc == 1
    assert named in caplog.text
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("tolerance", ["1.5", "-0.125"])
def test_score_tolerance_outside_unit_interval_exits_one(synth_dir, tmp_path,
                                                         tolerance):
    # 1.5 would make every K sufficient; a negative one can make none so
    rc = main(["sweep", "--k-sweep", "2", "--score-tolerance", tolerance,
               *common_flags(synth_dir, tmp_path)])
    assert rc == 1
    assert not (tmp_path / "sweep_summary.json").exists()


DATA_COMMAND_FLAGS = {
    "--data", "--schema", "--out", "--config", "--seed", "--bins",
    "--bin-method", "--rho-max", "--vif-max", "--chi2-alpha", "--cramers-max",
    "--gbm-trees", "--gbm-depth", "--gbm-lr", "--restarts", "--bootstrap-r",
    "--score-tolerance",
}
SURFACE = {
    "select": DATA_COMMAND_FLAGS | {"--method", "--k"},
    "scan": DATA_COMMAND_FLAGS | {"--features"},
    "sweep": DATA_COMMAND_FLAGS | {"--k-sweep"},
    "synth": {"--spec", "--out", "--seed"},
}


def test_each_command_accepts_exactly_its_flags():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(SURFACE)
    for command, flags in SURFACE.items():
        got = {s for a in commands[command]._actions for s in a.option_strings}
        assert got - {"-h", "--help"} == flags, command
    assert len(set().union(*SURFACE.values())) == 22


def test_every_command_flag_has_help():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command in ("select", "scan", "sweep", "synth"):
        for action in commands[command]._actions:
            assert action.help and action.help.strip(), (command, action.option_strings)


REQUIRED = {"data": "d.csv", "schema": "s.json", "output_dir": "o"}
# flag, config key, PipelineConfig field, flag text, the value it parses to,
# config value, the value that gives, default (REQUIRED: none)
OPTIONS = [
    ("--data", "data", "data", "f.csv", Path("f.csv"), "c.csv", Path("c.csv"),
     REQUIRED),
    ("--schema", "schema", "schema", "f.json", Path("f.json"), "c.json",
     Path("c.json"), REQUIRED),
    ("--out", "output_dir", "out_dir", "f", Path("f"), "c", Path("c"), REQUIRED),
    ("--method", "method", "method", "embedded_b", "embedded_b",
     "filter_wrapper", "filter_wrapper", "committee"),
    ("--k", "k", "k", "3", 3, 2, 2, None),
    ("--k-sweep", "k_sweep", "k_sweep", "4,6", (4, 6), [3], (3,),
     DEFAULT_K_SWEEP),
    ("--rho-max", "rho_max", "rho_max", "0.5", 0.5, 0.75, 0.75, 0.9),
    ("--vif-max", "vif_max", "vif_max", "5", 5.0, 7.5, 7.5, 10.0),
    ("--chi2-alpha", "chi2_alpha", "chi2_alpha", "0.01", 0.01, 0.1, 0.1, 0.05),
    ("--cramers-max", "cramers_v_max", "cramers_v_max", "0.5", 0.5, 0.75, 0.75,
     0.9),
    ("--bins", "bins", "bins", "3", 3, 4, 4, 5),
    ("--bin-method", "bin_method", "bin_method", "equal_frequency",
     "equal_frequency", "equal_width", "equal_width", "equal_frequency"),
    ("--gbm-trees", "gbm_trees", "gbm_trees", "7", 7, 9, 9, 200),
    ("--gbm-depth", "gbm_depth", "gbm_depth", "2", 2, 3, 3, 4),
    ("--gbm-lr", "gbm_lr", "gbm_lr", "0.5", 0.5, 0.25, 0.25, 0.1),
    ("--restarts", "n_restarts", "n_restarts", "4", 4, 6, 6, 20),
    ("--bootstrap-r", "bootstrap_r", "bootstrap_r", "29", 29, 39, 39, 100),
    ("--score-tolerance", "score_tolerance", "score_tolerance", "0.02", 0.02,
     0.05, 0.05, 0.01),
    ("--seed", "seed", "seed", "4", 4, 5, 5, 0),
]


@pytest.mark.parametrize("flag, key, field, flag_text, flag_value, file_value, "
                         "file_parsed, default", OPTIONS, ids=[o[0] for o in OPTIONS])
def test_flag_then_config_file_then_default(tmp_path, flag, key, field, flag_text,
                                            flag_value, file_value, file_parsed,
                                            default):
    commands = [c for c, flags in SURFACE.items() if c != "synth" and flag in flags]
    assert commands

    def built(command, flag_given, file_given):
        doc = {k: v for k, v in REQUIRED.items() if k != key}
        if file_given:
            doc[key] = file_value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg_path)]
        argv += ["--features", "all"] if command == "scan" else []
        argv += [flag, flag_text] if flag_given else []
        return getattr(_build_config(build_parser().parse_args(argv)), field)

    for command in commands:
        assert built(command, True, False) == flag_value
        assert built(command, False, True) == file_parsed
        assert built(command, True, True) == flag_value
        if default is not REQUIRED:
            assert built(command, False, False) == default
