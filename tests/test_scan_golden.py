"""Golden regression values for the scanner and the bootstrap p-value.

``data/scan_golden.json`` pins the score, restrictions, member count,
outcome sum and every replicate score of three scan shapes, captured
once the scan sorted its features (the order-dependent scanner before
that change gives the same values when handed the sorted lists). Any
change to the search, its tie-breaking or the random streams shows up
here as an exact mismatch. Regenerate the file only for a deliberate,
documented change of results:

    PYTHONPATH=src python tests/test_scan_golden.py > tests/data/scan_golden.json
"""

import json
import sys
from pathlib import Path

import pytest

from featscan import synth
from featscan.inference import empirical_p_value
from featscan.mdss import ScanConfig, scan
from featscan.tabular import DiscretizationSpec, discretize

GOLDEN = Path(__file__).parent / "data" / "scan_golden.json"


def _shape(n_rows, base_rate, n_continuous, arities, q_star, seed):
    plant = synth.PlantSpec({"cat01": ("a",), "cat02": ("b",)}, q_star)
    spec = synth.SynthSpec(n_rows=n_rows, base_rate=base_rate,
                           n_continuous=n_continuous, arities=arities,
                           plant=plant, seed=seed)
    dataset, _ = synth.generate(spec)
    return discretize(dataset, DiscretizationSpec())


# name -> (dataset factory, scanned features, scan config, replicates)
SHAPES = {
    # 30 features on 400 rows: about one row per value pattern
    "wide30": (
        lambda: _shape(400, 0.2, 6, (2, 3, 4, 5) * 6, 3.0, 11),
        None,
        ScanConfig(n_restarts=3, seed=2_718_281_828),
        19,
    ),
    # 7 features on 30k rows: many rows per value pattern
    "tall7": (
        lambda: _shape(30_000, 0.1, 1, (2, 3, 4, 2, 3, 4), 1.5, 12),
        None,
        ScanConfig(n_restarts=4, seed=3_141_592_653),
        19,
    ),
    # K=5 out of 12 features, listed out of schema order
    "k5": (
        lambda: _shape(3_000, 0.2, 4, (2, 3, 4, 5, 2, 3, 4, 5), 3.0, 13),
        ["cat03", "num02", "cat01", "cat07", "cat02"],
        ScanConfig(n_restarts=6, seed=1_414_213_562),
        19,
    ),
}


def _features(name, data):
    feats = SHAPES[name][1]
    return list(data.feature_names) if feats is None else list(feats)


def _record(name):
    factory, _, cfg, r = SHAPES[name]
    data = factory()
    feats = _features(name, data)
    observed = scan(data, feats, cfg)
    sig = empirical_p_value(data, feats, cfg, observed, r)
    return {
        "subset": observed.to_json_dict(),
        "p_value": sig.p_value,
        "replicate_scores": list(sig.replicate_scores),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_scan_and_replicates_match_golden(golden, name):
    got = json.loads(json.dumps(_record(name)))
    want = golden[name]
    assert got["subset"] == want["subset"]
    assert got["replicate_scores"] == want["replicate_scores"]
    assert got["p_value"] == want["p_value"]


@pytest.mark.parametrize("name", ["k5", "wide30"])
def test_scan_after_replicates_equals_fresh_scan(golden, name):
    # the replicates share the observed dataset's pattern table; a scan
    # that reuses it afterwards must equal one on a freshly built dataset
    factory, _, cfg, r = SHAPES[name]
    data = factory()
    feats = _features(name, data)
    first = scan(data, feats, cfg)
    empirical_p_value(data, feats, cfg, first, r)
    again = scan(data, feats, cfg)
    fresh_data = factory()
    fresh = scan(fresh_data, feats, cfg)
    assert again == first == fresh
    assert json.loads(json.dumps(again.to_json_dict())) == golden[name]["subset"]


if __name__ == "__main__":
    json.dump({name: _record(name) for name in sorted(SHAPES)}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
