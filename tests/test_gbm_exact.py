"""The exact-split tree grower against its per-node oracle, and GBM goldens.

``embedded._grow_tree`` searches splits on per-node sorted partitions and
``_Tree.predict`` descends one level per step. ``oracles.reference_grow_tree``
filters the global sort order at every node and ``oracles.reference_predict``
routes rows node by node. Every tree, threshold, leaf value,
``column_gain``, ``total_gain`` and ``FitMetrics`` must agree bit for bit.

``data/gbm_golden.json`` pins whole ensembles on synthetic data, captured
from the per-node grower. Regenerate it only for a deliberate, documented
change of results:

    PYTHONPATH=src python tests/test_gbm_exact.py > tests/data/gbm_golden.json
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from featscan import embedded, synth
from featscan.embedded import (
    GbmConfig,
    Preset,
    _grow_tree,
    _presort,
    _Tree,
    encode_design,
    gbm_train,
)
from featscan.tabular import Dataset, FeatureKind, Schema
from oracles import (
    reference_grow_tree,
    reference_predict,
    reference_target_statistic,
)

GOLDEN = Path(__file__).parent / "data" / "gbm_golden.json"


def _synth(n_rows, n_continuous, arities, seed):
    plant = (synth.PlantSpec({"cat01": ("a",), "cat02": ("b",)}, 3.0)
             if len(arities) >= 2 else None)
    spec = synth.SynthSpec(n_rows=n_rows, base_rate=0.2,
                           n_continuous=n_continuous, pairwise_rho=0.2,
                           arities=arities, plant=plant, seed=seed)
    return synth.generate(spec)[0]


def _rounded(n_rows, seed):
    # continuous columns with few distinct values, one of them constant
    rng = np.random.default_rng(seed)
    cols = {
        "r1": np.round(rng.normal(size=n_rows), 1),
        "r0": np.round(rng.normal(size=n_rows)),
        "flat": np.full(n_rows, 2.5),
        "bits": rng.integers(0, 2, size=n_rows).astype(float),
    }
    logit = cols["r1"] + 0.8 * cols["bits"] - 1.0
    y = (rng.random(n_rows) < 1 / (1 + np.exp(-logit))).astype(int)
    names = tuple(cols)
    schema = Schema(names, {f: FeatureKind.CONTINUOUS for f in names}, "y")
    return Dataset(schema, cols, y)


def _two_valued(n_rows, seed):
    # two-valued continuous columns beside distinct ones: values {-1.5, 2.5},
    # a rare indicator that a subsample can miss, and a copy of the first,
    # constant in every node below a split on either
    rng = np.random.default_rng(seed)
    pm = np.where(rng.random(n_rows) < 0.4, -1.5, 2.5)
    rare = np.zeros(n_rows)
    rare[rng.choice(n_rows, size=4, replace=False)] = 1.0
    cols = {"x": rng.normal(size=n_rows), "pm": pm, "rare": rare,
            "pm_copy": pm.copy(), "z": np.round(rng.normal(size=n_rows), 1)}
    logit = cols["x"] + 0.5 * pm + 2.0 * rare - 1.0
    y = (rng.random(n_rows) < 1 / (1 + np.exp(-logit))).astype(int)
    names = tuple(cols)
    schema = Schema(names, {f: FeatureKind.CONTINUOUS for f in names}, "y")
    return Dataset(schema, cols, y)


# name -> (dataset factory, config)
SHAPES = {
    # binary, low-arity and continuous columns on one table, both presets
    "synth_a": (lambda: _synth(2_000, 6, (2, 3, 4, 5, 2, 3), 21),
                GbmConfig.preset_a(seed=5, n_trees=8)),
    "synth_b": (lambda: _synth(2_000, 6, (2, 3, 4, 5, 2, 3), 21),
                GbmConfig.preset_b(seed=5, n_trees=8)),
    # a tall, categorical-only table: nearly every value is tied
    "tall_ties_a": (lambda: _synth(6_000, 0, (2, 3, 4, 2, 3, 4), 22),
                    GbmConfig.preset_a(seed=6, n_trees=5, max_depth=5)),
    "tall_ties_b": (lambda: _synth(6_000, 0, (2, 3, 4, 2, 3, 4), 22),
                    GbmConfig.preset_b(seed=6, n_trees=5, max_depth=5)),
    # deep trees with no hessian floor reach nodes of a single row
    "deep_mcw0": (lambda: _rounded(600, 23),
                  GbmConfig.preset_b(seed=7, n_trees=5, max_depth=6,
                                     min_child_weight=0.0)),
    "stumps": (lambda: _synth(1_500, 8, (3, 5), 24),
               GbmConfig.preset_a(seed=8, n_trees=12, max_depth=1)),
}


def _tree_dict(tree):
    return {
        "feature": list(tree.feature),
        "threshold": [None if math.isnan(t) else t for t in tree.threshold],
        "left": list(tree.left),
        "right": list(tree.right),
        "value": list(tree.value),
        "is_leaf": list(tree.is_leaf),
    }


def _record(name):
    factory, cfg = SHAPES[name]
    model, metrics = gbm_train(factory(), cfg)
    return {
        "column_gain": model.column_gain.tolist(),
        "total_gain": model.total_gain,
        "metrics": metrics.to_json_dict(),
        "trees": [_tree_dict(t) for t in model.trees],
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_ensemble_matches_golden(golden, name):
    assert json.loads(json.dumps(_record(name))) == golden[name]


def _floats(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_tree(got, want):
    assert got.feature == want.feature
    assert got.left == want.left
    assert got.right == want.right
    assert got.is_leaf == want.is_leaf
    assert _floats(got.threshold) == _floats(want.threshold)
    assert _floats(got.value) == _floats(want.value)


def _train_reference(dataset, cfg, monkeypatch):
    def grow(XT, g, h, rows, presort, cfg, column_gain):
        order = np.argsort(XT.T, axis=0, kind="stable")
        return reference_grow_tree(XT.T, g, h, rows, order, cfg, column_gain)

    with monkeypatch.context() as m:
        m.setattr(embedded, "_grow_tree", grow)
        m.setattr(_Tree, "predict", reference_predict)
        return gbm_train(dataset, cfg)


TRAIN_CASES = {
    "continuous_distinct_a": (lambda: _synth(1_200, 10, (), 31),
                              GbmConfig.preset_a(seed=1, n_trees=6)),
    "continuous_distinct_b": (lambda: _synth(1_200, 10, (), 31),
                              GbmConfig.preset_b(seed=1, n_trees=6)),
    "mixed_depth6_b": (lambda: _synth(1_500, 4, (2, 3, 4, 5), 32),
                       GbmConfig.preset_b(seed=2, n_trees=4, max_depth=6)),
    "tall_ties_a": (lambda: _synth(8_000, 0, (2, 3, 2, 4, 2), 33),
                    GbmConfig.preset_a(seed=3, n_trees=4)),
    "stumps_b": (lambda: _synth(900, 3, (2, 2, 3), 34),
                 GbmConfig.preset_b(seed=4, n_trees=10, max_depth=1)),
    "rounded_mcw0_a": (lambda: _rounded(400, 35),
                       GbmConfig.preset_a(seed=5, n_trees=4, max_depth=6,
                                          min_child_weight=0.0)),
    "tiny_mcw0_b": (lambda: _rounded(30, 36),
                    GbmConfig.preset_b(seed=6, n_trees=6, max_depth=6,
                                       min_child_weight=0.0)),
    # two-valued columns: wide one-hot nominals plus binaries
    "wide_one_hot_a": (lambda: _synth(2_000, 2, (6, 5, 7, 2, 8, 3, 2, 6), 37),
                       GbmConfig.preset_a(seed=7, n_trees=4)),
    "wide_one_hot_b": (lambda: _synth(2_000, 2, (6, 5, 7, 2, 8, 3, 2, 6), 37),
                       GbmConfig.preset_b(seed=7, n_trees=4)),
    # a single two-valued column, where a reduce down the rows adds pairwise
    "one_two_valued_a": (lambda: _synth(1_200, 5, (2,), 38),
                         GbmConfig.preset_a(seed=8, n_trees=5, max_depth=5)),
    "one_two_valued_b": (lambda: _synth(1_200, 5, (2,), 38),
                         GbmConfig.preset_b(seed=8, n_trees=5, max_depth=5)),
    "two_valued_subsample": (lambda: _two_valued(400, 39),
                             GbmConfig(Preset.B, n_trees=10, max_depth=5,
                                       subsample=0.3, seed=9,
                                       min_child_weight=0.0)),
}
TWO_VALUED_CASES = ("wide_one_hot_a", "wide_one_hot_b", "one_two_valued_a",
                    "one_two_valued_b", "two_valued_subsample")


@pytest.mark.parametrize("name", sorted(TRAIN_CASES))
def test_gbm_train_matches_reference_grower(name, monkeypatch):
    factory, cfg = TRAIN_CASES[name]
    dataset = factory()
    got_model, got_metrics = gbm_train(dataset, cfg)
    want_model, want_metrics = _train_reference(dataset, cfg, monkeypatch)
    assert len(got_model.trees) == len(want_model.trees) == cfg.n_trees
    for got, want in zip(got_model.trees, want_model.trees):
        assert_same_tree(got, want)
    assert got_model.column_gain.tobytes() == want_model.column_gain.tobytes()
    assert got_model.total_gain == want_model.total_gain
    assert got_metrics == want_metrics


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("name", TWO_VALUED_CASES)
def test_two_valued_sums_in_small_chunks(name, chunk, monkeypatch):
    # each chunk's partial sums carry into the next one bit for bit
    monkeypatch.setattr(embedded, "_SUM_ROWS", chunk)
    test_gbm_train_matches_reference_grower(name, monkeypatch)


def test_presort_finds_two_valued_columns():
    XT = np.array([[-1.5, 2.5, 2.5, -1.5],
                   [0.0, 1.0, 2.0, 0.0],
                   [3.0, 3.0, 3.0, 3.0],
                   [1.0, 0.0, 0.0, 0.0]])
    presort = _presort(XT)
    assert presort.two_cols.tolist() == [0, 3]
    assert presort.sorted_cols.tolist() == [1, 2]
    assert presort.order.tolist() == [[0, 3, 1, 2], [0, 1, 2, 3]]
    assert presort.low.tolist() == [[1, 0], [0, 1], [0, 1], [1, 1]]
    assert presort.low.flags.c_contiguous
    assert presort.mid.tolist() == [0.5, 0.5]


def _grow_both(X, g, h, rows, cfg):
    order = np.argsort(X, axis=0, kind="stable")
    want_gain = np.zeros(X.shape[1])
    want, want_total = reference_grow_tree(X, g, h, rows, order, cfg, want_gain)
    XT = np.ascontiguousarray(X.T)
    got_gain = np.zeros(X.shape[1])
    got, got_total = _grow_tree(XT, g, h, rows, _presort(XT), cfg, got_gain)
    assert_same_tree(got, want)
    assert got_gain.tobytes() == want_gain.tobytes()
    assert got_total == want_total
    return got


def _targets(rng, n):
    p = rng.uniform(0.02, 0.98, size=n)
    y = (rng.random(n) < p).astype(float)
    return p - y, p * (1.0 - p)


@pytest.mark.parametrize("seed", range(6))
def test_grow_tree_ties_and_duplicates(seed):
    # low-arity columns, a constant column and an exact duplicate column,
    # whose equal gains must fall to the first of the two
    rng = np.random.default_rng(100 + seed)
    n = 500
    base = rng.integers(0, 3, size=n).astype(float)
    X = np.column_stack([
        rng.integers(0, 2, size=n), base, np.full(n, -1.0), base,
        np.round(rng.normal(size=n), 1), rng.normal(size=n),
    ]).astype(float)
    g, h = _targets(rng, n)
    rows = np.sort(rng.choice(n, size=400, replace=False)) if seed % 2 else np.arange(n)
    for depth, mcw in ((1, 1.0), (4, 1.0), (6, 0.0)):
        cfg = GbmConfig.preset_a(max_depth=depth, min_child_weight=mcw)
        _grow_both(X, g, h, rows, cfg)


def test_grow_tree_one_row_nodes():
    # with no hessian floor a deep tree isolates single rows
    rng = np.random.default_rng(7)
    X = rng.normal(size=(12, 3))
    g, h = _targets(rng, 12)
    cfg = GbmConfig.preset_a(max_depth=6, min_child_weight=0.0, l2_reg=0.0)
    tree = _grow_both(X, g, h, np.arange(12), cfg)
    assert sum(tree.is_leaf) > 4


def test_grow_tree_single_row_and_constant_matrix():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(9, 2))
    g, h = _targets(rng, 9)
    cfg = GbmConfig.preset_a(min_child_weight=0.0)
    assert _grow_both(X, g, h, np.array([4]), cfg).is_leaf == [True]
    flat = np.ones((9, 3))
    assert _grow_both(flat, g, h, np.arange(9), cfg).is_leaf == [True]
    assert _grow_both(np.empty((9, 0)), g, h, np.arange(9), cfg).is_leaf == [True]


@pytest.mark.parametrize("seed", range(4))
def test_grow_tree_nan_gain_skips_column(seed):
    # rows with zero gradient and hessian under l2_reg=0 make 0/0 gains;
    # a column holding one must lose to every other column
    rng = np.random.default_rng(300 + seed)
    X = np.column_stack([np.arange(40.0), rng.permutation(40), rng.normal(size=40)])
    g, h = _targets(rng, 40)
    g[:4] = h[:4] = 0.0
    cfg = GbmConfig.preset_a(max_depth=3, min_child_weight=0.0, l2_reg=0.0)
    with np.errstate(all="ignore"):
        _grow_both(X, g, h, np.arange(40), cfg)


@pytest.mark.parametrize("seed", range(4))
def test_grow_tree_two_valued_ties_and_nan(seed):
    # ``b`` is three-valued, and its first cut parts the rows as the
    # two-valued ``a`` does, which the targets favour; whichever comes first
    # wins the tie. ``nan_col`` is two-valued, and its low rows hold only
    # zero gradients and hessians, so under l2_reg=0 its gain is 0/0 and
    # must not hide the two-valued columns after it.
    rng = np.random.default_rng(600 + seed)
    n = 300
    a = rng.integers(0, 2, size=n).astype(float)
    b = np.where(a == 1, rng.integers(1, 3, size=n), 0).astype(float)
    nan_col = np.ones(n)
    nan_col[:10] = 0.0
    p = rng.uniform(0.3, 0.7, size=n)
    y = (rng.random(n) < np.where(a == 1, 0.9, 0.1)).astype(float)
    g, h = p - y, p * (1.0 - p)
    g[:10] = h[:10] = 0.0
    rows = np.arange(n)
    if seed % 2:
        rows = np.sort(rng.choice(n, size=240, replace=False))
    x = rng.normal(size=n)
    with np.errstate(all="ignore"):
        for depth, mcw, lam in ((1, 1.0, 1.0), (4, 0.0, 0.0), (6, 0.0, 1.0)):
            cfg = GbmConfig.preset_a(max_depth=depth, min_child_weight=mcw,
                                     l2_reg=lam)
            for X in (np.column_stack([nan_col, a, b, a, x]),
                      np.column_stack([b, a, a, nan_col, x])):
                _grow_both(X, g, h, rows, cfg)


@pytest.mark.parametrize("seed", range(4))
def test_predict_matches_reference(seed):
    rng = np.random.default_rng(200 + seed)
    X = np.round(rng.normal(size=(700, 5)), 1)
    g, h = _targets(rng, 700)
    cfg = GbmConfig.preset_a(max_depth=1 + seed, min_child_weight=0.5)
    tree = _grow_both(X, g, h, np.arange(700), cfg)
    Xnew = np.round(rng.normal(size=(300, 5)), 1)
    # rows that sit exactly on every threshold go left
    on_cut = np.repeat([t for t in tree.threshold if not math.isnan(t)], 5)
    on_cut = on_cut.reshape(-1, 5)
    for data in (X, Xnew, np.asfortranarray(Xnew), on_cut, Xnew[:0]):
        assert tree.predict(data).tobytes() == reference_predict(tree, data).tobytes()


def test_target_statistic_matches_per_level_loop():
    # level "g" occurs only outside the training rows and gets the prior
    rng = np.random.default_rng(400)
    n = 3_000
    grp = np.array(list("abcdefg"))[rng.integers(0, 7, size=n)]
    y = (rng.random(n) < np.where(grp == "b", 0.6, 0.2)).astype(int)
    schema = Schema(("x", "grp"), {"x": FeatureKind.CONTINUOUS,
                                   "grp": FeatureKind.NOMINAL}, "y")
    d = Dataset(schema, {"x": rng.normal(size=n), "grp": grp}, y)
    train = np.flatnonzero((grp != "g") & (rng.random(n) < 0.8))
    for idx in (train, None):
        X, sources = encode_design(d, Preset.B, train_idx=idx)
        rows = np.arange(n) if idx is None else idx
        want = reference_target_statistic(grp, d.outcome, rows,
                                          embedded._TARGET_STAT_PRIOR_WEIGHT)
        got = np.ascontiguousarray(X[:, sources.index("grp")])
        assert got.tobytes() == want.tobytes()


if __name__ == "__main__":
    json.dump({name: _record(name) for name in sorted(SHAPES)}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
