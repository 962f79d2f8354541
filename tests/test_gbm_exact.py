"""The binned tree grower against its row-level oracle, and GBM goldens.

``embedded._bin_columns`` bins each training column once per fit and
``embedded._grow_tree`` sums g, h and row counts per bin with
``np.bincount``, taking a child's sums from its parent's minus its
sibling's; every row a tree does not grow on, held-out rows included,
follows it by bin codes. ``oracles.reference_grow_tree`` bins value by
value and adds each row to its bins one row at a time, and
``oracles.reference_predict`` routes rows node by node by their values.
Every tree, threshold, leaf value, ``column_gain``, ``total_gain`` and
``FitMetrics`` must agree bit for bit.

``data/gbm_golden.json`` pins whole ensembles on synthetic data, captured
from the binned grower. Regenerate it only for a deliberate, documented
change of results:

    PYTHONPATH=src python tests/test_gbm_exact.py > tests/data/gbm_golden.json
"""

import hashlib
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
    _bin_columns,
    _grow_tree,
    committee_vote,
    encode_design,
    extract_importance,
    gbm_train,
    minmax_normalize,
    top_k,
)
from featscan.tabular import Dataset, FeatureKind, Schema
from helpers import raw_matrix
from oracles import (
    reference_bin_column,
    reference_encode_design,
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


def _nominal(n_rows, arities, seed):
    # a nominal feature per level count, each level on n_rows // arity or one
    # more rows, beside a continuous and a binary column
    rng = np.random.default_rng(seed)
    cols = {"x": rng.normal(size=n_rows),
            "flag": rng.choice(np.array(["no", "yes"]), size=n_rows)}
    kinds = {"x": FeatureKind.CONTINUOUS, "flag": FeatureKind.BINARY}
    logit = cols["x"] - 1.0
    for arity in arities:
        level = rng.permutation(np.arange(n_rows) % arity)
        cols[f"nom{arity}"] = np.char.zfill(level.astype(str), 3)
        kinds[f"nom{arity}"] = FeatureKind.NOMINAL
        logit = logit + 0.8 * (level % 3 == 0)
    y = (rng.random(n_rows) < 1 / (1 + np.exp(-logit))).astype(int)
    return Dataset(Schema(tuple(cols), kinds, "y"), cols, y)


# name -> (dataset factory, config)
SHAPES = {
    # binary, low-arity and continuous columns on one table, both presets
    "synth_a": (lambda: _synth(2_000, 6, (2, 3, 4, 5, 2, 3), 21),
                GbmConfig(Preset.A, seed=5, n_trees=8)),
    "synth_b": (lambda: _synth(2_000, 6, (2, 3, 4, 5, 2, 3), 21),
                GbmConfig(Preset.B, seed=5, n_trees=8)),
    # a tall, categorical-only table: nearly every value is tied
    "tall_ties_a": (lambda: _synth(6_000, 0, (2, 3, 4, 2, 3, 4), 22),
                    GbmConfig(Preset.A, seed=6, n_trees=5, max_depth=5)),
    "tall_ties_b": (lambda: _synth(6_000, 0, (2, 3, 4, 2, 3, 4), 22),
                    GbmConfig(Preset.B, seed=6, n_trees=5, max_depth=5)),
    # deep trees with no hessian floor reach nodes of a single row
    "deep_mcw0": (lambda: _rounded(600, 23),
                  GbmConfig(Preset.B, seed=7, n_trees=5, max_depth=6)),
    "stumps": (lambda: _synth(1_500, 8, (3, 5), 24),
               GbmConfig(Preset.A, seed=8, n_trees=12, max_depth=1)),
}
# shapes and train cases grown with no hessian floor (_MIN_CHILD_WEIGHT 0)
NO_HESSIAN_FLOOR = {"deep_mcw0", "rounded_mcw0_a", "tiny_mcw0_b",
                    "two_valued_subsample"}


def _set_growth(monkeypatch, mcw, lam=1.0):
    """Grow trees with hessian floor ``mcw`` and L2 penalty ``lam``."""
    monkeypatch.setattr(embedded, "_MIN_CHILD_WEIGHT", mcw)
    monkeypatch.setattr(embedded, "_L2_REG", lam)


def _tree_dict(tree):
    return {
        "feature": list(tree.feature),
        "threshold": [None if math.isnan(t) else t for t in tree.threshold],
        "left": list(tree.left),
        "right": list(tree.right),
        "value": list(tree.value),
        "is_leaf": list(tree.is_leaf),
    }


def _record(name, cases=SHAPES):
    factory, cfg = cases[name]
    with pytest.MonkeyPatch.context() as m:
        if name in NO_HESSIAN_FLOOR:
            _set_growth(m, 0.0)
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


# sha256 of each fit's record, keys sorted, captured before preset A binned
# nominal features as level codes (and again once gbm_train drew its split
# and subsamples from featscan.rng): a fit with no nominal feature must not
# move
NO_NOMINAL_DIGESTS = {
    "continuous_distinct_a":
        "d4941104799a878ecebc1c90b43f7141e56a7ce8f2e02d9277d531c60f469424",
    "one_two_valued_a":
        "44d3d5836cf73c6c54b1d26e093ea7faa0aea82409c6a206538cb04f35557ead",
    "rounded_mcw0_a":
        "1fb7f14ab79a473944caad1fad70c1c95f94621f23dc45983ef0528bb387923a",
}


@pytest.mark.parametrize("name", sorted(NO_NOMINAL_DIGESTS))
def test_fit_without_nominal_features_is_unchanged(name):
    record = json.dumps(_record(name, TRAIN_CASES), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == NO_NOMINAL_DIGESTS[name]


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
    # the oracle gets the raw matrix of the training rows and bins it, once
    # per tree; its float descent routes every row, held-out rows included
    def grow(g, h, rows, binned, cfg, column_gain):
        X, blocks = binned[0].T, binned[1]
        tree, gain = reference_grow_tree(X[:len(g)], g, h, rows, cfg,
                                         column_gain, blocks=blocks)
        return tree, gain, reference_predict(tree, X)

    with monkeypatch.context() as m:
        m.setattr(embedded, "_bin_columns", lambda columns, n: raw_matrix(columns))
        m.setattr(embedded, "_grow_tree", grow)
        return gbm_train(dataset, cfg)


TRAIN_CASES = {
    "continuous_distinct_a": (lambda: _synth(1_200, 10, (), 31),
                              GbmConfig(Preset.A, seed=1, n_trees=6)),
    "continuous_distinct_b": (lambda: _synth(1_200, 10, (), 31),
                              GbmConfig(Preset.B, seed=1, n_trees=6)),
    "mixed_depth6_b": (lambda: _synth(1_500, 4, (2, 3, 4, 5), 32),
                       GbmConfig(Preset.B, seed=2, n_trees=4, max_depth=6)),
    "tall_ties_a": (lambda: _synth(8_000, 0, (2, 3, 2, 4, 2), 33),
                    GbmConfig(Preset.A, seed=3, n_trees=4)),
    "stumps_b": (lambda: _synth(900, 3, (2, 2, 3), 34),
                 GbmConfig(Preset.B, seed=4, n_trees=10, max_depth=1)),
    "rounded_mcw0_a": (lambda: _rounded(400, 35),
                       GbmConfig(Preset.A, seed=5, n_trees=4, max_depth=6)),
    "tiny_mcw0_b": (lambda: _rounded(30, 36),
                    GbmConfig(Preset.B, seed=6, n_trees=6, max_depth=6)),
    # two-valued columns: wide one-hot nominals plus binaries
    "wide_one_hot_a": (lambda: _synth(2_000, 2, (6, 5, 7, 2, 8, 3, 2, 6), 37),
                       GbmConfig(Preset.A, seed=7, n_trees=4)),
    "wide_one_hot_b": (lambda: _synth(2_000, 2, (6, 5, 7, 2, 8, 3, 2, 6), 37),
                       GbmConfig(Preset.B, seed=7, n_trees=4)),
    # a single two-valued column beside continuous ones
    "one_two_valued_a": (lambda: _synth(1_200, 5, (2,), 38),
                         GbmConfig(Preset.A, seed=8, n_trees=5, max_depth=5)),
    "one_two_valued_b": (lambda: _synth(1_200, 5, (2,), 38),
                         GbmConfig(Preset.B, seed=8, n_trees=5, max_depth=5)),
    "two_valued_subsample": (lambda: _two_valued(400, 39),
                             GbmConfig(Preset.B, n_trees=10, max_depth=5, seed=9)),
    # preset A bins the 3-, 8- and 256-level features as level codes, and
    # the 300-level one as indicator columns
    "nominal_levels_a": (lambda: _nominal(1_200, (3, 8, 256, 300), 41),
                         GbmConfig(Preset.A, seed=10, n_trees=3)),
}
# cases that train preset B on a smaller share of rows than its 0.8, so that
# trees often miss the rare rows
SUBSAMPLE = {"two_valued_subsample": 0.3}


@pytest.mark.parametrize("name", sorted(TRAIN_CASES))
def test_gbm_train_matches_reference_grower(name, monkeypatch):
    factory, cfg = TRAIN_CASES[name]
    if name in SUBSAMPLE:
        monkeypatch.setitem(embedded._SUBSAMPLE, cfg.preset, SUBSAMPLE[name])
    if name in NO_HESSIAN_FLOOR:
        _set_growth(monkeypatch, 0.0)
    dataset = factory()
    got_model, got_metrics = gbm_train(dataset, cfg)
    want_model, want_metrics = _train_reference(dataset, cfg, monkeypatch)
    assert len(got_model.trees) == len(want_model.trees) == cfg.n_trees
    for got, want in zip(got_model.trees, want_model.trees):
        assert_same_tree(got, want)
    assert got_model.column_gain.tobytes() == want_model.column_gain.tobytes()
    assert got_model.total_gain == want_model.total_gain
    assert got_metrics == want_metrics


def _grow_both(X, g, h, rows, cfg, blocks=()):
    want_gain = np.zeros(X.shape[1])
    want, want_total = reference_grow_tree(X, g, h, rows, cfg, want_gain,
                                           embedded._MAX_BINS, blocks)
    got_gain = np.zeros(X.shape[1])
    bins = _bin_columns(_matrix_columns(X, blocks), X.shape[0])
    got, got_total, leaf_value = _grow_tree(g, h, rows, bins, cfg, got_gain)
    assert_same_tree(got, want)
    assert got_gain.tobytes() == want_gain.tobytes()
    assert got_total == want_total
    # every row, grown or left out, holds the value its descent reaches
    assert leaf_value.tobytes() == reference_predict(got, X).tobytes()
    return got


def _matrix_columns(X, blocks=()):
    """``X``'s columns as ``_bin_columns`` reads them, each one-hot block
    (first column, level count) as the index of its indicator that is 1."""
    in_block = np.zeros(X.shape[1], dtype=bool)
    for first, levels in blocks:
        in_block[first:first + levels] = True
        yield first, X[:, first:first + levels].argmax(axis=1), levels
    for col in np.flatnonzero(~in_block):
        yield int(col), X[:, col], 0


def _targets(rng, n):
    p = rng.uniform(0.02, 0.98, size=n)
    y = (rng.random(n) < p).astype(float)
    return p - y, p * (1.0 - p)


@pytest.mark.parametrize("seed", range(6))
def test_grow_tree_ties_and_duplicates(seed, monkeypatch):
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
        _set_growth(monkeypatch, mcw)
        _grow_both(X, g, h, rows, GbmConfig(Preset.A, max_depth=depth))


def test_grow_tree_one_row_nodes(monkeypatch):
    # with no hessian floor a deep tree isolates single rows
    rng = np.random.default_rng(7)
    X = rng.normal(size=(12, 3))
    g, h = _targets(rng, 12)
    _set_growth(monkeypatch, 0.0, 0.0)
    cfg = GbmConfig(Preset.A, max_depth=6)
    tree = _grow_both(X, g, h, np.arange(12), cfg)
    assert sum(tree.is_leaf) > 4


def test_grow_tree_single_row_and_constant_matrix(monkeypatch):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(9, 2))
    g, h = _targets(rng, 9)
    _set_growth(monkeypatch, 0.0)
    cfg = GbmConfig(Preset.A)
    assert _grow_both(X, g, h, np.array([4]), cfg).is_leaf == [True]
    flat = np.ones((9, 3))
    assert _grow_both(flat, g, h, np.arange(9), cfg).is_leaf == [True]
    assert _grow_both(np.empty((9, 0)), g, h, np.arange(9), cfg).is_leaf == [True]


@pytest.mark.parametrize("seed", range(4))
def test_grow_tree_nan_gain_never_wins(seed, monkeypatch):
    # rows with zero gradient and hessian under _L2_REG = 0 make 0/0 gains,
    # and a cut scoring one must lose to every other cut
    rng = np.random.default_rng(300 + seed)
    X = np.column_stack([np.arange(40.0), rng.permutation(40), rng.normal(size=40)])
    g, h = _targets(rng, 40)
    g[:4] = h[:4] = 0.0
    _set_growth(monkeypatch, 0.0, 0.0)
    cfg = GbmConfig(Preset.A, max_depth=3)
    with np.errstate(all="ignore"):
        _grow_both(X, g, h, np.arange(40), cfg)


@pytest.mark.parametrize("seed", range(4))
def test_grow_tree_two_valued_ties_and_nan(seed, monkeypatch):
    # ``b`` is three-valued, and its first cut parts the rows as the
    # two-valued ``a`` does, which the targets favour; whichever comes first
    # wins the tie. ``nan_col`` is two-valued, and its low rows hold only
    # zero gradients and hessians, so under _L2_REG = 0 its gain is 0/0 and
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
            _set_growth(monkeypatch, mcw, lam)
            cfg = GbmConfig(Preset.A, max_depth=depth)
            for X in (np.column_stack([nan_col, a, b, a, x]),
                      np.column_stack([b, a, a, nan_col, x])):
                _grow_both(X, g, h, rows, cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(3))
def test_grow_tree_distinct_and_tied_equal_gains(seed):
    # ``ramp`` has distinct values and ``steps`` is the same ramp with its
    # first two values tied; where their cuts part the rows alike, the sums
    # and gains are equal, and the lower column wins
    rng = np.random.default_rng(700 + seed)
    n = 300
    ramp = np.arange(n, dtype=float)
    steps = ramp.copy()
    steps[1] = steps[0]
    p = rng.uniform(0.3, 0.7, size=n)
    y = (rng.random(n) < np.where(ramp > 0.6 * n, 0.9, 0.1)).astype(float)
    g, h = p - y, p * (1.0 - p)
    rows = np.sort(rng.choice(n, size=240, replace=False)) if seed else np.arange(n)
    x = np.round(rng.normal(size=n), 1)
    for depth in (1, 4):
        cfg = GbmConfig(Preset.A, max_depth=depth)
        for X, first in ((np.column_stack([ramp, steps, x]), 0),
                         (np.column_stack([steps, ramp, x]), 0),
                         (np.column_stack([x, steps, ramp]), 1)):
            tree = _grow_both(X, g, h, rows, cfg)
            assert tree.feature[0] == first


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mcw, cuts", [(5.0, 1), (5.25, 0), (4.75, 3)])
def test_grow_tree_run_of_valid_cuts(mcw, cuts, monkeypatch):
    # a hessian of 0.25 per row sums exactly: over 40 rows H = 10, so
    # HL >= mcw and HR >= mcw leave a run of ``cuts`` cuts; rows with zero
    # gradient and hessian at both ends make cuts outside the run divide
    # 0/0 under _L2_REG = 0 if they were scored
    rng = np.random.default_rng(9)
    n = 44
    X = np.column_stack([np.arange(n, dtype=float), rng.permutation(n) + 0.5,
                         np.round(rng.normal(size=n), 1)])
    h = np.full(n, 0.25)
    g = rng.uniform(-0.5, 0.5, size=n)
    g[[0, 1, -2, -1]] = h[[0, 1, -2, -1]] = 0.0
    _set_growth(monkeypatch, mcw, 0.0)
    stump = GbmConfig(Preset.A, max_depth=1)
    deep = GbmConfig(Preset.A, max_depth=3)
    _grow_both(X, g, h, np.arange(n), deep)
    tree = _grow_both(X[:, :1], g, h, np.arange(n), stump)
    # the one column splits exactly when its run holds a cut
    assert tree.is_leaf[0] == (cuts == 0)
    if cuts == 1:
        assert tree.threshold[0] == 21.5


@pytest.mark.parametrize("seed", range(4))
def test_grow_tree_nan_gain_loses_only_its_cut(seed, monkeypatch):
    # ``ramp``'s rows with zero gradient and hessian sort first, so under
    # _L2_REG = 0 its cuts at 0.5, 1.5 and 2.5, which leave only those rows on
    # the left, score 0/0. A NaN gain never wins, but the column's other
    # cuts still compete: alone, ramp splits further up.
    rng = np.random.default_rng(800 + seed)
    n = 60
    ramp = np.arange(n, dtype=float)
    p = rng.uniform(0.3, 0.7, size=n)
    y = (rng.random(n) < np.where(ramp > n / 2, 0.95, 0.05)).astype(float)
    g, h = p - y, p * (1.0 - p)
    g[:3] = h[:3] = 0.0
    steps = np.round(ramp / 7.0) + 0.1 * (ramp > n / 2)
    noise = rng.normal(size=n)
    noise[:4] = [-10.0, -9.0, -8.0, -20.0]
    X = np.column_stack([ramp, steps, noise])
    _set_growth(monkeypatch, 0.0, 0.0)
    cfg = GbmConfig(Preset.A, max_depth=3)
    with np.errstate(all="ignore"):
        tree = _grow_both(X, g, h, np.arange(n), cfg)
        alone = _grow_both(X[:, :1], g, h, np.arange(n), cfg)
    assert not (tree.feature[0] == 0 and tree.threshold[0] < 3.0)
    assert alone.feature[0] == 0 and alone.threshold[0] > 3.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(3))
def test_grow_tree_two_row_nodes(seed, monkeypatch):
    # no hessian floor: deep nodes of two rows have a single cut
    rng = np.random.default_rng(900 + seed)
    n = 16
    X = np.column_stack([rng.normal(size=n), np.round(rng.normal(size=n)),
                         rng.permutation(n).astype(float)])
    g, h = _targets(rng, n)
    _set_growth(monkeypatch, 0.0)
    cfg = GbmConfig(Preset.A, max_depth=6)
    for rows in (np.arange(n), np.array([3, 11]), np.array([0, 5, 9])):
        _grow_both(X, g, h, rows, cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("max_bins", [256, 7])
@pytest.mark.parametrize("seed", range(4))
def test_grow_tree_interleaved_kinds_subsampled(seed, max_bins, monkeypatch):
    # distinct, rounded and two-valued columns interleaved, so groups of
    # different bin counts alternate, on subsampled rows as preset B trains,
    # from the root down to nodes whose bincount calls span several
    # columns; a cap of 7 bins sends the rounded columns down the quantile
    # path too
    monkeypatch.setattr(embedded, "_MAX_BINS", max_bins)
    rng = np.random.default_rng(1000 + seed)
    n = 800
    cols = []
    for j in range(9):
        kind = j % 3
        if kind == 0:
            cols.append(rng.normal(size=n))
        elif kind == 1:
            cols.append(np.round(rng.normal(size=n), 1))
        else:
            cols.append(rng.integers(0, 2, size=n).astype(float))
    X = np.column_stack(cols)
    g, h = _targets(rng, n)
    rows = np.sort(rng.choice(n, size=640, replace=False))
    for depth, mcw in ((2, 1.0), (6, 0.5), (8, 0.0)):
        _set_growth(monkeypatch, mcw)
        _grow_both(X, g, h, rows, GbmConfig(Preset.B, max_depth=depth))


def _one_hot(level, arity):
    return (level[:, None] == np.arange(arity)).astype(float)


@pytest.mark.parametrize("seed", range(4))
def test_grow_tree_one_hot_blocks(seed):
    # two blocks, the second a copy of the first, whose equal gains must fall
    # to the first; the first's last level never occurs, and a three-level
    # block holds nodes with two of its levels, whose two one-vs-rest cuts
    # part the rows alike; rows with zero gradient and hessian make 0/0
    # gains under _L2_REG = 0
    rng = np.random.default_rng(1100 + seed)
    n = 400
    level = rng.integers(0, 4, size=n)
    three = np.where(level == 0, rng.integers(0, 2, size=n), 2)
    X = np.column_stack([rng.normal(size=n), _one_hot(level, 5),
                         _one_hot(three, 3), _one_hot(level, 5),
                         rng.integers(0, 2, size=n)])
    blocks = [(1, 5), (6, 3), (9, 5)]
    p = rng.uniform(0.3, 0.7, size=n)
    y = (rng.random(n) < np.where(level == 2, 0.8, 0.2)).astype(float)
    g, h = p - y, p * (1.0 - p)
    g[:8] = h[:8] = 0.0
    rows = np.sort(rng.choice(n, size=320, replace=False)) if seed % 2 else np.arange(n)
    with pytest.MonkeyPatch.context() as m, np.errstate(all="ignore"):
        for depth, mcw, lam in ((1, 1.0, 1.0), (4, 1.0, 1.0), (6, 0.0, 0.0)):
            _set_growth(m, mcw, lam)
            tree = _grow_both(X, g, h, rows, GbmConfig(Preset.A, max_depth=depth),
                              blocks)
            assert not set(tree.feature) & set(range(9, 14))


def test_preset_a_bins_each_nominal_as_one_row_of_level_codes(monkeypatch):
    dataset = _nominal(2_000, (2, 3, 8, 256, 300), 40)
    binned = []

    def spy(columns, n):
        columns = list(columns)
        binned.append((*raw_matrix(columns), _bin_columns(columns, n)))
        return binned[-1][2]

    monkeypatch.setattr(embedded, "_bin_columns", spy)
    for preset in (Preset.A, Preset.B):
        gbm_train(dataset, GbmConfig(preset, n_trees=1))
    (XT, blocks, bins), (_, blocks_b, _) = binned
    assert blocks_b == []
    sources = encode_design(dataset, Preset.A).sources
    first = {f: sources.index(f) for f in dataset.feature_names}
    assert blocks == [(first[f"nom{a}"], a) for a in (3, 8, 256)]
    block_rows = [r for r0, t, is_block in bins.groups if is_block
                  for r in range(r0, r0 + len(t))]
    assert bins.columns[block_rows].tolist() == [first[f"nom{a}"] for a in (3, 8, 256)]
    for r0, t, is_block in bins.groups:
        for r in range(r0, r0 + len(t)):
            col = bins.columns[r]
            if is_block:
                # level j's rows, those whose j-th indicator is 1, get bin j,
                # and each level's cut splits its indicator at 0.5
                hit = XT[col + bins.codes[r].astype(np.intp), np.arange(XT.shape[1])]
                assert (hit == 1.0).all()
                assert (t[r - r0] == 0.5).all()
            else:
                assert col < first["nom3"] or col >= first["nom300"]
    # the 2- and 300-level features keep one row per indicator column
    for name, arity in (("nom2", 2), ("nom300", 300)):
        columns = range(first[name], first[name] + arity)
        assert sorted(set(bins.columns) & set(columns)) == list(columns)
    assert len(bins.codes) == 2 + 2 + 3 + 300


@pytest.mark.parametrize("preset", [Preset.A, Preset.B])
def test_training_columns_are_the_encoded_training_rows(preset):
    # what gbm_train bins, one feature at a time, the training rows and then
    # the held-out rows, is the reference design of those rows, level blocks
    # written out as indicators
    dataset = _nominal(1_000, (3, 8, 300), 43)
    in_train = np.zeros(1_000, dtype=bool)
    in_train[np.random.default_rng(44).choice(1_000, 800, replace=False)] = True
    train_idx = np.flatnonzero(in_train)
    rows = np.concatenate((train_idx, np.flatnonzero(~in_train)))
    encoding = encode_design(dataset, preset, train_idx)
    XT, blocks = raw_matrix(encoding.columns(rows))
    want, sources = reference_encode_design(dataset, preset, train_idx)
    assert encoding.sources == sources
    assert XT.tobytes() == np.ascontiguousarray(want[rows].T).tobytes()
    assert len(blocks) == (2 if preset is Preset.A else 0)


@pytest.mark.parametrize("preset", [Preset.A, Preset.B])
def test_leaf_values_are_the_descent_of_every_row(preset, monkeypatch):
    dataset = _nominal(1_500, (3, 5, 300), 42)
    grown, binned = [], []

    def grow(g, h, rows, bins, cfg, column_gain):
        tree, gain, leaf_value = _grow_tree(g, h, rows, bins, cfg, column_gain)
        grown.append((rows, tree, leaf_value))
        return tree, gain, leaf_value

    def spy(columns, n):
        columns = list(columns)
        binned.append(raw_matrix(columns)[0])
        return _bin_columns(columns, n)

    monkeypatch.setattr(embedded, "_grow_tree", grow)
    monkeypatch.setattr(embedded, "_bin_columns", spy)
    gbm_train(dataset, GbmConfig(preset, seed=3, n_trees=5))
    X = binned[0].T
    assert X.shape[0] == 1_500
    for rows, tree, leaf_value in grown:
        assert len(rows) == (1_200 if preset is Preset.A else 960)
        # rows the tree left out or the fit held out follow its splits by
        # their bin codes, as the thresholds route their values
        assert leaf_value.tobytes() == reference_predict(tree, X).tobytes()


def _binned(XT):
    """Each binned column's codes and thresholds, by column index."""
    bins = _bin_columns(_matrix_columns(XT.T), XT.shape[1])
    assert bins.codes.dtype == np.uint8
    out = {}
    for first, thresholds, _ in bins.groups:
        for i, t in enumerate(thresholds, start=first):
            out[int(bins.columns[i])] = (bins.codes[i], t)
    # groups run in ascending bin count, each in ascending column order
    widths = [(t.shape[1], int(bins.columns[first + i]))
              for first, t, _ in bins.groups for i in range(len(t))]
    assert widths == sorted(widths)
    return out


def _bin_test_columns(rng, n):
    tied = np.where(rng.random(n) < 0.9, 0.5, rng.normal(size=n))
    return {
        "normal": rng.normal(size=n),
        "rounded": np.round(rng.normal(size=n), 1),
        "binary": rng.integers(0, 2, size=n).astype(float),
        "constant": np.full(n, -3.0),
        "tied": tied,
        # neighbours whose midpoint rounds up to the larger value
        "adjacent": rng.choice([np.nextafter(1.0, 0.0), 1.0, 2.0], size=n),
        # neighbours whose sum overflows
        "huge": rng.choice([-1.7e308, 1.7e308, 1.75e308], size=n),
        "tiny": rng.choice([0.0, 5e-324, 1e-323], size=n),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [300, 5_000])
def test_bin_columns_matches_reference(n):
    cols = _bin_test_columns(np.random.default_rng(n), n)
    XT = np.stack(list(cols.values()))
    binned = _binned(XT)
    for c, (name, x) in enumerate(cols.items()):
        want_codes, want_thr = reference_bin_column(x)
        if name == "constant":
            # no cut, so it never splits
            assert c not in binned and len(want_thr) == 0
            continue
        codes, thresholds = binned[c]
        assert codes.tolist() == want_codes.tolist(), name
        assert thresholds.tobytes() == want_thr.tobytes(), name


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [300, 5_000])
def test_thresholds_route_training_rows_as_their_bins(n):
    # x <= threshold holds exactly for the rows at or below the cut's bin
    cols = _bin_test_columns(np.random.default_rng(n), n)
    binned = _binned(np.stack(list(cols.values())))
    for c, x in enumerate(cols.values()):
        if c in binned:
            codes, thresholds = binned[c]
            for j, t in enumerate(thresholds):
                assert ((x <= t) == (codes <= j)).all()
    assert binned[list(cols).index("adjacent")][1][0] == np.nextafter(1.0, 0.0)
    assert np.isfinite(binned[list(cols).index("huge")][1]).all()


def test_per_value_bins_up_to_the_cap():
    # 256 distinct values get one bin each, cut at their midpoints;
    # 257 take equal-frequency cuts, so two values share a bin
    rng = np.random.default_rng(11)
    values = np.sort(rng.normal(size=257))
    x256 = rng.permutation(np.concatenate([values[:256], values[:256]]))
    x257 = rng.permutation(np.concatenate([values, values[:255]]))
    binned = _binned(np.stack([x256, x257]))
    codes, thresholds = binned[0]
    assert codes.tolist() == np.searchsorted(values[:256], x256).tolist()
    mids = 0.5 * values[:255] + 0.5 * values[1:256]
    assert thresholds.tobytes() == mids.tobytes()
    codes, thresholds = binned[1]
    assert len(thresholds) == embedded._MAX_BINS - 1
    assert len(np.unique(codes)) == embedded._MAX_BINS
    shared = [len(np.unique(x257[codes == b])) for b in range(256)]
    assert max(shared) == 2


def test_equal_values_share_a_bin():
    # 90% of the rows hold one value and the rest a continuous tail, so
    # most equal-frequency ranks land on the tied value
    rng = np.random.default_rng(12)
    n = 6_000
    x = np.where(rng.random(n) < 0.9, 0.25, rng.normal(size=n))
    codes, thresholds = _binned(x[None, :])[0]
    assert len(np.unique(x)) > embedded._MAX_BINS
    for v in np.unique(x):
        assert len(np.unique(codes[x == v])) == 1
    order = np.argsort(x, kind="stable")
    assert (np.diff(codes[order].astype(int)) >= 0).all()
    # the tied value closes its bin: a cut falls right above it
    assert ((x <= 0.25) == (codes <= codes[x == 0.25][0])).all()
    assert len(thresholds) < embedded._MAX_BINS - 1


# select_l's synthetic table, shrunk so continuous columns take the
# quantile path (1,600 training rows), with its 10 trees per preset
_SELECT_L_SMALL = dict(n_rows=2_000, base_rate=0.2, n_continuous=20,
                       pairwise_rho=0.2, arities=(2, 3, 4, 5) * 2 + (2, 3))


def test_planted_features_lead_the_rankings():
    # At 2,000 rows the plant sits at the edge of detection: seeds 1 and 3
    # miss cat01 in some ranking. An exact split search over every
    # distinct value did no better: it put both planted features in the
    # top 5 on 8 of these 10 seeds for each of preset A, preset B and the
    # committee.
    plant = synth.PlantSpec({"cat01": ("a",), "cat02": ("b",)}, 3.0)
    found = {"embedded_a": 0, "embedded_b": 0, "committee": 0}
    for seed in range(10):
        dataset = synth.generate(synth.SynthSpec(plant=plant, seed=seed,
                                                 **_SELECT_L_SMALL))[0]
        rankings = {}
        for name, preset in (("embedded_a", Preset.A), ("embedded_b", Preset.B)):
            model, _ = gbm_train(dataset, GbmConfig(preset, seed=seed, n_trees=10))
            rankings[name] = extract_importance(model)
        rankings["committee"] = committee_vote(
            [minmax_normalize(r) for r in rankings.values()])
        for name, ranking in rankings.items():
            found[name] += {"cat01", "cat02"} <= set(top_k(ranking, 5))
    assert min(found.values()) >= 8, found


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(4))
def test_held_out_rows_route_as_their_thresholds(seed, monkeypatch):
    # rows after the training rows take the training cuts: new rows, rows
    # exactly on every threshold (which go left), infinities, values past
    # the training range, and none at all
    rng = np.random.default_rng(200 + seed)
    X = np.round(rng.normal(size=(700, 5)), 1)
    g, h = _targets(rng, 700)
    _set_growth(monkeypatch, 0.5)
    cfg = GbmConfig(Preset.A, max_depth=1 + seed)
    tree = _grow_both(X, g, h, np.arange(700), cfg)
    Xnew = np.round(rng.normal(size=(300, 5)), 1)
    on_cut = np.repeat([t for t in tree.threshold if not math.isnan(t)], 5)
    on_cut = on_cut.reshape(-1, 5)
    outside = np.stack([np.full(5, -np.inf), np.full(5, np.inf),
                        X.min(axis=0) - 0.05, X.max(axis=0) + 0.05,
                        X.min(axis=0) - 1e300, X.max(axis=0) + 1e300])
    for held in (Xnew, on_cut, outside, Xnew[:0]):
        data = np.concatenate((X, held))
        bins = _bin_columns(_matrix_columns(data), 700)
        for first, thresholds, _ in bins.groups:
            for r, t in enumerate(thresholds, start=first):
                x, code = data[:, bins.columns[r]], bins.codes[r]
                for j in range(len(t)):
                    assert ((x <= t[j]) == (code <= j)).all()
        got, _, leaf_value = _grow_tree(g, h, np.arange(700), bins, cfg,
                                        np.zeros(5))
        assert_same_tree(got, tree)
        assert leaf_value.tobytes() == reference_predict(tree, data).tobytes()


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
        encoding = encode_design(d, Preset.B, train_idx=idx)
        rows = np.arange(n) if idx is None else idx
        want = reference_target_statistic(grp, d.outcome, rows,
                                          embedded._TARGET_STAT_PRIOR_WEIGHT)
        got = {c: x for c, x, _ in encoding.columns(np.arange(n))}
        assert got[encoding.sources.index("grp")].tobytes() == want.tobytes()


if __name__ == "__main__":
    json.dump({name: _record(name) for name in sorted(SHAPES)}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
