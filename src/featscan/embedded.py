"""Tree-ensemble importance rankings and the committee vote.

A self-contained gradient boosting engine (logistic loss, second-order
leaf weights, depth-limited level-wise trees) is trained under two
presets that differ in nominal-feature encoding and row subsampling, so
the pipeline gets two genuinely distinct rankings to merge. Importance is
total split gain, aggregated from encoded columns back to source
features.

Splits are searched on per-column histograms, as in LightGBM and
XGBoost's ``hist`` method: each training column is binned once per fit
into at most ``_MAX_BINS`` (256) bins, and a tree node sums its gradients
and hessians per bin, so its search scores every cut of a column from
those sums instead of from sorted rows.

- A column with at most 256 distinct training values (every indicator,
  binary, target statistic and rounded column) keeps one bin per value,
  so its cuts are the midpoints between neighbouring values, as an exact
  search has them.
- Any other column gets up to 255 equal-frequency cuts by rank; equal values
  always share a bin.
- Every cut's threshold routes a training row left, under ``x <=
  threshold``, exactly when its bin is at or below the cut, so trees
  predict from the raw matrix.

The larger gain wins, an equal one at the lower column and then the lower
cut, and a NaN gain never wins. Bin sums add a node's rows one after
another in ascending order, so trees, gains and held-out metrics are
bit-identical to a row-by-row grower, which ``tests/oracles.py`` keeps as
the reference.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    KTooLargeError,
    MismatchedFeatureSetsError,
    SingleClassOutcomeError,
)
from .tabular import Dataset, FeatureKind

_TARGET_STAT_PRIOR_WEIGHT = 10.0
_MAX_BINS = 256     # bins per column, so a bin code fits in a uint8


class Preset(enum.Enum):
    A = "A"     # one-hot nominals, no row subsampling
    B = "B"     # smoothed target-statistic nominals, 0.8 row subsampling


@dataclass(frozen=True)
class GbmConfig:
    preset: Preset
    n_trees: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    min_child_weight: float = 1.0
    l2_reg: float = 1.0
    subsample: float = 1.0
    seed: int = 0
    holdout_fraction: float = 0.2

    def __post_init__(self):
        if self.n_trees < 0:
            raise ValueError(f"n_trees must be >= 0, got {self.n_trees}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0,1], got {self.learning_rate}")
        if not self.min_child_weight >= 0.0:   # so NaN fails too
            raise ValueError(f"min_child_weight must be >= 0, got {self.min_child_weight}")
        if not self.l2_reg >= 0.0:
            raise ValueError(f"l2_reg must be >= 0, got {self.l2_reg}")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError(f"subsample must be in (0,1], got {self.subsample}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must be in (0,1), got {self.holdout_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def preset_a(cls, seed: int = 0, **overrides) -> "GbmConfig":
        return cls(preset=Preset.A, subsample=1.0, seed=seed, **overrides)

    @classmethod
    def preset_b(cls, seed: int = 0, **overrides) -> "GbmConfig":
        return cls(preset=Preset.B, subsample=0.8, seed=seed, **overrides)


class RankingSource(enum.Enum):
    PRESET_A = "preset_a"
    PRESET_B = "preset_b"
    COMMITTEE = "committee"


@dataclass(frozen=True)
class FeatureRanking:
    """Per-feature importance scores with provenance."""

    feature_names: tuple[str, ...]
    scores: tuple[float, ...]
    source: RankingSource
    normalized: bool = False
    degenerate: bool = False

    def __post_init__(self):
        if len(self.feature_names) != len(self.scores):
            raise ValueError("scores length must match feature count")
        for s in self.scores:
            if not math.isfinite(s) or s < 0.0:
                raise ValueError(f"scores must be finite and >= 0, got {s}")
            if self.normalized and s > 1.0 + 1e-12:
                raise ValueError(f"normalized score {s} outside [0,1]")

    def score_of(self, name: str) -> float:
        return self.scores[self.feature_names.index(name)]

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.value,
            "normalized": self.normalized,
            "degenerate": self.degenerate,
            "scores": {f: s for f, s in zip(self.feature_names, self.scores)},
        }


@dataclass(frozen=True)
class FitMetrics:
    """Held-out quality of a fitted ensemble."""

    f1: float
    accuracy: float
    log_loss: float
    holdout_fraction: float
    n_holdout: int
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


class _Tree:
    """Flat-array binary tree; children always appear after their parent."""

    __slots__ = ("feature", "threshold", "left", "right", "value", "is_leaf")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.is_leaf: list[bool] = []

    def add_leaf(self, value: float) -> int:
        self.feature.append(-1)
        self.threshold.append(math.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        self.is_leaf.append(True)
        return len(self.value) - 1

    def add_split(self, feature: int, threshold: float) -> int:
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self.is_leaf.append(False)
        return len(self.value) - 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route every row one level down per step; a leaf routes to itself."""
        ids = np.arange(len(self.value))
        leaf = np.array(self.is_leaf, dtype=bool)
        feature = np.where(leaf, 0, self.feature)
        threshold = np.array(self.threshold)
        left = np.where(leaf, ids, self.left)
        right = np.where(leaf, ids, self.right)
        depth = np.zeros(len(ids), dtype=np.intp)
        for nid in np.flatnonzero(~leaf):   # children follow their parent
            depth[left[nid]] = depth[right[nid]] = depth[nid] + 1
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(int(depth.max())):
            go_left = X[rows, feature[node]] <= threshold[node]
            node = np.where(go_left, left[node], right[node])
        return np.array(self.value)[node]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


class GbmModel:
    """Fitted ensemble plus everything needed to attribute importances."""

    def __init__(self, cfg: GbmConfig, feature_names: tuple[str, ...],
                 column_sources: list[str], base_score: float,
                 trees: list[_Tree], column_gain: np.ndarray, total_gain: float):
        self.cfg = cfg
        self.feature_names = feature_names
        self.column_sources = column_sources
        self.base_score = base_score
        self.trees = trees
        self.column_gain = column_gain
        self.total_gain = total_gain

    def decision_function(self, X_encoded: np.ndarray) -> np.ndarray:
        raw = np.full(X_encoded.shape[0], self.base_score)
        for tree in self.trees:
            raw += self.cfg.learning_rate * tree.predict(X_encoded)
        return raw


def encode_design(dataset: Dataset, preset: Preset, train_idx=None):
    """Build the numeric matrix the trees split on.

    Continuous columns pass through; binary columns become one indicator.
    Nominal columns become per-level indicators under preset A, or a
    single smoothed outcome-mean column under preset B (statistics from
    the training rows only). The ``(n_rows, n_cols)`` matrix is stored
    column by column, the layout the tree grower reads.
    """
    cols = []
    sources = []
    for name in dataset.feature_names:
        kind = dataset.kind(name)
        if kind is FeatureKind.CONTINUOUS:
            cols.append(dataset.column(name))
            sources.append(name)
        elif kind is FeatureKind.BINARY or preset is Preset.A:
            # a binary column gets the indicator of its larger label only
            levels = range(dataset.arity(name))
            for i in levels[-1:] if kind is FeatureKind.BINARY else levels:
                cols.append((dataset.codes(name) == i).astype(np.float64))
                sources.append(name)
        else:
            codes = dataset.codes(name)
            idx = train_idx if train_idx is not None else np.arange(dataset.n_rows)
            y = dataset.outcome[idx].astype(np.float64)
            prior = float(y.mean())
            # sums of 0/1 outcomes are exact in any summation order
            count = np.bincount(codes[idx], minlength=dataset.arity(name))
            hits = np.bincount(codes[idx], weights=y, minlength=len(count))
            stat = np.where(
                count > 0,
                (hits + _TARGET_STAT_PRIOR_WEIGHT * prior)
                / (count + _TARGET_STAT_PRIOR_WEIGHT),
                prior,
            )
            cols.append(stat[codes])
            sources.append(name)
    XT = np.stack(cols) if cols else np.empty((0, dataset.n_rows))
    return XT.T, sources


class _Bins(NamedTuple):
    """The binned training matrix the split search reads, built once per fit.

    Only columns with more than one training value are binned. They are
    grouped by bin count, the groups in ascending bin count and each
    group's columns in ascending column order; ``codes`` holds one row per
    binned column in that order.
    """

    codes: np.ndarray       # (n_binned, n_train) uint8 bin of every training value
    columns: np.ndarray     # the column index of each codes row
    # per group: its first codes row and its (columns, bins - 1) thresholds
    groups: list[tuple[int, np.ndarray]]


def _bin_columns(XT: np.ndarray) -> _Bins:
    """Bin every column of ``XT`` into at most ``_MAX_BINS`` bins.

    A column with at most ``_MAX_BINS`` distinct values gets one bin per
    value. Any other column of n values gets equal-frequency cuts: the
    k-th (k = 1 .. _MAX_BINS - 1) falls after the ``ceil(k * n /
    _MAX_BINS)``-th smallest value, so the bins up to it hold at least that
    many rows. A cut is a value, so equal values always share a bin;
    repeated cuts and a cut at the maximum are dropped.

    A cut's threshold is the midpoint between its value and the next
    distinct value above it, or the value itself where the midpoint rounds
    up to that next value, so ``x <= threshold`` holds for a training value
    exactly when its bin is at or below the cut.
    """
    n = XT.shape[1]
    ranks = (np.arange(1, _MAX_BINS) * n + _MAX_BINS - 1) // _MAX_BINS - 1
    binned = []     # (cuts, column, bin codes, thresholds)
    for col, x in enumerate(XT):
        order = np.argsort(x)
        s = x[order]
        values = s[np.append(s[1:] != s[:-1], True)]   # distinct, ascending
        if len(values) < 2:
            continue    # a constant column has no cut
        if len(values) <= _MAX_BINS:
            upper = values[:-1]
        else:
            upper = np.unique(s[ranks])
            upper = upper[upper < values[-1]]
        above = values[values.searchsorted(upper, "right")]
        mid = 0.5 * upper + 0.5 * above    # 0.5 * (upper + above), never inf
        # the sorted values fill the bins in turn
        ends = s.searchsorted(upper, "right")
        code = np.empty(n, dtype=np.uint8)
        code[order] = np.repeat(np.arange(len(upper) + 1, dtype=np.uint8),
                                np.diff(ends, prepend=0, append=n))
        binned.append((len(upper), col, code, np.where(mid < above, mid, upper)))
    binned.sort(key=lambda b: b[:2])
    codes = np.empty((len(binned), n), dtype=np.uint8)
    for i, b in enumerate(binned):
        codes[i] = b[2]
    groups, first = [], 0
    for _, group in itertools.groupby(binned, key=lambda b: b[0]):
        thresholds = np.stack([b[3] for b in group])
        groups.append((first, thresholds))
        first += len(thresholds)
    return _Bins(codes=codes,
                 columns=np.array([b[1] for b in binned], dtype=np.intp),
                 groups=groups)


def _grow_tree(g: np.ndarray, h: np.ndarray, rows: np.ndarray, bins: _Bins,
               cfg: GbmConfig, column_gain: np.ndarray) -> tuple[_Tree, float]:
    """One depth-limited regression tree on gradient/hessian targets.

    Splits maximize the second-order gain
    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg)) over the cuts of
    ``bins`` (see :func:`_bin_columns`) that leave rows on both sides and
    whose hessian sums HL and HR both reach ``min_child_weight``. The
    larger gain wins, an equal one at the lower column and then the lower
    cut, and a NaN gain never wins, so growth is deterministic. ``rows``
    are the ascending training rows this tree trains on.

    A searched node sums g, h and its row count per bin with
    ``np.bincount`` over its rows in ascending order, so each bin's sums
    add row after row; a call takes ``max(1, n_train // n_node)`` columns,
    so its temporaries stay within about one training column. Once a node
    splits, and its children are to be searched, the child with fewer rows
    (the left one on a tie) is summed and the other takes the node's sums
    minus its sibling's. That difference leaves rounding noise in bins the
    larger child does not hold, but row counts subtract exactly, so they
    decide which cuts leave a child empty. GL, HL and the left row counts
    are ``cumsum`` of the bin sums, one group of equal bin count at a time.
    ``tests/oracles.py`` keeps a row-level grower that this one matches bit
    for bit. Children of the last searched level are leaves and get no sums.
    """
    codes, columns, groups = bins
    n = codes.shape[1]
    lam = cfg.l2_reg
    mcw = cfg.min_child_weight
    # each codes row's bins, and then its cuts, lie in one flat run
    n_cuts = np.array([t.shape[1] for _, t in groups for _ in t], dtype=np.intp)
    start = np.concatenate(([0], np.cumsum(n_cuts + 1)))
    cut_start = np.concatenate(([0], np.cumsum(n_cuts)))
    cut_row = np.repeat(np.arange(len(codes)), n_cuts)
    cut_j = np.arange(cut_start[-1]) - cut_start[cut_row]
    threshold = np.concatenate([t.ravel() for _, t in groups] or [[]])
    key = columns[cut_row] * _MAX_BINS + cut_j   # tie order: column, then cut
    cum = np.empty((3, cut_start[-1]))     # GL, HL and rows left of every cut
    tree = _Tree()
    tree_gain = 0.0

    def histogram(rows: np.ndarray) -> np.ndarray:
        """(3, n_bins): the node's g, h and row count per bin of every column."""
        sums = np.empty((3, start[-1]))
        m = len(rows)
        step = max(1, min(n // m, len(codes)))
        # the node's g and h once per column of a call
        w = np.tile(np.stack((g.take(rows), h.take(rows))), step)
        for r0 in range(0, len(codes), step):
            r1 = min(r0 + step, len(codes))
            part = codes[r0:r1] if m == n else codes[r0:r1].take(rows, axis=1)
            idx = (part + (start[r0:r1] - start[r0])[:, None]).ravel()
            size = start[r1] - start[r0]
            for i in (0, 1):
                sums[i, start[r0]:start[r1]] = np.bincount(
                    idx, w[i, :len(idx)], minlength=size)
            sums[2, start[r0]:start[r1]] = np.bincount(idx, minlength=size)
        return sums

    def best_split(sums: np.ndarray, G: float, H: float, m: int):
        """The best cut's gain and flat index, or None if no cut gains."""
        for first, thresholds in groups:
            k, w = thresholds.shape
            b0, c0 = start[first], cut_start[first]
            block = sums[:, b0:b0 + k * (w + 1)].reshape(3, k, w + 1)
            cum[:, c0:c0 + k * w] = np.cumsum(block[:, :, :-1], axis=2).reshape(3, -1)
        GL, HL, NL = cum
        HR = H - HL
        # both children hold rows and reach the hessian floor
        valid = (NL > 0.0) & (NL < m) & (HL >= mcw) & (HR >= mcw)
        cut = np.flatnonzero(valid)
        if not len(cut):
            return None
        if len(cut) < len(valid):
            GL, HL, HR = GL[cut], HL[cut], HR[cut]
        GR = G - GL
        score = G * G / (H + lam)   # the node's own term
        gains = 0.5 * (GL ** 2 / (HL + lam) + GR ** 2 / (HR + lam) - score)
        b = int(gains.argmax())
        if math.isnan(gains[b]):    # a NaN gain never wins
            gains[np.isnan(gains)] = -np.inf
            b = int(gains.argmax())
        if not gains[b] > 0.0:
            return None
        tie = cut[gains == gains[b]]
        return float(gains[b]), int(tie[key[tie].argmin()])

    # rows, bin sums (None until searched), parent, side
    frontier = [(rows, None, None, None)]
    for depth in range(cfg.max_depth + 1):
        next_frontier = []
        for rows, sums, parent, side in frontier:
            G = float(g[rows].sum())
            H = float(h[rows].sum())
            best = None
            if depth < cfg.max_depth:
                if sums is None:
                    sums = histogram(rows)
                best = best_split(sums, G, H, len(rows))
            if best is None:
                nid = tree.add_leaf(-G / (H + lam))
            else:
                gain, p = best
                col = int(columns[cut_row[p]])
                nid = tree.add_split(col, float(threshold[p]))
                column_gain[col] += gain
                tree_gain += gain
                go_left = codes[cut_row[p]].take(rows) <= cut_j[p]
                left, right = rows[go_left], rows[~go_left]
                left_sums = right_sums = None
                if depth + 1 < cfg.max_depth:   # leaves read no sums
                    if len(left) <= len(right):
                        left_sums = histogram(left)
                        right_sums = sums - left_sums
                    else:
                        right_sums = histogram(right)
                        left_sums = sums - right_sums
                next_frontier.append((left, left_sums, nid, "L"))
                next_frontier.append((right, right_sums, nid, "R"))
            if parent is not None:
                if side == "L":
                    tree.left[parent] = nid
                else:
                    tree.right[parent] = nid
        frontier = next_frontier
    return tree, tree_gain


def gbm_train(dataset: Dataset, cfg: GbmConfig) -> tuple[GbmModel, FitMetrics]:
    """Train a boosted ensemble and score it on a held-out split.

    Deterministic for a fixed (dataset, cfg): the RNG drives only the
    holdout split and per-tree row subsampling, both derived from
    ``cfg.seed``.
    """
    y_all = dataset.outcome.astype(np.float64)
    if len(np.unique(dataset.outcome)) < 2:
        raise SingleClassOutcomeError("outcome has a single class")

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    perm = rng.permutation(dataset.n_rows)
    n_hold = max(1, int(round(cfg.holdout_fraction * dataset.n_rows)))
    hold_idx = np.sort(perm[:n_hold])
    train_idx = np.sort(perm[n_hold:])
    if len(np.unique(dataset.outcome[train_idx])) < 2:
        raise SingleClassOutcomeError("training split has a single class")

    X, sources = encode_design(dataset, cfg.preset, train_idx=train_idx)
    n_cols = X.shape[1]
    XT = X.T.take(train_idx, axis=1)   # (n_cols, n_train) in C order
    X_hold = X[hold_idx]
    del X   # the trees read only XT
    yt = y_all[train_idx]
    n_train = len(train_idx)

    p_base = min(1.0 - 1e-6, max(1e-6, float(yt.mean())))
    base = math.log(p_base / (1.0 - p_base))
    raw_train = np.full(n_train, base)

    column_gain = np.zeros(n_cols)
    total_gain = 0.0
    trees: list[_Tree] = []
    bins = _bin_columns(XT)
    for _ in range(cfg.n_trees):
        if cfg.subsample < 1.0:
            m = max(1, int(round(cfg.subsample * n_train)))
            rows = np.sort(rng.choice(n_train, size=m, replace=False))
        else:
            rows = np.arange(n_train)
        p = _sigmoid(raw_train)
        grad = p - yt
        hess = p * (1.0 - p)
        tree, tgain = _grow_tree(grad, hess, rows, bins, cfg, column_gain)
        total_gain += tgain
        trees.append(tree)
        raw_train += cfg.learning_rate * tree.predict(XT.T)

    model = GbmModel(cfg, dataset.feature_names, sources, base, trees,
                     column_gain, total_gain)

    p_hold = _sigmoid(model.decision_function(X_hold))
    y_hold = y_all[hold_idx]
    pred = (p_hold >= 0.5).astype(np.float64)
    tp = float(((pred == 1) & (y_hold == 1)).sum())
    fp = float(((pred == 1) & (y_hold == 0)).sum())
    fn = float(((pred == 0) & (y_hold == 1)).sum())
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0
    acc = float((pred == y_hold).mean())
    pc = np.clip(p_hold, 1e-15, 1.0 - 1e-15)
    ll = -float((y_hold * np.log(pc) + (1 - y_hold) * np.log(1 - pc)).mean())
    metrics = FitMetrics(f1=f1, accuracy=acc, log_loss=ll,
                         holdout_fraction=cfg.holdout_fraction,
                         n_holdout=n_hold, seed=cfg.seed)
    return model, metrics


def extract_importance(model: GbmModel) -> FeatureRanking:
    """Total split gain per source feature, unnormalized."""
    gain = {f: 0.0 for f in model.feature_names}
    for c, src in enumerate(model.column_sources):
        gain[src] += float(model.column_gain[c])
    source = (RankingSource.PRESET_A if model.cfg.preset is Preset.A
              else RankingSource.PRESET_B)
    return FeatureRanking(
        feature_names=model.feature_names,
        scores=tuple(gain[f] for f in model.feature_names),
        source=source,
        normalized=False,
    )


def minmax_normalize(ranking: FeatureRanking) -> FeatureRanking:
    """Rescale scores to [0, 1]; a constant ranking maps to all zeros."""
    lo = min(ranking.scores)
    hi = max(ranking.scores)
    if hi == lo:
        return replace(ranking,
                       scores=tuple(0.0 for _ in ranking.scores),
                       normalized=True, degenerate=True)
    return replace(ranking,
                   scores=tuple((s - lo) / (hi - lo) for s in ranking.scores),
                   normalized=True)


def committee_vote(rankings: list[FeatureRanking]) -> FeatureRanking:
    """Merge normalized rankings over one feature set by averaging."""
    if len(rankings) < 2:
        raise ValueError("committee vote needs at least two rankings")
    names = rankings[0].feature_names
    for r in rankings:
        if r.feature_names != names:
            raise MismatchedFeatureSetsError("rankings cover different features")
        if not r.normalized:
            raise ValueError("committee vote requires normalized rankings")
    # fsum keeps the mean exactly permutation-invariant
    merged = tuple(
        math.fsum(r.scores[i] for r in rankings) / len(rankings)
        for i in range(len(names))
    )
    return FeatureRanking(feature_names=names, scores=merged,
                          source=RankingSource.COMMITTEE, normalized=True)


def top_k(ranking: FeatureRanking, k: int) -> list[str]:
    """The k highest-scoring features, ties broken by name order."""
    m = len(ranking.feature_names)
    if not 1 <= k <= m:
        raise KTooLargeError(f"k={k} outside [1, {m}]")
    order = sorted(range(m),
                   key=lambda i: (-ranking.scores[i], ranking.feature_names[i]))
    return [ranking.feature_names[i] for i in order[:k]]
