"""Tree-ensemble importance rankings and the committee vote.

A self-contained gradient boosting engine (logistic loss, second-order
leaf weights, depth-limited level-wise trees) is trained under two
presets that differ in nominal-feature encoding and row subsampling, so
the pipeline gets two genuinely distinct rankings to merge. A fit's
settings are one ``GbmConfig(preset, n_trees, max_depth, learning_rate,
seed)``; the hessian floor ``_MIN_CHILD_WEIGHT`` and the L2 penalty
``_L2_REG`` are fixed at 1 for every fit. Importance is total split gain,
aggregated from encoded columns back to source features.

Splits are searched on histograms, as in LightGBM and XGBoost's ``hist``
method: the training matrix is binned once per fit, one feature at a time,
into rows of at most ``_MAX_BINS`` (256) bins, and a tree node sums its
gradients and hessians per bin, so its search scores every cut from those
sums instead of from sorted rows.

- Under preset A, a nominal feature of 3 to 256 levels is binned as one
  row of its level codes, not as its per-level indicator columns. Its
  one-vs-rest cuts are stored as splits of the level's indicator column at
  0.5, so the model and its importances keep the one-hot columns. A
  nominal of more levels keeps its indicator columns, since its codes do
  not fit a bin code.
- Any other column with at most 256 distinct training values (every
  indicator, binary, target statistic and rounded column) keeps one bin
  per value, so its cuts are the midpoints between neighbouring values,
  as an exact search has them.
- A column with more values gets up to 255 equal-frequency cuts by rank;
  equal values always share a bin.
- Every cut's threshold routes a value left, under ``x <= threshold``,
  exactly when its bin is at or below the cut (for a level's cut, when its
  level is another). The held-out rows are binned with the training cuts,
  so every row a tree does not grow on, left out of its subsample or held
  out of the fit, follows the tree by its bin codes, as the thresholds
  would route its values.

The larger gain wins, an equal one at the lower column and then the lower
cut, and a NaN gain never wins. Bin sums add a node's rows one after
another in ascending order. A column cut's left sums add its bins in
turn; a level cut's left sums are the node's totals minus the level's
sums. So trees, gains and held-out metrics are bit-identical to a
row-by-row grower that follows the same two rules, which
``tests/oracles.py`` keeps as the reference.
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
    NoFeaturesError,
    SingleClassOutcomeError,
)
from .tabular import Dataset, FeatureKind, _distinct

_TARGET_STAT_PRIOR_WEIGHT = 10.0
_MAX_BINS = 256     # bins per column, so a bin code fits in a uint8
_HOLDOUT_FRACTION = 0.2     # rows held out of training to score the fit
_MIN_CHILD_WEIGHT = 1.0     # hessian sum each child of a split must reach
_L2_REG = 1.0               # added to every hessian sum in gains and leaves


class Preset(enum.Enum):
    """A GBM preset; it fixes the nominal encoding and the row subsampling."""

    A = "A"     # one-hot nominals, every training row in each tree
    B = "B"     # smoothed target-statistic nominals, 80% of the rows per tree


_SUBSAMPLE = {Preset.A: 1.0, Preset.B: 0.8}   # drawn without replacement


@dataclass(frozen=True)
class GbmConfig:
    """One fit's settings, built only as ``GbmConfig(preset, ...)``.

    The preset fixes encoding and row subsampling; every fit uses the
    module's hessian floor ``_MIN_CHILD_WEIGHT`` and L2 penalty ``_L2_REG``.
    """

    preset: Preset
    n_trees: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 0:
            raise ValueError(f"n_trees must be >= 0, got {self.n_trees}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0,1], got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FeatureRanking:
    """Per-feature importance scores with provenance.

    ``preset`` is the GBM preset the scores come from, or None for the
    committee vote.
    """

    feature_names: tuple[str, ...]
    scores: tuple[float, ...]
    preset: Preset | None
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
            "source": ("committee" if self.preset is None
                       else f"preset_{self.preset.name.lower()}"),
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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


class GbmModel:
    """Fitted ensemble plus everything needed to attribute importances."""

    def __init__(self, cfg: GbmConfig, feature_names: tuple[str, ...],
                 column_sources: list[str], trees: list[_Tree],
                 column_gain: np.ndarray, total_gain: float):
        self.cfg = cfg
        self.feature_names = feature_names
        self.column_sources = column_sources
        self.trees = trees
        self.column_gain = column_gain
        self.total_gain = total_gain


class _Encoding:
    """One fit's design: ``encode_design``'s column rules for one preset.

    Preset B's target statistics are taken from the training rows once,
    here, and every call of :meth:`columns` reads them.
    """

    def __init__(self, dataset: Dataset, preset: Preset, train_idx=None):
        self.dataset = dataset
        self.preset = preset
        # columns per feature: a preset-A nominal gets one per level
        self.widths = [dataset.arity(f) if preset is Preset.A
                       and dataset.kind(f) is FeatureKind.NOMINAL else 1
                       for f in dataset.feature_names]
        self.sources = [f for f, w in zip(dataset.feature_names, self.widths)
                        for _ in range(w)]
        self.stats: dict[str, np.ndarray] = {}
        if preset is Preset.B:
            idx = train_idx if train_idx is not None else np.arange(dataset.n_rows)
            y = dataset.outcome[idx].astype(np.float64)
            prior = float(y.mean())
            for name in dataset.schema.features_of_kind(FeatureKind.NOMINAL):
                codes = dataset.codes(name)[idx]
                # sums of 0/1 outcomes are exact in any summation order
                count = np.bincount(codes, minlength=dataset.arity(name))
                hits = np.bincount(codes, weights=y, minlength=len(count))
                self.stats[name] = np.where(
                    count > 0,
                    (hits + _TARGET_STAT_PRIOR_WEIGHT * prior)
                    / (count + _TARGET_STAT_PRIOR_WEIGHT),
                    prior,
                )

    def columns(self, rows: np.ndarray):
        """The design of dataset rows ``rows``, in that order, as
        ``_bin_columns`` reads it, one feature at a time: preset A's nominal
        features of 3 to ``_MAX_BINS`` levels as their level codes, every
        other column as floats."""
        dataset = self.dataset
        first = 0
        for name, width in zip(dataset.feature_names, self.widths):
            kind = dataset.kind(name)
            if kind is FeatureKind.CONTINUOUS:
                yield first, dataset.column(name).take(rows), 0
            else:
                codes = dataset.codes(name).take(rows)
                if kind is FeatureKind.BINARY:
                    # the indicator of its larger label only
                    yield first, np.equal(codes, dataset.arity(name) - 1,
                                          out=np.empty(len(codes))), 0
                elif self.preset is Preset.B:
                    yield first, self.stats[name].take(codes), 0
                elif 3 <= width <= _MAX_BINS:
                    yield first, codes, width
                else:
                    for i in range(width):
                        yield first + i, np.equal(codes, i, out=np.empty(len(codes))), 0
            first += width


def encode_design(dataset: Dataset, preset: Preset, train_idx=None) -> _Encoding:
    """The encoding of a fit's design, built once per fit.

    Continuous columns pass through; binary columns become one indicator.
    Nominal columns become per-level indicators under preset A, or a
    single smoothed outcome-mean column under preset B (statistics from
    the training rows ``train_idx``, or every row when it is None).
    ``sources`` names each design column's feature, and ``columns(rows)``
    yields the design of any rows one feature at a time, so no float
    design is ever held whole.
    """
    return _Encoding(dataset, preset, train_idx)


class _Bins(NamedTuple):
    """The binned design the split search reads, built once per fit.

    ``codes`` holds one row per binned column or one-hot block, over the
    training rows and then the rows held out of the fit. A column row holds
    bins of the column's values, and only columns with more than one
    training value are binned. A block row holds a nominal feature's
    level codes in place of its per-level indicator columns, and has one
    cut per level. Rows are grouped by kind and cut count, the groups in
    ascending cut count, a column group before a block group of the same
    count, and each group's rows in ascending column order.
    """

    codes: np.ndarray       # (n_binned, n_rows) uint8 bin of every value
    columns: np.ndarray     # each codes row's column; a block's first column
    # per group: its first codes row, its (rows, cuts) thresholds, and
    # whether its rows are one-hot blocks
    groups: list[tuple[int, np.ndarray, bool]]
    # training rows per bin, every codes row's bins in turn: the row counts
    # of a node that holds every training row
    counts: np.ndarray


def _bin_columns(columns, n: int) -> _Bins:
    """Bin design columns whose first ``n`` values are the training rows'
    into at most ``_MAX_BINS`` bins each.

    ``columns`` yields ``(column, values, levels)``, one column at a time,
    so only the column being binned need be held as floats. With
    ``levels`` 0, ``values`` is the column's values. Otherwise it
    is the level codes of a nominal feature whose ``levels`` one-hot
    indicator columns start at ``column``, binned as one row: level j's
    rows get bin j. Its cut j puts level j right and every other level
    left, the split of the j-th indicator at 0.5.

    A column with at most ``_MAX_BINS`` distinct values gets one bin per
    value. A column with more gets equal-frequency cuts: the k-th (k = 1 ..
    _MAX_BINS - 1) falls after the ``ceil(k * n / _MAX_BINS)``-th smallest
    value, so the bins up to it hold at least that many rows. A cut is a
    value, so equal values always share a bin; repeated cuts and a cut at
    the maximum are dropped.

    Cuts, thresholds and bin counts come from the training values alone. A
    column cut's threshold is the midpoint between its value and the next
    distinct value above it, or the value itself where the midpoint rounds
    up to that next value, so ``x <= threshold`` holds for a training value
    exactly when its bin is at or below the cut. A later value x gets the
    bin of the first threshold at or above it, so, as the thresholds
    strictly increase, the same holds for every value.
    """
    ranks = (np.arange(1, _MAX_BINS) * n + _MAX_BINS - 1) // _MAX_BINS - 1
    size = n    # values per column
    binned = []     # (cuts, is block, column, bin codes, thresholds, counts)
    for col, x, levels in columns:
        size = len(x)
        if levels:
            code = x.astype(np.uint8, copy=False)
            binned.append((levels, True, col, code, np.full(levels, 0.5),
                           np.bincount(code[:n], minlength=levels)))
            continue
        x, later = x[:n], x[n:]
        order = np.argsort(x)
        s = x[order]
        values = _distinct(s)
        if len(values) < 2:
            continue    # a constant column has no cut
        if len(values) <= _MAX_BINS:
            upper = values[:-1]
        else:
            upper = _distinct(s[ranks])
            upper = upper[upper < values[-1]]
        above = values[values.searchsorted(upper, "right")]
        mid = 0.5 * upper + 0.5 * above    # 0.5 * (upper + above), never inf
        # the sorted values fill the bins in turn
        counts = np.diff(s.searchsorted(upper, "right"), prepend=0, append=n)
        thresholds = np.where(mid < above, mid, upper)
        code = np.empty(size, dtype=np.uint8)
        code[order] = np.repeat(np.arange(len(upper) + 1, dtype=np.uint8), counts)
        code[n:] = thresholds.searchsorted(later, "left")
        binned.append((len(upper), False, col, code, thresholds, counts))
    binned.sort(key=lambda b: b[:3])
    codes = np.empty((len(binned), size), dtype=np.uint8)
    for i, b in enumerate(binned):
        codes[i] = b[3]
    groups, first = [], 0
    for (_, is_block), group in itertools.groupby(binned, key=lambda b: b[:2]):
        thresholds = np.stack([b[4] for b in group])
        groups.append((first, thresholds, is_block))
        first += len(thresholds)
    return _Bins(codes=codes,
                 columns=np.array([b[2] for b in binned], dtype=np.intp),
                 groups=groups,
                 counts=np.concatenate([b[5] for b in binned] or [[]]
                                       ).astype(np.float64))


def _grow_tree(g: np.ndarray, h: np.ndarray, rows: np.ndarray, bins: _Bins,
               cfg: GbmConfig, column_gain: np.ndarray
               ) -> tuple[_Tree, float, np.ndarray]:
    """One depth-limited regression tree on gradient/hessian targets.

    Splits maximize the second-order gain
    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg)) over the cuts of
    ``bins`` (see :func:`_bin_columns`) that leave rows on both sides and
    whose hessian sums HL and HR both reach ``_MIN_CHILD_WEIGHT``, with
    reg = ``_L2_REG``; both are read at each call. The
    larger gain wins, an equal one at the lower column and then the lower
    cut, and a NaN gain never wins, so growth is deterministic. ``g`` and
    ``h`` cover the training rows, the first ``len(g)`` columns of
    ``bins.codes``, and ``rows`` are the ascending training rows this tree
    trains on.

    A searched node sums g, h and its row count per bin with
    ``np.bincount`` over its rows in ascending order, so each bin's sums
    add row after row; a call takes ``max(1, n_train // n_node)`` columns,
    so its temporaries stay within about one training column. Once a node
    splits, and its children are to be searched, the child with fewer rows
    (the left one on a tie) is summed and the other takes the node's sums
    minus its sibling's. That difference leaves rounding noise in bins the
    larger child does not hold, but row counts subtract exactly, so they
    decide which cuts leave a child empty. For a column cut, GL, HL and the
    left row count are ``cumsum`` of the bin sums, one group of equal bin
    count at a time; for a level cut they are the node's G, H and row
    count minus the level's sums.
    A node of every training row takes its row counts from ``bins.counts``.
    ``tests/oracles.py`` keeps a row-level grower that this one matches bit
    for bit. Children of the last searched level are leaves and get no sums.

    Every other row of ``bins.codes``, left out of this tree or held out of
    the fit, follows each split by its bin codes, which part it as the
    split's threshold does. Returns the tree, its total gain, and an array
    over every row of ``bins.codes`` that holds the row's leaf value.
    """
    codes, columns, groups, root_counts = bins
    n = len(g)
    lam, mcw = _L2_REG, _MIN_CHILD_WEIGHT
    # each codes row's bins, and then its cuts, lie in one flat run; a
    # column row has one bin more than cuts, a block row one per level
    n_cuts = np.array([t.shape[1] for _, t, _ in groups for _ in t], dtype=np.intp)
    is_block = np.array([b for _, t, b in groups for _ in t], dtype=bool)
    start = np.concatenate(([0], np.cumsum(n_cuts + ~is_block)))
    cut_start = np.concatenate(([0], np.cumsum(n_cuts)))
    cut_row = np.repeat(np.arange(len(codes)), n_cuts)
    cut_j = np.arange(cut_start[-1]) - cut_start[cut_row]
    block_cut = is_block[cut_row]
    threshold = np.concatenate([t.ravel() for _, t, _ in groups] or [[]])
    key = columns[cut_row] * _MAX_BINS + cut_j   # tie order: column, then cut
    # a block's cut j splits its j-th column, and no other row's column lies
    # among a block's, so ``key`` orders its cuts by column too
    cut_col = columns[cut_row] + np.where(block_cut, cut_j, 0)
    cum = np.empty((3, cut_start[-1]))     # GL, HL and rows left of every cut
    tree = _Tree()
    tree_gain = 0.0
    leaf_value = np.empty(codes.shape[1])

    def histogram(rows: np.ndarray) -> np.ndarray:
        """(3, n_bins): the node's g, h and row count per bin of every column."""
        sums = np.empty((3, start[-1]))
        m = len(rows)
        step = max(1, min(n // m, len(codes)))
        # the node's g and h once per column of a call
        w = np.tile(np.stack((g.take(rows), h.take(rows))), step)
        for r0 in range(0, len(codes), step):
            r1 = min(r0 + step, len(codes))
            part = codes[r0:r1, :n] if m == n else codes[r0:r1].take(rows, axis=1)
            idx = (part + (start[r0:r1] - start[r0])[:, None]).ravel()
            size = start[r1] - start[r0]
            for i in (0, 1):
                sums[i, start[r0]:start[r1]] = np.bincount(
                    idx, w[i, :len(idx)], minlength=size)
            if m < n:
                sums[2, start[r0]:start[r1]] = np.bincount(idx, minlength=size)
        if m == n:
            sums[2] = root_counts
        return sums

    def best_split(sums: np.ndarray, G: float, H: float, m: int):
        """The best cut's gain and flat index, or None if no cut gains."""
        node = np.array([G, H, m], dtype=np.float64).reshape(3, 1, 1)
        for first, thresholds, block_group in groups:
            k, w = thresholds.shape
            b0, c0 = start[first], cut_start[first]
            if block_group:     # the node's totals minus the level's go left
                level = sums[:, b0:b0 + k * w].reshape(3, k, w)
                cum[:, c0:c0 + k * w] = (node - level).reshape(3, -1)
            else:
                binned = sums[:, b0:b0 + k * (w + 1)].reshape(3, k, w + 1)
                cum[:, c0:c0 + k * w] = np.cumsum(binned[:, :, :-1], axis=2).reshape(3, -1)
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

    left_out = np.ones(codes.shape[1], dtype=bool)
    left_out[rows] = False

    def parted(rows: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
        """``rows`` that cut ``p`` sends left, then those it sends right."""
        code = codes[cut_row[p]].take(rows)
        go_left = code != cut_j[p] if block_cut[p] else code <= cut_j[p]
        return rows[go_left], rows[~go_left]

    # rows, left-out rows, bin sums (None until searched), parent, side
    frontier = [(rows, np.flatnonzero(left_out), None, None, None)]
    for depth in range(cfg.max_depth + 1):
        next_frontier = []
        for rows, others, sums, parent, side in frontier:
            G = float(g[rows].sum())
            H = float(h[rows].sum())
            best = None
            if depth < cfg.max_depth:
                if sums is None:
                    sums = histogram(rows)
                best = best_split(sums, G, H, len(rows))
            if best is None:
                nid = tree.add_leaf(-G / (H + lam))
                leaf_value[rows] = leaf_value[others] = tree.value[nid]
            else:
                gain, p = best
                col = int(cut_col[p])
                nid = tree.add_split(col, float(threshold[p]))
                column_gain[col] += gain
                tree_gain += gain
                left, right = parted(rows, p)
                others_left, others_right = (parted(others, p) if len(others)
                                             else (others, others))
                left_sums = right_sums = None
                if depth + 1 < cfg.max_depth:   # leaves read no sums
                    if len(left) <= len(right):
                        left_sums = histogram(left)
                        right_sums = sums - left_sums
                    else:
                        right_sums = histogram(right)
                        left_sums = sums - right_sums
                next_frontier.append((left, others_left, left_sums, nid, "L"))
                next_frontier.append((right, others_right, right_sums, nid, "R"))
            if parent is not None:
                if side == "L":
                    tree.left[parent] = nid
                else:
                    tree.right[parent] = nid
        frontier = next_frontier
    return tree, tree_gain, leaf_value


def _one_class(y: np.ndarray) -> bool:
    """Whether the 0/1 vector ``y`` lacks a 0 or a 1.

    A min and a max, where ``np.unique`` would import ``numpy.ma``.
    """
    return y.min(initial=1) == 1 or y.max(initial=0) == 0


def gbm_train(dataset: Dataset, cfg: GbmConfig) -> tuple[GbmModel, FitMetrics]:
    """Train a boosted ensemble and score it on a held-out split.

    Deterministic for a fixed (dataset, cfg): the RNG drives only the
    holdout split and per-tree row subsampling, both derived from
    ``cfg.seed``. The design of the training rows and then the held-out
    rows is binned one feature at a time, with cuts from the training rows,
    so the fit holds its binned codes beside one feature's float columns.
    Every row a tree does not grow on, left out of its subsample or held
    out of the fit, follows the tree by those codes; ``raw`` keeps every
    row's score, and the held-out rows' scores give the fit metrics.
    """
    if not dataset.feature_names:
        raise NoFeaturesError("a GBM needs at least one feature")
    y_all = dataset.outcome.astype(np.float64)
    if _one_class(dataset.outcome):
        raise SingleClassOutcomeError("outcome has a single class")

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    perm = rng.permutation(dataset.n_rows)
    n_hold = max(1, int(round(_HOLDOUT_FRACTION * dataset.n_rows)))
    hold_idx = np.sort(perm[:n_hold])
    train_idx = np.sort(perm[n_hold:])
    if _one_class(dataset.outcome.take(train_idx)):
        raise SingleClassOutcomeError("training split has a single class")

    n_train = len(train_idx)
    encoding = encode_design(dataset, cfg.preset, train_idx)
    bins = _bin_columns(encoding.columns(np.concatenate((train_idx, hold_idx))),
                        n_train)
    yt = y_all[train_idx]

    p_base = min(1.0 - 1e-6, max(1e-6, float(yt.mean())))
    base = math.log(p_base / (1.0 - p_base))
    raw = np.full(n_train + n_hold, base)   # training rows, then held-out rows

    column_gain = np.zeros(len(encoding.sources))
    total_gain = 0.0
    trees: list[_Tree] = []
    subsample = _SUBSAMPLE[cfg.preset]
    for _ in range(cfg.n_trees):
        if subsample < 1.0:
            m = max(1, int(round(subsample * n_train)))
            rows = np.sort(rng.choice(n_train, size=m, replace=False))
        else:
            rows = np.arange(n_train)
        p = _sigmoid(raw[:n_train])
        grad = p - yt
        hess = p * (1.0 - p)
        tree, tgain, step = _grow_tree(grad, hess, rows, bins, cfg, column_gain)
        total_gain += tgain
        trees.append(tree)
        raw += cfg.learning_rate * step

    model = GbmModel(cfg, dataset.feature_names, encoding.sources, trees,
                     column_gain, total_gain)

    p_hold = _sigmoid(raw[n_train:])
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
                         holdout_fraction=_HOLDOUT_FRACTION,
                         n_holdout=n_hold, seed=cfg.seed)
    return model, metrics


def extract_importance(model: GbmModel) -> FeatureRanking:
    """Total split gain per source feature, unnormalized."""
    gain = {f: 0.0 for f in model.feature_names}
    for c, src in enumerate(model.column_sources):
        gain[src] += float(model.column_gain[c])
    return FeatureRanking(
        feature_names=model.feature_names,
        scores=tuple(gain[f] for f in model.feature_names),
        preset=model.cfg.preset,
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
                          preset=None, normalized=True)


def top_k(ranking: FeatureRanking, k: int) -> list[str]:
    """The k highest-scoring features, ties broken by name order."""
    m = len(ranking.feature_names)
    if not 1 <= k <= m:
        raise KTooLargeError(f"k={k} outside [1, {m}]")
    order = sorted(range(m),
                   key=lambda i: (-ranking.scores[i], ranking.feature_names[i]))
    return [ranking.feature_names[i] for i in order[:k]]
