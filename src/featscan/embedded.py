"""Tree-ensemble importance rankings and the committee vote.

A self-contained gradient boosting engine (logistic loss, second-order
leaf weights, depth-limited level-wise trees) is trained under two
presets that differ in nominal-feature encoding and row subsampling, so
the pipeline gets two genuinely distinct rankings to merge. Importance is
total split gain, aggregated from encoded columns back to source
features.

Splits are exact, as in XGBoost's exact greedy search on pre-sorted
column blocks: the training matrix is sorted once per column, each tree
node keeps its rows in that order for every column, and a split divides
the node's block into its children, so a tree level reads each row once
per column instead of filtering the whole sort order at every node.
Each column is one of three kinds, and each kind has one exact search:

- *tie-free* columns (every continuous feature without a repeated value)
  cut at every position of a node's block, so the search needs neither
  the node's values nor a scan for where they change;
- *tied* columns (target statistics, rounded data) cut only where the
  sorted values change, found by comparing neighbours;
- *two-valued* columns (every one-hot indicator, every binary feature)
  have a single candidate cut and skip the sorted blocks: a node gets
  their left sums for all of them at once from a 0/1 mask, added row by
  row in the order a sorted block would add them.

Each kind adds its sums in the sorted order and scores the gain with the
same operations, so trees, gains and held-out metrics are bit-identical
to a per-node filter of the sort order, which ``tests/oracles.py`` keeps
as the reference. Quantile histograms would cut the work further, but
they move the thresholds.
"""

from __future__ import annotations

import enum
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
# A chunk of the two-valued split sums holds n_train // n_two rows (see
# _grow_tree). Tests set this cap to force many small chunks; a fixed cap
# of 4,096 rows ran 10-15% slower where it bound (one or two such columns
# over 20k-100k rows), so by default there is none.
_SUM_ROWS: int | None = None


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


class _Presort(NamedTuple):
    """What the split search reads of a training matrix, built once per fit.

    Every column is one of three kinds over the training rows, and each
    kind has its own exact search in :func:`_grow_tree`:

    - *two-valued*: exactly two distinct values. Its stable sorted order in
      any node is the node's low-value rows in row order, then its high-value
      rows, so it needs no sorted block.
    - *tie-free*: more than two values, all distinct. Any node's rows are
      distinct too, so every position of its sorted block is a cut.
    - *tied*: more than two values, some repeated. A cut is a position
      where the sorted values change.

    The sorted columns are the tie-free ones, then the tied ones, each group
    in ascending column order.
    """

    order: np.ndarray   # (n_sorted, n_train) int32 stable argsort per sorted column
    sorted_cols: np.ndarray     # their column indices: tie-free, then tied
    n_free: int                 # how many of them are tie-free
    two_cols: np.ndarray        # two-valued column indices, ascending
    low: np.ndarray     # (n_train, n_two) bool C order, True where a row is low
    mid: np.ndarray     # (n_two,) midpoint of each column's two values


def _presort(XT: np.ndarray) -> _Presort:
    """Sort the columns of ``XT`` into its three kinds and argsort two of them."""
    lo = XT.min(axis=1)
    hi = XT.max(axis=1)
    is_low = XT == lo[:, None]
    two = (lo < hi) & (is_low | (XT == hi[:, None])).all(axis=1)
    sorted_cols = np.flatnonzero(~two)
    argsort = np.argsort(XT[sorted_cols], axis=1, kind="stable")
    # one column at a time, so no second (n_sorted, n_train) array is made
    free = np.array([bool((np.diff(XT[c].take(o)) > 0.0).all())
                     for c, o in zip(sorted_cols, argsort)], dtype=bool)
    group = np.concatenate([np.flatnonzero(free), np.flatnonzero(~free)])
    order = np.empty(argsort.shape, dtype=np.int32)
    for i, j in enumerate(group):
        order[i] = argsort[j]
    return _Presort(
        order=order,
        sorted_cols=sorted_cols[group],
        n_free=int(free.sum()),
        two_cols=np.flatnonzero(two),
        low=np.ascontiguousarray(is_low[two].T),
        mid=0.5 * (lo[two] + hi[two]),
    )


def _grow_tree(XT: np.ndarray, g: np.ndarray, h: np.ndarray, rows: np.ndarray,
               presort: _Presort, cfg: GbmConfig,
               column_gain: np.ndarray) -> tuple[_Tree, float]:
    """One depth-limited regression tree on gradient/hessian targets.

    Splits maximize the second-order gain
    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg)); candidates are
    midpoints between distinct sorted values. Column order then ascending
    threshold order break gain ties, so growth is deterministic.

    ``XT`` is the training matrix stored column by column, ``(n_cols,
    n_train)``, and ``presort`` its per-fit split index from
    :func:`_presort`. ``rows`` are the ascending row indices this tree
    trains on, and ``h`` must be >= 0, as the logistic hessian p(1 - p) is.
    The search is exact and bit-identical to a per-node filter of the
    global stable argsort (``tests/oracles.py``), one search per column
    kind:

    - Every column with more than two values keeps, per node, a block of
      row indices in its sorted order, which one mask of the rows going
      left splits into the children, so a level touches each row once per
      column. A node scores ``max(1, n_train // n_node)`` such columns of
      one kind per set of numpy calls. The block is exactly the filtered
      global order and the cumulative sums run in that order.
    - *Tied* columns cut where the block's values change: a node reads its
      values, finds the edges and keeps the cuts whose hessian sums both
      reach ``min_child_weight``.
    - *Tie-free* columns cut at every block position but the last, so a
      node scores the ``cumsum`` rows in place and reads two values, for
      the winning cut only. As h >= 0, HL never falls along a block row
      and HR = H - HL never rises, so the valid cuts are one run, found by
      binary search; the cuts outside it get infinite hessian sums before
      any division, which makes their gain -G^2/(H+reg)/2 <= 0 and raises
      no floating-point warning. A NaN gain is what ``argmax`` returns
      first, so only then are the columns holding one set aside.
    - A two-valued column has one candidate, the midpoint, whose left sums
      are the sequential sums of g and h over the node's low rows in row
      order, exactly what ``cumsum`` yields in the sorted order. A node
      multiplies the ``(rows, columns)`` low mask by ``g[rows][:, None]``
      and by ``h[rows][:, None]`` and takes one ``cumsum`` down the rows,
      which adds row after row for any number of columns; the high rows
      add only zeros, and a signed zero cannot change ``GL ** 2``,
      ``G - GL`` or the hessian floor. Rows go in chunks of at most
      ``n_train // n_two``, so a chunk's g and h products each stay within
      about one training column, and each chunk's sums enter the next as
      its first row.

    Every search scores its columns in ascending order with the gain
    formula's own operations, so its first maximum is the per-node
    filter's among those columns. Each search's first maximum beats the
    others' on a larger gain, or on an equal gain at a lower column index,
    and a NaN gain never wins, so trees, gains and leaf values match the
    per-node filter. Children of the last searched level are leaves and
    get no blocks.
    """
    n = XT.shape[1]
    order, sorted_cols, n_free, two_cols, low, mid = presort
    n_sorted, n_two = len(sorted_cols), len(two_cols)
    base = (sorted_cols * n)[:, None]   # flat offset of each sorted column
    lam = cfg.l2_reg
    mcw = cfg.min_child_weight
    tree = _Tree()
    tree_gain = 0.0
    goes_left = np.zeros(n, dtype=bool)
    sum_rows = max(1, min(_SUM_ROWS or n, n // max(n_two, 1)))
    buffer = np.empty((2, sum_rows + 1, n_two))

    def best_tie_free(block: np.ndarray, G: float, H: float, score: float):
        best = (0.0, -1, 0.0)   # gain, column, threshold
        m = block.shape[1]
        if m < 2:
            return best
        step = max(1, n // m)
        for c0 in range(0, n_free, step):
            idx = block[c0:min(c0 + step, n_free)]
            # cut i parts a block row after position i, i < m - 1
            HL = np.cumsum(h.take(idx), axis=1)
            NHR = np.subtract(HL, H)    # -HR, non-decreasing as HL is
            # h >= 0, so HL only rises along a row and HR only falls: the
            # valid cuts are the run [lo, hi). Outside it HL = inf and
            # HR = -inf give the gain -score / 2, which never wins.
            for hl, nhr in zip(HL, NHR):
                lo = hl.searchsorted(mcw)
                hi = nhr.searchsorted(-mcw, "right")
                hl[:lo] = nhr[:lo] = np.inf
                hl[hi:] = nhr[hi:] = np.inf
            HL[:, -1] = NHR[:, -1] = np.inf
            GL = np.cumsum(g.take(idx), axis=1)
            # 0.5 * (GL**2/(HL+lam) + GR**2/(HR+lam) - score), in place
            GR = np.subtract(G, GL)
            np.multiply(GR, GR, out=GR)
            np.multiply(GL, GL, out=GL)
            np.divide(GL, np.add(HL, lam, out=HL), out=GL)
            np.divide(GR, np.subtract(lam, NHR, out=NHR), out=GR)
            gains = np.add(GL, GR, out=GL)
            np.subtract(gains, score, out=gains)
            np.multiply(gains, 0.5, out=gains)
            b = int(gains.argmax())
            if math.isnan(gains.flat[b]):   # a NaN gain never wins
                gains[np.isnan(gains).any(axis=1)] = -np.inf
                b = int(gains.argmax())
            if gains.flat[b] > best[0]:
                c, i = divmod(b, m)
                col = int(sorted_cols[c0 + c])
                thr = 0.5 * (XT[col, idx[c, i]] + XT[col, idx[c, i + 1]])
                best = (float(gains.flat[b]), col, float(thr))
        return best

    def best_tied(block: np.ndarray, G: float, H: float, score: float):
        best = (0.0, -1, 0.0)   # gain, column, threshold
        m = block.shape[1]
        if m < 2:
            return best
        step = max(1, n // m)
        for c0 in range(n_free, n_sorted, step):
            idx = block[c0:c0 + step]
            # each column's node values in sorted order, read from flat XT
            xv = XT.take(idx + base[c0:c0 + step])
            # flat positions after which the value changes: the candidates
            edge = np.zeros(xv.shape, dtype=bool)
            np.not_equal(xv[:, :-1], xv[:, 1:], out=edge[:, :-1])
            cut = np.flatnonzero(edge)
            if not len(cut):
                continue
            HL = np.cumsum(h.take(idx), axis=1).take(cut)
            HR = H - HL
            valid = (HL >= mcw) & (HR >= mcw)
            if not valid.all():
                cut, HL, HR = cut[valid], HL[valid], HR[valid]
                if not len(cut):
                    continue
            GL = np.cumsum(g.take(idx), axis=1).take(cut)
            GR = G - GL
            gains = 0.5 * (GL ** 2 / (HL + lam) + GR ** 2 / (HR + lam) - score)
            nan = np.isnan(gains)
            if nan.any():    # a column with a NaN gain never wins
                gains[np.isin(cut // m, cut[nan] // m)] = -np.inf
            b = int(gains.argmax())
            if gains[b] > best[0]:
                c, i = divmod(int(cut[b]), m)
                thr = 0.5 * (xv[c, i] + xv[c, i + 1])
                best = (float(gains[b]), int(sorted_cols[c0 + c]), float(thr))
        return best

    def best_two_valued(rows: np.ndarray, G: float, H: float, score: float):
        best = (0.0, -1, 0.0)
        m = len(rows)
        if m < 2 or not n_two:
            return best
        # each chunk's sums so far enter the next chunk as its first row
        GL = np.zeros(n_two)
        HL = np.zeros(n_two)
        n_low = np.zeros(n_two)
        for r0 in range(0, m, sum_rows):
            part = rows[r0:r0 + sum_rows]
            mask = low.take(part, axis=0)
            n_low += mask.sum(axis=0)
            w = buffer[:, :len(part) + 1]
            w[0, 0] = GL
            w[1, 0] = HL
            np.multiply(mask, g.take(part)[:, None], out=w[0, 1:])
            np.multiply(mask, h.take(part)[:, None], out=w[1, 1:])
            np.cumsum(w, axis=1, out=w)
            GL, HL = w[:, -1].copy()
        HR = H - HL
        valid = (n_low > 0) & (n_low < m) & (HL >= mcw) & (HR >= mcw)
        if not valid.any():
            return best
        cols = np.flatnonzero(valid)
        GL, HL, HR = GL[cols], HL[cols], HR[cols]
        GR = G - GL
        gains = 0.5 * (GL ** 2 / (HL + lam) + GR ** 2 / (HR + lam) - score)
        gains[np.isnan(gains)] = -np.inf    # a NaN gain never wins
        b = int(gains.argmax())
        if gains[b] > 0.0:
            c = cols[b]
            best = (float(gains[b]), int(two_cols[c]), float(mid[c]))
        return best

    def split(block: np.ndarray, n_left: int):
        """The block's rows flagged in ``goes_left``, then the others."""
        m = block.shape[1]
        left = np.empty((n_sorted, n_left), dtype=block.dtype)
        right = np.empty((n_sorted, m - n_left), dtype=block.dtype)
        step = max(1, n // m)
        for c0 in range(0, n_sorted, step):
            part = block[c0:c0 + step].ravel()
            to_left = goes_left.take(part)
            np.compress(to_left, part, out=left[c0:c0 + step].ravel())
            np.compress(~to_left, part, out=right[c0:c0 + step].ravel())
        return left, right

    if len(rows) < n:
        goes_left[rows] = True
        block = split(order, len(rows))[0]
        goes_left[rows] = False
    else:
        block = order
    # rows, sorted block, parent, side; popped from the end, so reversed
    frontier = [(rows, block, None, None)]
    del block
    for depth in range(cfg.max_depth + 1):
        next_frontier = []
        while frontier:
            rows, block, parent, side = frontier.pop()
            G = float(g[rows].sum())
            H = float(h[rows].sum())
            gain, col, thr = (0.0, -1, 0.0)
            if depth < cfg.max_depth:
                score = G * G / (H + lam)   # the node's own term
                # the larger gain wins, an equal one at the lower column
                gain, col, thr = min(best_tie_free(block, G, H, score),
                                     best_tied(block, G, H, score),
                                     best_two_valued(rows, G, H, score),
                                     key=lambda b: (-b[0], b[1]))
            if col < 0 or gain <= 0.0:
                nid = tree.add_leaf(-G / (H + lam))
            else:
                nid = tree.add_split(col, thr)
                column_gain[col] += gain
                tree_gain += gain
                go_left = XT[col, rows] <= thr
                left_rows = rows[go_left]
                left = right = None
                if depth + 1 < cfg.max_depth:   # leaves read no block
                    goes_left[left_rows] = True
                    left, right = split(block, len(left_rows))
                    goes_left[left_rows] = False
                next_frontier.append((left_rows, left, nid, "L"))
                next_frontier.append((rows[~go_left], right, nid, "R"))
            del block   # a level's blocks go as soon as their children exist
            if parent is not None:
                if side == "L":
                    tree.left[parent] = nid
                else:
                    tree.right[parent] = nid
        frontier = next_frontier[::-1]
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
    presort = _presort(XT)
    for _ in range(cfg.n_trees):
        if cfg.subsample < 1.0:
            m = max(1, int(round(cfg.subsample * n_train)))
            rows = np.sort(rng.choice(n_train, size=m, replace=False))
        else:
            rows = np.arange(n_train)
        p = _sigmoid(raw_train)
        grad = p - yt
        hess = p * (1.0 - p)
        tree, tgain = _grow_tree(XT, grad, hess, rows, presort, cfg, column_gain)
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
