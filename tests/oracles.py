"""Independent brute-force oracles used by unit and acceptance tests.

These deliberately avoid the library's search code paths: subset maxima
come from exhaustive enumeration, the coordinate ascent from row masks
and per-prefix scores, per-value counts from a row filter,
the score maximizer from a refined grid, the CSV reference reader from
a cell-by-cell loop, the tree grower from value-by-value binning and
row-by-row bin sums over a per-node filter of the global row order, the
design-matrix encoders from per-level string comparisons, OLS
p-values and VIFs from the normal equations solved in 40-digit
arithmetic and the SplitMix64 stream from a scalar loop of Python ints,
so they can certify the fast implementations.
"""

import bisect
import collections
import csv
import dataclasses
import itertools

import mpmath
import numpy as np

from featscan import embedded
from featscan.embedded import _TARGET_STAT_PRIOR_WEIGHT, GbmConfig, Preset, _Tree
from featscan.errors import (
    DegenerateColumnError,
    MissingValueError,
    NonBinaryOutcomeError,
    ParseError,
    SchemaMismatchError,
)
from featscan.mdss import ScoredSubset, SubsetDescriptor, score_bernoulli
from featscan.rng import Stream, derive_seed
from featscan.tabular import Dataset, FeatureKind, MissingPolicy

_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


def grid_max_score(sum_y: float, n_s: float, alpha: float,
                   n_grid: int = 4001, rounds: int = 3) -> float:
    """Numeric maximization of log(q) sum_y - n_s log(1-a+qa) over q >= 1."""
    if n_s == 0:
        return 0.0
    lo, hi = 0.0, 40.0   # in log q
    best_x = 0.0
    for _ in range(rounds):
        xs = np.linspace(lo, hi, n_grid)
        scores = sum_y * xs - n_s * np.log(1.0 - alpha + np.exp(xs) * alpha)
        i = int(np.argmax(scores))
        best_x = xs[i]
        width = (hi - lo) / (n_grid - 1)
        lo = max(0.0, best_x - 2 * width)
        hi = best_x + 2 * width
    return max(0.0, float(sum_y * best_x
                          - n_s * np.log(1.0 - alpha + np.exp(best_x) * alpha)))


def brute_force_value_subset(counts, sums, alpha):
    """Max score over all non-empty subsets of a feature's values.

    ``counts``/``sums`` are per-value member counts and outcome sums.
    Returns (best score, best subset of value indices).
    """
    j = len(counts)
    best = (-1.0, ())
    for r in range(1, j + 1):
        for combo in itertools.combinations(range(j), r):
            n = sum(counts[i] for i in combo)
            s = sum(sums[i] for i in combo)
            sc, _ = score_bernoulli(s, n, alpha)
            if sc > best[0]:
                best = (sc, combo)
    return best


def brute_force_scan(data, features):
    """Exhaustive search over all conjunctions of non-empty value subsets.

    Returns (best score, best SubsetDescriptor). Only usable for a few
    features with small domains.
    """
    alpha = data.outcome_mean()
    y = data.outcome.astype(np.float64)
    choices = []
    for f in features:
        levels = data.levels(f)
        codes = data.codes(f)
        value_masks = [codes == i for i in range(len(levels))]
        feature_choices = []
        for r in range(1, len(levels) + 1):
            for combo in itertools.combinations(range(len(levels)), r):
                mask = np.zeros(data.n_rows, dtype=bool)
                for i in combo:
                    mask |= value_masks[i]
                feature_choices.append((combo, mask))
        choices.append((f, levels, feature_choices))

    best_score = -1.0
    best_desc = None
    for assignment in itertools.product(*[c[2] for c in choices]):
        mask = np.ones(data.n_rows, dtype=bool)
        for _, m in assignment:
            mask &= m
        n_s = int(mask.sum())
        s_y = float(y[mask].sum())
        sc, _ = score_bernoulli(s_y, n_s, alpha)
        if sc > best_score:
            restrictions = {}
            for (f, levels, _), (combo, _m) in zip(choices, assignment):
                if len(combo) < len(levels):
                    restrictions[f] = frozenset(levels[i] for i in combo)
            best_score = sc
            best_desc = SubsetDescriptor(restrictions)
    return best_score, best_desc


def reference_scan(data, features, cfg, paths=None):
    """Row-level coordinate ascent that ``mdss.scan`` must match bit for bit.

    The same search as ``scan``, written plainly: one ``coins`` call per
    feature for a random start, a row mask of the other features for each
    step, and one ``score_bernoulli`` call per value prefix. Restarts,
    coordinate orders, tie-breaks and the stopping rule are ``scan``'s.
    ``paths``, a ``collections.Counter`` if given, counts the start
    redraws ("redraw") and the steps whose other features match no row
    ("relax"), so a test can show that it reached both.
    """
    features = sorted(features)
    alpha = data.outcome_mean()
    y = data.outcome.astype(np.float64)
    codes = [data.codes(f) for f in features]
    levels = [data.levels(f) for f in features]
    full = [tuple(range(len(lv))) for lv in levels]
    paths = collections.Counter() if paths is None else paths

    def rows_of(selected, skip=None):
        mask = np.ones(data.n_rows, dtype=bool)
        for j, values in enumerate(selected):
            if j != skip:
                allowed = np.zeros(len(full[j]), dtype=bool)
                allowed[list(values)] = True
                mask &= allowed[codes[j]]
        return mask

    def best_prefix(n_v, s_v):
        pos = [i for i, n in enumerate(n_v) if n > 0]
        order = sorted(pos, key=lambda i: (-(s_v[i] / (n_v[i] * alpha)), i))
        cum_n = cum_s = 0.0
        best_score, best_k = -1.0, 0
        for k, i in enumerate(order):
            cum_n += n_v[i]
            cum_s += s_v[i]
            sc = score_bernoulli(cum_s, cum_n, alpha)[0]
            if sc >= best_score:   # ties go to the larger prefix
                best_score, best_k = sc, k
        return tuple(sorted(order[: best_k + 1])), best_score

    best = None
    for restart in range(cfg.n_restarts):
        starts, orders = (Stream(cfg.seed, 0, restart, 0),
                          Stream(cfg.seed, 0, restart, 1))
        selected = list(full)
        if restart > 0:
            for j in range(len(features)):
                coins = starts.coins(len(full[j]))
                while not coins.any():
                    paths["redraw"] += 1
                    coins = starts.coins(len(full[j]))
                selected[j] = tuple(np.flatnonzero(coins).tolist())
        mask = rows_of(selected)
        score = score_bernoulli(int(data.outcome[mask].sum()), int(mask.sum()),
                                alpha)[0]
        while True:
            cycle_start = score
            for j in orders.permutation(len(features)).tolist():
                others = rows_of(selected, skip=j)
                if not others.any():
                    paths["relax"] += 1
                    selected[j], score = full[j], 0.0
                    continue
                n_v = np.bincount(codes[j][others], minlength=len(full[j]))
                s_v = np.bincount(codes[j][others], weights=y[others],
                                  minlength=len(full[j]))
                selected[j], score = best_prefix(n_v.astype(np.float64).tolist(),
                                                 s_v.tolist())
            if score <= cycle_start + 1e-12:
                break
        mask = rows_of(selected)
        sum_y, n_s = int(data.outcome[mask].sum()), int(mask.sum())
        final_score, q = score_bernoulli(sum_y, n_s, alpha)
        subset = SubsetDescriptor({
            f: frozenset(levels[j][i] for i in selected[j])
            for j, f in enumerate(features) if selected[j] != full[j]})
        key = (-final_score, subset.n_restricted, subset.encode())
        if best is None or key < best[0]:
            best = (key, ScoredSubset(subset, final_score, q, n_s, sum_y, alpha))
    return best[1]


def reference_replicate_scores(data, features, cfg, r):
    """Every bootstrap replicate's score, rescanned with ``reference_scan``.

    Redraws the outcomes and derives each replicate's seed as
    ``inference.empirical_p_value`` does; a constant draw scores 0.
    """
    alpha = data.outcome_mean()
    scores = []
    for i in range(r):
        y_rep = (Stream(cfg.seed, 1, i).uniforms(data.n_rows) < alpha).astype(np.int8)
        if y_rep.min() == y_rep.max():
            scores.append(0.0)
            continue
        seed = derive_seed(cfg.seed, 2, i)
        scores.append(reference_scan(data.with_outcome(y_rep), features,
                                     dataclasses.replace(cfg, seed=seed)).score)
    return scores


def reference_splitmix64(key, start, n):
    """Draws ``start`` to ``start + n - 1`` of SplitMix64 started at state ``key``.

    Vigna's ``splitmix64.c`` one draw at a time: the state advances by the
    golden-ratio increment, then its copy is mixed; every product is
    masked to 64 bits. ``rng.outputs`` must match it bit for bit.
    """
    mask = (1 << 64) - 1
    state = (key + start * 0x9E3779B97F4A7C15) & mask
    draws = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        draws.append(z ^ (z >> 31))
    return draws


def aggregate_by_value(data, feature, conditioning):
    """Member counts and outcome sums per value of one feature.

    Rows, not patterns: rows are first filtered to those matching
    ``conditioning``, which must not restrict ``feature`` itself. Returns
    (counts, sums), two int lists indexed by value code, the order of
    ``data.levels(feature)``, zero-count values included: the arguments
    ``best_value_subset`` takes.
    """
    if feature in conditioning.restrictions:
        raise ValueError(f"{feature!r} is restricted in the conditioning")
    codes = data.codes(feature)
    levels = data.levels(feature)
    mask = conditioning.matches(data)
    n_v = np.bincount(codes[mask], minlength=len(levels))
    s_v = np.bincount(codes[mask], weights=data.outcome[mask].astype(np.float64),
                      minlength=len(levels))
    return [int(n) for n in n_v], [int(round(s)) for s in s_v]


def reference_load_csv(path, schema):
    """Cell-by-cell CSV reader that ``tabular.load_csv`` must agree with.

    Walks the rows once to check widths and missing cells, then every
    kept cell to strip, check and parse it. Only its width and
    missing-value messages name a line, so compare arrays, dtypes,
    exception classes and those two messages with it.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatchError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        expected = set(schema.feature_names) | {schema.outcome_name}
        if set(header) != expected or len(header) != len(expected):
            raise SchemaMismatchError(f"{path}: header mismatch")
        col_idx = {name: header.index(name) for name in header}

        raw_rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            if any(row[col_idx[f]].strip().lower() in _MISSING_TOKENS
                   for f in expected):
                if schema.missing_policy is MissingPolicy.DROP_ROW:
                    continue
                raise MissingValueError(f"{path}:{lineno}: missing value")
            raw_rows.append(row)

    columns = {f: [] for f in schema.feature_names}
    outcome = []
    for row in raw_rows:
        cell = row[col_idx[schema.outcome_name]].strip()
        if cell not in ("0", "1"):
            raise NonBinaryOutcomeError(f"{path}: outcome value {cell!r}")
        outcome.append(int(cell))
        for f in schema.feature_names:
            cell = row[col_idx[f]].strip()
            if schema.kind(f) is FeatureKind.CONTINUOUS:
                try:
                    columns[f].append(float(cell))
                except ValueError:
                    raise ParseError(f"{path}: cannot parse {cell!r}") from None
            else:
                columns[f].append(cell)

    arrays = {
        f: np.asarray(vals, dtype=np.float64)
        if schema.kind(f) is FeatureKind.CONTINUOUS
        else np.asarray(vals, dtype=str)
        for f, vals in columns.items()
    }
    for f in schema.features_of_kind(FeatureKind.CONTINUOUS):
        if not np.isfinite(arrays[f]).all():
            raise ParseError(f"{path}: non-finite continuous value for {f!r}")
    if not outcome:
        raise DegenerateColumnError(f"{path}: no data rows")
    return Dataset(schema, arrays, np.asarray(outcome, dtype=np.int8))


def reference_write_csv(dataset, path):
    """Row-by-row CSV writer whose bytes ``tabular.write_csv`` must match."""
    names = list(dataset.feature_names) + [dataset.schema.outcome_name]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        cols = [dataset.column(f) for f in dataset.feature_names]
        for i in range(dataset.n_rows):
            row = [
                repr(float(c[i])) if c.dtype == np.float64 else str(c[i])
                for c in cols
            ]
            row.append(str(int(dataset.outcome[i])))
            writer.writerow(row)


def reference_bin_column(x: np.ndarray, max_bins: int = 256):
    """Bin codes and cut thresholds of one training column, value by value.

    The binning ``embedded._bin_columns`` must agree with: one bin per
    distinct value when there are at most ``max_bins``, else the k-th cut
    after the ``ceil(k * n / max_bins)``-th smallest value, repeats and a
    cut at the maximum dropped. A cut's threshold is the midpoint of its
    value and the next larger value, or its own value where the midpoint
    is not below that next value. Returns the bin of each row and the
    threshold of each cut, in ascending order.
    """
    values = sorted(set(x.tolist()))
    if len(values) <= max_bins:
        upper = values[:-1]
    else:
        s = sorted(x.tolist())
        upper = sorted({s[-(-k * len(s) // max_bins) - 1]   # ceil(k n / B)
                        for k in range(1, max_bins)} - {values[-1]})
    thresholds = []
    for u in upper:
        above = values[bisect.bisect_right(values, u)]
        mid = 0.5 * u + 0.5 * above
        thresholds.append(mid if mid < above else u)
    codes = [bisect.bisect_left(upper, v) for v in x.tolist()]
    return np.array(codes, dtype=np.intp), np.array(thresholds)


def reference_grow_tree(X: np.ndarray, g: np.ndarray, h: np.ndarray,
                        rows: np.ndarray, cfg: GbmConfig,
                        column_gain: np.ndarray,
                        max_bins: int = 256, blocks=()) -> tuple[_Tree, float]:
    """One depth-limited regression tree on gradient/hessian targets.

    The binned split search ``embedded._grow_tree`` must agree with bit
    for bit. Each column of X is binned by :func:`reference_bin_column`.
    Every summed node filters the global row order down to its rows and
    adds each row's g, h and a count of one to its bin of every column,
    one row at a time; when a node splits and its children are searched,
    the child with fewer rows (the left one on a tie) is summed and the
    other takes the parent's sums minus its sibling's.

    Splits maximize the second-order gain
    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg)) over the cuts
    that leave rows on both sides and whose HL and HR both reach
    ``embedded._MIN_CHILD_WEIGHT``, with reg = ``embedded._L2_REG``,
    scanned column by column: a gain wins only if larger than every
    earlier one, so ties go to the lower column, then the lower cut, and a
    NaN gain never wins. Rows go left where ``X[:, col] <= threshold``.
    Both constants are read from the module at each call, so a test that
    patches them grows this tree and the binned one alike.

    ``blocks`` lists the (first column, level count) of each one-hot block
    of X, as ``embedded._bin_columns`` takes them. A column in a block
    keeps its single cut at 0.5, but scores it from the node's totals G, H
    and row count minus its sums over the rows whose indicator is 1: the
    level's rows go right and the rest left.
    """
    n, n_cols = X.shape
    lam = embedded._L2_REG
    mcw = embedded._MIN_CHILD_WEIGHT
    binned = [reference_bin_column(X[:, c], max_bins) for c in range(n_cols)]
    codes = np.array([b[0] for b in binned], dtype=np.intp).reshape(n_cols, n).T
    tree = _Tree()
    tree_gain = 0.0
    in_node = np.zeros(n, dtype=bool)
    every_col = np.arange(n_cols)
    in_block = {c for first, levels in blocks for c in range(first, first + levels)}

    def histogram(rows: np.ndarray) -> np.ndarray:
        sums = np.zeros((3, n_cols, max_bins))  # g, h and rows per bin
        in_node[:] = False
        in_node[rows] = True
        for r in np.flatnonzero(in_node):
            sums[0, every_col, codes[r]] += g[r]
            sums[1, every_col, codes[r]] += h[r]
            sums[2, every_col, codes[r]] += 1.0
        return sums

    def best_split(sums: np.ndarray, G: float, H: float, m: int):
        score = G * G / (H + lam)
        best = (0.0, -1, 0.0)   # gain, column, threshold
        for c, (_, thresholds) in enumerate(binned):
            n_cuts = len(thresholds)
            if c in in_block:
                GL = G - sums[0, c, 1:2]
                HL = H - sums[1, c, 1:2]
                NL = m - sums[2, c, 1:2]
            else:
                GL = np.cumsum(sums[0, c, :n_cuts])
                HL = np.cumsum(sums[1, c, :n_cuts])
                NL = np.cumsum(sums[2, c, :n_cuts])
            GR = G - GL
            HR = H - HL
            valid = (NL > 0) & (NL < m) & (HL >= mcw) & (HR >= mcw)
            if not valid.any():
                continue
            gains = np.full(n_cuts, -np.inf)
            gains[valid] = 0.5 * (GL[valid] ** 2 / (HL[valid] + lam)
                                  + GR[valid] ** 2 / (HR[valid] + lam) - score)
            gains[np.isnan(gains)] = -np.inf
            b = int(np.argmax(gains))
            if gains[b] > best[0]:
                best = (float(gains[b]), c, float(thresholds[b]))
        return best

    frontier = [(rows, 0, None, None, None)]   # rows, depth, sums, parent, side
    while frontier:
        next_frontier = []
        for rows, depth, sums, parent, side in frontier:
            G = float(g[rows].sum())
            H = float(h[rows].sum())
            gain, col, thr = 0.0, -1, 0.0
            if depth < cfg.max_depth:
                if sums is None:
                    sums = histogram(rows)
                gain, col, thr = best_split(sums, G, H, len(rows))
            if col < 0:
                nid = tree.add_leaf(-G / (H + lam))
            else:
                nid = tree.add_split(col, thr)
                column_gain[col] += gain
                tree_gain += gain
                go_left = X[rows, col] <= thr
                left, right = rows[go_left], rows[~go_left]
                left_sums = right_sums = None
                if depth + 1 < cfg.max_depth:
                    if len(left) <= len(right):
                        left_sums = histogram(left)
                        right_sums = sums - left_sums
                    else:
                        right_sums = histogram(right)
                        left_sums = sums - right_sums
                next_frontier.append((left, depth + 1, left_sums, nid, "L"))
                next_frontier.append((right, depth + 1, right_sums, nid, "R"))
            if parent is not None:
                if side == "L":
                    tree.left[parent] = nid
                else:
                    tree.right[parent] = nid
        frontier = next_frontier
    return tree, tree_gain


def reference_predict(self, X: np.ndarray) -> np.ndarray:
    """Per-node descent by value that ``embedded._grow_tree``'s leaf values
    must agree with for every row, including the rows a tree does not grow
    on, which the grower routes by their bin codes.

    Visits the nodes in id order and routes each node's rows with one
    ``nonzero`` per node, under ``x <= threshold``; ``self`` is a
    ``featscan.embedded._Tree``.
    """
    out = np.zeros(X.shape[0])
    assign = np.zeros(X.shape[0], dtype=np.int64)
    for nid in range(len(self.value)):
        idx = np.nonzero(assign == nid)[0]
        if len(idx) == 0:
            continue
        if self.is_leaf[nid]:
            out[idx] = self.value[nid]
        else:
            go_left = X[idx, self.feature[nid]] <= self.threshold[nid]
            assign[idx[go_left]] = self.left[nid]
            assign[idx[~go_left]] = self.right[nid]
    return out


def reference_target_statistic(col, outcome, idx, prior_weight):
    """Per-level loop that preset B's smoothed outcome mean must match.

    Levels seen in the training rows ``idx`` get their smoothed mean;
    any other level gets the training prior.
    """
    y = outcome[idx].astype(np.float64)
    prior = float(y.mean())
    stats = {}
    for v in sorted(np.unique(col[idx]).tolist()):
        sel = col[idx] == v
        stats[v] = (
            (float(y[sel].sum()) + prior_weight * prior)
            / (float(sel.sum()) + prior_weight)
        )
    return np.array([stats.get(v, prior) for v in col])


def reference_one_hot(dataset: Dataset, features: list[str]) -> tuple[np.ndarray, list[str], list[str]]:
    """The string-comparison encoder that ``tabular.one_hot`` must match.

    Build a numeric design matrix for the listed features.

    Continuous columns pass through. A binary column becomes one 0/1
    indicator of its lexicographically larger value. A nominal column with
    c levels becomes c-1 indicators, dropping the lexicographically
    smallest level as the reference.

    Returns ``(matrix, column_names, column_sources)`` where
    ``column_sources[i]`` is the feature each design column came from.
    """
    blocks = []
    col_names: list[str] = []
    col_sources: list[str] = []
    for name in features:
        kind = dataset.kind(name)
        col = dataset.column(name)
        if kind is FeatureKind.CONTINUOUS:
            blocks.append(col.astype(np.float64).reshape(-1, 1))
            col_names.append(name)
            col_sources.append(name)
        else:
            # reference level is the lexicographically smallest; a constant
            # column contributes no design columns at all
            keep = sorted(np.unique(col).tolist())[1:]
            if keep:
                block = np.column_stack(
                    [(col == v).astype(np.float64) for v in keep]
                )
                blocks.append(block)
            col_names.extend(f"{name}={v}" for v in keep)
            col_sources.extend(name for _ in keep)
    if blocks:
        matrix = np.hstack(blocks)
    else:
        matrix = np.empty((dataset.n_rows, 0))
    return matrix, col_names, col_sources


def reference_encode_design(dataset: Dataset, preset: Preset, train_idx=None):
    """The string-comparison encoder that ``embedded.encode_design`` must match.

    Build the numeric matrix the trees split on.

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
        col = dataset.column(name)
        if kind is FeatureKind.CONTINUOUS:
            cols.append(col.astype(np.float64))
            sources.append(name)
        elif kind is FeatureKind.BINARY or preset is Preset.A:
            levels = sorted(np.unique(col).tolist())
            if kind is FeatureKind.BINARY:
                levels = levels[-1:]    # indicator of the larger label
            for v in levels:
                cols.append((col == v).astype(np.float64))
                sources.append(name)
        else:
            idx = train_idx if train_idx is not None else np.arange(dataset.n_rows)
            y = dataset.outcome[idx].astype(np.float64)
            prior = float(y.mean())
            levels, codes = np.unique(col, return_inverse=True)
            # sums of 0/1 outcomes are exact in any summation order
            count = np.bincount(codes[idx], minlength=len(levels))
            hits = np.bincount(codes[idx], weights=y, minlength=len(levels))
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


def _mp_least_squares(X: np.ndarray, y):
    """Intercept plus X against y from the normal equations at the working
    precision: the inverse Gram matrix, the coefficients and the RSS."""
    rows = [[mpmath.mpf(1)] + [mpmath.mpf(float(v)) for v in row] for row in X]
    ys = [mpmath.mpf(float(v)) for v in y]
    p = X.shape[1] + 1
    gram = mpmath.matrix(p, p)
    xty = mpmath.matrix(p, 1)
    for i in range(p):
        xty[i] = mpmath.fsum(row[i] * yi for row, yi in zip(rows, ys))
        for j in range(p):
            gram[i, j] = mpmath.fsum(row[i] * row[j] for row in rows)
    inverse = gram ** -1
    beta = inverse * xty
    rss = mpmath.fsum(
        (yi - mpmath.fsum(row[i] * beta[i] for i in range(p))) ** 2
        for row, yi in zip(rows, ys)
    )
    return inverse, beta, rss


def reference_ols_p_values(X: np.ndarray, y, dps: int = 40) -> list[float]:
    """Two-sided t p-values of X's columns in a least-squares fit of y on
    X plus an intercept, from the normal equations in ``dps``-digit
    arithmetic. X must have full column rank with the intercept.
    """
    with mpmath.workdps(dps):
        inverse, beta, rss = _mp_least_squares(X, y)
        dof = len(X) - X.shape[1] - 1
        sigma2 = rss / dof
        out = []
        for j in range(1, X.shape[1] + 1):
            t = beta[j] / mpmath.sqrt(sigma2 * inverse[j, j])
            x = dof / (dof + t ** 2)
            out.append(float(mpmath.betainc(mpmath.mpf(dof) / 2, mpmath.mpf(1) / 2,
                                            0, x, regularized=True)))
        return out


def reference_vif(target: np.ndarray, others: np.ndarray, dps: int = 40) -> float:
    """Variance inflation factor 1 / (1 - R^2) of ``target`` regressed on the
    columns of ``others`` plus an intercept, from the normal equations in
    ``dps``-digit arithmetic. Constant columns lie in the intercept's span,
    so they are left out; the rest must have full column rank with it.
    """
    others = others[:, others.min(axis=0) < others.max(axis=0)]
    with mpmath.workdps(dps):
        rss = _mp_least_squares(others, target)[2]
        ys = [mpmath.mpf(float(v)) for v in target]
        mean = mpmath.fsum(ys) / len(ys)
        tss = mpmath.fsum((v - mean) ** 2 for v in ys)
        return float(tss / rss)
