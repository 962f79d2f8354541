"""Multi-dimensional subset scanning over discretized features.

The scanner searches conjunctions of per-feature value sets for the
subset with the strongest evidence of elevated outcome odds, measured by
a Bernoulli likelihood-ratio score against the global outcome mean. Each
feature's optimal value set given the others is found in linear time by
evaluating priority-ordered prefixes of its per-value counts:
``best_value_subset`` is that step, and ``scan`` runs its unchecked loop
``_best_prefix``, so the oracles certify the code ``scan`` runs.
Coordinate ascent with random restarts drives the joint search.
The search is defined on a feature *set*: ``scan`` sorts the features it
is given, so a result depends only on (data, feature set, config), never
on list order. It runs on a pattern table: the distinct joint codes of
the scanned features with a row count and an outcome sum each. The table
is built once per dataset and feature set and shared by every bootstrap
replicate of that dataset. Beside each row's pattern id, it holds a memo
of that set's finished scans, keyed by (config, outcome bits), so a
repeat scan returns its stored result, and the blocking masks of value
sets already used, so a later restart or replicate reads a mask instead
of building it again. Memo and masks are dropped with the table when
another feature set is scanned.

The ascent skips steps that cannot change anything. A feature's step
reads only the other features' value sets, so while no value set has
changed since that feature's last step, the step would repeat exactly
and is not run. The running score stays exact through a skip: after
every step it equals the score of the current joint subset, since the
chosen prefix is that subset, and a step that relaxes a feature (its
other features match no pattern) scores the empty subset 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlphaOutOfRangeError,
    DegenerateOutcomeError,
    EmptyRecordsError,
    NoFeaturesError,
    UnknownFeatureError,
)
from .rng import Stream
from .tabular import Dataset, DiscreteDataset, _code_dtype, _distinct

# a feature with at most this many values keeps its blocking masks on the
# pattern table (see ``scan``)
_MAX_STORED_ARITY = 8


@dataclass(frozen=True)
class SubsetDescriptor:
    """Conjunction of per-feature retained value sets.

    Features absent from ``restrictions`` are unrestricted. ``scan`` never
    emits a restriction equal to a feature's full domain.
    """

    restrictions: dict[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for f, values in self.restrictions.items():
            vals = frozenset(str(v) for v in values)
            if not vals:
                raise ValueError(f"empty value set for feature {f!r}")
            clean[f] = vals
        object.__setattr__(self, "restrictions", clean)

    @property
    def n_restricted(self) -> int:
        return len(self.restrictions)

    def matches(self, data: Dataset | DiscreteDataset) -> np.ndarray:
        """Boolean row mask of members, on a discretized or a raw dataset.

        Every value must be in its feature's domain; a raw dataset's
        continuous features have none, so discretize it first.
        """
        mask = np.ones(data.n_rows, dtype=bool)
        for f, values in self.restrictions.items():
            levels = data.levels(f)
            unknown = values - set(levels)
            if unknown:
                raise UnknownFeatureError(
                    f"values {sorted(unknown)} not in domain of {f!r}"
                )
            allowed = np.isin(np.asarray(levels), sorted(values))
            # take, not indexing: numpy casts a narrow index array first
            mask &= allowed.take(data.codes(f))
        return mask

    def encode(self) -> str:
        """Canonical string form, usable as a deterministic sort key."""
        parts = [
            f"{f}={'|'.join(sorted(vals))}"
            for f, vals in sorted(self.restrictions.items())
        ]
        return ";".join(parts)

    def to_json_dict(self) -> dict:
        return {f: sorted(vals) for f, vals in sorted(self.restrictions.items())}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SubsetDescriptor":
        return cls({f: frozenset(vals) for f, vals in doc.items()})


@dataclass(frozen=True)
class ScanConfig:
    """Restarts and seed of one scan; each restart ascends to a local optimum."""

    n_restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n_restarts < 1:
            raise ValueError(f"n_restarts must be >= 1, got {self.n_restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ScoredSubset:
    """A subset descriptor with its score and sufficient statistics."""

    subset: SubsetDescriptor
    score: float
    q_mle: float
    n_members: int
    sum_outcomes: int
    alpha_g: float

    def to_json_dict(self) -> dict:
        return {
            "restrictions": self.subset.to_json_dict(),
            "score": self.score,
            "q_mle": self.q_mle,
            "n_members": self.n_members,
            "sum_outcomes": self.sum_outcomes,
            "alpha_g": self.alpha_g,
        }


def score_bernoulli(sum_y: float, n_s: float, alpha_g: float) -> tuple[float, float]:
    """Maximized Bernoulli likelihood-ratio score of a subset.

    The score is max over q of  log(q) * sum_y - n_s * log(1 - a + q a)
    with global expectation a. The maximizer is the observed-vs-expected
    odds ratio q_hat = sum_y (1-a) / (a (n_s - sum_y)); under the
    one-sided alternative any q_hat <= 1 scores 0 with q reported as 1,
    and an all-positive subset hits the limit n_s * log(1/a) with q
    reported as infinity.
    """
    if not 0.0 < alpha_g < 1.0:
        raise AlphaOutOfRangeError(f"alpha_g must be in (0,1), got {alpha_g}")
    if n_s < 0 or sum_y < 0 or sum_y > n_s:
        raise ValueError(f"need 0 <= sum_y <= n_s, got sum_y={sum_y}, n_s={n_s}")
    if n_s == 0:
        return 0.0, 1.0
    if sum_y == n_s:
        return n_s * math.log(1.0 / alpha_g), math.inf
    q_hat = (sum_y * (1.0 - alpha_g)) / (alpha_g * (n_s - sum_y))
    if q_hat <= 1.0:
        return 0.0, 1.0
    score = sum_y * math.log(q_hat) - n_s * math.log(1.0 - alpha_g + q_hat * alpha_g)
    return max(score, 0.0), q_hat


def best_value_subset(n_v, s_v, alpha_g: float) -> tuple[list[int], float]:
    """Highest-scoring value subset of one feature via prefix evaluation.

    Takes per-value counts and outcome sums, indexed by value code;
    returns (chosen codes, score). Values rank by sum_y / (n * alpha)
    descending, then by code, and zero-count values are left out; the
    linear-time subset scanning property (Neill, JRSS-B 2012) puts the
    best value subset on one of these prefixes. Ties go to the larger
    prefix (see below). Each prefix scores exactly as ``score_bernoulli``
    would score it. An ``alpha_g`` outside (0, 1) raises
    ``AlphaOutOfRangeError``, and a value without ``0 <= sum_y <= n < inf``
    raises ``ValueError``. Once the input passes these checks, the search
    is ``_best_prefix``, the step ``scan`` runs for each feature.
    """
    if not 0.0 < alpha_g < 1.0:
        raise AlphaOutOfRangeError(f"alpha_g must be in (0,1), got {alpha_g}")
    for i, (n, s) in enumerate(zip(n_v, s_v, strict=True)):
        if not 0 <= s <= n < math.inf:
            raise ValueError(f"need 0 <= sum_y <= n < inf, got sum_y={s}, n={n} "
                             f"for value {i}")
    if not any(n > 0 for n in n_v):
        raise EmptyRecordsError("no value has any members")
    return _best_prefix(n_v, s_v, alpha_g)


def _best_prefix(n_v, s_v, alpha_g: float) -> tuple[list[int], float]:
    """``best_value_subset`` on input known to pass its checks.

    ``scan`` calls it with per-value ``np.bincount`` sums over a non-empty
    member set, which cannot fail them.
    """
    # (rank key, code, n, sum_y); codes are distinct
    ranked = [(-(s / (n * alpha_g)), i, n, s)
              for i, (n, s) in enumerate(zip(n_v, s_v)) if n > 0]
    ranked.sort()
    # score_bernoulli's expressions in its order, so that every prefix
    # score is bit-identical to its; the prefix is never empty
    log_inv_alpha, one_minus_alpha = math.log(1.0 / alpha_g), 1.0 - alpha_g
    cum_n = cum_s = 0.0
    best_score, best_j = -1.0, 0
    for j, (_, _, n, s) in enumerate(ranked):
        cum_n += n
        cum_s += s
        if cum_s == cum_n:
            sc = cum_n * log_inv_alpha
        else:
            q_hat = (cum_s * one_minus_alpha) / (alpha_g * (cum_n - cum_s))
            sc = 0.0 if q_hat <= 1.0 else max(
                cum_s * math.log(q_hat)
                - cum_n * math.log(one_minus_alpha + q_hat * alpha_g), 0.0)
        # >= so exact ties go to the larger prefix; a feature carrying no
        # signal then relaxes to its full domain
        if sc >= best_score:
            best_score = sc
            best_j = j
    return [r[1] for r in ranked[: best_j + 1]], best_score


def _pattern_table(data: DiscreteDataset, features: list[str]):
    """Distinct joint codes of the scanned features, with a row count each.

    Returns (inverse, codes, n): each row's pattern id, each feature's
    code per pattern and the rows per pattern. Ids number the patterns in
    the order of their mixed-radix key (first feature most significant).
    When that key's range, the product of the arities, is at most the row
    count, the ids come from marking the keys present and numbering them,
    with no sort; a wider key is sorted, its distinct values kept, and each
    row's key searched among them. Both give the same table. The table
    depends on the covariates only, so it is kept in the cache that all
    ``with_outcome`` copies of ``data`` share, as (feature tuple, table,
    memo, masks): the memo of scan results and the blocking masks start
    empty and are filled by ``scan``, and all of them are replaced when the
    feature set changes.
    """
    cached = data.covariate_cache.get("scan_patterns")
    if cached is not None and cached[0] == tuple(features):
        return cached[1]
    arity = [data.arity(f) for f in features]
    # mixed-radix key, re-compressed to pattern ids before it could overflow
    key, radix = np.zeros(data.n_rows, dtype=np.int64), 1
    for f, a in zip(features, arity):
        if radix * a > np.iinfo(np.int64).max:
            key = np.searchsorted(_distinct(np.sort(key)), key)
            radix = int(key.max()) + 1
        key *= a
        key += data.codes(f)
        radix *= a
    if math.prod(arity) <= data.n_rows:
        # no re-compression ran, so each present key decodes to its codes
        counts = np.bincount(key, minlength=radix)
        present = counts.nonzero()[0]
        inverse = (np.cumsum(counts > 0) - 1).take(key)
        del key   # before the next full-length array is made
        n = counts.take(present)
        codes = []
        for a in reversed(arity):
            present, code = np.divmod(present, a)
            codes.append(code)
        codes.reverse()
    else:
        # distinct values, then a search, need less memory than
        # np.unique's return_inverse
        inverse = np.searchsorted(_distinct(np.sort(key)), key)
        del key
        n = np.bincount(inverse)
        rep = np.empty(len(n), dtype=np.intp)
        rep[inverse] = np.arange(data.n_rows)   # any row of a pattern stands for it
        # per-pattern codes as intp, the index type the ascent's take and
        # bincount use, so they cast nothing per step
        codes = [data.codes(f)[rep].astype(np.intp) for f in features]
    table = (inverse, codes, n.astype(np.float64))
    data.covariate_cache["scan_patterns"] = (tuple(features), table, {}, {})
    return table


def scan(data: DiscreteDataset, features: list[str], cfg: ScanConfig) -> ScoredSubset:
    """Find the highest-scoring conjunctive subset over the given features.

    ``features`` is read as a set: it is sorted on entry, so any order of
    the same features gives the same result. Each restart initializes
    every feature's value set (the first restart starts fully
    unrestricted, later ones uniformly at random), then cycles through
    the features in seeded random order, replacing each feature's set
    with its best conditional prefix until a full cycle raises the score
    by no more than 1e-12. That always ends: no step lowers the score (no
    value set outscores the best prefix, Neill 2012), and there are
    finitely many joint subsets. The best restart wins; ties
    prefer fewer restrictions, then the lexicographically smallest
    restriction encoding. Deterministic for a fixed seed: restart ``r``
    draws its start's coins from the stream ``(seed, 0, r, 0)`` and its
    cycle orders from ``(seed, 0, r, 1)`` (see :mod:`featscan.rng`). Rows
    are grouped into the pattern table of the sorted features, taken from
    the dataset's shared cache when an earlier scan of the same covariates
    and feature set built it; results equal a row-level scan.

    The table's memo maps (``cfg``, the packed outcome bits) to the
    finished result, an exact key: a repeat scan of the same set, config
    and outcome on any ``with_outcome`` copy returns the stored result
    without searching. Its masks map (feature index, value set) to the
    read-only mask of the patterns that value set blocks, one count per
    pattern in the type of ``num_blocked``: ``_code_dtype`` of the feature
    count plus one, one byte up to 255 features. Only a feature with at
    most ``_MAX_STORED_ARITY`` (8) values stores its masks, so it stores
    at most 2**8 - 2 = 254 of them; a wider feature, whose random starts
    are nearly all distinct, builds each mask when used. The masks thus
    take at most 254 counts per pattern per stored feature (with one-byte
    counts, 254 bytes per row per feature in the worst case, when every
    row is its own pattern). Memo and masks live and die with the table,
    so they hold at most the scans of one feature set.
    """
    features = sorted(features)
    if not features:
        raise NoFeaturesError("scan needs at least one feature")
    if len(set(features)) != len(features):
        raise ValueError("duplicate features in scan list")
    levels = [data.levels(f) for f in features]   # raises UnknownFeatureError
    alpha_g = data.outcome_mean()
    if not 0.0 < alpha_g < 1.0:
        raise DegenerateOutcomeError(f"outcome mean {alpha_g} leaves nothing to contrast")

    inverse, codes, n_p = _pattern_table(data, features)
    memo, masks = data.covariate_cache["scan_patterns"][2:]
    memo_key = (cfg, np.packbits(data.outcome).tobytes())
    if memo_key in memo:
        return memo[memo_key]
    s_p = np.bincount(inverse, weights=data.outcome, minlength=len(n_p))
    arity = [len(lv) for lv in levels]
    full = [tuple(range(a)) for a in arity]
    # counts of blocking features per pattern, and the masks added to them,
    # in one type wide enough for every feature, so no add or compare casts
    count_dtype = _code_dtype(len(features) + 1)
    unblocked = np.zeros(len(n_p), dtype=count_dtype)

    def block(j: int, values: tuple) -> np.ndarray:
        """Mask of the patterns whose code for feature ``j`` is not in ``values``."""
        mask = masks.get((j, values))
        if mask is None:
            mask = np.array([i not in values for i in range(arity[j])],
                            dtype=count_dtype).take(codes[j])
            if arity[j] <= _MAX_STORED_ARITY:
                mask.setflags(write=False)
                masks[(j, values)] = mask
        return mask

    def joint_stats() -> tuple[int, int]:
        mask = num_blocked == 0
        return int(round(float(s_p[mask].sum()))), int(n_p[mask].sum())

    best_key = best = None   # ((-score, n_restricted), encoding), ScoredSubset
    for restart in range(cfg.n_restarts):
        orders = Stream(cfg.seed, 0, restart, 1)
        # per feature: the retained codes and the patterns they block; block
        # arrays are replaced, never written, so unrestricted ones share one
        selected = (_random_start(Stream(cfg.seed, 0, restart, 0), arity)
                    if restart > 0 else list(full))
        blocked = [unblocked] * len(features)
        num_blocked = unblocked.copy()
        for j, values in enumerate(selected):
            if values != full[j]:
                blocked[j] = block(j, values)
                num_blocked += blocked[j]
        score = score_bernoulli(*joint_stats(), alpha_g)[0]

        # selection changes so far, and their count at each feature's last
        # step: a feature that has seen every change is skipped (see above)
        changes, seen = 0, [-1] * len(features)
        while True:
            cycle_start = score
            for j in orders.permutation(len(features)).tolist():
                if seen[j] == changes:
                    continue
                members = (num_blocked == blocked[j]).nonzero()[0]
                if len(members) == 0:
                    # conjunction of the other features is empty; relax
                    values, score = full[j], 0.0
                else:
                    codes_j = codes[j].take(members)
                    n_v = np.bincount(codes_j, weights=n_p.take(members), minlength=arity[j])
                    s_v = np.bincount(codes_j, weights=s_p.take(members), minlength=arity[j])
                    chosen, score = _best_prefix(n_v.tolist(), s_v.tolist(), alpha_g)
                    values = tuple(sorted(chosen))
                if values != selected[j]:
                    # the all-zero mask of a full value set is neither added
                    # nor subtracted
                    if selected[j] != full[j]:
                        num_blocked -= blocked[j]
                    if values == full[j]:
                        blocked[j] = unblocked
                    else:
                        blocked[j] = block(j, values)
                        num_blocked += blocked[j]
                    selected[j] = values
                    changes += 1
                seen[j] = changes
            if score <= cycle_start + 1e-12:
                break

        n_restricted = sum(s != f for s, f in zip(selected, full))
        if best_key is not None and (-score, n_restricted) > best_key[0]:
            continue   # ``score`` is the final subset's score: it cannot win
        sum_y, n_s = joint_stats()
        final_score, q = score_bernoulli(sum_y, n_s, alpha_g)
        restrictions = {f: frozenset(levels[j][i] for i in selected[j])
                        for j, f in enumerate(features) if selected[j] != full[j]}
        subset = SubsetDescriptor(restrictions)
        key = ((-final_score, n_restricted), subset.encode())
        if best_key is None or key < best_key:
            best_key, best = key, ScoredSubset(subset=subset, score=final_score,
                                               q_mle=q, n_members=n_s,
                                               sum_outcomes=sum_y, alpha_g=alpha_g)

    memo[memo_key] = best
    return best


def _random_start(stream: Stream, arity: list[int]) -> list[tuple]:
    """Each feature's value set, uniform over its non-empty subsets.

    One coin per value, feature after feature; a feature that drew no
    value draws again. Coins are drawn twice as many at a time as a start
    without redraws uses, so a second call is rare; coins drawn and not
    used move no other draw.
    """
    chunk = 2 * sum(arity)
    coins, selected, at = [], [], 0
    for a in arity:
        while True:
            if at + a > len(coins):
                coins += stream.coins(chunk).tolist()
            drawn = coins[at:at + a]
            at += a
            if any(drawn):
                break
        # from a list: on CPython 3.11, tuples built from a generator here
        # raised a 260-scan sweep's peak resident memory by about 0.2 MiB
        selected.append(tuple([i for i, c in enumerate(drawn) if c]))
    return selected

