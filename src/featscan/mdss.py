"""Multi-dimensional subset scanning over discretized features.

The scanner searches conjunctions of per-feature value sets for the
subset with the strongest evidence of elevated outcome odds, measured by
a Bernoulli likelihood-ratio score against the global outcome mean. Each
feature's optimal value set given the others is found in linear time by
evaluating priority-ordered prefixes of its per-value counts:
``best_value_subset`` is that step, the one ``scan`` runs and the oracles
certify. Coordinate ascent with random restarts drives the joint search.
The search is defined on a feature *set*: ``scan`` sorts the features it
is given, so a result depends only on (data, feature set, config), never
on list order. It runs on a pattern table: the distinct joint codes of
the scanned features with a row count and an outcome sum each. The table
is built once per dataset and feature set and shared by every bootstrap
replicate of that dataset. It carries a memo of that set's finished
scans, keyed by (config, outcome bits), so a repeat scan returns its
stored result; the memo is dropped with the table when another feature
set is scanned.

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
from .tabular import Dataset, DiscreteDataset


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
    prefix (see below). This is the step ``scan`` runs for each feature.
    Each prefix scores exactly as ``score_bernoulli`` would score it. An
    ``alpha_g`` outside (0, 1) raises ``AlphaOutOfRangeError``, and a
    value without ``0 <= sum_y <= n < inf`` raises ``ValueError``.
    """
    if not 0.0 < alpha_g < 1.0:
        raise AlphaOutOfRangeError(f"alpha_g must be in (0,1), got {alpha_g}")
    ranked = []   # (rank key, code, n, sum_y); codes are distinct
    for i, (n, s) in enumerate(zip(n_v, s_v, strict=True)):
        if not 0 <= s <= n < math.inf:
            raise ValueError(f"need 0 <= sum_y <= n < inf, got sum_y={s}, n={n} "
                             f"for value {i}")
        if n > 0:
            ranked.append((-(s / (n * alpha_g)), i, n, s))
    if not ranked:
        raise EmptyRecordsError("no value has any members")
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

    Returns (inverse, codes, n): each row's pattern, each feature's code
    per pattern and the rows per pattern. It depends on the covariates
    only, so it is kept in the cache that all ``with_outcome`` copies of
    ``data`` share: one table with its memo of scan results (see
    ``scan``), both replaced when the feature list changes.
    """
    cached = data.covariate_cache.get("scan_patterns")
    if cached is not None and cached[0] == tuple(features):
        return cached[1]
    # mixed-radix key, re-compressed to pattern ids before it could overflow
    key, radix = np.zeros(data.n_rows, dtype=np.int64), 1
    for f in features:
        if radix * data.arity(f) > np.iinfo(np.int64).max:
            key = np.searchsorted(np.unique(key), key)
            radix = int(key.max()) + 1
        key *= data.arity(f)
        key += data.codes(f)
        radix *= data.arity(f)
    # unique values, then a search, need less memory than return_inverse
    inverse = np.searchsorted(np.unique(key), key)
    n = np.bincount(inverse)
    rep = np.empty(len(n), dtype=np.intp)
    rep[inverse] = np.arange(data.n_rows)   # any row of a pattern stands for it
    # per-pattern codes as intp, the index type the ascent's take and
    # bincount use, so they cast nothing per step
    codes = [data.codes(f)[rep].astype(np.intp) for f in features]
    table = (inverse, codes, n.astype(np.float64))
    data.covariate_cache["scan_patterns"] = (tuple(features), table, {})
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
    restriction encoding. Deterministic for a fixed seed. Rows are
    grouped into the pattern table of the sorted features, taken from the
    dataset's shared cache when an earlier scan of the same covariates and
    feature set built it; results equal a row-level scan.

    The table's memo maps (``cfg``, the packed outcome bits) to the
    finished result, an exact key: a repeat scan of the same set, config
    and outcome on any ``with_outcome`` copy returns the stored result
    without searching. The memo lives and dies with the table, so it
    holds at most the scans of one feature set.

    A random start draws one coin per value in a single ``integers(0, 2)``
    call (see ``_random_start``). That reproduces one call per feature
    only because numpy draws split over several calls equal one call of
    their total size and leave the generator in the same state for the
    ``permutation`` that follows; a test guards this for the installed
    numpy.
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
    memo = data.covariate_cache["scan_patterns"][2]
    memo_key = (cfg, np.packbits(data.outcome).tobytes())
    if memo_key in memo:
        return memo[memo_key]
    s_p = np.bincount(inverse, weights=data.outcome, minlength=len(n_p))
    arity = [len(lv) for lv in levels]
    full = [tuple(range(a)) for a in arity]
    unblocked = np.zeros(len(n_p), dtype=bool)

    def joint_stats() -> tuple[int, int]:
        mask = num_blocked == 0
        return int(round(float(s_p[mask].sum()))), int(n_p[mask].sum())

    best_key = best = None   # ((-score, n_restricted), encoding), ScoredSubset
    for restart in range(cfg.n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                           spawn_key=(0, restart)))
        # per feature: the retained codes and the patterns they block; block
        # arrays are replaced, never written, so unrestricted ones share one
        selected = _random_start(rng, arity) if restart > 0 else list(full)
        blocked = [unblocked] * len(features)
        num_blocked = np.zeros(len(n_p), dtype=np.int16)
        for j, values in enumerate(selected):
            if values != full[j]:
                blocked[j] = _block(values, codes[j], arity[j])
                num_blocked += blocked[j]
        score = score_bernoulli(*joint_stats(), alpha_g)[0]

        # selection changes so far, and their count at each feature's last
        # step: a feature that has seen every change is skipped (see above)
        changes, seen = 0, [-1] * len(features)
        while True:
            cycle_start = score
            for j in rng.permutation(len(features)).tolist():
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
                    chosen, score = best_value_subset(n_v.tolist(), s_v.tolist(), alpha_g)
                    values = tuple(sorted(chosen))
                if values != selected[j]:
                    new_blocked = (unblocked if values == full[j]
                                   else _block(values, codes[j], arity[j]))
                    num_blocked += new_blocked
                    num_blocked -= blocked[j]
                    blocked[j], selected[j] = new_blocked, values
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


def _random_start(rng, arity: list[int]) -> list[tuple]:
    """Each feature's value set, uniform over its non-empty subsets.

    One coin per value, feature after feature; a feature that drew no
    value draws again. The coins come from one ``integers`` call, topped
    up by exactly the shortfall when a redraw needs more, so they equal
    per-feature calls and leave the generator where those would (see
    ``scan``).
    """
    coins = rng.integers(0, 2, size=sum(arity)).tolist()
    selected, at = [], 0
    for a in arity:
        while True:
            if at + a > len(coins):
                coins += rng.integers(0, 2, size=at + a - len(coins)).tolist()
            drawn = coins[at:at + a]
            at += a
            if any(drawn):
                break
        # from a list: on CPython 3.11, tuples built from a generator here
        # raised a 260-scan sweep's peak resident memory by about 0.2 MiB
        selected.append(tuple([i for i, c in enumerate(drawn) if c]))
    return selected


def _block(values: tuple, codes: np.ndarray, arity: int) -> np.ndarray:
    """Boolean mask of the patterns whose code is not in ``values``."""
    return np.array([i not in values for i in range(arity)]).take(codes)
