"""Statistical validation and interpretation of a scan result.

Significance comes from a parametric bootstrap: outcomes are redrawn as
independent coins at the global rate, the scan is repeated, and the
observed score is ranked among the replicate maxima. Replicates change
only the outcome, so they share the observed dataset's pattern table
(see :mod:`featscan.mdss`) and each costs one bincount over the rows plus
a scan over the distinct value patterns. Effect size is the
odds ratio of the detected subset against its complement with a Wald
confidence interval on the log scale.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import EmptySubsetError, FullSubsetError
from .mdss import ScanConfig, ScoredSubset, SubsetDescriptor, scan
from .rng import Stream, derive_seed
from .tabular import DiscreteDataset

# the fewest bootstrap replicates that can give p < 0.05
MIN_REPLICATES = 19


@dataclass(frozen=True)
class SignificanceResult:
    """Empirical p-value of an observed scan score."""

    observed_score: float
    replicate_scores: tuple[float, ...]
    p_value: float
    r_replicates: int
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def empirical_p_value(data: DiscreteDataset, features: list[str],
                      cfg: ScanConfig, observed: ScoredSubset,
                      r: int) -> SignificanceResult:
    """Parametric-bootstrap p-value for an observed scan score.

    Each replicate redraws every outcome as Bernoulli(alpha_g) with the
    covariates fixed and rescans with the same configuration under a
    derived seed: replicate ``i`` compares the uniforms of the stream
    ``(seed, 1, i)`` with alpha_g, and scans with the seed
    ``derive_seed(seed, 2, i)`` (see :mod:`featscan.rng`). A replicate that
    draws a constant outcome has nothing to contrast and scores 0. The
    p-value is (1 + #{replicate >= observed}) / (r + 1), so ties count
    against significance and p is never 0.

    The replicate outcomes depend only on ``cfg.seed``, ``alpha_g`` and the
    row count. The CLI gives every scan of a command one scan seed, so the
    cells of a sweep share one bootstrap null.
    """
    if r < MIN_REPLICATES:
        raise ValueError(
            f"need at least {MIN_REPLICATES} replicates for p < 0.05, got {r}")
    alpha_g = data.outcome_mean()
    scores = []
    for i in range(r):
        y_rep = (Stream(cfg.seed, 1, i).uniforms(data.n_rows) < alpha_g).astype(np.int8)
        if y_rep.min() == y_rep.max():
            scores.append(0.0)
            continue
        rep_seed = derive_seed(cfg.seed, 2, i)
        rep = scan(data.with_outcome(y_rep), features, replace(cfg, seed=rep_seed))
        scores.append(rep.score)
    exceed = sum(1 for s in scores if s >= observed.score)
    p = (1 + exceed) / (r + 1)
    return SignificanceResult(
        observed_score=observed.score,
        replicate_scores=tuple(scores),
        p_value=p,
        r_replicates=r,
        seed=cfg.seed,
    )


@dataclass(frozen=True)
class EffectEstimate:
    """2x2 subset-by-outcome table with odds ratio and 95% interval."""

    a: int    # in-subset positives
    b: int    # in-subset negatives
    c: int    # out-of-subset positives
    d: int    # out-of-subset negatives
    odds_ratio: float
    ci_low: float
    ci_high: float
    log_se: float
    corrected: bool

    def to_json_dict(self) -> dict:
        return {
            "table": {"a": self.a, "b": self.b, "c": self.c, "d": self.d},
            "odds_ratio": self.odds_ratio,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "log_se": self.log_se,
            "corrected": self.corrected,
        }


def odds_ratio(data, subset: SubsetDescriptor) -> EffectEstimate:
    """Odds of the outcome inside the subset versus its complement.

    When any cell of the 2x2 table is zero the Haldane-Anscombe
    correction adds 0.5 to every cell before computing the ratio and its
    Wald interval exp(ln w +- 1.96 se).
    """
    mask = subset.matches(data)
    n_in = int(mask.sum())
    if n_in == 0:
        raise EmptySubsetError("subset matches no rows")
    if n_in == data.n_rows:
        raise FullSubsetError("subset excludes no rows")
    y = np.asarray(data.outcome)
    a = int(y[mask].sum())
    b = n_in - a
    c = int(y[~mask].sum())
    d = (data.n_rows - n_in) - c
    corrected = 0 in (a, b, c, d)
    ca, cb, cc, cd = (
        (a + 0.5, b + 0.5, c + 0.5, d + 0.5) if corrected else (a, b, c, d)
    )
    ratio = (ca * cd) / (cb * cc)
    log_se = math.sqrt(1.0 / ca + 1.0 / cb + 1.0 / cc + 1.0 / cd)
    half = 1.96 * log_se
    return EffectEstimate(
        a=a, b=b, c=c, d=d,
        odds_ratio=ratio,
        ci_low=math.exp(math.log(ratio) - half),
        ci_high=math.exp(math.log(ratio) + half),
        log_se=log_se,
        corrected=corrected,
    )


@dataclass(frozen=True)
class RestrictionProfile:
    """One restricted feature: its retained values in subset and population."""

    feature: str
    values: tuple[str, ...]
    population_prevalence: float
    subset_value_shares: dict[str, float]


@dataclass(frozen=True)
class Characterization:
    """Interpretation of the detected subpopulation."""

    records: tuple[RestrictionProfile, ...]
    subset_size: int
    subset_outcome_rate: float
    alpha_g: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def characterize(data: DiscreteDataset, scored: ScoredSubset) -> Characterization:
    """Describe each restriction's footprint and the subset's outcome rate."""
    mask = scored.subset.matches(data)
    p = int(mask.sum())
    rate = float(data.outcome[mask].mean()) if p > 0 else 0.0
    records = []
    for feature, values in sorted(scored.subset.restrictions.items()):
        levels = data.levels(feature)
        codes = data.codes(feature)
        pop_prev = float(SubsetDescriptor({feature: values}).matches(data).mean())
        shares = {}
        for v in sorted(values):
            vi = levels.index(v)
            shares[v] = float((codes[mask] == vi).mean()) if p > 0 else 0.0
        records.append(
            RestrictionProfile(
                feature=feature,
                values=tuple(sorted(values)),
                population_prevalence=pop_prev,
                subset_value_shares=shares,
            )
        )
    return Characterization(
        records=tuple(records),
        subset_size=p,
        subset_outcome_rate=rate,
        alpha_g=scored.alpha_g,
    )
