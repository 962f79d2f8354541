"""
Subset scanning, significance, and interpretation
=================================================

Shows the scoring function on raw counts, scans a planted dataset for
the most anomalous subpopulation, then validates the finding with a
randomization test and an odds ratio.
"""

import numpy as np

from featscan.inference import characterize, empirical_p_value, odds_ratio
from featscan.mdss import ScanConfig, scan, score_bernoulli
from featscan.synth import PlantSpec, SynthSpec, generate
from featscan.tabular import DiscretizationSpec, discretize

# The score is a Bernoulli likelihood ratio: how surprising is observing
# sum_y positives among n_s members when the global rate is alpha?
print("score(20 of 100 at alpha=0.2) =", score_bernoulli(20, 100, 0.2))
print("score(40 of 100 at alpha=0.2) =", score_bernoulli(40, 100, 0.2))
print("score(60 of 100 at alpha=0.2) =", score_bernoulli(60, 100, 0.2))

spec = SynthSpec(
    n_rows=2500,
    base_rate=0.2,
    n_continuous=2,
    arities=(3, 3, 2),
    plant=PlantSpec({"cat01": ("a",), "cat02": ("b",)}, q_star=4.0),
    seed=11,
)
data, ground_truth = generate(spec)
discrete = discretize(data, DiscretizationSpec(n_bins=3))
print("\nplanted subgroup:", ground_truth.to_json_dict())
print("global outcome rate:", round(discrete.outcome_mean(), 4))

# Coordinate ascent over value subsets with 20 random restarts.
cfg = ScanConfig(n_restarts=20, seed=0)
features = list(data.feature_names)
result = scan(discrete, features, cfg)
print("\ndetected subset:", result.subset.to_json_dict())
print(f"score={result.score:.2f}  fitted odds multiplier q={result.q_mle:.2f}  "
      f"members={result.n_members}")

# Randomization test: redraw outcomes at the global rate and rescan.
sig = empirical_p_value(discrete, features, cfg, result, r=99)
print(f"empirical p-value over {sig.r_replicates} replicates: {sig.p_value}")
print("best replicate score:", round(max(sig.replicate_scores), 2))

# Effect size with a 95% interval, and a readable characterization.
effect = odds_ratio(discrete, result.subset)
print(f"odds ratio {effect.odds_ratio:.2f} "
      f"[{effect.ci_low:.2f}, {effect.ci_high:.2f}]")

profile = characterize(discrete, result)
print(f"\nsubset holds {profile.subset_size} of {discrete.n_rows} rows; "
      f"outcome rate {profile.subset_outcome_rate:.3f} vs "
      f"global {profile.alpha_g:.3f}")
for rec in profile.records:
    print(f"  {rec.feature} in {list(rec.values)} "
          f"(covers {rec.population_prevalence:.0%} of the population)")
