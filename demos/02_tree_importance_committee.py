"""
Tree importances and the committee vote
=======================================

Trains the two boosted-tree presets on the same data, extracts total-gain
importances, normalizes them to [0, 1], and merges the two rankings by
averaging. The top-K of the merged ranking is the selected feature set.
"""

import numpy as np

from featscan.embedded import (
    GbmConfig,
    Preset,
    committee_vote,
    extract_importance,
    gbm_train,
    minmax_normalize,
    top_k,
)
from featscan.synth import PlantSpec, SynthSpec, generate

# A planted subgroup (cat01=a and cat02=b) with four times the outcome
# odds carries all the signal; everything else is noise.
spec = SynthSpec(
    n_rows=3000,
    base_rate=0.2,
    n_continuous=1,
    arities=(3, 3, 2, 2),
    plant=PlantSpec({"cat01": ("a",), "cat02": ("b",)}, q_star=4.0),
    seed=3,
)
data, ground_truth = generate(spec)
print("ground truth:", ground_truth.to_json_dict())

# Each fit is one GbmConfig: a preset, then the tree settings and seed.
# Preset A one-hot encodes nominal features and uses every row per tree.
# Preset B target-encodes nominals and subsamples rows, so its ranking
# carries genuinely different noise.
model_a, metrics_a = gbm_train(data, GbmConfig(Preset.A, seed=0, n_trees=80))
model_b, metrics_b = gbm_train(data, GbmConfig(Preset.B, seed=0, n_trees=80))
print(f"held-out F1: preset A {metrics_a.f1:.3f}, preset B {metrics_b.f1:.3f}")

ranking_a = minmax_normalize(extract_importance(model_a))
ranking_b = minmax_normalize(extract_importance(model_b))
vote = committee_vote([ranking_a, ranking_b])

print(f"\n{'feature':8s} {'preset A':>9s} {'preset B':>9s} {'committee':>10s}")
for i, f in enumerate(vote.feature_names):
    print(f"{f:8s} {ranking_a.scores[i]:9.3f} {ranking_b.scores[i]:9.3f} "
          f"{vote.scores[i]:10.3f}")

print("\ncommittee top-3:", top_k(vote, 3))
