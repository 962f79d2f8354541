"""
Filter statistics and backward elimination
==========================================

Walks the first selection technique end to end: measure pairwise
redundancy, drop collinear features, then let an OLS wrapper eliminate
its way down to a requested K.
"""

import numpy as np

from featscan.filters import (
    FilterThresholds,
    chi_square,
    cramers_v,
    filter_select,
    mutual_information,
    pearson,
    vif,
)
from featscan.tabular import Dataset, FeatureKind, Schema
from featscan.wrapper import backward_eliminate

rng = np.random.default_rng(7)
n = 1500

# Three continuous features, one of which is (almost) the sum of the other
# two, plus a duplicated copy of the first.
age = rng.normal(60, 10, size=n)
weight = rng.normal(80, 12, size=n)
risk_index = age + weight + rng.normal(0, 0.5, size=n)   # collinear
age_copy = age + rng.normal(0, 0.1, size=n)              # near-duplicate

# Two categorical features; "unit" drives the outcome, "shift" is noise.
unit = rng.choice(["icu", "er", "ward"], size=n)
shift = rng.choice(["day", "night"], size=n)
p = np.where(unit == "icu", 0.45, 0.15)
died = (rng.random(n) < p).astype(int)

schema = Schema(
    ("age", "age_copy", "risk_index", "weight", "unit", "shift"),
    {
        "age": FeatureKind.CONTINUOUS,
        "age_copy": FeatureKind.CONTINUOUS,
        "risk_index": FeatureKind.CONTINUOUS,
        "weight": FeatureKind.CONTINUOUS,
        "unit": FeatureKind.NOMINAL,
        "shift": FeatureKind.BINARY,
    },
    "died",
)
data = Dataset(
    schema,
    {
        "age": age, "age_copy": age_copy, "risk_index": risk_index,
        "weight": weight, "unit": unit, "shift": shift,
    },
    died,
)

# The raw statistics the filter stage is built from.
print("pearson(age, age_copy)     =", round(pearson(age, age_copy), 4))
print("vif(risk_index | others)   =", round(vif(data, "risk_index"), 1))
chi2, dof, pval = chi_square(unit, shift)
print(f"chi_square(unit, shift)    = {chi2:.3f} (dof={dof}, p={pval:.3f})")
print("cramers_v(unit, shift)     =", round(cramers_v(unit, shift), 4))
print("nmi(unit ; outcome)        =",
      round(mutual_information(unit, died), 4))

# Run the cascade: the near-duplicate and the collinear feature go.
diag = filter_select(data, FilterThresholds(rho_max=0.9, vif_max=10))
print("\nfilter survivors:", diag.kept)
for feature, reason in diag.dropped:
    print(f"  dropped {feature}: {reason}")

# Backward elimination trims the survivors to K=3 by OLS significance.
trace = backward_eliminate(data, diag.kept, k=3)
for step in trace.steps:
    print(f"eliminated {step.dropped} "
          f"(p={step.p_value if step.p_value is None else round(step.p_value, 3)})")
print("final K=3 feature set:", trace.final)
