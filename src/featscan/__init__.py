"""Feature selection and multi-dimensional subset scanning for tabular data.

The package selects top-K features from a binary-outcome table via
filter+wrapper, tree-importance, and committee-vote techniques, then
scans the selected features for the subpopulation with the most elevated
outcome odds, scored by a Bernoulli likelihood ratio and validated by
randomization testing.
"""

from .embedded import (
    FeatureRanking,
    FitMetrics,
    GbmConfig,
    Preset,
    RankingSource,
    committee_vote,
    extract_importance,
    gbm_train,
    minmax_normalize,
    top_k,
)
from .filters import (
    FilterDiagnostics,
    FilterThresholds,
    chi_square,
    cramers_v,
    feature_outcome_corr,
    filter_select,
    mutual_information,
    pearson,
    vif,
)
from .inference import (
    Characterization,
    EffectEstimate,
    SignificanceResult,
    characterize,
    empirical_p_value,
    odds_ratio,
)
from .mdss import (
    ScanConfig,
    ScoredSubset,
    SubsetDescriptor,
    best_value_subset,
    scan,
    score_bernoulli,
)
from .synth import PlantSpec, SynthSpec, generate, planted_probability
from .tabular import (
    BinMethod,
    Dataset,
    DiscreteDataset,
    DiscretizationSpec,
    FeatureKind,
    MissingPolicy,
    Schema,
    discretize,
    load_csv,
    one_hot,
    write_csv,
)
from .wrapper import EliminationTrace, OlsFit, backward_eliminate, ols_fit

__version__ = "0.1.0"

__all__ = [
    "BinMethod", "Characterization", "Dataset", "DiscreteDataset",
    "DiscretizationSpec", "EffectEstimate", "EliminationTrace",
    "FeatureKind", "FeatureRanking", "FilterDiagnostics", "FilterThresholds",
    "FitMetrics", "GbmConfig", "MissingPolicy", "OlsFit", "PlantSpec",
    "Preset", "RankingSource", "ScanConfig", "Schema", "ScoredSubset",
    "SignificanceResult", "SubsetDescriptor", "SynthSpec",
    "backward_eliminate", "best_value_subset", "characterize",
    "chi_square", "committee_vote", "cramers_v", "discretize",
    "empirical_p_value", "extract_importance",
    "feature_outcome_corr", "filter_select", "gbm_train", "generate",
    "load_csv", "minmax_normalize", "mutual_information", "odds_ratio",
    "ols_fit", "one_hot", "pearson", "planted_probability", "scan",
    "score_bernoulli", "top_k", "vif", "write_csv",
]
