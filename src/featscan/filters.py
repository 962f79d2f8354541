"""Filter-stage feature statistics and the redundancy-removal cascade.

Continuous features are screened with pairwise Pearson correlation and a
variance-inflation-factor loop; categorical features (binary and nominal)
with chi-square association, Cramer's V, and mutual information against
the outcome. Both paths prune redundant pairs by one rule,
``_drop_redundant``: strongest pair first, the member less related to the
outcome (|correlation| or mutual information) goes, and ties keep the
alphabetically first name. Survivors of both paths feed the wrapper stage.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import special
from .errors import (
    ConstantInputError,
    DegenerateTableError,
    InsufficientRowsError,
)
from .tabular import Dataset, FeatureKind


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient of two equal-length vectors.

    Raises :class:`ConstantInputError` when either vector has zero
    variance, in which case the coefficient is undefined.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson needs two equal-length vectors")
    if len(x) < 2:
        raise ValueError("pearson needs at least 2 observations")
    xd = x - x.mean()
    yd = y - y.mean()
    sx = math.sqrt(float(xd @ xd))
    sy = math.sqrt(float(yd @ yd))
    if sx == 0.0 or sy == 0.0:
        raise ConstantInputError("zero variance input")
    r = float(xd @ yd) / (sx * sy)
    return min(1.0, max(-1.0, r))


def feature_outcome_corr(x, outcome) -> float:
    """Point-biserial correlation: Pearson of a feature against the 0/1 outcome."""
    return pearson(x, np.asarray(outcome, dtype=np.float64))


def vif(dataset: Dataset, feature: str) -> float:
    """Variance inflation factor of one continuous feature against the rest.

    Computed as 1 / (1 - R^2) from regressing the feature on all other
    continuous features. Exact collinearity returns ``inf``.
    """
    continuous = dataset.schema.features_of_kind(FeatureKind.CONTINUOUS)
    if feature not in continuous:
        raise ValueError(f"{feature!r} is not a continuous feature")
    R = _vif_factor(dataset, continuous)
    return _vif_from_factor(R, continuous.index(feature),
                            dataset.column(feature))


def _vif_factor(dataset: Dataset, features: list[str]) -> np.ndarray:
    """The R factor of ``[1, X]`` over ``features``, which every VIF among
    them reads: with ``[1, X] = QR``, regressing one column of ``[1, X]`` on
    the others has the same coefficients and residual norm as regressing
    the same column of R on the others, a (p+1)-row problem."""
    if len(features) < 2:
        raise ValueError("VIF needs at least two continuous features")
    n = dataset.n_rows
    if n <= len(features):
        raise InsufficientRowsError(
            f"{n} rows is too few for VIF over "
            f"{len(features)} continuous features"
        )
    design = np.column_stack([np.ones(n)] + [dataset.column(f) for f in features])
    return np.linalg.qr(design, mode="r")


def _vif_from_factor(R: np.ndarray, j: int, target: np.ndarray) -> float:
    """VIF of the ``j``-th feature of :func:`_vif_factor`'s ``R``, whose
    column is ``target``; ``inf`` once R^2 >= 1 - 1e-12."""
    tss = float(((target - target.mean()) ** 2).sum())
    if tss == 0.0:
        raise ConstantInputError("zero variance target")
    own = R[:, j + 1]
    others = np.delete(R, j + 1, axis=1)
    # the cutoff lstsq applies to the n-row design, so rank is decided alike
    rcond = np.finfo(np.float64).eps * len(target)
    beta = np.linalg.lstsq(others, own, rcond=rcond)[0]
    resid = own - others @ beta
    r2 = 1.0 - float(resid @ resid) / tss
    if r2 >= 1.0 - 1e-12:
        return math.inf
    return 1.0 / (1.0 - r2)


def _codes(a) -> np.ndarray:
    """Dense integer codes of a categorical vector, in sorted-value order."""
    return np.unique(np.asarray(a), return_inverse=True)[1]


def _table(ai: np.ndarray, bi: np.ndarray) -> np.ndarray:
    """Contingency table of two code vectors."""
    r, c = int(ai.max()) + 1, int(bi.max()) + 1
    return np.bincount(ai * c + bi, minlength=r * c).reshape(r, c)


def _contingency(a, b) -> np.ndarray:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need two equal-length vectors")
    return _table(_codes(a), _codes(b))


def chi_square_table(table: np.ndarray) -> tuple[float, int, float]:
    """Pearson chi-square statistic, degrees of freedom, and p-value.

    All-zero rows or columns are removed before testing; if fewer than two
    levels remain on either margin the table is degenerate.
    """
    table = np.asarray(table, dtype=np.float64)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    r, c = table.shape
    if r < 2 or c < 2:
        raise DegenerateTableError(
            f"contingency table collapsed to {r}x{c}"
        )
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    chi2 = float(((table - expected) ** 2 / expected).sum())
    dof = (r - 1) * (c - 1)
    p = special.chi2_sf(chi2, dof)
    return chi2, dof, p


def _cramers_v_of(table: np.ndarray, chi2: float) -> float:
    pruned_r = int((table.sum(axis=1) > 0).sum())
    pruned_c = int((table.sum(axis=0) > 0).sum())
    n = int(table.sum())
    phi = math.sqrt(chi2 / (n * min(pruned_r - 1, pruned_c - 1)))
    return min(1.0, phi)


def chi_square(a, b) -> tuple[float, int, float]:
    """Chi-square test of association between two categorical vectors."""
    return chi_square_table(_contingency(a, b))


def cramers_v(a, b) -> float:
    """Cramer's V in [0, 1]: chi-square normalized by table size."""
    table = _contingency(a, b)
    return _cramers_v_of(table, chi_square_table(table)[0])


def _mutual_information_of(table: np.ndarray, normalized: bool) -> float:
    table = table.astype(np.float64)
    n = table.sum()
    if n == 0:
        return 0.0
    joint = table / n
    pf = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    outer = np.outer(pf, py)
    info = float((joint[nz] * np.log(joint[nz] / outer[nz])).sum())
    info = max(0.0, info)
    if not normalized:
        return info
    hf = -float((pf[pf > 0] * np.log(pf[pf > 0])).sum())
    hy = -float((py[py > 0] * np.log(py[py > 0])).sum())
    if hf == 0.0 or hy == 0.0:
        return 0.0
    return 2.0 * info / (hf + hy)


def mutual_information(f, y, normalized: bool = True) -> float:
    """Plug-in mutual information (nats) between a feature and the outcome.

    With ``normalized`` the value is 2 I / (H(f) + H(y)), defined as 0 when
    either marginal entropy is 0. Degenerate inputs return 0 rather than
    raising.
    """
    return _mutual_information_of(_contingency(f, y), normalized)


@dataclass(frozen=True)
class FilterThresholds:
    """Cutoffs for the redundancy cascade; all dataset-dependent knobs."""

    rho_max: float = 0.9
    vif_max: float = 10.0
    chi2_alpha: float = 0.05
    cramers_v_max: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.rho_max < 1.0:
            raise ValueError(f"rho_max must be in (0,1), got {self.rho_max}")
        if not self.vif_max > 0.0:   # so NaN fails too
            raise ValueError(f"vif_max must be positive, got {self.vif_max}")
        if not 0.0 < self.chi2_alpha < 1.0:
            raise ValueError(f"chi2_alpha must be in (0,1), got {self.chi2_alpha}")
        if not 0.0 < self.cramers_v_max < 1.0:
            raise ValueError(
                f"cramers_v_max must be in (0,1), got {self.cramers_v_max}"
            )


@dataclass
class FilterDiagnostics:
    """Full audit trail of the filter stage."""

    pearson_pairs: list = field(default_factory=list)    # (fi, fj, rho or None)
    vif_values: list = field(default_factory=list)       # (f, vif), last computed
    chi2_pairs: list = field(default_factory=list)       # (fi, fj, chi2, p)
    cramers_pairs: list = field(default_factory=list)    # (fi, fj, phi)
    mi_values: list = field(default_factory=list)        # (f, nmi with outcome)
    dropped: list = field(default_factory=list)          # (f, reason)
    kept_continuous: list = field(default_factory=list)
    kept_categorical: list = field(default_factory=list)
    notes: list = field(default_factory=list)            # undefined statistics

    @property
    def kept(self) -> list[str]:
        return self.kept_continuous + self.kept_categorical

    def to_json_dict(self) -> dict:
        return {
            "pearson_pairs": [
                {"a": a, "b": b, "rho": r} for a, b, r in self.pearson_pairs
            ],
            "vif_values": [{"feature": f, "vif": v} for f, v in self.vif_values],
            "chi2_pairs": [
                {"a": a, "b": b, "chi2": x, "p": p}
                for a, b, x, p in self.chi2_pairs
            ],
            "cramers_pairs": [
                {"a": a, "b": b, "v": v} for a, b, v in self.cramers_pairs
            ],
            "mi_values": [{"feature": f, "mi": m} for f, m in self.mi_values],
            "dropped": [{"feature": f, "reason": r} for f, r in self.dropped],
            "kept_continuous": list(self.kept_continuous),
            "kept_categorical": list(self.kept_categorical),
            "notes": list(self.notes),
        }


def _outcome_corr_or_zero(dataset, feature, diag) -> float:
    try:
        return abs(feature_outcome_corr(dataset.column(feature), dataset.outcome))
    except ConstantInputError:
        diag.notes.append(f"outcome correlation undefined for {feature}, using 0")
        return 0.0


def _drop_redundant(pairs, relevance, diag) -> set[str]:
    """Drop one member of each redundant pair; return the dropped names.

    ``pairs`` holds (strength, fi, fj, reason) for each pair over its
    threshold, ``reason`` with a ``{keeper}`` field. The strongest pair
    goes first, ties by name; a pair with a member already dropped is
    skipped. Of the rest, the member with the lower ``relevance`` is
    dropped; on a tie the alphabetically first is kept. Each feature's
    relevance is read once, at the first pair visited that holds it.
    """
    relevance = functools.cache(relevance)
    dropped: set[str] = set()
    for _, fi, fj, reason in sorted(pairs, key=lambda t: (-t[0], t[1], t[2])):
        if fi in dropped or fj in dropped:
            continue
        ri, rj = relevance(fi), relevance(fj)
        loser, keeper = (fj, fi) if ri > rj or (ri == rj and fi < fj) else (fi, fj)
        dropped.add(loser)
        diag.dropped.append((loser, reason.format(keeper=keeper)))
    return dropped


def filter_select(dataset: Dataset, thresholds: FilterThresholds) -> FilterDiagnostics:
    """Run the redundancy cascade and return survivors plus diagnostics.

    Continuous path: for every pair whose |rho| exceeds ``rho_max``
    (strongest pairs first), drop the member less correlated with the
    outcome; then iteratively drop the highest-VIF feature while any VIF
    exceeds ``vif_max``, recomputing after each drop. Categorical path:
    for every pair significant at ``chi2_alpha`` with Cramer's V above
    ``cramers_v_max`` (strongest first), drop the member with less mutual
    information with the outcome. Both pair prunings run one rule,
    ``_drop_redundant``. All ties break toward keeping the alphabetically
    first feature name.
    """
    diag = FilterDiagnostics()
    schema = dataset.schema
    continuous = schema.features_of_kind(FeatureKind.CONTINUOUS)
    categorical = [
        f for f in schema.feature_names
        if schema.kind(f) is not FeatureKind.CONTINUOUS
    ]

    # --- continuous path: pairwise correlation sweep -----------------
    rho_pairs = []
    for i, fi in enumerate(continuous):
        for fj in continuous[i + 1:]:
            try:
                rho = pearson(dataset.column(fi), dataset.column(fj))
            except ConstantInputError:
                rho = None
                diag.notes.append(f"pearson undefined for ({fi}, {fj}), using 0")
            diag.pearson_pairs.append((fi, fj, rho))
            if rho is not None and abs(rho) > thresholds.rho_max:
                rho_pairs.append((abs(rho), fi, fj,
                                  f"|rho|={abs(rho):.4f} with {{keeper}} above "
                                  f"{thresholds.rho_max}, weaker outcome correlation"))
    dropped = _drop_redundant(
        rho_pairs, lambda f: _outcome_corr_or_zero(dataset, f, diag), diag)

    # --- continuous path: VIF elimination loop -----------------------
    survivors = [f for f in continuous if f not in dropped]
    last_vif: dict[str, float] = {}
    while len(survivors) >= 2:
        R = _vif_factor(dataset, survivors)    # one factor per round
        vifs = {}
        for j, f in enumerate(survivors):
            try:
                vifs[f] = _vif_from_factor(R, j, dataset.column(f))
            except ConstantInputError:
                diag.notes.append(f"VIF undefined for constant feature {f}")
        last_vif.update(vifs)
        over = {f: v for f, v in vifs.items() if v > thresholds.vif_max}
        if not over:
            break
        # drop the worst offender; on ties drop the alphabetically last
        worst = max(over, key=lambda f: (over[f], f))
        survivors.remove(worst)
        diag.dropped.append(
            (worst, f"VIF={over[worst]:.4g} above {thresholds.vif_max}")
        )
    diag.vif_values = sorted(last_vif.items())
    diag.kept_continuous = survivors

    # --- categorical path ---------------------------------------------
    # the dataset's codes are sorted-label codes, so each pair's table,
    # built once, equals the one chi_square, cramers_v and
    # mutual_information build from the labels
    codes = {f: dataset.codes(f) for f in categorical}
    outcome_codes = _codes(dataset.outcome)
    for f in categorical:
        diag.mi_values.append(
            (f, _mutual_information_of(_table(codes[f], outcome_codes), True))
        )
    v_pairs = []
    for i, fi in enumerate(categorical):
        for fj in categorical[i + 1:]:
            table = _table(codes[fi], codes[fj])
            try:
                chi2, _, p = chi_square_table(table)
                phi = _cramers_v_of(table, chi2)
            except DegenerateTableError:
                diag.notes.append(
                    f"chi-square degenerate for ({fi}, {fj}), skipping pair"
                )
                continue
            diag.chi2_pairs.append((fi, fj, chi2, p))
            diag.cramers_pairs.append((fi, fj, phi))
            if p < thresholds.chi2_alpha and phi > thresholds.cramers_v_max:
                v_pairs.append((phi, fi, fj,
                                f"association with {{keeper}} (V={phi:.4f}, p={p:.3g}), "
                                f"lower mutual information with outcome"))
    dropped = _drop_redundant(v_pairs, dict(diag.mi_values).__getitem__, diag)
    diag.kept_categorical = [f for f in categorical if f not in dropped]
    return diag
