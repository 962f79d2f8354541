"""Backward-elimination wrapper around ordinary least squares.

The 0/1 outcome is regressed directly (a linear probability model) on the
one-hot encoded candidate features; the least significant feature is
dropped repeatedly until exactly K remain.

A fit factors the augmented design ``[1, X, y]`` once by Householder QR and
takes the SVD of the small triangular factor, never of the n-row design.
Since ``[1, X, y][:, keep] = Q R[:, keep]``, the R factor of ``R[:, keep]``
is an R factor of the survivors' design, so each elimination round deletes
the dropped columns from R and re-triangularizes it (Golub & Van Loan,
*Matrix Computations*, section 6.5).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import special
from .errors import InsufficientRowsError, KTooLargeError
from .tabular import Dataset, one_hot


@dataclass
class OlsFit:
    """Least-squares fit with per-column inference statistics.

    ``coefficients`` through ``p_values`` cover the design columns; the
    intercept, which is fitted internally, is reported separately.
    """

    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    r_squared: float
    column_names: list[str]
    column_sources: list[str]
    intercept: float
    residual_dof: int
    regularized: bool = False

    def min_p_by_feature(self) -> dict[str, float]:
        """Most significant p-value among each source feature's columns."""
        out: dict[str, float] = {}
        for p, src in zip(self.p_values, self.column_sources):
            if src not in out or p < out[src]:
                out[src] = float(p)
        return out


def ols_fit(X: np.ndarray, y, column_names=None, column_sources=None) -> OlsFit:
    """Fit y on X plus an intercept by least squares.

    ``[1, X, y]`` is factored by QR and the fit comes from the SVD of its
    (m+1) x (m+1) triangular factor. Standard errors come from
    sigma^2 diag((X'X)^-1) with residual degrees of freedom n - p - 1;
    p-values are two-sided t. A rank-deficient design is refitted with a
    small ridge term and flagged ``regularized``. A NaN or infinity in X or
    y raises ``ValueError``.
    """
    augmented = _augmented(X, y)
    n, m = augmented.shape[0], augmented.shape[1] - 2
    if column_names is None:
        column_names = [f"x{j}" for j in range(m)]
    if column_sources is None:
        column_sources = list(column_names)
    return _fit(augmented, n, _tss(augmented[:, -1]), column_names, column_sources)[0]


def _augmented(X, y) -> np.ndarray:
    """``[1, X, y]``, once X and y are checked for shape, values and rows."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise ValueError("X must be (n, m) with matching y")
    for name, values in (("X", X), ("y", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a NaN or infinite value")
    n, m = X.shape
    if n <= m + 1:
        raise InsufficientRowsError(f"{n} rows cannot support {m} features")
    return np.column_stack([np.ones(n), X, y])


def _tss(y: np.ndarray) -> float:
    return float(((y - y.mean()) ** 2).sum())


def _fit(augmented: np.ndarray, n: int, tss: float, column_names,
         column_sources) -> tuple[OlsFit, np.ndarray]:
    """OLS fit from any matrix whose Gram matrix is that of ``[1, X, y]``.

    ``augmented`` may be the n-row matrix itself or a triangular factor of
    it less some X columns; n is the real row count. Returns the fit and
    the (m+2) x (m+2) R factor it was computed from.
    """
    r = np.linalg.qr(augmented, mode="r")
    p_total = r.shape[1] - 1
    u, s, vt = np.linalg.svd(r[:p_total, :p_total])
    tol = max(n, p_total) * np.finfo(np.float64).eps * (s[0] if len(s) else 0.0)
    rank = int((s > tol).sum())
    regularized = rank < p_total
    # the design's left singular vectors are Q u, and y = Q r[:, -1]
    uty = u.T @ r[:p_total, -1]
    if regularized:
        lam = 1e-8 * float((s ** 2).sum()) / p_total
        denom = s ** 2 + lam
        beta = vt.T @ (s * uty / denom)
        cov_unscaled = (vt.T * (1.0 / denom)) @ vt
    else:
        beta = vt.T @ (uty / s)
        cov_unscaled = (vt.T * (1.0 / s ** 2)) @ vt

    # y - [1, X] beta = Q r [-beta, 1]
    resid = r @ np.append(-beta, 1.0)
    rss = float(resid @ resid)
    dof = n - p_total
    sigma2 = rss / dof
    se = np.sqrt(np.maximum(sigma2 * np.diag(cov_unscaled), 0.0))

    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0.0, beta / se, np.where(beta == 0.0, 0.0, np.inf))
    pvals = np.array([special.student_t_sf2(float(tv), dof) for tv in t])

    r2 = 1.0 - rss / tss if tss > 0.0 else 0.0

    return OlsFit(
        coefficients=beta[1:],
        std_errors=se[1:],
        t_stats=t[1:],
        p_values=pvals[1:],
        r_squared=r2,
        column_names=list(column_names),
        column_sources=list(column_sources),
        intercept=float(beta[0]),
        residual_dof=dof,
        regularized=regularized,
    ), r


@dataclass
class EliminationStep:
    dropped: str
    p_value: float | None     # None when the feature contributed no columns
    surviving: tuple[str, ...]


@dataclass
class EliminationTrace:
    initial: tuple[str, ...]
    steps: list[EliminationStep]
    final: list[str]

    def surviving_at(self, k: int) -> list[str]:
        """Survivor set of size k recorded along the elimination path."""
        if len(self.initial) == k:
            return list(self.initial)
        for step in self.steps:
            if len(step.surviving) == k:
                return list(step.surviving)
        raise KTooLargeError(f"no snapshot of size {k} in trace")

    def to_json_dict(self) -> dict:
        return asdict(self)


def backward_eliminate(dataset: Dataset, candidates: list[str], k: int) -> EliminationTrace:
    """Drop the least significant candidate until exactly k remain.

    Each round fits OLS on the one-hot design of the survivors, which is
    the candidates' design, encoded and factored once, less the dropped
    columns: the round's fit comes from the previous round's R factor with
    those columns deleted. A feature's significance is the minimum p-value
    across its columns, and the feature with the largest such p-value is
    dropped. Features whose computed p-values are equal to the bit keep
    the alphabetically first of them. Features that tie only in exact
    arithmetic, such as a column and its exact copy, need not compute to
    equal p-values; rounding then decides which of them goes. Features
    contributing no design columns (constant categoricals) are dropped
    before anything else. A NaN or infinity in the design raises
    ``ValueError`` before the first round.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(set(candidates)) != len(candidates):
        raise ValueError("duplicate candidate features")
    if k > len(candidates):
        raise KTooLargeError(f"k={k} but only {len(candidates)} candidates")

    initial = tuple(candidates)
    survivors = list(candidates)
    steps: list[EliminationStep] = []
    if len(survivors) == k:
        return EliminationTrace(initial=initial, steps=steps, final=survivors)
    X, names, sources = one_hot(dataset, survivors)
    augmented = _augmented(X, dataset.outcome)
    n, tss = len(augmented), _tss(augmented[:, -1])
    while len(survivors) > k:
        fit, r = _fit(augmented, n, tss, names, sources)
        sig = fit.min_p_by_feature()
        full = {f: sig.get(f, math.inf) for f in survivors}
        # largest p goes; among ties the alphabetically last goes
        worst = max(survivors, key=lambda f: (full[f], f))
        survivors.remove(worst)
        p = full[worst]
        steps.append(
            EliminationStep(worst, None if math.isinf(p) else p, tuple(survivors))
        )
        # survivors keep candidate order, so the next round's design is this
        # one without the dropped feature's columns: R less those columns
        keep = [i for i, src in enumerate(sources) if src != worst]
        augmented = r[:, [0, *(i + 1 for i in keep), -1]]
        names = [names[i] for i in keep]
        sources = [sources[i] for i in keep]
    return EliminationTrace(initial=initial, steps=steps, final=survivors)
