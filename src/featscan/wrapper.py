"""Backward-elimination wrapper around ordinary least squares.

The 0/1 outcome is regressed directly (a linear probability model) on the
one-hot encoded candidate features; the least significant feature is
dropped repeatedly until exactly K remain.
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
    """Fit y on X plus an intercept by SVD least squares.

    Standard errors come from sigma^2 diag((X'X)^-1) with residual degrees
    of freedom n - p - 1; p-values are two-sided t. A rank-deficient design
    is refitted with a small ridge term and flagged ``regularized``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise ValueError("X must be (n, m) with matching y")
    n, m = X.shape
    if n <= m + 1:
        raise InsufficientRowsError(f"{n} rows cannot support {m} features")
    if column_names is None:
        column_names = [f"x{j}" for j in range(m)]
    if column_sources is None:
        column_sources = list(column_names)

    design = np.column_stack([np.ones(n), X])
    p_total = m + 1
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    tol = max(n, p_total) * np.finfo(np.float64).eps * (s[0] if len(s) else 0.0)
    rank = int((s > tol).sum())
    regularized = rank < p_total
    uty = u.T @ y
    if regularized:
        lam = 1e-8 * float((s ** 2).sum()) / p_total
        denom = s ** 2 + lam
        beta = vt.T @ (s * uty / denom)
        cov_unscaled = (vt.T * (1.0 / denom)) @ vt
    else:
        beta = vt.T @ (uty / s)
        cov_unscaled = (vt.T * (1.0 / s ** 2)) @ vt

    resid = y - design @ beta
    dof = n - p_total
    sigma2 = float(resid @ resid) / dof
    se = np.sqrt(np.maximum(sigma2 * np.diag(cov_unscaled), 0.0))

    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0.0, beta / se, np.where(beta == 0.0, 0.0, np.inf))
    pvals = np.array([special.student_t_sf2(float(tv), dof) for tv in t])

    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float(resid @ resid) / tss if tss > 0.0 else 0.0

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
    )


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
    the candidates' design, encoded once, less the dropped columns; a
    feature's significance is the minimum p-value across its columns, and
    the feature with the largest such p-value is dropped. Ties keep the
    alphabetically first feature. Features contributing no design columns
    (constant categoricals) are dropped before anything else.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(set(candidates)) != len(candidates):
        raise ValueError("duplicate candidate features")
    if k > len(candidates):
        raise KTooLargeError(f"k={k} but only {len(candidates)} candidates")

    initial = tuple(candidates)
    survivors = list(candidates)
    y = dataset.outcome.astype(np.float64)
    X, names, sources = one_hot(dataset, survivors)
    steps: list[EliminationStep] = []
    while len(survivors) > k:
        fit = ols_fit(X, y, names, sources)
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
        # one without the dropped feature's columns
        keep = [i for i, src in enumerate(sources) if src != worst]
        X = X[:, keep]
        names = [names[i] for i in keep]
        sources = [sources[i] for i in keep]
    return EliminationTrace(initial=initial, steps=steps, final=survivors)
