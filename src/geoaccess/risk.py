"""Composite health-risk index from correlation-matrix PCA.

Variables are standardized to zero mean and unit sample variance, the
correlation matrix is diagonalized with ``numpy.linalg.eigh``, and the
index is the explained-variance-weighted sum of the retained
component scores. Components are kept up to a cumulative
explained-variance target and each is sign-aligned so that a larger
index always means a larger overall burden of the input variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, finite_floats, unit_scale

DEFAULT_VARIANCE_TARGET = 0.75
# Relative size below which two magnitudes tie and a covariance is zero.
_TIE = 1e-12

__all__ = [
    "DEFAULT_VARIANCE_TARGET",
    "PcaModel",
    "RiskIndex",
    "standardize",
    "pca_fit",
    "retained_components",
    "health_risk_index",
    "fit_risk_model",
]


@dataclass(frozen=True)
class PcaModel:
    """Eigenstructure of a correlation matrix.

    ``loadings`` holds orthonormal eigenvectors as columns, ordered by
    descending eigenvalue; within each eigenvector the entry of largest
    magnitude is non-negative, which pins the otherwise arbitrary sign.
    Entries within 1e-12 relative of the largest tie, and the first of
    them decides, so rounding does not pick the sign.
    """

    eigenvalues: np.ndarray
    loadings: np.ndarray
    explained_ratio: np.ndarray


@dataclass(frozen=True)
class RiskIndex:
    scores: np.ndarray
    retained_components: int
    captured_variance: float


def standardize(matrix, columns=None):
    """Column-wise standardization to mean 0 and sample (n-1) std 1.

    Each column is read at unit scale; returns (standardized, means, stds), the
    last two in input units (a std a double cannot hold reads inf). A constant
    column cannot be standardized and is rejected by name (or index when unnamed).
    """
    x = finite_floats(matrix, "standardization")
    if x.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValidationError("standardization requires at least 2 rows")
    x, e = unit_scale(x, axis=0)
    means = x.mean(axis=0)
    stds = x.std(axis=0, ddof=1)
    for j, s in enumerate(stds):
        if s == 0.0:
            name = columns[j] if columns is not None else j
            raise ValidationError(f"constant column {name!r} cannot be standardized")
    with np.errstate(over="ignore"):
        return (x - means) / stds, np.ldexp(means, e), np.ldexp(stds, e)


def pca_fit(standardized) -> PcaModel:
    """Fit PCA on an already-standardized matrix via its correlation matrix.

    Eigenvalues come back in descending order with orthonormal, sign-fixed
    eigenvectors; explained ratios are eigenvalues over their sum (which
    equals the variable count, the trace of a correlation matrix).
    """
    z = finite_floats(standardized, "pca_fit")
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValidationError(f"pca_fit requires a 2-d matrix with >= 2 rows, got {z.shape}")
    n = z.shape[0]
    corr = (z.T @ z) / (n - 1.0)
    corr = 0.5 * (corr + corr.T)
    eigenvalues, vectors = np.linalg.eigh(corr)
    eigenvalues = np.where(eigenvalues < 0.0, 0.0, eigenvalues)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    for c in range(vectors.shape[1]):
        magnitude = np.abs(vectors[:, c])
        lead = int(np.argmax(magnitude >= (1.0 - _TIE) * magnitude.max()))
        if vectors[lead, c] < 0.0:
            vectors[:, c] = -vectors[:, c]
    explained = eigenvalues / eigenvalues.sum()
    return PcaModel(eigenvalues=eigenvalues, loadings=vectors, explained_ratio=explained)


def retained_components(explained_ratio, target: float):
    """Minimal component count whose cumulative explained share meets target."""
    if not 0.0 < target <= 1.0:
        raise ValidationError(f"variance target must be in (0, 1], got {target!r}")
    cum = np.cumsum(np.asarray(explained_ratio, dtype=float))
    # A hair of tolerance so a cumulative sum that is 1.0 up to rounding
    # still satisfies a target of exactly 1.0.
    hits = np.nonzero(cum >= target - 1e-12)[0]
    if hits.size == 0:
        raise ValidationError("explained ratios never reach the variance target")
    m = int(hits[0]) + 1
    return m, float(cum[m - 1])


def health_risk_index(model: PcaModel, standardized, target: float = DEFAULT_VARIANCE_TARGET) -> RiskIndex:
    """Composite index: variance-weighted sum of aligned component scores.

    Each retained component is flipped, when needed, so its scores
    correlate non-negatively with the zone-wise mean of the standardized
    inputs; a covariance within 1e-12 of the product of the two centred
    norms counts as zero and keeps the fitted orientation. Higher index
    values therefore mean higher overall prevalence.
    """
    z = np.asarray(standardized, dtype=float)
    if z.ndim != 2 or z.shape[1] != model.loadings.shape[0]:
        raise ValidationError(
            f"matrix shape {z.shape} does not match the fitted model "
            f"({model.loadings.shape[0]} variables)"
        )
    m, captured = retained_components(model.explained_ratio, target)
    scores_by_component = z @ model.loadings[:, :m]
    overall = z.mean(axis=1)
    overall_centered = overall - overall.mean()
    index = np.zeros(z.shape[0])
    for c in range(m):
        t = scores_by_component[:, c]
        t_centered = t - t.mean()
        cov = float(t_centered @ overall_centered)
        bound = _TIE * float(np.linalg.norm(t_centered) * np.linalg.norm(overall_centered))
        sign = -1.0 if cov < -bound else 1.0
        index += float(model.explained_ratio[c]) * sign * t
    return RiskIndex(scores=index, retained_components=m, captured_variance=captured)


def fit_risk_model(matrix, columns=None):
    """Standardize a raw matrix and fit the PCA model in one step."""
    z, _, _ = standardize(matrix, columns=columns)
    return pca_fit(z), z
