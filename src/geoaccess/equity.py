"""Inequality and group-difference statistics.

The Gini index is computed with the O(n log n) sorted form

    G = (2 * sum_i i * x_(i)) / (n * sum x) - (n + 1) / n

which is algebraically identical to the pairwise mean absolute
difference normalized by twice the mean. Group comparisons use Welch's
unequal-variance t-test with Welch-Satterthwaite degrees of freedom and
a two-sided p from the Student-t CDF ``scipy.special.stdtr``, imported
only when a test computes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, finite_floats, unit_scale

__all__ = [
    "GiniResult",
    "StratifiedGini",
    "TTestResult",
    "gini",
    "gini_stratified",
    "welch_t_test",
]


@dataclass(frozen=True)
class GiniResult:
    gini: float
    n: int
    mean: float


@dataclass(frozen=True)
class StratifiedGini:
    """Overall plus per-stratum Gini; an empty stratum is None, not an error."""

    overall: GiniResult
    urban: GiniResult | None
    rural: GiniResult | None


@dataclass(frozen=True)
class TTestResult:
    """Welch two-sample comparison of group a against group b.

    ``t`` is positive when group a's mean exceeds group b's. Variances
    use the sample (n-1) convention. Both samples are read at one unit
    scale; a variance a double cannot hold in input units reads 0 or inf.
    ``degenerate`` marks undersized samples or two zero-variance samples
    with equal means (reported as t=0, p=1); ``infinite_separation``
    marks two zero-variance samples with different means.
    """

    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    n_a: int
    n_b: int
    t: float
    df: float
    p: float
    degenerate: bool = False
    infinite_separation: bool = False


def gini(values) -> GiniResult:
    """Gini inequality index of a non-negative sample.

    0 means perfect equality and 1 the maximal inequality; an all-zero
    sample is defined as perfectly equal (G = 0).

    Raises
    ------
    ValidationError
        On an empty sample or any negative value.
    """
    x, e = unit_scale(finite_floats(list(values), "gini"))
    if x.size == 0:
        raise ValidationError("gini requires at least one value")
    if np.any(x < 0):
        raise ValidationError("gini requires non-negative values")
    n = x.size
    total = float(x.sum())
    if total == 0.0:
        return GiniResult(gini=0.0, n=n, mean=0.0)
    xs = np.sort(x, kind="stable")
    ranks = np.arange(1, n + 1, dtype=float)
    g = 2.0 * float(ranks @ xs) / (n * total) - (n + 1.0) / n
    # Clamp float residue at the perfectly-equal end.
    g = min(max(g, 0.0), 1.0)
    return GiniResult(gini=g, n=n, mean=float(np.ldexp(total / n, e)))


def gini_stratified(field, zones) -> StratifiedGini:
    """Overall, urban, and rural Gini of accessibility scores.

    Every zone must have a score in ``field``; a stratum with no zones
    yields None for that stratum.
    """
    scores = []
    urban_scores = []
    rural_scores = []
    for zone in zones:
        if zone.zone_id not in field.zone_scores:
            raise ValidationError(f"zone {zone.zone_id!r} missing from accessibility field")
        s = field.zone_scores[zone.zone_id]
        scores.append(s)
        (urban_scores if zone.urban else rural_scores).append(s)
    return StratifiedGini(
        overall=gini(scores),
        urban=gini(urban_scores) if urban_scores else None,
        rural=gini(rural_scores) if rural_scores else None,
    )


def welch_t_test(a, b) -> TTestResult:
    """Welch's unequal-variance t-test of group a versus group b.

    The caller labels the two groups; ``t`` carries the sign of
    ``mean_a - mean_b``. The two-sided p-value is ``2 * stdtr(df, -|t|)``,
    capped at 1; scipy flushes a tail near or below the double underflow
    limit (about 1e-308) to 0.

    Degenerate inputs never raise: undersized samples (n < 2) and two
    zero-variance samples with equal means come back flagged
    ``degenerate`` with t=0, p=1; zero variances with unequal means come
    back flagged ``infinite_separation`` with p=0.
    """
    xa, xb = (finite_floats(list(v), "welch_t_test") for v in (a, b))
    if xa.size == 0 or xb.size == 0:
        raise ValidationError("welch_t_test requires non-empty samples")
    n_a, n_b = int(xa.size), int(xb.size)
    both, e = unit_scale(np.concatenate((xa, xb)))  # one power for both samples
    xa, xb = both[:n_a], both[n_a:]
    mean_a, mean_b = float(xa.mean()), float(xb.mean())
    var_a = float(xa.var(ddof=1)) if n_a > 1 else 0.0
    var_b = float(xb.var(ddof=1)) if n_b > 1 else 0.0
    with np.errstate(over="ignore"):  # a moment a double cannot hold reads inf, or 0
        moments = np.ldexp([mean_a, mean_b, var_a, var_b], [e, e, 2 * e, 2 * e]).tolist()
    fallback_df = float(max(n_a + n_b - 2, 1))

    constant = var_a == 0.0 and var_b == 0.0
    if n_a < 2 or n_b < 2 or (constant and mean_a == mean_b):
        return TTestResult(*moments, n_a, n_b, t=0.0, df=fallback_df, p=1.0, degenerate=True)
    if constant:
        # Two finite doubles that differ have a nonzero difference.
        return TTestResult(*moments, n_a, n_b, t=math.copysign(math.inf, mean_a - mean_b),
                           df=fallback_df, p=0.0, infinite_separation=True)

    se_a = var_a / n_a
    se_b = var_b / n_b
    se2 = se_a + se_b
    t = (mean_a - mean_b) / np.sqrt(se2)
    df = se2 * se2 / (se_a * se_a / (n_a - 1) + se_b * se_b / (n_b - 1))
    from scipy.special import stdtr

    p = min(1.0, 2.0 * float(stdtr(df, -abs(t))))
    return TTestResult(*moments, n_a, n_b, t=float(t), df=float(df), p=p)
