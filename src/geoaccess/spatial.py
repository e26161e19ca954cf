"""Spatial association statistics over point features.

Three building blocks:

* binary spatial weights, either k-nearest-neighbor or fixed distance
  band (the "star" variants include the focal feature itself);
* Getis-Ord Gi* hot/cold-spot z-scores with fixed-threshold or
  Benjamini-Hochberg (FDR) confidence classes;
* a local bivariate association measure: the Pearson correlation of two
  variables over each feature's neighborhood, tested by conditional
  permutation (hold x, globally permute y with seeded, per-permutation
  random streams).

The neighbor graph is one binary CSR matrix; neighborhood sums for both
statistics are products with it.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import erfc

from .errors import ValidationError
from .geo import SpatialIndex, chord_bound

HOT_99, HOT_95, HOT_90 = "HotSpot99", "HotSpot95", "HotSpot90"
COLD_99, COLD_95, COLD_90 = "ColdSpot99", "ColdSpot95", "ColdSpot90"
NOT_SIGNIFICANT = "NotSignificant"

POSITIVE = "PositiveSignificant"
NEGATIVE = "NegativeSignificant"
UNDEFINED = "Undefined"

WEIGHT_SCHEMES = ("fixed_band", "knn")

# Two-sided confidence cutoffs for 90/95/99 percent.
_Z_CUTS = ((2.576, HOT_99, COLD_99), (1.960, HOT_95, COLD_95), (1.645, HOT_90, COLD_90))
# Benjamini-Hochberg levels of the same three classes.
_FDR_ALPHAS = (0.01, 0.05, 0.10)
# Pseudo p-value at or below which a local association is significant.
_BIVARIATE_ALPHA = 0.05
# The fewest permutations M whose least pseudo p-value, 1 / (M + 1), reaches it.
MIN_PERMUTATIONS = 19
MIN_NEIGHBORS = 2

# The most permuted y columns pushed through the neighbor matrix in one product.
_PERM_BLOCK = 64

__all__ = [
    "WEIGHT_SCHEMES",
    "SpatialWeights",
    "HotSpotResult",
    "BivariateResult",
    "build_weights",
    "getis_ord_gi_star",
    "classify_hotspots",
    "benjamini_hochberg",
    "local_bivariate",
    "local_bivariates",
]


@dataclass(frozen=True)
class SpatialWeights:
    """Binary neighbor graph as an n x n CSR matrix of ones.

    Row ``i`` of ``matrix`` holds ascending feature indices and includes
    ``i`` itself exactly when ``include_self`` is set. ``isolated`` flags
    fixed-band features with no neighbor besides themselves.
    """

    ids: list
    matrix: sparse.csr_array
    include_self: bool
    isolated: np.ndarray

    @property
    def neighbors(self) -> list:
        """Per-feature neighbor index arrays (views of the matrix rows)."""
        return np.split(self.matrix.indices, self.matrix.indptr[1:-1])

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class HotSpotResult:
    ids: list
    z: np.ndarray
    p: np.ndarray
    category: list | None = None


@dataclass(frozen=True)
class BivariateResult:
    ids: list
    local_r: np.ndarray
    pseudo_p: np.ndarray
    category: list


def build_weights(points, scheme: str, include_self: bool, k: int | None = None,
                  band: float | None = None) -> SpatialWeights:
    """Construct binary spatial weights over (id, GeoPoint) features.

    "knn" takes the k nearest other features by great-circle distance,
    ties broken by id; "fixed_band" takes every other feature within the
    band, boundary included (the relation is symmetric by construction).
    A fixed-band feature with no in-band neighbor is flagged isolated,
    not rejected.

    Candidates come from a k-d tree on the sphere embedding and are
    re-checked by exact distance; memory grows with the neighbour count.
    """
    ids = [pid for pid, _ in points]
    n = len(ids)
    if n < 2:
        raise ValidationError(f"spatial weights require >= 2 features, got {n}")
    index = SpatialIndex(points)  # rejects a duplicate id by name
    own = np.arange(n, dtype=np.intp)
    isolated = np.zeros(n, dtype=bool)
    if scheme == "knn":
        if k is None or k < 1:
            raise ValidationError(f"knn weights require k >= 1, got {k!r}")
        if k >= n:
            raise ValidationError(f"knn k={k} must be smaller than the feature count {n}")
        # The k+1 nearest by chord (self included) reach past the k-th other
        # feature; every feature within that chord is a candidate, so all
        # ties at the k-th distance are seen and broken by id.
        reach, _ = index.tree.query(index.xyz, k=k + 1)
        hits = index.tree.query_ball_point(index.xyz, reach[:, k] * (1.0 + 1e-9) + 1e-9)
        rows = np.repeat(own, np.fromiter(map(len, hits), dtype=np.intp, count=n))
        cols = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp, count=rows.size)
        rows, cols = rows[rows != cols], cols[rows != cols]
        id_rank = np.empty(n, dtype=np.intp)
        id_rank[sorted(range(n), key=ids.__getitem__)] = own
        order = np.lexsort((id_rank[cols], index.arc_miles(rows, cols), rows))
        rows, cols = rows[order], cols[order]
        rank_in_row = np.arange(rows.size) - np.searchsorted(rows, rows)
        chosen = cols[rank_in_row < k].reshape(n, k)
        if include_self:
            chosen = np.column_stack((chosen, own))
        cols = np.sort(chosen, axis=1).ravel()
        rows = np.repeat(own, chosen.shape[1])
    elif scheme == "fixed_band":
        if band is None or not band > 0:
            raise ValidationError(f"fixed_band weights require band > 0, got {band!r}")
        i, j = index.tree.query_pairs(chord_bound(band), output_type="ndarray").astype(np.intp).T
        near = index.arc_miles(i, j) <= band
        i, j = i[near], j[near]
        isolated = np.bincount(np.concatenate((i, j)), minlength=n) == 0
        # Entry (row, col) as the key row * n + col: one sort orders rows
        # and the columns within them.
        keys = [i * n + j, j * n + i] + ([own * (n + 1)] if include_self else [])
        rows, cols = np.divmod(np.sort(np.concatenate(keys)), n)
    else:
        raise ValidationError(f"unknown weights scheme {scheme!r}; expected one of {WEIGHT_SCHEMES}")
    indptr = np.searchsorted(rows, np.arange(n + 1))
    matrix = sparse.csr_array((np.ones(cols.size), cols, indptr), shape=(n, n))
    return SpatialWeights(ids=list(ids), matrix=matrix, include_self=include_self,
                          isolated=isolated)


def getis_ord_gi_star(values, weights: SpatialWeights) -> HotSpotResult:
    """Getis-Ord Gi* z-scores and two-sided normal p-values.

    For feature i with binary weights over its neighborhood (self
    included; building the weights without the focal feature is
    rejected),

        z_i = (S1_i - mean * W_i) / (S * sqrt((n * W_i - W_i^2) / (n - 1)))

    where S1_i sums the values over the neighborhood, W_i counts it, and
    S is the population standard deviation of all values. Both come from
    the centred values x - mean, so S1_i - mean * W_i is one neighbourhood
    sum and a large common offset cancels before any sum. A degenerate
    denominator (constant field, or a neighborhood spanning everything)
    yields z = 0 and p = 1 for that feature.
    """
    if not weights.include_self:
        raise ValidationError("Gi* requires weights built with include_self=True")
    x = np.asarray(list(values), dtype=float)
    n = len(weights)
    if x.size != n:
        raise ValidationError(f"value count {x.size} does not match feature count {n}")
    if n < 3:
        raise ValidationError(f"Gi* requires at least 3 features, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("Gi* requires finite values")
    # A constant field has no spread, though its rounded mean may miss its value.
    d = x - x.mean() if x.min() < x.max() else np.zeros(n)
    s = math.sqrt(float((d * d).mean()))
    z = np.zeros(n)
    if s > 0.0:
        w = np.diff(weights.matrix.indptr).astype(float)
        bracket = (n * w - w * w) / (n - 1.0)
        ok = bracket > 0.0
        z[ok] = (weights.matrix @ d)[ok] / (s * np.sqrt(bracket[ok]))
    p = erfc(np.abs(z) / math.sqrt(2.0))
    return HotSpotResult(ids=list(weights.ids), z=z, p=p)


def benjamini_hochberg(p_values, alpha: float) -> np.ndarray:
    """Benjamini-Hochberg step-up rejections at FDR level alpha."""
    p = np.asarray(p_values, dtype=float)
    m = p.size
    order = np.argsort(p, kind="stable")
    thresholds = alpha * np.arange(1, m + 1) / m
    below = p[order] <= thresholds
    reject = np.zeros(m, dtype=bool)
    if below.any():
        cutoff = int(np.max(np.nonzero(below)[0])) + 1
        reject[order[:cutoff]] = True
    return reject


def classify_hotspots(result: HotSpotResult, fdr: bool = False) -> HotSpotResult:
    """Assign confidence categories to Gi* results.

    Without FDR, categories follow the fixed z cutoffs 1.645 / 1.960 /
    2.576. With FDR, Benjamini-Hochberg runs at the 0.10 / 0.05 / 0.01
    levels and each feature takes the strictest level at which it is
    rejected, capped at its fixed-threshold class so the correction can
    only ever demote.
    """
    n = len(result.ids)
    fixed_level = np.zeros(n, dtype=int)  # 0 none, 1=90, 2=95, 3=99
    for rank, (cut, _, _) in enumerate(reversed(_Z_CUTS), start=1):
        fixed_level[np.abs(result.z) >= cut] = rank
    level = fixed_level
    if fdr:
        fdr_level = np.zeros(n, dtype=int)
        for rank, alpha in enumerate(reversed(_FDR_ALPHAS), start=1):
            fdr_level[benjamini_hochberg(result.p, alpha)] = rank
        level = np.minimum(fdr_level, fixed_level)
    # Row ``level`` of the names, column 0 for z > 0 and 1 otherwise.
    names = np.array([(NOT_SIGNIFICANT, NOT_SIGNIFICANT)]
                     + [(hot, cold) for _, hot, cold in reversed(_Z_CUTS)])
    category = names[level, np.less_equal(result.z, 0.0).astype(int)].tolist()
    return HotSpotResult(ids=result.ids, z=result.z, p=result.p, category=category)


def check_int(name: str, value, least: int) -> None:
    # bool is an int subclass; True must not pass as 1.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def _first_rows(matrix, rows) -> np.ndarray:
    """For each of ``rows``, the first of ``rows`` whose matrix row has the same index list."""
    raw, first = matrix.indices.tobytes(), {}
    ends = (matrix.indptr.astype(np.int64) * matrix.indices.itemsize).tolist()
    return np.array([first.setdefault(raw[ends[i]:ends[i + 1]], i) for i in rows.tolist()],
                    dtype=np.intp)


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def local_bivariate(x, y, weights: SpatialWeights, permutations: int = 199, seed: int = 42,
                    min_neighbors: int = 8, workers: int = 1) -> BivariateResult:
    """``local_bivariates`` for one y. ``workers`` is validated and otherwise
    unused; it stays because perfbench/tracing.py still passes it."""
    check_int("workers", workers, 1)
    return local_bivariates(x, [y], weights, permutations, seed, min_neighbors)[0]


def local_bivariates(x, ys, weights: SpatialWeights, permutations: int = 199, seed: int = 42,
                     min_neighbors: int = 8) -> list[BivariateResult]:
    """Neighborhood Pearson correlation of x with each y in ``ys``, permutation-tested.

    For each feature, ``local_r`` is the correlation of (x, y) over the
    feature's neighborhood (itself included). Significance holds x fixed
    and globally permutes y; each permutation draws its own generator
    from (seed, permutation index), and the permutations are evaluated
    in equal blocks of columns spread over the usable cores, each block
    returning integer exceedance counts, so identical seeds give
    identical results whatever the core count. The pseudo p-value uses
    the (count + 1) / (permutations + 1) convention and can never be
    zero; at or below 0.05 a defined feature is Positive- or
    NegativeSignificant by the sign of its r.

    A feature is Undefined when its neighborhood is smaller than
    ``min_neighbors`` or either variable is constant there (its
    pseudo p-value is reported as 1). A permutation replicate whose
    y-variance degenerates contributes a correlation of zero.

    Every y shares one pass over the permutations and the x-side sums,
    so each result equals its own ``local_bivariate`` call bit for bit;
    rows Undefined whatever y is get no permutation sums, and rows with
    the same neighbour list share the sums, r and count of the first.
    """
    xv = np.asarray(list(x), dtype=float)
    yvs = [np.asarray(list(y), dtype=float) for y in ys]
    n = len(weights)
    if any(v.size != n for v in (xv, *yvs)):
        lengths = tuple(v.size for v in (xv, *yvs))
        raise ValidationError(f"variable lengths {lengths} do not match feature count {n}")
    if not all(np.all(np.isfinite(v)) for v in (xv, *yvs)):
        raise ValidationError("local_bivariate requires finite values")
    check_int("permutations", permutations, MIN_PERMUTATIONS)
    check_int("seed", seed, 0)
    check_int("min_neighbors", min_neighbors, MIN_NEIGHBORS)

    hood = weights.matrix
    if not weights.include_self:
        hood = hood + sparse.eye_array(n, format="csr")
    sizes = np.diff(hood.indptr).astype(float)
    sum_x = hood @ xv
    sxx = sizes * (hood @ (xv * xv)) - sum_x * sum_x
    rows = np.flatnonzero((sizes >= min_neighbors) & (sxx > 0.0))
    # Rows with the same neighbour list get the same sums in the same order,
    # so only the first row with each list is evaluated (``lead``), and
    # kept row j takes the results of lead[group[j]].
    lead, group = np.unique(_first_rows(hood, rows), return_inverse=True)
    # Evaluated rows as columns, broadcast against blocks of y columns.
    hood, sizes, sum_x, sxx = hood[lead], sizes[lead, None], sum_x[lead, None], sxx[lead, None]
    sxx_lo, sxx_hi = sxx.min(initial=np.inf), sxx.max(initial=0.0)

    def correlations(yv, y2, idx):
        """Per kept row, r for each column yv[idx], and where that y-variance is > 0."""
        ys = yv[idx]
        sum_y = hood @ ys
        syy = hood @ y2[idx]
        syy *= sizes
        syy -= sum_y * sum_y
        r = hood @ np.multiply(ys, xv[:, None], out=ys)
        r *= sizes
        sum_y *= sum_x
        r -= sum_y
        valid = syy > 0.0
        with np.errstate(over="ignore"):
            # A rounded product is monotonic in each factor, so the extreme
            # variances tell whether any product of two positive ones can
            # underflow to 0 or overflow; only then is a copy of syy kept.
            leaves_range = not (np.min(syy, where=valid, initial=np.inf) * sxx_lo > 0.0
                                and syy.max(initial=0.0) * sxx_hi < np.inf)
            own = syy.copy() if leaves_range else None
            syy *= sxx
        np.sqrt(syy, out=syy, where=valid)
        if leaves_range:
            # There, the product of the roots.
            extreme = valid & ((syy == 0.0) | (syy == np.inf))
            syy[extreme] = np.sqrt(own[extreme]) * np.sqrt(np.broadcast_to(sxx, syy.shape)[extreme])
        np.divide(r, syy, out=r, where=valid)
        np.copyto(r, 0.0, where=~valid)
        return np.clip(r, -1.0, 1.0, out=r), valid

    y2s = [yv * yv for yv in yvs]
    observed = [correlations(yv, y2, np.arange(n)[:, None]) for yv, y2 in zip(yvs, y2s)]
    abs_obs = [np.abs(r) for r, _ in observed]

    def exceedances(block):
        """Per y, how often each kept row's permuted |r| reaches its observed |r|."""
        idx = np.stack([np.random.default_rng([seed, m]).permutation(n) for m in block], axis=1)
        counts = []
        for yv, y2, a in zip(yvs, y2s, abs_obs):
            r, _ = correlations(yv, y2, idx)
            counts.append(np.count_nonzero(np.abs(r, out=r) >= a, axis=1))
        return counts

    # Equal blocks of at most _PERM_BLOCK, as many as a multiple of the core
    # count. scipy's CSR products release the GIL, so the blocks run side by
    # side: this thread takes every cores-th block and a pool the rest. The
    # counts are integers, so their sum is the same in any order.
    cores = _usable_cores()
    per = -(-permutations // (cores * -(-permutations // (cores * _PERM_BLOCK))))
    blocks = [range(s, min(s + per, permutations)) for s in range(0, permutations, per)]
    exceed = [np.zeros(lead.size, dtype=np.int64) for _ in yvs]
    with ThreadPoolExecutor(max(cores - 1, 1)) as pool:
        others = [pool.submit(exceedances, b) for i, b in enumerate(blocks) if i % cores]
        for counts in itertools.chain(map(exceedances, blocks[::cores]),
                                      (f.result() for f in others)):
            for total, count in zip(exceed, counts):
                total += count

    results = []
    for (r_obs, valid), count in zip(observed, exceed):
        r_obs, valid, count = r_obs[group, 0], valid[group, 0], count[group]
        defined = rows[valid]
        local_r = np.full(n, np.nan)
        local_r[defined] = r_obs[valid]
        pseudo_p = np.ones(n)
        pseudo_p[defined] = (count[valid] + 1.0) / (permutations + 1.0)
        # An Undefined row has p = 1, so it is never significant.
        significant = pseudo_p <= _BIVARIATE_ALPHA
        category = np.full(n, UNDEFINED, dtype=object)
        category[defined] = NOT_SIGNIFICANT
        category[significant & (local_r > 0)] = POSITIVE
        category[significant & (local_r < 0)] = NEGATIVE
        results.append(BivariateResult(ids=list(weights.ids), local_r=local_r, pseudo_p=pseudo_p,
                                       category=category.tolist()))
    return results
