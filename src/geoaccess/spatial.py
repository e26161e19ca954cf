"""Spatial association statistics over point features.

Three building blocks:

* binary spatial weights, either k-nearest-neighbor or fixed distance
  band, each feature's row holding the feature itself (the "star");
* Getis-Ord Gi* hot/cold-spot z-scores with fixed-threshold or
  Benjamini-Hochberg (FDR) confidence classes;
* a local bivariate association measure: the Pearson correlation of two
  variables over each feature's neighborhood, tested by conditional
  permutation (hold x, globally permute y with seeded, per-permutation
  random streams).

The neighbor graph is held as the two index arrays of a binary CSR
matrix. Neighborhood sums for both statistics run through scipy's compiled
CSR kernel (``scipy.sparse._sparsetools``), the one a ``csr_array @``
product calls, loaded without the rest of the ``scipy.sparse`` package.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import ValidationError, check_int, check_range, finite_floats, unit_scale
from .geo import SpatialIndex, _libm, chord_bound, knn_candidates, near_pairs

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

# The most permuted y columns summed over the neighborhoods in one kernel call.
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
    """Binary neighbor graph as the index arrays of an n x n CSR matrix of ones.

    Feature ``i``'s neighbors are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending, ``i`` itself among them: both local statistics count the
    focal feature in its own neighborhood.
    """

    ids: list
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def isolated(self) -> np.ndarray:
        """Features with no neighbor besides themselves (fixed band only)."""
        return np.diff(self.indptr) == 1

    @property
    def neighbors(self) -> list:
        """Per-feature neighbor index arrays (views of ``indices``)."""
        return np.split(self.indices, self.indptr[1:-1])

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


def build_weights(points, scheme: str, include_self: bool = True, k: int | None = None,
                  band: float | None = None) -> SpatialWeights:
    """Construct binary spatial weights over (id, GeoPoint) features.

    Each feature's row holds the feature itself and its neighbors: under
    "knn" the k nearest other features by great-circle distance, ties
    broken by id; under "fixed_band" every other feature within the band,
    boundary included (the relation is symmetric by construction). A
    fixed-band feature with no in-band neighbor is flagged isolated, not
    rejected. ``include_self`` accepts only True; it stays because
    perfbench/tracing.py still passes it.

    Candidates come from a cell-grid search on the sphere embedding and
    are re-checked by exact distance; memory grows with the neighbour
    count.
    """
    if include_self is not True:
        raise ValidationError(f"build_weights always includes the focal feature, "
                              f"got include_self={include_self!r}")
    ids = [pid for pid, _ in points]
    n = len(ids)
    if n < 2:
        raise ValidationError(f"spatial weights require >= 2 features, got {n}")
    index = SpatialIndex(points)  # rejects a duplicate id by name
    own = np.arange(n, dtype=np.intp)
    if scheme == "knn":
        check_int("k", k, 1)
        if k >= n:
            raise ValidationError(f"knn k={k} must be smaller than the feature count {n}")
        # Every tie at the k-th distance is a candidate, and is broken by id.
        rows, cols = knn_candidates(index.xyz, k)
        rows, cols = rows[rows != cols], cols[rows != cols]
        # A row with exactly k candidates takes them all; only the
        # candidates of longer rows are ranked by (row, arc, id).
        take = np.bincount(rows, minlength=n)[rows] == k
        extra = np.flatnonzero(~take)
        if extra.size:
            id_rank = np.empty(n, dtype=np.intp)
            id_rank[sorted(range(n), key=ids.__getitem__)] = own
            r, c = rows[extra], cols[extra]
            order = np.lexsort((id_rank[c], index.arc_miles(r, c), r))
            take[extra[order[np.arange(r.size) - np.searchsorted(r, r) < k]]] = True
        cols = np.sort(np.column_stack((cols[take].reshape(n, k), own)), axis=1).ravel()
        rows = np.repeat(own, k + 1)
    elif scheme == "fixed_band":
        check_range(band, "band", strict=True)
        i, j, _ = near_pairs(index.xyz, None, chord_bound(band))
        near = index.arc_miles(i, j) <= band
        i, j = i[near], j[near]
        # Entry (row, col) as the key row * n + col: one sort orders rows
        # and the columns within them.
        keys = np.concatenate((i * n + j, j * n + i, own * (n + 1)))
        rows, cols = np.divmod(np.sort(keys), n)
    else:
        raise ValidationError(f"unknown weights scheme {scheme!r}; expected one of {WEIGHT_SCHEMES}")
    # scipy's index rule: int32 while every index and the entry count fit.
    index_type = np.int32 if max(n, cols.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(index_type)
    return SpatialWeights(ids=list(ids), indptr=indptr, indices=cols.astype(index_type))


@functools.cache
def _csr_kernel():
    """scipy's compiled CSR routines, ``scipy.sparse._sparsetools``, without the
    ``scipy.sparse`` package: its ``__init__`` loads ~14 MB that no statistic
    here uses. The module is loaded under its own name, so a later
    ``import scipy.sparse`` reuses it."""
    import scipy  # the package root alone; it sets up the wheel's shared libraries

    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    finder = FileFinder(os.path.join(os.path.dirname(scipy.__file__), "sparse"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:  # no such file: the same module, loaded with its package
        from scipy.sparse import _sparsetools

        return _sparsetools
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _hood_sums(indptr, indices, values: np.ndarray) -> np.ndarray:
    """Per row of a binary CSR graph, the sums of ``values`` (1-d, or one column
    per variable) over the row's indices in their order: the kernel that a
    ``csr_array`` of ones calls for ``@ values`` of that shape, so the same bits."""
    kernel, rows, n = _csr_kernel(), indptr.size - 1, values.shape[0]
    ones = np.ones(indices.size)
    if values.ndim == 1 or values.shape[1] == 1:
        out = np.zeros(rows)
        kernel.csr_matvec(rows, n, indptr, indices, ones, values.ravel(), out)
        return out.reshape((rows,) + values.shape[1:])
    out = np.zeros((rows, values.shape[1]))
    kernel.csr_matvecs(rows, n, values.shape[1], indptr, indices, ones, values.ravel(),
                       out.ravel())
    return out


def _row_subset(indptr, indices, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and ``indices`` of the graph's ``rows``, in that order."""
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    sub_ptr = np.zeros(rows.size + 1, dtype=indptr.dtype)
    np.cumsum(sizes, out=sub_ptr[1:])
    at = np.repeat(starts - sub_ptr[:-1], sizes) + np.arange(sub_ptr[-1])
    return sub_ptr, indices[at]


def getis_ord_gi_star(values, weights: SpatialWeights) -> HotSpotResult:
    """Getis-Ord Gi* z-scores and two-sided normal p-values.

    For feature i with binary weights over its neighborhood, the feature
    itself included (the starred Gi* of Ord & Getis 1995),

        z_i = (S1_i - mean * W_i) / (S * sqrt((n * W_i - W_i^2) / (n - 1)))

    where S1_i sums the values over the neighborhood, W_i counts it, and
    S is the population standard deviation of all values. Both come from
    the centred values x - mean, so S1_i - mean * W_i is one neighbourhood
    sum and a large common offset cancels before any sum. Read at unit scale
    (``errors.unit_scale``), no sum leaves the double range. A degenerate
    denominator (constant field, or a neighborhood spanning everything)
    yields z = 0 and p = 1 for that feature. The two-sided p is libm's
    ``math.erfc(|z| / sqrt(2))``, within 4e-16 relative of erfc at that argument.
    """
    x = unit_scale(finite_floats(list(values), "Gi*"))[0]
    n = len(weights)
    if x.size != n:
        raise ValidationError(f"value count {x.size} does not match feature count {n}")
    if n < 3:
        raise ValidationError(f"Gi* requires at least 3 features, got {n}")
    # A constant field has no spread, though its rounded mean may miss its value.
    d = x - x.mean() if x.min() < x.max() else np.zeros(n)
    s = math.sqrt(float((d * d).mean()))
    z = np.zeros(n)
    if s > 0.0:
        w = np.diff(weights.indptr).astype(float)
        bracket = (n * w - w * w) / (n - 1.0)
        ok = bracket > 0.0
        z[ok] = _hood_sums(weights.indptr, weights.indices, d)[ok] / (s * np.sqrt(bracket[ok]))
    p = _libm(np.abs(z) / math.sqrt(2.0), math.erfc)
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


def _first_rows(indptr, indices, rows) -> np.ndarray:
    """For each of ``rows``, the first of ``rows`` whose graph row has the same index list."""
    raw, first = indices.tobytes(), {}
    ends = (indptr.astype(np.int64) * indices.itemsize).tolist()
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
    feature's neighborhood, itself included as in Gi*. Significance holds x fixed
    and globally permutes y; each permutation draws its own generator
    from (seed, permutation index), and the permutations are evaluated
    in equal blocks of columns spread over the usable cores, each block
    returning integer exceedance counts, so identical seeds give
    identical results whatever the core count. The pseudo p-value uses
    the (count + 1) / (permutations + 1) convention and can never be
    zero; at or below 0.05 a defined feature is Positive- or
    NegativeSignificant by the sign of its r.

    x and each y are read at unit scale (``errors.unit_scale``). A feature is
    Undefined (pseudo p-value 1) when its neighborhood is smaller than
    ``min_neighbors`` or the product of its two spreads is 0 there: a variable
    is constant, or both spreads are under ~2**-270 of their largest magnitudes.
    A permutation replicate whose product is 0 contributes an r of zero.

    Every y shares one pass over the permutations and the x-side sums,
    so each result equals its own ``local_bivariate`` call bit for bit;
    rows Undefined whatever y is get no permutation sums, and rows with
    the same neighbour list share the sums, r and count of the first.
    """
    xv, *yvs = (unit_scale(finite_floats(list(v), "local_bivariate"))[0] for v in (x, *ys))
    n = len(weights)
    if any(v.size != n for v in (xv, *yvs)):
        lengths = tuple(v.size for v in (xv, *yvs))
        raise ValidationError(f"variable lengths {lengths} do not match feature count {n}")
    check_int("permutations", permutations, MIN_PERMUTATIONS)
    check_int("seed", seed, 0)
    check_int("min_neighbors", min_neighbors, MIN_NEIGHBORS)

    indptr, indices = weights.indptr, weights.indices
    sizes = np.diff(indptr).astype(float)
    sum_x = _hood_sums(indptr, indices, xv)
    sxx = sizes * _hood_sums(indptr, indices, xv * xv) - sum_x * sum_x
    rows = np.flatnonzero((sizes >= min_neighbors) & (sxx > 0.0))
    # Rows with the same neighbour list get the same sums in the same order,
    # so only the first row with each list is evaluated (``lead``), and
    # kept row j takes the results of lead[group[j]].
    lead, group = np.unique(_first_rows(indptr, indices, rows), return_inverse=True)
    # Evaluated rows as columns, broadcast against blocks of y columns.
    hood = _row_subset(indptr, indices, lead)
    sizes, sum_x, sxx = sizes[lead, None], sum_x[lead, None], sxx[lead, None]

    def correlations(yv, y2, idx):
        """Per kept row, r for each column yv[idx], and where the variance product is > 0."""
        ys = yv[idx]
        sum_y = _hood_sums(*hood, ys)
        syy = _hood_sums(*hood, y2[idx])
        syy *= sizes
        syy -= sum_y * sum_y
        r = _hood_sums(*hood, np.multiply(ys, xv[:, None], out=ys))
        r *= sizes
        sum_y *= sum_x
        r -= sum_y
        syy *= sxx
        valid = syy > 0.0
        np.sqrt(syy, out=syy, where=valid)
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
    # count. scipy's CSR kernel releases the GIL, so the blocks run side by
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
