"""Geographic primitives: points, great-circle distance, radius queries.

Distances are great-circle miles on a sphere of radius
``EARTH_RADIUS_MILES`` (the IUGG mean radius). The value is fixed as a
constant so that results are bit-reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ValidationError, check_range

EARTH_RADIUS_MILES = 3958.7613
# The factor CPython's math.radians multiplies by.
_DEG = math.pi / 180.0

__all__ = [
    "EARTH_RADIUS_MILES",
    "GeoPoint",
    "SpatialIndex",
    "haversine_miles",
    "chord_bound",
    "near_pairs",
    "knn_candidates",
]


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in degrees.

    Latitude must lie in [-90, 90] and longitude in [-180, 180];
    out-of-range values are rejected at construction.
    """

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and -90.0 <= self.lat <= 90.0):
            raise ValidationError(f"latitude {self.lat!r} outside [-90, 90]")
        if not (math.isfinite(self.lon) and -180.0 <= self.lon <= 180.0):
            raise ValidationError(f"longitude {self.lon!r} outside [-180, 180]")


def haversine_miles(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in miles.

    Symmetric, non-negative, and zero exactly when the two points carry
    identical coordinates. A one-pair call of the distance
    :meth:`SpatialIndex.pairs_within` computes, so both give the same bits.
    """
    return _haversine(*_coords([a]), *_coords([b])).tolist()[0]


def _libm(values: np.ndarray, *steps) -> np.ndarray:
    """``steps`` applied in turn to each element of the 1-D float array ``values``.

    A step is a ``math`` function, or a pair such as ``(pow, 2)`` for
    ``pow(v, 2)``, the libm ``pow`` of ``v ** 2``. numpy's ufuncs for these
    may take SIMD kernels whose last bits differ from libm, so every
    per-element libm call is a Python-float call mapped here at C level;
    IEEE-exact steps (+, -, *, /, sqrt, min) stay numpy, between calls.
    """
    out = values.tolist()
    for step in steps:
        out = map(step[0], out, repeat(step[1])) if isinstance(step, tuple) else map(step, out)
    return np.fromiter(out, float, values.size)


def _coords(points):
    """Latitude, longitude and libm ``cos(radians(lat))`` arrays of ``points``."""
    lat = np.array([p.lat for p in points], dtype=float)
    lon = np.array([p.lon for p in points], dtype=float)
    return lat, lon, _libm(lat * _DEG, math.cos)


def _haversine(lat1, lon1, cos1, lat2, lon2, cos2) -> np.ndarray:
    """Haversine miles from point 1 to point 2, elementwise.

    Bit for bit ``2 R asin(min(1, sqrt(s)))`` with
    ``s = sin(dphi / 2) ** 2 + cos1 * cos2 * sin(dlam / 2) ** 2``; sine,
    square and arcsine go through :func:`_libm`.
    """
    s = (_libm((lat2 - lat1) * _DEG / 2.0, math.sin, (pow, 2))
         + cos1 * cos2 * _libm((lon2 - lon1) * _DEG / 2.0, math.sin, (pow, 2)))
    return 2.0 * EARTH_RADIUS_MILES * _libm(np.minimum(1.0, np.sqrt(s)), math.asin)


def chord_bound(radius: float) -> float:
    """Straight-line bound, in miles through the sphere, for an arc of ``radius`` miles.

    Chord length is monotone in arc length. The bound is slightly
    inflated so that :func:`near_pairs` on the sphere embedding keeps
    every pair whose exact great-circle distance is within ``radius``;
    callers then re-check each candidate exactly.
    """
    half_angle = min(radius / (2.0 * EARTH_RADIUS_MILES), math.pi / 2.0)
    return 2.0 * EARTH_RADIUS_MILES * math.sin(half_angle) * (1.0 + 1e-9) + 1e-9


# Cells are a little over bound / _SPLIT wide, so a pair within the bound
# lies at most _SPLIT cells apart on each axis. Halved cells search 6.25
# bound**2 around a point, where cells a bound wide search 9.
_SPLIT = 2


def near_pairs(a, b, bound: float):
    """Every pair of a point of ``a`` and a point of ``b`` at most ``bound`` apart.

    ``a`` and ``b`` are (n, 3) float arrays such as :attr:`SpatialIndex.xyz`;
    with ``b`` None the search runs within ``a`` and returns each pair
    once, as ``i < j``. A pair is kept when its squared distance
    ``(dx * dx + dy * dy) + dz * dz`` is at most ``bound * bound``.
    Returns index arrays ``i`` (into ``a``) and ``j``, and those squared
    distances, in no promised order.

    The points are projected onto a plane and bucketed in square cells,
    so that a pair within ``bound`` lies in nearby cells (Bentley, Stanat
    & Williams 1977). The candidates of one column of nearby cells are
    expanded and filtered at a time, so memory grows with the pairs kept.
    """
    within = b is None
    b = a if within else b
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    pts = a if within else np.concatenate((a, b))
    # The plane is perpendicular to the points' mean direction, or to a
    # fixed axis where that is (near) zero. Its axes are the unit vector
    # least aligned with the normal, less its part along the normal, and
    # their cross product, both normalised: the projection is orthogonal,
    # so it never lengthens a distance.
    mean = pts.sum(axis=0)
    norm = math.sqrt(float(mean @ mean))
    normal = mean / norm if norm > 1e-12 * float(np.abs(pts).sum()) else np.array([0.0, 0.0, 1.0])
    first = -normal[np.argmin(np.abs(normal))] * normal
    first[np.argmin(np.abs(normal))] += 1.0
    second = normal[[1, 2, 0]] * first[[2, 0, 1]] - normal[[2, 0, 1]] * first[[1, 2, 0]]
    flat = pts @ np.array([first / math.sqrt(first @ first),
                           second / math.sqrt(second @ second)]).T
    lo = flat.min(axis=0)
    # A little wider than bound / _SPLIT, against rounding in the
    # projection, and at most 2**20 cells a side, so the keys fit an integer.
    width = max(bound * (1.0 + 1e-6) / _SPLIT,
                float((flat.max(axis=0) - lo).max()) * 2.0 ** -20) or 1.0
    cell = ((flat - lo) / width).astype(np.intp)
    # The second coordinate is shifted by _SPLIT, so that the cells
    # (x, y - _SPLIT) to (x, y + _SPLIT) have consecutive keys.
    stride = int(cell[:, 1].max()) + 2 * _SPLIT + 1
    key = cell[:, 0] * stride + cell[:, 1] + _SPLIT
    # Both sets in key order: each binary search starts where the last one
    # ended, and one range of the sorted keys holds a column of cells.
    order = np.argsort(key, kind="stable")
    a_order = order if within else order[order < len(a)]
    b_order = order if within else order[order >= len(a)] - len(a)
    a_keys, b_keys = key[a_order], key[b_order + (0 if within else len(a))]
    a_cols, b_cols = a[a_order].T.copy(), b[b_order].T.copy()
    pairs = []

    def keep(start, stop):
        """Pairs (q, pos) for every pos in range(start[q], stop[q]) within the bound."""
        count = stop - start
        ends = np.cumsum(count)
        q = np.repeat(np.arange(count.size), count)
        pos = np.arange(ends[-1]) + np.repeat(start - ends + count, count)
        d2 = np.zeros(q.size)
        for a_c, b_c in zip(a_cols, b_cols):
            d = a_c.take(q)
            d -= b_c.take(pos)
            d *= d
            d2 += d
        near = d2 <= bound * bound
        pairs.append((q[near], pos[near], d2[near]))

    if within:
        # Each point meets those after it in its own cell and above it in
        # its column, then those in the columns to its right.
        keep(np.arange(1, len(a) + 1), np.searchsorted(b_keys, a_keys + _SPLIT, "right"))
    for dx in range(1, _SPLIT + 1) if within else range(-_SPLIT, _SPLIT + 1):
        keep(np.searchsorted(b_keys, a_keys + (dx * stride - _SPLIT), "left"),
             np.searchsorted(b_keys, a_keys + (dx * stride + _SPLIT), "right"))
    q, pos, d2 = (np.concatenate(part) for part in zip(*pairs))
    i, j = a_order[q], b_order[pos]
    if within:
        i, j = np.minimum(i, j), np.maximum(i, j)
    return i, j, d2


def knn_candidates(xyz, k: int):
    """Pairs ``(i, j)``, self pairs among them, holding each point's ``k`` nearest others.

    The pairs come grouped by ``i``, in ascending order.

    Point ``i`` keeps every ``j`` within ``reach * (1 + 1e-9) + 1e-9``,
    ``reach`` being the distance to its ``(k + 1)``-th nearest point,
    itself included, so the callers' exact ranking sees every tie at the
    ``k``-th distance. The search radius grows only for points not yet
    resolved: a point is resolved at radius ``r`` once ``k + 1`` points
    lie within ``(r - 1e-9) / (1 + 1e-9)``, for its ball then lies within
    ``r``. ``k`` must be below ``len(xyz)``.
    """
    n = len(xyz)
    # The middle halves of the two widest axes bound about a quarter of the
    # points, and the middle half of the widest axis half of them. Start at
    # half the radius that would hold k + 1 points at that density on a
    # plane, or on a line, as denser parts resolve sooner.
    q1, q3 = np.quantile(xyz, [0.25, 0.75], axis=0)
    side = np.sort(q3 - q1)[1:]
    radius = max(math.sqrt(float(side[0] * side[1]) * 4.0 * (k + 1) / (math.pi * n)),
                 float(side[1]) * (k + 1) / n, 1e-6) / 2.0
    todo = np.arange(n)
    found = []
    while todo.size:
        i, j, d2 = near_pairs(xyz[todo], xyz, radius)
        inner = (radius - 1e-9) / (1.0 + 1e-9)
        done = np.bincount(i[d2 <= inner * inner], minlength=todo.size) > k
        mine = done[i]
        found.append((todo[i[mine]], j[mine], d2[mine]))
        todo = todo[~done]
        # No two points lie 4R apart, so every point resolves there.
        radius = min(radius * 1.5, 4.0 * EARTH_RADIUS_MILES)
    i, j, d2 = (np.concatenate(part) for part in zip(*found))
    # Each point's reach is the (k + 1)-th of its distances in (point, distance)
    # order; the ranks of the distances make that one integer sort.
    rank = np.empty(d2.size, dtype=np.intp)
    rank[np.argsort(d2)] = np.arange(d2.size)
    by_point = np.argsort(i * d2.size + rank)
    reach = np.sqrt(d2[by_point[np.searchsorted(i[by_point], np.arange(n)) + k]])
    by_point = by_point[d2[by_point] <= (reach * (1.0 + 1e-9) + 1e-9)[i[by_point]] ** 2]
    return i[by_point], j[by_point]


class SpatialIndex:
    """Radius-query index over identified points.

    :func:`near_pairs` on the sphere embedding prunes candidates; every
    candidate is then re-checked with the haversine distance over the pair
    arrays, from the per-point ``lat``, ``lon`` and libm ``cos_lat`` kept
    here, so query results are exactly what a brute-force linear scan with
    :func:`haversine_miles` returns. The index is immutable after
    construction and safe to share across threads. Ids must be unique; a
    duplicate is rejected by name. The embedding ``xyz`` (in miles) is
    exposed for neighbour queries, and :meth:`arc_miles` measures the
    pairs they return.
    """

    def __init__(self, points):
        self.ids = [pid for pid, _ in points]
        seen = set()
        for pid in self.ids:
            if pid in seen:
                raise ValidationError(f"duplicate id in spatial index: {pid!r}")
            seen.add(pid)
        self.points = [pt for _, pt in points]
        self.lat, self.lon, self.cos_lat = _coords(self.points)
        self._phi = np.radians(self.lat)
        self._lam = np.radians(self.lon)
        self._cos_phi = np.cos(self._phi)
        self.xyz = EARTH_RADIUS_MILES * np.column_stack((
            self._cos_phi * np.cos(self._lam), self._cos_phi * np.sin(self._lam),
            np.sin(self._phi)))

    def __len__(self) -> int:
        return len(self.ids)

    def arc_miles(self, i, j) -> np.ndarray:
        """Haversine miles from point ``i[m]`` to point ``j[m]``, elementwise.

        The numpy operations are those of a full distance matrix, so each
        pair gets the same bits whichever pairs are asked for.
        """
        dphi = 0.5 * (self._phi[i] - self._phi[j])
        dlam = 0.5 * (self._lam[i] - self._lam[j])
        s = np.sin(dphi) ** 2 + self._cos_phi[i] * self._cos_phi[j] * np.sin(dlam) ** 2
        return 2.0 * EARTH_RADIUS_MILES * np.arcsin(np.minimum(1.0, np.sqrt(s)))

    def pairs_within(self, other: SpatialIndex, radius: float):
        """Every pair of a point here and a point of ``other`` at most ``radius`` apart.

        Returns index arrays ``i`` (into this index) and ``j`` (into
        ``other``) sorted by (i, j), and the distances as a float array,
        each bit for bit ``haversine_miles(self.points[i], other.points[j])``.
        Candidates come from :func:`near_pairs` under :func:`chord_bound`
        and are measured together over the pair arrays, so the pairs are
        exactly those a brute-force scan keeps.
        """
        check_range(radius, "radius")
        i, j, _ = near_pairs(self.xyz, other.xyz, chord_bound(radius))
        # One integer key per pair sorts by (i, j) faster than a lexsort.
        key = i * len(other) + j
        key.sort()
        i, j = np.divmod(key, len(other))
        dist = _haversine(self.lat[i], self.lon[i], self.cos_lat[i],
                          other.lat[j], other.lon[j], other.cos_lat[j])
        keep = dist <= radius
        return i[keep], j[keep], dist[keep]

