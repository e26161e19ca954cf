"""Geographic primitives: points, great-circle distance, radius queries.

Distances are great-circle miles on a sphere of radius
``EARTH_RADIUS_MILES`` (the IUGG mean radius). The value is fixed as a
constant so that results are bit-reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

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


def _coords(points):
    """Latitude, longitude and libm ``cos(radians(lat))`` arrays of ``points``."""
    lat = np.array([p.lat for p in points], dtype=float)
    lon = np.array([p.lon for p in points], dtype=float)
    return lat, lon, np.fromiter(map(math.cos, (lat * _DEG).tolist()), float, lat.size)


def _haversine(lat1, lon1, cos1, lat2, lon2, cos2) -> np.ndarray:
    """Haversine miles from point 1 to point 2, elementwise.

    Subtraction, scaling, products and the square root are IEEE-exact,
    so numpy does them; sine, ``** 2`` (libm ``pow``) and arcsine are
    Python-float libm calls, whose last bits numpy's ufuncs do not keep.
    The result is bit for bit ``2 R asin(min(1, sqrt(s)))`` with
    ``s = sin(dphi / 2) ** 2 + cos1 * cos2 * sin(dlam / 2) ** 2``.
    """
    sin, n = math.sin, lat1.size
    s = np.fromiter((sin(a) ** 2 + c * sin(b) ** 2 for a, b, c in zip(
        ((lat2 - lat1) * _DEG / 2.0).tolist(), ((lon2 - lon1) * _DEG / 2.0).tolist(),
        (cos1 * cos2).tolist())), float, n)
    h = np.minimum(1.0, np.sqrt(s)).tolist()
    return 2.0 * EARTH_RADIUS_MILES * np.fromiter(map(math.asin, h), float, n)


def chord_bound(radius: float) -> float:
    """Straight-line bound, in miles through the sphere, for an arc of ``radius`` miles.

    Chord length is monotone in arc length. The bound is slightly
    inflated so that a k-d tree query on the sphere embedding keeps every
    point whose exact great-circle distance is within ``radius``; callers
    then re-check each candidate exactly.
    """
    half_angle = min(radius / (2.0 * EARTH_RADIUS_MILES), math.pi / 2.0)
    return 2.0 * EARTH_RADIUS_MILES * math.sin(half_angle) * (1.0 + 1e-9) + 1e-9


class SpatialIndex:
    """Radius-query index over identified points.

    A k-d tree on the unit-sphere embedding prunes candidates; every
    candidate is then re-checked with the haversine distance over the pair
    arrays, from the per-point ``lat``, ``lon`` and libm ``cos_lat`` kept
    here, so query results are exactly what a brute-force linear scan with
    :func:`haversine_miles` returns. The index is immutable after
    construction and safe to share across threads. Ids must be unique; a
    duplicate is rejected by name. ``tree`` and the embedding ``xyz`` (in
    miles) are exposed for neighbour queries, and :meth:`arc_miles`
    measures the pairs they return.
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
        self.tree = cKDTree(self.xyz)

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
        Candidates come from the two trees under :func:`chord_bound` and
        are measured together over the pair arrays, so the pairs are
        exactly those a brute-force scan keeps.
        """
        check_range(radius, "radius")
        cand = self.tree.sparse_distance_matrix(other.tree, chord_bound(radius),
                                                 output_type="ndarray")
        # One integer key per pair sorts by (i, j) faster than a lexsort.
        key = cand["i"].astype(np.intp) * len(other) + cand["j"]
        key.sort()
        i, j = np.divmod(key, len(other))
        dist = _haversine(self.lat[i], self.lon[i], self.cos_lat[i],
                          other.lat[j], other.lon[j], other.cos_lat[j])
        keep = dist <= radius
        return i[keep], j[keep], dist[keep]

