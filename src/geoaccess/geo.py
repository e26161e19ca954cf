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

from .errors import ValidationError

EARTH_RADIUS_MILES = 3958.7613

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
    identical coordinates.
    """
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_MILES * math.asin(min(1.0, math.sqrt(s)))


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
    candidate is then re-checked with :func:`haversine_miles`, so query
    results are exactly what a brute-force linear scan returns. The index
    is immutable after construction and safe to share across threads.
    Ids must be unique; a duplicate is rejected by name. ``tree`` and the
    embedding ``xyz`` (in miles) are exposed for neighbour queries, and
    :meth:`arc_miles` measures the pairs they return.
    """

    def __init__(self, points):
        self.ids = [pid for pid, _ in points]
        seen = set()
        for pid in self.ids:
            if pid in seen:
                raise ValidationError(f"duplicate id in spatial index: {pid!r}")
            seen.add(pid)
        self.points = [pt for _, pt in points]
        self._phi = np.radians(np.array([p.lat for p in self.points], dtype=float))
        self._lam = np.radians(np.array([p.lon for p in self.points], dtype=float))
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
        ``other``) sorted by (i, j), and the distances
        ``haversine_miles(self.points[i], other.points[j])`` as floats.
        Candidates come from the two trees under :func:`chord_bound`, so
        the pairs are exactly those a brute-force scan keeps.
        """
        if not (math.isfinite(radius) and radius >= 0.0):
            raise ValidationError(f"radius must be non-negative, got {radius!r}")
        cand = self.tree.sparse_distance_matrix(other.tree, chord_bound(radius),
                                                 output_type="ndarray")
        order = np.lexsort((cand["j"], cand["i"]))
        i = cand["i"][order].astype(np.intp)
        j = cand["j"][order].astype(np.intp)
        dist = np.array([haversine_miles(self.points[a], other.points[b])
                         for a, b in zip(i.tolist(), j.tolist())], dtype=float)
        keep = dist <= radius
        return i[keep], j[keep], dist[keep].tolist()

