"""Two-step floating catchment area accessibility with kernel-density decay.

Step one computes, for every facility, a supply-to-demand ratio: capacity
divided by the decay-weighted demand of all zones inside the catchment.
Step two sums those ratios, decay-weighted again, over the facilities
reachable from each zone. Higher scores mean better access; zones beyond
every catchment score exactly zero.

The decay weight is a truncated Gaussian that declines smoothly from
``1 - exp(-1/2)`` at distance zero to exactly zero at the catchment
boundary, and is zero beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_range
from .geo import GeoPoint, SpatialIndex, _libm

DEFAULT_CATCHMENT_MILES = 15.0

DEMAND_COLUMNS = ("patients", "population")

__all__ = [
    "DEFAULT_CATCHMENT_MILES",
    "DEMAND_COLUMNS",
    "DemandZone",
    "Facility",
    "AccessibilityField",
    "decay_weight",
    "accessibility_scores",
]


@dataclass(frozen=True)
class DemandZone:
    """A demand unit: centroid, population, patient count, urban flag.

    ``attributes`` holds named real-valued columns (poverty rate, disease
    prevalences, and so on) carried through from ingestion. ``geometry``
    is an optional GeoJSON geometry used only when emitting GeoJSON: the
    JSON text it was read as for a zone read from a file, or a mapping
    for one built in code.
    """

    zone_id: str
    centroid: GeoPoint
    population: float
    adrd_patients: float
    urban: bool
    attributes: dict = field(default_factory=dict)
    geometry: str | dict | None = None

    def __post_init__(self):
        check_range(self.population, "zone %r: population", self.zone_id)
        check_range(self.adrd_patients, "zone %r: adrd_patients", self.zone_id)


@dataclass(frozen=True)
class Facility:
    """A supply point with strictly positive capacity in beds."""

    facility_id: str
    location: GeoPoint
    beds: float

    def __post_init__(self):
        check_range(self.beds, "facility %r: beds", self.facility_id, strict=True)


@dataclass(frozen=True)
class AccessibilityField:
    """Result of a two-step computation.

    ``facility_ratios`` maps facility id to its supply-to-demand ratio;
    facilities with zero weighted demand are absent here and listed in
    ``skipped_facilities`` as (facility_id, reason) pairs instead.
    ``zone_scores`` contains every input zone, zeros included.
    """

    facility_ratios: dict
    zone_scores: dict
    skipped_facilities: list


def decay_weight(d: float, d0: float) -> float:
    """Truncated Gaussian decay weight of distance ``d`` for catchment ``d0``.

    Decreases strictly on [0, d0], reaches exactly zero at ``d0`` and is
    zero beyond it. A one-distance call of the weights
    :func:`accessibility_scores` uses, so both give the same bits.
    """
    check_range(d0, "catchment threshold d0", strict=True)
    check_range(d, "distance d")
    return _decay(np.array([d], dtype=float), d0).tolist()[0]


def _decay(dist: np.ndarray, d0: float) -> np.ndarray:
    """Decay weights of checked distances, elementwise; 0.0 beyond ``d0``.

    The kernel is evaluated only inside the catchment; its square and
    ``exp`` go through :func:`geo._libm`.
    """
    inside = dist <= d0
    w = np.zeros(dist.shape)
    w[inside] = _libm(-0.5 * _libm(dist[inside] / d0, (pow, 2)), math.exp) - math.exp(-0.5)
    return w


def accessibility_scores(
    zones,
    facilities,
    d0: float = DEFAULT_CATCHMENT_MILES,
    demand: str = "patients",
) -> AccessibilityField:
    """Two-step floating catchment area scores for every zone.

    Facilities with zero weighted demand are skipped (with a recorded
    reason) rather than treated as infinite supply. Both steps sum over
    one list of facility-zone pairs in ascending id order, so results do
    not depend on input order.

    Raises
    ------
    ValidationError
        On an empty zone list, duplicate ids, or invalid parameters.
        An empty facility list is valid and yields all-zero scores.
    """
    zones = sorted(zones, key=lambda z: z.zone_id)
    facilities = sorted(facilities, key=lambda f: f.facility_id)
    if not zones:
        raise ValidationError("accessibility requires at least one demand zone")
    check_range(d0, "catchment threshold d0", strict=True)
    if demand not in DEMAND_COLUMNS:
        raise ValidationError(f"unknown demand column {demand!r}; expected one of {DEMAND_COLUMNS}")

    # The pairs within d0, (zone, facility) sorted, with the bits of
    # haversine_miles and decay_weight. np.bincount adds in array order, so
    # step one adds each facility's terms in ascending zone id order, step
    # two each zone's in ascending facility id order, as a sequential scan.
    fac_index = SpatialIndex([(f.facility_id, f.location) for f in facilities])
    zone_index = SpatialIndex([(z.zone_id, z.centroid) for z in zones])
    zone, fac, dist = zone_index.pairs_within(fac_index, d0)
    weight = _decay(dist, d0)
    need = np.array([z.adrd_patients if demand == "patients" else z.population for z in zones])
    denom = np.bincount(fac, weights=need[zone] * weight, minlength=len(facilities))
    reach = np.bincount(fac, minlength=len(facilities))
    ratios: dict[str, float] = {}
    skipped: list[tuple[str, str]] = []
    for f, count, total in zip(facilities, reach.tolist(), denom.tolist()):
        if count == 0:
            skipped.append((f.facility_id, "no demand zone within catchment"))
        elif total == 0.0:
            skipped.append((f.facility_id, "zero weighted demand within catchment"))
        else:
            ratios[f.facility_id] = f.beds / total

    # Step two: a skipped facility carries ratio 0.0, and adding 0.0 leaves
    # a sum's bits unchanged.
    ratio_v = np.array([ratios.get(f.facility_id, 0.0) for f in facilities], dtype=float)
    scores = np.bincount(zone, weights=ratio_v[fac] * weight, minlength=len(zones))
    return AccessibilityField(
        facility_ratios=ratios,
        zone_scores=dict(zip((z.zone_id for z in zones), scores.tolist())),
        skipped_facilities=skipped,
    )
