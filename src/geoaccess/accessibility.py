"""Two-step floating catchment area accessibility with kernel-density decay.

Step one computes, for every facility, a supply-to-demand ratio: capacity
divided by the decay-weighted demand of all zones inside the catchment.
Step two sums those ratios, decay-weighted again, over the facilities
reachable from each zone. Higher scores mean better access; zones beyond
every catchment score exactly zero.

The decay weight is a truncated Gaussian that declines smoothly from
``1 - exp(-1/2)`` at distance zero to exactly zero at the catchment
boundary. Exponential and power variants are available for sensitivity
runs; the Gaussian is the default and the one the test suite pins down.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geo import GeoPoint, SpatialIndex

DEFAULT_CATCHMENT_MILES = 15.0

DECAY_FAMILIES = ("gaussian", "exponential", "power")
DEMAND_COLUMNS = ("patients", "population")

__all__ = [
    "DEFAULT_CATCHMENT_MILES",
    "DECAY_FAMILIES",
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
        if self.population < 0:
            raise ValidationError(f"zone {self.zone_id!r}: negative population")
        if self.adrd_patients < 0:
            raise ValidationError(f"zone {self.zone_id!r}: negative patient count")


@dataclass(frozen=True)
class Facility:
    """A supply point with strictly positive capacity in beds."""

    facility_id: str
    location: GeoPoint
    beds: float

    def __post_init__(self):
        if not self.beds > 0:
            raise ValidationError(
                f"facility {self.facility_id!r}: beds must be > 0, got {self.beds!r}"
            )


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


def decay_weight(d: float, d0: float, family: str = "gaussian") -> float:
    """Distance-decay weight under a named family.

    All families are truncated at ``d0``, reach exactly zero there, and
    decrease strictly on [0, d0]. "gaussian" is the primary form; the
    shifted "exponential" and "power" analogues exist for sensitivity
    analysis only. A one-distance call of the weights
    :func:`accessibility_scores` uses, so both give the same bits.
    """
    _check_decay(d0, family)
    if not 0 <= d <= sys.float_info.max:
        raise ValidationError(f"distance d must be finite and >= 0, got {d!r}")
    return _decay(np.array([d], dtype=float), d0, family).tolist()[0]


def _check_decay(d0, family):
    if not 0 < d0 <= sys.float_info.max:
        raise ValidationError(f"catchment threshold d0 must be finite and > 0, got {d0!r}")
    if family not in DECAY_FAMILIES:
        raise ValidationError(f"unknown impedance family {family!r}; expected one of {DECAY_FAMILIES}")


def _decay(dist: np.ndarray, d0: float, family: str) -> np.ndarray:
    """Decay weights of checked distances, elementwise.

    Division and the final subtraction are IEEE-exact, so numpy does
    them; ``exp`` and ``**`` (libm ``pow``) are Python-float libm calls,
    whose last bits numpy's ufuncs do not keep.
    """
    q, n, exp = dist / d0, dist.size, math.exp
    if family == "gaussian":
        w = np.fromiter((exp(-0.5 * v ** 2) for v in q.tolist()), float, n) - exp(-0.5)
    elif family == "exponential":
        w = np.fromiter(map(exp, (-q).tolist()), float, n) - exp(-1.0)
    else:
        w = np.fromiter((v ** -2 for v in (1.0 + q).tolist()), float, n) - 0.25
    w[dist > d0] = 0.0
    return w


def accessibility_scores(
    zones,
    facilities,
    d0: float = DEFAULT_CATCHMENT_MILES,
    demand: str = "patients",
    family: str = "gaussian",
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
    _check_decay(d0, family)
    if demand not in DEMAND_COLUMNS:
        raise ValidationError(f"unknown demand column {demand!r}; expected one of {DEMAND_COLUMNS}")

    # Step one: the pairs within d0 as arrays (facility index, zone index,
    # decay weight) sorted by (facility, zone). Distances and weights come
    # from array code with the bits of haversine_miles and decay_weight,
    # and np.bincount adds terms in ascending zone id order, so each ratio
    # has the bits of a sequential scan.
    fac_index = SpatialIndex([(f.facility_id, f.location) for f in facilities])
    zone_index = SpatialIndex([(z.zone_id, z.centroid) for z in zones])
    fac, zone, dist = fac_index.pairs_within(zone_index, d0)
    weight = _decay(dist, d0, family)
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

    # Step two: per-zone decay-weighted sums of the facility ratios, added
    # in ascending facility id order within each zone. A skipped facility
    # carries ratio 0.0, and adding 0.0 leaves a sum's bits unchanged.
    ratio_v = np.array([ratios.get(f.facility_id, 0.0) for f in facilities], dtype=float)
    order = np.lexsort((fac, zone))
    scores = np.bincount(zone[order], weights=(ratio_v[fac] * weight)[order], minlength=len(zones))
    return AccessibilityField(
        facility_ratios=ratios,
        zone_scores=dict(zip((z.zone_id for z in zones), scores.tolist())),
        skipped_facilities=skipped,
    )
