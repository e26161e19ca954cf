"""Deterministic synthetic region generator for tests and demos.

The generated geography mirrors the qualitative pattern the analyses are
meant to surface: an urban core dense with large facilities and most of
the demand, a dispersed rural periphery with few, small facilities,
higher disease prevalence and lower diagnosis rates outward. Identical
seeds produce identical objects, and all floats are pre-quantized to the
on-disk precision so a write/read round trip is the identity.
"""

from __future__ import annotations

import math

import numpy as np

from .accessibility import DemandZone, Facility
from .errors import check_int
from .geo import GeoPoint
from .outcomes import CountyOutcome
from .output import quantize

CENTER_LAT = 39.0
CENTER_LON = -77.0
MILES_PER_DEG_LAT = 69.09341898553099  # one degree of arc on the reference sphere

URBAN_CORE_MILES = 11.0
RURAL_RING_MILES = (18.0, 48.0)
COUNTY_CELL_MILES = 22.0
YEARS = (2018, 2019, 2020, 2021, 2022)

__all__ = ["generate_synthetic_region", "YEARS"]


def _offset_point(r_miles: float, theta: float) -> GeoPoint:
    dlat = r_miles * math.cos(theta) / MILES_PER_DEG_LAT
    lat = CENTER_LAT + dlat
    dlon = r_miles * math.sin(theta) / (MILES_PER_DEG_LAT * math.cos(math.radians(lat)))
    return GeoPoint(quantize(lat), quantize(CENTER_LON + dlon))


def _prevalences(rng, remoteness: float) -> dict:
    """Disease prevalence shares rising with remoteness, mutually correlated."""
    latent = rng.normal(0.0, 1.0)
    base = {
        "pct_diabetes": 0.0125,
        "pct_obesity": 0.030,
        "pct_asthma": 0.0095,
        "pct_depression": 0.0090,
        "pct_hyperlipidemia": 0.0205,
        "pct_hypertension": 0.0280,
        "pct_heart_disease": 0.0190,
    }
    out = {}
    for name, level in base.items():
        lift = 1.0 + 0.30 * remoteness + 0.18 * latent + 0.10 * rng.normal(0.0, 1.0)
        out[name] = quantize(max(level * lift, level * 0.25))
    return out


def _zone(rng, zone_id: str, urban: bool) -> DemandZone:
    if urban:
        r = min(abs(rng.normal(0.0, 4.5)), URBAN_CORE_MILES)
        population = int(rng.integers(12_000, 45_000))
        patient_share = 0.0060
        remoteness = r / RURAL_RING_MILES[1]
    else:
        r = rng.uniform(*RURAL_RING_MILES)
        population = int(rng.integers(900, 9_000))
        remoteness = r / RURAL_RING_MILES[1]
        patient_share = 0.0060 - 0.0035 * remoteness
    theta = rng.uniform(0.0, 2.0 * math.pi)
    point = _offset_point(r, theta)
    patients = max(1, int(round(population * patient_share)))
    attributes = {
        "poverty_rate": quantize(max(1.0, rng.normal(7.5 + 9.0 * remoteness, 2.5))),
        "pct_higher_education": quantize(max(2.0, rng.normal(18.0 - 8.0 * remoteness, 3.0))),
        "pct_over_50": quantize(min(max(rng.normal(33.0 + 14.0 * remoteness, 4.0), 15.0), 65.0)),
        "pct_insured": quantize(min(max(rng.normal(95.0 + 2.5 * remoteness, 1.2), 80.0), 100.0)),
    }
    attributes.update(_prevalences(rng, remoteness))
    return DemandZone(
        zone_id=zone_id,
        centroid=point,
        population=population,
        adrd_patients=patients,
        urban=urban,
        attributes=attributes,
    )


def _facility(rng, facility_id: str, core: bool) -> Facility:
    if core:
        r = abs(rng.normal(0.0, 3.0))
        beds = int(rng.integers(140, 420))
    else:
        r = rng.uniform(RURAL_RING_MILES[0], RURAL_RING_MILES[1] - 5.0)
        beds = int(rng.integers(20, 85))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return Facility(facility_id=facility_id, location=_offset_point(r, theta), beds=beds)


def _county_cells(zones) -> dict:
    cells: dict[tuple, list] = {}
    cell_deg = COUNTY_CELL_MILES / MILES_PER_DEG_LAT
    for zone in zones:
        key = (
            int(math.floor((zone.centroid.lat - CENTER_LAT) / cell_deg)),
            int(math.floor((zone.centroid.lon - CENTER_LON) / cell_deg)),
        )
        cells.setdefault(key, []).append(zone)
    return cells


def generate_synthetic_region(
    seed: int,
    n_urban_zones: int = 40,
    n_rural_zones: int = 80,
    n_facilities: int = 16,
):
    """Build (zones, facilities, counties) for a seeded synthetic region.

    Urban zones cluster inside the core with larger populations; rural
    zones spread over an outer ring with diagnosis rates that fall off
    and disease prevalence that rises with distance. Most facilities
    (and the largest ones) sit in the core. County records cover five
    consecutive years with mortality per patient increasing outward.
    """
    check_int("n_urban_zones", n_urban_zones, 1)
    check_int("n_rural_zones", n_rural_zones, 1)
    check_int("n_facilities", n_facilities, 1)
    rng = np.random.default_rng(seed)

    zones = [_zone(rng, f"Z{i:04d}", True) for i in range(n_urban_zones)]
    zones += [_zone(rng, f"Z{i + n_urban_zones:04d}", False) for i in range(n_rural_zones)]

    n_core = max(1, int(round(0.75 * n_facilities)))
    facilities = [_facility(rng, f"H{i:03d}", i < n_core) for i in range(n_facilities)]

    counties = []
    cells = _county_cells(zones)
    for idx, key in enumerate(sorted(cells)):
        members = cells[key]
        county_id = f"CTY{idx:02d}"
        pop50 = int(round(sum(z.population * z.attributes["pct_over_50"] / 100.0 for z in members)))
        base_patients = sum(z.adrd_patients for z in members)
        centroid_r = sum(
            math.hypot(
                (z.centroid.lat - CENTER_LAT) * MILES_PER_DEG_LAT,
                (z.centroid.lon - CENTER_LON)
                * MILES_PER_DEG_LAT
                * math.cos(math.radians(z.centroid.lat)),
            )
            for z in members
        ) / len(members)
        remoteness = min(centroid_r / RURAL_RING_MILES[1], 1.0)
        death_rate = 0.10 + 0.28 * remoteness
        for year in YEARS:
            patients = max(1, int(round(base_patients * rng.normal(1.0, 0.05))))
            deaths = max(0, int(round(patients * death_rate * rng.normal(1.0, 0.10))))
            counties.append(
                CountyOutcome(
                    county_id=county_id,
                    year=year,
                    adrd_deaths=deaths,
                    adrd_patients=patients,
                    population_50plus=pop50,
                )
            )
    return zones, facilities, counties
