"""Workload inputs, timed operations and output checks for the benchmark.

Every input comes from ``geoaccess.generate_synthetic_region`` with the
workload seed; the program under test receives only the generated
tables. The ``sprawl`` region is built here, by laying seeded copies of
the default 120-zone region side by side, so that density stays fixed
while the zone count grows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import shutil
import time

import numpy as np

from geoaccess import (
    EARTH_RADIUS_MILES,
    GeoPoint,
    RunConfig,
    generate_synthetic_region,
    load_counties,
    load_facilities,
    load_zones,
    run_pipeline,
)
from geoaccess.ingest import COUNTY_COLUMNS, FACILITY_COLUMNS, ZONE_COLUMNS
from geoaccess.output import quantize, write_csv, write_geojson
from geoaccess.synth import CENTER_LAT, CENTER_LON, MILES_PER_DEG_LAT

DEFAULT_SEED = 1

SPRAWL_TILES = 10
SPRAWL_COLUMNS = 5
# A default region spans 96 miles (rural ring radius 48), so a 100-mile
# pitch keeps neighbouring tiles apart while zones near a tile edge can
# still see the next tile inside the 15-mile band.
TILE_PITCH_MILES = 100.0
# Half the side of the square drawn around each sprawl zone centroid.
POLYGON_HALF_DEG = 0.004

__all__ = [
    "DEFAULT_SEED", "SPRAWL_TILES", "WORKLOADS", "InputFiles", "Samples", "dense_region",
    "tiled_region", "sprawl_region", "with_polygons", "write_inputs", "mean_neighbourhood",
    "catchment_pairs", "timed_pipeline", "file_digests", "REFERENCE_LOOP_S", "reference_loop",
    "at_reference_speed", "run_operations",
]


@dataclasses.dataclass(frozen=True)
class InputFiles:
    zones: str
    facilities: str
    counties: str
    geometry: str | None = None

    def paths(self):
        return [p for p in (self.zones, self.geometry, self.facilities, self.counties) if p]


def dense_region(seed, n_urban=300, n_rural=600, n_facilities=90):
    """The fixed-area synthetic region at a large zone count."""
    return generate_synthetic_region(seed, n_urban, n_rural, n_facilities)


def _moved(point: GeoPoint, north_miles: float, east_miles: float) -> GeoPoint:
    """Translate a point by whole miles, keeping its offsets from the centre in miles."""
    lat0 = point.lat
    north = (lat0 - CENTER_LAT) * MILES_PER_DEG_LAT + north_miles
    east = (point.lon - CENTER_LON) * MILES_PER_DEG_LAT * math.cos(math.radians(lat0))
    lat = CENTER_LAT + north / MILES_PER_DEG_LAT
    lon = CENTER_LON + (east + east_miles) / (MILES_PER_DEG_LAT * math.cos(math.radians(lat)))
    return GeoPoint(quantize(lat), quantize(lon))


def tiled_region(seed, tiles=SPRAWL_TILES, columns=SPRAWL_COLUMNS):
    """Seeded copies of the default region laid side by side on a grid.

    Tile ``k`` is ``generate_synthetic_region(seed * tiles + k)``, moved
    by whole tile pitches and given ids prefixed ``T<k>``. Distances
    inside a tile are kept, so the mean neighbourhood stays that of the
    default region however many tiles there are.
    """
    rows = -(-tiles // columns)
    zones, facilities, counties = [], [], []
    for k in range(tiles):
        row, col = divmod(k, columns)
        north = (row - (rows - 1) / 2.0) * TILE_PITCH_MILES
        east = (col - (columns - 1) / 2.0) * TILE_PITCH_MILES
        prefix = f"T{k:02d}"
        z, f, c = generate_synthetic_region(seed * tiles + k)
        zones += [dataclasses.replace(zone, zone_id=prefix + zone.zone_id,
                                      centroid=_moved(zone.centroid, north, east)) for zone in z]
        facilities += [dataclasses.replace(fac, facility_id=prefix + fac.facility_id,
                                           location=_moved(fac.location, north, east)) for fac in f]
        counties += [dataclasses.replace(cty, county_id=prefix + cty.county_id) for cty in c]
    return zones, facilities, counties


def with_polygons(zones):
    """Give every zone a small square polygon around its centroid."""
    out = []
    for zone in zones:
        lat, lon, h = zone.centroid.lat, zone.centroid.lon, POLYGON_HALF_DEG
        ring = [[quantize(lon + dx), quantize(lat + dy)]
                for dx, dy in ((-h, -h), (h, -h), (h, h), (-h, h), (-h, -h))]
        out.append(dataclasses.replace(zone, geometry={"type": "Polygon", "coordinates": [ring]}))
    return out


def sprawl_region(seed, tiles=SPRAWL_TILES):
    """The tiled region with a polygon for every zone."""
    zones, facilities, counties = tiled_region(seed, tiles)
    return with_polygons(zones), facilities, counties


def write_inputs(region, directory) -> InputFiles:
    """Write a region as the CSV (and, with geometry, GeoJSON) files the CLI reads."""
    zones, facilities, counties = region
    os.makedirs(directory, exist_ok=True)
    zones = sorted(zones, key=lambda z: z.zone_id)
    attr_names = sorted(zones[0].attributes)
    files = InputFiles(
        zones=os.path.join(directory, "zones.csv"),
        facilities=os.path.join(directory, "facilities.csv"),
        counties=os.path.join(directory, "counties.csv"),
        geometry=(os.path.join(directory, "zones.geojson")
                  if any(z.geometry is not None for z in zones) else None),
    )
    write_csv(files.zones, ZONE_COLUMNS + attr_names, [
        [z.zone_id, z.centroid.lat, z.centroid.lon, int(z.population), int(z.adrd_patients),
         z.urban] + [z.attributes[a] for a in attr_names]
        for z in zones
    ])
    write_csv(files.facilities, FACILITY_COLUMNS, [
        [f.facility_id, f.location.lat, f.location.lon, int(f.beds)]
        for f in sorted(facilities, key=lambda f: f.facility_id)
    ])
    write_csv(files.counties, COUNTY_COLUMNS, [
        [c.county_id, c.year, int(c.adrd_deaths), int(c.adrd_patients), int(c.population_50plus)]
        for c in sorted(counties, key=lambda c: (c.county_id, c.year))
    ])
    if files.geometry:
        write_geojson(files.geometry, zones, {})
    return files


def _miles(lat_a, lon_a, lat_b, lon_b) -> np.ndarray:
    """Haversine miles between every a (rows) and every b (columns)."""
    pa, la = np.radians(lat_a)[:, None], np.radians(lon_a)[:, None]
    pb, lb = np.radians(lat_b)[None, :], np.radians(lon_b)[None, :]
    s = np.sin(0.5 * (pa - pb)) ** 2 + np.cos(pa) * np.cos(pb) * np.sin(0.5 * (la - lb)) ** 2
    return 2.0 * EARTH_RADIUS_MILES * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def _count_within(lat_a, lon_a, lat_b, lon_b, radius, block=256) -> np.ndarray:
    """Per-row count of b points within ``radius`` miles, in row blocks."""
    counts = np.zeros(len(lat_a), dtype=np.int64)
    for lo in range(0, len(lat_a), block):
        d = _miles(lat_a[lo:lo + block], lon_a[lo:lo + block], lat_b, lon_b)
        counts[lo:lo + block] = (d <= radius).sum(axis=1)
    return counts


def _coords(points):
    return (np.array([p.lat for p in points]), np.array([p.lon for p in points]))


def mean_neighbourhood(zones, band_miles) -> float:
    """Mean fixed-band neighbourhood size, the zone itself included."""
    lat, lon = _coords([z.centroid for z in zones])
    return float(_count_within(lat, lon, lat, lon, band_miles).mean())


def catchment_pairs(zones, facilities, d0) -> int:
    """Facility-zone pairs within the catchment, by brute force."""
    flat, flon = _coords([f.location for f in facilities])
    zlat, zlon = _coords([z.centroid for z in zones])
    return int(_count_within(flat, flon, zlat, zlon, d0).sum())


def file_digests(directory) -> dict:
    """sha256 of every file in a directory, by file name."""
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def timed_pipeline(files: InputFiles, out_dir, cfg: RunConfig):
    """One pipeline run from the files on disk into a fresh directory.

    Returns the seconds spent reading and running, and the output digests.
    """
    t0 = time.perf_counter()
    zones = load_zones(files.zones, files.geometry)
    facilities = load_facilities(files.facilities)
    counties = load_counties(files.counties)
    run_pipeline(zones, facilities, counties, out_dir, cfg)
    elapsed = time.perf_counter() - t0
    digests = file_digests(out_dir)
    shutil.rmtree(out_dir)
    return elapsed, digests


# The reference loop's seconds at the speed that scaled times refer to;
# it took 0.15-0.35 s on the 2-core VM the bounds were set on.
REFERENCE_LOOP_S = 0.2
_SCALARS = np.random.default_rng(0).random((300, 300))
_VALUES = np.random.default_rng(1).random(1000)
_GATHER = np.random.default_rng(2).integers(0, 1000, size=(1000, 300))


def reference_loop() -> float:
    """Seconds taken by a fixed loop that calls no geoaccess code.

    The shared VMs this runs on change CPU speed by up to 2x within
    seconds, so each operation's time is divided by this loop's, timed
    just before and just after it. The loop mixes the program's two
    kinds of work: a Python comprehension over numpy scalars (the shape
    of the weights build), then index gathers with row sums over a few
    MB, more than a core's L2 cache (the shape of the permutation tests).
    Together the two track the operations' speed; either alone tracks it
    less well.
    """
    d = _SCALARS
    t0 = time.perf_counter()
    for i in range(1800):
        [j for j in range(300) if d[i % 300, j] <= 0.3]
    for i in range(25):
        (_VALUES[_GATHER] * _VALUES[(_GATHER + i) % 1000]).sum(axis=1)
    return time.perf_counter() - t0


def at_reference_speed(seconds, loops) -> float:
    """``seconds`` rescaled to the speed at which the reference loop takes
    ``REFERENCE_LOOP_S``, given the loop's times around the measured work."""
    return seconds * REFERENCE_LOOP_S * len(loops) / sum(loops)


@dataclasses.dataclass
class Samples:
    seconds: list
    scaled: list
    attempted: int
    failed: int
    mismatches: list


def run_operations(op, expected, seconds) -> Samples:
    """Call ``op`` back to back for about ``seconds`` (at least once).

    Another operation starts only when, judged by the last one, it would
    end nearer to ``seconds`` than stopping now does, so a run overshoots
    by at most half an operation. ``op(i)`` returns (elapsed seconds,
    digests). An operation fails when it raises or its digests differ
    from ``expected``; with no expected digests, every operation must
    match the first one that completed. Times of failed operations are
    not kept. The reference loop runs before the first operation and
    after each one; ``scaled`` holds each time at reference speed, judged
    by the two loops around it.
    """
    samples = Samples(seconds=[], scaled=[], attempted=0, failed=0, mismatches=[])
    start = time.perf_counter()
    last_op = 0.0
    loop_before = reference_loop()
    while samples.attempted == 0 or time.perf_counter() - start + last_op / 2.0 < seconds:
        samples.attempted += 1
        began = time.perf_counter()
        try:
            elapsed, digests = op(samples.attempted)
        except Exception as exc:  # a failing operation is counted, not fatal
            samples.failed += 1
            samples.mismatches.append(f"operation {samples.attempted} raised {exc!r}")
            digests = None
        loop_after = reference_loop()
        last_op = time.perf_counter() - began
        loops, loop_before = (loop_before, loop_after), loop_after
        if digests is None:
            continue
        if expected is None:
            expected = digests
        if digests != expected:
            samples.failed += 1
            bad = sorted(k for k in set(digests) | set(expected)
                         if digests.get(k) != expected.get(k))
            samples.mismatches.append(f"operation {samples.attempted} differs in {bad}")
            continue
        samples.seconds.append(elapsed)
        samples.scaled.append(at_reference_speed(elapsed, loops))
    return samples


# Workload name -> input builder (seed -> zones, facilities, counties).
# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {"dense": dense_region, "sprawl": sprawl_region}
