"""File ingestion: strict CSV schemas and a GeoJSON geometry join.

All readers demand exact headers (required columns, in order) and reject
bad rows by line number. Files are UTF-8 (a leading byte order mark, as
spreadsheet exports write, is dropped), comma separated, RFC 4180.
"""

from __future__ import annotations

import csv
import json
import math
import re
from json.decoder import scanstring

from .accessibility import DemandZone, Facility
from .errors import ValidationError
from .geo import GeoPoint
from .outcomes import CountyOutcome

ZONE_COLUMNS = ["zone_id", "lat", "lon", "population", "adrd_patients", "urban"]
FACILITY_COLUMNS = ["facility_id", "lat", "lon", "beds"]
COUNTY_COLUMNS = ["county_id", "year", "adrd_deaths", "adrd_patients", "population_50plus"]

_FLAGS = {"1": True, "true": True, "0": False, "false": False}

__all__ = [
    "ZONE_COLUMNS",
    "FACILITY_COLUMNS",
    "COUNTY_COLUMNS",
    "load_zones",
    "load_facilities",
    "load_counties",
]


class _Columns:
    """The data rows of one CSV file, one tuple of cells per column.

    Each check looks at a whole column and records the first row it
    rejects. :meth:`fail` keeps the earliest row, and on one row the check
    made first, so running the checks in the order a row is checked in
    makes :meth:`check` raise what a row-by-row reading raises first.
    """

    def __init__(self, path, required, extras_allowed: bool):
        self.path = path
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file, expected header {','.join(required)}")
            if header[: len(required)] != required:
                raise ValidationError(
                    f"{path}: header must start with {','.join(required)}, got {','.join(header)}"
                )
            self.extra = header[len(required):]
            if self.extra and not extras_allowed:
                raise ValidationError(f"{path}: unexpected extra columns {self.extra}")
            if len(set(header)) != len(header):
                raise ValidationError(f"{path}: duplicate column names in header")
            # A row's number is the physical line it starts on: a quoted
            # field may hold line breaks, which reader.line_num counts.
            self.lines, rows = [], []
            lineno = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) != len(header):
                        raise ValidationError(
                            f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                        )
                    self.lines.append(lineno)
                    rows.append(row)
                lineno = reader.line_num + 1
        self._cells = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
        self._stop = len(rows)
        self._failure = None

    def __getitem__(self, name) -> tuple:
        return self._cells[name]

    def fail(self, index, message) -> None:
        """Reject data row ``index`` unless an earlier row, or this row by
        an earlier check, is rejected already."""
        if index < self._stop:
            self._stop = index
            self._failure = f"{self.path}:{self.lines[index]}: {message}"

    def check(self) -> None:
        if self._failure is not None:
            raise ValidationError(self._failure)

    def unique(self, label, keys) -> None:
        if len(set(keys)) < len(keys):
            seen: dict = {}
            for i, key in enumerate(keys):
                if key in seen:
                    self.fail(i, f"duplicate {label} {key!r} (first seen at line {seen[key]})")
                    return
                seen[key] = self.lines[i]

    def _parse(self, name, kind, noun) -> list:
        """The cells of ``name`` as ``kind``, up to the first that does not parse."""
        cells = self._cells[name]
        try:
            return list(map(kind, cells))
        except ValueError:
            pass
        values = []
        for text in cells:
            try:
                values.append(kind(text))
            except ValueError:
                self.fail(len(values), f"column {name!r} is not {noun}: {text!r}")
                break
        return values

    def floats(self, name) -> list:
        values = self._parse(name, float, "a number")
        # A sum of floats is finite only if every term is.
        if not math.isfinite(sum(values)):
            for i, value in enumerate(values):
                if not math.isfinite(value):
                    self.fail(i, f"column {name!r} is not finite")
                    break
        return values

    def counts(self, name) -> list:
        values = self._parse(name, int, "an integer")
        if min(values, default=0) < 0:
            i = next(i for i, value in enumerate(values) if value < 0)
            self.fail(i, f"column {name!r} must be >= 0, got {values[i]}")
        return values

    def flags(self, name) -> list:
        cells = self._cells[name]
        values = list(map(_FLAGS.get, map(str.lower, map(str.strip, cells))))
        if None in values:
            i = values.index(None)
            self.fail(i, f"column {name!r} is not a boolean: {cells[i]!r}")
        return values

    def points(self) -> list:
        """The lat and lon columns as points, up to the first out of range."""
        lats, lons = self.floats("lat"), self.floats("lon")
        try:
            return list(map(GeoPoint, lats, lons))
        except ValidationError:
            pass
        points = []
        for lat, lon in zip(lats, lons):
            try:
                points.append(GeoPoint(lat, lon))
            except ValidationError as exc:
                self.fail(len(points), str(exc))
                break
        return points


def load_zones(path, geometry_path=None) -> list[DemandZone]:
    """Read demand zones, optionally joining GeoJSON geometries by zone_id.

    Attribute columns after the required six become the zone's named
    attributes map. Geometry features must each carry a ``zone_id``
    property matching a CSV row, and a geometry that is null or an object
    with a string ``type``; each zone keeps its geometry as the JSON text
    it was read as.
    """
    rows = _Columns(path, ZONE_COLUMNS, extras_allowed=True)
    ids = rows["zone_id"]
    rows.unique("zone_id", ids)
    columns = [rows.floats(name) for name in rows.extra]
    centroids = rows.points()
    population = rows.counts("population")
    patients = rows.counts("adrd_patients")
    urban = rows.flags("urban")
    rows.check()
    names = rows.extra
    attributes = [dict(zip(names, values)) for values in zip(*columns)] if names \
        else [{} for _ in ids]
    geometries = {} if geometry_path is None else _load_geometries(geometry_path, set(ids))
    return [
        DemandZone(zone_id=zid, centroid=centroid, population=pop, adrd_patients=pat,
                   urban=flag, attributes=attrs, geometry=geometries.get(zid))
        for zid, centroid, pop, pat, flag, attrs
        in zip(ids, centroids, population, patients, urban, attributes)
    ]


def _load_geometries(path, known_ids) -> dict:
    """zone_id -> the text of its feature's geometry (None for null)."""
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    try:
        doc = _feature_collection(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}")
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection" \
            or not isinstance(doc.get("features"), list):
        raise ValidationError(f"{path}: expected a GeoJSON FeatureCollection")
    geometries = {}
    for pos, feature in enumerate(doc["features"]):
        if feature is None:
            raise ValidationError(f"{path}: feature {pos} is not a JSON object")
        props, geometry = feature
        props = props or {}
        if not isinstance(props, dict):
            raise ValidationError(f"{path}: feature {pos} properties is not a JSON object")
        zid = props.get("zone_id")
        if zid is None:
            raise ValidationError(f"{path}: feature {pos} has no zone_id property")
        if not isinstance(zid, str) or zid not in known_ids:
            raise ValidationError(f"{path}: feature {pos} zone_id {zid!r} has no CSV row")
        if zid in geometries:
            raise ValidationError(f"{path}: duplicate geometry for zone_id {zid!r}")
        if geometry is _NOT_A_GEOMETRY:
            raise ValidationError(
                f"{path}: feature {pos} geometry is neither null nor an object with a string type")
        geometries[zid] = geometry
    return geometries


# The walk below reads a FeatureCollection as json.loads does, with the same
# errors at the same index (CPython 3.13 names a trailing comma where this
# walk keeps the older message), but keeps each geometry as the text it was
# read as: every value is decoded once by the json module's scanner and, for
# a geometry, dropped at once. A repeated key keeps its last value.
_SPACE = re.compile(r"[ \t\n\r]*").match
# One object member up to its value: the "{" or "," before it, and a key
# without escapes, with the whitespace around them. Other keys, the end of
# an object and every error go through _member.
_MEMBER = re.compile(r'[ \t\n\r]*([{,])[ \t\n\r]*"([^"\\\x00-\x1f]*)"[ \t\n\r]*:[ \t\n\r]*').match
_NOT_A_GEOMETRY = object()


def _feature_collection(text):
    """The top-level value of ``text``; in an object, ``features`` is read by
    :func:`_features`."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    scan = json.JSONDecoder().scan_once
    idx = _SPACE(text).end()
    try:
        if text.startswith("{", idx):
            doc, idx = _object(text, idx, scan, _COLLECTION_READERS)
        else:
            doc, idx = scan(text, idx)
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", text, err.value) from None
    idx = _SPACE(text, idx).end()
    if idx != len(text):
        raise json.JSONDecodeError("Extra data", text, idx)
    return doc


def _object(text, idx, scan, readers):
    """The members of the JSON object at ``text[idx]``, and its end. A
    member's value is read by ``readers[key]`` where there is one, else
    decoded."""
    members = {}
    opener = "{"
    while True:
        match = _MEMBER(text, idx)
        if match and match[1] == opener:
            key, idx = match[2], match.end()
        else:
            key, idx = _member(text, idx, opener)
            if key is None:
                return members, idx
        reader = readers.get(key)
        members[key], idx = scan(text, idx) if reader is None else reader(text, idx, scan)
        opener = ","


def _member(text, idx, opener):
    """The key of the member after ``opener`` ("{" or ",") at or after
    ``text[idx]``, and the index of its value; at the end of the object, a
    None key and the index past it."""
    idx = _SPACE(text, idx).end()
    if opener == "," and text.startswith("}", idx):
        return None, idx + 1
    if not text.startswith(opener, idx):
        raise json.JSONDecodeError("Expecting ',' delimiter", text, idx)
    idx = _SPACE(text, idx + 1).end()
    if opener == "{" and text.startswith("}", idx):
        return None, idx + 1
    if not text.startswith('"', idx):
        raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, idx)
    key, idx = scanstring(text, idx + 1)
    idx = _SPACE(text, idx).end()
    if not text.startswith(":", idx):
        raise json.JSONDecodeError("Expecting ':' delimiter", text, idx)
    return key, _SPACE(text, idx + 1).end()


def _features(text, idx, scan):
    """An array at ``text[idx]`` as one ``(properties, geometry)`` per
    object element and None per other element; any other value decoded."""
    if not text.startswith("[", idx):
        return scan(text, idx)
    features = []
    idx = _SPACE(text, idx + 1).end()
    if text.startswith("]", idx):
        return features, idx + 1
    while True:
        if text.startswith("{", idx):
            members, idx = _object(text, idx, scan, _FEATURE_READERS)
            features.append((members.get("properties"), members.get("geometry")))
        else:
            idx = scan(text, idx)[1]
            features.append(None)
        idx = _SPACE(text, idx).end()
        if text.startswith("]", idx):
            return features, idx + 1
        if not text.startswith(",", idx):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, idx)
        idx = _SPACE(text, idx + 1).end()


def _geometry(text, idx, scan):
    """The geometry at ``text[idx]`` as its text, None for null, and its end."""
    value, end = scan(text, idx)
    if value is None:
        return None, end
    if isinstance(value, dict) and isinstance(value.get("type"), str):
        return text[idx:end], end
    return _NOT_A_GEOMETRY, end


_COLLECTION_READERS = {"features": _features}
_FEATURE_READERS = {"geometry": _geometry}


def load_facilities(path) -> list[Facility]:
    """Read facilities; zero or negative bed counts are rejected."""
    rows = _Columns(path, FACILITY_COLUMNS, extras_allowed=False)
    ids = rows["facility_id"]
    rows.unique("facility_id", ids)
    beds = rows.counts("beds")
    if 0 in beds:
        i = beds.index(0)
        rows.fail(i, f"facility {ids[i]!r} has zero beds")
    locations = rows.points()
    rows.check()
    return [Facility(facility_id=fid, location=location, beds=n)
            for fid, location, n in zip(ids, locations, beds)]


def load_counties(path) -> list[CountyOutcome]:
    """Read county-year outcome records; (county_id, year) must be unique."""
    rows = _Columns(path, COUNTY_COLUMNS, extras_allowed=False)
    years = rows.counts("year")
    if 0 in years:
        rows.fail(years.index(0), "column 'year' must be >= 1, got 0")
    ids = rows["county_id"]
    rows.unique("county-year", list(zip(ids, years)))
    deaths = rows.counts("adrd_deaths")
    patients = rows.counts("adrd_patients")
    population = rows.counts("population_50plus")
    rows.check()
    return [
        CountyOutcome(county_id=cid, year=year, adrd_deaths=d, adrd_patients=p,
                      population_50plus=n)
        for cid, year, d, p, n in zip(ids, years, deaths, patients, population)
    ]
