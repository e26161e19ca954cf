"""File ingestion: strict CSV schemas and a GeoJSON geometry join.

All readers demand exact headers (required columns, in order) and reject
bad rows by line number: ingest parses each cell, and the record built from
a row judges its values' ranges. Files are UTF-8 (a leading byte order
mark, as spreadsheet exports write, is dropped), comma separated, RFC 4180.
"""

from __future__ import annotations

import csv
import functools
import io
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
# The ASCII spaces int() and float() drop around a number.
_PADDING = " \t\n\r\f\v"

__all__ = [
    "ZONE_COLUMNS",
    "FACILITY_COLUMNS",
    "COUNTY_COLUMNS",
    "load_zones",
    "load_facilities",
    "load_counties",
]


def read_text(path) -> str:
    """The text of the file at ``path``, decoded as UTF-8 less a leading
    byte order mark; a byte that is not UTF-8 is rejected by its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # Physical lines, as the csv reader counts them: \r, \n or \r\n ends one.
        line = len((data[:exc.start] + b".").splitlines())
        raise ValidationError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def _spelled(kind, text):
    """``kind(text)`` for ASCII text without ``_``: ``int`` and ``float`` also
    read ``3_9.0`` and other scripts' digits, which no CSV writer spells."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return kind(text)


class _Columns:
    """The data rows of one CSV file, one tuple of cells per column.

    Each check looks at a whole column and records the first row it
    rejects. :meth:`fail` keeps the earliest row, and on one row the check
    made first, so running the checks in the order a row is checked in
    makes :meth:`check` raise what a row-by-row reading raises first.
    """

    def __init__(self, path, required, extras_allowed: bool):
        self.path = path
        reader = csv.reader(io.StringIO(read_text(path), newline=""))
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ValidationError(f"{path}:1: {exc}") from None
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
        self._stop, self._failure = math.inf, None
        lineno = reader.line_num + 1
        try:
            for row in reader:
                if row:
                    self.lines.append(lineno)
                    if len(row) != len(header):
                        # Reading stops here; a fault on an earlier row still wins.
                        self.fail(len(rows), f"expected {len(header)} fields, got {len(row)}")
                        break
                    rows.append(row)
                lineno = reader.line_num + 1
        except csv.Error as exc:  # such as a cell over the process-wide field size limit
            self.lines.append(lineno)
            self.fail(len(rows), str(exc))
        self._cells = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())

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

    def _map(self, kind, error, message, *columns) -> list:
        """``kind`` of each row's cells in ``columns``, up to the first row
        on which it raises ``error``; that row is rejected with
        ``message(exc, *cells)``."""
        try:
            return list(map(kind, *columns))
        except error:
            pass
        values = []
        for cells in zip(*columns):
            try:
                values.append(kind(*cells))
            except error as exc:
                self.fail(len(values), message(exc, *cells))
                break
        return values

    def _parse(self, name, kind, noun) -> list:
        """The cells of ``name`` as ``kind``, up to the first that does not
        parse; ``_spelled`` judges them only if the column's text needs it."""
        cells = self._cells[name]
        joined = "".join(cells)
        if "_" in joined or not joined.isascii():
            kind = functools.partial(_spelled, kind)
        return self._map(kind, ValueError,
                         lambda _, text: f"column {name!r} is not {noun}: {text!r}", cells)

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
        return self._parse(name, int, "an integer")

    def flags(self, name) -> list:
        # As int and float do, read ASCII text less the spaces they drop.
        cells = self._cells[name]
        values = [_FLAGS.get(cell.strip(_PADDING).lower()) if cell.isascii() else None
                  for cell in cells]
        if None in values:
            i = values.index(None)
            self.fail(i, f"column {name!r} is not a boolean: {cells[i]!r}")
        return values

    def records(self, kind, *columns) -> list:
        """``kind`` of each row's values, up to the first row the record
        rejects; that row is rejected with the record's own message."""
        return self._map(kind, ValidationError, lambda exc, *_: str(exc), *columns)

    def points(self) -> list:
        """The lat and lon columns as points, up to the first out of range."""
        return self.records(GeoPoint, self._parse("lat", float, "a number"),
                            self._parse("lon", float, "a number"))


def load_zones(path, geometry_path=None) -> list[DemandZone]:
    """Read demand zones, optionally joining GeoJSON geometries by zone_id.

    Attribute columns after the required six become the zone's named
    attributes map. Geometry features must each carry a ``zone_id``
    property matching a CSV row, and a geometry that is null or an object
    with a string ``type``; each zone keeps its geometry as the JSON text
    it was read as. Its counts are judged after every cell parses and the
    geometry join.
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
    attributes = [dict(zip(rows.extra, values)) for _, *values in zip(ids, *columns)]
    geometries = {} if geometry_path is None else _load_geometries(geometry_path, set(ids))
    zones = rows.records(DemandZone, ids, centroids, population, patients, urban, attributes,
                         list(map(geometries.get, ids)))
    rows.check()
    return zones


def _load_geometries(path, known_ids) -> dict:
    """zone_id -> the text of its feature's geometry (None for null)."""
    text = read_text(path)
    try:
        doc = _feature_collection(text, path)
    except (ValueError, StopIteration, RecursionError):
        # The walk stops at the first fault, or at too deep a nesting; the
        # decoder names it, unless it reads the text (a NaN, say).
        try:
            json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
        raise
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


# The walk below reads a FeatureCollection as json.loads does, but keeps each
# geometry as the text it was read as: every value is decoded once by the json
# module's scanner and, for a geometry, dropped at once. A repeated key keeps
# its last value. Where the text is not JSON the walk stops with a ValueError
# or StopIteration and leaves the message to json.loads.
_SPACE = re.compile(r"[ \t\n\r]*").match
# One object member up to its value: the "," before all but the first, and a
# key with the whitespace around it.
_MEMBER = re.compile(r'[ \t\n\r]*(,?)[ \t\n\r]*"([^"\\\x00-\x1f]*(?:\\.[^"\\\x00-\x1f]*)*)"'
                     r"[ \t\n\r]*:[ \t\n\r]*").match
_OBJECT_END = re.compile(r"[ \t\n\r]*}").match
_ELEMENT_END = re.compile(r"[ \t\n\r]*([,\]])[ \t\n\r]*").match
_DOCUMENT_END = re.compile(r"[ \t\n\r]*\Z").match
_NOT_A_GEOMETRY = object()


def _expect(pattern, text, idx):
    """The match of ``pattern`` at ``text[idx]``; a ValueError where there is none."""
    match = pattern(text, idx)
    if match is None:
        raise ValueError(f"not JSON at index {idx}")
    return match


def _feature_collection(text, path):
    """The top-level value of ``text``; in an object, ``features`` is read by
    :func:`_features`. The json module also reads NaN, Infinity and -Infinity,
    which JSON does not define; they are rejected by name."""
    def reject(constant):
        raise ValidationError(f"{path}: {constant} is not a JSON value")

    scan = json.JSONDecoder(parse_constant=reject).scan_once
    idx = _SPACE(text).end()
    if text.startswith("{", idx):
        doc, idx = _object(text, idx, scan, _COLLECTION_READERS)
    else:
        doc, idx = scan(text, idx)
    _expect(_DOCUMENT_END, text, idx)
    return doc


def _object(text, idx, scan, readers):
    """The members of the JSON object at ``text[idx]``, and its end. A
    member's value is read by ``readers[key]`` where there is one, else
    decoded."""
    members = {}
    idx, separator = idx + 1, ""
    while (match := _MEMBER(text, idx)) and match[1] == separator:
        key, idx = match[2], match.end()
        if "\\" in key:
            key = scanstring(text, match.start(2))[0]
        reader = readers.get(key)
        members[key], idx = scan(text, idx) if reader is None else reader(text, idx, scan)
        separator = ","
    return members, _expect(_OBJECT_END, text, idx).end()


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
        match = _expect(_ELEMENT_END, text, idx)
        idx = match.end()
        if match[1] == "]":
            return features, idx


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
    """Read facilities; facility_id must be unique."""
    rows = _Columns(path, FACILITY_COLUMNS, extras_allowed=False)
    ids = rows["facility_id"]
    rows.unique("facility_id", ids)
    beds = rows.counts("beds")
    facilities = rows.records(Facility, ids, rows.points(), beds)
    rows.check()
    return facilities


def load_counties(path) -> list[CountyOutcome]:
    """Read county-year outcome records; (county_id, year) must be unique."""
    rows = _Columns(path, COUNTY_COLUMNS, extras_allowed=False)
    years = rows.counts("year")
    ids = rows["county_id"]
    rows.unique("county-year", list(zip(ids, years)))
    counties = rows.records(CountyOutcome, ids, years, rows.counts("adrd_deaths"),
                            rows.counts("adrd_patients"), rows.counts("population_50plus"))
    rows.check()
    return counties
