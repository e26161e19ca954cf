"""File ingestion: strict CSV schemas, GeoJSON geometry join, cohort filter.

All readers demand exact headers (required columns, in order) and reject
bad rows by line number. Files are UTF-8 (a leading byte order mark, as
spreadsheet exports write, is dropped), comma separated, RFC 4180.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

from .accessibility import DemandZone, Facility
from .errors import ValidationError
from .geo import GeoPoint
from .outcomes import AGGREGATE_YEAR, CountyOutcome

ADRD_CATEGORIES = ("F01", "F03", "G30", "G31")

ZONE_COLUMNS = ["zone_id", "lat", "lon", "population", "adrd_patients", "urban"]
FACILITY_COLUMNS = ["facility_id", "lat", "lon", "beds"]
COUNTY_COLUMNS = ["county_id", "year", "adrd_deaths", "adrd_patients", "population_50plus"]
PATIENT_COLUMNS = ["record_id", "zone_id", "age", "sex", "race", "diagnosis_code", "total_charge"]

_TRUE = {"1", "true"}
_FALSE = {"0", "false"}

__all__ = [
    "ADRD_CATEGORIES",
    "ZONE_COLUMNS",
    "FACILITY_COLUMNS",
    "COUNTY_COLUMNS",
    "PATIENT_COLUMNS",
    "PatientRecord",
    "GroupStats",
    "CohortSummary",
    "is_adrd_code",
    "load_zones",
    "load_facilities",
    "load_counties",
    "load_patients",
    "cohort_summary",
]


@dataclass(frozen=True)
class PatientRecord:
    record_id: str
    zone_id: str
    age: float
    sex: str
    race: str
    diagnosis_code: str
    total_charge: float

    def __post_init__(self):
        code = self.diagnosis_code.strip().upper()
        if not code:
            raise ValidationError(f"record {self.record_id!r}: empty diagnosis code")
        object.__setattr__(self, "diagnosis_code", code)


@dataclass(frozen=True)
class GroupStats:
    count: int
    mean_age: float | None
    pct_female: float | None
    pct_by_race: dict
    mean_total_charge: float | None


@dataclass(frozen=True)
class CohortSummary:
    adrd: GroupStats
    all_patients: GroupStats
    adrd_per_zone: dict


def is_adrd_code(code: str) -> bool:
    """Whether an ICD-10 code falls in the dementia cohort.

    Matching is category-prefix aware: the code (uppercased) must equal
    one of F01, F03, G30, G31 or extend it, directly or after a dot.
    Substring hits elsewhere do not count, so F10 is not F01.
    """
    c = code.strip().upper()
    if not c:
        raise ValidationError("diagnosis code must be non-empty")
    return c.startswith(ADRD_CATEGORIES)


def _read_rows(path, required, extras_allowed: bool):
    """Yield (line_number, row-dict-with-attrs) after header validation."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file, expected header {','.join(required)}")
        if header[: len(required)] != required:
            raise ValidationError(
                f"{path}: header must start with {','.join(required)}, got {','.join(header)}"
            )
        extra = header[len(required):]
        if extra and not extras_allowed:
            raise ValidationError(f"{path}: unexpected extra columns {extra}")
        if len(set(header)) != len(header):
            raise ValidationError(f"{path}: duplicate column names in header")
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(header):
                raise ValidationError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(raw)}"
                )
            rows.append((lineno, dict(zip(header, raw))))
    return extra, rows


def _parse_float(path, lineno, name, text) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: column {name!r} is not a number: {text!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{path}:{lineno}: column {name!r} is not finite")
    return value


def _parse_count(path, lineno, name, text) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: column {name!r} is not an integer: {text!r}")
    if value < 0:
        raise ValidationError(f"{path}:{lineno}: column {name!r} must be >= 0, got {value}")
    return value


def _parse_bool(path, lineno, name, text) -> bool:
    t = text.strip().lower()
    if t in _TRUE:
        return True
    if t in _FALSE:
        return False
    raise ValidationError(f"{path}:{lineno}: column {name!r} is not a boolean: {text!r}")


def _parse_point(path, lineno, row) -> GeoPoint:
    lat = _parse_float(path, lineno, "lat", row["lat"])
    lon = _parse_float(path, lineno, "lon", row["lon"])
    try:
        return GeoPoint(lat, lon)
    except ValidationError as exc:
        raise ValidationError(f"{path}:{lineno}: {exc}")


def load_zones(path, geometry_path=None) -> list[DemandZone]:
    """Read demand zones, optionally joining GeoJSON geometries by zone_id.

    Attribute columns after the required six become the zone's named
    attributes map. Geometry features must each carry a ``zone_id``
    property matching a CSV row.
    """
    attr_cols, rows = _read_rows(path, ZONE_COLUMNS, extras_allowed=True)
    fields = []
    seen: dict[str, int] = {}
    for lineno, row in rows:
        zid = row["zone_id"]
        if zid in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate zone_id {zid!r} (first seen at line {seen[zid]})"
            )
        seen[zid] = lineno
        attributes = {name: _parse_float(path, lineno, name, row[name]) for name in attr_cols}
        fields.append(dict(
            zone_id=zid,
            centroid=_parse_point(path, lineno, row),
            population=_parse_count(path, lineno, "population", row["population"]),
            adrd_patients=_parse_count(path, lineno, "adrd_patients", row["adrd_patients"]),
            urban=_parse_bool(path, lineno, "urban", row["urban"]),
            attributes=attributes,
        ))
    geometries = {} if geometry_path is None else _load_geometries(geometry_path, seen)
    return [DemandZone(**f, geometry=geometries.get(f["zone_id"])) for f in fields]


def _load_geometries(path, known_ids) -> dict:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}")
    if doc.get("type") != "FeatureCollection" or not isinstance(doc.get("features"), list):
        raise ValidationError(f"{path}: expected a GeoJSON FeatureCollection")
    geometries = {}
    for pos, feature in enumerate(doc["features"]):
        props = feature.get("properties") or {}
        zid = props.get("zone_id")
        if zid is None:
            raise ValidationError(f"{path}: feature {pos} has no zone_id property")
        if zid not in known_ids:
            raise ValidationError(f"{path}: feature {pos} zone_id {zid!r} has no CSV row")
        if zid in geometries:
            raise ValidationError(f"{path}: duplicate geometry for zone_id {zid!r}")
        geometries[zid] = feature.get("geometry")
    return geometries


def load_facilities(path) -> list[Facility]:
    """Read facilities; zero or negative bed counts are rejected."""
    _, rows = _read_rows(path, FACILITY_COLUMNS, extras_allowed=False)
    facilities = []
    seen: dict[str, int] = {}
    for lineno, row in rows:
        fid = row["facility_id"]
        if fid in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate facility_id {fid!r} (first seen at line {seen[fid]})"
            )
        seen[fid] = lineno
        beds = _parse_count(path, lineno, "beds", row["beds"])
        if beds == 0:
            raise ValidationError(f"{path}:{lineno}: facility {fid!r} has zero beds")
        facilities.append(Facility(facility_id=fid, location=_parse_point(path, lineno, row), beds=beds))
    return facilities


def load_counties(path) -> list[CountyOutcome]:
    """Read county-year outcome records; (county_id, year) must be unique."""
    _, rows = _read_rows(path, COUNTY_COLUMNS, extras_allowed=False)
    records = []
    seen: dict[tuple, int] = {}
    for lineno, row in rows:
        year = _parse_count(path, lineno, "year", row["year"])
        if year == AGGREGATE_YEAR:
            raise ValidationError(
                f"{path}:{lineno}: year {year} is reserved for multi-year averaged records"
            )
        key = (row["county_id"], year)
        if key in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate county-year {key!r} (first seen at line {seen[key]})"
            )
        seen[key] = lineno
        records.append(
            CountyOutcome(
                county_id=row["county_id"],
                year=year,
                adrd_deaths=_parse_count(path, lineno, "adrd_deaths", row["adrd_deaths"]),
                adrd_patients=_parse_count(path, lineno, "adrd_patients", row["adrd_patients"]),
                population_50plus=_parse_count(
                    path, lineno, "population_50plus", row["population_50plus"]
                ),
            )
        )
    return records


def load_patients(path) -> list[PatientRecord]:
    """Read inpatient records; diagnosis codes are uppercase-normalized."""
    _, rows = _read_rows(path, PATIENT_COLUMNS, extras_allowed=False)
    records = []
    seen: dict[str, int] = {}
    for lineno, row in rows:
        rid = row["record_id"]
        if rid in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate record_id {rid!r} (first seen at line {seen[rid]})"
            )
        seen[rid] = lineno
        if not row["diagnosis_code"].strip():
            raise ValidationError(f"{path}:{lineno}: empty diagnosis_code")
        records.append(
            PatientRecord(
                record_id=rid,
                zone_id=row["zone_id"],
                age=_parse_float(path, lineno, "age", row["age"]),
                sex=row["sex"].strip(),
                race=row["race"].strip(),
                diagnosis_code=row["diagnosis_code"],
                total_charge=_parse_float(path, lineno, "total_charge", row["total_charge"]),
            )
        )
    return records


def _group_stats(records) -> GroupStats:
    n = len(records)
    if n == 0:
        return GroupStats(count=0, mean_age=None, pct_female=None,
                          pct_by_race={}, mean_total_charge=None)
    females = sum(1 for r in records if r.sex.upper() in ("F", "FEMALE"))
    races: dict[str, int] = {}
    for r in records:
        races[r.race] = races.get(r.race, 0) + 1
    return GroupStats(
        count=n,
        mean_age=sum(r.age for r in records) / n,
        pct_female=100.0 * females / n,
        pct_by_race={race: 100.0 * c / n for race, c in sorted(races.items())},
        mean_total_charge=sum(r.total_charge for r in records) / n,
    )


def cohort_summary(patients) -> CohortSummary:
    """Group statistics for the dementia cohort and for all records.

    Also tallies cohort patients per zone, ready to populate the zone
    table's patient counts.
    """
    patients = list(patients)
    if not patients:
        raise ValidationError("cohort_summary requires at least one record")
    adrd = [p for p in patients if is_adrd_code(p.diagnosis_code)]
    per_zone: dict[str, int] = {}
    for p in adrd:
        per_zone[p.zone_id] = per_zone.get(p.zone_id, 0) + 1
    return CohortSummary(
        adrd=_group_stats(adrd),
        all_patients=_group_stats(patients),
        adrd_per_zone=dict(sorted(per_zone.items())),
    )
