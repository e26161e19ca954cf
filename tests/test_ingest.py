import csv
import dataclasses
import gc
import json
import math
import os
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoaccess import (
    DemandZone,
    Facility,
    GeoPoint,
    ValidationError,
    load_counties,
    load_facilities,
    load_zones,
)
from geoaccess.cli import main
from geoaccess.ingest import FACILITY_COLUMNS, ZONE_COLUMNS
from geoaccess.output import quantize, write_csv, write_geojson
from oracles import ref_load_counties, ref_load_facilities, ref_load_zones

ZONES_HEADER = "zone_id,lat,lon,population,adrd_patients,urban"


class TestLoadZones:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text(f"{ZONES_HEADER}\nz1,39.0,-76.0,1000,12,1\n")
        zones = load_zones(path)
        assert len(zones) == 1
        z = zones[0]
        assert z.zone_id == "z1" and z.urban and z.adrd_patients == 12
        assert z.attributes == {}

    def test_each_zone_without_attribute_columns_has_its_own_empty_map(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text(f"{ZONES_HEADER}\nz1,39.0,-76.0,1000,12,1\nz2,38.0,-76.0,10,1,0\n")
        first, second = load_zones(path)
        assert first.attributes == second.attributes == {}
        assert first.attributes is not second.attributes

    def test_duplicate_zone_id_rejected_with_location(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text(f"{ZONES_HEADER}\nz1,39.0,-76.0,1,1,0\nz1,38.0,-76.0,1,1,0\n")
        with pytest.raises(ValidationError, match=r"zones.csv:3.*'z1'"):
            load_zones(path)

    def test_attribute_columns_become_named_map(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text(
            f"{ZONES_HEADER},poverty_rate,pct_diabetes,pct_obesity\n"
            "z1,39.0,-76.0,1000,12,0,8.5,0.012,0.03\n"
        )
        z = load_zones(path)[0]
        assert set(z.attributes) == {"poverty_rate", "pct_diabetes", "pct_obesity"}
        assert z.attributes["poverty_rate"] == 8.5

    def test_missing_required_column_rejected(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text("zone_id,lat,lon,population,urban\nz1,39,-76,1,1\n")
        with pytest.raises(ValidationError, match="header"):
            load_zones(path)

    def test_unparsable_number_rejected_with_location(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text(f"{ZONES_HEADER}\nz1,39.0,abc,1000,12,1\n")
        with pytest.raises(ValidationError, match=r"zones.csv:2.*'lon'"):
            load_zones(path)

    def test_a_bad_cell_before_a_row_of_the_wrong_width_wins(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text(f"{ZONES_HEADER}\nz1,abc,-76.0,10,1,1\nz2,39.0,-76.0,10\n")
        with pytest.raises(ValidationError,
                           match=r"zones\.csv:2: column 'lat' is not a number: 'abc'$"):
            load_zones(path)

    def test_geometry_join(self, tmp_path):
        csv_path = tmp_path / "zones.csv"
        csv_path.write_text(f"{ZONES_HEADER}\nz1,39.0,-76.0,1000,12,1\n")
        geo_path = tmp_path / "zones.geojson"
        geo_path.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "properties": {"zone_id": "z1"},
                "geometry": {"type": "Point", "coordinates": [-76.0, 39.0]},
            }],
        }))
        zones = load_zones(csv_path, geometry_path=geo_path)
        assert json.loads(zones[0].geometry) == {"type": "Point", "coordinates": [-76.0, 39.0]}

    def test_geometry_without_csv_row_rejected(self, tmp_path):
        csv_path = tmp_path / "zones.csv"
        csv_path.write_text(f"{ZONES_HEADER}\nz1,39.0,-76.0,1000,12,1\n")
        geo_path = tmp_path / "zones.geojson"
        geo_path.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{"type": "Feature", "properties": {"zone_id": "zX"}, "geometry": None}],
        }))
        with pytest.raises(ValidationError, match="'zX'"):
            load_zones(csv_path, geometry_path=geo_path)

    def test_csv_error_reported_before_geometry_error(self, tmp_path):
        csv_path = tmp_path / "zones.csv"
        csv_path.write_text(f"{ZONES_HEADER}\nz1,39.0,-76.0,1000,12,1\nz2,39.0,-76.0,x,12,1\n")
        geo_path = tmp_path / "zones.geojson"
        geo_path.write_text("not json")
        with pytest.raises(ValidationError, match=r"zones.csv:3: column 'population'"):
            load_zones(csv_path, geometry_path=geo_path)

    def test_geometry_join_leaves_zones_without_a_feature_bare(self, tmp_path):
        csv_path = tmp_path / "zones.csv"
        csv_path.write_text(f"{ZONES_HEADER},poverty_rate\n"
                            "z1,39.0,-76.0,1000,12,1,8.5\nz2,38.0,-75.0,50,0,0,9.5\n")
        geo_path = tmp_path / "zones.geojson"
        point = {"type": "Point", "coordinates": [-75.0, 38.0]}
        geo_path.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{"type": "Feature", "properties": {"zone_id": "z2"}, "geometry": point}],
        }))
        with_geometry = load_zones(csv_path, geometry_path=geo_path)
        bare = load_zones(csv_path)
        assert [z.geometry and json.loads(z.geometry) for z in with_geometry] == [None, point]
        assert [dataclasses.replace(z, geometry=None) for z in with_geometry] == bare


class TestOtherLoaders:
    def test_zero_bed_facility_rejected(self, tmp_path):
        path = tmp_path / "facilities.csv"
        path.write_text("facility_id,lat,lon,beds\nh1,39.0,-76.0,0\n")
        with pytest.raises(ValidationError,
                           match=r"facilities\.csv:2: facility 'h1': beds must be finite and > 0, "
                                 r"got 0$"):
            load_facilities(path)

    def test_facilities_load(self, tmp_path):
        path = tmp_path / "facilities.csv"
        path.write_text("facility_id,lat,lon,beds\nh1,39.0,-76.0,120\nh2,38.5,-76.5,40\n")
        facs = load_facilities(path)
        assert [f.facility_id for f in facs] == ["h1", "h2"]
        assert facs[0].beds == 120

    def test_duplicate_county_year_rejected(self, tmp_path):
        path = tmp_path / "counties.csv"
        path.write_text(
            "county_id,year,adrd_deaths,adrd_patients,population_50plus\n"
            "c1,2020,5,40,900\nc1,2020,6,44,900\n"
        )
        with pytest.raises(ValidationError, match="duplicate county-year"):
            load_counties(path)

    def test_year_zero_rejected_with_line(self, tmp_path):
        path = tmp_path / "counties.csv"
        path.write_text(
            "county_id,year,adrd_deaths,adrd_patients,population_50plus\n"
            "c1,2020,5,40,900\nc1,0,6,44,900\n"
        )
        with pytest.raises(ValidationError,
                           match=r"counties\.csv:3: county 'c1': year must be an integer >= 1, "
                                 r"got 0$"):
            load_counties(path)

    @pytest.mark.parametrize("name,text,message", [
        ("zones.csv", "", f"empty file, expected header {ZONES_HEADER}"),
        ("facilities.csv", "facility_id,lat,lon,beds,notes\n", "unexpected extra columns ['notes']"),
        ("zones.csv", f"{ZONES_HEADER},pct,pct\nz1,39.0,-76.0,1,1,0,1,2\n",
         "duplicate column names in header"),
    ], ids=["empty", "extra-column", "repeated-column"])
    def test_a_bad_header_is_named(self, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        load = load_zones if name == "zones.csv" else load_facilities
        with pytest.raises(ValidationError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name,header,good", [
        ("zones.csv", ZONES_HEADER, "z1,39.0,-76.0,1000,12,1"),
        ("facilities.csv", "facility_id,lat,lon,beds", "h1,39.0,-76.0,10"),
        ("counties.csv", "county_id,year,adrd_deaths,adrd_patients,population_50plus",
         "c1,2020,5,40,900"),
    ], ids=["zones", "facilities", "counties"])
    def test_a_cell_over_the_field_size_limit_is_named_by_file_and_line(self, tmp_path, name,
                                                                        header, good):
        path = tmp_path / name
        load = {"zones.csv": load_zones, "facilities.csv": load_facilities,
                "counties.csv": load_counties}[name]
        too_long = "x" * (csv.field_size_limit() + 1)
        limit = f"field larger than field limit ({csv.field_size_limit()})"
        # The row starts on line 3, and its quoted cell runs on to line 4.
        path.write_text(f'{header}\n{good}\n"\n{too_long}",{good.partition(",")[2]}\n{good}\n')
        with pytest.raises(ValidationError) as exc:
            load(path)
        assert str(exc.value) == f"{path}:3: {limit}"
        # A bad cell on an earlier row is met first, as for a row of the wrong width.
        path.write_text(f'{header}\n{good.replace(",", ",x", 1)}\n{too_long}\n')
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}:2: column "):
            load(path)
        path.write_text(f"{too_long}\n{good}\n")
        with pytest.raises(ValidationError) as exc:
            load(path)
        assert str(exc.value) == f"{path}:1: {limit}"

    def test_counties_load(self, tmp_path):
        path = tmp_path / "counties.csv"
        path.write_text(
            "county_id,year,adrd_deaths,adrd_patients,population_50plus\nc1,2020,5,40,900\n"
        )
        rec = load_counties(path)[0]
        assert rec.county_id == "c1" and rec.year == 2020 and rec.adrd_deaths == 5


# A count too large for a float: it parses as an integer, and the record rejects it.
HUGE = "1" + "0" * 400
COUNTIES_HEADER = "county_id,year,adrd_deaths,adrd_patients,population_50plus"


class TestRecordsJudgeRanges:
    @pytest.mark.parametrize("name,header,row,message", [
        ("zones.csv", ZONES_HEADER, f"z2,39.0,-76.0,{HUGE},12,1",
         f"zone 'z2': population must be finite and >= 0, got {HUGE}"),
        ("zones.csv", ZONES_HEADER, "z2,39.0,-76.0,1000,-1,1",
         "zone 'z2': adrd_patients must be finite and >= 0, got -1"),
        ("facilities.csv", "facility_id,lat,lon,beds", f"h2,39.0,-76.0,{HUGE}",
         f"facility 'h2': beds must be finite and > 0, got {HUGE}"),
        ("facilities.csv", "facility_id,lat,lon,beds", "h2,39.0,-76.0,-2",
         "facility 'h2': beds must be finite and > 0, got -2"),
        ("counties.csv", COUNTIES_HEADER, f"c2,2020,{HUGE},40,900",
         f"county 'c2': adrd_deaths must be finite and >= 0, got {HUGE}"),
        ("counties.csv", COUNTIES_HEADER, "c2,2020,5,40,-3",
         "county 'c2': population_50plus must be finite and >= 0, got -3"),
        ("counties.csv", COUNTIES_HEADER, "c2,-2020,5,40,900",
         "county 'c2': year must be an integer >= 1, got -2020"),
    ], ids=["huge-population", "negative-patients", "huge-beds", "negative-beds",
            "huge-deaths", "negative-population_50plus", "negative-year"])
    def test_a_value_the_record_rejects_is_named_by_file_and_line(self, tmp_path, name, header,
                                                                  row, message):
        first = {"zones.csv": "z1,39.0,-76.0,1000,12,1", "facilities.csv": "h1,39.0,-76.0,10",
                 "counties.csv": "c1,2020,5,40,900"}[name]
        path = tmp_path / name
        path.write_text(f"{header}\n{first}\n{row}\n")
        load = {"zones.csv": load_zones, "facilities.csv": load_facilities,
                "counties.csv": load_counties}[name]
        with pytest.raises(ValidationError) as exc:
            load(path)
        assert str(exc.value) == f"{path}:3: {message}"

    def test_an_earlier_row_the_record_rejects_wins_over_a_later_bad_cell(self, tmp_path):
        path = tmp_path / "facilities.csv"
        path.write_text("facility_id,lat,lon,beds\nh1,39.0,-76.0,0\nh2,x,-76.0,10\n")
        with pytest.raises(ValidationError, match=r"facilities\.csv:2: facility 'h1': beds"):
            load_facilities(path)

    def test_a_zone_count_is_judged_after_every_cell_parses_and_the_geometry_join(self, tmp_path):
        csv_path = tmp_path / "zones.csv"
        csv_path.write_text(f"{ZONES_HEADER}\nz1,39.0,-76.0,-1,12,1\nz2,39.0,-76.0,10,1,x\n")
        with pytest.raises(ValidationError, match=r"zones\.csv:3: column 'urban'"):
            load_zones(csv_path)
        csv_path.write_text(f"{ZONES_HEADER}\nz1,39.0,-76.0,-1,12,1\nz2,39.0,-76.0,10,1,0\n")
        geo_path = tmp_path / "zones.geojson"
        geo_path.write_text("not json")
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(geo_path))}: invalid JSON"):
            load_zones(csv_path, geometry_path=geo_path)
        with pytest.raises(ValidationError, match=r"zones\.csv:2: zone 'z1': population must be"):
            load_zones(csv_path)


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_zone_attribute_rejected_with_location(self, tmp_path, text):
        path = tmp_path / "zones.csv"
        path.write_text(
            f"{ZONES_HEADER},poverty_rate\n"
            "z1,39.0,-76.0,1000,12,0,8.5\n"
            f"z2,39.1,-76.0,1000,12,0,{text}\n"
        )
        with pytest.raises(ValidationError, match=r"zones.csv:3: column 'poverty_rate' is not finite"):
            load_zones(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_zone_coordinate_rejected_with_location(self, tmp_path, text):
        path = tmp_path / "zones.csv"
        path.write_text(f"{ZONES_HEADER}\nz1,{text},-76.0,1000,12,1\n")
        with pytest.raises(ValidationError,
                           match=rf"zones.csv:2: latitude {float(text)!r} outside \[-90, 90\]$"):
            load_zones(path)

    @pytest.mark.parametrize("column", ["lat", "lon"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_facility_coordinate_rejected_with_location(self, tmp_path, text, column):
        lat, lon = (text, "-76.0") if column == "lat" else ("39.0", text)
        path = tmp_path / "facilities.csv"
        path.write_text(f"facility_id,lat,lon,beds\nh1,39.0,-76.0,10\nh2,{lat},{lon},20\n")
        name = "latitude" if column == "lat" else "longitude"
        with pytest.raises(ValidationError,
                           match=rf"facilities.csv:3: {name} {float(text)!r} outside \["):
            load_facilities(path)


class TestByteOrderMark:
    def test_bom_prefixed_csv_loads(self, tmp_path):
        path = tmp_path / "facilities.csv"
        path.write_bytes(b"\xef\xbb\xbffacility_id,lat,lon,beds\nh1,39.0,-76.0,120\n")
        facs = load_facilities(path)
        assert [f.facility_id for f in facs] == ["h1"]

    def test_bom_prefixed_geojson_loads(self, tmp_path):
        csv_path = tmp_path / "zones.csv"
        csv_path.write_text(f"{ZONES_HEADER}\nz1,39.0,-76.0,1000,12,1\n")
        geo_path = tmp_path / "zones.geojson"
        doc = {"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"zone_id": "z1"},
            "geometry": {"type": "Point", "coordinates": [-76.0, 39.0]}}]}
        geo_path.write_bytes(b"\xef\xbb\xbf" + json.dumps(doc).encode("utf-8"))
        geometry = load_zones(csv_path, geometry_path=geo_path)[0].geometry
        assert json.loads(geometry) == doc["features"][0]["geometry"]


# One file of each kind: its loader, and three lines of which the third
# is bad in its own right, so a byte that is not UTF-8 on line 4 must be
# reported before any row is checked.
TEXT_FILES = {
    "zones.csv": (load_zones, [ZONES_HEADER, "z1,39.0,-76.0,1000,12,1", "z2,x,-76.0,1,1,0"]),
    "facilities.csv": (load_facilities, ["facility_id,lat,lon,beds", "h1,39.0,-76.0,10",
                                         "h2,39.0,-76.0,0"]),
    "counties.csv": (load_counties, ["county_id,year,adrd_deaths,adrd_patients,population_50plus",
                                     "c1,2020,5,40,900", "c1,2020,5,40,900"]),
    "zones.geojson": (lambda path: load_zones(path.parent / "zones.csv", geometry_path=path),
                      ['{"type": "FeatureCollection",', '"features": [', "1,"]),
}


class TestUtf8:
    @pytest.mark.parametrize("name", sorted(TEXT_FILES))
    def test_the_first_byte_that_is_not_utf8_is_named_by_its_line(self, tmp_path, name):
        load, lines = TEXT_FILES[name]
        write_csv(tmp_path / "zones.csv", ZONE_COLUMNS, [["z1", 39.0, -76.0, 1000, 12, True]])
        path = tmp_path / name
        # \r\n, a lone \r and \n each end a physical line.
        text = "\r\n".join(lines[:2]) + "\r" + lines[2] + "\ncaf\u00e9,"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8") + b"\xe9\n")
        with pytest.raises(ValidationError) as exc:
            load(path)
        assert str(exc.value) == f"{path}:4: not UTF-8 text (invalid continuation byte)"

    def test_an_undecodable_byte_on_the_first_line(self, tmp_path):
        path = tmp_path / "facilities.csv"
        path.write_bytes(b"facility_id,lat,lon,beds\xff\n")
        with pytest.raises(ValidationError, match=r"facilities.csv:1: not UTF-8 text \(invalid start"):
            load_facilities(path)


zone_rows = st.lists(
    st.tuples(
        st.floats(-90.0, 90.0), st.floats(-180.0, 180.0), st.integers(0, 10**6),
        st.integers(0, 10**4), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=8,
)
# Layouts a zone file may come in: line ending, blank lines after the last
# row, and a leading byte order mark.
layouts = st.tuples(st.sampled_from(["\n", "\r\n"]), st.integers(0, 3), st.booleans())
# No digits, separators, quotes or line breaks: the cell never parses as
# a finite number and the row keeps its shape.
junk_cells = st.text(alphabet="abefinxyzAEFINXYZ .+-_$%", max_size=8)
NUMERIC_ZONE_COLUMNS = ["lat", "lon", "population", "adrd_patients", "poverty_rate"]


def zone_file_bytes(cells, layout) -> bytes:
    newline, blank_lines, bom = layout
    lines = [f"{ZONES_HEADER},poverty_rate"] + [",".join(row) for row in cells]
    text = newline.join(lines) + newline * (1 + blank_lines)
    return ("\ufeff" if bom else "").encode("utf-8") + text.encode("utf-8")


def zone_cells(rows):
    return [[f"z{i}", repr(lat), repr(lon), str(pop), str(pat), "1" if urban else "0", repr(pov)]
            for i, (lat, lon, pop, pat, urban, pov) in enumerate(rows)]


class TestIngestProperties:
    @given(zone_rows, layouts)
    @settings(max_examples=100, deadline=None)
    def test_line_endings_blank_tail_and_bom_load_the_same_rows(self, tmp_path_factory, rows,
                                                                 layout):
        path = tmp_path_factory.mktemp("zones") / "zones.csv"
        path.write_bytes(zone_file_bytes(zone_cells(rows), layout))
        zones = load_zones(path)
        assert [z.zone_id for z in zones] == [f"z{i}" for i in range(len(rows))]
        for z, (lat, lon, pop, pat, urban, pov) in zip(zones, rows):
            assert (z.centroid.lat, z.centroid.lon) == (lat, lon)
            assert (z.population, z.adrd_patients, z.urban) == (pop, pat, urban)
            assert z.attributes == {"poverty_rate": pov}

    @given(zone_rows, layouts, junk_cells, st.data())
    @settings(max_examples=100, deadline=None)
    def test_junk_numeric_cell_rejected_with_location(self, tmp_path_factory, rows, layout,
                                                       junk, data):
        cells = zone_cells(rows)
        row = data.draw(st.integers(0, len(rows) - 1))
        column = data.draw(st.sampled_from(NUMERIC_ZONE_COLUMNS))
        cells[row][(ZONES_HEADER.split(",") + ["poverty_rate"]).index(column)] = junk
        path = tmp_path_factory.mktemp("zones") / "zones.csv"
        path.write_bytes(zone_file_bytes(cells, layout))
        # A junk coordinate that parses ("inf", "NaN") is out of range for the point.
        fault = {"lat": "|latitude ", "lon": "|longitude "}.get(column, "")
        with pytest.raises(ValidationError,
                           match=rf"zones.csv:{row + 2}: (column '{column}'{fault})"):
            load_zones(path)


# The three tables as cell grids: a loader, its row-by-row reference, the
# header, valid rows, and the bad spellings of each column. An id column's
# bad spelling copies the next row's id, which for counties (all of one
# year) duplicates a county-year too.
LOADERS = {
    "zones": (load_zones, ref_load_zones,
              ZONES_HEADER.split(",") + ["poverty_rate", "pct_obesity"]),
    "facilities": (load_facilities, ref_load_facilities, ["facility_id", "lat", "lon", "beds"]),
    "counties": (load_counties, ref_load_counties,
                 ["county_id", "year", "adrd_deaths", "adrd_patients", "population_50plus"]),
}
finite_cells = st.floats(allow_nan=False, allow_infinity=False).map(repr)
count_cells = st.integers(0, 10**6).map(str)
VALID_CELLS = {
    "lat": st.floats(-90.0, 90.0).map(repr),
    "lon": st.floats(-180.0, 180.0).map(repr),
    "population": count_cells,
    "adrd_patients": count_cells,
    "urban": st.sampled_from(["1", "0", "true", "False", " TRUE "]),
    "poverty_rate": finite_cells,
    "pct_obesity": finite_cells,
    "beds": st.integers(1, 10**4).map(str),
    "year": st.just("2020"),
    "adrd_deaths": count_cells,
    "population_50plus": count_cells,
}
junk = ["x", "", "1;5"]
# Spellings int() or float() reads that no CSV writer writes: digit
# separators, and Arabic-Indic and fullwidth digits.
SPELLINGS = ["3_9.0", "1_000", "\u0661\u0662", "\uff11\uff12", "1_0.5"]
number_junk = junk + SPELLINGS
BAD_CELLS = {
    "lat": number_junk + ["nan", "inf", "-inf", "1e400", "90.5", "-91"],
    "lon": number_junk + ["nan", "-inf", "180.000001", "-181"],
    "population": number_junk + ["-1", "1.5", "nan"],
    "adrd_patients": number_junk + ["-7", "inf"],
    "urban": junk + ["2", "yes", "\u00a01\u3000", "\x1c1"],
    "poverty_rate": number_junk + ["nan", "inf", "-inf"],
    "pct_obesity": number_junk + ["nan", "-inf"],
    "beds": number_junk + ["-2", "0"],
    "year": number_junk + ["-2020", "0"],
    "adrd_deaths": number_junk + ["-1"],
    "population_50plus": number_junk + ["-3", "2.0"],
}
# The numeric columns, by the noun of their parse error.
NOUNS = {"lat": "a number", "lon": "a number", "poverty_rate": "a number",
         "pct_obesity": "a number", "population": "an integer", "adrd_patients": "an integer",
         "beds": "an integer", "year": "an integer", "adrd_deaths": "an integer",
         "population_50plus": "an integer"}


@st.composite
def table_cells(draw, kind):
    header = LOADERS[kind][2]
    n = draw(st.integers(1, 6))
    return [[f"{kind[0]}{i}"] + [draw(VALID_CELLS[name]) for name in header[1:]]
            for i in range(n)]


def table_bytes(kind, cells, layout) -> bytes:
    newline, blank_lines, bom = layout
    lines = [",".join(LOADERS[kind][2])] + [",".join(row) for row in cells]
    text = newline.join(lines) + newline * (1 + blank_lines)
    return ("\ufeff" if bom else "").encode("utf-8") + text.encode("utf-8")


def outcome(load, path):
    """What ``load`` returns, or the message it raises."""
    try:
        return load(path)
    except ValidationError as exc:
        return str(exc)


class TestReferenceLoaders:
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @given(data=st.data(), layout=layouts)
    @settings(max_examples=60, deadline=None)
    def test_valid_files_load_as_row_by_row(self, tmp_path_factory, kind, data, layout):
        load, ref, _ = LOADERS[kind]
        path = tmp_path_factory.mktemp(kind) / f"{kind}.csv"
        path.write_bytes(table_bytes(kind, data.draw(table_cells(kind)), layout))
        assert load(path) == ref(path)

    @pytest.mark.parametrize("same_line", [False, True])
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @given(data=st.data(), layout=layouts)
    @settings(max_examples=150, deadline=None)
    def test_first_of_several_bad_cells_is_reported(self, tmp_path_factory, kind, same_line,
                                                    data, layout):
        """Bad cells on different lines and in different columns (or, with
        ``same_line``, in different columns of one line): the message and
        line are those of the row-by-row reading."""
        load, ref, header = LOADERS[kind]
        cells = data.draw(table_cells(kind).filter(lambda rows: len(rows) >= 2))
        k = data.draw(st.integers(2, min(4, len(cells))))
        lines = data.draw(st.permutations(range(len(cells))))[:k]
        if same_line:
            lines = lines[:1] * k
        columns = data.draw(st.permutations(range(len(header))))[:k]
        for r, c in zip(lines, columns):
            cells[r][c] = (cells[(r + 1) % len(cells)][0] if c == 0
                           else data.draw(st.sampled_from(BAD_CELLS[header[c]])))
        path = tmp_path_factory.mktemp(kind) / f"{kind}.csv"
        path.write_bytes(table_bytes(kind, cells, layout))
        expected = outcome(ref, path)
        assert isinstance(expected, str)
        assert outcome(load, path) == expected

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    @given(data=st.data(), layout=layouts)
    @settings(max_examples=60, deadline=None)
    def test_a_row_of_the_wrong_width_is_one_more_bad_row(self, tmp_path_factory, kind, data,
                                                          layout):
        """One row a cell short or long, among up to two bad cells: the
        message and line are those of the row-by-row reading."""
        load, ref, header = LOADERS[kind]
        cells = data.draw(table_cells(kind))
        for _ in range(data.draw(st.integers(0, 2))):
            r = data.draw(st.integers(0, len(cells) - 1))
            c = data.draw(st.integers(1, len(header) - 1))
            cells[r][c] = data.draw(st.sampled_from(BAD_CELLS[header[c]]))
        r = data.draw(st.integers(0, len(cells) - 1))
        cells[r] = cells[r][:-1] if data.draw(st.booleans()) else cells[r] + ["1"]
        path = tmp_path_factory.mktemp(kind) / f"{kind}.csv"
        path.write_bytes(table_bytes(kind, cells, layout))
        expected = outcome(ref, path)
        assert isinstance(expected, str)
        assert outcome(load, path) == expected


class TestNumberSpellings:
    @pytest.mark.parametrize("kind,column", [
        (kind, column) for kind in sorted(LOADERS) for column in LOADERS[kind][2]
        if column in NOUNS])
    def test_a_spelling_no_writer_emits_is_rejected_at_its_line(self, tmp_path, kind, column):
        load, ref, header = LOADERS[kind]
        good = [[f"{kind[0]}{i}"] + [{"lat": "39.0", "lon": "-76.0", "urban": "1"}.get(name, "7")
                                     for name in header[1:]] for i in range(3)]
        for spelling in SPELLINGS:
            cells = [row[:] for row in good]
            cells[1][header.index(column)] = spelling
            path = tmp_path / f"{kind}.csv"
            path.write_bytes(table_bytes(kind, cells, ("\n", 0, False)))
            message = f"{path}:3: column {column!r} is not {NOUNS[column]}: {spelling!r}"
            assert outcome(load, path) == outcome(ref, path) == message

    def test_the_first_spelling_of_a_row_is_named(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text(f"{ZONES_HEADER}\nz1,3_9.0,-76.0,1_000,\u0661\u0662,1\n")
        with pytest.raises(ValidationError) as exc:
            load_zones(path)
        assert str(exc.value) == f"{path}:2: column 'lat' is not a number: '3_9.0'"

    @pytest.mark.parametrize("cell", ["\u00a01\u3000", "\u20281", "0\x85", "\x1ctrue"])
    def test_a_flag_padded_by_other_than_ascii_spaces_is_rejected_at_its_line(self, tmp_path,
                                                                             cell):
        path = tmp_path / "zones.csv"
        path.write_text(f"{ZONES_HEADER}\nz1,39.0,-76.0,10,1,1\nz2,39.0,-76.0,10,1,{cell}\n",
                        encoding="utf-8")
        message = f"{path}:3: column 'urban' is not a boolean: {cell!r}"
        assert outcome(load_zones, path) == outcome(ref_load_zones, path) == message

    def test_ascii_padding_is_read(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text(f"{ZONES_HEADER},v\nz1, 39.0\t,-76.0 ,\t1000, 12 , TRUE ,\v0.5\f\n")
        [z] = load_zones(path)
        assert (z.centroid.lat, z.centroid.lon, z.population, z.adrd_patients, z.urban,
                z.attributes) == (39.0, -76.0, 1000, 12, True, {"v": 0.5})

    @given(st.lists(st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0),
                              st.integers(0, 10**18), st.integers(0, 10**18),
                              st.floats(allow_nan=False, allow_infinity=False),
                              st.integers(-10**15, 10**15)), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_every_number_write_csv_writes_reads_back(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("zones") / "zones.csv"
        write_csv(path, ZONE_COLUMNS + ["f", "n"],
                  [[f"z{i}", lat, lon, pop, pat, False, f, n]
                   for i, (lat, lon, pop, pat, f, n) in enumerate(rows)])
        assert [(z.centroid.lat, z.centroid.lon, z.population, z.adrd_patients, z.attributes)
                for z in load_zones(path)] == [
            (quantize(lat), quantize(lon), pop, pat, {"f": quantize(f), "n": float(n)})
            for lat, lon, pop, pat, f, n in rows]


def one_zone_csv(tmp_path):
    path = tmp_path / "zones.csv"
    write_csv(path, ZONE_COLUMNS, [["z1", 39.0, -76.0, 1000, 12, True]])
    return path


POINT = {"type": "Point", "coordinates": [-76.0, 39.0]}
GOOD_FEATURE = {"type": "Feature", "properties": {"zone_id": "z0"}, "geometry": POINT}
# Each document is valid JSON but not a FeatureCollection the join can read,
# and the fault named is feature 1's.
MALFORMED = {
    "top-level array": ([GOOD_FEATURE], "expected a GeoJSON FeatureCollection"),
    "feature not an object": (
        {"type": "FeatureCollection", "features": [GOOD_FEATURE, 1]},
        "feature 1 is not a JSON object"),
    "properties not an object": (
        {"type": "FeatureCollection",
         "features": [GOOD_FEATURE, {"type": "Feature", "properties": [1], "geometry": POINT}]},
        "feature 1 properties is not a JSON object"),
    "zone_id not a string": (
        {"type": "FeatureCollection", "features": [
            GOOD_FEATURE, {"type": "Feature", "properties": {"zone_id": [1]}, "geometry": POINT}]},
        r"feature 1 zone_id \[1\] has no CSV row"),
    "zone_id missing": (
        {"type": "FeatureCollection", "features": [
            GOOD_FEATURE, {"type": "Feature", "properties": {"name": "z1"}, "geometry": POINT}]},
        "feature 1 has no zone_id property"),
    "zone_id repeated": (
        {"type": "FeatureCollection", "features": [GOOD_FEATURE, GOOD_FEATURE]},
        "duplicate geometry for zone_id 'z0'"),
    "geometry a number": (
        {"type": "FeatureCollection", "features": [
            GOOD_FEATURE, {"type": "Feature", "properties": {"zone_id": "z1"}, "geometry": 5}]},
        "feature 1 geometry is neither null nor an object with a string type"),
}


def two_zone_files(tmp_path, doc):
    csv_path = tmp_path / "zones.csv"
    write_csv(csv_path, ZONE_COLUMNS, [["z0", 39.0, -76.0, 10, 1, True],
                                       ["z1", 39.1, -76.1, 10, 1, False]])
    geo_path = tmp_path / "zones.geojson"
    geo_path.write_text(json.dumps(doc))
    return csv_path, geo_path


# Documents json.loads rejects, each with the fault at a different step of
# reading an object or an array.
INVALID_JSON = [
    "", "not json", "[", "{", "{}}", '{"type"}', '{"type" "x"}', '{"type":}', '{"a":1 "b":2}',
    '{"features":[{"geometry":null}{}]}', '{"features":[1 2]}', '{1:2}', '{"a":1,2}',
    '{"features":[{"geometry":{"type":"Point","coordinates":[1,]}}]}', '{"a":"\x01"}',
    '{"a\\q":1}', '{"features":[{"properties":{"zone_id":"z1"},"geometry":tru}]}', "﻿{}",
    '{"a":1,}', '{"features":[1,]}', '{"features":[{"geometry":null,}]}',
]

spaces = st.sampled_from(["", " ", "\n", "\t", "\r\n  "])
# Values a repeated key may hold before the member that counts: bad
# geometries and properties among them.
decoys = st.sampled_from([5, None, "x", [1], {"type": 3}, {"zone_id": "nope"}])
coordinates = st.one_of(st.sampled_from([-0.0, 0.0, 1e300, -2.5e-7, 5e-324, 1e16, 100]),
                        st.floats(-180.0, 180.0))
names = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
geometries = st.one_of(
    st.none(),
    st.builds(lambda x, y: {"type": "Point", "coordinates": [x, y]}, coordinates, coordinates),
    st.builds(lambda ring, name: {"type": "Polygon", "coordinates": [ring + ring[:1]],
                                  "name": name},
              st.lists(st.lists(coordinates, min_size=2, max_size=2), min_size=3, max_size=5),
              names),
)
zone_ids = st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=5)


def spell(draw, value) -> str:
    """``value`` as JSON text with drawn whitespace, member order, repeated
    keys, string escapes and number spellings."""
    if isinstance(value, dict):
        members = []
        for key, item in draw(st.permutations(list(value.items()))):
            if draw(st.integers(0, 4)) == 0:
                members.append((key, draw(decoys)))
            members.append((key, item))
        return "{" + ",".join(
            draw(spaces) + spell(draw, key) + draw(spaces) + ":" + draw(spaces)
            + spell(draw, item) + draw(spaces) for key, item in members) + draw(spaces) + "}"
    if isinstance(value, list):
        return "[" + ",".join(draw(spaces) + spell(draw, item) + draw(spaces)
                              for item in value) + draw(spaces) + "]"
    if isinstance(value, str):
        escape = draw(st.sampled_from(["none", "non-ASCII", "all"]))
        if escape == "all":
            return '"' + "".join(json.dumps(c)[1:-1] if ord(c) > 0xFFFF else f"\\u{ord(c):04x}"
                                 for c in value) + '"'
        return json.dumps(value, ensure_ascii=escape == "non-ASCII").replace(
            "/", "\\/" if draw(st.booleans()) else "/")
    if isinstance(value, float):
        return draw(st.sampled_from([repr(value), f"{value:.16e}", f"{value:.16E}"]))
    return json.dumps(value)


@st.composite
def feature_collections(draw):
    """A FeatureCollection over distinct zone ids, and whether it is spelled
    as the package writes it (compact, sorted keys, ASCII)."""
    ids = draw(st.lists(zone_ids, min_size=1, max_size=5, unique=True))
    features = [{"type": "Feature", "properties": {"zone_id": zid, "name": draw(names)},
                 "geometry": draw(geometries)} for zid in draw(st.permutations(ids))]
    doc = {"type": "FeatureCollection", "features": features}
    canonical = draw(st.booleans())
    text = (json.dumps(doc, sort_keys=True, separators=(",", ":")) if canonical
            else draw(spaces) + spell(draw, doc) + draw(spaces))
    return ids, text, canonical


def polygon_zone_files(directory, n, vertices):
    """A zones CSV and a GeoJSON file of ``n`` zones, each with one ring."""
    zones = []
    for i in range(n):
        lat, lon = 39.0 + i * 1e-3, -76.0
        ring = [[lon + 0.004 * math.cos(k), lat + 0.004 * math.sin(k)] for k in range(vertices - 1)]
        zones.append(DemandZone(f"z{i:04d}", GeoPoint(lat, lon), 10, 1, False,
                                geometry={"type": "Polygon", "coordinates": [ring + ring[:1]]}))
    csv_path, geo_path = directory / "zones.csv", directory / "zones.geojson"
    write_csv(csv_path, ZONE_COLUMNS,
              [[z.zone_id, z.centroid.lat, z.centroid.lon, 10, 1, False] for z in zones])
    write_geojson(geo_path, zones, {})
    return csv_path, geo_path


class TestGeometryFile:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_feature_collection_fails_by_name(self, tmp_path, capsys, case):
        doc, message = MALFORMED[case]
        csv_path, geo_path = two_zone_files(tmp_path, doc)
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(geo_path))}: {message}$"):
            load_zones(csv_path, geometry_path=geo_path)
        facilities = tmp_path / "facilities.csv"
        facilities.write_text("facility_id,lat,lon,beds\nh1,39.0,-76.0,10\n")
        assert main(["access", "--zones", str(csv_path), "--geometry", str(geo_path),
                     "--facilities", str(facilities), "--out", str(tmp_path / "a.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {geo_path}: ")

    @pytest.mark.parametrize("text", INVALID_JSON)
    def test_invalid_json_fails_with_the_decoders_message(self, tmp_path, text):
        csv_path = one_zone_csv(tmp_path)
        geo_path = tmp_path / "zones.geojson"
        geo_path.write_text(text, encoding="utf-8-sig")
        with pytest.raises(json.JSONDecodeError) as decoder:
            json.loads(text)
        with pytest.raises(ValidationError) as walk:
            load_zones(csv_path, geometry_path=geo_path)
        assert str(walk.value) == f"{geo_path}: invalid JSON: {decoder.value}"

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_a_constant_json_does_not_define_is_rejected_by_name(self, tmp_path, constant):
        # json.loads reads these, so a geometry holding one would reach the
        # GeoJSON twins, which no strict JSON parser reads.
        csv_path = one_zone_csv(tmp_path)
        geo_path = tmp_path / "zones.geojson"
        message = rf"^{re.escape(str(geo_path))}: {constant} is not a JSON value$"
        for text in ('{"type":"FeatureCollection","features":[{"properties":{"zone_id":"z1"},'
                     f'"geometry":{{"type":"Point","coordinates":[{constant},39.0]}}}}]}}',
                     f'{{"type":"FeatureCollection","bbox":[{constant}],"features":[]}}'):
            geo_path.write_text(text)
            with pytest.raises(ValidationError, match=message):
                load_zones(csv_path, geometry_path=geo_path)

    def test_the_constants_spelled_as_strings_are_ordinary_json(self, tmp_path):
        # Only the bare tokens are refused; a key or a string of that spelling is read.
        csv_path = one_zone_csv(tmp_path)
        geo_path = tmp_path / "zones.geojson"
        geometry = {"type": "Point", "coordinates": [-76.0, 39.0], "NaN": "-Infinity"}
        geo_path.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"zone_id": "z1", "Infinity": "NaN"},
             "geometry": geometry}]}))
        (zone,) = load_zones(csv_path, geometry_path=geo_path)
        assert zone.geometry == json.dumps(geometry)

    @pytest.mark.parametrize("features", ["[]", "[ \n]"])
    def test_an_empty_feature_list_joins_no_geometry(self, tmp_path, features):
        csv_path = one_zone_csv(tmp_path)
        geo_path = tmp_path / "zones.geojson"
        geo_path.write_text(f'{{"type": "FeatureCollection", "features": {features}}}')
        assert load_zones(csv_path, geometry_path=geo_path) == load_zones(csv_path)

    def test_every_cut_of_a_document_fails_as_the_decoder_does(self, tmp_path):
        csv_path = one_zone_csv(tmp_path)
        text = json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"zone_id": "z1"}, "geometry": POINT}]}, indent=1)
        geo_path = tmp_path / "zones.geojson"
        for cut in range(len(text) - 1):
            geo_path.write_text(text[:cut], encoding="utf-8")
            with pytest.raises(json.JSONDecodeError) as decoder:
                json.loads(text[:cut])
            with pytest.raises(ValidationError) as walk:
                load_zones(csv_path, geometry_path=geo_path)
            assert str(walk.value) == f"{geo_path}: invalid JSON: {decoder.value}"

    @given(feature_collections(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_each_geometry_is_the_text_that_decodes_as_json_load_reads_it(
            self, tmp_path_factory, case, bom):
        ids, text, canonical = case
        directory = tmp_path_factory.mktemp("geo")
        csv_path, geo_path = directory / "zones.csv", directory / "zones.geojson"
        write_csv(csv_path, ZONE_COLUMNS, [[zid, 39.0, -76.0, 10, 1, True] for zid in ids])
        geo_path.write_bytes(("﻿" if bom else "").encode("utf-8") + text.encode("utf-8"))
        with open(geo_path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
        expected = {f["properties"]["zone_id"]: f.get("geometry") for f in doc["features"]}
        for zone in load_zones(csv_path, geometry_path=geo_path):
            geometry = expected[zone.zone_id]
            if geometry is None:
                assert zone.geometry is None
                continue
            # json.dumps tells -0.0 from 0.0 and keeps member order.
            assert json.dumps(json.loads(zone.geometry)) == json.dumps(geometry)
            if canonical:
                assert zone.geometry == json.dumps(geometry, sort_keys=True,
                                                   separators=(",", ":"))

    def test_polygon_zones_keep_no_object_graph(self, tmp_path):
        csv_path, geo_path = polygon_zone_files(tmp_path, 300, 5)
        load_zones(csv_path, geometry_path=geo_path)
        gc.collect()
        before = len(gc.get_objects())
        zones = load_zones(csv_path, geometry_path=geo_path)
        gc.collect()
        assert (len(gc.get_objects()) - before) / len(zones) <= 3

    def test_peak_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        csv_path, geo_path = polygon_zone_files(tmp_path, 200, 400)
        load_zones(csv_path)
        tracemalloc.start()
        try:
            zones = load_zones(csv_path, geometry_path=geo_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(z.geometry for z in zones)
        assert peak < 3 * os.path.getsize(geo_path)


# Ids holding what a CSV field must quote.
quoted_ids = st.text(st.sampled_from("ab \r\n\","), min_size=1, max_size=6)


class TestCsvRecords:
    @given(st.lists(quoted_ids, min_size=1, max_size=5, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_ids_with_line_breaks_quotes_and_commas_round_trip(self, tmp_path_factory, ids):
        directory = tmp_path_factory.mktemp("csv")
        facilities = [Facility(fid, GeoPoint(39.0, -76.0 + i), i + 1) for i, fid in enumerate(ids)]
        write_csv(directory / "facilities.csv", FACILITY_COLUMNS,
                  [[f.facility_id, f.location.lat, f.location.lon, f.beds] for f in facilities])
        assert load_facilities(directory / "facilities.csv") == facilities
        zones = [DemandZone(zid, GeoPoint(39.0, -76.0), i, 0, True) for i, zid in enumerate(ids)]
        write_csv(directory / "zones.csv", ZONE_COLUMNS,
                  [[z.zone_id, 39.0, -76.0, z.population, 0, True] for z in zones])
        assert load_zones(directory / "zones.csv") == zones

    @pytest.mark.parametrize("first_id", ["z\n1", "z\r\n1", "z\r1"])
    def test_errors_name_the_physical_line(self, tmp_path, first_id):
        rows = "z0,39.0,-76.0,1,1,0\nz2,39.0,-76.0,x,1,0\n"
        plain, broken = tmp_path / "plain.csv", tmp_path / "broken.csv"
        plain.write_text(f"{ZONES_HEADER}\nz1,39.0,-76.0,1,1,0\n{rows}", newline="")
        broken.write_text(f'{ZONES_HEADER}\n"{first_id}",39.0,-76.0,1,1,0\n{rows}', newline="")
        with pytest.raises(ValidationError, match=r"plain.csv:4: column 'population'"):
            load_zones(plain)
        with pytest.raises(ValidationError, match=r"broken.csv:5: column 'population'"):
            load_zones(broken)

    def test_duplicate_after_a_quoted_line_break_names_both_lines(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text(f'{ZONES_HEADER}\n"a\nb",39.0,-76.0,1,1,0\nz1,39.0,-76.0,1,1,0\n'
                        "z1,39.0,-76.0,1,1,0\n", newline="")
        with pytest.raises(ValidationError, match=r"zones.csv:5: .*'z1' \(first seen at line 4\)"):
            load_zones(path)
