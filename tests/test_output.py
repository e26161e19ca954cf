import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoaccess import DemandZone, GeoPoint
from geoaccess.output import GeoJSONWriter, Table, quantize, write_csv, write_geojson
from oracles import ref_write_csv, ref_write_geojson

# Fields holding a line break, quoted whether it is CR, LF or both.
LINE_BREAKS = ["a\rb", "a\nb", "a\r\nb", "\r", "\n", "\r\n", "x\r"]
# Names the csv module quotes, and ones a %-template must not read as a field.
QUOTED_NAMES = ["a,b", 'a"b', '"', ",", '"a"', 'say "hi", then', "100%", "%s"]
# Ids that break naive string splicing: quotes, backslashes, commas,
# line breaks, non-ASCII, and the text between two encoded features.
awkward_ids = st.one_of(
    st.sampled_from(['a"b', "a\\b", "a,b", "zoné", "東京", "},{", '"},{"type":"Feature"}',
                     *LINE_BREAKS]),
    st.text(min_size=1, max_size=6),
)
edge_floats = st.sampled_from([-0.0, 0.0, 1e-300, 1e16, 123456789.0, 0.1, -2.5e-7])
floats = st.one_of(edge_floats, st.floats(allow_nan=False, allow_infinity=False))
json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20), st.text(max_size=6), floats,
    floats.map(np.float64),
)
csv_values = st.one_of(
    json_values, st.floats(),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
)
coordinates = st.floats(-180.0, 180.0)
geometries = st.one_of(
    st.none(),
    st.builds(lambda x, y: {"type": "Point", "coordinates": [x, y]}, coordinates, coordinates),
    st.lists(st.tuples(coordinates, coordinates), min_size=3, max_size=5).map(
        lambda ring: {"type": "Polygon", "coordinates": [[list(p) for p in ring + ring[:1]]]}),
)

# Column families: every cell of a column is drawn from one family, so the
# column-wise fast paths (floats, optional floats, strings) and their
# fallbacks run on whole columns, not on mixed ones.
nonfinite = st.sampled_from([math.nan, math.inf, -math.inf])
json_families = [
    floats,
    st.one_of(st.none(), floats),
    st.one_of(floats, nonfinite),
    st.one_of(st.none(), floats, nonfinite),
    floats.map(np.float64),
    st.integers(-10**20, 10**20),
    st.booleans(),
    awkward_ids,
]
csv_families = json_families + [
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
]


@st.composite
def family_rows(draw, first, families, width):
    """Rows whose first column is drawn from ``first`` and every other
    column from one family."""
    kinds = [draw(st.sampled_from(families)) for _ in range(width - 1)]
    ids = draw(st.lists(first, max_size=8))
    return [[zid, *(draw(kind) for kind in kinds)] for zid in ids]


@st.composite
def family_tables(draw):
    header = draw(st.lists(awkward_ids, min_size=1, max_size=5))
    first = draw(st.sampled_from(csv_families))
    return header, draw(family_rows(first, csv_families, len(header)))


def zone(zone_id, geometry):
    return DemandZone(zone_id, GeoPoint(0.0, 0.0), 1.0, 0.0, False, geometry=geometry)


@st.composite
def zones_and_attributes(draw):
    zones = draw(st.lists(st.builds(zone, awkward_ids, geometries), max_size=8))
    names = st.text(min_size=1, max_size=5)
    # Some zones get no entry at all; a few entries name no zone.
    ids = [z.zone_id for z in zones if draw(st.booleans())] + draw(st.lists(awkward_ids,
                                                                           max_size=2))
    attributes = {zid: draw(st.dictionaries(names, json_values, max_size=4)) for zid in ids}
    return zones, attributes


@given(zones_and_attributes())
@settings(max_examples=100, deadline=None)
def test_write_geojson_matches_whole_document_dump(tmp_path_factory, case):
    zones, attributes = case
    out = tmp_path_factory.mktemp("geojson")
    ref_write_geojson(out / "ref.geojson", zones, attributes)
    write_geojson(out / "new.geojson", zones, attributes)
    assert (out / "new.geojson").read_bytes() == (out / "ref.geojson").read_bytes()


@given(zones_and_attributes(), zones_and_attributes())
@settings(max_examples=30, deadline=None)
def test_one_writer_serves_many_files(tmp_path_factory, case, other):
    zones, attributes = case
    out = tmp_path_factory.mktemp("geojson")
    writer = GeoJSONWriter(zones)
    for i, attrs in enumerate((attributes, other[1], {})):
        writer.write(out / f"new{i}.geojson", attrs)
        ref_write_geojson(out / f"ref{i}.geojson", zones, attrs)
        assert (out / f"new{i}.geojson").read_bytes() == (out / f"ref{i}.geojson").read_bytes()


mixed_tables = st.lists(awkward_ids, min_size=1, max_size=4).flatmap(
    lambda header: st.tuples(
        st.just(header),
        st.lists(st.lists(csv_values, min_size=len(header), max_size=len(header)), max_size=6),
    ))


@given(st.one_of(mixed_tables, family_tables()))
@settings(max_examples=200, deadline=None)
def test_write_csv_matches_per_cell_formatting(tmp_path_factory, case):
    header, rows = case
    out = tmp_path_factory.mktemp("csv")
    ref_write_csv(out / "ref.csv", header, rows)
    write_csv(out / "new.csv", header, rows)
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


def test_write_csv_spells_numpy_booleans_as_flags(tmp_path):
    write_csv(tmp_path / "np.csv", ["a", "b"], [[np.bool_(True), np.bool_(False)]])
    assert (tmp_path / "np.csv").read_text() == "a,b\n1,0\n"


@st.composite
def zones_and_family_table(draw):
    zones = draw(st.lists(st.builds(zone, awkward_ids, geometries), max_size=8))
    # Row ids: zone ids (not every zone gets a row) and a few that name no zone.
    first = st.one_of(st.sampled_from([z.zone_id for z in zones]), awkward_ids) if zones \
        else awkward_ids
    header = draw(st.lists(st.one_of(awkward_ids, st.just("zone_id")), min_size=1, max_size=5))
    return zones, header, draw(family_rows(first, json_families, len(header)))


@given(zones_and_family_table())
@settings(max_examples=150, deadline=None)
def test_table_and_its_twin_match_the_references(tmp_path_factory, case):
    zones, header, rows = case
    out = tmp_path_factory.mktemp("twin")
    table = Table(header, rows)
    table.write_csv(out / "new.csv")
    ref_write_csv(out / "ref.csv", header, rows)
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()
    attributes = {row[0]: dict(zip(header[1:], row[1:])) for row in rows}
    ref_write_geojson(out / "ref.geojson", zones, attributes)
    GeoJSONWriter(zones).write_table(out / "new.geojson", table)
    assert (out / "new.geojson").read_bytes() == (out / "ref.geojson").read_bytes()
    write_geojson(out / "dict.geojson", zones, attributes)
    assert (out / "dict.geojson").read_bytes() == (out / "ref.geojson").read_bytes()


def test_twin_of_a_zone_without_a_row_and_of_an_empty_table(tmp_path):
    point = {"type": "Point", "coordinates": [1.0, 2.0]}
    zones = [zone("b", point), zone("a", point), zone("c", None)]
    header = ["zone_id", "score", "label"]
    for rows in ([["a", 0.1234567891, "x"], ["c", None, "y"]], []):
        table = Table(header, rows)
        table.write_csv(tmp_path / "new.csv")
        GeoJSONWriter(zones).write_table(tmp_path / "new.geojson", table)
        ref_write_csv(tmp_path / "ref.csv", header, rows)
        ref_write_geojson(tmp_path / "ref.geojson", zones,
                          {row[0]: dict(zip(header[1:], row[1:])) for row in rows})
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "new.geojson").read_bytes() == (tmp_path / "ref.geojson").read_bytes()
    assert (tmp_path / "new.csv").read_text() == "zone_id,score,label\n"
    assert (tmp_path / "new.geojson").read_text().count('"properties":{"zone_id":') == 2


def assert_matches_references(path, zones, header, rows):
    table = Table(header, rows)
    table.write_csv(path / "new.csv")
    ref_write_csv(path / "ref.csv", header, rows)
    assert (path / "new.csv").read_bytes() == (path / "ref.csv").read_bytes()
    GeoJSONWriter(zones).write_table(path / "new.geojson", table)
    ref_write_geojson(path / "ref.geojson", zones,
                      {row[0]: dict(zip(header[1:], row[1:])) for row in rows})
    assert (path / "new.geojson").read_bytes() == (path / "ref.geojson").read_bytes()


@pytest.mark.parametrize("text", LINE_BREAKS)
def test_line_breaks_in_ids_and_header_names(tmp_path, text):
    point = {"type": "Point", "coordinates": [1.0, 2.0]}
    zones = [zone(text, point), zone("b", point)]
    header = ["zone_id", text, "label"]
    rows = [[text, 0.5, text], ["b", None, "plain"]]
    assert_matches_references(tmp_path, zones, header, rows)


@pytest.mark.parametrize("name", QUOTED_NAMES)
def test_header_names_with_a_separator_or_a_quote(tmp_path, name):
    point = {"type": "Point", "coordinates": [1.0, 2.0]}
    header = ["zone_id", name, "z"]
    assert_matches_references(tmp_path, [zone("a", point)], header, [["a", 1.25, name]])


@pytest.mark.parametrize("header", [["zone_id"], [""], ["a,b"]])
def test_one_column_tables_with_empty_cells(tmp_path, header):
    point = {"type": "Point", "coordinates": [1.0, 2.0]}
    zones = [zone("", point), zone("a", point)]
    rows = [[""], ["a"], [""], ["x,y"]]
    assert_matches_references(tmp_path, zones, header, rows)
    lines = (tmp_path / "new.csv").read_text().split("\n")
    assert lines[1] == lines[3] == '""'


def _double(bits) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


subnormals = st.integers(1, 2**52 - 1).map(_double)
# Every finite double, drawn by its bit pattern so each exponent is as likely.
any_doubles = st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite)
token_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -7.0, 1e-4, 1e-5, 9.99999999e-5, 0.000100000001,
                     1.00000001e-5, 999999999.0, 1e9, 1e15, 1e16, 5e-324, 4.94065646e-324,
                     2.2250738585072014e-308, 2.225073855e-308, 1.7976931348623157e308]),
    st.integers(-10**17, 10**17).map(float),
    st.floats(1e-5, 1e-4), st.floats(-1e-4, -1e-5),
    st.floats(1e9, 1e16), st.floats(-1e16, -1e9),
    subnormals, subnormals.map(lambda v: -v),
    any_doubles, st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.lists(st.one_of(st.none(), token_floats), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_float_tokens_are_the_repr_of_the_cell(values):
    """A float column's JSON text is float.__repr__ of its 9g cell: the
    cell itself or, where the digit argument does not hold, read back."""
    rows = [[f"z{i:02d}", v] for i, v in enumerate(values)]
    members = Table(["zone_id", "v"], rows).properties()
    for zid, v in rows:
        token = "null" if v is None else float.__repr__(float(f"{v:.9g}"))
        assert members[zid] == f'"v":{token},"zone_id":"{zid}"'
        if v is not None:
            assert token == GeoJSONWriter([]).encode(quantize(v))


def test_writer_encoder_keeps_the_circular_reference_check():
    writer = GeoJSONWriter([])
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        writer.encode(loop)
    # A failed call leaves no container marked: the list that held the
    # unencodable value encodes once that value is gone.
    outer = [[1.0], object()]
    with pytest.raises(TypeError):
        writer.encode(outer)
    outer.pop()
    assert writer.encode(outer) == "[[1.0]]"
    shared = {"b": [outer, outer], "a": "é"}
    assert writer.encode(shared) == '{"a":"\\u00e9","b":[[[1.0]],[[1.0]]]}'
