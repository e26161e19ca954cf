"""Deterministic CSV and GeoJSON emission.

Column order is fixed by the caller, rows are sorted by id upstream,
floats print with 9 significant digits, and line endings are plain
newlines, so identical analyses produce byte-identical files.

A :class:`Table` formats each column once, by one comprehension for a
column of floats, optional floats or strings, else cell by cell with
:func:`format_value`; its CSV and its GeoJSON twin share those cells.
Each file is built as one string and written with one call.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

__all__ = ["format_value", "Table", "write_csv", "GeoJSONWriter", "write_geojson", "quantize"]

# float.__repr__ of the values JSON spells NaN, Infinity and -Infinity.
_NONFINITE = frozenset(["nan", "inf", "-inf"])
# What makes a CSV field need quotes.
_CSV_SPECIAL = (",", '"', "\r", "\n")
# json.dumps(value, sort_keys=True, separators=(",", ":")).
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def quantize(x: float) -> float:
    """Round a float to 9 significant digits (the on-disk precision)."""
    return float(f"{float(x):.9g}")


def format_value(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()  # numpy scalars spell like their Python twins
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _cells(column) -> list:
    """``format_value`` of every cell of one column."""
    kinds = set(map(type, column))
    if kinds == {str}:
        return list(column)
    if kinds <= {float, type(None)}:
        return ["" if v is None else f"{v:.9g}" for v in column]
    return [format_value(v) for v in column]


def _tokens(column, cells) -> list:
    """The JSON text of every value of one column, from its CSV cells where it can."""
    kinds = set(map(type, column))
    if kinds == {str}:
        return list(map(_quote, column))
    if kinds <= {float, type(None)}:
        # The encoder spells quantize(v) as float.__repr__ of its cell c. That
        # is c itself when c has a fraction or a negative exponent and no
        # positive one: c has at most 9 significant digits, and no other
        # string of at most 15 reads back as the same double. That fails for
        # subnormals (exponents -308 to -324), so cells holding "e-3" are
        # read back: those and the exponents -30 to -39 and -300 to -307.
        tokens = [c if ("." in c or "e-" in c) and "e+" not in c and "e-3" not in c
                  else float.__repr__(float(c)) if c else "null" for c in cells]
        if _NONFINITE.isdisjoint(tokens):
            return tokens
    return [_encode(quantize(v) if isinstance(v, float) else v) for v in column]


def _csv_fields(cells, sole: bool) -> list:
    """``cells`` as CSV fields; ``sole`` when each is the only field of its
    row. A cell holding a separator, quote or line break, or an empty sole
    field, is quoted; every other cell is its own field."""
    text = "".join(cells)
    if not any(s in text for s in _CSV_SPECIAL) and not (sole and "" in cells):
        return cells
    return [_csv_field(c) if (sole and not c) or any(s in c for s in _CSV_SPECIAL) else c
            for c in cells]


def _csv_field(cell) -> str:
    """``cell`` quoted, its quotes doubled (RFC 4180)."""
    return '"' + cell.replace('"', '""') + '"'


def _write_text(path, text) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


class Table:
    """A table of python values rendered once, column by column.

    The CSV cells are formatted on construction; the JSON tokens of a
    GeoJSON twin only when :meth:`properties` asks for them. Every row
    must have the same length.
    """

    def __init__(self, header, rows):
        self.header = list(header)
        self._columns = list(zip(*rows, strict=True))
        self._cells = list(map(_cells, self._columns))

    def write_csv(self, path) -> None:
        """The header, then the cells row by row."""
        sole = len(self.header) == 1
        lines = map(",".join, zip(*[_csv_fields(cells, sole) for cells in self._cells]))
        _write_text(path, "\n".join([",".join(_csv_fields(self.header, sole)), *lines]) + "\n")

    def properties(self) -> dict:
        """First-column value -> its row as sorted-key JSON object members,
        the first column named ``zone_id`` and the others by the header; as
        in a dict, a later column of a name, or a later row of an id, wins."""
        names = sorted(dict(zip(["zone_id", *self.header[1:]], range(len(self._columns)))).items())
        if not names:
            return {}
        template = ",".join(_quote(name).replace("%", "%%") + ":%s" for name, _ in names)
        tokens = [_tokens(self._columns[j], self._cells[j]) for _, j in names]
        return dict(zip(self._columns[0], map(template.__mod__, zip(*tokens))))


def write_csv(path, header, rows) -> None:
    """Write rows of python values with fixed formatting."""
    Table(header, rows).write_csv(path)


class GeoJSONWriter:
    """FeatureCollections over one set of zones.

    A file holds a feature for every zone that carries geometry, ordered
    by zone id; its properties are the zone id plus the attributes given
    for that zone. A geometry given as JSON text is written as it is; a
    mapping is encoded once. The bytes equal ``json.dumps`` of the whole
    document with sorted keys when every geometry text is so spelled,
    because sorted keys put a feature's geometry before its properties
    and type, and the features before the collection's type.
    """

    encode = staticmethod(_encode)

    def __init__(self, zones):
        self._heads = [
            (zone.zone_id, '{"geometry":' + (zone.geometry if isinstance(zone.geometry, str)
                                             else self.encode(zone.geometry)) + ',"properties":{')
            for zone in sorted(zones, key=lambda z: z.zone_id)
            if zone.geometry is not None
        ]

    def write_table(self, path, *tables: Table) -> None:
        """The twin of zone-level tables: each zone's properties are the
        row whose first cell is its id, that cell named ``zone_id``; a
        later table's row wins, and a zone without a row gets its id alone."""
        members: dict = {}
        for table in tables:
            members.update(table.properties())
        features = ",".join([
            head + (members.get(zone_id) or '"zone_id":' + _quote(zone_id))
            + '},"type":"Feature"}' for zone_id, head in self._heads])
        _write_text(path, '{"features":[' + features + '],"type":"FeatureCollection"}\n')


def write_geojson(path, zones, attributes_by_zone) -> None:
    """Emit a FeatureCollection for the zones that carry geometry, with
    properties from ``zone_id -> {name: value}``, names being strings.
    Zones with the same names share one table."""
    groups: dict[tuple, list] = {}
    for zone in zones:
        if zone.geometry is not None:
            attributes = attributes_by_zone.get(zone.zone_id, {})
            groups.setdefault(tuple(attributes), []).append([zone.zone_id, *attributes.values()])
    GeoJSONWriter(zones).write_table(
        path, *(Table(["zone_id", *names], rows) for names, rows in groups.items()))
