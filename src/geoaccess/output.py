"""Deterministic CSV and GeoJSON emission.

Column order is fixed by the caller, rows are sorted by id upstream,
floats print with 9 significant digits, and line endings are plain
newlines, so identical analyses produce byte-identical files.

A :class:`Table` formats each column once, by one comprehension for a
column of floats, optional floats or strings, else cell by cell with
:func:`format_value`; its CSV and its GeoJSON twin share those cells.
"""

from __future__ import annotations

import csv
import json
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

__all__ = ["format_value", "Table", "write_csv", "GeoJSONWriter", "write_geojson", "quantize"]

# The C encoder behind json.dumps(doc, sort_keys=True, separators=(",", ":")).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# float.__repr__ of the values JSON spells NaN, Infinity and -Infinity.
_NONFINITE = frozenset(["nan", "inf", "-inf"])


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
        # float.__repr__ of the cell is the encoder's spelling of quantize(v).
        tokens = [float.__repr__(float(c)) if c else "null" for c in cells]
        if _NONFINITE.isdisjoint(tokens):
            return tokens
    return [_ENCODER.encode(quantize(v) if isinstance(v, float) else v) for v in column]


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
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.header)
            writer.writerows(zip(*self._cells))

    def properties(self) -> dict:
        """First-column value -> its row as sorted-key JSON object members,
        the first column named ``zone_id`` and the others by the header; as
        in a dict, a later column of a name, or a later row of an id, wins."""
        names = dict(zip(["zone_id", *self.header[1:]], range(len(self._columns))))
        members = []
        for name, j in sorted(names.items()):
            key = _quote(name) + ":"
            members.append([key + token for token in _tokens(self._columns[j], self._cells[j])])
        return dict(zip(self._columns[0], map(",".join, zip(*members)))) if members else {}


def write_csv(path, header, rows) -> None:
    """Write rows of python values with fixed formatting."""
    Table(header, rows).write_csv(path)


class GeoJSONWriter:
    """FeatureCollections over one set of zones, each geometry encoded once.

    A file holds a feature for every zone that carries geometry, ordered
    by zone id; its properties are the zone id plus the attributes given
    for that zone. The bytes equal ``json.dumps`` of the whole document
    with sorted keys, because sorted keys put a feature's geometry before
    its properties and type, and the features before the collection's type.
    """

    def __init__(self, zones):
        self._heads = [
            (zone.zone_id, '{"geometry":' + _ENCODER.encode(zone.geometry) + ',"properties":{')
            for zone in sorted(zones, key=lambda z: z.zone_id)
            if zone.geometry is not None
        ]

    def write_table(self, path, table: Table) -> None:
        """The twin of a zone-level table: each zone's properties are the
        row whose first cell is its id, that cell named ``zone_id``."""
        self._write(path, table.properties())

    def write(self, path, attributes_by_zone) -> None:
        """Properties from ``zone_id -> {name: value}``, names being strings.
        Zones with the same names share one table."""
        groups: dict[tuple, list] = {}
        for zone_id, _ in self._heads:
            attributes = attributes_by_zone.get(zone_id, {})
            groups.setdefault(tuple(attributes), []).append([zone_id, *attributes.values()])
        members: dict = {}
        for names, rows in groups.items():
            members.update(Table(["zone_id", *names], rows).properties())
        self._write(path, members)

    def _write(self, path, members) -> None:
        """One feature per zone; a zone without members gets its id alone."""
        features = ",".join([
            head + (members.get(zone_id) or '"zone_id":' + _ENCODER.encode(zone_id))
            + '},"type":"Feature"}' for zone_id, head in self._heads])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"features":[' + features + '],"type":"FeatureCollection"}\n')


def write_geojson(path, zones, attributes_by_zone) -> None:
    """Emit a FeatureCollection for the zones that carry geometry."""
    GeoJSONWriter(zones).write(path, attributes_by_zone)
