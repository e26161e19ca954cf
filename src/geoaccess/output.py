"""Deterministic CSV and GeoJSON emission.

Column order is fixed by the caller, rows are sorted by id upstream,
floats print with 9 significant digits, and line endings are plain
newlines, so identical analyses produce byte-identical files.
"""

from __future__ import annotations

import csv
import json

import numpy as np

__all__ = ["format_value", "write_csv", "GeoJSONWriter", "write_geojson", "quantize"]

# The C encoder behind json.dumps(doc, sort_keys=True, separators=(",", ":")).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _format_row(row) -> list:
    """``format_value`` of every cell, with the built-in types inlined."""
    return [
        f"{v:.9g}" if type(v) is float
        else v if type(v) is str
        else "" if v is None
        else ("1" if v else "0") if type(v) is bool
        else str(v) if type(v) is int
        else format_value(v)
        for v in row
    ]


def write_csv(path, header, rows) -> None:
    """Write rows of python values with fixed formatting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_format_row, rows))


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
            (zone.zone_id, '{"geometry":' + _ENCODER.encode(zone.geometry) + ',"properties":')
            for zone in sorted(zones, key=lambda z: z.zone_id)
            if zone.geometry is not None
        ]

    def write(self, path, attributes_by_zone) -> None:
        features = []
        for zone_id, head in self._heads:
            properties = {"zone_id": zone_id}
            for name, value in attributes_by_zone.get(zone_id, {}).items():
                properties[name] = quantize(value) if isinstance(value, float) else value
            features.append(head + _ENCODER.encode(properties) + ',"type":"Feature"}')
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"features":[' + ",".join(features) + '],"type":"FeatureCollection"}\n')


def write_geojson(path, zones, attributes_by_zone) -> None:
    """Emit a FeatureCollection for the zones that carry geometry."""
    GeoJSONWriter(zones).write(path, attributes_by_zone)
