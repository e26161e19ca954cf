"""Deterministic CSV and GeoJSON emission.

Column order is fixed by the caller, rows are sorted by id upstream,
floats print with 9 significant digits, and line endings are plain
newlines, so identical analyses produce byte-identical files.
"""

from __future__ import annotations

import csv
import json

__all__ = ["format_value", "write_csv", "write_geojson", "quantize"]


def quantize(x: float) -> float:
    """Round a float to 9 significant digits (the on-disk precision)."""
    return float(f"{float(x):.9g}")


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write rows of python values with fixed formatting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def write_geojson(path, zones, attributes_by_zone) -> None:
    """Emit a FeatureCollection for the zones that carry geometry.

    Each feature's properties hold the zone id plus every analysis
    attribute supplied for it; features are ordered by zone id.
    """
    features = []
    for zone in sorted(zones, key=lambda z: z.zone_id):
        if zone.geometry is None:
            continue
        properties = {"zone_id": zone.zone_id}
        for name, value in attributes_by_zone.get(zone.zone_id, {}).items():
            properties[name] = quantize(value) if isinstance(value, float) else value
        features.append(
            {"type": "Feature", "geometry": zone.geometry, "properties": properties}
        )
    doc = {"type": "FeatureCollection", "features": features}
    # json.dumps takes the C encoder; json.dump would stream through the
    # pure-Python one. The bytes are the same.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
