"""Spans around the calls the benchmark makes into each geoaccess layer.

The traced run replays ``run_pipeline`` stage by stage from here, so no
code under ``src/`` is instrumented. Every span records its name, the
layer that does its work, its start and end, and the span that caused
it. Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np

from geoaccess import (
    build_weights,
    classify_hotspots,
    getis_ord_gi_star,
    load_counties,
    load_facilities,
    load_zones,
    local_bivariate,
)
from geoaccess import pipeline as pl
from geoaccess.output import write_csv, write_geojson

from workloads import InputFiles, catchment_pairs

# Layers whose time is the sum of their spans' self time.
BUSY_LAYERS = ("ingest", "accessibility", "equity", "risk", "outcomes", "output")

# Stage spans, in run_pipeline's order, and the metric each one feeds.
STAGE_METRICS = {
    "pipeline.access": "pipeline.access_s",
    "pipeline.gini": "pipeline.gini_s",
    "pipeline.hotspot": "pipeline.hotspot_s",
    "pipeline.risk": "pipeline.risk_s",
    "pipeline.bivariate_accessibility": "pipeline.bivariate_accessibility_s",
    "pipeline.bivariate_risk_index": "pipeline.bivariate_risk_index_s",
    "pipeline.mortality": "pipeline.mortality_s",
}

__all__ = ["Tracer", "traced_pipeline", "spatial_probes", "layer_metrics"]


class Tracer:
    """In-memory spans and counts for one run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, name, layer):
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self.t0, "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._stack.pop()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def duration(self, rec) -> float:
        return rec["end"] - rec["start"]

    def self_times(self) -> dict:
        """Seconds per layer not covered by a child span.

        Spans are opened on one thread and nest strictly, so the part of
        a span its children cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += self.duration(rec)
        out = {}
        for rec, covered in zip(self.spans, child):
            out[rec["layer"]] = out.get(rec["layer"], 0.0) + self.duration(rec) - covered
        return out

    def named(self, name) -> list:
        return [rec for rec in self.spans if rec["name"] == name]

    def total(self, prefix) -> float:
        """Summed duration of the spans whose name starts with ``prefix``."""
        return sum(self.duration(r) for r in self.spans if r["name"].startswith(prefix))

    def document(self, **meta) -> dict:
        return dict(meta, spans=self.spans, counts=self.counts, self_s=self.self_times())


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def traced_pipeline(tracer: Tracer, files: InputFiles, out_dir, cfg):
    """``timed_pipeline`` with a span around every call into a layer.

    Mirrors the body of ``run_pipeline``; the caller checks that the
    files it writes are byte-identical to run_pipeline's, so the spans
    time the same program. Returns (zones, accessibility field).
    """
    with tracer.span("op", "pipeline"):
        with tracer.span("ingest.load_zones", "ingest"):
            zones = load_zones(files.zones, files.geometry)
        with tracer.span("ingest.load_facilities", "ingest"):
            facilities = load_facilities(files.facilities)
        with tracer.span("ingest.load_counties", "ingest"):
            counties = load_counties(files.counties)
        tracer.count("ingest.rows", len(zones) + len(facilities) + len(counties))
        tracer.count("ingest.bytes", _file_bytes(files.paths()))
        tracer.count("outcomes.county_rows", len(counties))

        os.makedirs(out_dir, exist_ok=True)
        zones = pl.sorted_zones(zones)
        poverty = cfg.poverty_column
        has_geometry = any(z.geometry is not None for z in zones)
        written = []

        def emit(name, header, rows, geo_attrs=None):
            path = os.path.join(out_dir, f"{name}.csv")
            with tracer.span(f"output.{name}.csv", "output"):
                write_csv(path, header, rows)
            written.append(path)
            if geo_attrs is not None and has_geometry:
                path = os.path.join(out_dir, f"{name}.geojson")
                with tracer.span(f"output.{name}.geojson", "output"):
                    write_geojson(path, zones, geo_attrs)
                written.append(path)

        with tracer.span("pipeline.access", "pipeline"):
            with tracer.span("accessibility.compute_access", "accessibility"):
                field = pl.compute_access(zones, facilities, cfg)
            acc_rows = pl.access_rows(zones, field)
        emit("access", pl.ACCESS_HEADER, acc_rows,
             {zid: {"accessibility": v} for zid, v in acc_rows})

        with tracer.span("pipeline.gini", "equity"):
            rows = pl.gini_rows(zones, field)
        emit("gini", pl.GINI_HEADER, rows)

        access_by_zone = {zid: v for zid, v in acc_rows}
        with tracer.span("pipeline.hotspot", "spatial"):
            hs_rows = pl.hotspot_rows(zones, [access_by_zone[z.zone_id] for z in zones], cfg)
        emit("hotspot_accessibility", pl.HOTSPOT_HEADER, hs_rows,
             {r[0]: {"value": r[1], "z": r[2], "p": r[3], "category": r[4]} for r in hs_rows})

        with tracer.span("pipeline.risk", "risk"):
            rk_rows, _ = pl.risk_rows(zones, cfg)
        emit("risk_index", pl.RISK_HEADER, rk_rows,
             {zid: {"risk_index": v} for zid, v in rk_rows})

        computed = {
            "accessibility": access_by_zone,
            "risk_index": {zid: v for zid, v in rk_rows},
        }
        for y_name in ("accessibility", "risk_index"):
            with tracer.span(f"pipeline.bivariate_{y_name}", "spatial"):
                rows = pl.bivariate_rows(zones, poverty, y_name, cfg, computed)
            emit(f"bivariate_{poverty}_{y_name}", pl.BIVARIATE_HEADER, rows,
                 {r[0]: {"x_value": r[1], "y_value": r[2], "local_r": r[3],
                         "pseudo_p": r[4], "category": r[5]} for r in rows})

        with tracer.span("pipeline.mortality", "outcomes"):
            rows = pl.mortality_rows(counties)
        emit("mortality", pl.MORTALITY_HEADER, rows)

    tracer.count("output.files", len(written))
    tracer.count("output.bytes", _file_bytes(written))
    tracer.count("accessibility.pairs", catchment_pairs(zones, facilities, cfg.catchment_miles))
    tracer.count("accessibility.skipped", len(field.skipped_facilities))
    return zones, field


def _same_bivariate(a, b) -> bool:
    return (a.category == b.category and np.array_equal(a.pseudo_p, b.pseudo_p)
            and np.array_equal(a.local_r, b.local_r, equal_nan=True))


def spatial_probes(tracer: Tracer, zones, field, cfg) -> bool:
    """Time the spatial kernels one call each, at the pipeline's settings.

    Weights are built once and shared by Gi* and both local_bivariate
    calls (workers=1, then workers=2 for the thread-pool probe). Returns
    whether the two worker counts gave identical results.
    """
    points = [(z.zone_id, z.centroid) for z in zones]
    with tracer.span("probe.build_weights", "spatial"):
        weights = build_weights(points, "fixed_band", include_self=True, band=cfg.band_miles)
    access = [field.zone_scores[z.zone_id] for z in zones]
    with tracer.span("probe.gi_star", "spatial"):
        classify_hotspots(getis_ord_gi_star(access, weights), fdr=cfg.fdr)
    poverty = [z.attributes[cfg.poverty_column] for z in zones]
    results = []
    for workers, layer in ((1, "spatial"), (2, "parallel")):
        with tracer.span(f"probe.local_bivariate_w{workers}", layer):
            results.append(local_bivariate(
                poverty, access, weights, permutations=cfg.permutations, seed=cfg.seed,
                min_neighbors=cfg.min_neighbors, workers=workers))
    tracer.count("spatial.weights_nnz", sum(len(nb) for nb in weights.neighbors))
    tracer.count("spatial.bivariate_undefined", results[0].category.count("Undefined"))
    tracer.count("spatial.zones", len(zones))
    tracer.count("spatial.permutations", cfg.permutations)
    return _same_bivariate(*results)


def layer_metrics(tracer: Tracer, untraced_s: float) -> dict:
    """Per-layer numbers, in seconds or counts, from one traced operation and the probes."""
    selfs = tracer.self_times()
    counts = tracer.counts

    def one(name):
        (rec,) = tracer.named(name)
        return tracer.duration(rec)

    out = {f"{layer}.busy_s": selfs[layer] for layer in BUSY_LAYERS}
    for name in ("ingest.rows", "ingest.bytes", "accessibility.pairs", "accessibility.skipped",
                 "spatial.weights_nnz", "spatial.bivariate_undefined", "outcomes.county_rows",
                 "output.files", "output.bytes"):
        out[name] = counts[name]
    out["accessibility.pairs_per_s"] = counts["accessibility.pairs"] / selfs["accessibility"]

    n = counts["spatial.zones"]
    biv = one("probe.local_bivariate_w1")
    out["spatial.weights_s"] = one("probe.build_weights")
    out["spatial.mean_hood"] = counts["spatial.weights_nnz"] / n
    out["spatial.gi_star_s"] = one("probe.gi_star")
    out["spatial.bivariate_s"] = biv
    out["spatial.bivariate_zone_perms_per_s"] = n * counts["spatial.permutations"] / biv
    out["parallel.bivariate_w2_s"] = one("probe.local_bivariate_w2")
    out["parallel.speedup_w2"] = biv / out["parallel.bivariate_w2_s"]
    for stage, metric in STAGE_METRICS.items():
        out[metric] = one(stage)

    explained = sum(tracer.duration(r) for r in tracer.spans
                    if r["name"] in STAGE_METRICS or r["layer"] in ("ingest", "output"))
    out["trace.overhead_s"] = one("op") - untraced_s
    out["trace.unexplained_s"] = untraced_s - explained
    return out
