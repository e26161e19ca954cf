"""Analysis stages shared by the CLI subcommands and the full pipeline.

Every stage takes zones already sorted by id and returns plain rows
ready for the deterministic writers, so running the stages one by one
produces byte-identical files to running the whole pipeline.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import os
import shutil
import tempfile

from .accessibility import accessibility_scores
from .config import RunConfig
from .equity import gini_stratified, welch_t_test
from .errors import ValidationError
from .outcomes import ServiceStatus, classify_service_status
from .output import GeoJSONWriter, Table
from .risk import fit_risk_model, health_risk_index
from .spatial import build_weights, classify_hotspots, getis_ord_gi_star, local_bivariates

ACCESS_HEADER = ["zone_id", "accessibility"]
GINI_HEADER = ["stratum", "n", "mean", "gini"]
HOTSPOT_HEADER = ["zone_id", "value", "z", "p", "category"]
RISK_HEADER = ["zone_id", "risk_index"]
BIVARIATE_HEADER = ["zone_id", "x_value", "y_value", "local_r", "pseudo_p", "category"]
MORTALITY_HEADER = [f.name for f in dataclasses.fields(ServiceStatus)]
TTEST_HEADER = [
    "variable", "n_rural", "n_urban", "mean_rural", "mean_urban",
    "var_rural", "var_urban", "t", "df", "p", "flag",
]

__all__ = [
    "ACCESS_HEADER", "GINI_HEADER", "HOTSPOT_HEADER", "RISK_HEADER",
    "BIVARIATE_HEADER", "MORTALITY_HEADER", "TTEST_HEADER",
    "sorted_zones", "resolve_series", "compute_access", "access_rows",
    "gini_rows", "hotspot_rows", "risk_rows", "bivariate_tables", "bivariate_rows",
    "mortality_rows", "ttest_rows", "run_pipeline",
]


def sorted_zones(zones):
    return sorted(zones, key=lambda z: z.zone_id)


def compute_access(zones, facilities, cfg: RunConfig):
    return accessibility_scores(zones, facilities, d0=cfg.catchment_miles, demand=cfg.demand)


def _zone_weights(zones, cfg: RunConfig):
    points = [(z.zone_id, z.centroid) for z in zones]
    if cfg.weights_scheme == "knn":
        return build_weights(points, "knn", include_self=True, k=cfg.knn_k)
    return build_weights(points, "fixed_band", include_self=True, band=cfg.band_miles)


def resolve_series(zones, name: str, computed: dict | None = None) -> list[float]:
    """Per-zone values for a named column.

    ``computed`` maps derived column names (accessibility, risk_index)
    to zone_id -> value dicts; anything else must be a zone attribute.
    """
    if computed and name in computed:
        by_id = computed[name]
        return [by_id[z.zone_id] for z in zones]
    try:
        return [z.attributes[name] for z in zones]
    except KeyError:
        zone = next(z for z in zones if name not in z.attributes)
        raise ValidationError(f"zone {zone.zone_id!r} has no attribute column {name!r}") from None


def access_rows(zones, field):
    return [(z.zone_id, field.zone_scores[z.zone_id]) for z in zones]


def gini_rows(zones, field):
    strat = gini_stratified(field, zones)
    rows = [("overall", strat.overall.n, strat.overall.mean, strat.overall.gini)]
    for name, result in (("urban", strat.urban), ("rural", strat.rural)):
        if result is None:
            rows.append((name, 0, None, None))
        else:
            rows.append((name, result.n, result.mean, result.gini))
    return rows


def hotspot_rows(zones, values, cfg: RunConfig, weights=None):
    weights = _zone_weights(zones, cfg) if weights is None else weights
    result = classify_hotspots(getis_ord_gi_star(values, weights), fdr=cfg.fdr)
    return [
        (zid, v, float(z), float(p), cat)
        for zid, v, z, p, cat in zip(result.ids, values, result.z, result.p, result.category)
    ]


def risk_rows(zones, cfg: RunConfig):
    """The risk index per zone, and the index. It is fitted on the columns in
    name order, so it depends only on the set of prevalence columns."""
    columns = sorted(cfg.prevalence_columns)
    matrix = list(zip(*(resolve_series(zones, col) for col in columns)))
    model, standardized = fit_risk_model(matrix, columns=columns)
    index = health_risk_index(model, standardized, target=cfg.variance_target)
    rows = [(z.zone_id, float(s)) for z, s in zip(zones, index.scores)]
    return rows, index


def bivariate_tables(zones, x_name: str, y_names, cfg: RunConfig, computed=None,
                     weights=None) -> list:
    """``bivariate_rows`` for each y column, all from one permutation pass."""
    x = resolve_series(zones, x_name, computed)
    ys = [resolve_series(zones, name, computed) for name in y_names]
    weights = _zone_weights(zones, cfg) if weights is None else weights
    results = local_bivariates(x, ys, weights, permutations=cfg.permutations, seed=cfg.seed,
                               min_neighbors=cfg.min_neighbors)
    return [
        [(zid, xv, yv, None if math.isnan(r) else r, p, cat)
         for zid, xv, yv, r, p, cat in zip(res.ids, x, y, res.local_r.tolist(),
                                           res.pseudo_p.tolist(), res.category)]
        for y, res in zip(ys, results)
    ]


def bivariate_rows(zones, x_name: str, y_name: str, cfg: RunConfig, computed=None,
                   weights=None):
    return bivariate_tables(zones, x_name, [y_name], cfg, computed, weights)[0]


def mortality_rows(counties, years=None):
    return list(map(operator.attrgetter(*MORTALITY_HEADER),
                    classify_service_status(counties, years)))


def ttest_rows(zones, columns, computed=None):
    """Rural-versus-urban Welch comparisons, one row per variable.

    Group a is rural and group b urban, so a negative t means the urban
    mean exceeds the rural mean.
    """
    urban = [z.urban for z in zones]
    if all(urban) or not any(urban):
        raise ValidationError("t-test comparison requires both rural and urban zones")
    for i, name in enumerate(columns):
        if name in columns[:i]:
            raise ValidationError(f"t-test variable {name!r} is listed more than once")
    rows = []
    for name in columns:
        series = resolve_series(zones, name, computed)
        a = [v for v, u in zip(series, urban) if not u]
        b = [v for v, u in zip(series, urban) if u]
        res = welch_t_test(a, b)
        flag = "ok"
        if res.degenerate:
            flag = "degenerate"
        elif res.infinite_separation:
            flag = "infinite_separation"
        rows.append((
            name, res.n_a, res.n_b, res.mean_a, res.mean_b,
            res.var_a, res.var_b, res.t, res.df, res.p, flag,
        ))
    return rows


class _Written(dict):
    """Stage name -> written CSV path, and the run's skipped facilities."""

    def __init__(self, paths, skipped_facilities):
        super().__init__(paths)
        self.skipped_facilities = skipped_facilities


def run_pipeline(zones, facilities, counties, out_dir, cfg: RunConfig) -> dict:
    """Run every analysis stage and write the full set of output files.

    Returns a mapping from stage name to the written CSV path; its
    ``skipped_facilities`` attribute holds the accessibility field's
    (facility_id, reason) pairs. GeoJSON twins appear alongside each
    zone-level CSV when any zone carries geometry. One zone neighbour
    graph serves the Gi* and bivariate stages. The files are written into
    a temporary directory (inside ``out_dir`` when it exists, else beside
    it, so it is on the same filesystem) and moved into ``out_dir`` only
    once every stage has succeeded.
    """
    out_dir = os.fspath(out_dir)
    if os.path.isdir(out_dir):
        tmp_dir = tempfile.mkdtemp(prefix=".tmp", dir=out_dir)
    else:
        parent, base = os.path.split(os.path.abspath(out_dir))
        os.makedirs(parent, exist_ok=True)
        tmp_dir = tempfile.mkdtemp(prefix=f".{base}.", dir=parent)
    try:
        written, skipped = _write_outputs(zones, facilities, counties, tmp_dir, cfg)
        os.makedirs(out_dir, exist_ok=True)
        for name in sorted(os.listdir(tmp_dir)):
            os.replace(os.path.join(tmp_dir, name), os.path.join(out_dir, name))
        os.rmdir(tmp_dir)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return _Written({name: os.path.join(out_dir, file_name) for name, file_name in written.items()},
                    skipped)


def _write_outputs(zones, facilities, counties, out_dir, cfg: RunConfig) -> tuple[dict, list]:
    """Every stage of ``run_pipeline``, written into ``out_dir``; returns
    stage name -> CSV file name, and the skipped facilities."""
    zones = sorted_zones(zones)
    poverty = cfg.poverty_column
    geojson = GeoJSONWriter(zones) if any(z.geometry is not None for z in zones) else None
    written: dict[str, str] = {}

    def emit(name, header, rows, zone_level=False):
        written[name] = f"{name}.csv"
        table = Table(header, rows)
        table.write_csv(os.path.join(out_dir, written[name]))
        if zone_level and geojson is not None:
            geojson.write_table(os.path.join(out_dir, f"{name}.geojson"), table)

    field = compute_access(zones, facilities, cfg)
    emit("access", ACCESS_HEADER, access_rows(zones, field), zone_level=True)

    emit("gini", GINI_HEADER, gini_rows(zones, field))

    weights = _zone_weights(zones, cfg)
    access = [field.zone_scores[z.zone_id] for z in zones]
    emit("hotspot_accessibility", HOTSPOT_HEADER, hotspot_rows(zones, access, cfg, weights),
         zone_level=True)

    rk_rows, _ = risk_rows(zones, cfg)
    emit("risk_index", RISK_HEADER, rk_rows, zone_level=True)

    computed = {"accessibility": field.zone_scores, "risk_index": dict(rk_rows)}
    y_names = ("accessibility", "risk_index")
    tables = bivariate_tables(zones, poverty, y_names, cfg, computed, weights)
    for y_name, rows in zip(y_names, tables):
        emit(f"bivariate_{poverty}_{y_name}", BIVARIATE_HEADER, rows, zone_level=True)

    emit("mortality", MORTALITY_HEADER, mortality_rows(counties))
    return written, field.skipped_facilities
