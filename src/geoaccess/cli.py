"""Command-line interface.

Subcommands: access, gini, ttest, hotspot, bivariate, risk-index,
mortality, pipeline, synth. Configuration resolves from defaults, then
--config JSON, then explicit flags.
Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline as pl
from .accessibility import DEMAND_COLUMNS
from .config import CONFIG_KEYS, RunConfig, load_config
from .errors import ValidationError
from .ingest import (COUNTY_COLUMNS, FACILITY_COLUMNS, ZONE_COLUMNS, _spelled, load_counties,
                     load_facilities, load_zones)
from .output import GeoJSONWriter, Table, write_csv
from .spatial import WEIGHT_SCHEMES
from .synth import generate_synthetic_region

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _spelled_as(kind):
    """An argparse type reading ``kind`` by ingest's number rule: ASCII text, no ``_``."""
    def parse(text):
        return _spelled(kind, text)
    parse.__name__ = kind.__name__  # argparse names it: "invalid int value: '1_5'"
    return parse


_INT, _FLOAT = _spelled_as(int), _spelled_as(float)


def _add_config_flags(p: _Parser):
    g = p.add_argument_group("configuration")
    g.add_argument("--config", help="JSON config file with RunConfig keys")
    g.add_argument("--d0", type=_FLOAT, dest="catchment_miles", help="catchment threshold, miles")
    g.add_argument("--demand", choices=DEMAND_COLUMNS)
    g.add_argument("--scheme", choices=WEIGHT_SCHEMES, dest="weights_scheme")
    g.add_argument("--band", type=_FLOAT, dest="band_miles", help="fixed band distance, miles")
    g.add_argument("--k", type=_INT, dest="knn_k", help="neighbor count for knn weights")
    g.add_argument("--permutations", type=_INT)
    g.add_argument("--seed", type=_INT)
    g.add_argument("--variance-target", type=_FLOAT, dest="variance_target")
    g.add_argument("--fdr", action="store_true", default=None,
                   help="apply Benjamini-Hochberg correction to hot spot classes")
    g.add_argument("--min-neighbors", type=_INT, dest="min_neighbors")
    g.add_argument("--poverty-col", dest="poverty_column")
    g.add_argument("--prevalence-cols", dest="prevalence_columns",
                   help="comma-separated prevalence column names")


def _resolve_config(args) -> RunConfig:
    overrides = {k: getattr(args, k, None) for k in CONFIG_KEYS}
    if overrides.get("prevalence_columns") is not None:
        overrides["prevalence_columns"] = tuple(
            c.strip() for c in overrides["prevalence_columns"].split(",") if c.strip()
        )
    return load_config(path=args.config, overrides=overrides)


def _build_parser() -> _Parser:
    parser = _Parser(prog="geoaccess", description=__doc__)
    sub = parser.add_subparsers(metavar="subcommand")

    def add(name, handler, help_text, **needs):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if needs.get("zones"):
            p.add_argument("--zones", required=True, help="zones CSV")
        if needs.get("geometry"):
            p.add_argument("--geometry", help="optional GeoJSON joined by zone_id")
        if needs.get("facilities"):
            p.add_argument("--facilities", required=needs["facilities"] is True,
                           help="facilities CSV")
        if needs.get("counties"):
            p.add_argument("--counties", required=True, help="county outcomes CSV")
        if needs.get("out"):
            p.add_argument("--out", required=True, help="output CSV path")
            if needs.get("geometry"):
                p.add_argument("--geojson-out", help="output GeoJSON path (needs --geometry)")
        if needs.get("out_dir"):
            p.add_argument("--out-dir", required=True, help="output directory")
        _add_config_flags(p)
        return p

    add("access", _cmd_access, "two-step floating catchment accessibility scores",
        zones=True, geometry=True, facilities=True, out=True)
    add("gini", _cmd_gini, "overall and urban/rural Gini of accessibility",
        zones=True, facilities=True, out=True)
    p = add("ttest", _cmd_ttest, "rural versus urban Welch t-tests",
            zones=True, facilities="optional", out=True)
    p.add_argument("--columns", help="comma-separated variables: attributes, accessibility or "
                   "risk_index (default: accessibility + attributes)")
    p = add("hotspot", _cmd_hotspot, "Getis-Ord Gi* hot/cold spots",
            zones=True, geometry=True, facilities="optional", out=True)
    p.add_argument("--value-col", default="accessibility",
                   help="attribute, accessibility, or risk_index (default accessibility)")
    p = add("bivariate", _cmd_bivariate, "permutation-tested local bivariate association",
            zones=True, geometry=True, facilities="optional", out=True)
    p.add_argument("--x", required=True, help="x column (attribute, accessibility, or risk_index)")
    p.add_argument("--y", required=True, help="y column (attribute, accessibility, or risk_index)")
    add("risk-index", _cmd_risk_index, "PCA composite health-risk index",
        zones=True, geometry=True, out=True)
    p = add("mortality", _cmd_mortality, "county mortality ratios and service status",
            counties=True, out=True)
    p.add_argument("--years", default="all", help="'all', a single year, or first:last")
    add("pipeline", _cmd_pipeline, "run every analysis stage into a directory",
        zones=True, geometry=True, facilities=True, counties=True, out_dir=True)
    p = add("synth", _cmd_synth, "generate a deterministic synthetic region", out_dir=True)
    p.add_argument("--n-urban", type=_INT, default=40)
    p.add_argument("--n-rural", type=_INT, default=80)
    p.add_argument("--n-facilities", type=_INT, default=16)
    return parser


def _load_sorted_zones(args):
    zones = load_zones(args.zones, geometry_path=getattr(args, "geometry", None))
    return pl.sorted_zones(zones)


def _write_zone_table(args, zones, header, rows):
    """--out and, with --geojson-out, its GeoJSON twin, from one rendering."""
    path = args.geojson_out
    if path is not None and not any(z.geometry is not None for z in zones):
        raise ValidationError("--geojson-out requires --geometry with joined features")
    table = Table(header, rows)
    table.write_csv(args.out)
    if path is not None:
        GeoJSONWriter(zones).write_table(path, table)


def _parse_years(spec: str):
    """Calendar years named by --years; None ("all") means every year present."""
    if spec == "all":
        return None
    first, colon, last = spec.partition(":")
    try:
        lo = _spelled(int, first)
        hi = _spelled(int, last) if colon else lo
    except ValueError:
        raise ValidationError(f"bad --years value {spec!r}") from None
    if hi < lo:
        raise ValidationError(f"bad --years range {spec!r}")
    return range(lo, hi + 1)


def _access_field(args, zones, cfg):
    """Accessibility from --facilities, with a note for each skipped facility."""
    if args.facilities is None:
        raise ValidationError("--facilities is required to compute accessibility")
    field = pl.compute_access(zones, load_facilities(args.facilities), cfg)
    _note_skipped(field.skipped_facilities)
    return field


def _note_skipped(skipped):
    for fac_id, reason in skipped:
        print(f"note: facility {fac_id} skipped: {reason}", file=sys.stderr)


def _cmd_access(args, cfg):
    zones = _load_sorted_zones(args)
    field = _access_field(args, zones, cfg)
    _write_zone_table(args, zones, pl.ACCESS_HEADER, pl.access_rows(zones, field))


def _cmd_gini(args, cfg):
    zones = _load_sorted_zones(args)
    write_csv(args.out, pl.GINI_HEADER, pl.gini_rows(zones, _access_field(args, zones, cfg)))


def _computed(args, zones, cfg, names) -> dict:
    """zone_id -> value for each computed column (accessibility, risk_index)
    among ``names``; a computed name shadows an attribute of that name."""
    computed = {}
    if "accessibility" in names:
        computed["accessibility"] = _access_field(args, zones, cfg).zone_scores
    if "risk_index" in names:
        computed["risk_index"] = dict(pl.risk_rows(zones, cfg)[0])
    return computed


def _cmd_ttest(args, cfg):
    zones = _load_sorted_zones(args)
    if args.columns:
        columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    elif zones:
        # The computed accessibility shadows an attribute of that name.
        columns = ["accessibility"] + sorted(zones[0].attributes.keys() - {"accessibility"})
    else:
        raise ValidationError(f"{args.zones}: no zones to compare")
    computed = _computed(args, zones, cfg, columns)
    write_csv(args.out, pl.TTEST_HEADER, pl.ttest_rows(zones, columns, computed))


def _cmd_hotspot(args, cfg):
    zones = _load_sorted_zones(args)
    computed = _computed(args, zones, cfg, [args.value_col])
    rows = pl.hotspot_rows(zones, pl.resolve_series(zones, args.value_col, computed), cfg)
    _write_zone_table(args, zones, pl.HOTSPOT_HEADER, rows)


def _cmd_bivariate(args, cfg):
    zones = _load_sorted_zones(args)
    computed = _computed(args, zones, cfg, [args.x, args.y])
    rows = pl.bivariate_rows(zones, args.x, args.y, cfg, computed)
    _write_zone_table(args, zones, pl.BIVARIATE_HEADER, rows)


def _cmd_risk_index(args, cfg):
    zones = _load_sorted_zones(args)
    rows, index = pl.risk_rows(zones, cfg)
    print(
        f"retained {index.retained_components} components, "
        f"captured variance {index.captured_variance:.4f}",
        file=sys.stderr,
    )
    _write_zone_table(args, zones, pl.RISK_HEADER, rows)


def _cmd_mortality(args, cfg):
    counties = load_counties(args.counties)
    years = _parse_years(args.years)
    write_csv(args.out, pl.MORTALITY_HEADER, pl.mortality_rows(counties, years))


def _cmd_pipeline(args, cfg):
    zones = _load_sorted_zones(args)
    facilities = load_facilities(args.facilities)
    counties = load_counties(args.counties)
    written = pl.run_pipeline(zones, facilities, counties, args.out_dir, cfg)
    _note_skipped(written.skipped_facilities)
    for name in sorted(written):
        print(f"wrote {written[name]}", file=sys.stderr)


def _cmd_synth(args, cfg):
    zones, facilities, counties = generate_synthetic_region(
        cfg.seed, args.n_urban, args.n_rural, args.n_facilities
    )
    os.makedirs(args.out_dir, exist_ok=True)
    attr_names = sorted(zones[0].attributes)
    zone_rows = [
        [z.zone_id, z.centroid.lat, z.centroid.lon, int(z.population),
         int(z.adrd_patients), z.urban] + [z.attributes[a] for a in attr_names]
        for z in sorted(zones, key=lambda z: z.zone_id)
    ]
    write_csv(os.path.join(args.out_dir, "zones.csv"), ZONE_COLUMNS + attr_names, zone_rows)
    write_csv(os.path.join(args.out_dir, "facilities.csv"), FACILITY_COLUMNS,
              [[f.facility_id, f.location.lat, f.location.lon, int(f.beds)]
               for f in sorted(facilities, key=lambda f: f.facility_id)])
    write_csv(os.path.join(args.out_dir, "counties.csv"), COUNTY_COLUMNS,
              [[c.county_id, c.year, int(c.adrd_deaths), int(c.adrd_patients),
                int(c.population_50plus)]
               for c in sorted(counties, key=lambda c: (c.county_id, c.year))])


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "handler" not in args:
            parser.print_usage(sys.stderr)
            return 1
        args.handler(args, _resolve_config(args))
        return 0
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
