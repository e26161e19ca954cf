import dataclasses
import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoaccess
from geoaccess import (DemandZone, Facility, GeoPoint, RunConfig, ValidationError,
                       generate_synthetic_region, run_pipeline)
from geoaccess import pipeline as pl
from geoaccess.output import write_csv
from oracles import ref_write_geojson


def test_a_pipeline_run_loads_neither_scipy_spatial_nor_scipy_special(tmp_path):
    # In a fresh interpreter, so that no other test's import counts.
    script = """if True:
        import sys
        from geoaccess import RunConfig, generate_synthetic_region, run_pipeline
        region = generate_synthetic_region(1)
        for scheme in ("fixed_band", "knn"):
            run_pipeline(*region, sys.argv[1] + "/" + scheme, RunConfig(weights_scheme=scheme))
        loaded = [m for m in ("scipy.spatial", "scipy.special") if m in sys.modules]
        assert not loaded, loaded
        """
    src = os.path.dirname(os.path.dirname(geoaccess.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert len(os.listdir(tmp_path / "knn")) == len(os.listdir(tmp_path / "fixed_band")) > 0


@pytest.mark.parametrize("scheme", ["fixed_band", "knn"])
def test_run_pipeline_builds_weights_once_and_shares_them(tmp_path, monkeypatch, scheme):
    zones, facilities, counties = generate_synthetic_region(3)
    cfg = RunConfig(weights_scheme=scheme)
    calls = []
    build = pl.build_weights

    def counting_build(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(pl, "build_weights", counting_build)
    run_pipeline(zones, facilities, counties, tmp_path / "shared", cfg)
    assert calls == [scheme]

    # The same run with every spatial stage building its own weights.
    hotspot, bivariate = pl.hotspot_rows, pl.bivariate_tables
    monkeypatch.setattr(pl, "hotspot_rows",
                        lambda zones, values, cfg, weights=None: hotspot(zones, values, cfg))
    monkeypatch.setattr(pl, "bivariate_tables",
                        lambda zones, x, ys, cfg, computed=None, weights=None:
                        bivariate(zones, x, ys, cfg, computed))
    calls.clear()
    run_pipeline(zones, facilities, counties, tmp_path / "own", cfg)
    assert calls == [scheme] * 3

    names = sorted(p.name for p in (tmp_path / "shared").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "own").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "shared", tmp_path / "own", names,
                                               shallow=False)
    assert (mismatch, errors) == ([], [])


@pytest.mark.parametrize("scheme,own,other", [
    ("knn", {"knn_k": 4}, {"band_miles": 3.0}),
    ("fixed_band", {"band_miles": 10.0}, {"knn_k": 2}),
])
def test_each_weights_scheme_reads_only_its_own_parameter(tmp_path, scheme, own, other):
    zones, facilities, counties = generate_synthetic_region(3)
    cfg = RunConfig(weights_scheme=scheme, permutations=19)
    outputs = {}
    for name, changes in (("default", {}), ("own", own), ("other", other)):
        run_pipeline(zones, facilities, counties, tmp_path / name,
                     dataclasses.replace(cfg, **changes))
        outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert outputs["other"] == outputs["default"]
    assert outputs["own"] != outputs["default"]


def test_run_pipeline_draws_each_permutation_once(tmp_path, monkeypatch):
    # Both bivariate stages share one pass over the permutations. Its blocks
    # run on several threads, so the draws come in no fixed order.
    zones, facilities, counties = generate_synthetic_region(3)
    cfg = RunConfig(permutations=99, seed=11)
    seeds = []
    default_rng = np.random.default_rng

    def counting_rng(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    run_pipeline(zones, facilities, counties, tmp_path, cfg)
    assert sorted(seeds) == [[11, m] for m in range(99)]


def with_squares(zones, half):
    """Every zone with a square polygon of half-width ``half`` degrees."""
    out = []
    for z in zones:
        lat, lon = z.centroid.lat, z.centroid.lon
        ring = [[lon + dx, lat + dy]
                for dx, dy in ((-half, -half), (half, -half), (half, half), (-half, half),
                               (-half, -half))]
        out.append(dataclasses.replace(z, geometry={"type": "Polygon", "coordinates": [ring]}))
    return out


def hand_built_attributes(zones, facilities, cfg):
    """The per-file attribute dicts, spelled out stage by stage."""
    field = pl.compute_access(zones, facilities, cfg)
    acc_rows = pl.access_rows(zones, field)
    access_by_zone = dict(acc_rows)
    hs_rows = pl.hotspot_rows(zones, [access_by_zone[z.zone_id] for z in zones], cfg)
    rk_rows, _ = pl.risk_rows(zones, cfg)
    attributes = {
        "access": {zid: {"accessibility": v} for zid, v in acc_rows},
        "hotspot_accessibility": {r[0]: {"value": r[1], "z": r[2], "p": r[3], "category": r[4]}
                                  for r in hs_rows},
        "risk_index": {zid: {"risk_index": v} for zid, v in rk_rows},
    }
    computed = {"accessibility": access_by_zone, "risk_index": dict(rk_rows)}
    for y_name in ("accessibility", "risk_index"):
        rows = pl.bivariate_rows(zones, cfg.poverty_column, y_name, cfg, computed)
        attributes[f"bivariate_{cfg.poverty_column}_{y_name}"] = {
            r[0]: {"x_value": r[1], "y_value": r[2], "local_r": r[3], "pseudo_p": r[4],
                   "category": r[5]}
            for r in rows
        }
    return attributes


@given(st.floats(1e-4, 0.05), st.sampled_from(["fixed_band", "knn"]))
@settings(max_examples=4, deadline=None)
def test_geojson_twins_carry_each_table_as_properties(tmp_path_factory, half, scheme):
    zones, facilities, counties = generate_synthetic_region(3)
    zones = pl.sorted_zones(with_squares(zones, half))
    cfg = RunConfig(weights_scheme=scheme)
    out = tmp_path_factory.mktemp("run") / "out"
    run_pipeline(zones, facilities, counties, out, cfg)
    expected = hand_built_attributes(zones, facilities, cfg)
    assert sorted(p.stem for p in out.glob("*.geojson")) == sorted(expected)
    for name, attributes in expected.items():
        ref = out.parent / f"{name}.ref.geojson"
        ref_write_geojson(ref, zones, attributes)
        assert (out / f"{name}.geojson").read_bytes() == ref.read_bytes(), name


def test_run_reports_the_skipped_facilities(tmp_path):
    zones, facilities, counties = generate_synthetic_region(42)
    far = Facility("far", GeoPoint(0.0, 0.0), 10.0)
    written = run_pipeline(zones, facilities + [far], counties, tmp_path / "out", RunConfig())
    assert written.skipped_facilities == [("far", "no demand zone within catchment")]
    assert written == {p.stem: str(p) for p in (tmp_path / "out").glob("*.csv")}
    plain = run_pipeline(zones, facilities, counties, tmp_path / "plain", RunConfig())
    assert plain.skipped_facilities == []


def failing_mortality(*args, **kwargs):
    raise RuntimeError("mortality stage failed")


def test_failed_run_leaves_no_output_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(pl, "mortality_rows", failing_mortality)
    with pytest.raises(RuntimeError, match="mortality stage failed"):
        run_pipeline(*generate_synthetic_region(3), tmp_path / "out", RunConfig())
    assert list(tmp_path.iterdir()) == []


def test_failed_run_leaves_existing_directory_untouched(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "access.csv").write_text("earlier run\n")
    monkeypatch.setattr(pl, "mortality_rows", failing_mortality)
    with pytest.raises(RuntimeError):
        run_pipeline(*generate_synthetic_region(3), out, RunConfig())
    assert list(tmp_path.iterdir()) == [out]
    assert [p.name for p in out.iterdir()] == ["access.csv"]
    assert (out / "access.csv").read_text() == "earlier run\n"


def test_run_into_existing_directory_replaces_its_files(tmp_path):
    region = generate_synthetic_region(3)
    fresh = run_pipeline(*region, tmp_path / "fresh", RunConfig())
    out = tmp_path / "out"
    out.mkdir()
    (out / "access.csv").write_text("earlier run\n")
    (out / "notes.txt").write_text("kept\n")
    written = run_pipeline(*region, out, RunConfig())
    assert written == {name: str(out / os.path.basename(p)) for name, p in fresh.items()}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["notes.txt"])
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "fresh", out, names, shallow=False)
    assert (mismatch, errors) == ([], [])
    assert (out / "notes.txt").read_text() == "kept\n"


def test_run_into_existing_directory_stages_inside_it(tmp_path, monkeypatch):
    # Staging inside out_dir keeps the temp files on out_dir's filesystem
    # (out_dir may be a mount point) and needs no write access to its parent.
    out = tmp_path / "out"
    out.mkdir()
    seen = []
    mortality = pl.mortality_rows

    def looking_mortality(*args, **kwargs):
        seen.append(([p.name for p in tmp_path.iterdir()],
                     [(p.name, p.is_dir()) for p in out.iterdir()]))
        return mortality(*args, **kwargs)

    monkeypatch.setattr(pl, "mortality_rows", looking_mortality)
    written = run_pipeline(*generate_synthetic_region(3), out, RunConfig())
    [(siblings, inside)] = seen
    assert siblings == ["out"]
    [(staging, is_dir)] = inside
    assert is_dir and staging.startswith(".")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        os.path.basename(p) for p in written.values())


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="directory permissions do not bind root")
def test_run_into_existing_directory_under_read_only_parent(tmp_path):
    locked = tmp_path / "locked"
    out = locked / "out"
    out.mkdir(parents=True)
    locked.chmod(0o555)
    try:
        written = run_pipeline(*generate_synthetic_region(3), out, RunConfig())
    finally:
        locked.chmod(0o755)
    assert [p.name for p in locked.iterdir()] == ["out"]
    assert all(os.path.isfile(p) for p in written.values())


def test_new_output_directory_gets_the_default_mode(tmp_path):
    run_pipeline(*generate_synthetic_region(3), tmp_path / "out", RunConfig())
    (tmp_path / "plain").mkdir()
    assert (tmp_path / "out").stat().st_mode == (tmp_path / "plain").stat().st_mode


def stratified_zones(values):
    """One zone per (urban, x) pair, each with attribute ``x``."""
    return [DemandZone(f"z{i}", GeoPoint(39.0, -76.0 + 0.01 * i), 10, 1, urban, {"x": x})
            for i, (urban, x) in enumerate(values)]


def test_gini_rows_leave_an_empty_stratum_blank(tmp_path):
    zones, facilities, _ = generate_synthetic_region(3)
    zones = [dataclasses.replace(z, urban=True) for z in zones]
    rows = pl.gini_rows(zones, pl.compute_access(zones, facilities, RunConfig()))
    write_csv(tmp_path / "gini.csv", pl.GINI_HEADER, rows)
    lines = (tmp_path / "gini.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:3]] == [["overall", "120"], ["urban", "120"]]
    assert lines[3] == "rural,0,,"


@pytest.mark.parametrize("urban", [True, False])
def test_ttest_rows_need_both_strata(urban):
    with pytest.raises(ValidationError, match="both rural and urban"):
        pl.ttest_rows(stratified_zones([(urban, 1.0), (urban, 2.0), (urban, 4.0)]), ["x"])


@pytest.mark.parametrize("values,flag", [
    ([(False, 1.0), (False, 2.0), (True, 2.0), (True, 5.0)], "ok"),
    ([(False, 1.0), (True, 2.0), (True, 5.0)], "degenerate"),
    ([(False, 2.0), (False, 2.0), (True, 3.0), (True, 3.0)], "infinite_separation"),
])
def test_ttest_rows_flag_each_comparison(values, flag):
    [row] = pl.ttest_rows(stratified_zones(values), ["x"])
    assert row[0] == "x" and row[-1] == flag


def test_resolve_series_names_the_first_zone_without_the_column():
    zones = stratified_zones([(True, 1.0), (False, 2.0), (True, 3.0)])
    zones[1:] = [dataclasses.replace(z, attributes={}) for z in zones[1:]]
    with pytest.raises(ValidationError) as exc:
        pl.resolve_series(zones, "x")
    assert str(exc.value) == "zone 'z1' has no attribute column 'x'"
