import argparse
import csv
import dataclasses
import json
import filecmp
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import geoaccess
from geoaccess import RunConfig, ValidationError, generate_synthetic_region, load_config, load_zones
from geoaccess.cli import _add_config_flags, main
from geoaccess.spatial import WEIGHT_SCHEMES

ZONES_HEADER = "zone_id,lat,lon,population,adrd_patients,urban"


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "region"
    assert run("synth", "--seed", "42", "--out-dir", str(out)) == 0
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSynthCommand:
    def test_writes_all_three_files(self, synth_dir):
        assert {p.name for p in synth_dir.iterdir()} == {
            "zones.csv", "facilities.csv", "counties.csv"
        }

    def test_same_seed_twice_is_byte_identical(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert run("synth", "--seed", "42", "--out-dir", str(again)) == 0
        for name in ("zones.csv", "facilities.csv", "counties.csv"):
            assert filecmp.cmp(synth_dir / name, again / name, shallow=False)

    def test_round_trip_identity_on_schema_fields(self, synth_dir):
        reread = load_zones(synth_dir / "zones.csv")
        original = sorted(generate_synthetic_region(42)[0], key=lambda z: z.zone_id)
        assert len(reread) == len(original)
        for a, b in zip(reread, original):
            assert a.zone_id == b.zone_id
            assert a.centroid == b.centroid
            assert a.population == b.population
            assert a.adrd_patients == b.adrd_patients
            assert a.urban == b.urban
            assert a.attributes == b.attributes


class TestAccessCommand:
    def test_single_pair_fixture(self, tmp_path):
        zones = tmp_path / "z.csv"
        zones.write_text(f"{ZONES_HEADER}\nz1,39.0,-76.0,1000,50,1\n")
        facs = tmp_path / "f.csv"
        facs.write_text("facility_id,lat,lon,beds\nh1,39.0,-76.0,100\n")
        out = tmp_path / "access.csv"
        assert run("access", "--zones", str(zones), "--facilities", str(facs),
                   "--out", str(out)) == 0
        rows = read_csv(out)
        assert rows[0] == ["zone_id", "accessibility"]
        assert rows[1][0] == "z1"
        assert float(rows[1][1]) == pytest.approx(2.0, abs=1e-12)


class TestHotspotCommand:
    def test_constant_column_is_all_not_significant(self, tmp_path):
        lines = [f"{ZONES_HEADER},flat"]
        for i in range(12):
            lines.append(f"z{i:02d},{39.0 + 0.01 * i},-76.0,100,5,0,7.5")
        zones = tmp_path / "z.csv"
        zones.write_text("\n".join(lines) + "\n")
        facs = tmp_path / "f.csv"
        facs.write_text("facility_id,lat,lon,beds\nh1,39.0,-76.0,10\n")
        out = tmp_path / "hs.csv"
        assert run("hotspot", "--zones", str(zones), "--facilities", str(facs),
                   "--value-col", "flat", "--out", str(out)) == 0
        rows = read_csv(out)
        assert all(r[-1] == "NotSignificant" for r in rows[1:])


class TestSkippedFacilityNotes:
    @pytest.mark.parametrize("command", [
        ("access",), ("gini",), ("ttest",), ("hotspot",),
        ("bivariate", "--x", "poverty_rate", "--y", "accessibility"),
    ])
    def test_every_subcommand_computing_accessibility_notes_a_skipped_facility(
            self, synth_dir, tmp_path, capsys, command):
        facs = tmp_path / "f.csv"
        facs.write_text((synth_dir / "facilities.csv").read_text() + "far,0.0,0.0,10\n")
        assert run(*command, "--zones", str(synth_dir / "zones.csv"), "--facilities", str(facs),
                   "--out", str(tmp_path / "out.csv")) == 0
        note = "note: facility far skipped: no demand zone within catchment\n"
        assert capsys.readouterr().err == note

    def test_pipeline_notes_a_skipped_facility_before_its_files(self, synth_dir, tmp_path,
                                                                capsys):
        facs = tmp_path / "f.csv"
        facs.write_text((synth_dir / "facilities.csv").read_text() + "far,0.0,0.0,10\n")
        out = tmp_path / "run"
        assert run("pipeline", "--zones", str(synth_dir / "zones.csv"), "--facilities", str(facs),
                   "--counties", str(synth_dir / "counties.csv"), "--out-dir", str(out)) == 0
        note, *wrote = capsys.readouterr().err.splitlines()
        assert note == "note: facility far skipped: no demand zone within catchment"
        assert sorted(wrote) == sorted(f"wrote {p}" for p in out.glob("*.csv"))
        assert len(wrote) == 7


class TestOptionalFacilities:
    def test_hotspot_on_attribute_needs_no_facilities(self, synth_dir, tmp_path):
        out = tmp_path / "hs.csv"
        assert run("hotspot", "--zones", str(synth_dir / "zones.csv"),
                   "--value-col", "poverty_rate", "--out", str(out)) == 0
        assert out.exists()

    def test_hotspot_on_accessibility_without_facilities_fails(self, synth_dir, tmp_path):
        assert run("hotspot", "--zones", str(synth_dir / "zones.csv"),
                   "--out", str(tmp_path / "hs.csv")) == 1

    def test_bivariate_between_attributes_needs_no_facilities(self, synth_dir, tmp_path):
        out = tmp_path / "bv.csv"
        assert run("bivariate", "--zones", str(synth_dir / "zones.csv"),
                   "--x", "poverty_rate", "--y", "pct_diabetes", "--out", str(out)) == 0
        assert out.exists()


class TestComputedColumns:
    """accessibility and risk_index are computed columns in every subcommand."""

    def test_hotspot_on_risk_index_matches_the_pipeline(self, synth_dir, tmp_path):
        z, f, c = (str(synth_dir / n) for n in ("zones.csv", "facilities.csv", "counties.csv"))
        assert run("pipeline", "--zones", z, "--facilities", f, "--counties", c,
                   "--out-dir", str(tmp_path / "run")) == 0
        out = tmp_path / "hs.csv"
        assert run("hotspot", "--zones", z, "--value-col", "risk_index", "--out", str(out)) == 0
        risk = read_csv(tmp_path / "run" / "risk_index.csv")
        hotspot = read_csv(out)
        assert [r[:2] for r in hotspot[1:]] == risk[1:]

    def test_ttest_on_risk_index(self, synth_dir, tmp_path):
        out = tmp_path / "tt.csv"
        assert run("ttest", "--zones", str(synth_dir / "zones.csv"),
                   "--columns", "risk_index,poverty_rate", "--out", str(out)) == 0
        rows = read_csv(out)
        assert [r[0] for r in rows[1:]] == ["risk_index", "poverty_rate"]
        assert all(r[-1] == "ok" for r in rows[1:])

    @pytest.mark.parametrize("command", ["ttest", "hotspot"])
    def test_help_names_the_computed_columns(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "accessibility" in text and "risk_index" in text


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run("synth", "--wat", "1") == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert run() == 1

    def test_missing_input_file_is_io_error(self, tmp_path):
        assert run("mortality", "--counties", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o.csv")) == 2

    def test_validation_error_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("county_id,year\n")
        assert run("mortality", "--counties", str(bad), "--out", str(tmp_path / "o.csv")) == 1


class TestGeometryFlags:
    @pytest.mark.parametrize("command,flag", [
        ("gini", "--geometry"), ("gini", "--geojson-out"), ("ttest", "--geometry"),
        ("ttest", "--geojson-out"), ("mortality", "--geojson-out"),
    ])
    def test_a_subcommand_that_writes_no_geojson_takes_no_geometry_flag(
            self, synth_dir, tmp_path, capsys, command, flag):
        inputs = {"gini": ["--zones", "--facilities"], "ttest": ["--zones", "--facilities"],
                  "mortality": ["--counties"]}[command]
        files = {"--zones": "zones.csv", "--facilities": "facilities.csv",
                 "--counties": "counties.csv"}
        argv = [arg for name in inputs for arg in (name, str(synth_dir / files[name]))]
        out = tmp_path / "o.csv"
        assert run(command, *argv, flag, str(tmp_path / "g.geojson"), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "usage" in err and f"unrecognized arguments: {flag}" in err
        assert not out.exists()


class TestInputText:
    @pytest.mark.parametrize("name", ["zones.csv", "facilities.csv", "counties.csv",
                                      "zones.geojson", "cfg.json"])
    def test_a_byte_that_is_not_utf8_fails_by_file_and_line(self, synth_dir, tmp_path, capsys,
                                                            name):
        geometry = point_geometry(synth_dir / "zones.csv", synth_dir)
        config = synth_dir / "cfg.json"
        config.write_text(json.dumps({"seed": 1}, indent=1))
        path = synth_dir / name
        first, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(first + b"\n\xff" + rest)
        out = tmp_path / "run"
        assert run("pipeline", *(arg for flag, f in (
            ("--zones", "zones.csv"), ("--facilities", "facilities.csv"),
            ("--counties", "counties.csv")) for arg in (flag, str(synth_dir / f))),
            "--geometry", str(geometry), "--config", str(config), "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == f"error: {path}:2: not UTF-8 text (invalid start byte)\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--geometry", "--config"])
    def test_too_deep_a_nesting_is_invalid_json(self, synth_dir, tmp_path, capsys, flag):
        deep = "[" * 100_000 + "]" * 100_000
        zone_id = read_csv(synth_dir / "zones.csv")[1][0]
        path = tmp_path / "deep.json"
        path.write_text('{"seed": %s}' % deep if flag == "--config" else
                        '{"type": "FeatureCollection", "features": [{"type": "Feature", '
                        '"properties": {"zone_id": "%s"}, "geometry": {"type": "Point", '
                        '"coordinates": %s}}]}' % (zone_id, deep))
        z, f, c = (str(synth_dir / n) for n in ("zones.csv", "facilities.csv", "counties.csv"))
        assert run("pipeline", "--zones", z, "--facilities", f, "--counties", c,
                   flag, str(path), "--out-dir", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON: ") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name,column,command", [
        ("zones.csv", "population", "access"),
        ("facilities.csv", "beds", "access"),
        ("counties.csv", "adrd_deaths", "mortality"),
    ])
    def test_a_count_too_large_for_a_float_fails_by_file_and_line(self, synth_dir, tmp_path,
                                                                  capsys, name, column, command):
        path = synth_dir / name
        rows = read_csv(path)
        rows[1][rows[0].index(column)] = "1" + "0" * 400
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        inputs = (["--counties", str(path)] if command == "mortality" else
                  ["--zones", str(synth_dir / "zones.csv"),
                   "--facilities", str(synth_dir / "facilities.csv")])
        out = tmp_path / "out.csv"
        assert run(command, *inputs, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: ") and f"{column} must be finite" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_a_config_file_may_start_with_a_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"seed": 1}).encode("utf-8"))
        assert load_config(cfg).seed == 1


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        base = {}
        for label, extra in (("file", []), ("flag", ["--seed", "3"])):
            out = tmp_path / label
            assert run("synth", "--config", str(cfg), "--out-dir", str(out), *extra) == 0
            base[label] = (out / "zones.csv").read_bytes()
        direct = {}
        for label, seed in (("file", "1"), ("flag", "3")):
            out = tmp_path / f"direct_{label}"
            assert run("synth", "--seed", seed, "--out-dir", str(out)) == 0
            direct[label] = (out / "zones.csv").read_bytes()
        assert base == direct

    def test_seed_environment_variable_is_not_read(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GEOACCESS_SEED", raising=False)
        assert run("synth", "--out-dir", str(tmp_path / "plain")) == 0
        monkeypatch.setenv("GEOACCESS_SEED", "2")
        assert run("synth", "--out-dir", str(tmp_path / "env")) == 0
        assert filecmp.cmp(tmp_path / "plain" / "zones.csv", tmp_path / "env" / "zones.csv",
                           shallow=False)

    def test_load_config_ignores_the_environment(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        monkeypatch.setenv("GEOACCESS_SEED", "2")
        assert load_config() == RunConfig()
        assert load_config(cfg).seed == 1
        assert load_config(cfg, {"seed": 3}).seed == 3

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "mystery": True}))
        assert run("synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 1

    def test_workers_config_key_rejected_by_name(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "workers": 1}))
        assert run("synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 1
        assert "unknown config keys ['workers']" in capsys.readouterr().err

    def test_workers_flag_is_a_usage_error(self, tmp_path, capsys):
        assert run("synth", "--workers", "2", "--out-dir", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "usage" in err and "--workers" in err

    # Spellings int() or float() reads that ingest rejects in a CSV cell:
    # digit separators, and Arabic-Indic and fullwidth digits.
    @pytest.mark.parametrize("flag,value,kind", [
        ("--d0", "1_5", "float"),
        ("--band", "\uff11\uff15", "float"),
        ("--variance-target", "0.\u0669", "float"),
        ("--k", "\u0661\u0662", "int"),
        ("--permutations", "1_99", "int"),
        ("--seed", "\uff14\uff12", "int"),
        ("--min-neighbors", "1_0", "int"),
    ])
    def test_a_number_flag_spelled_as_no_csv_cell_may_be_is_a_usage_error(
            self, tmp_path, capsys, flag, value, kind):
        out = tmp_path / "o"
        assert run("synth", flag, value, "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert "usage" in err and f"argument {flag}: invalid {kind} value: {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n-urban", "--n-rural", "--n-facilities"])
    def test_a_synth_count_spelled_with_a_separator_is_a_usage_error(self, tmp_path, capsys,
                                                                     flag):
        assert run("synth", flag, "1_0", "--out-dir", str(tmp_path / "o")) == 1
        assert f"argument {flag}: invalid int value: '1_0'" in capsys.readouterr().err

    def test_number_flags_take_ascii_padding(self):
        parser = argparse.ArgumentParser()
        _add_config_flags(parser)
        args = parser.parse_args(["--d0", " 12.5", "--k", "7 ", "--seed", "\t3"])
        assert (args.catchment_miles, args.knn_k, args.seed) == (12.5, 7, 3)

    def test_impedance_config_key_rejected_by_name(self, synth_dir, tmp_path, capsys):
        # Even the one decay kernel's old name: the key is gone, not ignored.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"impedance": "gaussian"}))
        z, f, c = (str(synth_dir / n) for n in ("zones.csv", "facilities.csv", "counties.csv"))
        assert run("pipeline", "--zones", z, "--facilities", f, "--counties", c,
                   "--config", str(cfg), "--out-dir", str(tmp_path / "run")) == 1
        assert "unknown config keys ['impedance']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_impedance_flag_is_a_usage_error(self, synth_dir, tmp_path, capsys):
        z, f, c = (str(synth_dir / n) for n in ("zones.csv", "facilities.csv", "counties.csv"))
        assert run("pipeline", "--zones", z, "--facilities", f, "--counties", c,
                   "--impedance", "exponential", "--out-dir", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert "usage" in err and "unrecognized arguments: --impedance" in err
        assert not (tmp_path / "run").exists()

    def test_the_readme_config_example_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"### Configuration\n.*?```json\n(.*?)```", readme, re.DOTALL)[1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(block)
        assert load_config(cfg) == RunConfig()

    def test_every_config_field_is_one_flag(self):
        parser = argparse.ArgumentParser()
        _add_config_flags(parser)
        dests = [a.dest for a in parser._actions if a.dest not in ("help", "config")]
        fields = [f.name for f in dataclasses.fields(RunConfig)]
        assert sorted(dests) == sorted(fields)


class TestWeightSchemes:
    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_scheme_flag_matches_the_config_key(self, synth_dir, tmp_path, scheme):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weights_scheme": scheme}))
        command = ("hotspot", "--zones", str(synth_dir / "zones.csv"), "--value-col", "poverty_rate")
        assert run(*command, "--scheme", scheme, "--out", str(tmp_path / "flag.csv")) == 0
        assert run(*command, "--config", str(cfg), "--out", str(tmp_path / "file.csv")) == 0
        assert filecmp.cmp(tmp_path / "flag.csv", tmp_path / "file.csv", shallow=False)

    def test_unknown_scheme_flag_is_a_usage_error_naming_every_scheme(self, tmp_path, capsys):
        assert run("synth", "--scheme", "queen", "--out-dir", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "usage" in err and all(repr(s) in err for s in WEIGHT_SCHEMES)

    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_run_config_accepts_every_scheme(self, scheme):
        assert RunConfig(weights_scheme=scheme).weights_scheme == scheme

    def test_run_config_rejects_an_unknown_scheme_naming_every_scheme(self):
        with pytest.raises(ValidationError, match="weights_scheme") as exc:
            RunConfig(weights_scheme="queen")
        assert all(repr(s) in str(exc.value) for s in WEIGHT_SCHEMES)


class TestConfigValidation:
    @pytest.mark.parametrize("columns", ["pct_diabetes", ("pct_diabetes", 3), ["pct_diabetes"]],
                             ids=["string", "non-string-name", "list"])
    def test_run_config_takes_a_tuple_of_column_names(self, columns):
        with pytest.raises(ValidationError, match="config prevalence_columns"):
            RunConfig(prevalence_columns=columns)

    def test_a_json_list_of_prevalence_columns_becomes_a_tuple(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prevalence_columns": ["pct_obesity", "pct_asthma"]}))
        assert load_config(cfg).prevalence_columns == ("pct_obesity", "pct_asthma")

    @pytest.mark.parametrize("values,name", [
        pytest.param({"permutations": 99.5}, "permutations", id="float-permutations"),
        pytest.param({"permutations": True}, "permutations", id="bool-permutations"),
        pytest.param({"knn_k": 8.5, "weights_scheme": "knn"}, "knn_k", id="float-knn_k"),
        pytest.param({"seed": "abc"}, "seed", id="string-seed"),
        pytest.param({"seed": -1}, "seed", id="negative-seed"),
        pytest.param({"catchment_miles": "15"}, "catchment_miles", id="string-catchment"),
        pytest.param({"variance_target": True}, "variance_target", id="bool-variance_target"),
        pytest.param({"prevalence_columns": []}, "prevalence_columns", id="empty-prevalence"),
        pytest.param({"catchment_miles": math.inf}, "catchment_miles", id="infinite-catchment"),
        pytest.param({"band_miles": math.inf}, "band_miles", id="infinite-band"),
        pytest.param({"catchment_miles": 10 ** 400}, "catchment_miles", id="huge-integer-catchment"),
        pytest.param({"permutations": 18}, "permutations", id="too-few-permutations"),
        pytest.param({"min_neighbors": 1}, "min_neighbors", id="one-neighbor"),
        pytest.param({"knn_k": 0, "weights_scheme": "knn"}, "knn_k", id="zero-knn_k"),
        pytest.param({"variance_target": 1.5}, "variance_target", id="variance_target-above-1"),
        pytest.param({"poverty_column": 5}, "poverty_column", id="number-poverty_column"),
        pytest.param({"demand": "beds"}, "demand", id="unknown-demand"),
        pytest.param({"fdr": 1}, "fdr", id="number-fdr"),
    ])
    def test_bad_value_is_named_and_exits_1(self, synth_dir, tmp_path, capsys, values, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        z, f, c = (str(synth_dir / n) for n in ("zones.csv", "facilities.csv", "counties.csv"))
        assert run("pipeline", "--zones", z, "--facilities", f, "--counties", c,
                   "--config", str(cfg), "--out-dir", str(tmp_path / "run")) == 1
        assert f"config {name}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,value,name", [
        ("--permutations", "5", "permutations"), ("--min-neighbors", "1", "min_neighbors")])
    def test_a_flag_below_its_least_value_fails_before_any_stage(self, synth_dir, tmp_path,
                                                                capsys, flag, value, name):
        z, f, c = (str(synth_dir / n) for n in ("zones.csv", "facilities.csv", "counties.csv"))
        assert run("pipeline", "--zones", z, "--facilities", f, "--counties", c, flag, value,
                   "--out-dir", str(tmp_path / "run")) == 1
        assert capsys.readouterr().err.startswith(f"error: config {name} must be an integer >= ")
        assert not (tmp_path / "run").exists()

    def test_each_integer_field_takes_its_least_value(self):
        cfg = RunConfig(knn_k=1, permutations=19, min_neighbors=2, seed=0, variance_target=1.0)
        assert (cfg.knn_k, cfg.permutations, cfg.min_neighbors, cfg.seed) == (1, 19, 2, 0)
        assert cfg.variance_target == 1.0

    @pytest.mark.parametrize("text,message", [
        ("{", "invalid JSON: Expecting property name enclosed in double quotes"),
        ('{"seed": 1' + "0" * 5000 + "}", "invalid JSON: Exceeds the limit"),
        ("[]", "config must be a JSON object"),
    ], ids=["not-json", "long-integer", "array"])
    def test_a_config_file_that_is_no_json_object_is_named(self, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        with pytest.raises(ValidationError) as exc:
            load_config(cfg)
        assert str(exc.value).startswith(f"{cfg}: {message}")

    def test_an_unknown_override_is_named(self):
        with pytest.raises(ValidationError, match=r"^unknown config override 'workers'$"):
            load_config(overrides={"workers": 2})

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("columns", [("pct_diabetes", "pct_diabetes"),
                                         ("pct_obesity", "pct_asthma", "pct_obesity")])
    def test_a_repeated_prevalence_column_is_named_and_exits_1(self, synth_dir, tmp_path, capsys,
                                                                source, columns):
        # A repeat would weigh its column twice in the risk index.
        if source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"prevalence_columns": list(columns)}))
            flags = ["--config", str(cfg)]
        else:
            flags = ["--prevalence-cols", ",".join(columns)]
        out = tmp_path / "risk_index.csv"
        assert run("risk-index", "--zones", str(synth_dir / "zones.csv"), *flags,
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: config prevalence_columns lists {columns[0]!r} more than once\n")
        assert not out.exists()

    def test_prevalence_columns_flag_is_a_comma_separated_list(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prevalence_columns": ["pct_obesity", "pct_asthma"]}))
        zones = str(synth_dir / "zones.csv")
        assert run("risk-index", "--zones", zones, "--prevalence-cols", " pct_obesity,, pct_asthma ",
                   "--out", str(tmp_path / "flag.csv")) == 0
        assert run("risk-index", "--zones", zones, "--config", str(cfg),
                   "--out", str(tmp_path / "file.csv")) == 0
        assert run("risk-index", "--zones", zones, "--out", str(tmp_path / "default.csv")) == 0
        assert filecmp.cmp(tmp_path / "flag.csv", tmp_path / "file.csv", shallow=False)
        assert not filecmp.cmp(tmp_path / "flag.csv", tmp_path / "default.csv", shallow=False)


class TestPipeline:
    def test_smoke_and_expected_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        assert run("pipeline",
                   "--zones", str(synth_dir / "zones.csv"),
                   "--facilities", str(synth_dir / "facilities.csv"),
                   "--counties", str(synth_dir / "counties.csv"),
                   "--out-dir", str(out)) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "access.csv", "gini.csv", "hotspot_accessibility.csv", "risk_index.csv",
            "bivariate_poverty_rate_accessibility.csv", "bivariate_poverty_rate_risk_index.csv",
            "mortality.csv",
        }

    def test_matches_individual_subcommands(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        z, f, c = (str(synth_dir / n) for n in ("zones.csv", "facilities.csv", "counties.csv"))
        assert run("pipeline", "--zones", z, "--facilities", f, "--counties", c,
                   "--out-dir", str(out)) == 0
        solo = tmp_path / "solo"
        solo.mkdir()
        assert run("access", "--zones", z, "--facilities", f,
                   "--out", str(solo / "access.csv")) == 0
        assert run("gini", "--zones", z, "--facilities", f, "--out", str(solo / "gini.csv")) == 0
        assert run("hotspot", "--zones", z, "--facilities", f,
                   "--out", str(solo / "hotspot_accessibility.csv")) == 0
        assert run("risk-index", "--zones", z, "--out", str(solo / "risk_index.csv")) == 0
        assert run("bivariate", "--zones", z, "--facilities", f,
                   "--x", "poverty_rate", "--y", "accessibility",
                   "--out", str(solo / "bivariate_poverty_rate_accessibility.csv")) == 0
        assert run("bivariate", "--zones", z, "--facilities", f,
                   "--x", "poverty_rate", "--y", "risk_index",
                   "--out", str(solo / "bivariate_poverty_rate_risk_index.csv")) == 0
        assert run("mortality", "--counties", c, "--out", str(solo / "mortality.csv")) == 0
        for path in out.iterdir():
            assert filecmp.cmp(path, solo / path.name, shallow=False), path.name

    def test_year_zero_county_row_fails_both_paths(self, synth_dir, tmp_path, capsys):
        # Both commands must reject year 0 rather than one averaging it in
        # and the other dropping it.
        counties = tmp_path / "counties.csv"
        counties.write_text(
            "county_id,year,adrd_deaths,adrd_patients,population_50plus\n"
            "A,2019,10,100,1000\nA,0,90,100,1000\nB,2019,10,100,1000\n"
            "C,2019,12,90,1000\nD,2019,8,110,1000\n"
        )
        z, f = str(synth_dir / "zones.csv"), str(synth_dir / "facilities.csv")
        assert run("mortality", "--counties", str(counties),
                   "--out", str(tmp_path / "m.csv")) == 1
        assert "counties.csv:3:" in capsys.readouterr().err
        assert run("pipeline", "--zones", z, "--facilities", f, "--counties", str(counties),
                   "--out-dir", str(tmp_path / "run")) == 1
        assert "counties.csv:3:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_two_runs_are_byte_identical(self, synth_dir, tmp_path):
        z, f, c = (str(synth_dir / n) for n in ("zones.csv", "facilities.csv", "counties.csv"))
        dirs = []
        for label in ("a", "b"):
            out = tmp_path / label
            assert run("pipeline", "--zones", z, "--facilities", f, "--counties", c,
                       "--out-dir", str(out)) == 0
            dirs.append(out)
        for name in ("access.csv", "gini.csv", "hotspot_accessibility.csv", "risk_index.csv",
                     "bivariate_poverty_rate_accessibility.csv",
                     "bivariate_poverty_rate_risk_index.csv", "mortality.csv"):
            assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False)


class TestMortalityCommand:
    def test_years_with_no_records_are_one_error_line(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "m.csv"
        for years in ("2030", "2030:2031", "3000:3000000"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run("mortality", "--counties", str(synth_dir / "counties.csv"),
                           "--years", years, "--out", str(out)) == 1
            assert [str(w.message) for w in caught] == []
            assert capsys.readouterr().err == f"error: no county has a record in years {years}\n"
            assert not out.exists()

    def test_a_range_of_one_year_is_that_year(self, synth_dir, tmp_path):
        counties = str(synth_dir / "counties.csv")
        for years, name in (("2019", "one.csv"), ("2019:2019", "range.csv"), ("all", "all.csv")):
            assert run("mortality", "--counties", counties, "--years", years,
                       "--out", str(tmp_path / name)) == 0
        assert filecmp.cmp(tmp_path / "one.csv", tmp_path / "range.csv", shallow=False)
        assert not filecmp.cmp(tmp_path / "one.csv", tmp_path / "all.csv", shallow=False)

    def test_a_wide_year_range_costs_no_memory_for_its_span(self, synth_dir, tmp_path):
        counties = str(synth_dir / "counties.csv")
        assert run("mortality", "--counties", counties, "--out", str(tmp_path / "all.csv")) == 0
        tracemalloc.start()
        try:
            assert run("mortality", "--counties", counties, "--years", "1:3000000",
                       "--out", str(tmp_path / "wide.csv")) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert filecmp.cmp(tmp_path / "all.csv", tmp_path / "wide.csv", shallow=False)
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("years,message", [
        ("2019:x", "bad --years value '2019:x'"),
        ("2020:2019", "bad --years range '2020:2019'"),
        ("20x9", "bad --years value '20x9'"),
        ("2019:", "bad --years value '2019:'"),
        (":2019", "bad --years value ':2019'"),
        ("2019:2020:2021", "bad --years value '2019:2020:2021'"),
        ("", "bad --years value ''"),
        ("\uff12\uff10\uff11\uff19:2_020", "bad --years value '\uff12\uff10\uff11\uff19:2_020'"),
        ("2019:2_020", "bad --years value '2019:2_020'"),
        ("\u0662\u0660\u0661\u0669", "bad --years value '\u0662\u0660\u0661\u0669'"),
    ])
    def test_a_bad_years_value_is_named(self, synth_dir, tmp_path, capsys, years, message):
        out = tmp_path / "m.csv"
        assert run("mortality", "--counties", str(synth_dir / "counties.csv"), "--years", years,
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_omitted_counties_are_named_in_one_warning(self, synth_dir, tmp_path):
        header, *rows = read_csv(synth_dir / "counties.csv")
        dropped = {"CTY07", "CTY02", "CTY15"}
        counties = tmp_path / "counties.csv"
        with open(counties, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [header] + [r for r in rows if not (r[0] in dropped and r[1] == "2019")])
        out = tmp_path / "m.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("mortality", "--counties", str(counties), "--years", "2019",
                       "--out", str(out)) == 0
        assert [str(w.message) for w in caught] == [
            "3 counties have no records in the requested years and are omitted: "
            "'CTY02', 'CTY07', 'CTY15'"
        ]
        written = [r[0] for r in read_csv(out)[1:]]
        assert written == sorted({r[0] for r in rows} - dropped)


def test_commands_without_spatial_statistics_load_no_scipy(tmp_path):
    # In a fresh interpreter, so that no other test's import counts. ttest
    # comes last: its p needs scipy.special.
    script = """if True:
        import sys
        from geoaccess.cli import main
        out = sys.argv[1] + "/"
        inputs = ["--zones", out + "zones.csv", "--facilities", out + "facilities.csv"]
        for argv in (["synth", "--out-dir", out], ["access", *inputs, "--out", out + "a.csv"],
                     ["gini", *inputs, "--out", out + "g.csv"],
                     ["risk-index", "--zones", out + "zones.csv", "--out", out + "r.csv"],
                     ["mortality", "--counties", out + "counties.csv", "--out", out + "m.csv"]):
            assert main(argv) == 0, argv
            loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
            assert not loaded, (argv[0], loaded)
        assert main(["ttest", *inputs, "--out", out + "ttest.csv"]) == 0
        """
    src = os.path.dirname(os.path.dirname(geoaccess.__file__))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    rows = read_csv(tmp_path / "ttest.csv")
    p = [float(row[rows[0].index("p")]) for row in rows[1:]]
    assert len(p) > 1 and all(0.0 < v <= 1.0 for v in p) and min(p) < 1e-6


class TestTTestCommand:
    def test_table_structure(self, synth_dir, tmp_path):
        out = tmp_path / "ttest.csv"
        assert run("ttest", "--zones", str(synth_dir / "zones.csv"),
                   "--facilities", str(synth_dir / "facilities.csv"),
                   "--columns", "accessibility,poverty_rate", "--out", str(out)) == 0
        rows = read_csv(out)
        assert rows[0][:5] == ["variable", "n_rural", "n_urban", "mean_rural", "mean_urban"]
        assert [r[0] for r in rows[1:]] == ["accessibility", "poverty_rate"]
        access_row = rows[1]
        # urban access exceeds rural access, so the rural-minus-urban t is negative
        t_col = rows[0].index("t")
        assert float(access_row[t_col]) < 0
        assert access_row[-1] == "ok"

    def test_default_columns_list_accessibility_once(self, synth_dir, tmp_path):
        rows = read_csv(synth_dir / "zones.csv")
        zones = tmp_path / "zones.csv"
        with open(zones, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [rows[0] + ["accessibility"]] + [row + ["0.5"] for row in rows[1:]])
        out = tmp_path / "ttest.csv"
        assert run("ttest", "--zones", str(zones), "--facilities",
                   str(synth_dir / "facilities.csv"), "--out", str(out)) == 0
        attributes = sorted(rows[0][len(ZONES_HEADER.split(",")):])
        assert [r[0] for r in read_csv(out)[1:]] == ["accessibility"] + attributes

    def test_repeated_variable_is_a_validation_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "ttest.csv"
        assert run("ttest", "--zones", str(synth_dir / "zones.csv"),
                   "--facilities", str(synth_dir / "facilities.csv"),
                   "--columns", "accessibility,poverty_rate,accessibility", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: t-test variable 'accessibility' is listed more than once\n")
        assert not out.exists()

    @pytest.mark.parametrize("k", [-500, -600])
    def test_a_poverty_column_times_a_tiny_power_of_two_keeps_t_df_p_and_flag(
            self, synth_dir, tmp_path, k):
        # The variances, ~2**(2k) of the unit file's, square below the doubles'
        # range (at k = -600 they leave it themselves); read at one unit scale
        # for both samples, t, df, p and the flag do not see it.
        header, *rows = read_csv(synth_dir / "zones.csv")
        col = header.index("poverty_rate")
        zones = tmp_path / "zones.csv"
        with open(zones, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [header] + [row[:col] + [repr(math.ldexp(float(row[col]), k))] + row[col + 1:]
                            for row in rows])
        tables = []
        for name, path in (("unit", synth_dir / "zones.csv"), ("scaled", zones)):
            out = tmp_path / f"{name}.csv"
            assert run("ttest", "--zones", str(path), "--columns", "poverty_rate",
                       "--out", str(out)) == 0
            tables.append(read_csv(out))
        (head, want), (_, got) = tables
        cells = [head.index(c) for c in ("t", "df", "p", "flag")]
        assert [got[i] for i in cells] == [want[i] for i in cells]
        assert want[-1] == "ok"

    def test_header_only_zones_file_is_a_validation_error(self, synth_dir, tmp_path, capsys):
        zones = tmp_path / "zones.csv"
        zones.write_text((synth_dir / "zones.csv").read_text().splitlines()[0] + "\n")
        assert run("ttest", "--zones", str(zones), "--facilities",
                   str(synth_dir / "facilities.csv"), "--out", str(tmp_path / "o.csv")) == 1
        assert capsys.readouterr().err.startswith("error: ")


def point_geometry(zones_csv, directory):
    """A GeoJSON file giving each zone of ``zones_csv`` its centroid."""
    rows = read_csv(zones_csv)[1:]
    features = []
    for r in rows:
        features.append({
            "type": "Feature",
            "properties": {"zone_id": r[0]},
            "geometry": {"type": "Point", "coordinates": [float(r[2]), float(r[1])]},
        })
    path = directory / "zones.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}, indent=1))
    return path


class TestGeoJson:
    def test_geojson_output_carries_analysis_attributes(self, synth_dir, tmp_path):
        geom = point_geometry(synth_dir / "zones.csv", tmp_path)
        out_csv = tmp_path / "access.csv"
        out_geo = tmp_path / "access.geojson"
        assert run("access", "--zones", str(synth_dir / "zones.csv"),
                   "--geometry", str(geom),
                   "--facilities", str(synth_dir / "facilities.csv"),
                   "--out", str(out_csv), "--geojson-out", str(out_geo)) == 0
        doc = json.loads(out_geo.read_text())
        assert doc["type"] == "FeatureCollection"
        csv_rows = {r[0]: float(r[1]) for r in read_csv(out_csv)[1:]}
        assert len(doc["features"]) == len(csv_rows)
        for feature in doc["features"]:
            assert feature["type"] == "Feature"
            props = feature["properties"]
            assert props["accessibility"] == pytest.approx(csv_rows[props["zone_id"]], rel=1e-9)
            assert feature["geometry"]["type"] == "Point"

    def test_geojson_out_without_geometry_rejected(self, synth_dir, tmp_path):
        assert run("access", "--zones", str(synth_dir / "zones.csv"),
                   "--facilities", str(synth_dir / "facilities.csv"),
                   "--out", str(tmp_path / "a.csv"),
                   "--geojson-out", str(tmp_path / "a.geojson")) == 1
        assert not (tmp_path / "a.csv").exists()  # the refused run writes no CSV either

    def test_pipeline_emits_geojson_with_geometry(self, synth_dir, tmp_path):
        geom = point_geometry(synth_dir / "zones.csv", tmp_path)
        out = tmp_path / "run"
        assert run("pipeline", "--zones", str(synth_dir / "zones.csv"),
                   "--geometry", str(geom),
                   "--facilities", str(synth_dir / "facilities.csv"),
                   "--counties", str(synth_dir / "counties.csv"),
                   "--out-dir", str(out)) == 0
        geo_files = {p.name for p in out.iterdir() if p.suffix == ".geojson"}
        assert geo_files == {
            "access.geojson", "hotspot_accessibility.geojson", "risk_index.geojson",
            "bivariate_poverty_rate_accessibility.geojson",
            "bivariate_poverty_rate_risk_index.geojson",
        }
        for name in geo_files:
            doc = json.loads((out / name).read_text())
            assert doc["type"] == "FeatureCollection"
            assert all(f["type"] == "Feature" and "zone_id" in f["properties"]
                       for f in doc["features"])
        # each stage run on its own writes the pipeline's CSV and GeoJSON bytes
        facilities = ["--facilities", str(synth_dir / "facilities.csv")]
        solo_runs = {
            "access": ["access", *facilities],
            "hotspot_accessibility": ["hotspot", *facilities],
            "risk_index": ["risk-index"],
            "bivariate_poverty_rate_accessibility":
                ["bivariate", "--x", "poverty_rate", "--y", "accessibility", *facilities],
            "bivariate_poverty_rate_risk_index":
                ["bivariate", "--x", "poverty_rate", "--y", "risk_index"],
        }
        assert set(solo_runs) == {name[: -len(".geojson")] for name in geo_files}
        for name, argv in solo_runs.items():
            solo = tmp_path / f"solo_{name}"
            assert run(*argv, "--zones", str(synth_dir / "zones.csv"), "--geometry", str(geom),
                       "--out", f"{solo}.csv", "--geojson-out", f"{solo}.geojson") == 0
            for ext in (".csv", ".geojson"):
                assert filecmp.cmp(f"{solo}{ext}", out / f"{name}{ext}", shallow=False), name + ext
