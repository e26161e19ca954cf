"""Metamorphic relations: runs whose inputs differ in a known way must give
results that differ in the matching way (or not at all).

Each relation runs over seeds of the 120-zone synthetic region. The
relative bounds are the rounding the relation costs on that region; a
relation that needs a wider bound is a finding, not a reason to widen it.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geoaccess import (RunConfig, generate_synthetic_region, load_counties, load_facilities,
                       load_zones, run_pipeline)
from geoaccess import pipeline as pl
from geoaccess.cli import main
from geoaccess.output import format_value, write_csv

region_seeds = st.integers(0, 2**31 - 1)
# Fixed example sequences: every run of the suite checks the same cases.
relation = settings(max_examples=10, deadline=None, derandomize=True)


def scores(zones, facilities, cfg=RunConfig()):
    field = pl.compute_access(zones, facilities, cfg)
    return field, np.array([field.zone_scores[z.zone_id] for z in zones])


def shuffle_rows(path, rng):
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rng.shuffle(rows)
    path.write_text(header + "".join(rows), encoding="utf-8")


def pipeline_bytes(directory, out):
    zones = load_zones(directory / "zones.csv")
    run_pipeline(zones, load_facilities(directory / "facilities.csv"),
                 load_counties(directory / "counties.csv"), out, RunConfig())
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@given(region_seeds, st.randoms(use_true_random=False))
@relation
def test_shuffled_input_rows_give_identical_bytes(tmp_path_factory, seed, rng):
    root = tmp_path_factory.mktemp("shuffle")
    for name in ("sorted", "shuffled"):
        assert main(["synth", "--seed", str(seed), "--out-dir", str(root / name)]) == 0
    for name in ("zones.csv", "facilities.csv", "counties.csv"):
        shuffle_rows(root / "shuffled" / name, rng)
    want = pipeline_bytes(root / "sorted", root / "sorted_out")
    assert pipeline_bytes(root / "shuffled", root / "shuffled_out") == want


@given(region_seeds, st.data())
@relation
def test_splitting_a_facility_into_colocated_halves_keeps_scores(seed, data):
    zones, facilities, _ = generate_synthetic_region(seed)
    i = data.draw(st.integers(0, len(facilities) - 1), label="facility")
    f = facilities[i]
    halves = [dataclasses.replace(f, facility_id=f.facility_id + s, beds=f.beds / 2)
              for s in ("a", "b")]
    _, want = scores(zones, facilities)
    _, got = scores(zones, facilities[:i] + halves + facilities[i + 1:])
    np.testing.assert_allclose(got, want, rtol=2e-15, atol=0)


@given(region_seeds, st.floats(1e-3, 1e3))
@relation
def test_scaling_beds_scales_scores_and_keeps_gini(seed, c):
    zones, facilities, _ = generate_synthetic_region(seed)
    zones = pl.sorted_zones(zones)
    field, want = scores(zones, facilities)
    scaled_field, got = scores(zones, [dataclasses.replace(f, beds=f.beds * c)
                                       for f in facilities])
    np.testing.assert_allclose(got, c * want, rtol=4e-15, atol=0)
    # Unchanged as written: the 9-significant-digit Gini cells of gini.csv.
    want_gini = [format_value(row[3]) for row in pl.gini_rows(zones, field)]
    assert [format_value(row[3]) for row in pl.gini_rows(zones, scaled_field)] == want_gini


@given(region_seeds, st.permutations(RunConfig().prevalence_columns))
@relation
def test_permuted_prevalence_columns_keep_the_risk_index(seed, columns):
    zones = pl.sorted_zones(generate_synthetic_region(seed)[0])
    want, _ = pl.risk_rows(zones, RunConfig())
    got, _ = pl.risk_rows(zones, RunConfig(prevalence_columns=tuple(columns)))
    assert [zid for zid, _ in got] == [zid for zid, _ in want]
    np.testing.assert_allclose([v for _, v in got], [v for _, v in want], rtol=0, atol=1.1e-14)


@given(region_seeds, st.randoms(use_true_random=False))
@relation
def test_shuffled_county_rows_keep_mortality_csv(tmp_path_factory, seed, rng):
    counties = generate_synthetic_region(seed)[2]
    shuffled = list(counties)
    rng.shuffle(shuffled)
    out = tmp_path_factory.mktemp("mortality")
    write_csv(out / "want.csv", pl.MORTALITY_HEADER, pl.mortality_rows(counties))
    write_csv(out / "got.csv", pl.MORTALITY_HEADER, pl.mortality_rows(shuffled))
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

