"""Metamorphic relations: runs whose inputs differ in a known way must give
results that differ in the matching way (or not at all).

Each relation runs over seeds of the 120-zone synthetic region. The
relative bounds are the rounding the relation costs on that region; a
relation that needs a wider bound is a finding, not a reason to widen it.
"""

import csv
import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geoaccess import (DemandZone, GeoPoint, RunConfig, SpatialIndex, build_weights,
                       classify_hotspots, generate_synthetic_region, getis_ord_gi_star, gini,
                       haversine_miles, health_risk_index, load_counties, load_facilities,
                       load_zones, local_bivariate, local_bivariates, pca_fit, run_pipeline,
                       standardize, welch_t_test)
from geoaccess import pipeline as pl
from geoaccess.cli import main
from geoaccess.output import format_value, write_csv
from geoaccess.spatial import WEIGHT_SCHEMES

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
    assert got == want


def test_reversed_anticorrelated_prevalence_columns_keep_the_risk_index():
    # The leading component of two negatively correlated columns, (1, -1) / sqrt(2),
    # is uncorrelated with the zone-wise mean, so no mean-based rule can orient it.
    rng = np.random.default_rng(4)
    raw = rng.normal(0, 1, (8, 2)) @ rng.normal(0, 1, (2, 2)) + 0.875 * rng.normal(0, 1, (8, 2))
    assert np.corrcoef(raw.T)[0, 1] < -0.9
    zones = [DemandZone(zone_id=f"z{i}", centroid=GeoPoint(39.0, -76.0 + 0.01 * i),
                        population=100, adrd_patients=5, urban=False,
                        attributes={"pct_a": a, "pct_b": b})
             for i, (a, b) in enumerate(raw.tolist())]
    want, _ = pl.risk_rows(zones, RunConfig(prevalence_columns=("pct_a", "pct_b")))
    got, _ = pl.risk_rows(zones, RunConfig(prevalence_columns=("pct_b", "pct_a")))
    assert got == want


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



@given(region_seeds, st.floats(1e-3, 1e3))
@relation
def test_scaling_demand_divides_scores_and_keeps_gini(seed, c):
    zones, facilities, _ = generate_synthetic_region(seed)
    zones = pl.sorted_zones(zones)
    field, want = scores(zones, facilities)
    scaled = [dataclasses.replace(z, adrd_patients=z.adrd_patients * c) for z in zones]
    scaled_field, got = scores(scaled, facilities)
    np.testing.assert_allclose(got, want / c, rtol=4e-15, atol=0)
    want_gini = [format_value(row[3]) for row in pl.gini_rows(zones, field)]
    assert [format_value(row[3]) for row in pl.gini_rows(scaled, scaled_field)] == want_gini


@given(region_seeds)
@relation
def test_repeating_every_county_year_doubles_only_years_contributing(seed):
    counties = generate_synthetic_region(seed)[2]
    repeated = counties + [dataclasses.replace(c, year=c.year + 100) for c in counties]
    want = [(cid, 2 * k, *rest) for cid, k, *rest in pl.mortality_rows(counties)]
    assert pl.mortality_rows(repeated) == want


@given(region_seeds, st.sampled_from(WEIGHT_SCHEMES))
@relation
def test_positive_affine_map_keeps_gi_star(seed, scheme):
    zones, facilities, _ = generate_synthetic_region(seed)
    zones = pl.sorted_zones(zones)
    _, x = scores(zones, facilities)
    points = [(z.zone_id, z.centroid) for z in zones]
    weights = build_weights(points, scheme, include_self=True, k=8, band=15.0)
    want = classify_hotspots(getis_ord_gi_star(x, weights))
    n = x.size
    w = np.diff(weights.matrix.indptr).astype(float)
    # A z-score is a neighbourhood sum of centred values over their spread S.
    # The mapped values and their mean are each rounded to within
    # eps * max|ax + b|, which moves every centred value by up to twice that
    # (in units of a * x) and S by as much. So z moves by up to
    # 2 eps max|ax + b| / (a S) * (W / sqrt(bracket) + |z|), plus the same
    # term at max|x| for the rounding of the unmapped run.
    scale = w / np.sqrt((n * w - w * w) / (n - 1.0)) + np.abs(want.z)
    for a, b in [(2.0, 5.0), (1.0, 100.0), (1.0, 1e4), (0.5, -1e4)]:
        y = a * x + b
        got = classify_hotspots(getis_ord_gi_star(y, weights))
        assert got.category == want.category
        eps_s = np.finfo(float).eps * (np.abs(x).max() + np.abs(y).max() / a) / x.std()
        assert np.all(np.abs(got.z - want.z) <= 2.0 * eps_s * scale)


def neighbour_pairs(weights):
    m = weights.matrix.tocoo()
    return set(zip(m.row.tolist(), m.col.tolist()))


def neighbour_weights(zones, scheme, cfg=RunConfig()):
    return build_weights([(z.zone_id, z.centroid) for z in zones], scheme, include_self=False,
                         k=cfg.knn_k, band=cfg.band_miles)


def assert_a_longitude_shift_keeps_every_neighbour_set(zones, delta, scheme):
    cfg = RunConfig()
    shifted = [dataclasses.replace(z, centroid=GeoPoint(z.centroid.lat, z.centroid.lon + delta))
               for z in zones]
    want, got = neighbour_weights(zones, scheme, cfg), neighbour_weights(shifted, scheme, cfg)
    assert got.ids == want.ids
    moved = neighbour_pairs(got) ^ neighbour_pairs(want)
    # Distance depends on the longitude difference alone, up to rounding, so
    # only a fixed-band pair that close to the band edge may move.
    if scheme == "fixed_band":
        moved = {(i, j) for i, j in moved if abs(haversine_miles(
            zones[i].centroid, zones[j].centroid) - cfg.band_miles) > 1e-9}
    assert moved == set()


shifts = st.sampled_from([0.5, -3.25, 17.0])


@given(region_seeds, shifts, st.sampled_from(WEIGHT_SCHEMES))
@relation
def test_a_rigid_longitude_shift_keeps_every_neighbour_set(seed, delta, scheme):
    zones = pl.sorted_zones(generate_synthetic_region(seed)[0])
    assert_a_longitude_shift_keeps_every_neighbour_set(zones, delta, scheme)


# A default region spans about 1.8 degrees of longitude at its latitude. At
# a pitch of 1.8 degrees zones near a tile edge see the next tile inside the
# band; at 4 degrees the tiles are over 100 miles apart.
NEAR_PITCH_DEG, FAR_PITCH_DEG = 1.8, 4.0


def tiled_layout(seed, pitch_deg, tiles=3):
    """Seeded default regions side by side along a parallel, as (zones,
    facilities) per tile: tile k is region ``seed * tiles + k`` moved
    ``k * pitch_deg`` degrees east, with ids prefixed ``T<k>``."""
    layout = []
    for k in range(tiles):
        zones, facilities, _ = generate_synthetic_region(seed * tiles + k)
        east = k * pitch_deg
        layout.append((
            [dataclasses.replace(z, zone_id=f"T{k}{z.zone_id}",
                                 centroid=GeoPoint(z.centroid.lat, z.centroid.lon + east))
             for z in zones],
            [dataclasses.replace(f, facility_id=f"T{k}{f.facility_id}",
                                 location=GeoPoint(f.location.lat, f.location.lon + east))
             for f in facilities]))
    return layout


@given(region_seeds, shifts, st.sampled_from(WEIGHT_SCHEMES))
@relation
def test_a_rigid_longitude_shift_keeps_every_neighbour_set_of_a_tiled_layout(seed, delta,
                                                                            scheme):
    zones = pl.sorted_zones([z for tile, _ in tiled_layout(seed, NEAR_PITCH_DEG) for z in tile])
    assert_a_longitude_shift_keeps_every_neighbour_set(zones, delta, scheme)


def id_pairs(weights):
    return {(weights.ids[i], weights.ids[j]) for i, j in neighbour_pairs(weights)}


@given(region_seeds, st.sampled_from(WEIGHT_SCHEMES))
@relation
def test_tiles_farther_apart_than_band_and_catchment_keep_their_lone_results(seed, scheme):
    cfg = RunConfig()
    layout = tiled_layout(seed, FAR_PITCH_DEG)
    indexes = [SpatialIndex([(z.zone_id, z.centroid) for z in zones]
                            + [(f.facility_id, f.location) for f in facilities])
               for zones, facilities in layout]
    for a, b in zip(indexes, indexes[1:]):
        assert len(a.pairs_within(b, max(cfg.band_miles, cfg.catchment_miles))[0]) == 0
    zones = [z for tile, _ in layout for z in tile]
    field = pl.compute_access(zones, [f for _, tile in layout for f in tile], cfg)
    pairs = id_pairs(neighbour_weights(zones, scheme, cfg))
    for tile_zones, tile_facilities in layout:
        alone = pl.compute_access(tile_zones, tile_facilities, cfg)
        assert {zid: field.zone_scores[zid] for zid in alone.zone_scores} == alone.zone_scores
        assert {fid: field.facility_ratios[fid] for fid in alone.facility_ratios} \
            == alone.facility_ratios
        ids = set(alone.zone_scores)
        assert {(i, j) for i, j in pairs if i in ids} \
            == id_pairs(neighbour_weights(tile_zones, scheme, cfg))


# The powers of two the scale relations multiply their inputs by.
POWERS = tuple(sign * k for k in (1, 300, 600, 1000) for sign in (1, -1))


def normal_powers(*arrays):
    """The k of POWERS for which every nonzero value times 2**k is still a normal double."""
    nonzero = np.abs(np.concatenate([np.ravel(a) for a in arrays]))
    nonzero = nonzero[nonzero > 0.0]
    # A magnitude with frexp exponent e lies in [2**(e - 1), 2**e); the normal
    # doubles run from 2**-1022 to below 2**1024.
    lo, hi = np.frexp(nonzero.min())[1], np.frexp(nonzero.max())[1]
    return [k for k in POWERS if lo - 1 + k >= -1022 and hi + k <= 1024]


def scale_free_statistics(k, access, poverty, prevalence, urban, weights):
    """Every scale-free statistic of the inputs times 2**k."""
    access, poverty, prevalence = (np.ldexp(v, k) for v in (access, poverty, prevalence))
    gi = getis_ord_gi_star(access, weights)
    bv = local_bivariates(poverty, [access], weights, permutations=99, seed=1)[0]
    t = welch_t_test(poverty[~urban], poverty[urban])
    z, _, _ = standardize(prevalence)
    return {"gi_z": gi.z, "gi_p": gi.p, "local_r": bv.local_r, "pseudo_p": bv.pseudo_p,
            "bivariate_category": bv.category, "gini": gini(access).gini,
            "welch": (t.t, t.df, t.p, t.degenerate, t.infinite_separation),
            "standardized": z, "risk_index": health_risk_index(pca_fit(z), z).scores}


@given(region_seeds, st.sampled_from(WEIGHT_SCHEMES))
@relation
def test_a_power_of_two_keeps_every_scale_free_statistic_bit_for_bit(seed, scheme):
    # Each statistic reads its input at unit scale, which is the same for x
    # and x * 2**k while no value leaves the normal doubles.
    cfg = RunConfig()
    zones, facilities, _ = generate_synthetic_region(seed)
    zones = pl.sorted_zones(zones)
    _, access = scores(zones, facilities)
    poverty = np.array(pl.resolve_series(zones, cfg.poverty_column))
    prevalence = np.array([pl.resolve_series(zones, c)
                           for c in sorted(cfg.prevalence_columns)]).T
    urban = np.array([z.urban for z in zones])
    weights = build_weights([(z.zone_id, z.centroid) for z in zones], scheme, include_self=True,
                            k=cfg.knn_k, band=cfg.band_miles)
    inputs = (access, poverty, prevalence, urban, weights)
    want = scale_free_statistics(0, *inputs)
    powers = normal_powers(access, poverty, prevalence)
    assert 1000 in powers and -1000 in powers
    for k in powers:
        got = scale_free_statistics(k, *inputs)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=f"{name} at 2**{k}")


SCALE_FREE_COLUMNS = ("z", "p", "category", "local_r", "pseudo_p", "gini", "risk_index")


def scale_free_cells(out):
    """Per CSV file of ``out``, its scale-free columns."""
    cells = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        cells[path.name] = [[row[c] for c in SCALE_FREE_COLUMNS if c in row] for row in rows]
    return cells


@given(region_seeds)
@relation
def test_beds_times_two_to_the_thousand_keep_every_scale_free_cell(tmp_path_factory, seed):
    zones, facilities, counties = generate_synthetic_region(seed)
    big = [dataclasses.replace(f, beds=f.beds * 2**1000) for f in facilities]
    root = tmp_path_factory.mktemp("beds")
    for name, beds in (("unit", facilities), ("big", big)):
        run_pipeline(zones, beds, counties, root / name, RunConfig())
    assert scale_free_cells(root / "big") == scale_free_cells(root / "unit")
    # The accessibility itself does scale: the hot-spot values are 2**1000 times larger.
    assert (root / "big" / "hotspot_accessibility.csv").read_bytes() \
        != (root / "unit" / "hotspot_accessibility.csv").read_bytes()


def test_spreads_near_two_to_the_minus_300_of_the_maxima_are_undefined():
    """The one edge of unit scale. Where x's and y's spreads over a
    neighbourhood are both ~2**-300 of their variables' largest magnitudes,
    the product of the two spreads underflows to 0 at unit scale, and the row
    is Undefined, as a constant one is; at ~2**-200 it is defined."""
    zones = pl.sorted_zones(generate_synthetic_region(1)[0])
    weights = build_weights([(z.zone_id, z.centroid) for z in zones], "knn", include_self=True,
                            k=8)
    # The rows whose neighbourhood leaves out zone 0, which holds both maxima.
    far = weights.matrix[:, [0]].toarray().ravel() == 0.0
    x, y = np.random.default_rng(5).normal(0.0, 1.0, (2, len(zones)))
    category = {}
    for k in (-200, -300):
        xs, ys = np.ldexp(x, k), np.ldexp(y, k)
        xs[0] = ys[0] = 1.0
        category[k] = np.array(local_bivariate(xs, ys, weights, permutations=19, seed=1).category)
    assert far.sum() > 100
    assert not np.any(category[-200][far] == "Undefined")
    assert np.all(category[-300][far] == "Undefined")
