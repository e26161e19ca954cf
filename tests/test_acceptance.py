"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.
"""

import csv
import filecmp
import math
import time

import numpy as np
import pytest

from geoaccess import (
    CountyOutcome,
    DemandZone,
    Facility,
    GeoPoint,
    PcaModel,
    RunConfig,
    accessibility_scores,
    build_weights,
    classify_hotspots,
    classify_service_status,
    generate_synthetic_region,
    getis_ord_gi_star,
    gini,
    haversine_miles,
    decay_weight,
    health_risk_index,
    local_bivariate,
    pca_fit,
    run_pipeline,
    standardize,
    welch_t_test,
)
from geoaccess.synth import CENTER_LAT, CENTER_LON

from oracles import ref_direct_accessibility, ref_gini_pairwise, ref_gi_star

MILE_DEG = 1.0 / 3958.7613 * 180.0 / math.pi


def _report(line):
    print(f"[PASS] {line}")


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n_zones = int(rng.integers(5, 51))
    n_facilities = int(rng.integers(1, 11))
    zones = [
        DemandZone(f"z{i:03d}", GeoPoint(float(rng.uniform(38.0, 40.0)),
                                         float(rng.uniform(-78.0, -75.0))),
                   population=int(rng.integers(100, 5000)),
                   adrd_patients=int(rng.integers(0, 400)), urban=bool(rng.integers(0, 2)))
        for i in range(n_zones)
    ]
    facilities = [
        Facility(f"h{i:03d}", GeoPoint(float(rng.uniform(38.0, 40.0)),
                                       float(rng.uniform(-78.0, -75.0))),
                 beds=int(rng.integers(1, 500)))
        for i in range(n_facilities)
    ]
    return zones, facilities


def test_c01_two_step_matches_direct_formula():
    start = time.monotonic()
    for seed in range(25):
        zones, facilities = _random_instance(seed)
        field = accessibility_scores(zones, facilities, 15.0)
        expected = ref_direct_accessibility(
            [(z.zone_id, z.centroid.lat, z.centroid.lon, z.adrd_patients) for z in zones],
            [(f.facility_id, f.location.lat, f.location.lon, f.beds) for f in facilities],
            15.0,
        )
        for zid, got in field.zone_scores.items():
            assert got == pytest.approx(expected[zid], rel=1e-9, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(f"criterion 1: two-step equals direct evaluation on 25 instances ({elapsed:.2f}s)")


def test_c02_supply_conservation():
    for seed in range(25):
        zones, facilities = _random_instance(seed)
        field = accessibility_scores(zones, facilities, 15.0)
        demand_side = sum(z.adrd_patients * field.zone_scores[z.zone_id] for z in zones)
        supply_side = sum(f.beds for f in facilities if f.facility_id in field.facility_ratios)
        if supply_side > 0:
            assert demand_side == pytest.approx(supply_side, rel=1e-9)
        else:
            assert demand_side == 0.0
    _report("criterion 2: weighted demand equals served supply on every instance")


def test_c03_impedance_pinpoints():
    assert decay_weight(0.0, 15.0) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-9)
    assert decay_weight(15.0, 15.0) == 0.0
    assert decay_weight(7.5, 15.0) == pytest.approx(math.exp(-0.125) - math.exp(-0.5), abs=1e-9)
    _report("criterion 3: decay weight pinpoints at 0 / midpoint / boundary")


def test_c04_gini_oracles():
    rng = np.random.default_rng(99)
    for _ in range(100):
        x = rng.uniform(0.0, 50.0, size=int(rng.integers(1, 100)))
        assert gini(x).gini == pytest.approx(ref_gini_pairwise(x), abs=1e-12)
    assert gini([5, 5, 5]).gini == pytest.approx(0.0, abs=1e-12)
    assert gini([0, 10]).gini == pytest.approx(0.5, abs=1e-12)
    assert gini([1, 2, 3, 4]).gini == pytest.approx(0.25, abs=1e-12)
    _report("criterion 4: sorted-form Gini equals pairwise form; fixed cases exact")


def test_c05_welch_reference_and_symmetries():
    res = welch_t_test([1, 2, 3], [2, 4, 6])
    assert res.t == pytest.approx(-1.549193, abs=1e-5)
    assert res.df == pytest.approx(2.941176, abs=1e-5)
    assert res.p == pytest.approx(0.2213, abs=1e-3)
    swapped = welch_t_test([2, 4, 6], [1, 2, 3])
    assert swapped.t == -res.t and swapped.df == res.df and swapped.p == res.p
    shifted = welch_t_test([11, 12, 13], [12, 14, 16])
    assert shifted.t == res.t and shifted.df == res.df and shifted.p == res.p
    _report("criterion 5: Welch reference case, swap symmetry, location invariance")


def test_c06_gi_star_oracle():
    points = [(f"g{r}{c}", GeoPoint(r * MILE_DEG, c * MILE_DEG))
              for r in range(3) for c in range(3)]
    values = [0.0] * 9
    values[4] = 10.0
    weights = build_weights(points, "fixed_band", band=1.5)
    res = getis_ord_gi_star(values, weights)
    expected = ref_gi_star(values, [list(map(int, n)) for n in weights.neighbors])
    np.testing.assert_allclose(res.z, expected, rtol=0, atol=1e-15)

    constant = classify_hotspots(getis_ord_gi_star([3.0] * 9, weights))
    assert np.all(constant.z == 0.0)
    assert all(c == "NotSignificant" for c in constant.category)

    reflected = getis_ord_gi_star([-v for v in values], weights)
    assert np.all(reflected.z == -res.z)
    _report("criterion 6: hot-spot z matches the direct script; constant and reflection laws")


def test_c07_pca_analytic_cases():
    a = np.array([1.0, 1.0, -1.0, -1.0])
    c = np.array([1.0, -1.0, 1.0, -1.0])
    for r in (0.3, 0.6, 0.9):
        b = r * a + math.sqrt(1 - r * r) * c
        z, _, _ = standardize(np.column_stack([a, b]))
        model = pca_fit(z)
        np.testing.assert_allclose(model.eigenvalues, [1 + r, 1 - r], atol=1e-9)
        p = model.loadings.shape[0]
        np.testing.assert_allclose(model.loadings.T @ model.loadings, np.eye(p), atol=1e-9)
        corr = (z.T @ z) / (z.shape[0] - 1)
        rebuilt = model.loadings @ np.diag(model.eigenvalues) @ model.loadings.T
        np.testing.assert_allclose(rebuilt, corr, atol=1e-9)
        assert model.explained_ratio.sum() == pytest.approx(1.0, abs=1e-12)
    _report("criterion 7: two-variable eigenvalues 1±r, orthonormality, reconstruction")


def test_c08_retention_rule():
    model = PcaModel(eigenvalues=np.array([1.5, 0.9, 0.6]), loadings=np.eye(3),
                     explained_ratio=np.array([0.5, 0.3, 0.2]))
    z = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    index = health_risk_index(model, z, target=0.75)
    assert index.retained_components == 2
    assert index.captured_variance == pytest.approx(0.8, abs=1e-12)
    _report("criterion 8: variance target keeps exactly 2 components capturing 0.8")


def test_c09_synthetic_region_reproduces_paper_patterns(tmp_path):
    start = time.monotonic()
    zones, facilities, counties = generate_synthetic_region(42)
    out = tmp_path / "run"
    run_pipeline(zones, facilities, counties, out, RunConfig())

    with open(out / "gini.csv", newline="") as fh:
        gini_by_stratum = {row["stratum"]: float(row["gini"]) for row in csv.DictReader(fh)}
    assert gini_by_stratum["rural"] > gini_by_stratum["urban"]

    with open(out / "hotspot_accessibility.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_zone = {z.zone_id: z for z in zones}
    core = GeoPoint(CENTER_LAT, CENTER_LON)
    hot = [r["zone_id"] for r in rows if r["category"].startswith("HotSpot")]
    cold = [r["zone_id"] for r in rows if r["category"].startswith("ColdSpot")]
    assert hot and cold
    hot_dist = np.mean([haversine_miles(core, by_zone[z].centroid) for z in hot])
    cold_dist = np.mean([haversine_miles(core, by_zone[z].centroid) for z in cold])
    assert hot_dist < cold_dist
    urban_share_hot = np.mean([by_zone[z].urban for z in hot])
    urban_share_cold = np.mean([by_zone[z].urban for z in cold])
    assert urban_share_hot > 0.5 > urban_share_cold

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(
        "criterion 9: rural Gini "
        f"{gini_by_stratum['rural']:.3f} > urban {gini_by_stratum['urban']:.3f}; "
        f"hot spots at {hot_dist:.1f} mi from core vs cold at {cold_dist:.1f} mi "
        f"({elapsed:.1f}s)"
    )


def test_c10_bivariate_calibration_and_power():
    rng = np.random.default_rng(0)
    points = [(f"p{i:03d}", GeoPoint(float(rng.uniform(38, 40)), float(rng.uniform(-78, -75))))
              for i in range(60)]
    weights = build_weights(points, "knn", k=8)
    shares = []
    for seed in range(20):
        r = np.random.default_rng([900, seed])
        x = r.normal(0, 1, 60)
        y = r.normal(0, 1, 60)
        res = local_bivariate(x, y, weights, permutations=199, seed=seed, min_neighbors=8)
        defined = [i for i, cat in enumerate(res.category) if cat != "Undefined"]
        significant = [i for i in defined if res.category[i] != "NotSignificant"]
        shares.append(len(significant) / len(defined))
    mean_share = float(np.mean(shares))
    assert 0.0 <= mean_share <= 0.15

    x = rng.normal(0, 1, 60)
    res = local_bivariate(x, x, weights, permutations=199, seed=5, min_neighbors=8)
    for i, cat in enumerate(res.category):
        if cat != "Undefined":
            assert cat == "PositiveSignificant"
            assert res.local_r[i] == pytest.approx(1.0, abs=1e-12)
    _report(
        f"criterion 10: null significance share {mean_share:.3f} in [0, 0.15]; "
        "perfect correlation flagged positive everywhere"
    )


def test_c11_service_status_rules():
    counties = [
        CountyOutcome("A", 2019, adrd_deaths=40, adrd_patients=100, population_50plus=10000),
        CountyOutcome("B", 2019, adrd_deaths=10, adrd_patients=100, population_50plus=2000),
    ]
    labels = {s.county_id: s.label for s in classify_service_status(counties)}
    assert labels == {"A": "Underserved", "B": "Overserved"}

    records = [
        CountyOutcome("A", 2018, adrd_deaths=10, adrd_patients=50, population_50plus=900),
        CountyOutcome("A", 2019, adrd_deaths=20, adrd_patients=50, population_50plus=900),
    ] + counties[1:]  # B, so that two counties have defined ratios
    agg = classify_service_status(records, [2018, 2019])[0]
    assert (agg.county_id, agg.years_contributing, agg.deaths_per_patient) == ("A", 2, 0.3)
    _report("criterion 11: two-county classification and ratio-of-means aggregation")


def test_c12_pipeline_determinism(tmp_path):
    zones, facilities, counties = generate_synthetic_region(42)
    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        run_pipeline(zones, facilities, counties, out, RunConfig())
        outputs.append(out)
    names = [p.name for p in outputs[0].iterdir() if p.suffix == ".csv"]
    assert names
    for name in names:
        assert filecmp.cmp(outputs[0] / name, outputs[1] / name, shallow=False), name
    _report("criterion 12: byte-identical outputs across reruns")
