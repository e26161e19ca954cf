import math
import sys
import threading
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from geoaccess import (
    GeoPoint,
    HotSpotResult,
    RunConfig,
    ValidationError,
    build_weights,
    classify_hotspots,
    generate_synthetic_region,
    getis_ord_gi_star,
    haversine_miles,
    local_bivariate,
    local_bivariates,
)
from geoaccess import pipeline as pl
from geoaccess import spatial
from geoaccess.geo import SpatialIndex, knn_candidates
from geoaccess.spatial import WEIGHT_SCHEMES, SpatialWeights, benjamini_hochberg

from oracles import (
    ref_bh_reject,
    ref_gi_star,
    ref_local_bivariate,
    ref_pairwise_miles,
    ref_pearson,
    ref_weights,
)

MILE_DEG = 1.0 / 3958.7613 * 180.0 / math.pi  # one mile of arc, in degrees

# Frozen direct-formula z-scores for the 3x3 center-spike instance
# (band 1.5 grid units): the center neighborhood saturates, so its
# bracket term vanishes and z degenerates to 0 there.
GRID_CORNER_Z = 1.1180339887498947
GRID_EDGE_Z = 0.7071067811865475

# Two-sided p at |z| = 1, 5, 17 and 30: erfc(x) to 40 digits (mpmath, computed
# offline), x being the double z / sqrt(2.0) that the kernel passes to erfc.
# At 30 the rounding of x alone moves erfc by ~1e-13 relative, so these are not
# erfc(z / sqrt 2) of the exact quotient.
FROZEN_GI_P = [
    (1.0, "3.173105078629141457315053953134003316096e-1"),
    (5.0, "5.733031437583891413415898945086687882097e-7"),
    (17.0, "8.211992404197935717295396966548115442345e-65"),
    (30.0, "9.81342785429752816340637800115838665329e-198"),
]


def grid_3x3():
    points = []
    for r in range(3):
        for c in range(3):
            points.append((f"g{r}{c}", GeoPoint(r * MILE_DEG, c * MILE_DEG)))
    values = [0.0] * 9
    values[4] = 10.0
    return points, values


def uneven_layout(name):
    """60 features within a mile, beside 20 on a 40-mile ring; or 150
    scattered features and one an ocean away."""
    if name == "far_outlier":
        return random_points(12, 150) + [("zz_far", GeoPoint(-33.9, 151.2))]
    rng = np.random.default_rng(13)
    cluster = [(f"c{i:02d}", GeoPoint(39.0 + float(rng.uniform(-0.5, 0.5)) * MILE_DEG,
                                      -76.0 + float(rng.uniform(-0.5, 0.5)) * MILE_DEG))
               for i in range(60)]
    ring = [(f"r{i:02d}", GeoPoint(39.0 + 40.0 * MILE_DEG * math.sin(2 * math.pi * i / 20),
                                   -76.0 + 40.0 * MILE_DEG * math.cos(2 * math.pi * i / 20)))
            for i in range(20)]
    return cluster + ring


def random_points(seed, n):
    rng = np.random.default_rng(seed)
    return [
        (f"p{i:03d}", GeoPoint(float(rng.uniform(38.0, 40.0)), float(rng.uniform(-78.0, -75.0))))
        for i in range(n)
    ]


def shared_pass_case(scheme):
    """Weights over 40 points and three variables on them.

    x is constant west of -77 degrees, so the rows there have no
    x-variance. y2 is zero east of -76.5 degrees, so some observed and
    permuted neighbourhoods are constant in y. Elsewhere values are
    continuous. No neighbourhood holds exactly one nonzero y2: there
    every permutation that puts some nonzero value in the same spot
    would tie |r| exactly, and the kernel and the oracle round such
    ties differently.
    """
    pts = random_points(44, 40)
    if scheme == "knn":
        w = build_weights(pts, "knn", include_self=True, k=5)
    else:
        w = build_weights(pts, "fixed_band", include_self=True, band=25.0)
    rng = np.random.default_rng(45)
    lon = np.array([p.lon for _, p in pts])
    x = np.where(lon < -77.0, 1.5, rng.normal(0.0, 1.0, 40))
    y1, y2 = rng.normal(0.0, 1.0, (2, 40))
    return w, x, y1, np.where(lon > -76.5, 0.0, y2)


def cluster(prefix, lat, lon, count, rng):
    """``count`` points within 0.3 miles (north-south and east-west) of (lat, lon)."""
    lon_mile = MILE_DEG / math.cos(math.radians(lat))
    return [(f"{prefix}{i}", GeoPoint(lat + float(rng.uniform(-0.3, 0.3)) * MILE_DEG,
                                      lon + float(rng.uniform(-0.3, 0.3)) * lon_mile))
            for i in range(count)]


def repeated_lists_case(scheme):
    """Weights in which whole clusters share one neighbour list, and x, y1, y2.

    Four tight clusters over 100 miles apart, "a", "b" and "d" of six
    points and "c" of three, and a ring "r" of 16 points 20 miles around
    "a". Under a 16-mile band a ring point sees the two on either side
    and a cluster point its own cluster; under knn with k = 5 a six-point
    cluster is its members' whole neighbourhood. So each cluster's rows
    repeat one list, while ring rows differ. x is constant on "b", y2 is
    zero on "d", and "c" is smaller than min_neighbors = 4 under the band.
    """
    rng = np.random.default_rng(46)
    pts = (cluster("a", 39.0, -76.0, 6, rng) + cluster("b", 41.0, -76.0, 6, rng)
           + cluster("c", 39.0, -73.0, 3, rng) + cluster("d", 37.0, -76.0, 6, rng))
    lon_mile = MILE_DEG / math.cos(math.radians(39.0))
    pts += [(f"r{i:02d}", GeoPoint(39.0 + 20.0 * MILE_DEG * math.sin(i * math.pi / 8),
                                   -76.0 + 20.0 * lon_mile * math.cos(i * math.pi / 8)))
            for i in range(16)]
    w = build_weights(pts, scheme, include_self=True, k=5, band=16.0)
    first = np.array([pid[0] for pid, _ in pts])
    x = np.where(first == "b", 1.5, rng.normal(0.0, 1.0, len(pts)))
    y1, y2 = rng.normal(0.0, 1.0, (2, len(pts)))
    return w, x, y1, np.where(first == "d", 0.0, y2)


def check_rows_sharing_a_list(w, x, ys, permutations=199, seed=5, min_neighbors=4):
    """Run ``local_bivariates`` and check it against separate calls and the
    oracle, and that rows with one neighbourhood share local_r and pseudo_p
    bit for bit. Returns the results and each group of rows sharing a list."""
    kwargs = dict(permutations=permutations, seed=seed, min_neighbors=min_neighbors)
    shared = local_bivariates(x, ys, w, **kwargs)
    assert len(shared) == len(ys)
    by_list = {}
    for i, nb in enumerate(w.neighbors):
        by_list.setdefault(nb.tobytes(), []).append(i)
    repeated = [rows for rows in by_list.values() if len(rows) > 1]
    for y, res in zip(ys, shared):
        alone = local_bivariate(x, y, w, **kwargs)
        assert res.local_r.tobytes() == alone.local_r.tobytes()  # NaN in the same places
        assert res.pseudo_p.tobytes() == alone.pseudo_p.tobytes()
        assert res.category == alone.category
        local_r, pseudo_p, category = ref_local_bivariate(x, y, w.neighbors, **kwargs)
        np.testing.assert_allclose(res.local_r, local_r, rtol=0.0, atol=1e-10)
        np.testing.assert_array_equal(res.pseudo_p, pseudo_p)
        assert res.category == category
        for rows in repeated:
            assert len({res.local_r[i].tobytes() for i in rows}) == 1
            assert len({res.pseudo_p[i].tobytes() for i in rows}) == 1
    return shared, repeated


class TestBuildWeights:
    def test_collinear_knn_includes_self_and_nearest(self):
        pts = [("a", GeoPoint(0.0, 0.0)), ("b", GeoPoint(0.0, MILE_DEG)),
               ("c", GeoPoint(0.0, 2 * MILE_DEG))]
        w = build_weights(pts, "knn", include_self=True, k=1)
        assert list(w.neighbors[0]) == [0, 1]
        assert list(w.neighbors[2]) == [1, 2]
        # middle feature is equidistant from both ends; tie breaks by id
        assert list(w.neighbors[1]) == [0, 1]

    def test_band_larger_than_diameter_connects_everything(self):
        pts = random_points(1, 12)
        w = build_weights(pts, "fixed_band", include_self=True, band=1e4)
        for i in range(12):
            assert list(w.neighbors[i]) == list(range(12))

    def test_knn_matches_brute_force_selection(self):
        pts = random_points(2, 100)
        w = build_weights(pts, "knn", include_self=False, k=8)
        ids = [pid for pid, _ in pts]
        for i, (pid, p) in enumerate(pts):
            ranked = sorted(
                (j for j in range(100) if j != i),
                key=lambda j: (haversine_miles(p, pts[j][1]), ids[j]),
            )
            assert sorted(ranked[:8]) == list(w.neighbors[i])

    def test_band_membership_matches_brute_force(self):
        pts = random_points(3, 80)
        band = 25.0
        w = build_weights(pts, "fixed_band", include_self=True, band=band)
        for i, (pid, p) in enumerate(pts):
            expected = sorted(
                j for j in range(80)
                if j == i or haversine_miles(p, pts[j][1]) <= band
            )
            assert expected == list(w.neighbors[i])

    def test_fixed_band_symmetry(self):
        pts = random_points(4, 60)
        w = build_weights(pts, "fixed_band", include_self=False, band=20.0)
        sets = [set(map(int, nbrs)) for nbrs in w.neighbors]
        for i in range(60):
            for j in sets[i]:
                assert i in sets[j]

    def test_isolated_feature_flagged_not_rejected(self):
        pts = [("a", GeoPoint(0.0, 0.0)), ("b", GeoPoint(0.0, 1.0)), ("far", GeoPoint(50.0, 50.0))]
        w = build_weights(pts, "fixed_band", include_self=True, band=100.0)
        assert w.isolated[2] and not w.isolated[0]
        assert list(w.neighbors[2]) == [2]

    def test_rejections(self):
        pts = random_points(5, 10)
        with pytest.raises(ValidationError):
            build_weights(pts, "knn", include_self=True, k=10)
        with pytest.raises(ValidationError):
            build_weights(pts, "knn", include_self=True, k=0)
        with pytest.raises(ValidationError):
            build_weights(pts, "fixed_band", include_self=True, band=0.0)
        with pytest.raises(ValidationError):
            build_weights(pts[:1], "fixed_band", include_self=True, band=1.0)
        with pytest.raises(ValidationError):
            build_weights(pts, "voronoi", include_self=True)

    @pytest.mark.parametrize("k", [True, 2.5, "3", None])
    def test_a_k_that_is_no_integer_is_rejected_by_name(self, k):
        with pytest.raises(ValidationError, match=rf"^k must be an integer >= 1, got {k!r}$"):
            build_weights(random_points(5, 10), "knn", include_self=True, k=k)

    @pytest.mark.parametrize("band", [math.inf, math.nan, -1.0, None])
    def test_band_takes_the_rule_of_the_band_setting(self, band):
        with pytest.raises(ValidationError, match=rf"^band must be finite and > 0, got {band!r}$"):
            build_weights(random_points(5, 10), "fixed_band", include_self=True, band=band)
        if band is not None:
            with pytest.raises(ValidationError,
                               match=rf"^config band_miles must be finite and > 0, got {band!r}$"):
                RunConfig(band_miles=band)

    def test_unknown_scheme_message_names_every_scheme(self):
        with pytest.raises(ValidationError, match="voronoi") as exc:
            build_weights(random_points(5, 10), "voronoi", include_self=True, k=3, band=10.0)
        assert all(repr(s) in str(exc.value) for s in WEIGHT_SCHEMES)


@st.composite
def lattice_points(draw, max_n=30):
    """Points on a small lattice around (0, 0) under shuffled ids.

    Cells mirrored through the origin lie at exactly equal distances
    from it, and coincident points are possible, so knn ties occur.
    """
    n = draw(st.integers(2, max_n))
    cells = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          min_size=n, max_size=n))
    ids = draw(st.permutations([f"f{i:02d}" for i in range(n)]))
    return [(pid, GeoPoint(r * MILE_DEG, c * MILE_DEG)) for pid, (r, c) in zip(ids, cells)]


@st.composite
def scattered_points(draw, max_n=30):
    n = draw(st.integers(2, max_n))
    coords = draw(st.lists(st.tuples(st.floats(38.9, 39.1), st.floats(-76.1, -75.9)),
                           min_size=n, max_size=n))
    return [(f"s{i:02d}", GeoPoint(lat, lon)) for i, (lat, lon) in enumerate(coords)]


any_points = st.one_of(lattice_points(), scattered_points())


class TestWeightsAgainstBruteForce:
    @given(any_points, st.floats(0.05, 8.0), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_fixed_band_equals_oracle(self, pts, band, include_self):
        w = build_weights(pts, "fixed_band", include_self=include_self, band=band)
        neighbors, isolated = ref_weights(pts, "fixed_band", include_self, band=band)
        assert [list(nb) for nb in w.neighbors] == neighbors
        assert list(w.isolated) == isolated

    @given(any_points, st.data())
    @settings(max_examples=150, deadline=None)
    def test_pair_on_band_edge_is_included(self, pts, data):
        n = len(pts)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1).filter(lambda j: j != a))
        band = float(ref_pairwise_miles([p.lat for _, p in pts], [p.lon for _, p in pts])[a, b])
        assume(band > 0.0)
        w = build_weights(pts, "fixed_band", include_self=True, band=band)
        assert b in w.neighbors[a] and a in w.neighbors[b]
        assert [list(nb) for nb in w.neighbors] == ref_weights(pts, "fixed_band", True, band=band)[0]

    @given(any_points, st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_knn_equals_oracle_with_ties_broken_by_id(self, pts, data, include_self):
        k = data.draw(st.integers(1, len(pts) - 1))
        w = build_weights(pts, "knn", include_self=include_self, k=k)
        neighbors, _ = ref_weights(pts, "knn", include_self, k=k)
        assert [list(nb) for nb in w.neighbors] == neighbors
        assert not w.isolated.any()

    @given(any_points, st.floats(0.05, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_fixed_band_is_symmetric(self, pts, band):
        w = build_weights(pts, "fixed_band", include_self=False, band=band)
        sets = [set(map(int, nb)) for nb in w.neighbors]
        assert all(i in sets[j] for i in range(len(pts)) for j in sets[i])

    @pytest.mark.parametrize("layout", ["cluster_and_ring", "far_outlier"])
    @pytest.mark.parametrize("scheme, k, band", [("knn", 1, None), ("knn", 8, None),
                                                 ("knn", -1, None), ("fixed_band", None, 0.3),
                                                 ("fixed_band", None, 30.0)])
    @pytest.mark.parametrize("include_self", [True, False])
    def test_uneven_layouts_equal_oracle(self, layout, scheme, k, band, include_self):
        pts = uneven_layout(layout)
        k = len(pts) - 1 if k == -1 else k  # -1 stands for every other feature
        w = build_weights(pts, scheme, include_self=include_self, k=k, band=band)
        neighbors, isolated = ref_weights(pts, scheme, include_self, k=k, band=band)
        assert [list(nb) for nb in w.neighbors] == neighbors
        assert list(w.isolated) == isolated

    @pytest.mark.parametrize("k", range(1, 8))
    def test_knn_on_a_lattice_with_ties_at_the_kth_distance(self, k):
        # Mirrored lattice neighbours tie, so some rows hold exactly k
        # candidates and others more, which must be ranked by (arc, id).
        cells = [(r, c) for r in range(-3, 3) for c in range(-3, 3)]
        ids = [f"f{i:02d}" for i in np.random.default_rng(3).permutation(len(cells))]
        pts = [(pid, GeoPoint(r * MILE_DEG, c * MILE_DEG)) for pid, (r, c) in zip(ids, cells)]
        i, j = knn_candidates(SpatialIndex(pts).xyz, k)
        assert np.all(np.diff(i) >= 0)
        counts = np.bincount(i[i != j], minlength=len(pts))
        assert counts.min() == k < counts.max()
        w = build_weights(pts, "knn", include_self=False, k=k)
        assert [list(nb) for nb in w.neighbors] == ref_weights(pts, "knn", False, k=k)[0]

    def test_equidistant_knn_tie_goes_to_smaller_id(self):
        # "m" sits at the origin, "z" and "a" mirror each other through it,
        # so its single nearest neighbour is an exact tie won by the smaller id.
        pts = [("z", GeoPoint(0.0, -0.25)), ("m", GeoPoint(0.0, 0.0)), ("a", GeoPoint(0.0, 0.25))]
        dist = ref_pairwise_miles([p.lat for _, p in pts], [p.lon for _, p in pts])
        assert dist[1, 0] == dist[1, 2]
        w = build_weights(pts, "knn", include_self=False, k=1)
        assert list(w.neighbors[1]) == [2]

    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_memory_grows_with_neighbours_not_n_squared(self, scheme):
        # 5,000 features: a dense n x n float matrix alone would be 200 MB.
        # One of them lies an ocean away, and a knn search that took every
        # feature out to its radius would hold every pair.
        pts = random_points(8, 5000) + [("outlier", GeoPoint(-33.9, 151.2))]
        tracemalloc.start()
        try:
            w = build_weights(pts, scheme, include_self=True, k=8, band=15.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(nb) for nb in w.neighbors) > 5001
        assert peak < 100 * 2**20


class TestGiStar:
    def test_constant_field_is_everywhere_not_significant(self):
        # The mean of seven 0.1s rounds to 0.1 - 1.4e-17, off the value itself.
        assert np.mean([0.1] * 7) != 0.1
        for value, n in [(7.0, 20), (0.1, 7)]:
            pts = random_points(6, n)
            w = build_weights(pts, "fixed_band", include_self=True, band=30.0)
            res = classify_hotspots(getis_ord_gi_star([value] * n, w))
            assert np.all(res.z == 0.0)
            assert np.all(res.p == 1.0)
            assert all(c == "NotSignificant" for c in res.category)

    def test_a_value_count_that_is_not_the_feature_count_is_rejected(self):
        points, values = grid_3x3()
        w = build_weights(points, "fixed_band", include_self=True, band=1.5)
        with pytest.raises(ValidationError,
                           match="^value count 10 does not match feature count 9$"):
            getis_ord_gi_star(values + [1.0], w)

    def test_two_features_are_too_few(self):
        w = build_weights(random_points(6, 2), "fixed_band", include_self=True, band=1e4)
        with pytest.raises(ValidationError, match="^Gi\\* requires at least 3 features, got 2$"):
            getis_ord_gi_star([1.0, 2.0], w)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_a_value_that_is_not_finite_is_rejected(self, bad):
        points, values = grid_3x3()
        w = build_weights(points, "fixed_band", include_self=True, band=1.5)
        with pytest.raises(ValidationError, match="^Gi\\* requires finite values$"):
            getis_ord_gi_star(values[:-1] + [bad], w)

    def test_center_spike_grid_matches_direct_formula(self):
        points, values = grid_3x3()
        w = build_weights(points, "fixed_band", include_self=True, band=1.5)
        res = getis_ord_gi_star(values, w)
        expected = ref_gi_star(values, [list(map(int, nbrs)) for nbrs in w.neighbors])
        np.testing.assert_allclose(res.z, expected, rtol=0, atol=1e-15)
        corner_idx, edge_idx = [0, 2, 6, 8], [1, 3, 5, 7]
        np.testing.assert_allclose(res.z[corner_idx], GRID_CORNER_Z, rtol=0, atol=1e-15)
        np.testing.assert_allclose(res.z[edge_idx], GRID_EDGE_Z, rtol=0, atol=1e-15)
        assert res.z[4] == 0.0  # saturated neighborhood degenerates
        assert all(res.z[i] > 0 for i in corner_idx + edge_idx)

    def test_random_instances_match_direct_formula(self):
        rng = np.random.default_rng(8)
        for n in (3, 5, 12, 25):
            pts = random_points(int(rng.integers(0, 1000)), n)
            w = build_weights(pts, "fixed_band", include_self=True, band=40.0)
            x = rng.normal(10.0, 3.0, n)
            res = getis_ord_gi_star(x, w)
            expected = ref_gi_star(x, [list(map(int, nbrs)) for nbrs in w.neighbors])
            np.testing.assert_allclose(res.z, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_large_offset_matches_the_centred_oracle(self, scheme):
        # Accessibility + 1e4 on the 120-zone region: an oracle taking S
        # from E[x^2] - mean^2 and the numerator as S1 - mean * W is off by
        # ~1e-7 here through cancellation; the centred forms agree.
        zones, facilities, _ = generate_synthetic_region(1)
        zones = pl.sorted_zones(zones)
        cfg = RunConfig(weights_scheme=scheme)
        field = pl.compute_access(zones, facilities, cfg)
        x = np.array([field.zone_scores[z.zone_id] for z in zones]) + 1e4
        w = build_weights([(z.zone_id, z.centroid) for z in zones], scheme, include_self=True,
                          k=cfg.knn_k, band=cfg.band_miles)
        res = getis_ord_gi_star(x, w)
        expected = ref_gi_star(x, [list(map(int, nbrs)) for nbrs in w.neighbors])
        assert np.max(np.abs(res.z)) > 3.0
        np.testing.assert_allclose(res.z, expected, rtol=0, atol=1e-13)

    def test_relabeling_invariance(self):
        pts = random_points(9, 15)
        values = list(np.random.default_rng(10).normal(0, 1, 15))
        w = build_weights(pts, "fixed_band", include_self=True, band=35.0)
        base = getis_ord_gi_star(values, w)
        perm = list(np.random.default_rng(11).permutation(15))
        pts_p = [pts[i] for i in perm]
        values_p = [values[i] for i in perm]
        w_p = build_weights(pts_p, "fixed_band", include_self=True, band=35.0)
        res_p = getis_ord_gi_star(values_p, w_p)
        for new_idx, old_idx in enumerate(perm):
            assert res_p.z[new_idx] == pytest.approx(base.z[old_idx], abs=1e-12)

    def test_reflection_negates_z_exactly(self):
        pts = random_points(12, 18)
        values = np.random.default_rng(13).normal(5.0, 2.0, 18)
        w = build_weights(pts, "fixed_band", include_self=True, band=30.0)
        plus = getis_ord_gi_star(values, w)
        minus = getis_ord_gi_star(-values, w)
        assert np.all(plus.z == -minus.z)

    def test_shift_and_scale_invariance(self):
        pts = random_points(14, 16)
        values = np.random.default_rng(15).normal(0.0, 1.0, 16)
        w = build_weights(pts, "fixed_band", include_self=True, band=30.0)
        base = getis_ord_gi_star(values, w)
        shifted = getis_ord_gi_star(values + 100.0, w)
        scaled = getis_ord_gi_star(values * 7.5, w)
        np.testing.assert_allclose(shifted.z, base.z, rtol=0, atol=5e-14)
        np.testing.assert_allclose(scaled.z, base.z, rtol=0, atol=2e-15)

    def test_p_is_libm_erfc_and_matches_frozen_values(self):
        # Each feature its own neighbourhood, so z = (x - mean) / S. The
        # values +-1, +-5, +-17 and +-30 among zeros, as many features as
        # their squares sum to, give mean 0 and S = 1 exactly.
        targets = [z for z, _ in FROZEN_GI_P]
        x = np.zeros(int(2 * sum(z * z for z in targets)))
        x[:8] = targets + [-z for z in targets]
        n = x.size
        w = SpatialWeights(ids=list(range(n)), indptr=np.arange(n + 1), indices=np.arange(n),
                           include_self=True, isolated=np.zeros(n, dtype=bool))
        res = getis_ord_gi_star(x, w)
        assert res.z.tolist() == x.tolist()
        assert res.p.tolist() == [math.erfc(abs(z) / math.sqrt(2.0)) for z in res.z.tolist()]
        for i, (_, want) in enumerate(FROZEN_GI_P * 2):
            assert abs(Decimal(res.p[i]) - Decimal(want)) <= Decimal("1e-15") * Decimal(want)

    def test_requires_self_inclusive_weights(self):
        pts = random_points(16, 10)
        w = build_weights(pts, "fixed_band", include_self=False, band=30.0)
        with pytest.raises(ValidationError):
            getis_ord_gi_star([1.0] * 10, w)


class TestClassification:
    def _result(self, zs):
        z = np.asarray(zs, dtype=float)
        p = np.array([2 * (1 - 0.5 * (1 + math.erf(abs(v) / math.sqrt(2)))) for v in z])
        return HotSpotResult(ids=[f"f{i}" for i in range(len(zs))], z=z, p=p)

    def test_fixed_thresholds(self):
        res = classify_hotspots(self._result([2.0, -1.7, 0.3, 3.0, -2.1, -3.5, 1.7]))
        assert res.category == [
            "HotSpot95", "ColdSpot90", "NotSignificant", "HotSpot99",
            "ColdSpot95", "ColdSpot99", "HotSpot90",
        ]

    def test_bh_against_oracle(self):
        rng = np.random.default_rng(20)
        p = rng.uniform(0.0, 0.2, 100)
        for alpha in (0.01, 0.05, 0.10):
            np.testing.assert_array_equal(benjamini_hochberg(p, alpha), ref_bh_reject(p, alpha))

    def test_bh_rejects_a_p_value_equal_to_its_threshold(self):
        # Thresholds 0.04 * k / 2 are 0.02 and 0.04 exactly.
        np.testing.assert_array_equal(benjamini_hochberg([0.01, 0.04], 0.04), [True, True])

    def test_fdr_uniform_p_case(self):
        # all p = 0.04: BH rejects everything at alpha 0.05 and 0.10, nothing at 0.01
        z = np.full(100, 2.054)  # two-sided p ~ 0.0400
        p = np.full(100, 0.04)
        res = classify_hotspots(HotSpotResult(ids=list(range(100)), z=z, p=p), fdr=True)
        assert all(c == "HotSpot95" for c in res.category)

    def test_fdr_never_promotes(self):
        rng = np.random.default_rng(21)
        z = rng.normal(0.0, 2.0, 200)
        from scipy.special import erfc
        p = erfc(np.abs(z) / math.sqrt(2))
        plain = classify_hotspots(HotSpotResult(ids=list(range(200)), z=z, p=p), fdr=False)
        corrected = classify_hotspots(HotSpotResult(ids=list(range(200)), z=z, p=p), fdr=True)
        for before, after in zip(plain.category, corrected.category):
            if before == "NotSignificant":
                assert after == "NotSignificant"


class TestLocalBivariate:
    def test_perfect_correlation_everywhere(self):
        pts = random_points(30, 40)
        w = build_weights(pts, "knn", include_self=True, k=8)
        x = list(np.random.default_rng(31).normal(0, 1, 40))
        res = local_bivariate(x, x, w, permutations=19, seed=1, min_neighbors=5)
        defined = [i for i, c in enumerate(res.category) if c != "Undefined"]
        assert defined
        for i in defined:
            assert res.local_r[i] == pytest.approx(1.0, abs=1e-12)
            assert res.category[i] == "PositiveSignificant"

    def test_constant_x_everywhere_undefined(self):
        pts = random_points(32, 20)
        w = build_weights(pts, "knn", include_self=True, k=6)
        y = list(np.random.default_rng(33).normal(0, 1, 20))
        res = local_bivariate([3.0] * 20, y, w, permutations=19, seed=1, min_neighbors=4)
        assert all(c == "Undefined" for c in res.category)
        assert np.all(np.isnan(res.local_r))
        assert np.all(res.pseudo_p == 1.0)

    def test_small_neighborhoods_are_undefined(self):
        pts = random_points(34, 12)
        w = build_weights(pts, "knn", include_self=True, k=3)
        rng = np.random.default_rng(35)
        res = local_bivariate(rng.normal(0, 1, 12), rng.normal(0, 1, 12), w,
                              permutations=19, seed=1, min_neighbors=8)
        assert all(c == "Undefined" for c in res.category)

    def test_observed_r_matches_reference_pearson(self):
        pts = random_points(36, 30)
        w = build_weights(pts, "knn", include_self=True, k=7)
        rng = np.random.default_rng(37)
        x = rng.normal(0, 1, 30)
        y = rng.normal(0, 1, 30)
        res = local_bivariate(x, y, w, permutations=19, seed=1, min_neighbors=4)
        for i, nbrs in enumerate(w.neighbors):
            hood = sorted(set(map(int, nbrs)) | {i})
            want = ref_pearson(x[hood], y[hood])
            if res.category[i] != "Undefined":
                assert res.local_r[i] == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_local_r_is_scale_invariant_where_the_variance_product_leaves_range(self, scale):
        """sxx * syy would underflow (1e-100) or overflow (1e100) at the input's
        own scale while both variances are positive. Both variables are read at
        unit scale, so r and the categories keep their unscaled values."""
        pts = random_points(36, 30)
        w = build_weights(pts, "knn", include_self=True, k=7)
        rng = np.random.default_rng(37)
        x = rng.normal(0, 1, 30)
        y = rng.normal(0, 1, 30)
        base = local_bivariate(x, y, w, permutations=99, seed=1, min_neighbors=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scaled = local_bivariate(x * scale, y * scale, w, permutations=99, seed=1,
                                     min_neighbors=4)
        np.testing.assert_allclose(scaled.local_r, base.local_r, rtol=1e-12, atol=0.0)
        assert scaled.category == base.category
        assert any(c.endswith("Significant") for c in base.category)

    def test_seeded_determinism_across_worker_counts(self):
        pts = random_points(38, 36)
        w = build_weights(pts, "knn", include_self=True, k=8)
        rng = np.random.default_rng(39)
        x = rng.normal(0, 1, 36)
        y = rng.normal(0, 1, 36)
        a = local_bivariate(x, y, w, permutations=99, seed=7, workers=1)
        b = local_bivariate(x, y, w, permutations=99, seed=7, workers=5)
        np.testing.assert_array_equal(a.pseudo_p, b.pseudo_p)
        assert a.category == b.category

    def test_pseudo_p_never_zero(self):
        pts = random_points(40, 30)
        w = build_weights(pts, "knn", include_self=True, k=8)
        x = np.arange(30, dtype=float)
        res = local_bivariate(x, x, w, permutations=199, seed=3, min_neighbors=4)
        assert np.all(res.pseudo_p > 0.0)
        assert np.all(res.pseudo_p <= 1.0)

    def test_rejections(self):
        pts = random_points(41, 10)
        w = build_weights(pts, "knn", include_self=True, k=3)
        with pytest.raises(ValidationError):
            local_bivariate([1.0] * 9, [1.0] * 10, w)
        with pytest.raises(ValidationError):
            local_bivariate([1.0] * 10, [1.0] * 10, w, permutations=10)

    def test_worker_count_below_one_rejected(self):
        pts = random_points(42, 10)
        w = build_weights(pts, "knn", include_self=True, k=3)
        x = np.arange(10, dtype=float)
        with pytest.raises(ValidationError, match="workers"):
            local_bivariate(x, x[::-1], w, permutations=19, workers=0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"seed": -1}, "seed"),
        ({"seed": True}, "seed"),
        ({"permutations": 199.0}, "permutations"),
        ({"min_neighbors": 4.0}, "min_neighbors"),
        ({"workers": True}, "workers"),
    ])
    def test_bad_argument_rejected_by_name(self, kwargs, name):
        pts = random_points(42, 10)
        w = build_weights(pts, "knn", include_self=True, k=3)
        x = np.arange(10, dtype=float)
        with pytest.raises(ValidationError, match=name):
            local_bivariate(x, x[::-1], w, **{"permutations": 19, **kwargs})

    @pytest.mark.parametrize("permutations", [19, 39, 99])
    def test_significant_at_or_below_five_percent(self, permutations):
        pts = random_points(7, 60)
        w = build_weights(pts, "knn", include_self=True, k=8)
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 60)
        y = x + rng.normal(0, 1, 60)
        res = local_bivariate(x, y, w, permutations=permutations, seed=3, min_neighbors=5)
        expected = []
        for r, p, c in zip(res.local_r, res.pseudo_p, res.category):
            if c == "Undefined":
                expected.append(c)
            elif p <= 0.05:
                expected.append("PositiveSignificant" if r > 0 else "NegativeSignificant")
            else:
                expected.append("NotSignificant")
        assert res.category == expected
        # The level is inclusive: p = 0.05 exactly is significant.
        assert 0.05 in res.pseudo_p.tolist()
        assert any(0.05 < p < 0.1 + 1e-12 for p in res.pseudo_p)

    def test_requires_self_inclusive_weights(self):
        w = build_weights(random_points(16, 10), "fixed_band", include_self=False, band=30.0)
        x = np.arange(10, dtype=float)
        match = "^local_bivariate requires weights built with include_self=True$"
        with pytest.raises(ValidationError, match=match):
            local_bivariate(x, x[::-1], w, permutations=19)
        with pytest.raises(ValidationError, match=match):
            local_bivariates(x, [x[::-1]], w, permutations=19)

    def test_every_y_is_checked(self):
        pts = random_points(42, 10)
        w = build_weights(pts, "knn", include_self=True, k=3)
        x = np.arange(10, dtype=float)
        with pytest.raises(ValidationError, match=r"\(10, 10, 9\)"):
            local_bivariates(x, [x, x[:9]], w, permutations=19)
        with pytest.raises(ValidationError, match="finite"):
            local_bivariates(x, [x, np.where(x > 5, np.inf, x)], w, permutations=19)

    @pytest.mark.parametrize("permutations", [19, 64, 65, 199])
    @pytest.mark.parametrize("scheme", ["knn", "fixed_band"])
    def test_shared_pass_equals_separate_calls_and_oracle(self, permutations, scheme):
        w, x, y1, y2 = shared_pass_case(scheme)
        shared, _ = check_rows_sharing_a_list(w, x, [y1, y2], permutations=permutations)
        assert all(np.count_nonzero(y2[hood]) != 1
                   for hood, r in zip(w.neighbors, shared[1].local_r) if not np.isnan(r))
        # The case reaches every branch: rows without x-variance, rows
        # Undefined through y alone, and defined rows.
        undefined = [np.isnan(res.local_r) for res in shared]
        assert np.any(undefined[0]) and np.any(undefined[1] & ~undefined[0])
        assert not np.all(undefined[1])

    @pytest.mark.parametrize("permutations", [19, 64, 65, 199, 257])
    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_results_do_not_depend_on_the_core_count(self, monkeypatch, permutations, scheme):
        w, x, y1, y2 = shared_pass_case(scheme)
        results = []
        for cores in (1, 2, 3, 8):
            monkeypatch.setattr(spatial, "_usable_cores", lambda: cores)
            before = threading.active_count()
            shared, _ = check_rows_sharing_a_list(w, x, [y1, y2], permutations=permutations)
            # The pool is the call's own: no thread outlives it.
            assert threading.active_count() == before
            results.append(shared)
        for res in results[1:]:
            for a, b in zip(results[0], res):
                assert a.local_r.tobytes() == b.local_r.tobytes()  # NaN in the same places
                assert a.pseudo_p.tobytes() == b.pseudo_p.tobytes()
                assert a.category == b.category

    def test_an_error_in_a_pool_block_reaches_the_caller(self, monkeypatch):
        w, x, y1, _ = shared_pass_case("knn")
        draw = np.random.default_rng

        def fails_off_the_calling_thread(seed):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("pool block failed")
            return draw(seed)

        monkeypatch.setattr(spatial, "_usable_cores", lambda: 2)
        monkeypatch.setattr(np.random, "default_rng", fails_off_the_calling_thread)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="pool block failed"):
            local_bivariates(x, [y1], w, permutations=199, seed=5)
        assert threading.active_count() == before

    def test_memory_grows_with_neighbours_not_largest_neighbourhood(self):
        # 500 zones in one tight cluster among 5,500 grid zones ~10 miles
        # apart: every cluster zone has ~500 neighbours, every grid zone ~9.
        # A gather padded to the largest neighbourhood would hold 6,000 x
        # ~500 entries per array.
        rng = np.random.default_rng(43)
        pts = [(f"c{i:03d}", GeoPoint(float(rng.uniform(38.99, 39.01)),
                                      float(rng.uniform(-76.01, -75.99)))) for i in range(500)]
        pts += [(f"g{i:04d}", GeoPoint(35.0 + 0.15 * (i // 100), -90.0 + 0.15 * (i % 100)))
                for i in range(5500)]
        w = build_weights(pts, "fixed_band", include_self=True, band=15.0)
        x, y = rng.normal(0.0, 1.0, (2, len(pts)))
        tracemalloc.start()
        try:
            res = local_bivariate(x, y, w, permutations=19, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(len(nb) for nb in w.neighbors) >= 500
        assert res.pseudo_p.size == len(pts)
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_white_noise_is_flagged_near_the_nominal_rate(self, scheme):
        """Size under the permutation null: independent white-noise x and y
        on the default region and config, 20 seeded replicate pairs. The
        global-permutation null holds here; it is smooth fields that fool it."""
        cfg = RunConfig()
        zones, _, _ = generate_synthetic_region(1)
        w = build_weights([(z.zone_id, z.centroid) for z in zones], scheme, include_self=True,
                          k=cfg.knn_k, band=cfg.band_miles)
        rng = np.random.default_rng(1)
        shares = []
        for _ in range(20):
            x, y = rng.standard_normal((2, len(zones)))
            res = local_bivariate(x, y, w, cfg.permutations, cfg.seed, cfg.min_neighbors)
            defined = np.array(res.category) != "Undefined"
            shares.append(np.mean(res.pseudo_p[defined] <= 0.05))
        assert np.mean(shares) <= 0.07


class TestRepeatedNeighbourLists:
    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_cluster_rows_share_their_results(self, scheme):
        w, x, y1, y2 = repeated_lists_case(scheme)
        (res1, res2), repeated = check_rows_sharing_a_list(w, x, [y1, y2])
        assert all(np.count_nonzero(y2[hood]) != 1
                   for hood, r in zip(w.neighbors, res2.local_r) if not np.isnan(r))
        rows = {c: [i for i, pid in enumerate(w.ids) if pid[0] == c] for c in "abcdr"}
        assert all(rows[c] in repeated for c in "abd")
        assert not any(i in group for group in repeated for i in rows["r"])
        # "a" is defined, "b" Undefined through x, "d" Undefined through y2 alone.
        assert not np.isnan(res1.local_r[rows["a"]]).any()
        assert not np.isnan(res2.local_r[rows["a"]]).any()
        assert np.isnan(res1.local_r[rows["b"]]).all() and np.isnan(res2.local_r[rows["b"]]).all()
        assert not np.isnan(res1.local_r[rows["d"]]).any()
        assert np.isnan(res2.local_r[rows["d"]]).all()
        if scheme == "fixed_band":
            # "c" is Undefined through its size, and the ring is defined.
            assert rows["c"] in repeated and np.isnan(res1.local_r[rows["c"]]).all()
            assert not np.isnan(res1.local_r[rows["r"]]).any()

    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_complete_graph_is_one_list(self, scheme):
        pts = random_points(47, 12)
        w = build_weights(pts, scheme, include_self=True, k=11, band=1000.0)
        x, y = np.random.default_rng(48).normal(0.0, 1.0, (2, 12))
        (res,), repeated = check_rows_sharing_a_list(w, x, [y])
        assert repeated == [list(range(12))]
        assert not np.isnan(res.local_r).any()

    def test_equal_size_and_index_sum_keep_their_own_results(self):
        # Rows 0 and 1 have the same size and index sum but different
        # lists; row 2 repeats row 0.
        n = 10
        rng = np.random.default_rng(49)
        lists = [[0, 1, 2, 3, 4, 9], [0, 1, 2, 3, 5, 8], [0, 1, 2, 3, 4, 9]]
        lists += [sorted({i, *rng.choice(n, 5, replace=False).tolist()}) for i in range(3, n)]
        assert len(lists[0]) == len(lists[1]) and sum(lists[0]) == sum(lists[1])
        indptr = np.cumsum([0] + [len(nb) for nb in lists])
        w = SpatialWeights(ids=[f"z{i}" for i in range(n)], indptr=indptr,
                           indices=np.concatenate(lists), include_self=True,
                           isolated=np.zeros(n, dtype=bool))
        x, y = rng.normal(0.0, 1.0, (2, n))
        (res,), repeated = check_rows_sharing_a_list(w, x, [y])
        assert [0, 2] in repeated and not any(1 in group for group in repeated)
        assert res.local_r[0] != res.local_r[1]


@st.composite
def weighted_case(draw):
    """Points, self-inclusive weights over them (fixed band or knn) and continuous x, y.

    x and y are seeded normal draws, so neighbourhood variances sit far
    from zero and no permutation correlation ties the observed one.
    """
    pts = draw(any_points.filter(lambda p: len(p) >= 4))
    n = len(pts)
    if draw(st.sampled_from(["fixed_band", "knn"])) == "knn":
        w = build_weights(pts, "knn", include_self=True, k=draw(st.integers(2, n - 1)))
    else:
        w = build_weights(pts, "fixed_band", include_self=True,
                          band=draw(st.floats(0.5, 8.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(draw(st.floats(-5.0, 5.0)), 1.0, n)
    y = rng.normal(draw(st.floats(-5.0, 5.0)), 1.0, n)
    return w, x, y


class TestKernelsAgainstOracles:
    @given(weighted_case())
    @settings(max_examples=150, deadline=None)
    def test_gi_star_equals_oracle(self, case):
        w, x, _ = case
        res = getis_ord_gi_star(x, w)
        expected = ref_gi_star(x, [list(map(int, nb)) for nb in w.neighbors])
        np.testing.assert_allclose(res.z, expected, rtol=1e-12, atol=1e-12)
        assert res.p.tolist() == [math.erfc(abs(z) / math.sqrt(2.0)) for z in res.z.tolist()]

    @given(weighted_case(), st.integers(0, 1000), st.integers(3, 5))
    @settings(max_examples=100, deadline=None)
    def test_local_bivariate_equals_oracle(self, case, seed, min_neighbors):
        w, x, y = case
        res = local_bivariate(x, y, w, permutations=19, seed=seed, min_neighbors=min_neighbors)
        local_r, pseudo_p, category = ref_local_bivariate(
            x, y, w.neighbors, permutations=19, seed=seed, min_neighbors=min_neighbors)
        np.testing.assert_allclose(res.local_r, local_r, rtol=0.0, atol=1e-10)
        np.testing.assert_array_equal(res.pseudo_p, pseudo_p)
        assert res.category == category


@st.composite
def csr_graph(draw):
    """A binary CSR graph (rows may be empty, columns ascending) as scipy's csr_array
    and as the index arrays of ``SpatialWeights``, with int32 or int64 indices."""
    n_rows, n_cols = draw(st.integers(0, 10)), draw(st.integers(1, 10))
    rows = [sorted(draw(st.sets(st.integers(0, n_cols - 1)))) for _ in range(n_rows)]
    index_type = draw(st.sampled_from([np.int32, np.int64]))
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(index_type)
    indices = np.array([j for r in rows for j in r], dtype=index_type)
    matrix = sparse.csr_array((np.ones(indices.size), indices, indptr), shape=(n_rows, n_cols))
    return matrix, indptr, indices


# ±0.0, subnormals and magnitudes whose sums overflow to ±inf, among any finite double.
edge_floats = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1050, 1.5 * 2.0**1023,
                                         -1.5 * 2.0**1023]),
                        st.floats(allow_nan=False, allow_infinity=False))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestCsrKernel:
    @given(csr_graph(), st.one_of(st.none(), st.integers(1, 64)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_hood_sums_are_the_bits_of_the_csr_product(self, graph, k, data):
        matrix, indptr, indices = graph
        n = matrix.shape[1]
        shape = (n,) if k is None else (n, k)
        values = np.array(data.draw(st.lists(edge_floats, min_size=math.prod(shape),
                                             max_size=math.prod(shape)))).reshape(shape)
        got = spatial._hood_sums(indptr, indices, values)
        want = matrix @ values
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(bits(got), bits(want))

    @given(csr_graph(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_subset_is_the_csr_row_index(self, graph, data):
        matrix, indptr, indices = graph
        rows = np.array(data.draw(st.lists(st.integers(0, max(matrix.shape[0] - 1, 0)),
                                           max_size=12 if matrix.shape[0] else 0)), dtype=np.intp)
        sub_ptr, sub_idx = spatial._row_subset(indptr, indices, rows)
        want = matrix[rows]
        assert np.array_equal(sub_ptr, want.indptr) and np.array_equal(sub_idx, want.indices)
        # The subset's sums are the subset's rows of the full sums.
        values = np.arange(matrix.shape[1], dtype=float)
        assert np.array_equal(spatial._hood_sums(sub_ptr, sub_idx, values),
                              spatial._hood_sums(indptr, indices, values)[rows])

    def test_without_the_kernel_file_the_kernel_comes_with_its_package(self, monkeypatch):
        class Nowhere:
            def __init__(self, *args):
                pass

            def find_spec(self, name):
                return None

        monkeypatch.setattr(spatial, "FileFinder", Nowhere)
        monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
        spatial._csr_kernel.cache_clear()
        try:
            assert spatial._csr_kernel() is sparse._sparsetools
            sums = spatial._hood_sums(np.array([0, 2, 3]), np.array([0, 1, 1]), np.array([1.0, 2.0]))
            assert sums.tolist() == [3.0, 2.0]
        finally:
            spatial._csr_kernel.cache_clear()
