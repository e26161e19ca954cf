import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoaccess import (
    DemandZone,
    Facility,
    GeoPoint,
    ValidationError,
    accessibility_scores,
    decay_weight,
    haversine_miles,
)
from geoaccess.accessibility import DEMAND_COLUMNS, _decay

from oracles import ref_2sfca, ref_decay, ref_direct_accessibility

F_AT_ZERO = 0.3934693402873666          # 1 - exp(-1/2)
F_AT_HALF = 0.27596624287196203          # exp(-1/8) - exp(-1/2)
D_SINGLE_ZONE = 5.082988165073597        # 100 / (50 * F_AT_ZERO)

# Distances (miles, d0 = 15) where a numpy swap in the decay moves bits on
# x86-64 glibc, found once by a seeded search (default_rng(2026), uniform on
# [0, 15], rounded to 1e-6).
LIBM_SENSITIVE_MILES = (
    10.79786, 9.816753, 11.961875, 7.638704,  # q ** 2 != q * q moves the weight
    6.491441, 3.41838,                        # np.exp != math.exp
)


def zone(zid, lat, lon, patients, population=1000, urban=False):
    return DemandZone(zone_id=zid, centroid=GeoPoint(lat, lon), population=population,
                      adrd_patients=patients, urban=urban)


def facility(fid, lat, lon, beds):
    return Facility(facility_id=fid, location=GeoPoint(lat, lon), beds=beds)


class TestImpedance:
    def test_at_zero(self):
        assert decay_weight(0.0, 15.0) == pytest.approx(F_AT_ZERO, abs=1e-12)

    def test_at_boundary_is_exactly_zero(self):
        assert decay_weight(15.0, 15.0) == 0.0

    def test_midpoint(self):
        assert decay_weight(7.5, 15.0) == pytest.approx(F_AT_HALF, abs=1e-9)

    def test_beyond_boundary(self):
        assert decay_weight(15.0001, 15.0) == 0.0

    def test_strictly_decreasing_inside(self):
        ds = np.linspace(0.0, 15.0, 200)
        ws = [decay_weight(float(d), 15.0) for d in ds]
        assert all(a > b for a, b in zip(ws, ws[1:]))

    def test_rejects_bad_threshold(self):
        for d0 in (0.0, -3.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="d0"):
                decay_weight(1.0, d0)
            with pytest.raises(ValidationError, match="d0"):
                accessibility_scores([zone("z1", 39.0, -76.0, 5)], [], d0)

    # The kernel is evaluated only inside the catchment: (d / d0) ** 2
    # overflows a float here.
    def test_the_largest_finite_distance_is_beyond_the_catchment(self):
        assert decay_weight(sys.float_info.max, 15.0) == 0.0

    def test_rejects_negative_distance(self):
        for d in (-1.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="distance d"):
                decay_weight(d, 15.0)

    def test_weights_are_the_libm_formula_bit_for_bit(self):
        rng = np.random.default_rng(3)
        ds = np.concatenate([LIBM_SENSITIVE_MILES, [0.0, 15.0, 16.0, sys.float_info.max],
                             rng.uniform(0.0, 16.0, 2000)])
        want = [ref_decay(d, 15.0) for d in ds.tolist()]
        assert _decay(ds, 15.0).tolist() == want
        assert [decay_weight(d, 15.0) for d in ds.tolist()] == want


class TestRecords:
    # A NaN or infinite count would make every score and ratio NaN.
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["population", "adrd_patients"])
    def test_zone_counts_are_finite_and_non_negative(self, name, value):
        counts = {"population": 1000, "adrd_patients": 5, name: value}
        with pytest.raises(ValidationError, match=f"^zone 'z1': {name} must be finite and >= 0"):
            DemandZone("z1", GeoPoint(39.0, -76.0), urban=False, **counts)
        assert zone("z1", 39.0, -76.0, sys.float_info.max, sys.float_info.max).population > 0

    @pytest.mark.parametrize("beds", [0, -1.0, math.nan, math.inf])
    def test_facility_beds_are_finite_and_positive(self, beds):
        with pytest.raises(ValidationError, match="^facility 'h1': beds must be finite and > 0"):
            facility("h1", 39.0, -76.0, beds)
        assert facility("h1", 39.0, -76.0, sys.float_info.max).beds > 0

    def test_a_value_that_is_no_number_fails_the_range_rule(self):
        with pytest.raises(ValidationError, match="^facility 'h1': beds must be finite and > 0, "
                                                  "got '10'$"):
            facility("h1", 39.0, -76.0, "10")
        with pytest.raises(ValidationError, match="^distance d must be finite and >= 0, got None$"):
            decay_weight(None, 15.0)


class TestFacilityRatio:
    def test_single_zone_at_distance_zero(self):
        fac = facility("h1", 39.0, -76.0, 100)
        z = zone("z1", 39.0, -76.0, patients=50)
        field = accessibility_scores([z], [fac], 15.0)
        assert field.facility_ratios["h1"] == pytest.approx(D_SINGLE_ZONE, rel=1e-6)

    def test_no_zone_in_range_gives_no_demand_marker(self):
        fac = facility("h1", 39.0, -76.0, 100)
        z = zone("z1", 10.0, 10.0, patients=50)
        field = accessibility_scores([z], [fac], 15.0)
        assert "h1" not in field.facility_ratios
        assert field.skipped_facilities == [("h1", "no demand zone within catchment")]

    def test_zero_patients_in_range_gives_no_demand_marker(self):
        fac = facility("h1", 39.0, -76.0, 100)
        z = zone("z1", 39.0, -76.0, patients=0)
        field = accessibility_scores([z], [fac], 15.0)
        assert "h1" not in field.facility_ratios
        assert field.skipped_facilities == [("h1", "zero weighted demand within catchment")]

    def test_halving_demand_doubles_ratio(self):
        fac = facility("h1", 39.0, -76.0, 120)
        zs = [zone("z1", 39.05, -76.0, 40), zone("z2", 38.95, -76.0, 40)]
        halved = [zone("z1", 39.05, -76.0, 20), zone("z2", 38.95, -76.0, 20)]
        full = accessibility_scores(zs, [fac], 15.0).facility_ratios["h1"]
        half = accessibility_scores(halved, [fac], 15.0).facility_ratios["h1"]
        assert half == pytest.approx(2.0 * full, rel=1e-12)


class TestAccessibilityScores:
    def test_colocated_pair_cancels_to_supply_per_demand(self):
        field = accessibility_scores(
            [zone("z1", 39.0, -76.0, 50)], [facility("h1", 39.0, -76.0, 100)], 15.0
        )
        assert field.zone_scores["z1"] == pytest.approx(2.0, abs=1e-12)

    def test_unreachable_zone_scores_zero(self):
        field = accessibility_scores(
            [zone("z1", 39.0, -76.0, 50), zone("z2", 10.0, 10.0, 50)],
            [facility("h1", 39.0, -76.0, 100)],
            15.0,
        )
        assert field.zone_scores["z2"] == 0.0

    def test_empty_zone_list_rejected(self):
        with pytest.raises(ValidationError):
            accessibility_scores([], [facility("h1", 39.0, -76.0, 100)], 15.0)

    def test_unknown_demand_column_rejected_by_name(self):
        with pytest.raises(ValidationError, match=r"^unknown demand column 'beds'; expected one of"):
            accessibility_scores([zone("z1", 39.0, -76.0, 50)],
                                 [facility("h1", 39.0, -76.0, 100)], 15.0, demand="beds")

    def test_empty_facility_list_gives_all_zeros(self):
        field = accessibility_scores([zone("z1", 39.0, -76.0, 50)], [], 15.0)
        assert field.zone_scores == {"z1": 0.0}
        assert field.facility_ratios == {}

    def test_skipped_facility_is_recorded_with_reason(self):
        field = accessibility_scores(
            [zone("z1", 39.0, -76.0, 50)],
            [facility("h1", 39.0, -76.0, 100), facility("h2", 10.0, 10.0, 100)],
            15.0,
        )
        assert "h2" not in field.facility_ratios
        assert field.skipped_facilities == [("h2", "no demand zone within catchment")]

    def test_every_zone_appears_in_scores(self):
        zones = [zone(f"z{i}", 39.0 + 0.5 * i, -76.0, 10) for i in range(6)]
        field = accessibility_scores(zones, [facility("h1", 39.0, -76.0, 10)], 15.0)
        assert sorted(field.zone_scores) == [z.zone_id for z in zones]
        assert all(v >= 0 and math.isfinite(v) for v in field.zone_scores.values())


def random_instance(seed, n_zones=50, n_facilities=10):
    rng = np.random.default_rng(seed)
    zones = [
        zone(f"z{i:03d}", float(rng.uniform(38.0, 40.0)), float(rng.uniform(-78.0, -75.0)),
             int(rng.integers(0, 400)))
        for i in range(n_zones)
    ]
    facilities = [
        facility(f"h{i:03d}", float(rng.uniform(38.0, 40.0)), float(rng.uniform(-78.0, -75.0)),
                 int(rng.integers(1, 500)))
        for i in range(n_facilities)
    ]
    return zones, facilities


class TestAgainstDirectFormula:
    @pytest.mark.parametrize("seed", range(5))
    def test_two_step_equals_one_shot(self, seed):
        zones, facilities = random_instance(seed)
        field = accessibility_scores(zones, facilities, 15.0)
        expected = ref_direct_accessibility(
            [(z.zone_id, z.centroid.lat, z.centroid.lon, z.adrd_patients) for z in zones],
            [(f.facility_id, f.location.lat, f.location.lon, f.beds) for f in facilities],
            15.0,
        )
        for zid, score in field.zone_scores.items():
            assert score == pytest.approx(expected[zid], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_supply_conservation(self, seed):
        zones, facilities = random_instance(seed)
        field = accessibility_scores(zones, facilities, 15.0)
        demand_side = sum(z.adrd_patients * field.zone_scores[z.zone_id] for z in zones)
        supply_side = sum(f.beds for f in facilities if f.facility_id in field.facility_ratios)
        assert demand_side == pytest.approx(supply_side, rel=1e-9)


class TestAlgebraicProperties:
    def test_monotone_in_supply(self):
        zones, facilities = random_instance(3)
        before = accessibility_scores(zones, facilities, 15.0).zone_scores
        boosted = [
            Facility(f.facility_id, f.location, f.beds + (100 if f.facility_id == "h004" else 0))
            for f in facilities
        ]
        after = accessibility_scores(zones, boosted, 15.0).zone_scores
        assert all(after[z] >= before[z] - 1e-12 for z in before)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_demand_scale_law(self, c):
        zones, facilities = random_instance(5, n_zones=20, n_facilities=5)
        base = accessibility_scores(zones, facilities, 15.0).zone_scores
        scaled_zones = [
            DemandZone(z.zone_id, z.centroid, z.population, z.adrd_patients * c, z.urban)
            for z in zones
        ]
        scaled = accessibility_scores(scaled_zones, facilities, 15.0).zone_scores
        for zid in base:
            assert scaled[zid] == pytest.approx(base[zid] / c, rel=1e-9)

    def test_population_demand_switch(self):
        z = zone("z1", 39.0, -76.0, patients=50, population=200)
        fac = facility("h1", 39.0, -76.0, 100)
        by_pop = accessibility_scores([z], [fac], 15.0, demand="population")
        assert by_pop.zone_scores["z1"] == pytest.approx(0.5, abs=1e-12)

    def test_results_independent_of_input_order(self):
        zones, facilities = random_instance(12)
        forward = accessibility_scores(zones, facilities, 15.0)
        backward = accessibility_scores(list(reversed(zones)), list(reversed(facilities)), 15.0)
        assert forward.zone_scores == backward.zone_scores


def assert_matches_scan(zones, facilities, d0, demand):
    """accessibility_scores equals the sequential scalar scan, bit for bit."""
    field = accessibility_scores(zones, facilities, d0, demand=demand)
    ratios, scores, skipped = ref_2sfca(zones, facilities, d0, demand)
    assert field.facility_ratios == ratios
    assert field.zone_scores == scores
    assert field.skipped_facilities == skipped
    return field


@st.composite
def small_regions(draw):
    """Zones and facilities within a few catchments of each other; some
    zones carry no patients, so zero-demand facilities occur."""
    def place():
        return GeoPoint(draw(st.floats(38.8, 39.2)), draw(st.floats(-76.25, -75.75)))
    n_zones = draw(st.integers(1, 25))
    zones = [DemandZone(f"z{i:02d}", place(), draw(st.integers(0, 5000)),
                        draw(st.integers(0, 3)), False) for i in range(n_zones)]
    facilities = [Facility(f"h{i:02d}", place(), draw(st.integers(1, 500)))
                  for i in range(draw(st.integers(0, 8)))]
    return zones, facilities


class TestAgainstScalarScan:
    @given(small_regions(), st.floats(0.5, 30.0), st.sampled_from(DEMAND_COLUMNS))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_scan(self, region, d0, demand):
        zones, facilities = region
        assert_matches_scan(zones, facilities, d0, demand)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("demand", DEMAND_COLUMNS)
    def test_bit_identical_on_random_instances(self, seed, demand):
        zones, facilities = random_instance(seed, n_zones=120, n_facilities=20)
        assert_matches_scan(zones, facilities, 15.0, demand)

    def test_zone_exactly_on_catchment_edge_is_in_range(self):
        fac = facility("h1", 39.0, -76.0, 100)
        edge = zone("z1", 39.1, -76.05, 30)
        d0 = haversine_miles(fac.location, edge.centroid)
        # In range with weight zero: the facility has demand in reach, but none weighted.
        field = assert_matches_scan([edge], [fac], d0, "patients")
        assert field.skipped_facilities == [("h1", "zero weighted demand within catchment")]
        inner = zone("z2", 39.02, -76.0, 20)
        field = assert_matches_scan([edge, inner], [fac], d0, "patients")
        assert field.zone_scores["z1"] == 0.0 and field.zone_scores["z2"] > 0.0

    @pytest.mark.parametrize("demand", DEMAND_COLUMNS)
    def test_zero_demand_and_out_of_reach_facilities(self, demand):
        zones = [zone("z1", 39.0, -76.0, 0, population=500), zone("z2", 39.05, -76.0, 0, population=0),
                 zone("z3", 39.5, -76.0, 12, population=800)]
        facilities = [facility("h1", 39.01, -76.0, 40), facility("h2", 45.0, -70.0, 10),
                      facility("h3", 39.5, -76.01, 25)]
        field = assert_matches_scan(zones, facilities, 10.0, demand)
        reasons = dict(field.skipped_facilities)
        assert reasons["h2"] == "no demand zone within catchment"
        if demand == "patients":
            assert reasons["h1"] == "zero weighted demand within catchment"
        else:
            assert "h1" in field.facility_ratios
