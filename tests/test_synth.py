import pytest

from geoaccess import (
    ValidationError,
    accessibility_scores,
    generate_synthetic_region,
    gini_stratified,
)


def test_same_seed_reproduces_identical_objects():
    a = generate_synthetic_region(42, 10, 20, 5)
    b = generate_synthetic_region(42, 10, 20, 5)
    assert a == b


def test_different_seeds_differ():
    a = generate_synthetic_region(1, 10, 20, 5)
    b = generate_synthetic_region(2, 10, 20, 5)
    assert a != b


def test_requested_counts_are_honored():
    zones, facilities, counties = generate_synthetic_region(7, 12, 30, 6)
    assert sum(z.urban for z in zones) == 12
    assert sum(not z.urban for z in zones) == 30
    assert len(facilities) == 6
    assert len({c.county_id for c in counties}) >= 2
    assert len({c.year for c in counties}) == 5


def test_zero_facility_count_rejected():
    with pytest.raises(ValidationError):
        generate_synthetic_region(42, 10, 10, 0)


@pytest.mark.parametrize("counts,name,bad", [
    ((2.5,), "n_urban_zones", 2.5), ((10, True), "n_rural_zones", True),
    ((10, 10, "3"), "n_facilities", "'3'")])
def test_a_count_that_is_no_integer_is_rejected_by_name(counts, name, bad):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer >= 1, got {bad}$"):
        generate_synthetic_region(1, *counts)


def test_zone_ids_unique_and_attributes_complete():
    zones, _, _ = generate_synthetic_region(5)
    ids = [z.zone_id for z in zones]
    assert len(set(ids)) == len(ids)
    keys = set(zones[0].attributes)
    assert {"poverty_rate", "pct_diabetes", "pct_obesity", "pct_heart_disease"} <= keys
    assert all(set(z.attributes) == keys for z in zones)


def test_rural_inequality_exceeds_urban_regression():
    # Tuned into the generator, frozen as a regression: the dispersed
    # periphery shows far less equal access than the core.
    zones, facilities, _ = generate_synthetic_region(42)
    field = accessibility_scores(sorted(zones, key=lambda z: z.zone_id), facilities, 15.0)
    strat = gini_stratified(field, zones)
    assert strat.rural.gini > strat.urban.gini
    assert strat.rural.gini > 0.6
    assert strat.urban.gini < 0.3
