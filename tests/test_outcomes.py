import dataclasses
import random
import statistics
import warnings

import pytest

from geoaccess import CountyOutcome, ServiceStatus, ValidationError, classify_service_status
from geoaccess.pipeline import MORTALITY_HEADER


def county(cid, year, deaths, patients, pop50):
    return CountyOutcome(county_id=cid, year=year, adrd_deaths=deaths,
                         adrd_patients=patients, population_50plus=pop50)


# Two counties with defined ratios, so that the one under test can be classified.
OTHERS = [("y", 2, 20, 500), ("z", 3, 30, 600)]


def status_of(records, cid="a", years=None):
    years_present = sorted({r.year for r in records})
    others = [county(oid, y, *counts) for oid, *counts in OTHERS for y in years_present]
    return {s.county_id: s for s in classify_service_status(records + others, years)}[cid]


class TestRatios:
    def test_direct_division(self):
        r = status_of([county("a", 2023, 10, 50, 1000)])
        assert (r.deaths_per_patient, r.deaths_per_pop50, r.diagnosis_rate) == (0.2, 0.01, 0.05)

    def test_zero_patients_leaves_ratio_undefined(self):
        r = status_of([county("a", 2023, 3, 0, 1000)])
        assert r.deaths_per_patient is None
        assert r.deaths_per_pop50 == 0.003

    def test_zero_deaths(self):
        r = status_of([county("a", 2023, 0, 40, 1000)])
        assert r.deaths_per_patient == 0.0 and r.deaths_per_pop50 == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            county("a", 2023, -1, 0, 0)

    def test_fields_are_the_mortality_header(self):
        assert [f.name for f in dataclasses.fields(ServiceStatus)] == MORTALITY_HEADER


class TestAggregation:
    def test_ratio_of_means(self):
        records = [county("a", 2018, 10, 50, 900), county("a", 2019, 20, 50, 900)]
        agg = status_of(records, years=[2018, 2019])
        assert agg.adrd_deaths == 15.0 and agg.adrd_patients == 50.0
        assert agg.deaths_per_patient == pytest.approx(0.3)
        assert agg.years_contributing == 2

    def test_single_year_is_identity(self):
        out = status_of([county("a", 2020, 7, 70, 700)], years=[2020])
        assert out.adrd_deaths == 7.0 and out.adrd_patients == 70.0
        assert out.years_contributing == 1

    def test_partial_presence_counts_contributing_years(self):
        records = [county("a", y, 10, 100, 1000) for y in (2018, 2020, 2022)]
        assert status_of(records, years=range(2018, 2023)).years_contributing == 3

    def test_no_years_means_every_year_present(self):
        records = [county("a", y, 10 * y - 20170, 100, 1000) for y in (2018, 2020, 2022)]
        assert status_of(records) == status_of(records, years=range(2018, 2023))

    def test_absent_county_omitted_with_warning(self):
        records = [county(cid, 2018, 1, 10, 100) for cid in ("a", "e")]
        records += [county(cid, 2025, 1, 10, 100) for cid in ("d", "b", "c")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = classify_service_status(records, [2018])
        assert [c.county_id for c in out] == ["a", "e"]
        assert [str(w.message) for w in caught] == [
            "3 counties have no records in the requested years and are omitted: 'b', 'c', 'd'"
        ]

    @pytest.mark.parametrize("years, named", [([2030], "2030"), (range(3000, 10**5), "3000:99999"),
                                              ([2031, 2030, 2035], "2030, 2031, 2035")])
    def test_no_county_in_range_names_the_years(self, years, named):
        records = [county(cid, 2018, 1, 10, 100) for cid in ("a", "b", "c")]
        with pytest.raises(ValidationError) as err:
            classify_service_status(records, years)
        assert str(err.value) == f"no county has a record in years {named}"

    def test_duplicate_county_year_rejected(self):
        records = [county("a", 2018, 1, 10, 100), county("a", 2018, 2, 20, 200)]
        with pytest.raises(ValidationError):
            classify_service_status(records, [2018])

    def test_empty_year_range_rejected(self):
        with pytest.raises(ValidationError):
            classify_service_status([county("a", 2018, 1, 10, 100)], [])


class TestClassification:
    def test_two_county_example(self):
        counties = [
            county("A", 2020, 40, 100, 10000),   # ratio 0.4, diagnosis 0.01
            county("B", 2020, 10, 100, 2000),    # ratio 0.1, diagnosis 0.05
        ]
        statuses = {s.county_id: s for s in classify_service_status(counties)}
        assert statuses["A"].label == "Underserved"
        assert statuses["B"].label == "Overserved"

    def test_identical_counties_are_typical(self):
        counties = [county(f"c{i}", 2020, 10, 100, 1000) for i in range(4)]
        statuses = classify_service_status(counties)
        assert all(s.label == "Typical" for s in statuses)
        assert not any(s.elevated for s in statuses)

    def test_undefined_ratio_marks_insufficient_and_is_excluded(self):
        counties = [
            county("A", 2020, 40, 100, 10000),
            county("B", 2020, 10, 100, 2000),
            county("C", 2020, 5, 0, 1000),
        ]
        statuses = {s.county_id: s for s in classify_service_status(counties)}
        assert statuses["C"].label == "InsufficientData"
        assert statuses["A"].label == "Underserved"
        assert statuses["B"].label == "Overserved"

    def test_mutual_exclusion_and_mean_consistency(self):
        counties = [
            county("a", 2020, 12, 90, 4000), county("b", 2020, 9, 120, 5000),
            county("c", 2020, 30, 80, 3000), county("d", 2020, 4, 150, 6000),
        ]
        statuses = classify_service_status(counties)
        labels = {s.county_id: s.label for s in statuses}
        assert not any(
            labels[c.county_id] == "Underserved" and labels[c.county_id] == "Overserved"
            for c in counties
        )
        ratios = [c.adrd_deaths / c.adrd_patients for c in counties]
        mean_ratio = sum(ratios) / len(ratios)
        for county_rec, s in zip(sorted(counties, key=lambda c: c.county_id), statuses):
            r = county_rec.adrd_deaths / county_rec.adrd_patients
            if s.label == "Underserved":
                assert r > mean_ratio

    def test_scaling_counts_preserves_labels(self):
        counties = [
            county("a", 2020, 12, 90, 4000), county("b", 2020, 9, 120, 5000),
            county("c", 2020, 30, 80, 3000),
        ]
        base = [s.label for s in classify_service_status(counties)]
        scaled = [
            county(c.county_id, 2020, c.adrd_deaths * 3, c.adrd_patients * 3, c.population_50plus)
            for c in counties
        ]
        assert [s.label for s in classify_service_status(scaled)] == base

    def test_elevated_flag_uses_mean_plus_sd(self):
        counties = [
            county("a", 2020, 10, 100, 1000),   # rate 0.01
            county("b", 2020, 11, 100, 1000),
            county("c", 2020, 9, 100, 1000),
            county("d", 2020, 60, 100, 1000),   # clear outlier, rate 0.06
        ]
        statuses = {s.county_id: s for s in classify_service_status(counties)}
        assert statuses["d"].elevated
        assert not statuses["a"].elevated

    @pytest.mark.parametrize("seed", range(4))
    def test_elevated_is_a_rate_above_mean_plus_one_sample_sd(self, seed):
        rng = random.Random(seed)
        counties = [county(f"c{i:02d}", 2020, rng.randint(0, 60), rng.randint(1, 200),
                           rng.randint(500, 5000)) for i in range(12)]
        rates = [c.adrd_deaths / c.population_50plus for c in counties]
        mean = statistics.mean(rates)
        cut = mean + statistics.stdev(rates)
        statuses = classify_service_status(counties)
        assert [s.elevated for s in statuses] == [r > cut for r in rates]
        # Some rate sits between the mean and the cut, so a lower cut would show.
        assert any(r > cut for r in rates) and any(mean < r <= cut for r in rates)

    def test_too_few_defined_counties_rejected(self):
        with pytest.raises(ValidationError):
            classify_service_status([county("a", 2020, 1, 10, 100), county("b", 2020, 1, 0, 100)])
