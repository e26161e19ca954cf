"""County-level mortality ratios and service-status classification.

Ratios are left undefined (None) when their denominator is zero; such
counties are labeled InsufficientData and excluded from the state means
used to classify everyone else. Multi-year aggregation averages the
raw counts first and takes ratios afterwards (ratio of means, not mean
of ratios).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ValidationError

UNDERSERVED = "Underserved"
OVERSERVED = "Overserved"
TYPICAL = "Typical"
INSUFFICIENT = "InsufficientData"

AGGREGATE_YEAR = 0  # sentinel year on multi-year averaged records

# Sample standard deviations above the state mean that flag an elevated
# deaths-per-population rate.
_ELEVATED_SD = 1.0

__all__ = [
    "UNDERSERVED",
    "OVERSERVED",
    "TYPICAL",
    "INSUFFICIENT",
    "AGGREGATE_YEAR",
    "CountyOutcome",
    "MortalityRatios",
    "ServiceStatus",
    "mortality_ratios",
    "aggregate_years",
    "classify_service_status",
]


@dataclass(frozen=True)
class CountyOutcome:
    """One county-year of deaths, diagnosed patients, and population 50+.

    Counts are floats so that multi-year averaged records fit the same
    shape; ingestion enforces integers.
    """

    county_id: str
    year: int
    adrd_deaths: float
    adrd_patients: float
    population_50plus: float
    contributing_years: int = 1

    def __post_init__(self):
        if self.adrd_deaths < 0 or self.adrd_patients < 0 or self.population_50plus < 0:
            raise ValidationError(f"county {self.county_id!r}: negative count")


@dataclass(frozen=True)
class MortalityRatios:
    deaths_per_patient: float | None
    deaths_per_pop50: float | None
    diagnosis_rate: float | None


@dataclass(frozen=True)
class ServiceStatus:
    county_id: str
    mortality_per_patient: float | None
    mortality_per_pop50: float | None
    diagnosis_rate: float | None
    label: str
    elevated: bool


def mortality_ratios(county: CountyOutcome) -> MortalityRatios:
    """Deaths per patient, deaths per population 50+, and diagnosis rate.

    Each ratio is defined only when its denominator is positive; a zero
    denominator yields None rather than an error.
    """
    patients = county.adrd_patients
    pop = county.population_50plus
    return MortalityRatios(
        deaths_per_patient=county.adrd_deaths / patients if patients > 0 else None,
        deaths_per_pop50=county.adrd_deaths / pop if pop > 0 else None,
        diagnosis_rate=county.adrd_patients / pop if pop > 0 else None,
    )


def aggregate_years(records, years) -> list[CountyOutcome]:
    """Average each county's counts over the years present for it.

    ``years`` is an iterable of calendar years to include. Counts are
    averaged over the county's present years only, and the number of
    contributing years is recorded; counties with no record in range are
    omitted. Output records carry the sentinel year 0 and are sorted by
    county id.
    """
    wanted = sorted(set(int(y) for y in years))
    if not wanted:
        raise ValidationError("aggregate_years requires a non-empty year range")
    seen: set[tuple[str, int]] = set()
    all_counties: set[str] = set()
    by_county: dict[str, list[CountyOutcome]] = {}
    for rec in records:
        key = (rec.county_id, rec.year)
        if key in seen:
            raise ValidationError(f"duplicate county-year record {key!r}")
        seen.add(key)
        all_counties.add(rec.county_id)
        if rec.year in wanted:
            by_county.setdefault(rec.county_id, []).append(rec)
    for county_id in sorted(all_counties - set(by_county)):
        warnings.warn(f"county {county_id!r} has no records in the requested years; omitted")
    out = []
    for county_id in sorted(by_county):
        present = by_county[county_id]
        k = len(present)
        out.append(
            CountyOutcome(
                county_id=county_id,
                year=AGGREGATE_YEAR,
                adrd_deaths=sum(r.adrd_deaths for r in present) / k,
                adrd_patients=sum(r.adrd_patients for r in present) / k,
                population_50plus=sum(r.population_50plus for r in present) / k,
                contributing_years=k,
            )
        )
    return out


def _mean(values) -> float:
    return sum(values) / len(values)


def classify_service_status(counties) -> list[ServiceStatus]:
    """Label counties against state-wide mean ratios.

    Underserved: deaths per patient above the state mean while the
    diagnosis rate sits below it. Overserved: the mirror image. Anything
    else with defined ratios is Typical; a county missing a required
    denominator is InsufficientData and never enters the state means.
    ``elevated`` flags a deaths-per-population rate more than one
    sample standard deviation above the state mean.
    """
    ratios = {c.county_id: mortality_ratios(c) for c in counties}
    defined = [
        r for r in ratios.values()
        if r.deaths_per_patient is not None and r.diagnosis_rate is not None
    ]
    if len(defined) < 2:
        raise ValidationError("service classification requires >= 2 counties with defined ratios")
    mortality_mean = _mean([r.deaths_per_patient for r in defined])
    diagnosis_mean = _mean([r.diagnosis_rate for r in defined])
    pop_rates = [r.deaths_per_pop50 for r in ratios.values() if r.deaths_per_pop50 is not None]
    pop_mean = _mean(pop_rates) if pop_rates else 0.0
    if len(pop_rates) > 1:
        pop_sd = math.sqrt(sum((v - pop_mean) ** 2 for v in pop_rates) / (len(pop_rates) - 1))
    else:
        pop_sd = 0.0
    elevated_cut = pop_mean + _ELEVATED_SD * pop_sd

    statuses = []
    for county in sorted(counties, key=lambda c: c.county_id):
        r = ratios[county.county_id]
        if r.deaths_per_patient is None or r.diagnosis_rate is None:
            label = INSUFFICIENT
        elif r.deaths_per_patient > mortality_mean and r.diagnosis_rate < diagnosis_mean:
            label = UNDERSERVED
        elif r.deaths_per_patient < mortality_mean and r.diagnosis_rate > diagnosis_mean:
            label = OVERSERVED
        else:
            label = TYPICAL
        elevated = r.deaths_per_pop50 is not None and r.deaths_per_pop50 > elevated_cut
        statuses.append(
            ServiceStatus(
                county_id=county.county_id,
                mortality_per_patient=r.deaths_per_patient,
                mortality_per_pop50=r.deaths_per_pop50,
                diagnosis_rate=r.diagnosis_rate,
                label=label,
                elevated=elevated,
            )
        )
    return statuses
