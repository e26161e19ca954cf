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

# Sample standard deviations above the state mean that flag an elevated
# deaths-per-population rate.
_ELEVATED_SD = 1.0

__all__ = [
    "UNDERSERVED",
    "OVERSERVED",
    "TYPICAL",
    "INSUFFICIENT",
    "CountyOutcome",
    "ServiceStatus",
    "classify_service_status",
]


@dataclass(frozen=True)
class CountyOutcome:
    """One county-year of deaths, diagnosed patients, and population 50+."""

    county_id: str
    year: int
    adrd_deaths: float
    adrd_patients: float
    population_50plus: float

    def __post_init__(self):
        if self.adrd_deaths < 0 or self.adrd_patients < 0 or self.population_50plus < 0:
            raise ValidationError(f"county {self.county_id!r}: negative count")


@dataclass(frozen=True)
class ServiceStatus:
    """One county's averaged counts, ratios and label: a row of mortality.csv."""

    county_id: str
    years_contributing: int
    adrd_deaths: float
    adrd_patients: float
    population_50plus: float
    deaths_per_patient: float | None
    deaths_per_pop50: float | None
    diagnosis_rate: float | None
    label: str
    elevated: bool


def _mean(values) -> float:
    return sum(values) / len(values)


def _year_span(years) -> str:
    """Sorted years as ``first:last`` when they run without a gap."""
    if len(years) > 1 and years[-1] - years[0] == len(years) - 1:
        return f"{years[0]}:{years[-1]}"
    return ", ".join(map(str, years))


def classify_service_status(records, years=None) -> list[ServiceStatus]:
    """Average each county's records over ``years`` and label it against
    the state-wide mean ratios; one status per county, sorted by id.

    ``years`` is an iterable of calendar years (None: every year
    present). Counts are averaged over the county's present years only;
    a county with no record in range is omitted with a warning.
    Underserved: deaths per patient above the state mean while the
    diagnosis rate sits below it. Overserved: the mirror image. Anything
    else with defined ratios is Typical; a county missing a required
    denominator is InsufficientData and never enters the state means.
    ``elevated`` flags a deaths-per-population rate more than one
    sample standard deviation above the state mean.
    """
    wanted = None if years is None else set(map(int, years))
    if years is not None and not wanted:
        raise ValidationError("service classification requires a non-empty year range")
    seen: set[tuple[str, int]] = set()
    by_county: dict[str, list[CountyOutcome]] = {}
    for rec in records:
        key = (rec.county_id, rec.year)
        if key in seen:
            raise ValidationError(f"duplicate county-year record {key!r}")
        seen.add(key)
        present = by_county.setdefault(rec.county_id, [])
        if wanted is None or rec.year in wanted:
            present.append(rec)
    omitted = sorted(cid for cid, present in by_county.items() if not present)
    if wanted is not None and len(omitted) == len(by_county):
        raise ValidationError(f"no county has a record in years {_year_span(sorted(wanted))}")
    if omitted:
        warnings.warn(f"{len(omitted)} counties have no records in the requested years and are "
                      f"omitted: {', '.join(map(repr, omitted))}")

    averaged = []
    for county_id, present in sorted(by_county.items()):
        if present:
            k = len(present)
            averaged.append((county_id, k, sum(r.adrd_deaths for r in present) / k,
                             sum(r.adrd_patients for r in present) / k,
                             sum(r.population_50plus for r in present) / k))
    ratios = [(deaths / patients if patients > 0 else None,
               deaths / pop if pop > 0 else None,
               patients / pop if pop > 0 else None)
              for _, _, deaths, patients, pop in averaged]

    defined = [(m, d) for m, _, d in ratios if m is not None and d is not None]
    if len(defined) < 2:
        raise ValidationError("service classification requires >= 2 counties with defined ratios")
    mortality_mean = _mean([m for m, _ in defined])
    diagnosis_mean = _mean([d for _, d in defined])
    pop_rates = [rate for _, rate, _ in ratios if rate is not None]
    pop_mean = _mean(pop_rates) if pop_rates else 0.0
    if len(pop_rates) > 1:
        pop_sd = math.sqrt(sum((v - pop_mean) ** 2 for v in pop_rates) / (len(pop_rates) - 1))
    else:
        pop_sd = 0.0
    elevated_cut = pop_mean + _ELEVATED_SD * pop_sd

    statuses = []
    for counts, (per_patient, per_pop, diagnosis) in zip(averaged, ratios):
        if per_patient is None or diagnosis is None:
            label = INSUFFICIENT
        elif per_patient > mortality_mean and diagnosis < diagnosis_mean:
            label = UNDERSERVED
        elif per_patient < mortality_mean and diagnosis > diagnosis_mean:
            label = OVERSERVED
        else:
            label = TYPICAL
        elevated = per_pop is not None and per_pop > elevated_cut
        statuses.append(ServiceStatus(*counts, per_patient, per_pop, diagnosis, label, elevated))
    return statuses
