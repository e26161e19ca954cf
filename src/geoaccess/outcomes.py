"""County-level mortality ratios and service-status classification.

Ratios are left undefined (None) when their denominator is zero; such
counties are labeled InsufficientData and excluded from the state means
used to classify everyone else. Multi-year aggregation averages the
raw counts first and takes ratios afterwards (ratio of means, not mean
of ratios); every mean is one correctly rounded ``math.fsum``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ValidationError, check_int, check_range

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
        check_int(f"county {self.county_id!r}: year", self.year, 1)
        check_range(self.adrd_deaths, "county %r: adrd_deaths", self.county_id)
        check_range(self.adrd_patients, "county %r: adrd_patients", self.county_id)
        check_range(self.population_50plus, "county %r: population_50plus", self.county_id)


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
    return math.fsum(values) / len(values)


def _year_span(years) -> str:
    """Years as ``first:last`` when they run without a gap, as a range of step 1 does."""
    if not (isinstance(years, range) and years.step == 1):
        years = sorted(years)
        if years[-1] - years[0] != len(years) - 1:
            return ", ".join(map(str, years))
    return f"{years[0]}:{years[-1]}" if years[0] != years[-1] else str(years[0])


def classify_service_status(records, years=None) -> list[ServiceStatus]:
    """Average each county's records over ``years`` and label it against
    the state-wide mean ratios; one status per county, sorted by id.

    ``years`` is an iterable of calendar years (None: every year
    present). Counts are averaged over the county's present years only;
    a county with no record in range is omitted with a warning.
    Underserved: deaths per patient above the state mean while the
    diagnosis rate sits below it. Overserved: the mirror image. Anything
    else with defined ratios is Typical. ``elevated`` flags a
    deaths-per-population rate more than one sample standard deviation
    above the state mean. Every state mean and that deviation run over
    the counties whose three ratios are all defined; any other county is
    InsufficientData, is never elevated, and moves no other county's label or flag.
    """
    # A range, such as --years gives, is kept: its membership and emptiness are O(1),
    # its least year at one end. Other years key a dict: a set that keeps their order.
    wanted = years if years is None or isinstance(years, range) else dict.fromkeys(years)
    for year in (*wanted[:1], *wanted[-1:]) if isinstance(wanted, range) else wanted or ():
        check_int("requested year", year, 1)
    if years is not None and not wanted:
        raise ValidationError("service classification requires a non-empty year range")
    by_county: dict[str, dict[int, CountyOutcome]] = {}
    for rec in records:
        present = by_county.setdefault(rec.county_id, {})
        if rec.year in present:
            raise ValidationError(f"duplicate county-year record {(rec.county_id, rec.year)!r}")
        present[rec.year] = rec
    averaged, omitted = [], []
    for county_id, present in sorted(by_county.items()):
        counts = [(rec.adrd_deaths, rec.adrd_patients, rec.population_50plus)
                  for year, rec in present.items() if wanted is None or year in wanted]
        if counts:
            averaged.append((county_id, len(counts), *map(_mean, zip(*counts))))
        else:
            omitted.append(county_id)
    if wanted is not None and not averaged:
        raise ValidationError(f"no county has a record in years {_year_span(wanted)}")
    if omitted:
        warnings.warn(f"{len(omitted)} counties have no records in the requested years and are "
                      f"omitted: {', '.join(map(repr, omitted))}")

    ratios = [(deaths / patients if patients > 0 else None,
               deaths / pop if pop > 0 else None,
               patients / pop if pop > 0 else None)
              for _, _, deaths, patients, pop in averaged]

    defined = [three for three in ratios if None not in three]
    if len(defined) < 2:
        raise ValidationError("service classification requires >= 2 counties with defined ratios")
    mortality_mean, pop_mean, diagnosis_mean = map(_mean, zip(*defined))
    pop_sd = math.sqrt(math.fsum((rate - pop_mean) ** 2 for _, rate, _ in defined)
                       / (len(defined) - 1))
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
        elevated = label != INSUFFICIENT and per_pop > elevated_cut
        statuses.append(ServiceStatus(*counts, per_patient, per_pop, diagnosis, label, elevated))
    return statuses
