"""
County mortality ratios and underserved-area classification
============================================================

Averages five years of county counts (ratio of means, not mean of
ratios), then labels counties: Underserved when deaths per patient run
above the state mean while the diagnosis rate runs below it, Overserved
for the mirror image. An elevated flag marks death rates more than one
standard deviation above the mean.
"""

from geoaccess import classify_service_status, generate_synthetic_region
from geoaccess.synth import YEARS

_, _, counties = generate_synthetic_region(seed=42)

statuses = classify_service_status(counties, YEARS)

print(f"{'county':8s} {'deaths/patient':>14s} {'diagnosis rate':>14s} {'label':>14s} elevated")
for s in statuses:
    mort = "-" if s.deaths_per_patient is None else f"{s.deaths_per_patient:.3f}"
    diag = "-" if s.diagnosis_rate is None else f"{s.diagnosis_rate:.4f}"
    print(f"{s.county_id:8s} {mort:>14s} {diag:>14s} {s.label:>14s} {'yes' if s.elevated else ''}")

under = [s.county_id for s in statuses if s.label == "Underserved"]
over = [s.county_id for s in statuses if s.label == "Overserved"]
print(f"\n{len(under)} underserved counties (high mortality, low diagnosis): {', '.join(under)}")
print(f"{len(over)} overserved counties (low mortality, high diagnosis): {', '.join(over)}")
