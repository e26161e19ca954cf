"""
Floating catchment accessibility on a synthetic region
=======================================================

Builds the seeded demo region, runs the two-step accessibility
computation, and walks through what the pieces mean: per-facility
supply-to-demand ratios, per-zone scores, and the conservation identity
that ties the two steps together.
"""

import numpy as np

from geoaccess import accessibility_scores, decay_weight, generate_synthetic_region

# A deterministic region: 40 urban zones packed around a core full of
# large hospitals, 80 rural zones spread over the periphery.
zones, facilities, _ = generate_synthetic_region(seed=42)
zones = sorted(zones, key=lambda z: z.zone_id)

# The decay weight starts just under 0.4 at the facility doorstep and
# fades to exactly zero at the 15-mile catchment boundary.
for d in (0.0, 5.0, 10.0, 15.0):
    print(f"decay weight at {d:4.1f} miles: {decay_weight(d, 15.0):.4f}")

field = accessibility_scores(zones, facilities, d0=15.0)

scores = np.array([field.zone_scores[z.zone_id] for z in zones])
urban = np.array([z.urban for z in zones])
print(f"\nzones scored: {scores.size}, facilities serving demand: {len(field.facility_ratios)}")
print(f"mean score urban: {scores[urban].mean():.3f}")
print(f"mean score rural: {scores[~urban].mean():.3f}")
print(f"zones beyond every catchment (score 0): {(scores == 0).sum()}")

# Step one's ratios let every bed be claimed at most once, so total
# decay-weighted demand exactly recovers the served bed supply.
demand_side = sum(z.adrd_patients * field.zone_scores[z.zone_id] for z in zones)
supply_side = sum(f.beds for f in facilities if f.facility_id in field.facility_ratios)
print(f"\nweighted demand {demand_side:.6f} == served beds {supply_side} "
      f"(difference {abs(demand_side - supply_side):.2e})")
