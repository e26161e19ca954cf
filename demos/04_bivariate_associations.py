"""
Where two variables move together: local bivariate association
===============================================================

For every zone, correlates two variables over the zone's neighborhood
and tests the correlation by permutation: poverty against accessibility
first, then poverty against the composite health-risk index. The
category tells you where the relationship is significantly positive,
significantly negative, or indistinct.
"""

from collections import Counter

import numpy as np

from geoaccess import (
    accessibility_scores,
    build_weights,
    generate_synthetic_region,
    health_risk_index,
    local_bivariate,
)
from geoaccess.config import DEFAULT_PREVALENCE_COLUMNS
from geoaccess.risk import fit_risk_model

zones, facilities, _ = generate_synthetic_region(seed=42)
zones = sorted(zones, key=lambda z: z.zone_id)
field = accessibility_scores(zones, facilities, d0=15.0)

poverty = [z.attributes["poverty_rate"] for z in zones]
access = [field.zone_scores[z.zone_id] for z in zones]

matrix = [[z.attributes[c] for c in DEFAULT_PREVALENCE_COLUMNS] for z in zones]
model, standardized = fit_risk_model(matrix, columns=list(DEFAULT_PREVALENCE_COLUMNS))
risk = health_risk_index(model, standardized, target=0.75).scores

weights = build_weights([(z.zone_id, z.centroid) for z in zones], "fixed_band", band=15.0)

for label, y in (("accessibility", access), ("health risk index", list(risk))):
    res = local_bivariate(poverty, y, weights, permutations=199, seed=42, min_neighbors=8)
    counts = Counter(res.category)
    defined = [r for r in res.local_r if not np.isnan(r)]
    print(f"poverty vs {label}:")
    print(f"  categories: {dict(counts)}")
    print(f"  median neighborhood correlation: {np.median(defined):+.3f}\n")
