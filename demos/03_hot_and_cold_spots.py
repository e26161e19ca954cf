"""
Hot- and cold-spot detection with Gi*
=====================================

Runs the Getis-Ord Gi* statistic over accessibility scores. A hot spot
is a zone with a high value surrounded by similarly high values; a cold
spot the reverse. Categories carry the confidence level, and an
optional false-discovery-rate correction demotes borderline features.
"""

from collections import Counter

from geoaccess import (
    GeoPoint,
    accessibility_scores,
    build_weights,
    classify_hotspots,
    generate_synthetic_region,
    getis_ord_gi_star,
    haversine_miles,
)
from geoaccess.synth import CENTER_LAT, CENTER_LON

zones, facilities, _ = generate_synthetic_region(seed=42)
zones = sorted(zones, key=lambda z: z.zone_id)
field = accessibility_scores(zones, facilities, d0=15.0)
values = [field.zone_scores[z.zone_id] for z in zones]

# Binary weights over a fixed 15-mile band; each zone is in its own
# neighborhood, as Gi* needs (the "star").
weights = build_weights([(z.zone_id, z.centroid) for z in zones], "fixed_band", band=15.0)

plain = classify_hotspots(getis_ord_gi_star(values, weights), fdr=False)
corrected = classify_hotspots(getis_ord_gi_star(values, weights), fdr=True)

print("category counts (fixed thresholds):", dict(Counter(plain.category)))
print("category counts (FDR corrected):  ", dict(Counter(corrected.category)))

core = GeoPoint(CENTER_LAT, CENTER_LON)
hot = [z for z, c in zip(zones, plain.category) if c.startswith("HotSpot")]
cold = [z for z, c in zip(zones, plain.category) if c.startswith("ColdSpot")]
hot_dist = sum(haversine_miles(core, z.centroid) for z in hot) / len(hot)
cold_dist = sum(haversine_miles(core, z.centroid) for z in cold) / len(cold)
print(f"\nhot spots sit {hot_dist:.1f} miles from the core on average,")
print(f"cold spots {cold_dist:.1f} miles out: access clusters in the center,")
print("shortage clusters in the periphery.")
