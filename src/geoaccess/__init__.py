"""Spatial accessibility and health-equity analysis toolkit.

Core capabilities: two-step floating catchment area accessibility with
Gaussian distance decay, Gini inequality and Welch group comparisons,
Getis-Ord Gi* hot spots, permutation-tested local bivariate association,
a PCA composite health-risk index, and county mortality-based
service-status classification, all driven by CSV/GeoJSON inputs.
"""

from .accessibility import (
    AccessibilityField,
    DemandZone,
    Facility,
    accessibility_scores,
    decay_weight,
)
from .config import RunConfig, load_config
from .equity import GiniResult, StratifiedGini, TTestResult, gini, gini_stratified, welch_t_test
from .errors import ValidationError
from .geo import EARTH_RADIUS_MILES, GeoPoint, SpatialIndex, haversine_miles
from .ingest import load_counties, load_facilities, load_zones
from .outcomes import (
    CountyOutcome,
    ServiceStatus,
    aggregate_years,
    classify_service_status,
    mortality_ratios,
)
from .pipeline import run_pipeline
from .risk import PcaModel, RiskIndex, health_risk_index, pca_fit, standardize
from .spatial import (
    BivariateResult,
    HotSpotResult,
    SpatialWeights,
    build_weights,
    classify_hotspots,
    getis_ord_gi_star,
    local_bivariate,
    local_bivariates,
)
from .synth import generate_synthetic_region

__version__ = "0.1.0"

__all__ = [
    "AccessibilityField",
    "BivariateResult",
    "CountyOutcome",
    "DemandZone",
    "EARTH_RADIUS_MILES",
    "Facility",
    "GeoPoint",
    "GiniResult",
    "HotSpotResult",
    "PcaModel",
    "RiskIndex",
    "RunConfig",
    "ServiceStatus",
    "SpatialIndex",
    "SpatialWeights",
    "StratifiedGini",
    "TTestResult",
    "ValidationError",
    "accessibility_scores",
    "aggregate_years",
    "build_weights",
    "classify_hotspots",
    "classify_service_status",
    "decay_weight",
    "generate_synthetic_region",
    "getis_ord_gi_star",
    "gini",
    "gini_stratified",
    "haversine_miles",
    "health_risk_index",
    "load_config",
    "load_counties",
    "load_facilities",
    "load_zones",
    "local_bivariate",
    "local_bivariates",
    "mortality_ratios",
    "pca_fit",
    "run_pipeline",
    "standardize",
    "welch_t_test",
]
