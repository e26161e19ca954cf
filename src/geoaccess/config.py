"""Run configuration with a single precedence chain.

Values resolve as: built-in defaults, then the JSON config file, then
explicit flag overrides. The JSON file may contain exactly the RunConfig
keys.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass

from .accessibility import DEMAND_COLUMNS
from .errors import ValidationError, check_int, check_range
from .ingest import read_text
from .spatial import MIN_NEIGHBORS, MIN_PERMUTATIONS, WEIGHT_SCHEMES

DEFAULT_PREVALENCE_COLUMNS = (
    "pct_diabetes",
    "pct_obesity",
    "pct_asthma",
    "pct_depression",
    "pct_hyperlipidemia",
    "pct_hypertension",
    "pct_heart_disease",
)

# The least value of each integer field.
_INTEGER_FIELDS = {"knn_k": 1, "permutations": MIN_PERMUTATIONS, "min_neighbors": MIN_NEIGHBORS,
                   "seed": 0}
_NUMBER_FIELDS = ("catchment_miles", "band_miles", "variance_target")

__all__ = ["DEFAULT_PREVALENCE_COLUMNS", "CONFIG_KEYS", "RunConfig", "load_config"]


@dataclass(frozen=True)
class RunConfig:
    catchment_miles: float = 15.0
    demand: str = "patients"
    weights_scheme: str = "fixed_band"
    band_miles: float = 15.0
    knn_k: int = 8
    permutations: int = 199
    seed: int = 42
    variance_target: float = 0.75
    fdr: bool = False
    min_neighbors: int = 8
    poverty_column: str = "poverty_rate"
    prevalence_columns: tuple = DEFAULT_PREVALENCE_COLUMNS

    def __post_init__(self):
        for name, least in _INTEGER_FIELDS.items():
            check_int(f"config {name}", getattr(self, name), least)
        for name in _NUMBER_FIELDS:
            value = getattr(self, name)
            # bool is an int subclass; a JSON true must not pass as 1.
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"config {name} must be a number, got {value!r}")
            check_range(value, "config %s", name, strict=True)
        if self.variance_target > 1.0:
            raise ValidationError(
                f"config variance_target must be in (0, 1], got {self.variance_target!r}"
            )
        if self.demand not in DEMAND_COLUMNS:
            raise ValidationError(f"config demand must be one of {DEMAND_COLUMNS}")
        if self.weights_scheme not in WEIGHT_SCHEMES:
            raise ValidationError(f"config weights_scheme must be one of {WEIGHT_SCHEMES}")
        if not isinstance(self.fdr, bool):
            raise ValidationError(f"config fdr must be a boolean, got {self.fdr!r}")
        if not isinstance(self.poverty_column, str):
            raise ValidationError(
                f"config poverty_column must be a column name, got {self.poverty_column!r}")
        cols = self.prevalence_columns
        if not isinstance(cols, tuple) or not all(isinstance(c, str) for c in cols):
            raise ValidationError("config prevalence_columns must be a list of column names")
        if not cols:
            raise ValidationError("config prevalence_columns must name at least one column")
        for i, name in enumerate(cols):
            if name in cols[:i]:
                raise ValidationError(f"config prevalence_columns lists {name!r} more than once")


CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))


def load_config(path=None, overrides=None) -> RunConfig:
    """Resolve a RunConfig from file and flag overrides.

    ``overrides`` maps field names to values; entries that are None are
    ignored so absent CLI flags never mask file values.
    """
    values: dict = {}
    if path is not None:
        text = read_text(path)
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # too deep a nesting is a RecursionError
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: config must be a JSON object")
        unknown = sorted(set(raw) - set(CONFIG_KEYS))
        if unknown:
            raise ValidationError(f"{path}: unknown config keys {unknown}")
        values.update(raw)
    for name, value in (overrides or {}).items():
        if value is None:
            continue
        if name not in CONFIG_KEYS:
            raise ValidationError(f"unknown config override {name!r}")
        values[name] = value
    if isinstance(values.get("prevalence_columns"), list):
        values["prevalence_columns"] = tuple(values["prevalence_columns"])
    return RunConfig(**values)
