"""The one finite-array rule: every statistic rejects NaN and infinity in the same words."""

import math

import numpy as np
import pytest

from geoaccess import (
    GeoPoint,
    ValidationError,
    build_weights,
    getis_ord_gi_star,
    gini,
    local_bivariate,
    pca_fit,
    standardize,
    welch_t_test,
)
from geoaccess.errors import finite_floats

WEIGHTS = build_weights([(f"z{i}", GeoPoint(39.0 + 0.01 * i, -76.0)) for i in range(6)],
                        "knn", include_self=True, k=3)
VALUES = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0]


def spoilt(bad):
    """VALUES with its fourth entry replaced by ``bad``."""
    return VALUES[:3] + [bad] + VALUES[4:]


# Each statistic, the name its message gives, and a call with one value spoilt.
CALLERS = {
    "gini": ("gini", lambda bad: gini(spoilt(bad))),
    "welch-first": ("welch_t_test", lambda bad: welch_t_test(spoilt(bad), VALUES)),
    "welch-second": ("welch_t_test", lambda bad: welch_t_test(VALUES, spoilt(bad))),
    "standardize": ("standardization",
                    lambda bad: standardize(np.column_stack([VALUES, spoilt(bad)]))),
    "pca": ("pca_fit", lambda bad: pca_fit(np.column_stack([spoilt(bad), VALUES]))),
    "gi-star": ("Gi*", lambda bad: getis_ord_gi_star(spoilt(bad), WEIGHTS)),
    "bivariate-x": ("local_bivariate",
                    lambda bad: local_bivariate(spoilt(bad), VALUES, WEIGHTS, permutations=19)),
    "bivariate-y": ("local_bivariate",
                    lambda bad: local_bivariate(VALUES, spoilt(bad), WEIGHTS, permutations=19)),
}


@pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
@pytest.mark.parametrize("caller", list(CALLERS))
def test_every_statistic_rejects_a_value_that_is_not_finite(caller, bad):
    who, call = CALLERS[caller]
    with pytest.raises(ValidationError, match=f"^{who.replace('*', '[*]')} requires finite values$"):
        call(bad)


def test_finite_values_come_back_as_floats():
    x = finite_floats([1, 2.5, -3], "who")
    assert x.dtype == np.float64 and x.tolist() == [1.0, 2.5, -3.0]
    with pytest.raises(ValidationError, match="^who requires finite values$"):
        finite_floats([[1.0, 2.0], [math.inf, 0.0]], "who")
