import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoaccess import (
    AccessibilityField,
    DemandZone,
    GeoPoint,
    GiniResult,
    ValidationError,
    gini,
    gini_stratified,
    welch_t_test,
)

from oracles import ref_gini_pairwise, student_t_two_sided_p

# Welch reference case a=[1,2,3], b=[2,4,6]; t and df by hand, p frozen
# from an independent statistical oracle before the build.
WELCH_T = -1.5491933384829668
WELCH_DF = 2.9411764705882346
WELCH_P = 0.2208808404940958

values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


class TestGini:
    def test_perfect_equality(self):
        assert gini([5, 5, 5]).gini == 0.0

    def test_two_point_case(self):
        assert gini([0, 10]).gini == pytest.approx(0.5, abs=1e-12)

    def test_four_point_case(self):
        assert gini([1, 2, 3, 4]).gini == pytest.approx(0.25, abs=1e-12)

    def test_all_zero_convention(self):
        assert gini([0.0, 0.0]) == GiniResult(gini=0.0, n=2, mean=0.0)

    def test_result_carries_n_and_mean(self):
        res = gini([1, 2, 3, 4])
        assert res.n == 4 and res.mean == pytest.approx(2.5)

    def test_rejections(self):
        with pytest.raises(ValidationError):
            gini([])
        with pytest.raises(ValidationError):
            gini([1.0, -0.5])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="^gini requires finite values$"):
                gini([1.0, bad, 2.0])

    def test_sorted_form_equals_pairwise_form(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.uniform(0.0, 100.0, size=int(rng.integers(1, 80)))
            assert gini(x).gini == pytest.approx(ref_gini_pairwise(x), abs=1e-12)

    @given(values_strategy, st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=60)
    def test_scale_invariance(self, values, c):
        base = gini(values).gini
        scaled = gini([v * c for v in values]).gini
        assert scaled == pytest.approx(base, abs=1e-12)

    @given(values_strategy)
    @settings(max_examples=60)
    def test_bounds(self, values):
        n = len(values)
        g = gini(values).gini
        assert 0.0 <= g <= (n - 1) / n + 1e-12 if n > 1 else g == 0.0


def _zone(zid, urban):
    return DemandZone(zone_id=zid, centroid=GeoPoint(0.0, 0.0), population=1,
                      adrd_patients=1, urban=urban)


def _field(scores):
    return AccessibilityField(facility_ratios={}, zone_scores=scores, skipped_facilities=[])


class TestGiniStratified:
    def test_all_urban_equal(self):
        zones = [_zone("a", True), _zone("b", True)]
        res = gini_stratified(_field({"a": 3.0, "b": 3.0}), zones)
        assert res.overall.gini == 0.0
        assert res.urban.gini == 0.0
        assert res.rural is None

    def test_mixed_strata(self):
        zones = [_zone("u1", True), _zone("u2", True), _zone("r1", False), _zone("r2", False)]
        field = _field({"u1": 0.0, "u2": 10.0, "r1": 5.0, "r2": 5.0})
        res = gini_stratified(field, zones)
        assert res.urban.gini == pytest.approx(0.5, abs=1e-12)
        assert res.rural.gini == 0.0
        # Overall value recomputed with the pairwise oracle over {0,10,5,5}.
        assert res.overall.gini == pytest.approx(ref_gini_pairwise([0, 10, 5, 5]), abs=1e-12)
        assert res.overall.gini == pytest.approx(0.375, abs=1e-12)

    def test_missing_zone_rejected_by_name(self):
        zones = [_zone("a", True), _zone("missing", False)]
        with pytest.raises(ValidationError, match="missing"):
            gini_stratified(_field({"a": 1.0}), zones)


class TestWelch:
    def test_reference_case(self):
        res = welch_t_test([1, 2, 3], [2, 4, 6])
        assert res.t == pytest.approx(WELCH_T, abs=1e-5)
        assert res.df == pytest.approx(WELCH_DF, abs=1e-5)
        assert res.p == pytest.approx(WELCH_P, abs=1e-9)
        assert res.p == pytest.approx(0.2213, abs=1e-3)
        assert not res.degenerate and not res.infinite_separation

    def test_identical_samples(self):
        res = welch_t_test([1.0, 2.0, 5.0], [1.0, 2.0, 5.0])
        assert res.t == 0.0 and res.p == 1.0

    def test_swap_symmetry_is_exact(self):
        ab = welch_t_test([1, 2, 3], [2, 4, 6])
        ba = welch_t_test([2, 4, 6], [1, 2, 3])
        assert ba.t == -ab.t
        assert ba.df == ab.df
        assert ba.p == ab.p

    def test_location_invariance_is_exact_on_representable_shifts(self):
        base = welch_t_test([1, 2, 3], [2, 4, 6])
        shifted = welch_t_test([101, 102, 103], [102, 104, 106])
        assert shifted.t == base.t
        assert shifted.df == base.df
        assert shifted.p == base.p

    def test_location_invariance_float_shift(self):
        base = welch_t_test([1.0, 2.5, 3.2], [2.0, 4.1, 6.7])
        shifted = welch_t_test([1.0 + 0.3, 2.5 + 0.3, 3.2 + 0.3], [2.0 + 0.3, 4.1 + 0.3, 6.7 + 0.3])
        assert shifted.t == pytest.approx(base.t, abs=1e-12)
        assert shifted.p == pytest.approx(base.p, abs=1e-12)

    def test_sign_follows_mean_difference(self):
        res = welch_t_test([5, 6, 7], [1, 2, 3])
        assert res.t > 0 and res.mean_a > res.mean_b

    def test_undersized_sample_is_degenerate_not_an_error(self):
        res = welch_t_test([1.0], [2.0, 3.0])
        assert res.degenerate and res.t == 0.0 and res.p == 1.0
        assert (res.var_a, res.var_b, res.df) == (0.0, 0.5, 1.0)
        res = welch_t_test([4.0, 6.0, 8.0], [1.0])
        assert res.degenerate and (res.var_a, res.var_b, res.df) == (4.0, 0.0, 2.0)

    def test_one_constant_sample_is_an_ordinary_test(self):
        res = welch_t_test([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
        assert not (res.degenerate or res.infinite_separation)
        assert res.t == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-12)
        assert res.df == pytest.approx(2.0, rel=1e-12)
        assert res.p == pytest.approx(student_t_two_sided_p(res.t, res.df), rel=1e-10)

    def test_zero_variances_equal_means(self):
        res = welch_t_test([2.0, 2.0], [2.0, 2.0])
        assert res.degenerate and res.p == 1.0

    def test_zero_variances_unequal_means(self):
        res = welch_t_test([2.0, 2.0], [3.0, 3.0])
        assert res.infinite_separation and res.p == 0.0 and res.t == float("-inf")

    def test_p_monotone_as_separation_grows(self):
        ps = []
        for gap in (0.5, 1.0, 2.0, 4.0):
            res = welch_t_test([0.0, 1.0, 2.0], [g + gap for g in (0.0, 1.0, 2.0)])
            ps.append(res.p)
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            welch_t_test([], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_value_in_either_sample_is_rejected(self, bad):
        for a, b in (([1.0, bad], [1.0, 2.0]), ([1.0, 2.0], [1.0, bad])):
            with pytest.raises(ValidationError, match="finite"):
                welch_t_test(a, b)


@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(2, 700), n_b=st.integers(2, 400),
       gap=st.floats(0.0, 100.0), sd_a=st.floats(0.01, 10.0), sd_b=st.floats(0.01, 10.0))
# t is about 1.9e-7 here, so 1 - df / (df + t*t) keeps almost no digits.
@example(seed=2, n_a=22, n_b=2, gap=0.01, sd_a=8.5234375, sd_b=0.01)
@settings(max_examples=200, deadline=None)
def test_welch_p_matches_continued_fraction_oracle(seed, n_a, n_b, gap, sd_a, sd_b):
    rng = np.random.default_rng(seed)
    res = welch_t_test(rng.normal(0.0, sd_a, n_a), rng.normal(gap, sd_b, n_b))
    want = student_t_two_sided_p(res.t, res.df)
    assert 0.0 <= res.p <= 1.0
    assert not (res.degenerate or res.infinite_separation)
    if want >= 1e-300:
        assert res.p == pytest.approx(want, rel=1e-10, abs=0)
    else:
        assert res.p < 1e-300


def test_welch_p_far_tail_stays_in_range():
    # t about -77 on df about 597: the oracle's tail is subnormal (~3e-312).
    a = np.linspace(0.0, 0.19, 600)
    b = np.linspace(0.3, 0.49, 300)
    res = welch_t_test(a, b)
    assert 0.0 < student_t_two_sided_p(res.t, res.df) < 1e-300
    assert 0.0 <= res.p < 1e-300
    assert not (res.degenerate or res.infinite_separation)
