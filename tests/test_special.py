import numpy as np
import pytest
import scipy.special
import scipy.stats

from geoaccess import ValidationError
from oracles import regularized_incomplete_beta, student_t_two_sided_p

# scipy reference values frozen before the build.
FROZEN_T_P = [
    (1.0, 1.0, 0.49999999999999956),
    (2.0, 5.0, 0.10193947882985828),
    (0.5, 30.0, 0.6207230048851273),
    (4.0, 2.0, 0.05719095841793663),
]


def test_incomplete_beta_matches_scipy_on_a_grid():
    params = [0.5, 1.0, 1.5, 2.5, 10.0, 40.0]
    xs = np.linspace(0.0, 1.0, 21)
    for a in params:
        for b in params:
            for x in xs:
                got = regularized_incomplete_beta(a, b, float(x))
                want = float(scipy.special.betainc(a, b, x))
                assert got == pytest.approx(want, abs=1e-12)


def test_incomplete_beta_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


@pytest.mark.parametrize("t,df,expected", FROZEN_T_P)
def test_student_t_two_sided_frozen_values(t, df, expected):
    assert student_t_two_sided_p(t, df) == pytest.approx(expected, abs=1e-9)


def test_student_t_two_sided_matches_scipy_broadly():
    rng = np.random.default_rng(2)
    for _ in range(200):
        t = float(rng.normal(0.0, 3.0))
        df = float(rng.uniform(1.0, 120.0))
        want = 2.0 * float(scipy.stats.t.sf(abs(t), df))
        assert student_t_two_sided_p(t, df) == pytest.approx(want, abs=1e-10)


def test_student_t_is_symmetric_and_bounded():
    assert student_t_two_sided_p(0.0, 7.0) == 1.0
    assert student_t_two_sided_p(3.0, 7.0) == student_t_two_sided_p(-3.0, 7.0)
    assert student_t_two_sided_p(float("inf"), 7.0) == 0.0
