import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from geoaccess import PcaModel, ValidationError, health_risk_index, pca_fit, standardize
from geoaccess.risk import fit_risk_model, retained_components
from oracles import jacobi_eigh, ref_pca

SQRT_HALF = 0.7071067811865475


def random_correlated(seed, n=200, p=6):
    rng = np.random.default_rng(seed)
    latent = rng.normal(0, 1, (n, 2))
    mix = rng.normal(0, 1, (2, p))
    return latent @ mix + 0.6 * rng.normal(0, 1, (n, p)) + rng.uniform(-5, 5, p)


class TestStandardize:
    def test_two_point_column(self):
        z, means, stds = standardize([[1.0], [3.0]])
        np.testing.assert_allclose(z[:, 0], [-SQRT_HALF, SQRT_HALF], atol=1e-12)
        assert means[0] == 2.0 and stds[0] == pytest.approx(np.sqrt(2.0))

    def test_idempotent(self):
        x = random_correlated(1)
        z1, _, _ = standardize(x)
        z2, _, _ = standardize(z1)
        np.testing.assert_allclose(z1, z2, atol=1e-12)

    def test_zero_mean_unit_std(self):
        z, _, _ = standardize(random_correlated(2))
        assert np.all(np.abs(z.mean(axis=0)) < 1e-12)
        np.testing.assert_allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_constant_column_rejected_by_name(self):
        x = [[1.0, 4.0], [2.0, 4.0], [3.0, 4.0]]
        with pytest.raises(ValidationError, match="pct_b"):
            standardize(x, columns=["pct_a", "pct_b"])

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValidationError):
            standardize([[1.0, 2.0]])

    def test_a_matrix_that_is_not_2d_is_rejected(self):
        with pytest.raises(ValidationError, match=r"^expected a 2-d matrix, got shape \(3,\)$"):
            standardize([1.0, 2.0, 3.0])

    def test_a_value_that_is_not_finite_is_rejected(self):
        with pytest.raises(ValidationError, match="^standardization requires finite values$"):
            standardize([[1.0, 2.0], [np.nan, 3.0], [2.0, 4.0]])


class TestJacobi:
    def test_matches_library_eigensolver(self):
        rng = np.random.default_rng(3)
        for p in (2, 3, 5, 9):
            m = rng.normal(0, 1, (p, p))
            a = (m + m.T) / 2
            evals, vecs = jacobi_eigh(a)
            order = np.argsort(evals)
            np.testing.assert_allclose(np.sort(evals), np.linalg.eigvalsh(a), atol=1e-9)
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(p), atol=1e-9)
            np.testing.assert_allclose(vecs @ np.diag(evals) @ vecs.T, a, atol=1e-9)

    def test_off_diagonal_convergence(self):
        rng = np.random.default_rng(4)
        m = rng.normal(0, 1, (7, 7))
        a = (m + m.T) / 2
        evals, vecs = jacobi_eigh(a, tol=1e-12)
        d = vecs.T @ a @ vecs
        off = np.abs(d - np.diag(np.diag(d))).max()
        assert off < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            jacobi_eigh([[1.0, 2.0], [0.0, 1.0]])


class TestPcaFit:
    def test_perfectly_correlated_pair(self):
        col = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
        z, _, _ = standardize(np.column_stack([col, 3.0 * col]))
        model = pca_fit(z)
        np.testing.assert_allclose(model.eigenvalues, [2.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(model.explained_ratio, [1.0, 0.0], atol=1e-9)

    def test_exactly_uncorrelated_pair(self):
        z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        z, _, _ = standardize(z)
        model = pca_fit(z)
        np.testing.assert_allclose(model.eigenvalues, [1.0, 1.0], atol=1e-12)

    def test_analytic_two_variable_case(self):
        # correlation exactly 0.6 by construction: b = 0.6 a + 0.8 c with a ⟂ c
        a = np.array([1.0, 1.0, -1.0, -1.0])
        c = np.array([1.0, -1.0, 1.0, -1.0])
        b = 0.6 * a + 0.8 * c
        z, _, _ = standardize(np.column_stack([a, b]))
        model = pca_fit(z)
        np.testing.assert_allclose(model.eigenvalues, [1.6, 0.4], atol=1e-9)

    def test_invariants_on_random_data(self):
        for seed in range(4):
            z, _, _ = standardize(random_correlated(seed))
            model = pca_fit(z)
            p = z.shape[1]
            corr = (z.T @ z) / (z.shape[0] - 1)
            # loadings orthonormal, eigenvalues descending and non-negative
            np.testing.assert_allclose(model.loadings.T @ model.loadings, np.eye(p), atol=1e-9)
            assert np.all(np.diff(model.eigenvalues) <= 1e-12)
            assert np.all(model.eigenvalues >= 0.0)
            # reconstruction and trace identities
            rebuilt = model.loadings @ np.diag(model.eigenvalues) @ model.loadings.T
            np.testing.assert_allclose(rebuilt, corr, atol=1e-9)
            assert model.eigenvalues.sum() == pytest.approx(p, abs=1e-9)
            assert model.explained_ratio.sum() == pytest.approx(1.0, abs=1e-12)
            # sign convention: the largest-magnitude entry of each vector is >= 0
            for col in range(p):
                lead = np.argmax(np.abs(model.loadings[:, col]))
                assert model.loadings[lead, col] >= 0.0

    def test_rejects_nonfinite(self):
        z = np.array([[0.0, 1.0], [np.nan, -1.0]])
        with pytest.raises(ValidationError):
            pca_fit(z)

    @pytest.mark.parametrize("z", [np.zeros((1, 3)), np.zeros(4)], ids=["one-row", "1-d"])
    def test_rejects_fewer_than_two_rows_or_a_1d_array(self, z):
        with pytest.raises(ValidationError, match=r"^pca_fit requires a 2-d matrix with >= 2 rows"):
            pca_fit(z)


def rank_two_plus_noise(seed, n, p, noise):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 1, (n, 2)) @ rng.normal(0, 1, (2, p)) + noise * rng.normal(0, 1, (n, p))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 120), p=st.integers(3, 7),
       noise=st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_pca_fit_matches_jacobi_oracle(seed, n, p, noise):
    z, _, _ = standardize(rank_two_plus_noise(seed, n, p, noise))
    evals, vecs = ref_pca(z)
    # Distinct eigenvalues pin every eigenvector up to sign, and a clear
    # largest-magnitude entry pins the sign. (Two columns always tie at
    # 1/sqrt(2), so p starts at 3.)
    assume(np.min(-np.diff(evals)) > 1e-3)
    magnitudes = np.sort(np.abs(vecs), axis=0)
    assume(np.all(magnitudes[-1] - magnitudes[-2] > 1e-8))
    model = pca_fit(z)
    np.testing.assert_allclose(model.eigenvalues, evals, rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.loadings, vecs, rtol=0, atol=1e-10)
    oracle = PcaModel(eigenvalues=evals, loadings=vecs, explained_ratio=evals / evals.sum())
    want = health_risk_index(oracle, z)
    # A retained component orthogonal to the zone-wise mean (two negatively
    # correlated columns, say) has its orientation decided by rounding.
    scores = z @ vecs[:, :want.retained_components]
    overall = z.mean(axis=1)
    assume(all(abs(np.corrcoef(t, overall)[0, 1]) > 1e-6 for t in scores.T))
    got = health_risk_index(model, z)
    assert got.retained_components == want.retained_components
    np.testing.assert_allclose(got.scores, want.scores, rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed, noise", [
    (4, 0.875), (18, 0.3), (42, 0.3), (87, 0.3), (93, 0.875), (99, 0.875), (182, 0.875),
    (262, 0.3), (293, 0.3),
])
def test_two_column_index_orientation_is_not_decided_by_rounding(seed, noise):
    # Every eigenvector of a 2 x 2 correlation matrix has two entries of
    # equal magnitude. With negatively correlated columns the leading one is
    # (1, -1) / sqrt(2), whose scores are uncorrelated with the zone-wise
    # mean in exact arithmetic, so only the tie rules orient it: eigen-solvers
    # that round differently must still give the same index.
    z, _, _ = standardize(rank_two_plus_noise(seed, 8, 2, noise))
    evals, vecs = ref_pca(z)
    oracle = PcaModel(eigenvalues=evals, loadings=vecs, explained_ratio=evals / evals.sum())
    want = health_risk_index(oracle, z)
    got = health_risk_index(pca_fit(z), z)
    assert got.retained_components == want.retained_components
    np.testing.assert_allclose(got.scores, want.scores, rtol=0, atol=1e-10)


class TestRetention:
    def test_minimal_prefix_rule(self):
        m, captured = retained_components([0.5, 0.3, 0.2], 0.75)
        assert m == 2 and captured == pytest.approx(0.8, abs=1e-12)

    def test_first_component_suffices(self):
        m, captured = retained_components([0.9, 0.1], 0.75)
        assert m == 1 and captured == pytest.approx(0.9)

    def test_full_capture_target(self):
        m, captured = retained_components([0.5, 0.3, 0.2], 1.0)
        assert m == 3

    def test_ratios_that_never_reach_the_target_are_rejected(self):
        with pytest.raises(ValidationError,
                           match="^explained ratios never reach the variance target$"):
            retained_components([0.3, 0.3], 0.9)

    def test_target_validation(self):
        with pytest.raises(ValidationError):
            retained_components([1.0], 0.0)
        with pytest.raises(ValidationError):
            retained_components([1.0], 1.5)


class TestHealthRiskIndex:
    def test_retention_and_capture_reported(self):
        # synthetic model with known ratios; identity loadings over 3 columns
        model = PcaModel(
            eigenvalues=np.array([1.5, 0.9, 0.6]),
            loadings=np.eye(3),
            explained_ratio=np.array([0.5, 0.3, 0.2]),
        )
        z = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        index = health_risk_index(model, z, target=0.75)
        assert index.retained_components == 2
        assert index.captured_variance == pytest.approx(0.8, abs=1e-12)

    def test_single_variable_recovers_standardized_column(self):
        col = np.array([[3.0], [9.0], [4.0], [7.0], [1.0]])
        model, z = fit_risk_model(col)
        index = health_risk_index(model, z, target=0.75)
        np.testing.assert_allclose(index.scores, z[:, 0], atol=1e-12)
        assert index.retained_components == 1

    def test_duplicated_columns_preserve_ranking(self):
        col = np.array([3.0, 9.0, 4.0, 7.0, 1.0, 5.0])
        raw = np.column_stack([col, col, col, col])
        model, z = fit_risk_model(raw)
        index = health_risk_index(model, z, target=0.75)
        zcol = (col - col.mean()) / col.std(ddof=1)
        ratio = index.scores / zcol
        assert np.all(ratio > 0)
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-9)
        rho, _ = spearmanr(index.scores, col)
        assert rho == pytest.approx(1.0)

    def test_orientation_follows_overall_burden(self):
        x = random_correlated(11)
        model, z = fit_risk_model(x)
        index = health_risk_index(model, z, target=0.75)
        overall = z.mean(axis=1)
        cov = np.corrcoef(index.scores, overall)[0, 1]
        assert cov > 0

    def test_column_permutation_leaves_index_unchanged(self):
        x = random_correlated(12)
        model, z = fit_risk_model(x)
        base = health_risk_index(model, z, target=0.75).scores
        perm = [3, 0, 5, 1, 4, 2]
        model_p, z_p = fit_risk_model(x[:, perm])
        permuted = health_risk_index(model_p, z_p, target=0.75).scores
        np.testing.assert_allclose(permuted, base, atol=1e-9)

    def test_raw_column_scaling_leaves_index_unchanged(self):
        x = random_correlated(13)
        model, z = fit_risk_model(x)
        base = health_risk_index(model, z, target=0.75).scores
        scaled_input = x.copy()
        scaled_input[:, 2] *= 37.5
        model_s, z_s = fit_risk_model(scaled_input)
        scaled = health_risk_index(model_s, z_s, target=0.75).scores
        np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        model, z = fit_risk_model(random_correlated(14))
        with pytest.raises(ValidationError):
            health_risk_index(model, z[:, :3], target=0.75)
