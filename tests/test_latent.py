"""Tests for the latent component precision builders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import toeplitz

from circfit.latent import (
    SparsePrecision,
    build_ar2,
    build_cyclic_rw2,
    build_iid,
    build_mv_iid,
    build_rw2,
    cyclic_rw2_reference_sd,
    pacf_to_ar2,
    rw2_reference_sd,
    scale_precision,
)
from circfit.priors import ConfigurationError

pacfs = st.floats(min_value=-0.95, max_value=0.95)


def null_space_residual(prec):
    d = prec.matrix.toarray()
    return max(
        float(np.abs(d @ v).max()) for v in np.atleast_2d(prec.constraints)
    )


def positive_on_complement(prec):
    """Smallest eigenvalue after projecting out the declared null space."""
    eig = np.linalg.eigvalsh(prec.matrix.toarray())
    return eig[prec.rank_deficiency]


class TestIid:
    def test_small_cases(self):
        assert np.array_equal(build_iid(1).matrix.toarray(), [[1.0]])
        assert np.array_equal(build_iid(3).matrix.toarray(), np.eye(3))

    def test_quadratic_form(self):
        w = np.array([0.3, -1.2, 2.0, 0.5])
        Q = build_iid(4)
        assert w @ (Q.matrix @ w) == pytest.approx(np.sum(w**2), rel=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            build_iid(0)


class TestRw2:
    def test_interior_stencil(self):
        row = build_rw2(5).matrix.toarray()[2]
        assert np.array_equal(row, [1.0, -4.0, 6.0, -4.0, 1.0])

    def test_null_space_is_constant_and_trend(self):
        prec = build_rw2(30)
        assert prec.rank_deficiency == 2
        assert null_space_residual(prec) < 1e-10
        assert positive_on_complement(prec) > 0

    @pytest.mark.parametrize("n", [3, 4, 5, 30])
    def test_generalized_determinant_matches_dense(self, n):
        prec = build_rw2(n)
        eig = np.sort(np.linalg.eigvalsh(prec.matrix.toarray()))
        assert prec.log_gdet == pytest.approx(np.sum(np.log(eig[2:])), abs=1e-9)

    def test_symmetric_exactly(self):
        Q = build_rw2(17).matrix
        assert (Q - Q.T).nnz == 0

    def test_rejects_tiny(self):
        with pytest.raises(ConfigurationError):
            build_rw2(2)


class TestCyclicRw2:
    def test_first_row_stencil(self):
        d = build_cyclic_rw2(100, 24).matrix.toarray()
        assert d[0, 0] == 6.0
        assert d[0, 1] == d[0, 23] == -4.0
        assert d[0, 2] == d[0, 22] == 1.0
        assert np.abs(d[0, 3:22]).max() == 0.0

    def test_rows_are_rotations_and_sum_to_zero(self):
        d = build_cyclic_rw2(10, 12).matrix.toarray()
        assert np.abs(d.sum(axis=1)).max() == 0.0
        for i in range(12):
            assert np.array_equal(np.roll(d[0], i), d[i])

    def test_dimension_is_period(self):
        assert build_cyclic_rw2(1000, 24).dimension == 24

    def test_eigenvalues_match_circulant_formula(self):
        prec = build_cyclic_rw2(50, 24)
        dense_eig = np.sort(np.linalg.eigvalsh(prec.matrix.toarray()))
        k = np.arange(24)
        formula = np.sort((2.0 * np.cos(2.0 * np.pi * k / 24) - 2.0) ** 2)
        assert np.abs(dense_eig - formula).max() < 1e-9

    def test_constant_null_space_only(self):
        prec = build_cyclic_rw2(50, 24)
        assert prec.rank_deficiency == 1
        assert null_space_residual(prec) < 1e-10
        assert positive_on_complement(prec) > 0

    @pytest.mark.parametrize("period", [5, 19, 24])
    def test_generalized_determinant_matches_dense(self, period):
        prec = build_cyclic_rw2(10, period)
        eig = np.sort(np.linalg.eigvalsh(prec.matrix.toarray()))
        assert prec.log_gdet == pytest.approx(np.sum(np.log(eig[1:])), abs=1e-9)

    def test_rejects_short_period(self):
        with pytest.raises(ConfigurationError):
            build_cyclic_rw2(10, 4)


class TestPacfToAr2:
    def test_ar1_special_case(self):
        assert pacf_to_ar2(0.5, 0.0) == (0.5, 0.0)

    def test_white_noise(self):
        assert pacf_to_ar2(0.0, 0.0) == (0.0, 0.0)

    def test_durbin_levinson_value(self):
        a1, a2 = pacf_to_ar2(0.5, 0.3)
        assert a1 == pytest.approx(0.35, rel=1e-15)
        assert a2 == pytest.approx(0.3, rel=1e-15)

    @given(pacfs, pacfs)
    @settings(max_examples=100, deadline=None)
    def test_always_stationary(self, p1, p2):
        a1, a2 = pacf_to_ar2(p1, p2)
        # stationarity triangle for AR(2)
        assert abs(a2) < 1
        assert a2 + a1 < 1 + 1e-12
        assert a2 - a1 < 1 + 1e-12

    def test_rejects_boundary(self):
        with pytest.raises(ConfigurationError):
            pacf_to_ar2(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            pacf_to_ar2(0.2, -1.3)


class TestAr2:
    def test_white_noise_is_identity(self):
        assert np.array_equal(build_ar2(8, 0.0, 0.0).matrix.toarray(), np.eye(8))

    def test_inverse_matches_yule_walker(self):
        prec = build_ar2(8, 0.5, 0.3)
        a1, a2 = pacf_to_ar2(0.5, 0.3)
        g = np.zeros(8)
        g[0] = 1.0
        g[1] = a1 / (1.0 - a2)
        for k in range(2, 8):
            g[k] = a1 * g[k - 1] + a2 * g[k - 2]
        cov = np.linalg.inv(prec.matrix.toarray())
        assert np.abs(cov - toeplitz(g)).max() < 1e-8

    def test_lag_one_correlation_identity(self):
        prec = build_ar2(12, 0.5, 0.3)
        a1, a2 = pacf_to_ar2(0.5, 0.3)
        cov = np.linalg.inv(prec.matrix.toarray())
        assert cov[0, 1] == pytest.approx(a1 / (1.0 - a2), abs=1e-10)

    def test_bandwidth_two(self):
        d = build_ar2(20, 0.4, -0.2).matrix.toarray()
        assert np.abs(np.triu(d, 3)).max() == 0.0

    def test_determinant_matches_dense(self):
        prec = build_ar2(25, -0.6, 0.25)
        _, logdet = np.linalg.slogdet(prec.matrix.toarray())
        assert prec.log_gdet == pytest.approx(logdet, abs=1e-9)

    @given(pacfs, pacfs)
    @settings(max_examples=40, deadline=None)
    def test_unit_marginal_variances(self, p1, p2):
        prec = build_ar2(37, p1, p2)
        cov_diag = np.diag(np.linalg.inv(prec.matrix.toarray()))
        assert np.abs(cov_diag - 1.0).max() < 1e-8

    @given(pacfs, pacfs)
    @settings(max_examples=40, deadline=None)
    def test_positive_definite(self, p1, p2):
        prec = build_ar2(15, p1, p2)
        assert np.linalg.eigvalsh(prec.matrix.toarray()).min() > 0
        assert prec.rank_deficiency == 0


class TestMvIid:
    def test_univariate_blocks(self):
        prec = build_mv_iid(4, [2.0], np.array([[1.0]]))
        assert np.allclose(prec.matrix.toarray(), np.eye(4) * 0.25)

    def test_identity_correlation(self):
        prec = build_mv_iid(2, [1.0, 2.0, 4.0], np.eye(3))
        expected = np.diag([1.0, 0.25, 0.0625, 1.0, 0.25, 0.0625])
        assert np.allclose(prec.matrix.toarray(), expected)

    def test_two_dim_block_value(self):
        R = np.array([[1.0, 0.5], [0.5, 1.0]])
        prec = build_mv_iid(3, [1.0, 2.0], R)
        block = np.array([[4.0, -1.0], [-1.0, 1.0]]) / 3.0
        d = prec.matrix.toarray()
        for i in range(3):
            s = slice(2 * i, 2 * i + 2)
            assert np.abs(d[s, s] - block).max() < 1e-12
        assert np.abs(d[:2, 2:]).max() == 0.0

    def test_determinant_matches_dense(self):
        R = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.1], [-0.2, 0.1, 1.0]])
        prec = build_mv_iid(5, [0.5, 1.0, 2.0], R)
        _, logdet = np.linalg.slogdet(prec.matrix.toarray())
        assert prec.log_gdet == pytest.approx(logdet, abs=1e-9)

    def test_sampling_recovers_correlation(self):
        rng = np.random.default_rng(41)
        R = np.array([[1.0, -0.4], [-0.4, 1.0]])
        prec = build_mv_iid(1, [0.7, 1.3], R)
        L = np.linalg.cholesky(prec.matrix.toarray())
        draws = np.linalg.solve(L.T, rng.standard_normal((2, 10000)))
        emp = np.corrcoef(draws)
        assert np.abs(emp - R).max() < 0.05

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            build_mv_iid(2, [1.0, -1.0], np.eye(2))
        with pytest.raises(ConfigurationError):
            build_mv_iid(2, [1.0, 1.0], np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ConfigurationError):
            build_mv_iid(2, [1.0], np.eye(2))


class TestScalePrecision:
    def test_unit_scale_is_identity_map(self):
        Q = build_rw2(10)
        S = scale_precision(Q, 1.0)
        assert np.array_equal(S.matrix.toarray(), Q.matrix.toarray())
        assert S.log_gdet == Q.log_gdet

    def test_iid_example(self):
        S = scale_precision(build_iid(2), 4.0)
        assert np.array_equal(S.matrix.toarray(), np.diag([4.0, 4.0]))

    def test_quadratic_form_linear_in_tau(self):
        Q = build_rw2(9)
        w = np.sin(np.arange(9.0))
        base = w @ (Q.matrix @ w)
        for tau in (0.5, 2.0, 7.0):
            S = scale_precision(Q, tau)
            assert w @ (S.matrix @ w) == pytest.approx(tau * base, rel=1e-12)

    def test_constraints_and_determinant_follow(self):
        Q = build_rw2(30)
        S = scale_precision(Q, 3.7)
        assert np.array_equal(S.constraints, Q.constraints)
        eig = np.sort(np.linalg.eigvalsh(S.matrix.toarray()))
        assert S.log_gdet == pytest.approx(np.sum(np.log(eig[2:])), abs=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            scale_precision(build_iid(2), 0.0)


class TestReferenceMarginalSd:
    def test_matches_dense_pseudo_inverse(self):
        pinv = np.linalg.pinv(build_rw2(20).matrix.toarray(), hermitian=True)
        expected = np.sqrt(np.mean(np.diag(pinv)))
        assert rw2_reference_sd(20) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("period", [5, 24, 100])
    def test_cyclic_matches_dense_pseudo_inverse(self, period):
        Q = build_cyclic_rw2(10, period).matrix.toarray()
        expected = np.sqrt(np.mean(np.diag(np.linalg.pinv(Q, hermitian=True))))
        assert cyclic_rw2_reference_sd(period) == pytest.approx(expected, rel=1e-9)

    def test_grows_with_intrinsic_size(self):
        sizes = [10, 24, 48]
        vals = [rw2_reference_sd(n) for n in sizes]
        assert vals[0] < vals[1] < vals[2]
        # the leading term is n^1.5 / sqrt(420) ~ 0.0488 n^1.5
        assert vals[2] / 48**1.5 == pytest.approx(0.0488, abs=0.001)
