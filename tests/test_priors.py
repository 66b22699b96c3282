"""Tests for the prior families and their internal-scale evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import chisquare, gamma as gamma_dist

from circfit import priors
from circfit.circular import bessel_ratio
from circfit.priors import (
    KAPPA_MAX,
    ConfigurationError,
    PriorSpec,
    TRANSFORMS,
    _vm_kl_distance_deriv,
    _vm_kl_distance_from_log,
    correlation_distance,
    eval_logprior,
    gaussian_logprior,
    lkj_log_normalizing,
    lkj_logprior,
    lkj_sample,
    log_gamma_logprior_internal,
    logit_pm1_from_natural,
    logit_pm1_to_natural,
    partials_to_correlation,
    pc_correlation_logprior,
    pc_correlation_logprior_internal,
    pc_correlation_rate,
    pc_kappa_logprior,
    pc_kappa_logprior_internal,
    pc_kappa_rate,
    pc_precision_logprior,
    pc_precision_logprior_internal,
    pc_precision_rate,
    pc_scale_logprior,
    prior_median_internal,
    vine_beta_parameter,
    vine_levels,
    vine_partial_logprior,
    vine_partial_logprior_internal,
    vm_kl_distance,
)

# the exceedance grid every pc family must calibrate on
CAL_GRID = [(u, a) for u in (0.3, 0.5, 0.99) for a in (0.5, 0.01)]
CAL_TOL = 1e-4


def subexp_tail_integral(logdens, v_lo):
    """Integral of exp(logdens(v)) dv over (v_lo, inf) when the tail decays
    like exp(-c*sqrt(v)); substituting v = w^2 makes it exponential."""
    base = max(v_lo, 1.0)
    head = 0.0
    if v_lo < base:
        head = quad(lambda v: np.exp(logdens(v)), v_lo, base, limit=200)[0]
    tail = quad(
        lambda w: np.exp(logdens(w * w)) * 2.0 * w, np.sqrt(base), np.inf, limit=400
    )[0]
    return head + tail


class TestPcPrecision:
    def test_rate_closed_form(self):
        # exp(-lambda * U) = alpha at U = alpha = 1/2
        assert pc_precision_rate(0.5, 0.5) == pytest.approx(2 * np.log(2), rel=1e-15)

    def test_normalizes_on_tau(self):
        for U, alpha in CAL_GRID:
            total = quad(
                lambda t: np.exp(pc_precision_logprior(t, U, alpha)),
                0.0,
                np.inf,
                limit=400,
            )[0]
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_sd_exceedance_examples(self):
        for U, alpha in [(0.5, 0.5), (1.0, 0.5)]:
            mass = quad(
                lambda t: np.exp(pc_precision_logprior(t, U, alpha)),
                0.0,
                U**-2.0,
                limit=400,
            )[0]
            assert mass == pytest.approx(alpha, abs=1e-6)

    def test_calibration_grid(self):
        for U, alpha in CAL_GRID:
            mass = quad(
                lambda t: np.exp(pc_precision_logprior(t, U, alpha)),
                0.0,
                U**-2.0,
                limit=400,
            )[0]
            assert mass == pytest.approx(alpha, abs=CAL_TOL)

    def test_internal_matches_natural_plus_jacobian(self):
        for v in (-8.0, -1.0, 0.0, 3.0, 20.0):
            direct = pc_precision_logprior_internal(v, 0.5, 0.5)
            composed = pc_precision_logprior(np.exp(v), 0.5, 0.5) + v
            assert direct == pytest.approx(composed, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            pc_precision_rate(-1.0, 0.5)
        with pytest.raises(ConfigurationError):
            pc_precision_rate(0.5, 1.5)
        with pytest.raises(ConfigurationError):
            pc_precision_logprior(-2.0, 0.5, 0.5)


class TestPcKappa:
    def test_base_model_at_distance_zero(self):
        assert vm_kl_distance(0.0) == 0.0

    def test_distance_increases(self):
        ks = np.array([0.0, 0.1, 1.0, 10.0, 100.0, 1000.0])
        assert np.all(np.diff(vm_kl_distance(ks)) > 0)

    def test_rates_frozen(self):
        # lambda = -ln(alpha) / d(A^-1(U)), d from Bessel quantities
        assert pc_kappa_rate(0.5, 0.5) == pytest.approx(0.9462713065404419, rel=1e-12)
        assert pc_kappa_rate(0.3, 0.5) == pytest.approx(1.614738739856511, rel=1e-12)
        assert pc_kappa_rate(0.99, 0.01) == pytest.approx(2.114140737192576, rel=1e-12)

    def test_calibration_grid(self):
        # mass of {kappa: I1/I0 > U} computed on the log scale, where the
        # whole support is representable even for diffuse settings
        for U, alpha in CAL_GRID:
            k_u = _resultant_inverse(U)
            mass = subexp_tail_integral(
                lambda v: pc_kappa_logprior_internal(v, U, alpha), np.log(k_u)
            )
            assert mass == pytest.approx(alpha, abs=CAL_TOL)

    def test_normalizes_on_log_scale(self):
        for U, alpha in CAL_GRID:
            low = quad(
                lambda v: np.exp(pc_kappa_logprior_internal(v, U, alpha)),
                -np.inf,
                1.0,
                limit=400,
            )[0]
            total = low + subexp_tail_integral(
                lambda v: pc_kappa_logprior_internal(v, U, alpha), 1.0
            )
            assert total == pytest.approx(1.0, abs=1e-5)

    def test_normalizes_on_natural_scale_when_concentrated(self):
        # sharp settings keep essentially all mass below KAPPA_MAX, so the
        # natural-scale density can be integrated there directly
        for U, alpha in [(0.3, 0.01), (0.5, 0.01)]:
            total = quad(
                lambda k: np.exp(pc_kappa_logprior(k, U, alpha)),
                0.0,
                KAPPA_MAX,
                limit=400,
            )[0]
            assert total == pytest.approx(1.0, abs=1e-5)

    def test_internal_matches_natural_plus_jacobian(self):
        for v in (-5.0, 0.0, 2.0, 5.9):
            direct = pc_kappa_logprior_internal(v, 0.5, 0.5)
            composed = pc_kappa_logprior(np.exp(v), 0.5, 0.5) + v
            assert direct == pytest.approx(composed, abs=1e-12)

    def test_internal_seam_is_smooth(self):
        # the exact Bessel branch hands over to the expansion at v = 6
        a = pc_kappa_logprior_internal(6.0, 0.5, 0.5)
        b = pc_kappa_logprior_internal(6.0 + 1e-9, 0.5, 0.5)
        assert abs(a - b) < 1e-8

    def test_internal_evaluable_beyond_float_range(self):
        # log kappa = 1e4 corresponds to kappa far beyond representable
        val = pc_kappa_logprior_internal(1e4, 0.99, 0.5)
        assert np.isfinite(val)
        assert val < pc_kappa_logprior_internal(100.0, 0.99, 0.5)

    def test_median_resultant_is_u_when_alpha_half(self):
        # alpha = 1/2 makes U the prior median of the resultant length
        for U in (0.3, 0.5, 0.99):
            med = prior_median_internal(PriorSpec("pc_kappa", (U, 0.5)))
            assert bessel_ratio(np.exp(med)) == pytest.approx(U, abs=1e-9)

    def test_median_capped_for_diffuse_prior(self):
        med = prior_median_internal(PriorSpec("pc_kappa", (0.5, 0.99)))
        assert med == pytest.approx(np.log(KAPPA_MAX), rel=1e-12)

    def test_rejects_negative_kappa(self):
        with pytest.raises(ConfigurationError):
            pc_kappa_logprior(-1.0, 0.5, 0.5)

    def test_scalar_internal_form_equals_the_array_formula(self):
        # the scalar form evaluates one branch with one Bessel ratio; the
        # array formula below evaluates both branches on whole arrays
        v = np.concatenate([np.linspace(-20.0, 40.0, 2001), [6.0, 6.0 + 1e-9]])
        d_ref, dd_ref = _array_distance_from_log(v)
        for U, alpha in CAL_GRID:
            lam = pc_kappa_rate(U, alpha)
            with np.errstate(divide="ignore"):
                ref = np.log(lam) - lam * d_ref + np.log(dd_ref)
            got = np.array([pc_kappa_logprior_internal(x, U, alpha) for x in v])
            np.testing.assert_array_equal(got, ref)
        for x, d, dd in zip(v, d_ref, dd_ref):
            assert _vm_kl_distance_from_log(x) == (d, dd)
            assert type(pc_kappa_logprior_internal(x, 0.5, 0.5)) is float


def _array_distance_from_log(v):
    """Reference (d, dd/dv) on v = log kappa over whole arrays: the exact
    Bessel formula up to v = 6, the large-kappa expansion above."""
    v = np.asarray(v, dtype=float)
    exact = v <= 6.0
    k = np.exp(np.where(exact, v, 0.0))
    d_exact = vm_kl_distance(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        dd_exact = np.where(d_exact > 0, k * _vm_kl_distance_deriv(k), 0.0)
    ev = np.exp(np.where(exact, 0.0, -v))
    dsq = (
        v
        + np.log(2.0 * np.pi)
        - 1.0
        - ev * (0.5 + ev * (0.375 + ev * (25.0 / 48.0)))
    )
    d_asym = np.sqrt(np.where(exact, 1.0, dsq))
    dd_asym = (1.0 + ev * (0.5 + ev * (0.75 + ev * (25.0 / 16.0)))) / (2.0 * d_asym)
    return np.where(exact, d_exact, d_asym), np.where(exact, dd_exact, dd_asym)


def _resultant_inverse(U):
    from scipy.optimize import brentq

    return brentq(lambda k: bessel_ratio(k) - U, 1e-12, KAPPA_MAX)


class TestPcCorrelation:
    def test_symmetric(self):
        for r in (0.1, 0.5, 0.93):
            a = pc_correlation_logprior(r, 0.5, 0.5)
            b = pc_correlation_logprior(-r, 0.5, 0.5)
            assert a == pytest.approx(b, rel=1e-15)

    def test_finite_at_base_model(self):
        # the distance has a kink at rho = 0 but the density stays positive
        val = pc_correlation_logprior(0.0, 0.5, 0.5)
        lam = pc_correlation_rate(0.5, 0.5)
        assert val == pytest.approx(np.log(lam / 2.0) + 0.5 * np.log(2.0), rel=1e-12)

    def test_calibration_grid(self):
        # two-sided exceedance, integrated on the 2*artanh scale: diffuse
        # settings hold visible mass within one ulp of |rho| = 1
        for U, alpha in CAL_GRID:
            v_u = 2.0 * np.arctanh(U)
            mass = 2.0 * subexp_tail_integral(
                lambda v: pc_correlation_logprior_internal(v, U, alpha), v_u
            )
            assert mass == pytest.approx(alpha, abs=CAL_TOL)

    def test_normalizes(self):
        for U, alpha in CAL_GRID:
            inner = quad(
                lambda v: np.exp(pc_correlation_logprior_internal(v, U, alpha)),
                0.0,
                1.0,
                limit=200,
            )[0]
            total = 2.0 * (
                inner
                + subexp_tail_integral(
                    lambda v: pc_correlation_logprior_internal(v, U, alpha), 1.0
                )
            )
            assert total == pytest.approx(1.0, abs=1e-5)

    def test_normalizes_on_natural_scale_when_concentrated(self):
        total = quad(
            lambda r: np.exp(pc_correlation_logprior(r, 0.3, 0.01)),
            -1.0,
            1.0,
            points=[0.0],
            limit=400,
        )[0]
        assert total == pytest.approx(1.0, abs=1e-5)

    def test_internal_matches_natural_plus_jacobian(self):
        for v in (-3.0, -0.5, 0.5, 4.0):
            r = np.tanh(0.5 * v)
            direct = pc_correlation_logprior_internal(v, 0.5, 0.5)
            composed = (
                pc_correlation_logprior(r, 0.5, 0.5) + np.log1p(-r * r) - np.log(2.0)
            )
            assert direct == pytest.approx(composed, abs=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(ConfigurationError):
            pc_correlation_logprior(1.0, 0.5, 0.5)
        with pytest.raises(ConfigurationError):
            pc_correlation_logprior(-1.2, 0.5, 0.5)


class TestPcScale:
    def test_collapses_to_laplace(self):
        lam = pc_precision_rate(1.0, 0.5)
        for a in (-2.0, -0.3, 0.0, 0.7):
            expected = np.log(lam / 2.0) - lam * abs(a)
            assert pc_scale_logprior(a, 1.0, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_normalizes_and_calibrates(self):
        for U, alpha in CAL_GRID:
            total = 2.0 * quad(
                lambda a: np.exp(pc_scale_logprior(a, U, alpha)), 0.0, np.inf
            )[0]
            exceed = 2.0 * quad(
                lambda a: np.exp(pc_scale_logprior(a, U, alpha)), U, np.inf
            )[0]
            assert total == pytest.approx(1.0, abs=1e-6)
            assert exceed == pytest.approx(alpha, abs=CAL_TOL)

    def test_symmetric(self):
        assert pc_scale_logprior(1.3, 0.5, 0.5) == pc_scale_logprior(-1.3, 0.5, 0.5)


class TestLkj:
    def test_det_term_frozen(self):
        # 2x2, off-diagonal 0.5, shape 5: (shape-1)*log det(R) = 4*log(3/4)
        R = np.array([[1.0, 0.5], [0.5, 1.0]])
        det_term = lkj_logprior(R, 5.0) + lkj_log_normalizing(2, 5.0)
        assert det_term == pytest.approx(4.0 * np.log(0.75), rel=1e-12)
        assert det_term == pytest.approx(-1.1507282898071236, rel=1e-12)

    def test_identity_is_mode_for_shape_above_one(self):
        eye = lkj_logprior(np.eye(3), 5.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            R = lkj_sample(rng, 3, 2.0)
            assert lkj_logprior(R, 5.0) < eye

    def test_shape_one_is_flat_in_two_dimensions(self):
        vals = [
            lkj_logprior(np.array([[1.0, r], [r, 1.0]]), 1.0) for r in (-0.8, 0.0, 0.6)
        ]
        assert np.ptp(vals) < 1e-12

    def test_normalizes_in_two_dimensions(self):
        for shape in (1.0, 5.0):
            total = quad(
                lambda r: np.exp(lkj_logprior(np.array([[1.0, r], [r, 1.0]]), shape)),
                -1.0,
                1.0,
            )[0]
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_uniform_marginal_at_shape_one(self):
        rng = np.random.default_rng(20260813)
        draws = np.array([lkj_sample(rng, 2, 1.0)[0, 1] for _ in range(20000)])
        counts, _ = np.histogram(draws, bins=20, range=(-1.0, 1.0))
        stat, pvalue = chisquare(counts)
        assert pvalue > 1e-3

    def test_determinant_factorizes_over_partials(self):
        gam = np.array([0.3, -0.5, 0.7])
        R = partials_to_correlation(gam, 3)
        assert np.linalg.det(R) == pytest.approx(np.prod(1.0 - gam**2), rel=1e-12)

    @given(
        st.lists(
            st.floats(min_value=-0.999, max_value=0.999),
            min_size=15,
            max_size=15,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_partials_always_compose_to_positive_definite(self, gam):
        R = partials_to_correlation(np.array(gam), 6)
        eigs = np.linalg.eigvalsh(R)
        assert eigs.min() > 0
        assert np.allclose(np.diag(R), 1.0)

    def test_vine_density_matches_matrix_density(self):
        # the product of the per-partial densities must equal the matrix
        # density times the Jacobian of the partials -> R map
        shape = 3.0
        gam = np.array([0.25, -0.4, 0.55])
        vine_sum = sum(
            vine_partial_logprior(g, 3, shape, lev)
            for g, lev in zip(gam, vine_levels(3))
        )
        R = partials_to_correlation(gam, 3)

        def offdiag(g):
            M = partials_to_correlation(g, 3)
            return np.array([M[0, 1], M[0, 2], M[1, 2]])

        h = 1e-6
        J = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            J[:, j] = (offdiag(gam + e) - offdiag(gam - e)) / (2.0 * h)
        _, log_jac = np.linalg.slogdet(J)
        assert vine_sum == pytest.approx(lkj_logprior(R, shape) + log_jac, abs=1e-8)

    def test_vine_levels_layout(self):
        assert vine_levels(2) == [1]
        assert vine_levels(4) == [1, 1, 1, 2, 2, 3]

    def test_vine_beta_parameter(self):
        # level-1 partials in dimension d: b = shape + (d-2)/2
        assert vine_beta_parameter(6, 5.0, 1) == pytest.approx(7.0)
        assert vine_beta_parameter(6, 5.0, 5) == pytest.approx(5.0)

    def test_vine_internal_matches_natural_plus_jacobian(self):
        for v in (-2.0, 0.0, 1.5):
            r = np.tanh(0.5 * v)
            direct = vine_partial_logprior_internal(v, 3, 5.0, 1)
            composed = (
                vine_partial_logprior(r, 3, 5.0, 1) + np.log1p(-r * r) - np.log(2.0)
            )
            assert direct == pytest.approx(composed, abs=1e-12)

    def test_sampler_deterministic(self):
        a = lkj_sample(np.random.default_rng(3), 4, 5.0)
        b = lkj_sample(np.random.default_rng(3), 4, 5.0)
        assert np.array_equal(a, b)

    def test_rejects_bad_matrices(self):
        with pytest.raises(ConfigurationError):
            lkj_logprior(np.array([[1.0, 2.0], [2.0, 1.0]]), 5.0)  # not PD
        with pytest.raises(ConfigurationError):
            lkj_logprior(np.array([[1.0, 0.1], [0.3, 1.0]]), 5.0)  # asymmetric
        with pytest.raises(ConfigurationError):
            lkj_logprior(np.eye(3), -1.0)


class TestEvalLogprior:
    def test_gaussian_standard_normal_at_zero(self):
        spec = PriorSpec("gaussian", (0.0, 1.0))
        assert eval_logprior(spec, 0.0) == pytest.approx(
            -0.5 * np.log(2 * np.pi), rel=1e-15
        )

    def test_log_gamma_matches_direct_gamma_density(self):
        # Gamma(1, rate 0.01) on the precision, evaluated through v = log rho
        spec = PriorSpec("log_gamma", (1.0, 0.01))
        for rho in (0.2, 1.0, 37.0):
            v = np.log(rho)
            direct = gamma_dist.logpdf(rho, 1.0, scale=100.0) + v
            assert eval_logprior(spec, v) == pytest.approx(direct, rel=1e-12)

    def test_fixed_contributes_nothing(self):
        assert eval_logprior(PriorSpec("fixed", (15.0,)), 15.0) == 0.0

    def test_pc_families_dispatch_to_internal_forms(self):
        assert eval_logprior(
            PriorSpec("pc_kappa", (0.5, 0.5)), 1.2
        ) == pc_kappa_logprior_internal(1.2, 0.5, 0.5)
        assert eval_logprior(
            PriorSpec("pc_precision", (0.5, 0.5)), -0.3
        ) == pc_precision_logprior_internal(-0.3, 0.5, 0.5)
        assert eval_logprior(
            PriorSpec("pc_correlation", (0.5, 0.5)), 0.8
        ) == pc_correlation_logprior_internal(0.8, 0.5, 0.5)
        assert eval_logprior(
            PriorSpec("pc_scale", (1.0, 0.5)), 0.4
        ) == pc_scale_logprior(0.4, 1.0, 0.5)

    def test_lkj_coordinate_needs_vine_info(self):
        with pytest.raises(ConfigurationError):
            eval_logprior(PriorSpec("lkj", (5.0,)), 0.0)
        spec = PriorSpec("lkj", (5.0,), vine=(3, 1))
        assert eval_logprior(spec, 0.5) == vine_partial_logprior_internal(
            0.5, 3, 5.0, 1
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            PriorSpec("jeffreys", (1.0,))


class TestTransforms:
    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_jacobian_matches_finite_differences(self, name):
        to_nat, _, log_jac = TRANSFORMS[name]
        h = 1e-6
        for v in (-1.5, -0.2, 0.0, 0.4, 2.0):
            fd = (to_nat(v + h) - to_nat(v - h)) / (2.0 * h)
            assert np.exp(log_jac(v)) == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_roundtrip(self, name):
        to_nat, from_nat, _ = TRANSFORMS[name]
        for v in (-3.0, 0.0, 1.7):
            assert from_nat(to_nat(v)) == pytest.approx(v, abs=1e-12)

    def test_bounded_transform_range(self):
        assert abs(logit_pm1_to_natural(40.0)) <= 1.0
        assert logit_pm1_from_natural(0.0) == 0.0


class TestPriorMedians:
    def test_gaussian_median_is_mean(self):
        assert prior_median_internal(PriorSpec("gaussian", (0.7, 2.0))) == 0.7

    def test_pc_precision_median_sd_is_u_when_alpha_half(self):
        # alpha = 1/2 makes U the prior median of the standard deviation
        med = prior_median_internal(PriorSpec("pc_precision", (0.5, 0.5)))
        assert np.exp(-0.5 * med) == pytest.approx(0.5, rel=1e-12)

    def test_correlation_families_start_at_zero(self):
        assert prior_median_internal(PriorSpec("pc_correlation", (0.5, 0.5))) == 0.0
        assert prior_median_internal(PriorSpec("lkj", (5.0,), vine=(3, 1))) == 0.0

    def test_log_gamma_median(self):
        med = prior_median_internal(PriorSpec("log_gamma", (1.0, 0.01)))
        assert np.exp(med) == pytest.approx(gamma_dist.ppf(0.5, 1.0, scale=100.0))

    def test_fixed_median_is_value(self):
        assert prior_median_internal(PriorSpec("fixed", (15.0,))) == 15.0

    def test_median_is_memoized_and_takes_list_parameters(self, monkeypatch):
        # a pure function of the spec: a second spec with equal parameters,
        # a tuple where the first had a list, makes no root search
        calls = []
        real = priors.brentq

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(priors, "brentq", counting)
        first = prior_median_internal(PriorSpec("pc_kappa", [0.6173, 0.5]))
        searched = len(calls)
        assert searched >= 1
        again = prior_median_internal(PriorSpec("pc_kappa", (0.6173, 0.5)))
        assert again == first and len(calls) == searched
        assert bessel_ratio(np.exp(first)) == pytest.approx(0.6173, abs=1e-9)
