"""Tests for circular arithmetic and the (link-adjusted) von Mises family."""

import numpy as np
import pytest
import warnings
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import kstest, chisquare

from circfit.circular import (
    BoundaryError,
    _lavm_em_weight,
    _lavm_response,
    circ_distance,
    lavm_deta_logpdf,
    lavm_dx_logpdf,
    lavm_logpdf,
    lavm_sample,
    log_bessel_i0,
    mean_resultant_length,
    pre_center,
    vm_logpdf,
    vm_sample,
    wrap_angle,
)

ATOL = 1e-12
FD_RTOL1 = 1e-6   # first derivatives vs central differences
FD_RTOL2 = 1e-4   # second derivatives: difference quotients lose more digits

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def mode_curvature(eta, kappa):
    """-l''(g(eta)) in x, the closed form kappa*(1 + eta^2)^2 +
    eta^2*(1 + eta^2)/2: the concentration of a matched von Mises."""
    e2 = eta * eta
    return kappa * (1.0 + e2) ** 2 + 0.5 * e2 * (1.0 + e2)


class TestWrapAngle:
    def test_canonical_values(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(np.pi) == -np.pi
        assert wrap_angle(-np.pi) == -np.pi
        assert abs(wrap_angle(-9 * np.pi / 4) - (-np.pi / 4)) < ATOL

    def test_interval_is_half_open(self):
        x = wrap_angle(np.pi - 1e-15)
        assert -np.pi <= x < np.pi

    @given(angles)
    def test_range_and_idempotence(self, t):
        w = wrap_angle(t)
        assert -np.pi <= w < np.pi
        assert wrap_angle(w) == w

    @given(angles, st.integers(min_value=-5, max_value=5))
    def test_invariant_under_full_turns(self, t, k):
        assert wrap_angle(t + 2 * np.pi * k) == pytest.approx(wrap_angle(t), abs=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            wrap_angle(np.nan)
        with pytest.raises(ValueError):
            wrap_angle(np.inf)

    def test_vectorized(self):
        out = wrap_angle(np.array([0.0, 3 * np.pi, -3 * np.pi]))
        np.testing.assert_allclose(out, [0.0, -np.pi, -np.pi], atol=ATOL)


class TestCircDistance:
    def test_short_way_round(self):
        # 3.0 and -3.0 are 0.2831853... apart going through pi
        assert circ_distance(3.0, -3.0) == pytest.approx(6.0 - 2 * np.pi, abs=ATOL)
        assert circ_distance(-3.0, 3.0) == pytest.approx(2 * np.pi - 6.0, abs=ATOL)

    def test_zero_for_identical(self):
        assert circ_distance(1.234, 1.234) == 0.0

    def test_antipode_returns_canonical_sign(self):
        assert circ_distance(np.pi / 2, -np.pi / 2) == -np.pi

    @given(angles, angles)
    def test_range(self, a, b):
        d = circ_distance(a, b)
        assert -np.pi <= d < np.pi

    @given(angles, angles)
    def test_antisymmetry_off_the_antipode(self, a, b):
        d = circ_distance(a, b)
        if abs(abs(d) - np.pi) > 1e-9:
            assert circ_distance(b, a) == pytest.approx(-d, abs=1e-9)


class TestVonMises:
    def test_normalizing_constant_at_mode(self):
        # kappa*cos(0) - log(2 pi I0(1))
        from scipy.special import i0

        expected = 1.0 - np.log(2 * np.pi * i0(1.0))
        assert vm_logpdf(0.0, 0.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_kappa_zero_is_uniform(self):
        xs = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(vm_logpdf(xs, 0.5, 0.0), -np.log(2 * np.pi) * np.ones(7))

    @pytest.mark.parametrize("mu,kappa", [(0.0, 0.3), (1.2, 4.0), (-2.0, 50.0)])
    def test_integrates_to_one(self, mu, kappa):
        val, _ = quad(lambda t: np.exp(vm_logpdf(t, mu, kappa)), -np.pi, np.pi)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_huge_kappa_is_finite(self):
        # log-scaled Bessel keeps kappa = 1e8 from overflowing
        v = vm_logpdf(0.0, 0.0, 1e8)
        assert np.isfinite(v) and v > 0

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            vm_logpdf(0.0, 0.0, -1.0)

    def test_log_bessel_matches_series_at_small_kappa(self):
        from scipy.special import i0

        for k in [1e-3, 0.5, 5.0, 50.0]:
            assert log_bessel_i0(k) == pytest.approx(np.log(i0(k)), rel=1e-13)


def _lavm_tail_mass(eta, kappa, delta):
    """Mass of the two boundary bands |x| > pi - delta, computed on the
    von Mises scale through the monotone link (independent of the density
    formula under test)."""
    def h(y):
        return np.tan(y / 2)

    def g(z):
        return 2 * np.arctan(z)

    z_hi = g(h(np.pi - delta) - eta)    # image of x = pi - delta
    z_lo = g(h(-np.pi + delta) - eta)
    upper, _ = quad(lambda z: np.exp(vm_logpdf(z, 0.0, kappa)), z_hi, np.pi)
    lower, _ = quad(lambda z: np.exp(vm_logpdf(z, 0.0, kappa)), -np.pi, z_lo)
    return upper + lower


class TestLavmDensity:
    @pytest.mark.parametrize("eta", [0.0, -0.7, 1.0, 3.0])
    @pytest.mark.parametrize("kappa", [0.05, 1.0, 10.0, 200.0])
    def test_integrates_to_one(self, eta, kappa):
        delta = 5e-6
        interior, _ = quad(
            lambda t: np.exp(lavm_logpdf(t, eta, kappa)),
            -np.pi + delta,
            np.pi - delta,
            limit=400,
        )
        total = interior + _lavm_tail_mass(eta, kappa, delta)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_matches_closed_form_denominator(self):
        # independent expression: exp(kappa cos(2 atan(tan(x/2) - eta))) /
        #   (2 pi I0(kappa) (1 + eta^2 - eta sin x - eta^2 sin^2(x/2)))
        from scipy.special import i0

        rng = np.random.default_rng(7)
        xs = rng.uniform(-3.0, 3.0, 200)
        for eta, kappa in [(0.3, 2.0), (-1.2, 8.0), (2.0, 0.5)]:
            den = 1.0 + eta**2 - eta * np.sin(xs) - eta**2 * np.sin(xs / 2) ** 2
            ref = np.exp(kappa * np.cos(2 * np.arctan(np.tan(xs / 2) - eta))) / (
                2 * np.pi * i0(kappa) * den
            )
            np.testing.assert_allclose(np.exp(lavm_logpdf(xs, eta, kappa)), ref, rtol=1e-12)

    def test_eta_zero_reduces_to_von_mises(self):
        xs = np.linspace(-2.5, 2.5, 41)
        np.testing.assert_allclose(
            lavm_logpdf(xs, 0.0, 3.0), vm_logpdf(xs, 0.0, 3.0), atol=1e-12
        )

    def test_unimodal_with_peak_near_linked_predictor(self):
        # Exactly one local maximum.  Its location is g(eta) up to the
        # Jacobian tilt of order eta / concentration, which vanishes as
        # kappa grows; the exact center of the distribution is the median,
        # checked separately below.
        for eta, kappa in [(0.5, 2.0), (-1.5, 10.0), (0.0, 1.0)]:
            xs = np.linspace(-np.pi + 1e-4, np.pi - 1e-4, 20001)
            d1, _ = lavm_dx_logpdf(xs, eta, kappa)
            downcrossings = np.sum((d1[:-1] > 0) & (d1[1:] < 0))
            assert downcrossings == 1
            argmax = xs[np.argmax(lavm_logpdf(xs, eta, kappa))]
            tilt = abs(eta) / mode_curvature(eta, kappa)
            assert abs(argmax - 2 * np.arctan(eta)) <= 1.5 * tilt + 5e-4

    def test_linked_predictor_is_exact_circular_median(self):
        # the monotone link sends x <= g(eta) to z <= 0, an exact half mass
        for eta, kappa in [(0.5, 2.0), (-1.5, 10.0), (2.0, 0.5)]:
            mass, _ = quad(
                lambda t: np.exp(lavm_logpdf(t, eta, kappa)),
                -np.pi + 1e-5,
                2 * np.arctan(eta),
                limit=400,
            )
            assert mass == pytest.approx(0.5, abs=1e-6)

    def test_boundary_band_rejected(self):
        with pytest.raises(BoundaryError):
            lavm_logpdf(np.pi - 1e-9, 0.0, 1.0)
        with pytest.raises(BoundaryError):
            lavm_logpdf(-np.pi + 1e-9, 0.5, 1.0)

    def test_broadcasts_eta_and_x(self):
        xs = np.array([0.1, 0.2, 0.3])
        etas = np.array([0.0, 0.5, 1.0])
        out = lavm_logpdf(xs, etas, 2.0)
        for i in range(3):
            assert out[i] == pytest.approx(lavm_logpdf(xs[i], etas[i], 2.0))


def _central_diffs(fun, t, h1=1e-6, h2=1e-4):
    d1 = (fun(t + h1) - fun(t - h1)) / (2 * h1)
    d2 = (fun(t + h2) - 2 * fun(t) + fun(t - h2)) / h2**2
    return d1, d2


class TestLavmDerivatives:
    CASES = [(0.5, 3.0, 0.8), (-1.0, 20.0, -2.0), (2.0, 1.0, 1.5), (0.0, 0.5, 0.3)]

    @pytest.mark.parametrize("eta,kappa,x", CASES)
    def test_dx_matches_finite_differences(self, eta, kappa, x):
        d1, d2 = lavm_dx_logpdf(x, eta, kappa)
        f1, f2 = _central_diffs(lambda t: lavm_logpdf(t, eta, kappa), x)
        assert d1 == pytest.approx(f1, rel=FD_RTOL1, abs=1e-8)
        assert d2 == pytest.approx(f2, rel=FD_RTOL2, abs=1e-4)

    @pytest.mark.parametrize("eta,kappa,x", CASES)
    def test_deta_matches_finite_differences(self, eta, kappa, x):
        d1, d2 = lavm_deta_logpdf(x, eta, kappa)
        f1, f2 = _central_diffs(lambda t: lavm_logpdf(x, t, kappa), eta)
        assert d1 == pytest.approx(f1, rel=FD_RTOL1, abs=1e-8)
        assert d2 == pytest.approx(f2, rel=FD_RTOL2, abs=1e-4)

    def test_gradient_at_linked_predictor(self):
        # At x = g(eta) the von Mises part of the score vanishes (z = 0)
        # and what remains is the Jacobian score S(g(eta)) = eta; for
        # eta = 0 the gradient is exactly zero.
        assert lavm_dx_logpdf(0.0, 0.0, 2.0)[0] == pytest.approx(0.0, abs=1e-14)
        for eta, kappa in [(1.0, 50.0), (-2.5, 4.0)]:
            d1, d2 = lavm_dx_logpdf(2 * np.arctan(eta), eta, kappa)
            assert d1 == pytest.approx(eta, rel=1e-12)
            assert d2 < 0

    def test_vm_score_recovered_at_eta_zero(self):
        d1, _ = lavm_dx_logpdf(0.3, 0.0, 1.0)
        assert d1 == pytest.approx(-np.sin(0.3), rel=1e-12)

    def test_mode_curvature_identity(self):
        # -l''(g(eta)) must equal the closed-form approximate concentration
        eta, kappa = 1.0, 50.0
        _, d2 = lavm_dx_logpdf(2 * np.arctan(eta), eta, kappa)
        assert -d2 == pytest.approx(201.0, rel=1e-12)

    @pytest.mark.parametrize("eta", [-2.0, 1.0])
    @pytest.mark.parametrize("kappa", [1.0, 10.0])
    def test_curvature_matches_approx_concentration(self, eta, kappa):
        _, d2 = lavm_dx_logpdf(2 * np.arctan(eta), eta, kappa)
        assert -d2 == pytest.approx(mode_curvature(eta, kappa), rel=1e-12)

    def test_deta_gradient_zero_where_link_matches_observation(self):
        # eta = h(x) puts z at 0, so the eta-score vanishes there
        for x, kappa in [(0.8, 3.0), (-2.0, 1.0), (0.0, 2.0)]:
            eta = np.tan(x / 2)
            d1, d2 = lavm_deta_logpdf(x, eta, kappa)
            assert d1 == pytest.approx(0.0, abs=1e-12)
            assert d2 < 0


class TestEmWeight:
    """The scale-mixture EM weight that stands in for a failed LAvM
    curvature in the Newton step."""

    U = np.linspace(-60.0, 60.0, 24001)

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 12.0, 50.0])
    def test_bounds_the_observed_curvature(self, kappa):
        x = 0.7
        eta = np.tan(x / 2) - self.U
        _, d2 = lavm_deta_logpdf(x, eta, kappa)
        W = _lavm_em_weight(_lavm_response(x), eta, kappa)
        assert np.all(W >= -d2 - 1e-12 * np.maximum(W, 1.0))
        assert np.all(W > 0) and np.all(W <= 4 * kappa + 2)
        assert np.any(-d2 < 0)

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 12.0, 50.0])
    def test_equals_the_curvature_at_u_zero(self, kappa):
        x = -1.3
        eta = np.tan(x / 2)
        _, d2 = lavm_deta_logpdf(x, eta, kappa)
        W = _lavm_em_weight(_lavm_response(x), eta, kappa)
        assert W == pytest.approx(-d2, rel=1e-12)
        assert W == pytest.approx(4 * kappa + 2, rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.5, 12.0])
    def test_tangent_quadratic_lies_below_the_density(self, kappa):
        x, eta0 = 0.4, -2.5
        l0 = lavm_logpdf(x, eta0, kappa)
        d1, _ = lavm_deta_logpdf(x, eta0, kappa)
        W = _lavm_em_weight(_lavm_response(x), eta0, kappa)
        eta = np.linspace(-40.0, 40.0, 8001)
        quad_model = l0 + d1 * (eta - eta0) - 0.5 * W * (eta - eta0) ** 2
        assert np.all(lavm_logpdf(x, eta, kappa) >= quad_model - 1e-9)


class TestSamplers:
    @pytest.mark.parametrize("mu,kappa", [(0.0, 0.1), (1.0, 5.0), (-2.0, 100.0)])
    def test_vm_sample_ks_against_quadrature_cdf(self, mu, kappa):
        rng = np.random.default_rng(42)
        draws = vm_sample(rng, mu, kappa, size=4000)

        def cdf(t):
            val, _ = quad(lambda s: np.exp(vm_logpdf(s, mu, kappa)), -np.pi, t)
            return val

        res = kstest(draws, np.vectorize(cdf))
        assert res.pvalue > 0.01

    def test_vm_sample_degenerate_at_huge_kappa(self):
        rng = np.random.default_rng(3)
        draws = vm_sample(rng, 1.0, 1e6, size=1000)
        assert np.max(np.abs(circ_distance(draws, 1.0))) < 0.01

    def test_vm_sample_kappa_zero_uniform(self):
        rng = np.random.default_rng(4)
        draws = vm_sample(rng, 0.0, 0.0, size=4000)
        res = kstest(draws, lambda t: (t + np.pi) / (2 * np.pi))
        assert res.pvalue > 0.01

    def test_lavm_sample_chisquare_against_density(self):
        eta, kappa = 1.0, 5.0
        rng = np.random.default_rng(11)
        draws = lavm_sample(rng, eta, kappa, size=100000)
        edges = np.linspace(-np.pi, np.pi, 41)
        counts, _ = np.histogram(draws, bins=edges)
        probs = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            lo = max(lo, -np.pi + 1e-9)
            hi = min(hi, np.pi - 1e-9)
            p, _ = quad(lambda t: np.exp(lavm_logpdf(t, eta, kappa)), lo, hi, limit=200)
            probs.append(p)
        probs = np.array(probs)
        keep = probs * draws.size >= 5
        stat = chisquare(counts[keep], probs[keep] / probs[keep].sum() * counts[keep].sum())
        assert stat.pvalue > 0.001

    def test_lavm_sample_stays_inside_open_interval(self):
        rng = np.random.default_rng(5)
        draws = lavm_sample(rng, 3.0, 0.05, size=20000)
        assert np.all(np.abs(draws) < np.pi)

    def test_lavm_sample_eta_zero_matches_vm(self):
        from scipy.stats import ks_2samp

        r1 = np.random.default_rng(6)
        r2 = np.random.default_rng(7)
        a = lavm_sample(r1, 0.0, 2.0, size=5000)
        b = vm_sample(r2, 0.0, 2.0, size=5000)
        assert ks_2samp(a, b).pvalue > 0.01

    def test_sampler_determinism(self):
        a = vm_sample(np.random.default_rng(9), 0.3, 2.0, size=10)
        b = vm_sample(np.random.default_rng(9), 0.3, 2.0, size=10)
        np.testing.assert_array_equal(a, b)


class TestDescriptive:
    def test_mean_resultant_equally_spaced_is_zero(self):
        x = np.linspace(-np.pi, np.pi, 12, endpoint=False)
        assert mean_resultant_length(x) == pytest.approx(0.0, abs=1e-12)

    def test_mean_resultant_identical_is_one(self):
        assert mean_resultant_length(np.full(5, 0.77)) == pytest.approx(1.0, abs=1e-12)

    def test_mean_resultant_range(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-np.pi, np.pi, 100)
        assert 0.0 <= mean_resultant_length(x) <= 1.0

    def test_pre_center_symmetric_triple(self):
        centered, rot = pre_center(np.array([0.4, 0.8, 1.2]))
        assert rot == pytest.approx(0.8, abs=1e-12)
        np.testing.assert_allclose(centered, [-0.4, 0.0, 0.4], atol=1e-12)

    def test_pre_center_result_has_zero_mean_direction(self):
        rng = np.random.default_rng(1)
        x = wrap_angle(rng.vonmises(2.5, 1.5, 200))
        centered, rot = pre_center(x)
        s, c = np.sum(np.sin(centered)), np.sum(np.cos(centered))
        assert np.arctan2(s, c) == pytest.approx(0.0, abs=1e-10)

    def test_pre_center_near_uniform_warns_and_keeps_data(self):
        x = np.linspace(-np.pi, np.pi, 16, endpoint=False)
        with pytest.warns(UserWarning):
            centered, rot = pre_center(x)
        assert rot == 0.0
        np.testing.assert_allclose(centered, x, atol=1e-12)
