"""Tests for the observation families and their response domains."""

import numpy as np
import pytest
from scipy.integrate import quad

from circfit.likelihoods import (
    ObservationError,
    _log_density,
    lavm_curvature_floor,
    loglik,
    response_terms,
)
from circfit.circular import lavm_approx_concentration
from circfit.model import BlockSpec
from circfit.priors import ConfigurationError

FD_RTOL = 1e-6

# (kind, y, eta, hyper) grids the derivative checks sweep over
CASES = [
    ("gaussian", y, eta, tau)
    for y in (-1.0, 0.0, 2.5)
    for eta in (-2.0, 0.3)
    for tau in (0.5, 4.0)
] + [
    ("poisson", y, eta, None) for y in (0.0, 2.0, 11.0) for eta in (-1.0, 0.0, 1.7)
] + [
    ("gamma", y, eta, rho)
    for y in (0.2, 1.0, 5.0)
    for eta in (-1.0, 0.5)
    for rho in (0.7, 3.0)
] + [
    ("lavm", y, eta, kappa)
    for y in (-2.0, 0.1, 1.4)
    for eta in (-0.7, 0.0, 1.0)
    for kappa in (0.5, 10.0)
]


class TestExamples:
    def test_gaussian_standard(self):
        value, d1, d2 = loglik("gaussian", 0.0, 0.0, 1.0)
        assert value == pytest.approx(-0.5 * np.log(2 * np.pi), rel=1e-15)
        assert d1 == 0.0
        assert d2 == -1.0

    def test_poisson_two_at_unit_rate(self):
        value, d1, d2 = loglik("poisson", 2.0, 0.0)
        assert value == pytest.approx(-1.0 - np.log(2.0), rel=1e-14)
        assert d1 == pytest.approx(1.0)
        assert d2 == pytest.approx(-1.0)

    def test_gamma_exponential_case(self):
        value, d1, d2 = loglik("gamma", 1.0, 0.0, 1.0)
        assert value == pytest.approx(-1.0, rel=1e-14)
        assert d1 == pytest.approx(0.0, abs=1e-15)
        assert d2 == pytest.approx(-1.0, rel=1e-14)

    def test_lavm_delegates_to_circular(self):
        from circfit.circular import lavm_deta_logpdf, lavm_logpdf

        value, d1, d2 = loglik("lavm", 0.4, 0.2, 5.0)
        assert value == lavm_logpdf(0.4, 0.2, 5.0)
        assert (d1, d2) == lavm_deta_logpdf(0.4, 0.2, 5.0)


class TestDerivatives:
    @pytest.mark.parametrize("kind,y,eta,hyper", CASES)
    def test_matches_finite_differences(self, kind, y, eta, hyper):
        h = 1e-6
        value, d1, d2 = loglik(kind, y, eta, hyper)
        vp = loglik(kind, y, eta + h, hyper)[0]
        vm = loglik(kind, y, eta - h, hyper)[0]
        fd1 = (vp - vm) / (2.0 * h)
        assert d1 == pytest.approx(fd1, rel=FD_RTOL, abs=1e-8)
        h2 = 1e-4
        vp = loglik(kind, y, eta + h2, hyper)[0]
        vm = loglik(kind, y, eta - h2, hyper)[0]
        fd2 = (vp - 2.0 * value + vm) / (h2 * h2)
        assert d2 == pytest.approx(fd2, rel=1e-4, abs=1e-6)

    def test_gaussian_poisson_concave_everywhere(self):
        etas = np.linspace(-3, 3, 25)
        assert np.all(loglik("gaussian", 1.0, etas, 2.0)[2] < 0)
        assert np.all(loglik("poisson", 3.0, etas)[2] < 0)

    def test_gamma_concave_at_conditional_mode(self):
        # d1 = 0 at eta = log(y); curvature there is -rho
        for y, rho in [(0.5, 1.0), (4.0, 2.5)]:
            _, d1, d2 = loglik("gamma", y, np.log(y), rho)
            assert abs(d1) < 1e-12
            assert d2 == pytest.approx(-rho, rel=1e-12)

    def test_lavm_concave_at_conditional_mode(self):
        from scipy.optimize import brentq

        y, kappa = 1.2, 3.0
        d1_of = lambda eta: loglik("lavm", y, eta, kappa)[1]
        mode = brentq(d1_of, -3.0, 3.0)
        assert loglik("lavm", y, mode, kappa)[2] < 0

    def test_lavm_curvature_floor_is_local_concentration(self):
        assert lavm_curvature_floor(1.0, 50.0) == pytest.approx(-201.0, rel=1e-12)
        assert lavm_curvature_floor(0.0, 2.0) == -lavm_approx_concentration(0.0, 2.0)


class TestNormalization:
    def test_gaussian_integrates_to_one(self):
        for eta, tau in [(0.0, 1.0), (1.5, 0.3)]:
            total = quad(
                lambda y: np.exp(loglik("gaussian", y, eta, tau)[0]),
                -np.inf,
                np.inf,
            )[0]
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_poisson_sums_to_one(self):
        for eta in (-1.0, 0.0, 2.0):
            ys = np.arange(0.0, 200.0)
            total = np.exp(loglik("poisson", ys, np.full_like(ys, eta))[0]).sum()
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_gamma_integrates_to_one(self):
        for eta, rho in [(0.0, 1.0), (1.0, 2.5)]:
            total = quad(
                lambda y: np.exp(loglik("gamma", y, eta, rho)[0]), 0.0, np.inf
            )[0]
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_gamma_mean_is_exp_eta(self):
        eta, rho = 0.7, 2.0
        mean = quad(
            lambda y: y * np.exp(loglik("gamma", y, eta, rho)[0]), 0.0, np.inf
        )[0]
        assert mean == pytest.approx(np.exp(eta), rel=1e-9)


class TestFusedLavm:
    """The one-pass lavm loglik against the two public circular functions."""

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 12.0, 400.0])
    def test_bit_identical_to_circular_functions(self, kappa):
        from circfit.circular import lavm_deta_logpdf, lavm_logpdf

        rng = np.random.default_rng(4)
        y = rng.uniform(-3.1, 3.1, 200)
        eta = rng.normal(0.0, 2.0, 200)
        value, d1, d2 = loglik("lavm", y, eta, kappa)
        np.testing.assert_array_equal(value, lavm_logpdf(y, eta, kappa))
        ref_d1, ref_d2 = lavm_deta_logpdf(y, eta, kappa)
        np.testing.assert_array_equal(d1, ref_d1)
        np.testing.assert_array_equal(d2, ref_d2)

    def test_two_dimensional_eta_as_cpo_passes_it(self):
        from circfit.circular import lavm_deta_logpdf, lavm_logpdf

        rng = np.random.default_rng(8)
        y = rng.uniform(-2.5, 2.5, 30)
        eta = rng.normal(0.0, 1.0, (7, 30))
        value, d1, d2 = loglik("lavm", y, eta, 3.0)
        assert value.shape == d1.shape == d2.shape == (7, 30)
        np.testing.assert_array_equal(value, lavm_logpdf(y, eta, 3.0))
        ref_d1, ref_d2 = lavm_deta_logpdf(y, eta, 3.0)
        np.testing.assert_array_equal(d1, ref_d1)
        np.testing.assert_array_equal(d2, ref_d2)

    def test_scalar_inputs_give_floats(self):
        out = loglik("lavm", 0.4, 0.2, 5.0)
        assert all(type(v) is float for v in out)

    @pytest.mark.parametrize(
        "y,eta,kappa,error",
        [
            (np.array([0.1, np.nan]), np.zeros(2), 1.0, ValueError),
            (np.array([0.1, -np.pi + 1e-7]), np.zeros(2), 1.0, ObservationError),
            (np.array([0.1, 0.2]), np.array([0.0, np.inf]), 1.0, ValueError),
            (np.array([0.1, 0.2]), np.array([np.nan, 0.0]), 1.0, ValueError),
            (np.array([0.1, 0.2]), np.zeros(2), -0.5, ValueError),
        ],
    )
    def test_rejects_bad_inputs(self, y, eta, kappa, error):
        with pytest.raises(error):
            loglik("lavm", y, eta, kappa)


class TestDomainErrors:
    def test_poisson_rejects_negative_with_index(self):
        with pytest.raises(ObservationError) as err:
            loglik("poisson", np.array([1.0, -1.0, 2.0]), np.zeros(3))
        assert err.value.indices == [1]

    def test_gamma_rejects_nonpositive(self):
        with pytest.raises(ObservationError) as err:
            loglik("gamma", np.array([0.0, 1.0]), np.zeros(2), 1.0)
        assert err.value.indices == [0]

    def test_lavm_rejects_boundary_band(self):
        with pytest.raises(ObservationError) as err:
            loglik(
                "lavm", np.array([0.1, np.pi - 5e-7, -0.2]), np.zeros(3), 1.0
            )
        assert err.value.indices == [1]

    @pytest.mark.parametrize(
        "family, hyper, y0",
        [
            ("gaussian", 1.0, 0.3),
            ("poisson", None, 2.5),
            ("gamma", 1.0, -1.0),
            ("lavm", 1.0, np.pi),
        ],
    )
    def test_non_finite_response_is_rejected_first(self, family, hyper, y0):
        # y0 breaks the family's own domain rule (none for gaussian): the
        # non-finite responses are reported before it, by their indices
        y = np.array([y0, np.nan, -np.inf, np.inf])
        with pytest.raises(ObservationError, match="must be finite") as err:
            loglik(family, y, np.zeros(4), hyper)
        assert err.value.indices == [1, 2, 3]

    @pytest.mark.parametrize(
        "family, y, offenders",
        [
            ("poisson", [3.0, -1.0, 0.5, 0.0, -2.5, 7.0], [1, 2, 4]),
            ("gamma", [1.0, 0.0, -3.0, 2.5, -0.0], [1, 2, 4]),
            # -pi + 2e-6 lies outside the 1e-6 band
            ("lavm", [0.1, np.pi - 5e-7, -np.pi + 2e-6, -0.4], [1]),
        ],
        ids=["poisson", "gamma", "lavm"],
    )
    def test_response_terms_names_every_offender(self, family, y, offenders):
        with pytest.raises(ObservationError) as err:
            response_terms(family, np.array(y))
        assert err.value.indices == offenders

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            loglik("weibull", 1.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            BlockSpec("y", "weibull", np.zeros(2), ())


class TestValueKernel:
    """``_log_density``, the value alone that cpo's weights read, against
    ``loglik``'s value."""

    @pytest.mark.parametrize(
        "family, hyper, y",
        [
            ("gaussian", 2.5, np.linspace(-2.0, 3.0, 40)),
            ("poisson", None, np.arange(40.0) % 7),
            ("gamma", 1.7, np.linspace(0.1, 6.0, 40)),
            ("lavm", 4.0, np.linspace(-3.0, 3.0, 40)),
        ],
        ids=["gaussian", "poisson", "gamma", "lavm"],
    )
    @pytest.mark.parametrize("layout", ["1-d", "2-d fortran"])
    def test_bit_identical_to_loglik_value(self, family, hyper, y, layout):
        rng = np.random.default_rng(12)
        if layout == "1-d":
            eta = rng.normal(0.0, 1.0, y.size)
        else:
            # cpo's draws: one contiguous column per observation
            eta = np.asfortranarray(rng.normal(0.0, 1.0, (9, y.size)))
        value = _log_density(family, y, eta, hyper, response_terms(family, y))
        expected = loglik(family, y, eta, hyper)[0]
        assert value.shape == expected.shape == eta.shape
        np.testing.assert_array_equal(value, expected)
        if family == "lavm":
            from circfit.circular import lavm_logpdf

            np.testing.assert_array_equal(lavm_logpdf(y, eta, hyper), expected)

    @pytest.mark.parametrize(
        "family, eta, hyper",
        [
            ("gaussian", np.zeros(2), 0.0),
            ("lavm", np.zeros(2), -0.5),
            ("lavm", np.array([0.0, np.nan]), 1.0),
        ],
        ids=["gaussian tau", "lavm kappa", "lavm eta"],
    )
    def test_keeps_the_checks_of_loglik(self, family, eta, hyper):
        y = np.array([0.1, 0.2])
        with pytest.raises(ValueError):
            _log_density(family, y, eta, hyper, response_terms(family, y))
