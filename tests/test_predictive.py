"""Tests for posterior sampling, predictive draws, forecasting and CPO.

Monte-Carlo checks run on fixed seeds with tolerances set from the standard
errors of the quantities involved; analytic references come from dense
Gaussian algebra on small models.
"""

import numpy as np
import pytest
from scipy.sparse._compressed import _cs_matrix
from scipy.special import i0, i1, logsumexp
from scipy.stats import gaussian_kde, norm

from circfit.inference import fit_model, gaussian_approx, latent_marginals
from circfit.likelihoods import loglik
from circfit.model import (
    BlockSpec,
    ComponentSpec,
    FixedEffectSpec,
    ModelSpec,
    TermSpec,
    build_model,
)
from circfit.predictive import (
    CpoResult,
    ForecastTask,
    _density_summary,
    _extend_component,
    _harmonic_cpo,
    _scott_bandwidth,
    cpo,
    forecast,
    posterior_predictive,
    sample_posterior,
)
from circfit.priors import ConfigurationError, PriorSpec
from circfit.studies import SIM2_TRUTH, generate_sim2, sim2_spec
from dense_reference import design, prior


def diagonal_model(n=20, seed=3, lam=2.0, tau=3.0):
    """Gaussian observations of an exchangeable component, no intercept:
    the posterior precision is diagonal."""
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1.0, n)
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "gaussian",
                y,
                (TermSpec("component", "u"),),
                hyper="tau",
            ),
        ),
        components=(ComponentSpec("u", "iid", n, precision_hyper="lam"),),
        hypers={
            "lam": PriorSpec("fixed", (lam,)),
            "tau": PriorSpec("fixed", (tau,)),
        },
    )
    return build_model(spec)


def rw2_model(n=24, seed=7):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n)
    y = np.sin(2.0 * np.pi * t) + rng.normal(0.0, 0.4, n)
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "gaussian",
                y,
                (
                    TermSpec("intercept", "mu"),
                    TermSpec("component", "w"),
                ),
                hyper="tau",
            ),
        ),
        components=(ComponentSpec("w", "rw2", n, precision_hyper="lam"),),
        fixed_effects=(FixedEffectSpec("mu", 1.0),),
        hypers={
            "lam": PriorSpec("fixed", (2.0,)),
            "tau": PriorSpec("fixed", (4.0,)),
        },
    )
    return build_model(spec)


def tau_free_model(n=30, seed=9):
    rng = np.random.default_rng(seed)
    y = rng.normal(1.0, 0.6, n)
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "gaussian",
                y,
                (TermSpec("intercept", "mu"),),
                hyper="tau",
            ),
        ),
        fixed_effects=(FixedEffectSpec("mu", 1.0),),
        hypers={"tau": PriorSpec("pc_precision", (0.5, 0.5))},
    )
    return build_model(spec)


def pinned_eta_model(family, y, hyper_name, hyper_value):
    """A block whose predictor is pinned at zero by a tiny coefficient
    prior, so predictive draws come straight from the family."""
    hypers = {}
    hyper = None
    if hyper_name is not None:
        hypers[hyper_name] = PriorSpec("fixed", (hyper_value,))
        hyper = hyper_name
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "b",
                family,
                y,
                (TermSpec("intercept", "c0"),),
                hyper=hyper,
            ),
        ),
        fixed_effects=(FixedEffectSpec("c0", 1e-9),),
        hypers=hypers,
    )
    return build_model(spec)


def ar2_model(n=120, seed=13, p1=0.55, p2=-0.2, lam=1.0, tau=25.0):
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1.0, n)
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "gaussian",
                y,
                (TermSpec("component", "v"),),
                hyper="tau",
            ),
        ),
        components=(
            ComponentSpec(
                "v", "ar2", n, precision_hyper="lam", pacf_hypers=("p1", "p2")
            ),
        ),
        hypers={
            "lam": PriorSpec("fixed", (lam,)),
            "tau": PriorSpec("fixed", (tau,)),
            "p1": PriorSpec("fixed", (p1,)),
            "p2": PriorSpec("fixed", (p2,)),
        },
    )
    return build_model(spec)


class TestSamplePosterior:
    def test_single_point_moments_match_gaussian(self):
        m = diagonal_model()
        fit = fit_model(m)
        assert len(fit.points) == 1
        rng = np.random.default_rng(42)
        samples = sample_posterior(fit, 10_000, rng)
        draws = np.stack([s.latent for s in samples])
        mean = fit.points[0].approx.mode
        sd = fit.points[0].approx.marginal_sd()
        S = draws.shape[0]
        np.testing.assert_array_less(
            np.abs(draws.mean(axis=0) - mean), 4.0 * sd / np.sqrt(S)
        )
        np.testing.assert_array_less(
            np.abs(draws.std(axis=0) - sd), 4.0 * sd / np.sqrt(2.0 * S)
        )

    def test_constraints_hold_on_every_draw(self):
        m = rw2_model()
        fit = fit_model(m)
        rng = np.random.default_rng(1)
        samples = sample_posterior(fit, 500, rng)
        C = m.constraints
        worst = max(np.abs(C @ s.latent).max() for s in samples)
        assert worst < 1e-8

    def test_mixture_mean_consistency(self):
        m = tau_free_model()
        fit = fit_model(m)
        rng = np.random.default_rng(5)
        samples = sample_posterior(fit, 10_000, rng)
        draws = np.stack([s.latent for s in samples])
        ref = fit.latent_summary["mean"]
        sd = fit.latent_summary["sd"]
        se = 3.0 * sd / np.sqrt(draws.shape[0])
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - ref), se)

    def test_samples_carry_predictors(self):
        m = diagonal_model()
        fit = fit_model(m)
        samples = sample_posterior(fit, 3, np.random.default_rng(0))
        for s in samples:
            A = design(m, "y", s.theta)
            np.testing.assert_array_equal(s.predictors["y"], A @ s.latent)


def kde_reference(pooled, grid, circular):
    """scipy's gaussian_kde at the grid, over three shifted copies of the
    draws for circular data so the density wraps at +-pi."""
    if circular:
        padded = np.concatenate(
            [pooled - 2.0 * np.pi, pooled, pooled + 2.0 * np.pi]
        )
        kde = gaussian_kde(padded)
        return 3.0 * kde(grid), kde
    kde = gaussian_kde(pooled)
    return kde(grid), kde


def assert_harmonic_matches_reference(logu):
    """_harmonic_cpo against the two-logsumexp form of the truncated
    harmonic-mean CPO."""
    S = logu.shape[0]
    cap = np.quantile(logu, 0.999, axis=0)
    lu = np.minimum(logu, cap[None, :])
    lse = logsumexp(lu, axis=0)
    log_cpo = np.log(S) - lse
    ess = np.exp(2.0 * lse - logsumexp(2.0 * lu, axis=0))
    block = _harmonic_cpo(logu)
    np.testing.assert_allclose(block.log_cpo, log_cpo, rtol=1e-12, atol=0)
    np.testing.assert_allclose(block.ess, ess, rtol=1e-10, atol=0)
    np.testing.assert_array_equal(block.flagged, ess < 10.0)


class TestDensitySummary:
    @pytest.mark.parametrize("kappa", [0.5, 2.0, 8.0, 50.0])
    @pytest.mark.parametrize("mu", [np.pi - 0.05, -np.pi + 0.2])
    def test_circular_density_matches_padded_kde(self, kappa, mu):
        rng = np.random.default_rng(int(10 * kappa))
        draws = np.angle(np.exp(1j * rng.vonmises(mu, kappa, (300, 20))))
        out = _density_summary(draws, circular=True)
        ref, kde = kde_reference(draws.ravel(), out["grid"], circular=True)
        assert np.max(np.abs(out["density"] - ref)) <= 1e-5 * ref.max()
        h = _scott_bandwidth(kde.dataset.ravel())
        assert h**2 == pytest.approx(kde.covariance[0, 0], rel=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "gamma", "poisson"])
    def test_linear_density_matches_kde(self, family):
        rng = np.random.default_rng(4)
        draws = {
            "gaussian": lambda: rng.normal(1.5, 2.0, (300, 20)),
            "gamma": lambda: rng.gamma(1.5, 2.0, (300, 20)),
            "poisson": lambda: rng.poisson(2.5, (300, 20)).astype(float),
        }[family]()
        out = _density_summary(draws, circular=False)
        ref, kde = kde_reference(draws.ravel(), out["grid"], circular=False)
        assert np.max(np.abs(out["density"] - ref)) <= 1e-5 * ref.max()
        h = _scott_bandwidth(kde.dataset.ravel())
        assert h**2 == pytest.approx(kde.covariance[0, 0], rel=1e-12)

    @pytest.mark.parametrize("value", [0.7, 3.0])
    def test_zero_spread_draws_raise(self, value):
        with pytest.raises(np.linalg.LinAlgError):
            _density_summary(np.full((30, 4), value), circular=False)


class TestPosteriorPredictive:
    def test_gaussian_pinned_predictor_draws_from_family(self):
        tau = 4.0
        y = np.array([0.1, -0.2, 0.05, 0.12])
        m = pinned_eta_model("gaussian", y, "tau", tau)
        fit = fit_model(m)
        out = posterior_predictive(fit, "b", n=5000, rng=np.random.default_rng(2))
        pooled = out["draws"].ravel()
        S = pooled.size
        assert abs(pooled.mean()) < 4.0 * tau**-0.5 / np.sqrt(S)
        assert abs(pooled.std() - tau**-0.5) < 4.0 * tau**-0.5 / np.sqrt(2 * S)

    def test_circular_pinned_predictor_matches_von_mises(self):
        kappa = 4.0
        y = np.array([0.3, -0.4, 0.1])
        m = pinned_eta_model("lavm", y, "kappa", kappa)
        fit = fit_model(m)
        out = posterior_predictive(fit, "b", n=8000, rng=np.random.default_rng(3))
        pooled = out["draws"].ravel()
        assert np.all(pooled > -np.pi) and np.all(pooled < np.pi)
        resultant = i1(kappa) / i0(kappa)
        assert abs(np.cos(pooled).mean() - resultant) < 0.02
        assert abs(np.sin(pooled).mean()) < 0.02

    def test_poisson_predictive_mean_matches_rate_mixture(self):
        rng = np.random.default_rng(11)
        counts = rng.poisson(np.exp(0.4), 25).astype(float)
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "c",
                    "poisson",
                    counts,
                    (TermSpec("intercept", "c0"),),
                ),
            ),
            fixed_effects=(FixedEffectSpec("c0", 1.0),),
        )
        m = build_model(spec)
        fit = fit_model(m)
        out = posterior_predictive(fit, "c", n=10_000, rng=np.random.default_rng(4))
        rate_draws = np.exp(
            np.stack(
                [
                    s.predictors["c"]
                    for s in sample_posterior(
                        fit, 10_000, np.random.default_rng(4)
                    )
                ]
            )
        )
        se = 3.0 * out["draws"].std() / np.sqrt(out["draws"].size)
        assert abs(out["draws"].mean() - rate_draws.mean()) < se + 1e-3

    def test_summary_series_are_consistent(self):
        m = pinned_eta_model("gaussian", np.array([0.0, 0.1]), "tau", 2.0)
        fit = fit_model(m)
        out = posterior_predictive(fit, "b", n=2000, rng=np.random.default_rng(6))
        widths = np.diff(out["hist_edges"])
        assert np.sum(out["hist_density"] * widths) == pytest.approx(1.0)
        assert np.trapezoid(out["density"], out["grid"]) == pytest.approx(
            1.0, abs=0.05
        )

    def test_new_inputs_index_past_component_raises(self):
        m = diagonal_model(n=20)
        fit = fit_model(m)
        with pytest.raises(ConfigurationError, match="forecast"):
            posterior_predictive(
                fit,
                "y",
                new_inputs={"size": 2, "indices": {"u": np.array([5, 20])}},
                n=10,
            )

    def test_new_inputs_missing_covariate_raises(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=12)
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "gaussian",
                    rng.normal(size=12),
                    (
                        TermSpec("intercept", "b0"),
                        TermSpec("fixed", "b1", covariate="z"),
                    ),
                    hyper="tau",
                ),
            ),
            fixed_effects=(FixedEffectSpec("b0", 1.0), FixedEffectSpec("b1", 1.0)),
            hypers={"tau": PriorSpec("fixed", (1.0,))},
            covariates={"z": z},
        )
        fit = fit_model(build_model(spec))
        with pytest.raises(ConfigurationError, match="covariate"):
            posterior_predictive(fit, "y", new_inputs={"size": 3}, n=10)

    def test_fitted_inputs_as_new_inputs_match_fitted_draws(self):
        # intercept, fixed, component and shared terms: the new-input
        # predictors at the fitted covariates and node maps must equal the
        # fitted design's, at every exploration point
        n = 30
        rng = np.random.default_rng(7)
        signal = np.sin(2.0 * np.pi * np.arange(n) / n)
        z = rng.normal(size=n)
        x = 2.0 * np.arctan(0.3 + 0.8 * signal) + rng.vonmises(0.0, 8.0, n)
        y = 0.5 + 0.7 * z + 0.8 * signal + rng.normal(0.0, 0.3, n)
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "x",
                    "lavm",
                    np.clip(x, -3.0, 3.0),
                    (
                        TermSpec("intercept", "a0"),
                        TermSpec("component", "w", scale="a1"),
                    ),
                    hyper="kappa",
                ),
                BlockSpec(
                    "y",
                    "gaussian",
                    y,
                    (
                        TermSpec("intercept", "b0"),
                        TermSpec("fixed", "beta", covariate="z"),
                        TermSpec("shared", "x", scale="b1"),
                    ),
                    hyper="tau",
                ),
            ),
            components=(ComponentSpec("w", "iid", n),),
            fixed_effects=(
                FixedEffectSpec("a0"),
                FixedEffectSpec("b0"),
                FixedEffectSpec("beta"),
            ),
            hypers={
                "kappa": PriorSpec("fixed", (8.0,)),
                "tau": PriorSpec("fixed", (10.0,)),
                "a1": PriorSpec("pc_scale", (0.5, 0.5)),
                "b1": PriorSpec("gaussian", (0.0, 1.0)),
            },
            covariates={"z": z},
        )
        fit = fit_model(build_model(spec))
        assert len(fit.points) > 1
        inputs = {
            "size": n,
            "covariates": spec.covariates,
            "indices": {"w": np.arange(n)},
        }
        for block in ("x", "y"):
            fitted = posterior_predictive(
                fit, block, n=200, rng=np.random.default_rng(3)
            )["draws"]
            new = posterior_predictive(
                fit, block, new_inputs=inputs, n=200,
                rng=np.random.default_rng(3),
            )["draws"]
            np.testing.assert_allclose(new, fitted, rtol=0.0, atol=1e-12)


class TestForecast:
    def test_task_validation(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            ForecastTask(horizon=0, origins=(5,))
        with pytest.raises(ConfigurationError, match="origin"):
            ForecastTask(horizon=3, origins=())

    @pytest.mark.parametrize(
        "horizon, origins, name",
        [
            (2.5, (3,), "horizon must be"),
            (2, (3.7,), "origins must be integers"),
            (2, (3, 4.0), "origins must be integers"),
        ],
    )
    def test_non_integer_task_is_rejected(self, horizon, origins, name):
        # an origin of 3.7 used to be truncated to 3, and a horizon of 2.5
        # was accepted
        with pytest.raises(ConfigurationError, match=name):
            ForecastTask(horizon=horizon, origins=origins)

    def test_ar2_extension_decays_for_every_draw(self):
        m = ar2_model()
        theta = m.theta_natural(m.initial_internal())
        approx = gaussian_approx(m, theta)
        rng = np.random.default_rng(8)
        w = approx.sample(rng, 50)
        # silence the innovations so the paths trace the conditional means
        quiet = dict(theta, lam=1e12)
        comp = m.spec.components[0]
        path = _extend_component(m, comp, quiet, w, t0=119, horizon=60, rng=rng)
        amp = np.abs(path).mean(axis=0)
        assert np.all(np.abs(path[:, -1]) < 1e-4)
        assert amp[-1] < 0.01 * amp[0]

    def test_cyclic_extension_repeats_fitted_cycle(self):
        period, n = 6, 18
        rng = np.random.default_rng(10)
        y = np.tile(np.sin(2 * np.pi * np.arange(period) / period), 3)
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "gaussian",
                    y + rng.normal(0.0, 0.1, n),
                    (TermSpec("component", "s"),),
                    hyper="tau",
                ),
            ),
            components=(
                ComponentSpec(
                    "s", "cyclic_rw2", n, period=period, precision_hyper="lam"
                ),
            ),
            hypers={
                "tau": PriorSpec("fixed", (25.0,)),
                "lam": PriorSpec("fixed", (1.0,)),
            },
        )
        m = build_model(spec)
        theta = m.theta_natural(m.initial_internal())
        approx = gaussian_approx(m, theta)
        w = approx.sample(np.random.default_rng(1), 20)
        comp = m.spec.components[0]
        t0, H = 17, 13
        path = _extend_component(
            m, comp, theta, w, t0=t0, horizon=H, rng=np.random.default_rng(2)
        )
        idx = (t0 + 1 + np.arange(H)) % period
        np.testing.assert_array_equal(path, w[:, m.comp_offsets["s"] + idx])

    def test_rw2_component_is_not_extendable(self):
        m = rw2_model()
        fit = fit_model(m)
        task = ForecastTask(horizon=2, origins=(23,))
        with pytest.raises(ConfigurationError, match="extended"):
            forecast(fit, task, rng=np.random.default_rng(0), n_draws=20)

    def test_cyclic_component_with_index_map_is_not_forecast(self):
        # the map shifts the phase by two; extending by time modulo the
        # period would forecast the cycle out of phase
        period, n = 6, 36
        t = np.arange(n)
        idx = (t + 2) % period
        cycle = 2.0 * np.sin(2.0 * np.pi * np.arange(period) / period)
        y = cycle[idx] + np.random.default_rng(0).normal(0.0, 0.05, n)
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "gaussian",
                    y,
                    (TermSpec("component", "s", indices=tuple(idx)),),
                    hyper="tau",
                ),
            ),
            components=(
                ComponentSpec(
                    "s", "cyclic_rw2", n, period=period, precision_hyper="lam"
                ),
            ),
            hypers={
                "tau": PriorSpec("fixed", (400.0,)),
                "lam": PriorSpec("fixed", (1.0,)),
            },
        )
        fit = fit_model(build_model(spec))
        task = ForecastTask(horizon=6, origins=(n - 1,))
        with pytest.raises(ConfigurationError, match="explicit indices"):
            forecast(fit, task, rng=np.random.default_rng(0), n_draws=20)

    def test_interval_width_grows_with_horizon(self):
        # slow mean reversion keeps the predictive variance growing over
        # the whole horizon instead of plateauing after a few steps
        m = ar2_model(n=150, tau=400.0, p1=0.93, p2=0.5)
        fit = fit_model(m)
        task = ForecastTask(horizon=20, origins=(149,))
        res = forecast(fit, task, rng=np.random.default_rng(3), n_draws=8000)
        width = (res.blocks["y"]["q975"] - res.blocks["y"]["q025"])[0]
        assert np.all(width[1:] >= width[:-1] * 0.97)
        assert width[0] < width[4] < width[9] < width[19]

    def test_coverage_on_self_generated_ar2_series(self):
        # pooled over three independent series: a single path has too few
        # effective cells (origin windows overlap) for a stable rate
        p1, p2, sd_lat, sd_obs = 0.6, -0.25, 1.0, 0.35
        n_fit, n_all, H = 360, 460, 24
        a1, a2 = p1 * (1.0 - p2), p2
        innov = np.sqrt((1.0 - p1**2) * (1.0 - p2**2)) * sd_lat

        hits = total = 0
        for seed in (99, 7, 2026):
            rng = np.random.default_rng(seed)
            lat = np.zeros(n_all)
            lat[0], lat[1] = rng.normal(0, sd_lat, 2)
            for t in range(2, n_all):
                lat[t] = a1 * lat[t - 1] + a2 * lat[t - 2] + rng.normal(0, innov)
            y_all = 0.7 + lat + rng.normal(0.0, sd_obs, n_all)

            spec = ModelSpec(
                blocks=(
                    BlockSpec(
                        "y",
                        "gaussian",
                        y_all[:n_fit],
                        (
                            TermSpec("intercept", "b0"),
                            TermSpec("component", "v"),
                        ),
                        hyper="tau",
                    ),
                ),
                components=(
                    ComponentSpec(
                        "v",
                        "ar2",
                        n_fit,
                        precision_hyper="lam",
                        pacf_hypers=("p1", "p2"),
                    ),
                ),
                fixed_effects=(FixedEffectSpec("b0", 1.0),),
                hypers={
                    "tau": PriorSpec("pc_precision", (1.0, 0.5)),
                    "lam": PriorSpec("pc_precision", (1.0, 0.5)),
                    "p1": PriorSpec("fixed", (p1,)),
                    "p2": PriorSpec("fixed", (p2,)),
                },
            )
            fit = fit_model(build_model(spec))
            # origins straddle the end of the sample on purpose
            origins = tuple(range(n_fit - 48, n_fit + 24, 3))
            task = ForecastTask(horizon=H, origins=origins)
            res = forecast(
                fit, task, rng=np.random.default_rng(seed + 1), n_draws=600
            )
            b = res.blocks["y"]
            for oi, t0 in enumerate(origins):
                truth = y_all[t0 + 1 : t0 + 1 + H]
                hits += int(
                    np.sum((truth >= b["q025"][oi]) & (truth <= b["q975"][oi]))
                )
                total += H
        assert total == 3 * 24 * 24
        assert hits / total >= 0.90

    def test_future_covariates_are_consumed(self):
        rng = np.random.default_rng(14)
        n = 40
        z = rng.normal(size=n)
        y = 0.5 + 1.2 * z + rng.normal(0.0, 0.2, n)
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "gaussian",
                    y,
                    (
                        TermSpec("intercept", "b0"),
                        TermSpec("fixed", "b1", covariate="z"),
                    ),
                    hyper="tau",
                ),
            ),
            fixed_effects=(FixedEffectSpec("b0", 1.0), FixedEffectSpec("b1", 1.0)),
            hypers={"tau": PriorSpec("fixed", (25.0,))},
            covariates={"z": z},
        )
        fit = fit_model(build_model(spec))
        task = ForecastTask(horizon=2, origins=(n - 1,))
        with pytest.raises(ConfigurationError, match="'z'"):
            forecast(fit, task, rng=np.random.default_rng(0), n_draws=10)

        z_full = np.concatenate([z, [2.0, -2.0]])
        task = ForecastTask(
            horizon=2, origins=(n - 1,), future_covariates={"z": z_full}
        )
        res = forecast(fit, task, rng=np.random.default_rng(0), n_draws=2000)
        mean = res.blocks["y"]["mean"][0]
        assert mean[0] == pytest.approx(0.5 + 1.2 * 2.0, abs=0.1)
        assert mean[1] == pytest.approx(0.5 - 1.2 * 2.0, abs=0.1)

    def test_short_future_covariate_raises(self):
        rng = np.random.default_rng(15)
        n = 20
        z = rng.normal(size=n)
        y = z + rng.normal(0.0, 0.3, n)
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "gaussian",
                    y,
                    (TermSpec("fixed", "b1", covariate="z"),),
                    hyper="tau",
                ),
            ),
            fixed_effects=(FixedEffectSpec("b1", 1.0),),
            hypers={"tau": PriorSpec("fixed", (10.0,))},
            covariates={"z": z},
        )
        fit = fit_model(build_model(spec))
        task = ForecastTask(
            horizon=5,
            origins=(n - 1,),
            future_covariates={"z": np.concatenate([z, [0.1, 0.2]])},
        )
        with pytest.raises(ConfigurationError, match="runs out"):
            forecast(fit, task, rng=np.random.default_rng(0), n_draws=10)


class TestCpo:
    def test_conjugate_single_observation_matches_prior_predictive(self):
        # prior sd kept small so the importance weights have finite variance
        y0, tau, prior_sd = 1.0, 1.0, 0.5
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "gaussian",
                    np.array([y0]),
                    (TermSpec("intercept", "mu"),),
                    hyper="tau",
                ),
            ),
            fixed_effects=(FixedEffectSpec("mu", prior_sd),),
            hypers={"tau": PriorSpec("fixed", (tau,))},
        )
        fit = fit_model(build_model(spec))
        res = cpo(fit, n_draws=40_000, rng=np.random.default_rng(7))
        ref = norm.logpdf(y0, 0.0, np.sqrt(prior_sd**2 + 1.0 / tau))
        assert res.blocks["y"].log_cpo[0] == pytest.approx(ref, abs=0.05)

    def test_gm_cpo_of_identical_values(self):
        logu = np.tile(np.linspace(-1.0, 1.0, 200)[:, None], (1, 4))
        block = _harmonic_cpo(logu)
        for c in block.cpo:
            assert block.gm_cpo == pytest.approx(c)
        assert block.looic == pytest.approx(-2.0 * block.log_cpo.sum())

    def test_importance_cpo_matches_leave_one_out_algebra(self):
        # lam + tau > 2 tau keeps the importance weight variance finite
        m = diagonal_model(n=20, lam=4.0, tau=1.5)
        theta = m.theta_natural(m.initial_internal())
        fit = fit_model(m)
        res = cpo(fit, n_draws=30_000, rng=np.random.default_rng(17))

        Qp, _ = prior(m, theta)
        A = design(m, "y", theta)
        tau = theta["tau"]
        y = m.blocks["y"].responses
        ref = np.empty(20)
        for i in range(20):
            keep = np.arange(20) != i
            Ai = A[keep]
            Qi = Qp + tau * Ai.T @ Ai
            cov = np.linalg.inv(Qi)
            mu = cov @ (tau * Ai.T @ y[keep])
            var = A[i] @ cov @ A[i] + 1.0 / tau
            ref[i] = norm.logpdf(y[i], A[i] @ mu, np.sqrt(var))
        close = np.abs(res.blocks["y"].log_cpo - ref) <= 0.05
        assert close.sum() >= 18

    def test_metrics_invariant_to_observation_order(self):
        def intercept_model(y):
            spec = ModelSpec(
                blocks=(
                    BlockSpec(
                        "y",
                        "gaussian",
                        y,
                        (TermSpec("intercept", "mu"),),
                        hyper="tau",
                    ),
                ),
                fixed_effects=(FixedEffectSpec("mu", 1.0),),
                hypers={"tau": PriorSpec("fixed", (2.0,))},
            )
            return build_model(spec)

        y = np.random.default_rng(31).normal(0.3, 0.8, 30)
        perm = np.random.default_rng(3).permutation(30)
        ra = cpo(
            fit_model(intercept_model(y)),
            n_draws=2000,
            rng=np.random.default_rng(20),
        )
        rb = cpo(
            fit_model(intercept_model(y[perm])),
            n_draws=2000,
            rng=np.random.default_rng(20),
        )
        assert ra.blocks["y"].gm_cpo == pytest.approx(
            rb.blocks["y"].gm_cpo, abs=1e-9
        )
        assert ra.blocks["y"].looic == pytest.approx(
            rb.blocks["y"].looic, abs=1e-9
        )
        np.testing.assert_allclose(
            ra.blocks["y"].log_cpo[perm], rb.blocks["y"].log_cpo, atol=1e-9
        )

    def test_joint_weights_multiply(self):
        rng = np.random.default_rng(23)
        n = 15
        y = rng.normal(0.0, 1.0, n)
        z = rng.normal(0.0, 1.0, n)
        tau_z = 3.0
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "gaussian",
                    y,
                    (TermSpec("intercept", "mu"),),
                    hyper="tau",
                ),
                BlockSpec(
                    "z",
                    "gaussian",
                    z,
                    (TermSpec("intercept", "c0"),),
                    hyper="tau_z",
                ),
            ),
            fixed_effects=(
                FixedEffectSpec("mu", 1.0),
                FixedEffectSpec("c0", 1e-9),
            ),
            hypers={
                "tau": PriorSpec("fixed", (2.0,)),
                "tau_z": PriorSpec("fixed", (tau_z,)),
            },
        )
        fit = fit_model(build_model(spec))
        res = cpo(fit, n_draws=4000, rng=np.random.default_rng(2), joint=("y", "z"))
        assert isinstance(res, CpoResult)
        assert res.joint_blocks == ("y", "z")
        # the second block's predictor is pinned, so its weights are constant
        # across draws and the joint metric separates exactly
        const = loglik("gaussian", z, np.zeros(n), tau_z)[0]
        np.testing.assert_allclose(
            res.joint.log_cpo, res.blocks["y"].log_cpo + const, atol=1e-6
        )

    def test_joint_requires_matching_sizes(self):
        rng = np.random.default_rng(29)
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "gaussian",
                    rng.normal(size=8),
                    (TermSpec("intercept", "mu"),),
                    hyper="tau",
                ),
                BlockSpec(
                    "z",
                    "gaussian",
                    rng.normal(size=5),
                    (TermSpec("intercept", "c0"),),
                    hyper="tau_z",
                ),
            ),
            fixed_effects=(
                FixedEffectSpec("mu", 1.0),
                FixedEffectSpec("c0", 1.0),
            ),
            hypers={
                "tau": PriorSpec("fixed", (1.0,)),
                "tau_z": PriorSpec("fixed", (1.0,)),
            },
        )
        fit = fit_model(build_model(spec))
        with pytest.raises(ConfigurationError, match="matching"):
            cpo(fit, n_draws=200, rng=np.random.default_rng(0), joint=("y", "z"))

    def test_degenerate_weights_are_flagged(self):
        logu = np.zeros((200, 2))
        logu[0, 1] = 60.0
        block = _harmonic_cpo(logu)
        assert not block.flagged[0]
        assert block.flagged[1]
        assert block.ess[1] < 10.0

    @pytest.mark.parametrize("spread", [0.1, 3.0, 30.0])
    def test_one_pass_matches_logsumexp_form(self, spread):
        rng = np.random.default_rng(int(spread * 10))
        logu = rng.normal(2.0, spread, (4000, 50))
        logu[:, :5] += rng.gamma(0.3, 20.0, (4000, 5))
        assert_harmonic_matches_reference(logu)

    def test_one_pass_flags_the_degenerate_weights_alike(self):
        logu = np.zeros((200, 2))
        logu[0, 1] = 60.0
        assert_harmonic_matches_reference(logu)


def two_block_model(n=6, seed=41):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "gaussian",
                rng.normal(size=n),
                (TermSpec("intercept", "mu"),),
                hyper="tau",
            ),
            BlockSpec(
                "z",
                "gaussian",
                rng.normal(size=n),
                (TermSpec("intercept", "c0"),),
                hyper="tau_z",
            ),
        ),
        fixed_effects=(FixedEffectSpec("mu", 1.0), FixedEffectSpec("c0", 1.0)),
        hypers={
            "tau": PriorSpec("pc_precision", (0.5, 0.5)),
            "tau_z": PriorSpec("fixed", (2.0,)),
        },
    )
    return build_model(spec)


@pytest.fixture(scope="module")
def two_block_fit():
    return fit_model(two_block_model())


class TestQueryArguments:
    @pytest.mark.parametrize("n_draws", [0, -1, 2.5])
    def test_cpo_needs_a_draw(self, two_block_fit, n_draws):
        with pytest.raises(ConfigurationError, match="n_draws"):
            cpo(two_block_fit, n_draws=n_draws)

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_posterior_predictive_needs_a_draw(self, two_block_fit, n):
        with pytest.raises(ConfigurationError, match="n must be at least 1"):
            posterior_predictive(two_block_fit, "y", n=n)

    @pytest.mark.parametrize("n_draws", [0, -1, 2.5])
    def test_forecast_needs_a_draw(self, two_block_fit, n_draws):
        task = ForecastTask(horizon=1, origins=(3,))
        with pytest.raises(ConfigurationError, match="n_draws"):
            forecast(two_block_fit, task, n_draws=n_draws)

    def test_sample_posterior_takes_zero_but_not_fewer_draws(
        self, two_block_fit
    ):
        assert sample_posterior(two_block_fit, 0, np.random.default_rng(0)) == []
        for n in (-1, 2.5):
            with pytest.raises(ConfigurationError, match="n must be at least 0"):
                sample_posterior(two_block_fit, n, np.random.default_rng(0))

    @pytest.mark.parametrize("joint", [("y", "nope"), ("nope", "z")])
    def test_unknown_joint_block_is_named(self, two_block_fit, joint):
        with pytest.raises(ConfigurationError, match="'nope'"):
            cpo(two_block_fit, n_draws=10, joint=joint)

    @pytest.mark.parametrize("joint", [("y",), ("y", "z", "y"), ()])
    def test_joint_must_be_two_block_names(self, two_block_fit, joint):
        with pytest.raises(ConfigurationError, match="joint must be exactly"):
            cpo(two_block_fit, n_draws=10, joint=joint)

    @pytest.mark.parametrize("inputs", [
        {"indices": {}}, {"size": 0}, {"size": -1}, {"size": 2.5},
    ])
    def test_new_inputs_size_must_be_a_positive_integer(
        self, two_block_fit, inputs
    ):
        with pytest.raises(ConfigurationError, match=r"\['size'\] must be"):
            posterior_predictive(two_block_fit, "y", new_inputs=inputs, n=10)

    def test_joint_block_named_twice_is_refused(self, two_block_fit):
        # a block with itself would square its weights
        with pytest.raises(ConfigurationError, match="'y' twice"):
            cpo(two_block_fit, n_draws=10, joint=("y", "y"))

    def test_weights_fill_every_draw_row_once(self, two_block_fit):
        # the draws spread over several exploration points, each filling
        # its own rows of the preallocated weights
        assert len(two_block_fit.points) > 1
        rng = np.random.default_rng(4)
        res = cpo(two_block_fit, n_draws=300, rng=rng)
        rng = np.random.default_rng(4)
        samples = sample_posterior(two_block_fit, 300, rng)
        for name, blk in two_block_fit.model.blocks.items():
            logu = np.array(
                [
                    -loglik(
                        blk.family,
                        blk.responses,
                        s.predictors[name],
                        s.theta[blk.hyper],
                    )[0]
                    for s in samples
                ]
            )
            np.testing.assert_allclose(
                res.blocks[name].log_cpo,
                _harmonic_cpo(logu).log_cpo,
                rtol=1e-12,
                atol=1e-14,
            )


class TestHarmonicCap:
    @pytest.mark.parametrize("S", [1, 2, 200, 4000])
    def test_either_layout_matches_the_quantile_form(self, S):
        rng = np.random.default_rng(S)
        logu = rng.normal(0.0, 4.0, (S, 30))
        logu[:, :3] += rng.gamma(0.3, 20.0, (S, 3))
        assert_harmonic_matches_reference(np.ascontiguousarray(logu))
        assert_harmonic_matches_reference(np.asfortranarray(logu))

    @pytest.mark.parametrize("S", [1, 2, 200, 4000])
    def test_layout_does_not_change_the_result(self, S):
        rng = np.random.default_rng(S + 1)
        logu = rng.normal(1.0, 6.0, (S, 25))
        c_order = np.ascontiguousarray(logu)
        kept = c_order.copy()
        a = _harmonic_cpo(c_order)
        b = _harmonic_cpo(np.asfortranarray(logu))
        np.testing.assert_array_equal(c_order, kept)
        for name in ("cpo", "log_cpo", "ess", "flagged"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert (a.gm_cpo, a.looic) == (b.gm_cpo, b.looic)

    @pytest.mark.parametrize("S", [2, 200, 800])
    def test_cap_is_the_linear_quantile_bit_for_bit(self, S):
        # one heavy draw: every other weight vanishes beside the capped
        # one, so log cpo = log S - cap exactly; S = 800 takes numpy's
        # t < 0.5 branch, S = 2 and 200 its t >= 0.5 branch
        logu = np.full((S, 1), -300.0)
        logu[S // 3, 0] = 5.0
        cap = np.quantile(logu, 0.999, axis=0)
        assert _harmonic_cpo(logu).log_cpo[0] == np.log(S) - cap[0]


class TestQueryRound:
    def test_query_round_constructs_no_compressed_sparse_matrix(
        self, monkeypatch
    ):
        # every query sums the terms' nodes and coefficients directly
        data = generate_sim2(100, SIM2_TRUTH, np.random.default_rng(1000))
        m = build_model(sim2_spec(data))
        fit = fit_model(m)
        built = []
        original = _cs_matrix.__init__

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(_cs_matrix, "__init__", counting)
        rng = np.random.default_rng(0)
        cpo(fit, n_draws=400, rng=rng)
        for name in m.blocks:
            posterior_predictive(fit, name, n=50, rng=rng)
        sample_posterior(fit, 50, rng)
        assert built == []
