"""Tests for the Laplace-approximation engine.

Gaussian-likelihood models are exact under the approximation, so generalized
least squares computed densely with numpy/scipy (``dense_reference``) serves
as the reference for modes, marginal standard deviations and evidence
values; the same module's dense prior, design and Newton matrices are the
reference for the engine's value arrays.  The non-Gaussian
checks use scalar models whose mode equations have closed forms or can be
solved by bracketing.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import null_space
from scipy.sparse._compressed import _cs_matrix
from scipy.optimize import minimize_scalar
from scipy.special import ndtr
from scipy.stats import norm

import circfit
import dense_reference as dref
from circfit import inference
from circfit.circular import lavm_sample
from circfit.inference import (
    CURVATURE_MIN,
    HyperEvaluator,
    InferenceError,
    _curvatures,
    _factor_spd,
    _fallback_curvatures,
    _mixture_quantiles,
    _natural_grid_summary,
    _spd_directions,
    explore_theta,
    fit_model,
    gaussian_approx,
    hyper_marginals,
    latent_marginals,
    log_posterior_theta,
    optimize_theta,
)
from circfit.likelihoods import (
    ObservationError,
    loglik,
    response_terms,
)
from circfit.model import (
    AssembledBlock,
    BlockSpec,
    ComponentSpec,
    FixedEffectSpec,
    HyperCoord,
    ModelSpec,
    NewtonSystem,
    TermSpec,
    build_model,
)
from circfit.priors import PriorSpec
from circfit.studies import (
    MV6_TRUTH,
    SIM1_TRUTH,
    SIM2_TRUTH,
    SIM3_TRUTH,
    generate_mv6,
    generate_sim1,
    generate_sim2,
    generate_sim3,
    mv6_spec,
    sim1_spec,
    sim2_spec,
    sim3_spec,
)

# roots of y - exp(w) - w = 0, the scalar posterior mode equation for a
# Poisson count y observed through eta = w with a standard normal prior;
# frozen from scipy.optimize.brentq at xtol=1e-15
POISSON_MODE_Y1 = 0.0
POISSON_MODE_Y2 = 0.4428544010023886

# roots of -w / sd^2 + 2 * d/deta log lavm(2 arctan 5 | w, kappa=50) = 0,
# the scalar posterior mode equation for two LAvM angles at 2 arctan 5 with
# an N(0, sd^2) prior, which has two modes and an antimode between them:
# for sd = 0.4 the antimode (on [1.5, 3]) and the upper mode (on [4, 6]),
# for sd = 0.407, close to where the antimode meets the lower mode, the
# antimode (on [1.5, 3]); frozen from scipy.optimize.brentq at xtol=1e-15
LAVM_BIMODAL_X = 2.0 * np.arctan(5.0)
LAVM_ANTIMODE = 1.7914237411383866
LAVM_SLOW_MODE = 4.9229379798572825
LAVM_FLAT_ANTIMODE = 1.5470787706162312


def evaluated_at(m, theta_internal):
    """A ``HyperEvaluator`` on m and its evaluation at theta_internal, the
    mode triple the hyper stages take."""
    hyper = HyperEvaluator(m)
    return hyper, hyper(hyper.to_u(theta_internal))


def conjugate_scalar_model(y=2.0, tau=1.0, prior_sd=1.0):
    """One Gaussian observation of a single coefficient: the posterior is
    available in closed form."""
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "gaussian",
                np.array([y]),
                (TermSpec("intercept", "mu"),),
                hyper="tau",
            ),
        ),
        fixed_effects=(FixedEffectSpec("mu", prior_sd),),
        hypers={"tau": PriorSpec("fixed", (tau,))},
    )
    return build_model(spec)


def poisson_scalar_model(y):
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "c",
                "poisson",
                np.array([float(y)]),
                (TermSpec("intercept", "w0"),),
            ),
        ),
        fixed_effects=(FixedEffectSpec("w0", 1.0),),
    )
    return build_model(spec)


def lavm_scalar_model(x, n=5, kappa=50.0, prior_sd=10.0):
    """n identical angles x observed through an intercept alone, kappa
    pinned: a one-node model, bimodal when the N(0, prior_sd^2) prior and
    the LAvM likelihood pull apart."""
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "x",
                "lavm",
                np.full(n, x),
                (TermSpec("intercept", "a0"),),
                hyper="kappa",
            ),
        ),
        fixed_effects=(FixedEffectSpec("a0", prior_sd),),
        hypers={"kappa": PriorSpec("fixed", (kappa,))},
    )
    return build_model(spec)


def iid_fixed_model(n=24, seed=5, lam=2.5, tau=3.0, prior_sd=1.0):
    """Gaussian observations of an exchangeable component plus an intercept,
    every hyper pinned."""
    rng = np.random.default_rng(seed)
    y = rng.normal(0.4, 0.9, n)
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "gaussian",
                y,
                (
                    TermSpec("intercept", "mu"),
                    TermSpec("component", "u"),
                ),
                hyper="tau",
            ),
        ),
        components=(ComponentSpec("u", "iid", n, precision_hyper="lam"),),
        fixed_effects=(FixedEffectSpec("mu", prior_sd),),
        hypers={
            "lam": PriorSpec("fixed", (lam,)),
            "tau": PriorSpec("fixed", (tau,)),
        },
    )
    return build_model(spec)


def rw2_fixed_model(n=30, seed=11, lam=1.7, tau=4.0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n)
    y = np.sin(2.0 * np.pi * t) + rng.normal(0.0, 0.5, n)
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
            "lam": PriorSpec("fixed", (lam,)),
            "tau": PriorSpec("fixed", (tau,)),
        },
    )
    return build_model(spec)


def ar2_fixed_model(n=26, seed=2, lam=2.0, tau=5.0):
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
                "v",
                "ar2",
                n,
                precision_hyper="lam",
                pacf_hypers=("p1", "p2"),
            ),
        ),
        hypers={
            "lam": PriorSpec("fixed", (lam,)),
            "tau": PriorSpec("fixed", (tau,)),
            "p1": PriorSpec("fixed", (0.55,)),
            "p2": PriorSpec("fixed", (-0.2,)),
        },
    )
    return build_model(spec)


def tau_free_model(n=40, seed=9):
    """One free precision hyper over an intercept-only Gaussian block."""
    rng = np.random.default_rng(seed)
    y = rng.normal(1.2, 0.5, n)
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


def two_hyper_model(n=30, seed=13):
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 0.6, n)
    y = 0.8 + u + rng.normal(0.0, 0.5, n)
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "gaussian",
                y,
                (
                    TermSpec("intercept", "mu"),
                    TermSpec("component", "u"),
                ),
                hyper="tau",
            ),
        ),
        components=(ComponentSpec("u", "iid", n, precision_hyper="lam"),),
        fixed_effects=(FixedEffectSpec("mu", 1.0),),
        hypers={
            "tau": PriorSpec("pc_precision", (0.5, 0.5)),
            "lam": PriorSpec("pc_precision", (0.5, 0.5)),
        },
    )
    return build_model(spec)


def three_hyper_model(n=30, seed=17):
    """Two Gaussian blocks coupled by a shared predictor: tau, lam and the
    sharing coefficient are free, which lands in the composite design."""
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 0.7, n)
    y = 0.5 + u + rng.normal(0.0, 0.4, n)
    z = 0.9 * (0.5 + u) + rng.normal(0.0, 0.6, n)
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "gaussian",
                y,
                (
                    TermSpec("intercept", "mu"),
                    TermSpec("component", "u"),
                ),
                hyper="tau",
            ),
            BlockSpec(
                "z",
                "gaussian",
                z,
                (TermSpec("shared", "y", scale="b1"),),
                hyper="tau_z",
            ),
        ),
        components=(ComponentSpec("u", "iid", n, precision_hyper="lam"),),
        fixed_effects=(FixedEffectSpec("mu", 1.0),),
        hypers={
            "tau": PriorSpec("pc_precision", (0.5, 0.5)),
            "tau_z": PriorSpec("fixed", (2.8,)),
            "lam": PriorSpec("pc_precision", (0.5, 0.5)),
            "b1": PriorSpec("gaussian", (0.0, 1.0)),
        },
    )
    return build_model(spec)


def kappa_free_model(n=60, seed=21):
    """Angular regression with one free concentration hyper."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    x = lavm_sample(rng, 0.3 + 0.8 * z, 8.0)
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "x",
                "lavm",
                x,
                (
                    TermSpec("intercept", "a0"),
                    TermSpec("fixed", "beta", covariate="z"),
                ),
                hyper="kappa",
            ),
        ),
        fixed_effects=(FixedEffectSpec("a0", 1.0), FixedEffectSpec("beta", 1.0)),
        hypers={"kappa": PriorSpec("pc_kappa", (0.5, 0.5))},
        covariates={"z": z},
    )
    return build_model(spec)


class TestScalarModes:
    def test_conjugate_gaussian_is_exact_in_one_iteration(self):
        m = conjugate_scalar_model(y=2.0, tau=1.0, prior_sd=1.0)
        approx = gaussian_approx(m, m.theta_natural(m.initial_internal()))
        assert approx.mode[0] == pytest.approx(1.0, abs=1e-12)
        # the factored Q* is the 1 x 1 matrix [2]
        assert approx.det_half == pytest.approx(0.5 * np.log(2.0), abs=1e-12)
        assert approx.marginal_sd()[0] == pytest.approx(2.0**-0.5, abs=1e-12)
        assert approx.iterations == 1

    def test_conjugate_warm_start_converges_immediately(self):
        m = conjugate_scalar_model()
        approx = gaussian_approx(m, m.theta_natural(m.initial_internal()),
                                 init_w=np.array([1.0]))
        assert approx.iterations == 0
        assert approx.mode[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "y,root", [(1, POISSON_MODE_Y1), (2, POISSON_MODE_Y2)]
    )
    def test_poisson_count_mode_solves_score_equation(self, y, root):
        m = poisson_scalar_model(y)
        approx = gaussian_approx(m, {})
        w = approx.mode[0]
        assert w == pytest.approx(root, abs=1e-9)
        # posterior precision is the prior unit plus the rate curvature
        assert approx.det_half == pytest.approx(
            0.5 * np.log(1.0 + np.exp(w)), abs=1e-9
        )
        assert approx.marginal_sd()[0] == pytest.approx(
            (1.0 + np.exp(w)) ** -0.5, abs=1e-9
        )

    def test_slow_lavm_ascent_passes_the_stall_guard(self):
        # just above the antimode the iterate creeps away from it: the
        # Newton decrement grows for many steps while the objective still
        # climbs; the stall guard must read that gain and let the
        # iteration run to the upper mode
        m = lavm_scalar_model(LAVM_BIMODAL_X, n=2, prior_sd=0.4)
        approx = gaussian_approx(
            m, m.theta_natural(m.initial_internal()),
            init_w=np.array([LAVM_ANTIMODE + 1e-4]),
        )
        assert approx.iterations > 24
        assert approx.mode[0] == pytest.approx(LAVM_SLOW_MODE, abs=1e-9)

    def test_plateau_start_trips_the_stall_guard(self):
        # near where the antimode meets the lower mode the creep is slower
        # still: from a start closer to the antimode the objective is flat
        # to roundoff, so the guard stops the march at its first check
        m = lavm_scalar_model(LAVM_BIMODAL_X, n=2, prior_sd=0.407)
        with pytest.raises(
            InferenceError, match="Newton iteration is not contracting"
        ) as err:
            gaussian_approx(
                m, m.theta_natural(m.initial_internal()),
                init_w=np.array([LAVM_FLAT_ANTIMODE + 3e-5]),
            )
        assert err.value.best is not None
        assert err.value.diagnostics["iterations"] == 24

    def test_antimode_start_is_not_a_mode(self):
        # 1e-6 above the antimode the gradient is below Newton's tolerance,
        # so the loop ends where it starts; its observed Q* does not
        # factor, so the point is refused rather than returned as the mode
        m = lavm_scalar_model(LAVM_BIMODAL_X, n=2, prior_sd=0.4)
        with pytest.raises(
            InferenceError, match="conditional mode is not a maximum"
        ) as err:
            gaussian_approx(
                m, m.theta_natural(m.initial_internal()),
                init_w=np.array([LAVM_ANTIMODE + 1e-6]),
            )
        assert err.value.best[0] == pytest.approx(LAVM_ANTIMODE, abs=1e-5)

    def test_newton_step_without_ascent_raises_with_the_last_iterate(
        self, monkeypatch
    ):
        # d1 of the wrong sign makes the Newton step a descent direction:
        # no halving raises the objective while the predicted gain is far
        # above roundoff, so the solve fails where it stands
        original = inference._curvatures

        def wrong_sign(*args, **kwargs):
            value, d1, c = original(*args, **kwargs)
            return value, -d1, c

        monkeypatch.setattr(inference, "_curvatures", wrong_sign)
        m = conjugate_scalar_model()
        start = np.array([0.25])
        with pytest.raises(
            InferenceError, match="Newton iteration stalled"
        ) as err:
            gaussian_approx(
                m, m.theta_natural(m.initial_internal()), init_w=start
            )
        np.testing.assert_array_equal(err.value.best, start)
        assert err.value.diagnostics["iterations"] == 1


def mixed_family_model(n=20, seed=23):
    """lavm, gaussian and poisson blocks over an rw2 field (two constraints)
    and an ar2 component, the gaussian block sharing the lavm predictor."""
    rng = np.random.default_rng(seed)
    x = lavm_sample(rng, 0.2 + 0.3 * np.sin(np.arange(n) / 3.0), 6.0)
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "x",
                "lavm",
                x,
                (TermSpec("intercept", "a0"), TermSpec("component", "r", scale="ar")),
                hyper="kappa",
            ),
            BlockSpec(
                "y",
                "gaussian",
                rng.normal(0.5, 1.0, n),
                (
                    TermSpec("intercept", "b0"),
                    TermSpec("component", "s"),
                    TermSpec("shared", "x", scale="g"),
                ),
                hyper="tau",
            ),
            BlockSpec(
                "c",
                "poisson",
                rng.poisson(3.0, n).astype(float),
                (TermSpec("intercept", "c0"), TermSpec("component", "s")),
            ),
        ),
        components=(
            ComponentSpec("r", "rw2", n),
            ComponentSpec("s", "ar2", n, pacf_hypers=("p1", "p2")),
        ),
        fixed_effects=(
            FixedEffectSpec("a0", 1.0),
            FixedEffectSpec("b0", 1.0),
            FixedEffectSpec("c0", 1.0),
        ),
        hypers={
            "kappa": PriorSpec("fixed", (6.0,)),
            "tau": PriorSpec("fixed", (2.0,)),
            "ar": PriorSpec("fixed", (0.6,)),
            "g": PriorSpec("fixed", (0.8,)),
            "p1": PriorSpec("fixed", (0.5,)),
            "p2": PriorSpec("fixed", (-0.2,)),
        },
    )
    return build_model(spec)


class TestAssembly:
    def test_newton_matrix_equals_dense_sum_at_the_mode(self):
        m = mixed_family_model()
        assert m.constraints.shape[0] == 2
        S = m.structure
        theta = m.theta_natural(m.initial_internal())
        approx = gaussian_approx(m, theta)
        curvature = dref.curvatures(m, theta, approx.mode)
        Q_ref = dref.newton_matrix(m, theta, curvature)
        data = NewtonSystem(S, theta).values(curvature)
        np.testing.assert_allclose(
            qstar_dense(S, data), Q_ref,
            rtol=1e-12, atol=1e-12 * np.abs(Q_ref).max(),
        )
        # the approximation's factor is that matrix's
        sign, logdet = np.linalg.slogdet(Q_ref)
        assert sign == 1.0
        assert approx.factor.half_logdet == pytest.approx(0.5 * logdet, rel=1e-10)
        b = np.random.default_rng(3).normal(size=m.latent_dim)
        _assert_close(approx.factor.solve(b), np.linalg.solve(Q_ref, b))

    def test_newton_values_equal_the_ordered_pair_sums(self):
        # Q* is stored as its lower triangle, summed from the lower-triangle
        # pairs; the reference adds every ordered pair of a row,
        # observation by observation, as a sum over all pairs would
        m = mixed_family_model()
        S = m.structure
        theta = m.theta_natural(m.initial_internal())
        rng = np.random.default_rng(3)
        curvatures = {
            name: rng.uniform(0.1, 5.0, blk.size)
            for name, blk in m.blocks.items()
        }
        Q_ref, _ = dref.prior(m, theta)
        for name in m.blocks:
            A = dref.design(m, name, theta)
            acc = np.zeros_like(Q_ref)
            c = curvatures[name]
            for i, row in enumerate(A):
                nodes = np.flatnonzero(row)
                for a in nodes:
                    for b in nodes:
                        acc[a, b] += c[i] * (row[a] * row[b])
            Q_ref += acc
        data = NewtonSystem(S, theta).values(curvatures)
        np.testing.assert_array_equal(qstar_dense(S, data), Q_ref)
        # nothing is written outside the lower triangle's slots
        slots, _, _ = _storage_entries(S)
        assert not np.delete(data, slots).any()


    def test_block_whose_terms_meet_one_node_twice(self):
        # block y's own intercept b0 meets the b0 of block x's predictor,
        # which y shares through the scale s, in every row: A_y holds
        # 1 + s there, and Q* the square of that sum
        n = 20
        rng = np.random.default_rng(29)
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "x",
                    "gaussian",
                    rng.normal(size=n),
                    (TermSpec("intercept", "b0"), TermSpec("component", "u")),
                    hyper="tau_x",
                ),
                BlockSpec(
                    "y",
                    "gaussian",
                    rng.normal(1.0, 1.0, n),
                    (
                        TermSpec("intercept", "b0"),
                        TermSpec("fixed", "b1", covariate="z"),
                        TermSpec("shared", "x", scale="s"),
                    ),
                    hyper="tau_y",
                ),
            ),
            components=(ComponentSpec("u", "ar2", n, pacf_hypers=("p1", "p2")),),
            fixed_effects=(FixedEffectSpec("b0", 1.0), FixedEffectSpec("b1", 1.0)),
            hypers={
                "tau_x": PriorSpec("pc_precision", (1.0, 0.5)),
                "tau_y": PriorSpec("pc_precision", (1.0, 0.5)),
                "p1": PriorSpec("pc_correlation", (0.5, 0.5)),
                "p2": PriorSpec("pc_correlation", (0.5, 0.5)),
                "s": PriorSpec("gaussian", (0.0, 1.0)),
            },
            covariates={"z": rng.normal(size=n)},
        )
        m = build_model(spec)
        S = m.structure
        theta = dict(m.theta_natural(m.initial_internal()), s=0.7)
        system = NewtonSystem(S, theta)
        w = rng.normal(size=m.latent_dim)
        curvatures = {}
        for name, blk in m.blocks.items():
            A = dref.design(m, name, theta)
            assert np.all(A[:, m.effect_nodes["b0"]] == (1.7 if name == "y" else 1.0))
            v = rng.normal(size=blk.size)
            np.testing.assert_allclose(
                system.predictor(name, w), A @ w, rtol=1e-13, atol=1e-13
            )
            np.testing.assert_allclose(
                system.transpose_times(name, v), A.T @ v, rtol=1e-13, atol=1e-13
            )
            curvatures[name] = rng.uniform(0.1, 5.0, blk.size)
        Q_ref = dref.newton_matrix(m, theta, curvatures)
        data = system.values(curvatures)
        np.testing.assert_allclose(
            qstar_dense(S, data), Q_ref,
            rtol=1e-12, atol=1e-12 * np.abs(Q_ref).max(),
        )
        sign, logdet = np.linalg.slogdet(Q_ref)
        assert sign == 1.0
        assert _factor_spd(S, data).half_logdet == pytest.approx(
            0.5 * logdet, rel=1e-12
        )
        fit = fit_model(m)
        assert np.all(np.isfinite(fit.latent_summary["sd"]))


class TestResponseTerms:
    """The Newton loop passes each block's response terms, computed once
    per model, to ``loglik``; the results are those of the public call."""

    @pytest.mark.parametrize(
        "family,hyper",
        [("lavm", 2.0), ("poisson", None), ("gamma", 3.0), ("gaussian", 1.5)],
    )
    @pytest.mark.parametrize("shape", [(40,), (6, 40)])
    def test_cached_terms_match_public_loglik(self, family, hyper, shape):
        rng = np.random.default_rng(31)
        y = {
            "lavm": rng.uniform(-2.8, 2.8, 40),
            "poisson": rng.poisson(3.0, 40).astype(float),
            "gamma": rng.gamma(2.0, 1.5, 40),
            "gaussian": rng.normal(size=40),
        }[family]
        eta = rng.normal(0.0, 3.0, shape)
        # far predictors make the poisson and gamma curvatures underflow
        # the floor as well
        eta[..., :2] = [-40.0, 40.0]
        blk = AssembledBlock("b", family, y, None, ())
        response = response_terms(family, y)
        value, d1, c = _curvatures(blk, eta, hyper, response)
        ref_value, ref_d1, ref_d2 = loglik(family, y, eta, hyper)
        ref_c = -ref_d2
        if family == "lavm":
            s = 1.0 + (np.tan(y / 2) - eta) ** 2
            floor = 4.0 * hyper / s**2 + 2.0 / s
        else:
            floor = np.full_like(ref_c, CURVATURE_MIN)
        floored = ref_c < CURVATURE_MIN
        assert np.any(floored) == (family != "gaussian")
        np.testing.assert_array_equal(value, ref_value)
        np.testing.assert_array_equal(d1, ref_d1)
        # the observed curvature, and the Newton step's fallback in place
        # of the entries below CURVATURE_MIN
        np.testing.assert_array_equal(c, ref_c)
        np.testing.assert_array_equal(
            _fallback_curvatures(blk, eta, hyper, response, c),
            np.where(floored, floor, ref_c),
        )

    def test_lavm_response_in_the_boundary_band_fails_the_fit(self):
        m = kappa_free_model(n=20)
        x = m.blocks["x"].responses.copy()
        x[7] = np.pi - 5e-7
        block = replace(m.spec.blocks[0], responses=x)
        with pytest.raises(ObservationError) as err:
            fit_model(build_model(replace(m.spec, blocks=(block,))))
        assert err.value.indices == [7]

    def test_non_count_poisson_response_fails_the_fit(self):
        m = mixed_family_model()
        blocks = list(m.spec.blocks)
        counts = blocks[2].responses.copy()
        counts[4] = 2.5
        blocks[2] = replace(blocks[2], responses=counts)
        with pytest.raises(ObservationError) as err:
            fit_model(build_model(replace(m.spec, blocks=tuple(blocks))))
        assert err.value.indices == [4]

    def test_non_finite_predictor_still_raises(self):
        m = kappa_free_model(n=20)
        theta = m.theta_natural(m.initial_internal())
        init_w = np.full(m.latent_dim, np.nan)
        with pytest.raises(ValueError, match="eta must be finite"):
            gaussian_approx(m, theta, init_w=init_w)


class TestLavmNewton:
    def test_cold_and_warm_starts_reach_one_mode(self):
        # the EM weight lets a cold start and a start from another theta's
        # mode ascend to the same conditional mode of a sim2 warm-up at its
        # hyper mode
        m = _study_model(generate_sim2, sim2_spec, SIM2_TRUTH, 100, seed=1000)
        mode, _, _ = optimize_theta(HyperEvaluator(m))
        theta = m.theta_natural(mode[0])
        other = gaussian_approx(m, m.theta_natural(m.initial_internal()))
        cold = gaussian_approx(m, theta)
        warm = gaussian_approx(m, theta, init_w=other.mode)
        assert cold.iterations > 0 and warm.iterations > 0
        np.testing.assert_allclose(warm.mode, cold.mode, rtol=0, atol=1e-8)

    def test_warm_start_reaches_the_cold_start_lp(self):
        # from a neighbour's mode Newton reached a point whose step the
        # objective no longer resolves with w still 1e-6 off the mode, and
        # lp 1e-6 off the cold start's: a second difference at GRAD_STEP
        # reads that as a curvature error of order 100.  The last step is
        # taken unchecked, so lp agrees to roundoff
        m = _study_model(generate_sim3, sim3_spec, SIM3_TRUTH, 100)
        theta = m.initial_internal()
        _, near = log_posterior_theta(m, theta + 0.01)
        warm, _ = log_posterior_theta(m, theta, init_w=near.mode)
        cold, _ = log_posterior_theta(m, theta)
        assert warm == pytest.approx(cold, rel=0, abs=1e-9)

    def test_constrained_mode_is_factored_once_per_newton_pass(
        self, monkeypatch
    ):
        # every Newton point is projected onto C w = 0, so the converged
        # iterate is the mode as it stands: Q* is factored once per pass,
        # the last pass included, and never again after the loop.  A pass
        # whose observed Q* does not factor pays for its fallback's too, so
        # the factorizations that succeed are counted
        m = _study_model(generate_sim2, sim2_spec, SIM2_TRUTH, 300, seed=1000)
        theta = {k: SIM2_TRUTH[k] for k in ("kappa", "tau", "a1", "b1")}
        calls = []

        def counting(*args):
            factor = _factor_spd(*args)
            calls.append(args)
            return factor

        monkeypatch.setattr(inference, "_factor_spd", counting)
        approx = gaussian_approx(m, theta)
        assert len(calls) == approx.iterations + 1
        assert np.max(np.abs(m.constraints @ approx.mode)) <= 1e-10

        S = m.structure
        system = NewtonSystem(S, theta)
        curvatures = {}
        for name, blk in m.blocks.items():
            eta = system.predictor(name, approx.mode)
            hyper = theta[blk.hyper] if blk.hyper else None
            curvatures[name] = _curvatures(blk, eta, hyper, S.responses[name])[2]
        fresh = _factor_spd(S, system.values(curvatures), m.constraints)
        assert approx.det_half == fresh.det_half


class TestObservedFactor:
    """The factor at the conditional mode holds the observed curvature
    -d2, also where some entries of it are negative, so lp is the Laplace
    ratio of the observed Hessian and continuous in theta."""

    @staticmethod
    def sim1_2059():
        # a LAvM curvature at the conditional mode of these data changes
        # sign near kappa's internal value 2.28167
        return _study_model(
            generate_sim1, sim1_spec, SIM1_TRUTH, 1000, seed=2059
        )

    def test_lp_is_continuous_where_a_curvature_changes_sign(self):
        # with the EM weight in the mode's factor lp jumped there: a second
        # difference of 1.6e-3 on this grid, against a median of 1.3e-8
        m = self.sim1_2059()
        lps, w = [], None
        for t in np.linspace(2.2810, 2.2825, 301):
            lp, approx = log_posterior_theta(m, np.array([t]), init_w=w)
            lps.append(lp)
            w = approx.mode
        assert np.max(np.abs(np.diff(lps, 2))) < 1e-6

    def test_det_half_is_the_observed_log_determinant(self):
        m = self.sim1_2059()
        theta = m.theta_natural(np.array([2.28167]))
        approx = gaussian_approx(m, theta)
        curvature = dref.curvatures(m, theta, approx.mode)
        assert np.sum(curvature["y"] < 0.0) == 2
        Q = dref.newton_matrix(m, theta, curvature)
        sign, logdet = np.linalg.slogdet(Q)
        assert sign == 1.0
        assert approx.det_half == pytest.approx(0.5 * logdet, rel=1e-12)


def iid_only_model(n=15, seed=29):
    """An iid component observed alone: Q* is all band, no arrow."""
    rng = np.random.default_rng(seed)
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "gaussian",
                rng.normal(size=n),
                (TermSpec("component", "u"),),
                hyper="tau",
            ),
        ),
        components=(ComponentSpec("u", "iid", n, precision_hyper="lam"),),
        hypers={
            "lam": PriorSpec("fixed", (2.0,)),
            "tau": PriorSpec("fixed", (3.0,)),
        },
    )
    return build_model(spec)


def _study_model(generate, spec, truth, n, seed=1):
    return build_model(spec(generate(n, truth, np.random.default_rng(seed))))


LAYOUTS = {
    "sim1": lambda: _study_model(generate_sim1, sim1_spec, SIM1_TRUTH, 50),
    "iid_only": iid_only_model,
    "mixed_family": mixed_family_model,
    "sim2_n200": lambda: _study_model(generate_sim2, sim2_spec, SIM2_TRUTH, 200),
    "sim3_n100": lambda: _study_model(generate_sim3, sim3_spec, SIM3_TRUTH, 100),
}


def _storage_entries(structure):
    """Slot, latent row and latent column of every entry of Q*'s lower
    triangle, in factor order, that the flat band + arrow storage holds.
    LAPACK's lower band storage keeps band entry (r, c), r - c <= bandwidth,
    at [r - c, c] of a column-major (bandwidth + 1, n_body) array; the
    column-major cross block and the arrow's lower triangle follow."""
    S = structure
    n, n_body, width = S.perm.size, S.n_body, S.bandwidth + 1
    n_arrow = n - n_body
    r, c = np.tril_indices(n)
    slot = np.full(r.size, -1)
    band = (r < n_body) & (r - c < width)
    slot[band] = c[band] * width + (r - c)[band]
    cross = (r >= n_body) & (c < n_body)
    slot[cross] = width * n_body + (r[cross] - n_body) * n_body + c[cross]
    arrow = c >= n_body
    slot[arrow] = (
        (width + n_arrow) * n_body
        + (c[arrow] - n_body) * n_arrow + r[arrow] - n_body
    )
    held = slot >= 0
    return slot[held], S.perm[r[held]], S.perm[c[held]]


def qstar_dense(structure, data):
    """Q* in latent order from its flat storage: the stored lower triangle
    placed through the permutation, and its mirror image."""
    slots, rows, cols = _storage_entries(structure)
    M = dref.dense(rows, cols, data[slots], (structure.perm.size,) * 2)
    M[cols, rows] = data[slots]
    return M


def random_spd_values(structure, rng):
    """Random values at every slot the storage holds, made positive
    definite by strict diagonal dominance."""
    slots, rows, cols = _storage_entries(structure)
    data = np.zeros(structure.size)
    data[slots] = rng.uniform(-1.0, 1.0, slots.size)
    M = qstar_dense(structure, data)
    diag = rows == cols
    dominance = np.abs(M).sum(axis=1) - np.abs(np.diag(M))
    data[slots[diag]] = (
        dominance[rows[diag]] + rng.uniform(0.1, 2.0, diag.sum())
    )
    return data


def _assert_close(got, want, rtol=1e-10):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


class TestBandArrowFactor:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_solve_and_log_determinant_match_dense(self, layout):
        m = LAYOUTS[layout]()
        S = m.structure
        n = m.latent_dim
        n_arrow = len(m.spec.fixed_effects)
        assert S.n_body == n - n_arrow
        assert np.array_equal(np.sort(S.perm[:S.n_body]), np.arange(S.n_body))
        assert np.array_equal(S.perm[S.n_body:], np.arange(S.n_body, n))
        rng = np.random.default_rng(3)
        for _ in range(3):
            data = random_spd_values(S, rng)
            dense = qstar_dense(S, data)
            factor = _factor_spd(S, data)
            assert factor.QinvCt is None and factor.S_chol is None
            sign, logdet = np.linalg.slogdet(dense)
            assert sign == 1.0
            assert factor.half_logdet == pytest.approx(0.5 * logdet, rel=1e-10)
            b = rng.normal(size=n)
            _assert_close(factor.solve(b), np.linalg.solve(dense, b))
            B = rng.normal(size=(n, 4))
            _assert_close(factor.solve(B), np.linalg.solve(dense, B))
            U = factor.solve_lt(np.eye(n))
            _assert_close(U @ U.T, np.linalg.inv(dense))

    def test_layouts_split_band_and_arrow(self):
        sim1 = LAYOUTS["sim1"]().structure
        assert sim1.n_body == 0 and sim1.effect_prec.size == 3
        iid = iid_only_model().structure
        assert iid.effect_prec.size == 0 and iid.bandwidth == 0
        # rw2 has half-width 2 and ar2 half-width 2; the shared lavm
        # predictor couples r and s node by node, so the band stays narrow
        mixed = mixed_family_model().structure
        assert 2 <= mixed.bandwidth < 10

    def test_matrix_pd_only_on_the_constraint_complement_raises(self):
        # the rw2 block is singular along C; shifting its diagonal down by
        # half its smallest nonzero eigenvalue leaves it positive definite
        # only on the complement of C's row space.  Q* itself is what is
        # factored, so it is rejected with C as without
        m = rw2_fixed_model(n=10)
        S = m.structure
        theta = m.theta_natural(m.initial_internal())
        n_rw2 = m.components["w"].dimension
        q_data = NewtonSystem(S, theta).base
        rw2 = qstar_dense(S, q_data)[:n_rw2, :n_rw2]
        shift = 0.5 * np.sort(np.linalg.eigvalsh(rw2))[2]
        slots, rows, cols = _storage_entries(S)
        q_data[slots[(rows == cols) & (rows < n_rw2)]] -= shift
        for C in (None, m.constraints):
            with pytest.raises(InferenceError, match="not positive definite"):
                _factor_spd(S, q_data, C)

    def test_zero_field_scale_is_a_failed_evaluation(self):
        # at a1 = 0 the rw2 field's null space ({1, t}, C's rows) meets no
        # likelihood curvature, so Q* is singular there; the evaluation
        # fails, and the hyper stages treat it like any failed point.  At
        # |a1| = 1e-3 the curvature a1^2 c is well above roundoff
        m = _study_model(generate_sim2, sim2_spec, SIM2_TRUTH, 100, seed=1000)
        theta = {"kappa": 12.0, "tau": 4.0, "a1": 0.0, "b1": 0.6}
        with pytest.raises(InferenceError, match="not positive definite"):
            gaussian_approx(m, theta)
        for a1 in (-1e-3, 1e-3):
            approx = gaussian_approx(m, dict(theta, a1=a1))
            assert np.isfinite(approx.det_half)
            assert np.max(np.abs(m.constraints @ approx.mode)) < 1e-8

    def test_constrained_determinant_matches_the_null_space_reference(self):
        # det_half is half the log determinant of Q* on null(C)
        m = rw2_fixed_model(n=10)
        S = m.structure
        C = m.constraints
        theta = m.theta_natural(m.initial_internal())
        # the gaussian curvature makes Q* positive definite
        tau = np.full(m.blocks["y"].size, theta["tau"])
        q_data = NewtonSystem(S, theta).values({"y": tau})
        factor = _factor_spd(S, q_data, C)
        N = null_space(C)
        Q = dref.newton_matrix(m, theta, {"y": tau})
        sign, logdet = np.linalg.slogdet(N.T @ Q @ N)
        assert sign == 1.0
        assert factor.det_half == pytest.approx(0.5 * logdet, rel=1e-10)

    def test_non_positive_definite_matrix_raises(self):
        # negated values fail with constraints as well; a NaN passes
        # LAPACK's pivot test and must be caught by the log-determinant check
        m = mixed_family_model()
        S = m.structure
        data = random_spd_values(S, np.random.default_rng(5))
        with pytest.raises(InferenceError, match="not positive definite"):
            _factor_spd(S, -data, m.constraints)
        slots, rows, cols = _storage_entries(S)
        data[slots[(rows == 0) & (cols == 0)]] = np.nan
        with pytest.raises(InferenceError, match="not positive definite"):
            _factor_spd(S, data)

    def test_factor_leaves_its_values_unchanged(self):
        # the pieces are factored in place on a copy, so the same values
        # factor again to the same factor
        m = mixed_family_model()
        S = m.structure
        data = random_spd_values(S, np.random.default_rng(7))
        kept = data.copy()
        first = _factor_spd(S, data, m.constraints)
        np.testing.assert_array_equal(data, kept)
        second = _factor_spd(S, data, m.constraints)
        for name in ("band", "X", "schur", "QinvCt", "det_half"):
            np.testing.assert_array_equal(
                getattr(first, name), getattr(second, name)
            )

    def test_solve_keeps_the_memory_order_of_its_argument(self):
        # QinvCt = solve(C') is column-major because C' is; a matrix
        # product rounds differently on a row-major copy of an operand, so
        # the corrections QinvCt @ s of every constrained fit would move
        m = mixed_family_model()
        S = m.structure
        rng = np.random.default_rng(9)
        factor = _factor_spd(S, random_spd_values(S, rng), m.constraints)
        assert factor.QinvCt.flags.f_contiguous
        B = rng.normal(size=(m.latent_dim, 3))
        assert factor.solve(B).flags.c_contiguous
        assert factor.solve(np.asfortranarray(B)).flags.f_contiguous

    def test_newton_solve_sds_and_draws_build_no_latent_square_matrix(
        self, monkeypatch
    ):
        # the Newton steps work on value arrays and the sds and the draws
        # come from the band + arrow factor
        m = mixed_family_model()
        m.structure  # built before counting
        n = m.latent_dim
        built = []
        original = _cs_matrix.__init__

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if self.shape == (n, n):
                built.append(self)

        monkeypatch.setattr(_cs_matrix, "__init__", counting)
        approx = gaussian_approx(m, m.theta_natural(m.initial_internal()))
        assert approx.iterations >= 3
        approx.marginal_sd()
        approx.sample(np.random.default_rng(0), 5)
        assert built == []

    @pytest.mark.parametrize("n", [100, 200])
    def test_constrained_sds_and_draws_match_the_null_space_reference(self, n):
        # on null(C) the constrained conditional is N (N'QN)^{-1} N'; the
        # draws are a linear map of standard normals, so feeding the
        # identity in their place exposes that map's covariance exactly
        m = _study_model(generate_sim2, sim2_spec, SIM2_TRUTH, n)
        theta = m.theta_natural(m.initial_internal())
        approx = gaussian_approx(m, theta)
        Q = dref.newton_matrix(m, theta, dref.curvatures(m, theta, approx.mode))
        N = null_space(m.constraints)
        cov = N @ np.linalg.solve(N.T @ Q @ N, N.T)
        sd_ref = np.sqrt(np.diag(cov))
        assert np.max(np.abs(approx.marginal_sd() - sd_ref) / sd_ref) < 1e-10

        class Identity:
            def standard_normal(self, shape):
                return np.eye(*shape)

        d = approx.sample(Identity(), m.latent_dim) - approx.mode
        _assert_close(d.T @ d, cov)

    @pytest.mark.parametrize(
        "factory, constrained",
        [(rw2_fixed_model, True), (iid_fixed_model, False)],
    )
    def test_draws_are_the_mode_plus_the_constrained_solve(
        self, factory, constrained
    ):
        # the draws finished in place are the sums the out-of-place finish
        # forms, from the same normals
        m = factory()
        assert (m.constraints.shape[0] > 0) == constrained
        approx = gaussian_approx(m, m.theta_natural(m.initial_internal()))
        factor = approx.factor
        rng = np.random.default_rng(31)
        z = np.random.default_rng(31).standard_normal((m.latent_dim, 7))
        u = factor.solve_lt(z)
        kept = u.copy()
        expected = (approx.mode[:, None] + factor.constrain(u)).T
        np.testing.assert_array_equal(u, kept)
        first = approx.sample(rng, 7)
        np.testing.assert_array_equal(first, expected)
        second = approx.sample(rng, 7)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, approx.mode)

    @pytest.mark.parametrize("n", [100, 200])
    def test_structure_holds_no_latent_squared_array(self, n):
        # the factorization works at the structural bandwidth, so nothing
        # the structure keeps grows with the square of the body size
        m = _study_model(generate_sim2, sim2_spec, SIM2_TRUTH, n)
        S = m.structure
        n_body = S.n_body
        assert n_body == n and m.constraints.shape[0] == 2

        def arrays(value):
            """Every ndarray reachable from value, short of the model."""
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)
            elif isinstance(value, dict):
                for item in value.values():
                    yield from arrays(item)
            elif hasattr(value, "__dict__") and value is not m:
                yield from arrays(vars(value))

        held = list(arrays(S))
        assert held
        assert max(a.size for a in held) < n_body**2

    def test_no_sparse_lu_in_the_package(self):
        src = Path(circfit.__file__).parent
        for path in src.glob("*.py"):
            assert "splu" not in path.read_text(), path.name


def shared_intercept_model(n=30, seed=37):
    """Two Gaussian blocks of fixed-effect terms only, so Q* is all arrow:
    block y holds its own intercept b0 and, through the shared predictor
    of x with scale s, x's b0 again, two terms at one node in every row."""
    rng = np.random.default_rng(seed)
    spec = ModelSpec(
        blocks=(
            BlockSpec(
                "x",
                "gaussian",
                rng.normal(0.5, 1.0, n),
                (
                    TermSpec("intercept", "b0"),
                    TermSpec("fixed", "b1", covariate="z"),
                ),
                hyper="tau_x",
            ),
            BlockSpec(
                "y",
                "gaussian",
                rng.normal(1.0, 1.0, n),
                (
                    TermSpec("intercept", "b0"),
                    TermSpec("shared", "x", scale="s"),
                ),
                hyper="tau_y",
            ),
        ),
        fixed_effects=(FixedEffectSpec("b0", 1.0), FixedEffectSpec("b1", 1.0)),
        hypers={
            "tau_x": PriorSpec("pc_precision", (1.0, 0.5)),
            "tau_y": PriorSpec("pc_precision", (1.0, 0.5)),
            "s": PriorSpec("gaussian", (0.0, 1.0)),
        },
        covariates={"z": rng.normal(size=n)},
    )
    return build_model(spec)


ARROW_ONLY = {
    "sim1": lambda: _study_model(
        generate_sim1, sim1_spec, SIM1_TRUTH, 200, seed=1000
    ),
    "shared_intercept": shared_intercept_model,
}


class TestFixedEffectColumns:
    """Blocks of fixed-effect terms only: A_b is dense columns at the
    arrow nodes, and Q* is all arrow (n_body = 0)."""

    @staticmethod
    def system(layout, seed=5):
        m = ARROW_ONLY[layout]()
        assert m.structure.n_body == 0
        theta = dict(m.theta_natural(m.initial_internal()))
        if "s" in theta:
            theta["s"] = 0.7
        rng = np.random.default_rng(seed)
        curvatures = {
            name: rng.uniform(0.1, 5.0, blk.size)
            for name, blk in m.blocks.items()
        }
        return m, theta, NewtonSystem(m.structure, theta), curvatures

    def test_values_equal_the_ordered_pair_sums(self):
        # each arrow slot sums its pair's products over the observations
        # in their order, as this loop does, bit for bit
        m, theta, system, curvatures = self.system("sim1")
        Q_ref, _ = dref.prior(m, theta)
        A = dref.design(m, "y", theta)
        c = curvatures["y"]
        acc = np.zeros_like(Q_ref)
        for i, row in enumerate(A):
            nodes = np.flatnonzero(row)
            for a in nodes:
                for b in nodes:
                    acc[a, b] += c[i] * (row[a] * row[b])
        Q_ref += acc
        data = system.values(curvatures)
        np.testing.assert_array_equal(qstar_dense(m.structure, data), Q_ref)

    @pytest.mark.parametrize("layout", sorted(ARROW_ONLY))
    def test_predictor_and_transpose_are_the_dense_products(self, layout):
        m, theta, system, _ = self.system(layout)
        rng = np.random.default_rng(11)
        w = rng.normal(size=m.latent_dim)
        for name, blk in m.blocks.items():
            A = dref.design(m, name, theta)
            v = rng.normal(size=blk.size)
            np.testing.assert_allclose(
                system.predictor(name, w), A @ w, rtol=1e-13, atol=1e-13
            )
            np.testing.assert_allclose(
                system.transpose_times(name, v), A.T @ v, rtol=1e-13, atol=1e-13
            )

    def test_two_fixed_terms_on_one_node(self):
        # y's b0 and the shared b0 meet in every row: A_y holds 1 + s
        # there, Q* the square of that sum, through the weight-2 pair
        m, theta, system, curvatures = self.system("shared_intercept")
        pat = m.structure.blocks["y"]
        assert pat.n_fixed == 3 and np.all(pat.weight[1] == 2.0)
        A = dref.design(m, "y", theta)
        assert np.all(A[:, m.effect_nodes["b0"]] == 1.7)
        Q_ref = dref.newton_matrix(m, theta, curvatures)
        data = system.values(curvatures)
        np.testing.assert_allclose(
            qstar_dense(m.structure, data), Q_ref,
            rtol=1e-12, atol=1e-12 * np.abs(Q_ref).max(),
        )
        fit = fit_model(m)
        assert np.all(np.isfinite(fit.latent_summary["sd"]))

    @pytest.mark.parametrize("layout", sorted(ARROW_ONLY))
    def test_arrow_only_factor_matches_dense_cholesky(self, layout):
        m, theta, system, curvatures = self.system(layout)
        data = system.values(curvatures)
        Q = qstar_dense(m.structure, data)
        L = np.linalg.cholesky(Q)
        factor = _factor_spd(m.structure, data)
        assert factor.half_logdet == pytest.approx(
            np.sum(np.log(np.diag(L))), rel=1e-12
        )
        rng = np.random.default_rng(13)
        n = m.latent_dim
        b = rng.normal(size=n)
        _assert_close(factor.solve(b), np.linalg.solve(Q, b), rtol=1e-12)
        B = rng.normal(size=(n, 4))
        for B in (B, np.asfortranarray(B)):
            X = factor.solve(B)
            _assert_close(X, np.linalg.solve(Q, B), rtol=1e-12)
            assert X.flags.c_contiguous == B.flags.c_contiguous
        Z = rng.normal(size=(n, 4))
        _assert_close(factor.solve_lt(Z), np.linalg.solve(L.T, Z), rtol=1e-12)
        sd = np.sqrt(np.diag(np.linalg.inv(Q)))
        _assert_close(factor.marginal_sd(), sd, rtol=1e-12)


class TestGaussianExactness:
    @pytest.mark.parametrize(
        "factory", [iid_fixed_model, rw2_fixed_model, ar2_fixed_model]
    )
    def test_latent_summary_matches_dense_gls(self, factory):
        m = factory()
        theta_internal = m.initial_internal()
        mean_ref, sd_ref = dref.gls(m, m.theta_natural(theta_internal))
        points = explore_theta(
            *evaluated_at(m, theta_internal), np.zeros((0, 0))
        )
        assert len(points) == 1
        assert points[0].weight == pytest.approx(1.0, abs=1e-15)
        summary = latent_marginals(points)
        np.testing.assert_allclose(summary["mean"], mean_ref, atol=1e-8)
        np.testing.assert_allclose(summary["sd"], sd_ref, atol=1e-8)

    def test_constrained_mode_satisfies_constraints(self):
        m = rw2_fixed_model()
        approx = gaussian_approx(m, m.theta_natural(m.initial_internal()))
        resid = np.abs(m.constraints @ approx.mode)
        assert resid.max() < 1e-8

    def test_full_pipeline_on_pinned_model_matches_gls(self):
        m = rw2_fixed_model()
        mean_ref, sd_ref = dref.gls(m, m.theta_natural(m.initial_internal()))
        fit = fit_model(m)
        np.testing.assert_allclose(fit.latent_summary["mean"], mean_ref, atol=1e-8)
        np.testing.assert_allclose(fit.latent_summary["sd"], sd_ref, atol=1e-8)
        assert fit.hyper_summary["tau"]["q025"] == fit.hyper_summary["tau"]["q975"]


class TestEvidence:
    def test_unconstrained_evidence_is_exact(self):
        # every hyper pinned, so the prior contributes nothing and the
        # Laplace ratio must reproduce the marginal likelihood outright
        for tau in (0.8, 3.0, 7.5):
            m = iid_fixed_model(tau=tau)
            lp, _ = log_posterior_theta(m, m.initial_internal())
            ref = dref.log_evidence(m, m.theta_natural(m.initial_internal()))
            assert lp == pytest.approx(ref, abs=1e-8)

    def test_constrained_evidence_differences_are_exact(self):
        taus = (1.5, 4.0, 9.0)
        lps, refs = [], []
        for tau in taus:
            m = rw2_fixed_model(tau=tau)
            lp, _ = log_posterior_theta(m, m.initial_internal())
            lps.append(lp)
            refs.append(dref.log_evidence(m, m.theta_natural(m.initial_internal())))
        dl = np.diff(np.array(lps))
        dr = np.diff(np.array(refs))
        np.testing.assert_allclose(dl, dr, atol=1e-8)

    def test_evidence_differences_respect_data_rescaling(self):
        # scaling responses by c, prior sds by c and precisions by 1/c^2
        # shifts every evidence value by the same constant
        c = 3.7
        taus = (2.0, 6.0)
        base, scaled = [], []
        for tau in taus:
            m = iid_fixed_model(lam=2.5, tau=tau, prior_sd=1.0)
            base.append(log_posterior_theta(m, m.initial_internal())[0])
            ms = iid_fixed_model(
                lam=2.5 / c**2, tau=tau / c**2, prior_sd=c
            )
            scaled_spec = ms.spec
            blk = scaled_spec.blocks[0]
            resp = blk.responses * c
            spec2 = ModelSpec(
                blocks=(
                    BlockSpec(blk.name, blk.family, resp, blk.terms, blk.hyper),
                ),
                components=scaled_spec.components,
                fixed_effects=scaled_spec.fixed_effects,
                hypers=scaled_spec.hypers,
                covariates=scaled_spec.covariates,
            )
            m2 = build_model(spec2)
            scaled.append(log_posterior_theta(m2, m2.initial_internal())[0])
        assert base[1] - base[0] == pytest.approx(
            scaled[1] - scaled[0], abs=1e-8
        )

    def test_prior_enters_through_internal_density(self):
        m = tau_free_model()
        t = np.log(4.0)
        lp, _ = log_posterior_theta(m, np.array([t]))
        ref = dref.log_evidence(m, m.theta_natural(np.array([t])))
        offset = lp - ref
        # the leftover is the hyper prior on the internal scale: it must move
        # with theta the way the prior density does
        t2 = np.log(7.0)
        lp2, _ = log_posterior_theta(m, np.array([t2]))
        ref2 = dref.log_evidence(m, m.theta_natural(np.array([t2])))
        dp = m.logprior_internal(np.array([t2])) - m.logprior_internal(
            np.array([t])
        )
        assert (lp2 - ref2) - offset == pytest.approx(dp, abs=1e-8)


class TestOptimizeTheta:
    def test_single_hyper_mode_matches_golden_section(self):
        m = tau_free_model()

        def neg_lp(t):
            return -log_posterior_theta(m, np.array([t]))[0]

        ref = minimize_scalar(
            neg_lp, bracket=(-1.0, 1.0, 4.0), method="golden",
            options={"xtol": 1e-10},
        )
        (theta_mode, _, _), hessian, info = optimize_theta(HyperEvaluator(m))
        assert theta_mode[0] == pytest.approx(ref.x, abs=1e-4)
        assert hessian.shape == (1, 1) and hessian[0, 0] > 0.0
        assert info["evaluations"] <= 200

    def test_restart_at_mode_converges_with_few_evaluations(self):
        m = tau_free_model()
        (theta_mode, _, _), _, _ = optimize_theta(HyperEvaluator(m))
        (theta2, _, _), _, info = optimize_theta(
            HyperEvaluator(m), init=theta_mode
        )
        assert theta2[0] == pytest.approx(theta_mode[0], abs=1e-6)
        assert info["evaluations"] <= 8

    def test_evaluation_budget_error_carries_best_point(self, monkeypatch):
        m = two_hyper_model()
        monkeypatch.setattr(inference, "_search_budget", lambda m: 3)
        with pytest.raises(InferenceError) as err:
            optimize_theta(HyperEvaluator(m))
        assert "budget" in str(err.value)
        assert err.value.best is not None
        assert np.all(np.isfinite(err.value.best))

    def test_fixed_hypers_are_not_searched(self):
        m = three_hyper_model()
        (theta_mode, _, _), hessian, _ = optimize_theta(HyperEvaluator(m))
        assert hessian.shape == (3, 3)
        fixed_idx = [
            i for i, c in enumerate(m.hyper_coords) if c.is_fixed
        ]
        assert len(fixed_idx) == 1
        assert m.theta_natural(theta_mode)["tau_z"] == 2.8

    def test_failed_cold_start_is_not_repeated(self, monkeypatch):
        # a cold start is deterministic: only a failed warm start earns a
        # cold retry, so a point with no warm start is solved once
        m = _study_model(generate_sim1, sim1_spec, SIM1_TRUTH, 50)
        calls = []

        def fail(*args, **kwargs):
            calls.append(kwargs.get("init_w"))
            raise InferenceError("forced failure")

        monkeypatch.setattr(inference, "log_posterior_theta", fail)
        with pytest.raises(InferenceError, match="no successful") as err:
            optimize_theta(HyperEvaluator(m))
        assert err.value.diagnostics["evaluations"] == 3
        assert len(calls) == 3

    def test_no_successful_evaluation_is_an_error(self, monkeypatch):
        # a search whose every evaluation failed must not hand the prior
        # medians and a flat Hessian on to the exploration
        def fail(*args, **kwargs):
            raise InferenceError("forced failure")

        monkeypatch.setattr("circfit.inference.gaussian_approx", fail)
        with pytest.raises(
            InferenceError,
            match="no successful Laplace evaluation during hyper optimization",
        ):
            fit_model(tau_free_model())

    def test_failed_stencil_evaluation_is_an_error(self, monkeypatch):
        # a failed stencil point must not enter the Hessian as a value: the
        # old -1e10 failure wall gave entries of order 1e12 and eigenvalues
        # of both signs
        m = two_hyper_model()
        (theta_mode, _, _), _, _ = optimize_theta(HyperEvaluator(m))
        real_lpt = inference.log_posterior_theta
        real_search = inference._newton_search
        state = {"searched": False, "failing": None}

        def search(*args, **kwargs):
            message = real_search(*args, **kwargs)
            state["searched"] = True
            return message

        def failing(model, theta_internal, *args, **kwargs):
            # the first point after the search fails, cold retry included
            if state["searched"] and state["failing"] is None:
                state["failing"] = np.array(theta_internal, dtype=float)
            if state["failing"] is not None and np.array_equal(
                theta_internal, state["failing"]
            ):
                raise InferenceError("forced failure")
            return real_lpt(model, theta_internal, *args, **kwargs)

        monkeypatch.setattr(inference, "log_posterior_theta", failing)
        monkeypatch.setattr(inference, "_newton_search", search)
        with pytest.raises(InferenceError, match="Hessian stencil") as err:
            optimize_theta(HyperEvaluator(m))
        np.testing.assert_array_equal(
            err.value.diagnostics["theta"], state["failing"]
        )
        np.testing.assert_array_equal(err.value.best, theta_mode)

    def test_gradient_probe_past_the_box_is_a_failed_evaluation(
        self, monkeypatch
    ):
        # from a start on either box edge the probe past it is a failed
        # evaluation, never solved: the one-sided difference to the other
        # probe leads the search off the edge to the mode.  lp(30) lies far
        # below -1e10 here: a failure read as that value would hold a
        # search on the edge
        m = tau_free_model()
        ref = minimize_scalar(
            lambda t: -log_posterior_theta(m, np.array([t]))[0],
            bracket=(-1.0, 1.0, 4.0), method="golden",
            options={"xtol": 1e-10},
        )
        real = inference.log_posterior_theta
        for edge in (30.0, -30.0):
            evaluated = []

            def recording(model, theta_internal, *args, **kwargs):
                evaluated.append(float(theta_internal[0]))
                return real(model, theta_internal, *args, **kwargs)

            monkeypatch.setattr(inference, "log_posterior_theta", recording)
            (theta_mode, _, _), hessian, info = optimize_theta(
                HyperEvaluator(m), init=np.array([edge])
            )
            assert evaluated[:2] == [edge, edge - np.sign(edge) * 1e-4]
            assert np.max(np.abs(evaluated)) <= 30.0
            assert theta_mode[0] == pytest.approx(ref.x, abs=1e-4)
            assert hessian[0, 0] > 0.0
            assert info["evaluations"] <= 200

    def test_saturated_vine_partials_are_a_failed_evaluation(self):
        # inside the box, partials of -+tanh(15) alternating over mv6's 15
        # vine coordinates compose to an R that rounds to indefinite: the
        # point fails as an evaluation instead of raising ConfigurationError
        m = _study_model(generate_mv6, mv6_spec, MV6_TRUTH, 30)
        hyper = HyperEvaluator(m)
        u = hyper.to_u(m.initial_internal())
        for j, i in enumerate(hyper.free):
            name = m.hyper_coords[i].name
            if name.startswith("R["):
                u[j] = 30.0 if int(name[2:-1]) % 2 else -30.0
        theta, lp, approx = hyper(u)
        assert lp == -np.inf and approx is None
        with pytest.raises(InferenceError, match="positive definite"):
            gaussian_approx(m, m.theta_natural(theta))

    def test_budget_error_counts_the_evaluations_made(self, monkeypatch):
        # the refused attempt is not an evaluation
        m = two_hyper_model()
        calls = []
        real = inference.log_posterior_theta

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(inference, "log_posterior_theta", counting)
        monkeypatch.setattr(inference, "_search_budget", lambda m: 7)
        with pytest.raises(InferenceError, match="budget") as err:
            optimize_theta(HyperEvaluator(m))
        assert err.value.diagnostics["evaluations"] == 7 == len(calls)

    def test_saddle_of_lp_is_not_a_mode(self, monkeypatch):
        # past the search lp gains a bowl around the mode, so the stencil
        # reads a minimum there: the mode is refused, not handed on to the
        # marginals with no width
        m = two_hyper_model()
        (theta_mode, _, _), _, _ = optimize_theta(HyperEvaluator(m))
        real_lpt = inference.log_posterior_theta
        real_search = inference._newton_search
        searched = []

        def search(*args, **kwargs):
            message = real_search(*args, **kwargs)
            searched.append(True)
            return message

        def bowl(model, theta_internal, *args, **kwargs):
            lp, approx = real_lpt(model, theta_internal, *args, **kwargs)
            if searched:
                lp += 1e3 * float(np.sum((theta_internal - theta_mode) ** 2))
            return lp, approx

        monkeypatch.setattr(inference, "log_posterior_theta", bowl)
        monkeypatch.setattr(inference, "_newton_search", search)
        with pytest.raises(
            InferenceError, match="not positive definite"
        ) as err:
            optimize_theta(HyperEvaluator(m))
        np.testing.assert_array_equal(err.value.best, theta_mode)
        assert np.linalg.eigvalsh(err.value.diagnostics["hessian"]).min() < 0.0

    def test_hessian_is_symmetric_positive_definite(self):
        m = two_hyper_model()
        _, hessian, _ = optimize_theta(HyperEvaluator(m))
        assert np.array_equal(hessian, hessian.T)
        assert np.all(np.linalg.eigvalsh(hessian) > 0.0)

    def test_first_step_moves_at_most_one_unit(self, monkeypatch):
        # |grad lp(u0)| is in the hundreds here; an unscaled first step
        # went to the +-30 box corner, where evaluations fail.  Every step
        # the search accepts, the first included, moves at most one
        # internal unit per coordinate
        m = _study_model(generate_sim2, sim2_spec, SIM2_TRUTH, 100, seed=1000)
        h = inference.GRAD_STEP
        evaluated, real_search = [], inference._newton_search

        def search(evaluate, u, box):
            def recording(v):
                point = evaluate(v)
                evaluated.append((np.array(v), point[1]))
                return point
            return real_search(recording, u, box)

        monkeypatch.setattr(inference, "_newton_search", search)
        optimize_theta(HyperEvaluator(m))
        u = np.array([v for v, _ in evaluated])
        lp = np.array([v for _, v in evaluated])
        m_free = u.shape[1]
        assert np.max(np.abs(u)) < 30.0
        first_axis = h * np.eye(m_free)[0]
        # an accepted point is the one whose probes follow it
        accepted = [
            k for k in range(len(u) - 1)
            if np.array_equal(u[k + 1], u[k] + first_axis)
        ]
        assert accepted[0] == 0 and len(accepted) > 2
        # the start's probes: u0 + h e_i, then u0 - h e_i, for each axis i
        probes = lp[1 : 1 + 2 * m_free].reshape(m_free, 2)
        slopes = (probes[:, 0] - probes[:, 1]) / (2 * h)
        assert np.max(np.abs(slopes)) > 100.0
        moves = np.abs(np.diff(u[accepted], axis=0))
        assert np.max(moves) <= 1.0 + 1e-12

    @pytest.mark.parametrize("factory", [
        lambda: _study_model(
            generate_sim1, sim1_spec, SIM1_TRUTH, 1000, seed=1000
        ),
        two_hyper_model,
        lambda: _study_model(
            generate_sim2, sim2_spec, SIM2_TRUTH, 100, seed=1000
        ),
    ], ids=["sim1_n1000", "two_hyper", "sim2_n100"])
    def test_search_evaluates_no_point_twice(self, monkeypatch, factory):
        m = factory()
        evaluated = []
        real = inference.log_posterior_theta

        def recording(model, theta_internal, *args, **kwargs):
            evaluated.append(tuple(theta_internal))
            return real(model, theta_internal, *args, **kwargs)

        monkeypatch.setattr(inference, "log_posterior_theta", recording)
        _, _, info = optimize_theta(HyperEvaluator(m))
        search = evaluated[: info["evaluations"]]
        assert len(set(search)) == len(search)
        assert info["optimizer_message"] in (
            "gradient tolerance", "lp gain below SEARCH_GAIN", "roundoff step"
        )

    def test_one_hyper_search_stops_on_a_sub_roundoff_step(self, monkeypatch):
        # the probes read a slope of 2 GRAD_TOL at the start and every
        # other point reads lower: the Newton step is halved until it is
        # below roundoff, where it stops.  Halved on, the step would round
        # to zero and evaluate the start again, and the search would read
        # the same probes there until the budget ran out
        m = tau_free_model()
        u0 = float(optimize_theta(HyperEvaluator(m))[0][0][0])
        h, tilt = inference.GRAD_STEP, 2.0 * inference.GRAD_TOL
        real = inference.log_posterior_theta
        evaluated = []

        def tilted(model, theta_internal, *args, **kwargs):
            u = float(theta_internal[0])
            evaluated.append(u)
            lp, approx = real(model, theta_internal, *args, **kwargs)
            if u in (u0, u0 + h, u0 - h):
                return lp + tilt * (u - u0), approx
            return lp - 1.0, approx

        monkeypatch.setattr(inference, "log_posterior_theta", tilted)
        (theta_mode, _, _), _, info = optimize_theta(
            HyperEvaluator(m), init=np.array([u0])
        )
        assert info["optimizer_message"] == "roundoff step"
        assert theta_mode[0] == u0
        search = evaluated[: info["evaluations"]]
        assert len(set(search)) == len(search)
        # the last step tried is the last one above roundoff
        assert 1e-8 < abs(search[-1] - u0) <= 2e-8
        assert info["evaluations"] <= 30

    @pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003, 1004])
    def test_sim1_fit_makes_at_most_32_laplace_calls(self, seed, monkeypatch):
        # L-BFGS-B made 39 calls on each of these fits: 27 in the search
        m = _study_model(generate_sim1, sim1_spec, SIM1_TRUTH, 1000, seed=seed)
        calls = []
        real = inference.log_posterior_theta

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(inference, "log_posterior_theta", counting)
        fit_model(m)
        assert len(calls) <= 32

    def test_one_hyper_budget_error_carries_best_point(self, monkeypatch):
        m = tau_free_model()
        for budget in (1, 3, 5):
            monkeypatch.setattr(
                inference, "_search_budget", lambda m, b=budget: b
            )
            with pytest.raises(InferenceError, match="budget") as err:
                optimize_theta(HyperEvaluator(m))
            assert err.value.diagnostics["evaluations"] == budget
            assert err.value.best is not None
            assert np.all(np.isfinite(err.value.best))

    @pytest.mark.parametrize("model, m", [
        (tau_free_model, 1), (two_hyper_model, 2), (three_hyper_model, 3),
    ])
    def test_search_budget_is_gradients_of_2m_plus_1_points(
        self, monkeypatch, model, m
    ):
        # one search iteration costs one central-difference gradient, so
        # the budget counts gradients over the free hypers
        monkeypatch.setattr(inference, "SEARCH_GRADIENTS", 1)
        with pytest.raises(InferenceError, match="budget") as err:
            optimize_theta(HyperEvaluator(model()))
        assert err.value.diagnostics["evaluations"] == 2 * m + 1

    def test_study_budgets_are_no_smaller_than_their_former_settings(self):
        # sim1, sim2 and sim3 (1, 4 and 12 free hypers) searched under 200,
        # 600 and 1200 evaluations before the budget followed m
        budgets = [inference._search_budget(m) for m in (1, 4, 12)]
        assert budgets == [201, 603, 1675]


class TestExploreTheta:
    def test_single_hyper_grid_is_odd_symmetric_unimodal(self):
        m = tau_free_model()
        hyper = HyperEvaluator(m)
        mode, hessian, _ = optimize_theta(hyper)
        points = explore_theta(hyper, mode, hessian)
        theta_mode = mode[0]
        w = np.array([pt.weight for pt in points])
        t = np.array([pt.theta_internal[0] for pt in points])
        assert len(points) % 2 == 1 and len(points) >= 5
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        # symmetric offsets around the mode
        off = t - theta_mode[0]
        np.testing.assert_allclose(np.sort(off), -np.sort(off)[::-1], atol=1e-9)
        # weights climb to a single peak and fall away
        order = np.argsort(t)
        ws = w[order]
        peak = int(np.argmax(ws))
        assert np.all(np.diff(ws[: peak + 1]) >= -1e-12)
        assert np.all(np.diff(ws[peak:]) <= 1e-12)

    def test_two_hyper_grid_weights_normalized(self):
        m = two_hyper_model()
        hyper = HyperEvaluator(m)
        mode, hessian, _ = optimize_theta(hyper)
        points = explore_theta(hyper, mode, hessian)
        w = np.array([pt.weight for pt in points])
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0.0)
        sizes = {len(pt.theta_internal) for pt in points}
        assert sizes == {m.hyper_dim}

    def test_three_hyper_composite_design_layout(self):
        m = three_hyper_model()
        hyper = HyperEvaluator(m)
        mode, hessian, _ = optimize_theta(hyper)
        points = explore_theta(hyper, mode, hessian)
        # center + 2^3 corners + 2 * 3 axial points
        assert len(points) == 15
        w = np.array([pt.weight for pt in points])
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w[0] > 0.0

    def test_one_hyper_grid_spans_the_longer_walk_both_ways(self):
        # two steps below the mode the upward walk runs further than the
        # downward one; the grid takes the longer extent on both sides,
        # not the extent of the walk that ran last
        m = tau_free_model()
        (theta_mode, _, _), hessian, _ = optimize_theta(HyperEvaluator(m))
        a = 0.75 / np.sqrt(hessian[0, 0])
        start = theta_mode - 2.0 * a
        lp0 = log_posterior_theta(m, start)[0]

        def extent(sign):
            for k in range(1, 11):
                lp = log_posterior_theta(m, start + sign * k * a)[0]
                if lp < lp0 - 5.0:
                    return k - 1
            return 10

        up, down = extent(1), extent(-1)
        assert up > down
        points = explore_theta(*evaluated_at(m, start), hessian)
        offsets = sorted(
            round(float((pt.theta_internal[0] - start[0]) / a))
            for pt in points
        )
        assert offsets == list(range(-up, up + 1))

    @pytest.mark.parametrize("factory", [tau_free_model, two_hyper_model])
    def test_every_grid_walk_starts_warm_from_the_mode(
        self, factory, monkeypatch
    ):
        m = factory()
        hyper = HyperEvaluator(m)
        mode, hessian, _ = optimize_theta(hyper)
        theta_mode, _, center = mode
        calls = []
        real = inference.log_posterior_theta

        def recording(model, theta_internal, init_w=None):
            calls.append((np.array(theta_internal), init_w))
            return real(model, theta_internal, init_w=init_w)

        monkeypatch.setattr(inference, "log_posterior_theta", recording)
        explore_theta(hyper, mode, hessian)
        axes = _spd_directions(hessian, 0.75)
        for i in range(axes.shape[1]):
            for sign in (1, -1):
                first = theta_mode + sign * axes[:, i]
                init_w = next(
                    w for th, w in calls
                    if np.allclose(th, first, rtol=0.0, atol=1e-12)
                )
                assert init_w is not None
                np.testing.assert_array_equal(init_w, center.mode)

    def test_weighted_mean_matches_dense_quadrature(self):
        m = tau_free_model()
        hyper = HyperEvaluator(m)
        mode, hessian, _ = optimize_theta(hyper)
        points = explore_theta(hyper, mode, hessian)
        w = np.array([pt.weight for pt in points])
        t = np.array([pt.theta_internal[0] for pt in points])
        mean_points = float(w @ t)

        theta_mode = mode[0]
        sd = float(1.0 / np.sqrt(hessian[0, 0]))
        grid = np.linspace(theta_mode[0] - 8 * sd, theta_mode[0] + 8 * sd, 601)
        lp = np.array(
            [log_posterior_theta(m, np.array([g]))[0] for g in grid]
        )
        dens = np.exp(lp - lp.max())
        dens /= np.trapezoid(dens, grid)
        mean_quad = float(np.trapezoid(dens * grid, grid))
        assert abs(mean_points - mean_quad) <= 0.01 * max(abs(mean_quad), sd)

    @pytest.mark.parametrize("factory", [kappa_free_model, two_hyper_model])
    def test_no_hyper_point_is_evaluated_twice(self, factory, monkeypatch):
        m = factory()
        hyper = HyperEvaluator(m)
        mode, hessian, _ = optimize_theta(hyper)
        at_mode = tuple(mode[0].tolist())
        evaluated, solved = [], []
        real_lpt, real_ga = inference.log_posterior_theta, inference.gaussian_approx

        def recording_lpt(model, theta_internal, *args, **kwargs):
            evaluated.append(tuple(np.asarray(theta_internal).tolist()))
            return real_lpt(model, theta_internal, *args, **kwargs)

        def recording_ga(model, theta, *args, **kwargs):
            solved.append(dict(theta))
            return real_ga(model, theta, *args, **kwargs)

        monkeypatch.setattr(inference, "log_posterior_theta", recording_lpt)
        monkeypatch.setattr(inference, "gaussian_approx", recording_ga)
        points = explore_theta(hyper, mode, hessian)
        assert len(evaluated) == len(set(evaluated))
        # the mode is handed on as its evaluation: never solved again
        assert at_mode not in evaluated
        assert m.theta_natural(mode[0]) not in solved
        held = [tuple(pt.theta_internal.tolist()) for pt in points]
        assert at_mode in held
        assert set(held) <= set(evaluated) | {at_mode}

    def test_composite_design_starts_warm_from_the_mode(self, monkeypatch):
        # the design's first point warm-starts from the mode's latent mode,
        # as the grid walks do: no point of the design is solved cold
        m = three_hyper_model()
        hyper = HyperEvaluator(m)
        mode, hessian, _ = optimize_theta(hyper)
        cold = []
        real = inference.gaussian_approx

        def recording(model, theta, init_w=None):
            cold.append(init_w is None)
            return real(model, theta, init_w=init_w)

        monkeypatch.setattr(inference, "gaussian_approx", recording)
        points = explore_theta(hyper, mode, hessian)
        assert len(points) == 15 and len(cold) == 14
        assert not any(cold)

    @pytest.mark.parametrize("factory", [tau_free_model, two_hyper_model])
    def test_points_carry_their_natural_hypers(self, factory):
        m = factory()
        hyper = HyperEvaluator(m)
        mode, hessian, _ = optimize_theta(hyper)
        for pt in explore_theta(hyper, mode, hessian):
            assert pt.theta == m.theta_natural(pt.theta_internal)

    def test_flat_direction_stays_inside_the_hyper_box(self):
        # a near-flat curvature makes the first grid step 750 internal
        # units long, where tanh rounds the partial autocorrelation to 1
        base = ar2_fixed_model()
        hypers = dict(base.spec.hypers)
        hypers["p1"] = PriorSpec("pc_correlation", (0.5, 0.5))
        m = build_model(replace(base.spec, hypers=hypers))
        mode = m.initial_internal()
        points = explore_theta(*evaluated_at(m, mode), np.array([[1e-6]]))
        assert len(points) == 1
        np.testing.assert_array_equal(points[0].theta_internal, mode)
        for pt in points:
            theta = m.theta_natural(pt.theta_internal)
            assert -1.0 < theta["p1"] < 1.0 and -1.0 < theta["p2"] < 1.0


def bisection_quantiles(mus, sds, weights, probs, tol=1e-8):
    """Reference for ``_mixture_quantiles``: plain bisection in probability
    on [min(mu - 10 sd), max(mu + 10 sd)], all nodes together."""
    n = mus.shape[1]
    sds = np.maximum(sds, 1e-12)
    out = np.empty((len(probs), n))
    lo0 = np.min(mus - 10.0 * sds, axis=0)
    hi0 = np.max(mus + 10.0 * sds, axis=0)

    def cdf(x):
        z = (x[None, :] - mus) / sds
        return np.einsum("p,pn->n", weights, ndtr(z))

    for qi, p in enumerate(probs):
        lo, hi = lo0.copy(), hi0.copy()
        mid = 0.5 * (lo + hi)
        for _ in range(200):
            c = cdf(mid)
            under = c < p
            lo = np.where(under, mid, lo)
            hi = np.where(under, hi, mid)
            if np.max(np.abs(c - p)) < tol:
                break
            mid = 0.5 * (lo + hi)
        out[qi] = mid
    return out


def mixture_cdf(mus, sds, weights, x):
    """F at x (k, nodes) of every node's mixture."""
    z = (x[None] - mus[:, None, :]) / np.maximum(sds, 1e-12)[:, None, :]
    return np.einsum("p,pkn->kn", weights, ndtr(z))


def random_mixture(seed):
    """Mixtures over 1-6 points and 1-5 nodes: sds from 1e-6 to 1e2 or at
    (and below) the 1e-12 floor, and some nodes with their components 1e3
    sds apart."""
    rng = np.random.default_rng(seed)
    n_pts, n = rng.integers(1, 7), rng.integers(1, 6)
    mus = rng.normal(0.0, 3.0, (n_pts, n))
    sds = 10.0 ** rng.uniform(-6.0, 2.0, (n_pts, n))
    floor = rng.random((n_pts, n)) < 0.2
    sds[floor] = rng.choice([0.0, 1e-14, 1e-12], floor.sum())
    apart = rng.random(n) < 0.3
    spread = 1e3 * np.maximum(sds, 1e-12) * np.arange(n_pts)[:, None]
    mus[:, apart] = mus[:1, apart] + spread[:, apart]
    return mus, sds, rng.dirichlet(np.ones(n_pts))


class TestLatentMixture:
    def test_single_point_quantiles_are_gaussian(self):
        m = iid_fixed_model()
        points = explore_theta(
            *evaluated_at(m, m.initial_internal()), np.zeros((0, 0))
        )
        s = latent_marginals(points)
        np.testing.assert_allclose(
            s["q975"] - s["mean"], 1.959964 * s["sd"], rtol=1e-6
        )
        np.testing.assert_allclose(
            s["mean"] - s["q025"], 1.959964 * s["sd"], rtol=1e-6
        )
        np.testing.assert_allclose(s["q50"], s["mean"], atol=1e-8)

    def test_two_component_mixture_median(self):
        mus = np.array([[-1.0], [1.0]])
        sds = np.ones((2, 1))
        weights = np.array([0.5, 0.5])
        qs = _mixture_quantiles(mus, sds, weights, [0.025, 0.5, 0.975])
        assert abs(qs[1, 0]) < 1e-6
        assert qs[0, 0] == pytest.approx(-qs[2, 0], abs=1e-6)

    def test_mixture_quantiles_match_normal_ppf(self):
        mus = np.array([[0.7]])
        sds = np.array([[1.3]])
        weights = np.array([1.0])
        qs = _mixture_quantiles(mus, sds, weights, [0.1, 0.5, 0.9])
        ref = norm.ppf([0.1, 0.5, 0.9], loc=0.7, scale=1.3)
        np.testing.assert_allclose(qs[:, 0], ref, atol=1e-7)


    @given(st.integers(0, 2**32 - 1))
    # Newton bounced between this seed's bracket ends, shrinking the
    # bracket by about 1e-5 a step, and left node 3's median unsolved
    @example(643373433)
    @settings(max_examples=300, deadline=None)
    def test_quantiles_solve_the_mixture_cdf(self, seed):
        # where one float step of x moves F by more than tol (a component
        # at the 1e-12 sd floor away from 0), the root lies between q's
        # neighbouring floats instead
        tol, probs = inference.QUANTILE_TOL, [0.025, 0.5, 0.975]
        mus, sds, weights = random_mixture(seed)
        p = np.array(probs)[:, None]
        qs = _mixture_quantiles(mus, sds, weights, probs)
        ref = bisection_quantiles(mus, sds, weights, probs, tol)
        assert np.all(qs[0] <= qs[1]) and np.all(qs[1] <= qs[2])
        f, f_ref = (mixture_cdf(mus, sds, weights, q) for q in (qs, ref))
        below = mixture_cdf(mus, sds, weights, np.nextafter(qs, -np.inf))
        above = mixture_cdf(mus, sds, weights, np.nextafter(qs, np.inf))
        solved = np.abs(f - p) < tol
        at_float = (below <= p + tol) & (above >= p - tol)
        assert np.all(solved | at_float)
        agree = np.abs(f - f_ref) < 2.0 * tol
        near = np.abs(qs - ref) <= 2.0 * np.spacing(np.abs(ref))
        assert np.all(agree | (at_float & near))

    def test_a_converged_node_stays_put_while_others_search(
        self, monkeypatch
    ):
        # node 0 is solved from the moment-matched start in a step or two;
        # node 1's components lie 1e3 sds apart, so its start reads zero
        # density and bisection takes dozens of iterations.  Node 0's
        # entries must be frozen meanwhile: neither moved nor evaluated
        probs = [0.025, 0.5, 0.975]
        mus = np.array([[0.3, 0.0], [0.3, 1000.0]])
        sds = np.ones((2, 2))
        weights = np.array([0.3, 0.7])
        evaluated = []
        real = inference.ndtr

        def counting(z):
            evaluated.append(z.shape[-1])
            return real(z)

        monkeypatch.setattr(inference, "ndtr", counting)
        alone, iterations, work = [], [], 0
        for cols in (slice(0, 1), slice(1, 2)):
            alone.append(
                _mixture_quantiles(mus[:, cols], sds[:, cols], weights, probs)
            )
            iterations.append(len(evaluated))
            work += sum(evaluated)
            evaluated.clear()
        assert iterations[0] <= 3 and iterations[1] >= 10
        qs = _mixture_quantiles(mus, sds, weights, probs)
        assert len(evaluated) == iterations[1] and sum(evaluated) == work
        np.testing.assert_allclose(qs, np.hstack(alone), rtol=1e-14)
        np.testing.assert_allclose(qs[:, 0], norm.ppf(probs, 0.3), atol=1e-9)
        f = mixture_cdf(mus, sds, weights, qs)
        assert np.all(np.abs(f - np.array(probs)[:, None]) < 1e-8)


class TestHyperMarginals:
    def test_single_free_hyper_uses_exploration_grid(self):
        m = tau_free_model()
        hyper = HyperEvaluator(m)
        mode, hessian, _ = optimize_theta(hyper)
        points = explore_theta(hyper, mode, hessian)
        grids = hyper_marginals(hyper, points, mode, hessian)
        theta_mode = mode[0]
        g = grids["tau"]
        t_points = np.sort([pt.theta_internal[0] for pt in points])
        np.testing.assert_allclose(g["grid_internal"], t_points, atol=1e-12)
        assert np.trapezoid(g["density"], g["grid"]) == pytest.approx(
            1.0, abs=1e-8
        )
        assert g["q025"] < g["q50"] < g["q975"]
        assert abs(np.log(g["mode"]) - theta_mode[0]) < 0.5 * 0.75 / np.sqrt(
            hessian[0, 0]
        )

    def test_fixed_hyper_marginal_is_degenerate(self):
        m = three_hyper_model()
        fit = fit_model(m)
        g = fit.hyper_grids["tau_z"]
        assert g["fixed"] is True
        assert g["grid"].shape == (1,)
        assert g["mode"] == g["mean"] == g["q50"] == 2.8

    def test_one_point_scan_grid_raises_and_names_the_hyper(self):
        # a near-flat curvature sends p1's first scan step 500 internal
        # units out of the hyper box in both directions, leaving only the
        # mode, whose one-point grid has no area to normalize by
        base = ar2_fixed_model()
        hypers = dict(base.spec.hypers)
        hypers["p1"] = PriorSpec("pc_correlation", (0.5, 0.5))
        hypers["p2"] = PriorSpec("pc_correlation", (0.5, 0.5))
        m = build_model(replace(base.spec, hypers=hypers))
        hyper, mode = evaluated_at(m, m.initial_internal())
        hessian = np.diag([1e-6, 1.0])
        points = explore_theta(hyper, mode, hessian)
        with pytest.raises(InferenceError, match="'p1' kept only the mode"):
            hyper_marginals(hyper, points, mode, hessian)

    def test_one_point_exploration_grid_raises_and_names_the_hyper(self):
        # with one free hyper the exploration grid is the marginal's grid;
        # the mode alone has no area to normalize by
        m = tau_free_model()
        hyper = HyperEvaluator(m)
        mode, hessian, _ = optimize_theta(hyper)
        theta_mode = mode[0]
        points = [
            pt for pt in explore_theta(hyper, mode, hessian)
            if np.array_equal(pt.theta_internal, theta_mode)
        ]
        assert len(points) == 1
        with pytest.raises(
            InferenceError, match="'tau' kept only the mode"
        ) as err:
            hyper_marginals(hyper, points, mode, hessian)
        np.testing.assert_array_equal(err.value.best, theta_mode)

    def test_mode_refinement_survives_an_underflowing_neighbour(self):
        # exp(-800) underflows to a zero density; the parabola through the
        # top three log densities -800, 0, -116 peaks at 171/916
        coord = HyperCoord("a1", PriorSpec("gaussian", (0.0, 1.0)), "t")
        g = _natural_grid_summary(
            np.array([-0.5, 0.0, 0.5]), np.array([-800.0, 0.0, -116.0]), coord
        )
        assert g["density"][0] == 0.0
        assert g["mode"] == pytest.approx(171 / 916, rel=1e-12)

    def test_scans_start_warm_from_the_mode_point(self, monkeypatch):
        m = two_hyper_model()
        hyper = HyperEvaluator(m)
        mode, hessian, _ = optimize_theta(hyper)
        points = explore_theta(hyper, mode, hessian)
        cold = []
        real = inference.gaussian_approx

        def recording(model, theta, init_w=None, **kwargs):
            cold.append(init_w is None)
            return real(model, theta, init_w=init_w, **kwargs)

        monkeypatch.setattr(inference, "gaussian_approx", recording)
        hyper_marginals(hyper, points, mode, hessian)
        assert cold and not any(cold)

    def test_every_scan_starts_warm_from_the_mode(self, monkeypatch):
        m = two_hyper_model()
        hyper = HyperEvaluator(m)
        mode, hessian, _ = optimize_theta(hyper)
        theta_mode, _, center = mode
        points = explore_theta(hyper, mode, hessian)
        calls = []
        real = inference.log_posterior_theta

        def recording(model, theta_internal, init_w=None):
            calls.append((np.array(theta_internal), init_w))
            return real(model, theta_internal, init_w=init_w)

        monkeypatch.setattr(inference, "log_posterior_theta", recording)
        hyper_marginals(hyper, points, mode, hessian)
        Hinv = np.linalg.inv(hessian)
        for j, o in ((0, 1), (1, 0)):
            ridge = -hessian[o, j] / hessian[o, o]
            for sign in (1.0, -1.0):
                delta = sign * 0.5 * np.sqrt(Hinv[j, j])
                first = theta_mode.copy()
                first[j] += delta
                first[o] += ridge * delta
                init_w = next(
                    w for th, w in calls
                    if np.allclose(th, first, rtol=0.0, atol=1e-12)
                )
                assert init_w is not None
                np.testing.assert_array_equal(init_w, center.mode)

    def test_a_failed_mode_is_refused_by_every_stage(self, monkeypatch):
        # a point outside the hyper box is a failed evaluation: no stage
        # takes it as the mode, and with no free hyper the search's one
        # evaluation failing raises the same error
        hyper = HyperEvaluator(two_hyper_model())
        failed = hyper(np.full(2, 31.0))
        assert failed[2] is None
        match = "latent approximation failed at the hyper mode"
        with pytest.raises(InferenceError, match=match):
            explore_theta(hyper, failed, np.eye(2))
        with pytest.raises(InferenceError, match=match):
            hyper_marginals(hyper, [], failed, np.eye(2))

        def fail(*args, **kwargs):
            raise InferenceError("forced failure")

        monkeypatch.setattr(inference, "gaussian_approx", fail)
        with pytest.raises(InferenceError, match=match):
            optimize_theta(HyperEvaluator(iid_fixed_model()))

    def test_profile_scans_cover_every_free_hyper(self):
        m = two_hyper_model()
        fit = fit_model(m)
        for name in ("tau", "lam"):
            g = fit.hyper_grids[name]
            assert len(g["grid"]) >= 7
            assert np.trapezoid(g["density"], g["grid"]) == pytest.approx(
                1.0, abs=1e-8
            )
            assert g["q025"] < g["mode"] < g["q975"]


class TestFitModel:
    @pytest.mark.parametrize("factory", [
        iid_fixed_model, tau_free_model, two_hyper_model, three_hyper_model,
    ])
    def test_a_fit_builds_one_hyper_evaluator(self, factory, monkeypatch):
        built = []

        class Counting(HyperEvaluator):
            def __init__(self, model):
                built.append(model)
                super().__init__(model)

        monkeypatch.setattr(inference, "HyperEvaluator", Counting)
        m = factory()
        fit_model(m)
        assert built == [m]

    def test_fit_is_deterministic(self):
        a = fit_model(kappa_free_model())
        b = fit_model(kappa_free_model())
        assert np.array_equal(a.theta_mode_internal, b.theta_mode_internal)
        assert np.array_equal(a.hessian, b.hessian)
        assert np.array_equal(a.latent_summary["mean"], b.latent_summary["mean"])
        assert np.array_equal(a.latent_summary["sd"], b.latent_summary["sd"])
        for name in a.hyper_grids:
            assert np.array_equal(
                a.hyper_grids[name]["grid"], b.hyper_grids[name]["grid"]
            )
            assert a.hyper_summary[name] == b.hyper_summary[name]

    def test_halving_exploration_step_barely_moves_results(self, monkeypatch):
        coarse = fit_model(kappa_free_model())
        monkeypatch.setattr(inference, "EXPLORE_STEP", 0.375)
        fine = fit_model(kappa_free_model())
        sd_int = 1.0 / np.sqrt(coarse.hessian[0, 0])
        d_mode = abs(
            np.log(coarse.hyper_summary["kappa"]["mode"])
            - np.log(fine.hyper_summary["kappa"]["mode"])
        )
        assert d_mode < 0.5 * 0.375 * sd_int
        d_mean = np.abs(
            coarse.latent_summary["mean"] - fine.latent_summary["mean"]
        )
        assert np.all(d_mean <= 1e-3 * np.maximum(coarse.latent_summary["sd"], 1e-6))

    def test_sim1_fit_pays_each_laplace_evaluation_once(self, monkeypatch):
        # the parent design made 56 calls on this fit: a wild first step,
        # a re-solved mode in the Hessian stencil and in the exploration,
        # and exploration probes evaluated again as grid points
        m = _study_model(generate_sim1, sim1_spec, SIM1_TRUTH, 1000, seed=1000)
        calls = []
        real = inference.log_posterior_theta

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(inference, "log_posterior_theta", counting)
        fit_model(m)
        assert len(calls) < 45

    @pytest.mark.parametrize("model", [
        lambda: _study_model(generate_sim1, sim1_spec, SIM1_TRUTH, 1000, 1000),
        tau_free_model,
    ], ids=["sim1", "tau_free"])
    def test_laplace_calls_count_every_stage(self, model, monkeypatch):
        m = model()
        calls = []
        real = inference.log_posterior_theta

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(inference, "log_posterior_theta", counting)
        d = fit_model(m).diagnostics
        assert d["laplace_calls"] == len(calls)
        # the search's points are some of them
        assert d["laplace_calls"] > d["evaluations"]

    def test_diagnostics_report_work_done(self):
        fit = fit_model(tau_free_model())
        d = fit.diagnostics
        assert d["evaluations"] > 0
        assert d["points"] == len(fit.points)
        assert set(d["timings"]) == {
            "optimize",
            "explore",
            "latent_marginals",
            "hyper_marginals",
        }
        assert fit.theta_mode["tau"] > 0.0
        # every fit says how its mode search ended
        assert d["optimizer_message"] in ("gradient tolerance", "roundoff step")
        fixed = fit_model(iid_fixed_model()).diagnostics
        assert fixed["optimizer_message"] == "no free hyper"
        sim2 = _study_model(generate_sim2, sim2_spec, SIM2_TRUTH, 100, seed=1000)
        assert (
            fit_model(sim2).diagnostics["optimizer_message"]
            == "lp gain below SEARCH_GAIN"
        )
