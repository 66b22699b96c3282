"""Tests for the Laplace-approximation engine.

Gaussian-likelihood models are exact under the approximation, so generalized
least squares computed densely with numpy/scipy serves as the reference for
modes, marginal standard deviations and evidence values.  The non-Gaussian
checks use scalar models whose mode equations have closed forms or can be
solved by bracketing.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag, null_space
from scipy.sparse._compressed import _cs_matrix
from scipy.optimize import minimize_scalar
from scipy.stats import multivariate_normal, norm

import circfit
from circfit import inference
from circfit.circular import lavm_sample
from circfit.inference import (
    CURVATURE_MIN,
    InferenceError,
    _curvatures,
    _factor_spd,
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
    lavm_curvature_floor,
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
    SIM1_TRUTH,
    SIM2_TRUTH,
    SIM3_TRUTH,
    generate_sim1,
    generate_sim2,
    generate_sim3,
    sim1_spec,
    sim2_spec,
    sim3_spec,
)

# roots of y - exp(w) - w = 0, the scalar posterior mode equation for a
# Poisson count y observed through eta = w with a standard normal prior;
# frozen from scipy.optimize.brentq at xtol=1e-15
POISSON_MODE_Y1 = 0.0
POISSON_MODE_Y2 = 0.4428544010023886

# root of -w / 100 + 5 * d/deta log lavm(2.5 | w, kappa=50) = 0, the scalar
# posterior mode equation for five LAvM angles at 2.5 with an N(0, 10^2)
# prior; frozen from scipy.optimize.brentq on [0, 10] at xtol=1e-15
LAVM_SLOW_MODE = 3.0095398764382595


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
    pinned: a one-node model whose LAvM link saturates away from h(x)."""
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


def gls_reference(model, theta):
    """Dense constrained generalized least squares for a Gaussian-only model:
    posterior mean, marginal sds and the data log evidence."""
    Qp, _ = model.prior_precision(theta)
    Qp = np.asarray(Qp.todense())
    n = model.latent_dim
    Q_star = Qp.copy()
    rhs = np.zeros(n)
    obs = []
    for name, blk in model.blocks.items():
        A = np.asarray(model.block_matrix(name, theta).todense())
        tau = theta[blk.hyper]
        Q_star += tau * A.T @ A
        rhs += tau * A.T @ blk.responses
        obs.append((A, tau, blk.responses))
    cov = np.linalg.inv(Q_star)
    mean = cov @ rhs
    C = model.constraints
    if C.shape[0]:
        CS = C @ cov
        K = np.linalg.solve(CS @ C.T, CS)
        mean = mean - K.T @ (C @ mean)
        cov = cov - CS.T @ K
    return mean, np.sqrt(np.diag(cov))


def evidence_reference(model, theta):
    """log p(y | theta) marginalized densely over the latent vector,
    restricted to the constraint set when the model carries one."""
    Qp, _ = model.prior_precision(theta)
    Qp = np.asarray(Qp.todense())
    C = model.constraints
    B = null_space(C) if C.shape[0] else np.eye(model.latent_dim)
    K = np.linalg.inv(B.T @ Qp @ B)
    total = 0.0
    for name, blk in model.blocks.items():
        A = np.asarray(model.block_matrix(name, theta).todense())
        M = A @ B
        Sigma = M @ K @ M.T + np.eye(blk.size) / theta[blk.hyper]
        total += multivariate_normal.logpdf(blk.responses, cov=Sigma)
    return total


class TestScalarModes:
    def test_conjugate_gaussian_is_exact_in_one_iteration(self):
        m = conjugate_scalar_model(y=2.0, tau=1.0, prior_sd=1.0)
        approx = gaussian_approx(m, m.theta_natural(m.initial_internal()))
        assert approx.mode[0] == pytest.approx(1.0, abs=1e-12)
        assert approx.Q.toarray()[0, 0] == pytest.approx(2.0, abs=1e-12)
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
        assert approx.Q.toarray()[0, 0] == pytest.approx(
            1.0 + np.exp(w), abs=1e-9
        )
        assert approx.marginal_sd()[0] == pytest.approx(
            (1.0 + np.exp(w)) ** -0.5, abs=1e-9
        )

    def test_slow_lavm_ascent_passes_the_stall_guard(self):
        # from w=0 the saturated link keeps the Newton decrement flat for
        # many steps while the objective still climbs; the stall guard
        # must read that gain and let the iteration run to the mode
        m = lavm_scalar_model(2.5)
        approx = gaussian_approx(m, m.theta_natural(m.initial_internal()))
        assert approx.iterations > 24
        assert approx.mode[0] == pytest.approx(LAVM_SLOW_MODE, abs=1e-9)

    def test_plateau_start_trips_the_stall_guard(self):
        # deep in the saturated link the objective is flat to roundoff, so
        # the guard stops the march at its first check
        m = lavm_scalar_model(0.3)
        with pytest.raises(
            InferenceError, match="Newton iteration is not contracting"
        ) as err:
            gaussian_approx(
                m, m.theta_natural(m.initial_internal()), init_w=np.array([50.0])
            )
        assert err.value.best is not None
        assert err.value.diagnostics["iterations"] == 24


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
        theta = m.theta_natural(m.initial_internal())
        approx = gaussian_approx(m, theta)
        w = approx.mode
        parts = [m.component_precision(c, theta).matrix.toarray() for c in m.spec.components]
        parts.append(np.eye(len(m.spec.fixed_effects)))
        Q_ref = block_diag(*parts)
        for name, blk in m.blocks.items():
            A = np.zeros((blk.size, m.latent_dim))
            for t in blk.terms:
                M = np.zeros_like(A)
                M[np.arange(blk.size), t.nodes] = t.coef
                A += M * np.prod([theta[h] for h in t.chain])
            eta = A @ w
            hyper = theta[blk.hyper] if blk.hyper else None
            _, _, d2 = loglik(blk.family, blk.responses, eta, hyper)
            c = -d2
            floor = (
                -lavm_curvature_floor(eta, hyper) if blk.family == "lavm"
                else np.full_like(c, 1e-12)
            )
            c = np.where(c < 1e-12, floor, c)
            Q_ref += A.T @ (c[:, None] * A)
        np.testing.assert_allclose(
            approx.Q.toarray(), Q_ref, rtol=1e-12, atol=1e-12 * np.abs(Q_ref).max()
        )
        assert approx.Q.format == "csc"


    def test_newton_values_equal_the_ordered_pair_sums(self):
        # Q* is formed from the lower-triangle pairs and mirrored; the
        # reference adds every ordered pair of a row, observation by
        # observation, as a sum over all pairs would
        m = mixed_family_model()
        S = m.structure
        theta = m.theta_natural(m.initial_internal())
        rng = np.random.default_rng(3)
        curvatures = {
            name: rng.uniform(0.1, 5.0, blk.size)
            for name, blk in m.blocks.items()
        }
        Q_ref = S.prior_precision(theta)[0].toarray()
        for name, pat in S.blocks.items():
            A = pat.values(theta)
            acc = np.zeros_like(Q_ref)
            c = curvatures[name]
            for i in range(pat.pattern.shape[0]):
                row = range(pat.pattern.indptr[i], pat.pattern.indptr[i + 1])
                for a in row:
                    for b in row:
                        acc[pat.cols[a], pat.cols[b]] += c[i] * (A[a] * A[b])
            Q_ref += acc
        data = NewtonSystem(S, theta).values(curvatures)
        np.testing.assert_array_equal(S.qstar_matrix(data).toarray(), Q_ref)


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
        value, d1, c = _curvatures(blk, eta, hyper, response_terms(family, y))
        ref_value, ref_d1, ref_d2 = loglik(family, y, eta, hyper)
        ref_c = -ref_d2
        floor = (
            -lavm_curvature_floor(eta, hyper) if family == "lavm"
            else np.full_like(ref_c, CURVATURE_MIN)
        )
        floored = ref_c < CURVATURE_MIN
        assert np.any(floored) == (family != "gaussian")
        np.testing.assert_array_equal(value, ref_value)
        np.testing.assert_array_equal(d1, ref_d1)
        np.testing.assert_array_equal(c, np.where(floored, floor, ref_c))

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


def _pattern_entries(structure):
    """Row and column of each stored entry of Q*'s pattern."""
    P = structure.qstar
    cols = np.repeat(np.arange(P.shape[1]), np.diff(P.indptr))
    return P.indices, cols


def random_spd_values(structure, rng):
    """Random symmetric values on Q*'s pattern, made positive definite by
    strict diagonal dominance."""
    rows, cols = _pattern_entries(structure)
    M = structure.qstar_matrix(rng.uniform(-1.0, 1.0, rows.size)).toarray()
    M = 0.5 * (M + M.T)
    data = M[rows, cols]
    diag = rows == cols
    dominance = np.abs(M).sum(axis=1) - np.abs(np.diag(M))
    data[diag] = dominance[rows[diag]] + rng.uniform(0.1, 2.0, diag.sum())
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
        assert S.order.size == n - n_arrow
        assert np.array_equal(np.sort(S.order), np.arange(n - n_arrow))
        rng = np.random.default_rng(3)
        for _ in range(3):
            data = random_spd_values(S, rng)
            dense = S.qstar_matrix(data).toarray()
            factor = _factor_spd(S, data)
            assert factor.QinvCt is None and factor.S_chol is None
            sign, logdet = np.linalg.slogdet(dense)
            assert sign == 1.0
            assert factor.half_logdet == pytest.approx(0.5 * logdet, rel=1e-10)
            b = rng.normal(size=n)
            _assert_close(factor.solve(b), np.linalg.solve(dense, b))
            B = rng.normal(size=(n, 4))
            _assert_close(factor.solve(B), np.linalg.solve(dense, B))
            np.testing.assert_array_equal(factor.matrix().toarray(), dense)
            U = factor.solve_lt(np.eye(n))
            _assert_close(U @ U.T, np.linalg.inv(dense))

    def test_layouts_split_band_and_arrow(self):
        sim1 = LAYOUTS["sim1"]().structure
        assert sim1.order.size == 0 and sim1.effect_prec.size == 3
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
        rw2 = S.qstar_matrix(q_data).toarray()[:n_rw2, :n_rw2]
        shift = 0.5 * np.sort(np.linalg.eigvalsh(rw2))[2]
        rows, cols = _pattern_entries(S)
        q_data[(rows == cols) & (rows < n_rw2)] -= shift
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
        Q = S.qstar_matrix(q_data).toarray()
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
        data[S.diag_pos[0]] = np.nan
        with pytest.raises(InferenceError, match="not positive definite"):
            _factor_spd(S, data)

    def test_one_fit_builds_the_newton_matrix_at_most_once(self, monkeypatch):
        m = mixed_family_model()
        m.structure  # built before counting
        n = m.latent_dim
        built = []
        original = _cs_matrix.__init__

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if self.format == "csc" and self.shape == (n, n):
                built.append(self)

        monkeypatch.setattr(_cs_matrix, "__init__", counting)
        approx = gaussian_approx(m, m.theta_natural(m.initial_internal()))
        assert approx.iterations >= 3
        assert len(built) <= 1
        # the sds and the draws come from the band + arrow factor
        approx.marginal_sd()
        approx.sample(np.random.default_rng(0), 5)
        assert built == []
        Q = approx.Q
        assert approx.Q is Q and len(built) <= 1

    @pytest.mark.parametrize("n", [100, 200])
    def test_constrained_sds_and_draws_match_the_null_space_reference(self, n):
        # on null(C) the constrained conditional is N (N'QN)^{-1} N'; the
        # draws are a linear map of standard normals, so feeding the
        # identity in their place exposes that map's covariance exactly
        m = _study_model(generate_sim2, sim2_spec, SIM2_TRUTH, n)
        approx = gaussian_approx(m, m.theta_natural(m.initial_internal()))
        Q = approx.Q.toarray()
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
        n_body = S.order.size
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


class TestGaussianExactness:
    @pytest.mark.parametrize(
        "factory", [iid_fixed_model, rw2_fixed_model, ar2_fixed_model]
    )
    def test_latent_summary_matches_dense_gls(self, factory):
        m = factory()
        theta_internal = m.initial_internal()
        mean_ref, sd_ref = gls_reference(m, m.theta_natural(theta_internal))
        points = explore_theta(m, theta_internal, np.zeros((0, 0)))
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
        mean_ref, sd_ref = gls_reference(m, m.theta_natural(m.initial_internal()))
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
            ref = evidence_reference(m, m.theta_natural(m.initial_internal()))
            assert lp == pytest.approx(ref, abs=1e-8)

    def test_constrained_evidence_differences_are_exact(self):
        taus = (1.5, 4.0, 9.0)
        lps, refs = [], []
        for tau in taus:
            m = rw2_fixed_model(tau=tau)
            lp, _ = log_posterior_theta(m, m.initial_internal())
            lps.append(lp)
            refs.append(evidence_reference(m, m.theta_natural(m.initial_internal())))
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
        ref = evidence_reference(m, m.theta_natural(np.array([t])))
        offset = lp - ref
        # the leftover is the hyper prior on the internal scale: it must move
        # with theta the way the prior density does
        t2 = np.log(7.0)
        lp2, _ = log_posterior_theta(m, np.array([t2]))
        ref2 = evidence_reference(m, m.theta_natural(np.array([t2])))
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
        theta_mode, hessian, info = optimize_theta(m)
        assert theta_mode[0] == pytest.approx(ref.x, abs=1e-4)
        assert hessian.shape == (1, 1) and hessian[0, 0] > 0.0
        assert info["evaluations"] <= 200

    def test_restart_at_mode_converges_with_few_evaluations(self):
        m = tau_free_model()
        theta_mode, _, _ = optimize_theta(m)
        theta2, _, info = optimize_theta(m, init=theta_mode)
        assert theta2[0] == pytest.approx(theta_mode[0], abs=1e-6)
        assert info["evaluations"] <= 8

    def test_evaluation_budget_error_carries_best_point(self):
        m = two_hyper_model()
        with pytest.raises(InferenceError) as err:
            optimize_theta(m, max_evals=3)
        assert "budget" in str(err.value)
        assert err.value.best is not None
        assert np.all(np.isfinite(err.value.best))

    def test_fixed_hypers_are_not_searched(self):
        m = three_hyper_model()
        theta_mode, hessian, _ = optimize_theta(m, max_evals=400)
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
            optimize_theta(m)
        assert err.value.diagnostics["evaluations"] == 3
        assert len(calls) == 3

    def test_no_successful_evaluation_is_an_error(self, monkeypatch):
        # every evaluation hitting the -1e10 wall must not hand the prior
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
        # a failed stencil point must not enter the Hessian as the -1e10
        # wall: that gave entries of order 1e12 and eigenvalues of both signs
        m = two_hyper_model()
        theta_mode, _, _ = optimize_theta(m)
        real_lpt, real_minimize = inference.log_posterior_theta, inference.minimize
        state = {"searched": False, "failing": None}

        def minimize(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            state["searched"] = True
            return res

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
        monkeypatch.setattr(inference, "minimize", minimize)
        with pytest.raises(InferenceError, match="Hessian stencil") as err:
            optimize_theta(m)
        np.testing.assert_array_equal(
            err.value.diagnostics["theta"], state["failing"]
        )
        np.testing.assert_array_equal(err.value.best, theta_mode)

    def test_gradient_probe_past_the_box_is_a_failed_evaluation(
        self, monkeypatch
    ):
        # from a start on the +30 edge the forward probe at 30 + 1e-4 is
        # outside the hyper box: it reads as the wall without a Laplace
        # evaluation.  lp(30) lies far below the wall here, so the search
        # stops on the edge and the stencil's point past it fails too
        m = tau_free_model()
        evaluated = []
        real = inference.log_posterior_theta

        def recording(model, theta_internal, *args, **kwargs):
            evaluated.append(float(theta_internal[0]))
            return real(model, theta_internal, *args, **kwargs)

        monkeypatch.setattr(inference, "log_posterior_theta", recording)
        with pytest.raises(InferenceError, match="Hessian stencil"):
            optimize_theta(m, init=np.array([30.0]))
        assert evaluated == [30.0, 30.0 - 1e-4]

    def test_budget_error_counts_the_evaluations_made(self, monkeypatch):
        # the refused attempt is not an evaluation
        m = two_hyper_model()
        calls = []
        real = inference.log_posterior_theta

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(inference, "log_posterior_theta", counting)
        with pytest.raises(InferenceError, match="budget") as err:
            optimize_theta(m, max_evals=7)
        assert err.value.diagnostics["evaluations"] == 7 == len(calls)

    def test_hessian_is_symmetric_positive_definite(self):
        m = two_hyper_model()
        _, hessian, _ = optimize_theta(m)
        assert np.array_equal(hessian, hessian.T)
        assert np.all(np.linalg.eigvalsh(hessian) > 0.0)

    def test_first_step_moves_at_most_one_unit(self, monkeypatch):
        # |grad lp(u0)| is in the hundreds here; an unscaled first L-BFGS-B
        # step went to the +-30 box corner, where evaluations fail or sit
        # below the failure wall
        m = _study_model(generate_sim2, sim2_spec, SIM2_TRUTH, 100, seed=1000)
        free = [i for i, c in enumerate(m.hyper_coords) if not c.is_fixed]
        u0 = m.initial_internal()[free]
        evaluated, iterates = [], []
        real_lpt, real_minimize = inference.log_posterior_theta, inference.minimize

        def recording(model, theta_internal, *args, **kwargs):
            evaluated.append(np.asarray(theta_internal, dtype=float)[free])
            return real_lpt(model, theta_internal, *args, **kwargs)

        def minimize(*args, **kwargs):
            def callback(xk):
                iterates.append(np.array(xk))
            return real_minimize(*args, callback=callback, **kwargs)

        monkeypatch.setattr(inference, "log_posterior_theta", recording)
        monkeypatch.setattr(inference, "minimize", minimize)
        grad_step = 1e-4
        optimize_theta(m, grad_step=grad_step)
        u = np.array(evaluated)
        assert np.max(np.abs(u)) < 30.0
        first = next(
            k for k, uk in enumerate(u) if np.array_equal(uk, iterates[0])
        )
        # the first iterate and its gradient stencil included
        head = u[: first + 1 + 2 * len(free)]
        assert np.max(np.abs(head - u0)) <= 1.0 + grad_step


class TestExploreTheta:
    def test_single_hyper_grid_is_odd_symmetric_unimodal(self):
        m = tau_free_model()
        theta_mode, hessian, _ = optimize_theta(m)
        points = explore_theta(m, theta_mode, hessian)
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
        theta_mode, hessian, _ = optimize_theta(m)
        points = explore_theta(m, theta_mode, hessian)
        w = np.array([pt.weight for pt in points])
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0.0)
        sizes = {len(pt.theta_internal) for pt in points}
        assert sizes == {m.hyper_dim}

    def test_three_hyper_composite_design_layout(self):
        m = three_hyper_model()
        theta_mode, hessian, _ = optimize_theta(m, max_evals=400)
        points = explore_theta(m, theta_mode, hessian)
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
        theta_mode, hessian, _ = optimize_theta(m)
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
        points = explore_theta(m, start, hessian)
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
        theta_mode, hessian, info = optimize_theta(m)
        center = info["mode_approx"]
        calls = []
        real = inference.log_posterior_theta

        def recording(model, theta_internal, init_w=None):
            calls.append((np.array(theta_internal), init_w))
            return real(model, theta_internal, init_w=init_w)

        monkeypatch.setattr(inference, "log_posterior_theta", recording)
        explore_theta(m, theta_mode, hessian, center=center)
        axes, _, _ = _spd_directions(hessian, 0.75)
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
        theta_mode, hessian, _ = optimize_theta(m)
        points = explore_theta(m, theta_mode, hessian)
        w = np.array([pt.weight for pt in points])
        t = np.array([pt.theta_internal[0] for pt in points])
        mean_points = float(w @ t)

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
        theta_mode, hessian, info = optimize_theta(m)
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
        points = explore_theta(m, theta_mode, hessian)
        assert len(evaluated) == len(set(evaluated))
        assert {tuple(pt.theta_internal.tolist()) for pt in points} <= set(evaluated)

        evaluated.clear()
        solved.clear()
        centered = explore_theta(
            m, theta_mode, hessian, center=info["mode_approx"]
        )
        assert len(evaluated) == len(set(evaluated))
        assert m.theta_natural(theta_mode) not in solved
        assert tuple(theta_mode.tolist()) not in evaluated
        assert [pt.theta_internal.tolist() for pt in centered] == [
            pt.theta_internal.tolist() for pt in points
        ]
        np.testing.assert_allclose(
            [pt.log_unnorm_posterior for pt in centered],
            [pt.log_unnorm_posterior for pt in points],
            rtol=1e-9,
        )

    def test_flat_direction_stays_inside_the_hyper_box(self):
        # a near-flat curvature makes the first grid step 750 internal
        # units long, where tanh rounds the partial autocorrelation to 1
        base = ar2_fixed_model()
        hypers = dict(base.spec.hypers)
        hypers["p1"] = PriorSpec("pc_correlation", (0.5, 0.5))
        m = build_model(replace(base.spec, hypers=hypers))
        mode = m.initial_internal()
        points = explore_theta(m, mode, np.array([[1e-6]]))
        assert len(points) == 1
        np.testing.assert_array_equal(points[0].theta_internal, mode)
        for pt in points:
            theta = m.theta_natural(pt.theta_internal)
            assert -1.0 < theta["p1"] < 1.0 and -1.0 < theta["p2"] < 1.0


class TestLatentMixture:
    def test_single_point_quantiles_are_gaussian(self):
        m = iid_fixed_model()
        points = explore_theta(m, m.initial_internal(), np.zeros((0, 0)))
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


class TestHyperMarginals:
    def test_single_free_hyper_uses_exploration_grid(self):
        m = tau_free_model()
        theta_mode, hessian, _ = optimize_theta(m)
        points = explore_theta(m, theta_mode, hessian)
        grids = hyper_marginals(m, points, theta_mode, hessian)
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
        fit = fit_model(m, max_evals=400)
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
        mode = m.initial_internal()
        hessian = np.diag([1e-6, 1.0])
        points = explore_theta(m, mode, hessian)
        with pytest.raises(InferenceError, match="'p1' kept only the mode"):
            hyper_marginals(m, points, mode, hessian)

    def test_one_point_exploration_grid_raises_and_names_the_hyper(self):
        # with one free hyper the exploration grid is the marginal's grid;
        # the mode alone has no area to normalize by
        m = tau_free_model()
        theta_mode, hessian, _ = optimize_theta(m)
        points = [
            pt for pt in explore_theta(m, theta_mode, hessian)
            if np.array_equal(pt.theta_internal, theta_mode)
        ]
        assert len(points) == 1
        with pytest.raises(
            InferenceError, match="'tau' kept only the mode"
        ) as err:
            hyper_marginals(m, points, theta_mode, hessian)
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
        theta_mode, hessian, info = optimize_theta(m)
        points = explore_theta(
            m, theta_mode, hessian, center=info["mode_approx"]
        )
        cold = []
        real = inference.gaussian_approx

        def recording(model, theta, init_w=None, **kwargs):
            cold.append(init_w is None)
            return real(model, theta, init_w=init_w, **kwargs)

        monkeypatch.setattr(inference, "gaussian_approx", recording)
        hyper_marginals(m, points, theta_mode, hessian)
        assert cold and not any(cold)

    def test_every_scan_starts_warm_from_the_mode(self, monkeypatch):
        m = two_hyper_model()
        theta_mode, hessian, info = optimize_theta(m)
        center = info["mode_approx"]
        points = explore_theta(m, theta_mode, hessian, center=center)
        calls = []
        real = inference.log_posterior_theta

        def recording(model, theta_internal, init_w=None):
            calls.append((np.array(theta_internal), init_w))
            return real(model, theta_internal, init_w=init_w)

        monkeypatch.setattr(inference, "log_posterior_theta", recording)
        hyper_marginals(m, points, theta_mode, hessian)
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

    def test_points_without_the_mode_are_rejected(self):
        m = two_hyper_model()
        theta_mode, hessian, info = optimize_theta(m)
        points = explore_theta(m, theta_mode, hessian)
        away = [pt for pt in points
                if not np.array_equal(pt.theta_internal, theta_mode)]
        with pytest.raises(ValueError, match="no evaluation at theta_mode"):
            hyper_marginals(m, away, theta_mode, hessian)

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

    def test_halving_exploration_step_barely_moves_results(self):
        coarse = fit_model(kappa_free_model(), explore_step=0.75)
        fine = fit_model(kappa_free_model(), explore_step=0.375)
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
