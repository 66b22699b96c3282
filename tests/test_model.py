import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse._compressed import _cs_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from circfit.inference import fit_model, log_posterior_theta
from circfit.likelihoods import ObservationError
from circfit.latent import build_mv_iid, build_rw2, mv_iid_block, rw2_reference_sd
from circfit.model import (
    AssembledModel,
    BlockSpec,
    ComponentSpec,
    FixedEffectSpec,
    ModelSpec,
    ModelStructure,
    TermSpec,
    _component_pattern,
    build_model,
    classical_sincos_spec,
    terms_predictor,
)
from circfit.priors import ConfigurationError, PriorSpec, partials_to_correlation
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
from dense_reference import component_precision, dense, design, prior


def block_predictor(m, name, w, theta):
    """Block ``name``'s predictor at latent w, from its expanded terms."""
    return terms_predictor(m.blocks[name].terms, w, theta)


def all_predictors(m, w, theta):
    return {name: block_predictor(m, name, w, theta) for name in m.blocks}


def engine_design(pat, values, latent_dim):
    """A block's observation-by-latent matrix from the engine's (terms,
    size) values on its term records: each term's values placed at its
    nodes, the terms summed in order."""
    A = np.zeros((pat.size, latent_dim))
    for nodes, term_values in zip(pat.nodes, values):
        A[np.arange(pat.size), nodes] += term_values
    return A


def engine_prior(m, theta):
    """The engine's prior values placed on its prior pattern, dense, and
    its log generalized determinant."""
    S = m.structure
    data, log_gdet = S.prior_values(theta)
    return dense(S.prior_rows, S.prior_cols, data, (m.latent_dim,) * 2), log_gdet


def intercept_only_spec(n=20, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, n)
    z1, z2 = rng.normal(size=n), rng.normal(size=n)
    return ModelSpec(
        blocks=(
            BlockSpec(
                "x",
                "lavm",
                x,
                (
                    TermSpec("intercept", "b0"),
                    TermSpec("fixed", "b1", covariate="z1"),
                    TermSpec("fixed", "b2", covariate="z2"),
                ),
                hyper="kappa",
            ),
        ),
        fixed_effects=(
            FixedEffectSpec("b0"),
            FixedEffectSpec("b1"),
            FixedEffectSpec("b2"),
        ),
        hypers={"kappa": PriorSpec("pc_kappa", (0.5, 0.5))},
        covariates={"z1": z1, "z2": z2},
    )


def coupled_spec(n=16, seed=7):
    """A circular block plus a linear block that borrows its predictor."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, n)
    y = rng.normal(size=n)
    return ModelSpec(
        blocks=(
            BlockSpec(
                "x",
                "lavm",
                x,
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
        components=(ComponentSpec("w", "rw2", n),),
        fixed_effects=(
            FixedEffectSpec("a0"),
            FixedEffectSpec("b0"),
            FixedEffectSpec("beta"),
        ),
        hypers={
            "kappa": PriorSpec("pc_kappa", (0.5, 0.5)),
            "tau": PriorSpec("pc_precision", (0.5, 0.5)),
            "a1": PriorSpec("pc_scale", (0.5, 0.5)),
            "b1": PriorSpec("gaussian", (0.0, 1.0)),
        },
        covariates={"z": rng.normal(size=n)},
    )


class TestLayout:
    def test_interceptonly_dimensions(self):
        m = build_model(intercept_only_spec())
        assert m.latent_dim == 3
        assert m.hyper_dim == 1
        assert m.hyper_coords[0].name == "kappa"

    def test_coupled_hyper_set(self):
        m = build_model(coupled_spec())
        assert set(c.name for c in m.hyper_coords) == {"kappa", "tau", "a1", "b1"}

    def test_coupled_latent_layout(self):
        n = 16
        m = build_model(coupled_spec(n))
        assert m.latent_dim == n + 3
        assert m.comp_offsets["w"] == 0
        assert m.effect_nodes == {"a0": n, "b0": n + 1, "beta": n + 2}

    def test_component_before_effects_order_is_stable(self):
        a = build_model(coupled_spec())
        b = build_model(coupled_spec())
        assert [c.name for c in a.hyper_coords] == [c.name for c in b.hyper_coords]
        assert a.effect_nodes == b.effect_nodes
        for name in a.blocks:
            for ta, tb in zip(a.blocks[name].terms, b.blocks[name].terms):
                assert ta.chain == tb.chain
                np.testing.assert_array_equal(ta.nodes, tb.nodes)
                np.testing.assert_array_equal(ta.coef, tb.coef)
        np.testing.assert_array_equal(a.constraints, b.constraints)

    def test_constraints_padded_to_latent_dim(self):
        n = 16
        m = build_model(coupled_spec(n))
        assert m.constraints.shape == (2, n + 3)
        assert np.all(m.constraints[:, n:] == 0.0)

    def test_initial_theta_is_prior_median(self):
        m = build_model(coupled_spec())
        th = m.theta_natural(m.initial_internal())
        # pc_scale median start sits on the positive branch of |a|
        assert th["a1"] > 0.0
        assert th["b1"] == 0.0
        assert th["tau"] > 0.0


class TestPredictors:
    def test_zero_latent_gives_zero_predictor(self):
        m = build_model(coupled_spec())
        th = m.theta_natural(m.initial_internal())
        etas = all_predictors(m, np.zeros(m.latent_dim), th)
        for eta in etas.values():
            np.testing.assert_array_equal(eta, 0.0)

    def test_single_fixed_effect_multiplies_covariate(self):
        n = 10
        z = np.full(n, 3.0)
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "gaussian",
                    np.zeros(n),
                    (TermSpec("fixed", "beta", covariate="z"),),
                    hyper="tau",
                ),
            ),
            fixed_effects=(FixedEffectSpec("beta"),),
            hypers={"tau": PriorSpec("pc_precision", (0.5, 0.5))},
            covariates={"z": z},
        )
        m = build_model(spec)
        th = m.theta_natural(m.initial_internal())
        eta = block_predictor(m, "y", np.array([2.0]), th)
        np.testing.assert_allclose(eta, 6.0)

    def test_shared_predictor_composition(self):
        n = 8
        m = build_model(coupled_spec(n))
        w = np.zeros(m.latent_dim)
        w[m.effect_nodes["a0"]] = 2.0
        w[m.effect_nodes["b0"]] = 1.0
        th = m.theta_natural(m.initial_internal())
        th["a1"], th["b1"] = 1.0, 0.5
        etas = all_predictors(m, w, th)
        np.testing.assert_allclose(etas["x"], 2.0)
        np.testing.assert_allclose(etas["y"], 1.0 + 0.5 * 2.0)

    def test_shared_scale_rescales_whole_inner_predictor(self):
        n = 8
        m = build_model(coupled_spec(n))
        rng = np.random.default_rng(11)
        w = rng.normal(size=m.latent_dim)
        th = m.theta_natural(m.initial_internal())
        th["b1"] = -1.7
        inner = block_predictor(m, "x", w, th)
        outer = block_predictor(m, "y", w, th)
        base = dict(th, b1=0.0)
        np.testing.assert_allclose(
            outer, block_predictor(m, "y", w, base) - 1.7 * inner, atol=1e-12
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_predictor_linear_in_latent(self, seed):
        m = build_model(coupled_spec())
        rng = np.random.default_rng(seed)
        w1 = rng.normal(size=m.latent_dim)
        w2 = rng.normal(size=m.latent_dim)
        th = m.theta_natural(m.initial_internal())
        th["a1"], th["b1"] = 0.8, -0.3
        zero = all_predictors(m, np.zeros(m.latent_dim), th)
        lhs = all_predictors(m, w1 + w2, th)
        p1 = all_predictors(m, w1, th)
        p2 = all_predictors(m, w2, th)
        for name in lhs:
            np.testing.assert_allclose(
                lhs[name], p1[name] + p2[name] - zero[name], atol=1e-10
            )

    def test_batched_predictor_keeps_the_draw_layout(self):
        # draws arrive as the transposed view the sampler returns
        m = build_model(coupled_spec())
        rng = np.random.default_rng(13)
        w = rng.normal(size=(m.latent_dim, 40)).T
        th = m.theta_natural(m.initial_internal())
        th["a1"], th["b1"] = 0.6, -1.1
        for name in m.blocks:
            eta = block_predictor(m, name, w, th)
            assert eta.flags.f_contiguous
            np.testing.assert_array_equal(
                eta, block_predictor(m, name, np.ascontiguousarray(w), th)
            )
            for i in (0, 17, 39):
                np.testing.assert_array_equal(
                    eta[i], block_predictor(m, name, w[i].copy(), th)
                )

    @pytest.mark.parametrize("layout", ["1-d", "transposed 2-d"])
    def test_terms_predictor_sums_term_by_term_and_leaves_w(self, layout):
        # each product is factor * w[..., nodes] * coef, left to right,
        # summed in term order; coefficients other than 1 make a swapped
        # product order show
        m = build_model(coupled_spec())
        rng = np.random.default_rng(17)
        terms = [
            replace(t, coef=rng.uniform(0.5, 2.0, t.coef.size))
            for t in m.blocks["y"].terms
        ]
        th = m.theta_natural(m.initial_internal())
        th["a1"], th["b1"] = 0.7, -1.3
        if layout == "1-d":
            w = rng.normal(size=m.latent_dim)
        else:
            w = rng.normal(size=(m.latent_dim, 12)).T
        kept = w.copy()
        products = [t.factor(th) * w[..., t.nodes] * t.coef for t in terms]
        expected = products[0]
        for p in products[1:]:
            expected = expected + p
        eta = terms_predictor(terms, w, th)
        np.testing.assert_array_equal(eta, expected)
        np.testing.assert_array_equal(w, kept)
        assert not np.shares_memory(eta, w)

    def test_block_matrix_matches_predictor(self):
        m = build_model(coupled_spec())
        rng = np.random.default_rng(5)
        w = rng.normal(size=m.latent_dim)
        th = m.theta_natural(m.initial_internal())
        th["a1"], th["b1"] = 0.4, 1.2
        for name in m.blocks:
            A = m.block_matrix(name, th)
            np.testing.assert_allclose(A @ w, block_predictor(m, name, w, th))

    def test_cyclic_component_maps_observations_by_period(self):
        n, p = 50, 24
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "poisson",
                    np.zeros(n),
                    (TermSpec("component", "hour", scale="a2"),),
                ),
            ),
            components=(ComponentSpec("hour", "cyclic_rw2", n, period=p),),
            hypers={"a2": PriorSpec("pc_scale", (0.5, 0.5))},
        )
        m = build_model(spec)
        w = np.arange(p, dtype=float)
        th = {"a2": 1.0}
        eta = block_predictor(m, "y", w, th)
        np.testing.assert_array_equal(eta, np.arange(n) % p)


class TestPriorPrecision:
    def test_block_diagonal_across_components_and_effects(self):
        n = 16
        m = build_model(coupled_spec(n))
        th = m.theta_natural(m.initial_internal())
        Q, log_gdet = engine_prior(m, th)
        assert np.all(Q[:n, n:] == 0.0)
        assert np.all(Q[n:, :n] == 0.0)
        # fixed effects carry their own Gaussian precisions
        np.testing.assert_allclose(np.diag(Q[n:, n:]), 1.0)

    def test_gdet_adds_over_blocks(self):
        n = 16
        m = build_model(coupled_spec(n))
        th = m.theta_natural(m.initial_internal())
        _, log_gdet = engine_prior(m, th)
        comp = component_precision(m.components["w"], th)
        assert log_gdet == pytest.approx(comp.log_gdet + 3 * np.log(1.0), abs=1e-12)

    def test_precision_hyper_scales_component(self):
        n = 12
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "poisson",
                    np.zeros(n),
                    (TermSpec("component", "s", scale=None),),
                ),
            ),
            components=(
                ComponentSpec(
                    "s",
                    "ar2",
                    n,
                    precision_hyper="tau_s",
                    pacf_hypers=("p1", "p2"),
                ),
            ),
            hypers={
                "tau_s": PriorSpec("pc_precision", (0.5, 0.5)),
                "p1": PriorSpec("pc_correlation", (0.5, 0.5)),
                "p2": PriorSpec("pc_correlation", (0.5, 0.5)),
            },
        )
        m = build_model(spec)
        th = {"tau_s": 4.0, "p1": 0.3, "p2": -0.2}
        Q, _ = engine_prior(m, th)
        th1 = dict(th, tau_s=1.0)
        Q1, _ = engine_prior(m, th1)
        np.testing.assert_allclose(Q, 4.0 * Q1, atol=1e-12)

    def test_ar2_precision_tracks_pacf_hypers(self):
        n = 12
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "poisson",
                    np.zeros(n),
                    (TermSpec("component", "s", scale=None),),
                ),
            ),
            components=(
                ComponentSpec("s", "ar2", n, pacf_hypers=("p1", "p2")),
            ),
            hypers={
                "p1": PriorSpec("pc_correlation", (0.5, 0.5)),
                "p2": PriorSpec("pc_correlation", (0.5, 0.5)),
            },
        )
        m = build_model(spec)
        Qa, _ = engine_prior(m, {"p1": 0.5, "p2": 0.1})
        Qb, _ = engine_prior(m, {"p1": -0.5, "p2": 0.1})
        assert not np.allclose(Qa, Qb)

    def test_mv_component_matches_direct_build(self):
        n = 6
        for d in (1, 3):
            m = build_model(mv_spec(n, d))
            partials = [0.5, 0.0, -0.3][: d * (d - 1) // 2]
            names = [c.name for c in m.hyper_coords]
            assert names.count("R[0]") == (d > 1)
            assert ("R[2]" in names) == (d > 1)
            assert m.hyper_dim == 1 + d + len(partials)
            th = {"tau": 1.0, "t1": 4.0, "t2": 1.0, "t3": 0.25}
            th.update({f"R[{k}]": v for k, v in enumerate(partials)})
            got, log_gdet = engine_prior(m, th)
            R = partials_to_correlation(np.array(partials), d)
            want = build_mv_iid(n, np.array([0.5, 1.0, 2.0])[:d], R)
            np.testing.assert_array_equal(got, want.matrix.toarray())
            assert log_gdet == want.log_gdet


def mv_spec(n, d):
    """A gaussian block observing the first coordinate of an mv_iid
    component of block dimension d <= 3, with sigma hypers t1..td and, for
    d > 1, an lkj correlation hyper R."""
    sigma_hypers = ("t1", "t2", "t3")[:d]
    hypers = {"tau": PriorSpec("pc_precision", (0.5, 0.5))}
    hypers.update({h: PriorSpec("pc_precision", (1.0, 0.5)) for h in sigma_hypers})
    if d > 1:
        hypers["R"] = PriorSpec("lkj", (5.0,))
    return ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "gaussian",
                np.zeros(n),
                (TermSpec("component", "w", indices=tuple(range(0, n * d, d))),),
                hyper="tau",
            ),
        ),
        components=(
            ComponentSpec(
                "w",
                "mv_iid",
                n,
                block_dim=d,
                sigma_hypers=sigma_hypers,
                correlation_hyper="R" if d > 1 else None,
            ),
        ),
        hypers=hypers,
    )


MV_SIGMA_THETA = {"tau": 1.0, "t1": 4.0, "t2": 1.0, "t3": 0.25}


@pytest.mark.parametrize("partials", [
    (-0.7, 0.2, 0.6),
    (0.999999, -0.999999, 0.999999),
    (-0.9999999, 0.9, -0.5),
    (0.3, 0.99999999, -0.99999999),
])
def test_mv_prior_values_equal_mv_iid_block_bit_for_bit(partials):
    # prior_values skips mv_iid_block's checks on its vine-built R and reuses
    # its own sign check's log determinant; the block and log determinant
    # must still be mv_iid_block's exactly, near-saturated partials included
    n, d = 4, 3
    m = build_model(mv_spec(n, d))
    theta = dict(MV_SIGMA_THETA, **{f"R[{k}]": g for k, g in enumerate(partials)})
    [(_, rows, cols, _)] = m.structure.prior_parts
    data, log_gdet = m.structure.prior_values(theta)
    block, log_det_cov = mv_iid_block(
        np.array([0.5, 1.0, 2.0]), partials_to_correlation(np.array(partials), d)
    )
    np.testing.assert_array_equal(data, block[rows % d, cols % d])
    assert log_gdet == -n * log_det_cov


def test_mv_saturated_partials_raise_linalg_error():
    # partials of +-tanh(15) compose to an R whose determinant rounds to 0:
    # prior_values raises LinAlgError, which gaussian_approx turns into a
    # failed evaluation, while mv_iid_block keeps its ConfigurationError
    g = np.tanh(15.0)
    partials = (g, -g, g)
    m = build_model(mv_spec(4, 3))
    theta = dict(MV_SIGMA_THETA, **{f"R[{k}]": p for k, p in enumerate(partials)})
    with pytest.raises(np.linalg.LinAlgError, match="not numerically positive"):
        m.structure.prior_values(theta)
    R = partials_to_correlation(np.array(partials), 3)
    with pytest.raises(ConfigurationError, match="positive definite"):
        mv_iid_block(np.ones(3), R)


def structure_spec(n=12, seed=19):
    """Every component kind, a covariate with zero entries and a shared
    predictor, so that special hyper values can zero out entries."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    z[[2, 7]] = 0.0
    return ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "gaussian",
                rng.normal(size=n),
                (
                    TermSpec("intercept", "b0"),
                    TermSpec("fixed", "b1", covariate="z"),
                    TermSpec("component", "s"),
                    TermSpec("component", "w", indices=tuple(range(0, 2 * n, 2))),
                    TermSpec("component", "r", scale="a_r"),
                ),
                hyper="tau",
            ),
            BlockSpec(
                "c",
                "poisson",
                rng.poisson(2.0, n).astype(float),
                (
                    TermSpec("component", "i"),
                    TermSpec("component", "cy"),
                    TermSpec("shared", "y", scale="g"),
                ),
            ),
        ),
        components=(
            ComponentSpec(
                "s", "ar2", n, precision_hyper="lam_s", pacf_hypers=("p1", "p2")
            ),
            ComponentSpec(
                "w",
                "mv_iid",
                n,
                block_dim=2,
                sigma_hypers=("t1", "t2"),
                correlation_hyper="R",
            ),
            ComponentSpec("r", "rw2", n),
            ComponentSpec("i", "iid", n, precision_hyper="lam_i"),
            ComponentSpec("cy", "cyclic_rw2", n, period=5, precision_hyper="lam_c"),
        ),
        fixed_effects=(FixedEffectSpec("b0", 2.0), FixedEffectSpec("b1", 0.5)),
        hypers={
            "tau": PriorSpec("pc_precision", (0.5, 0.5)),
            "lam_s": PriorSpec("pc_precision", (0.5, 0.5)),
            "p1": PriorSpec("pc_correlation", (0.5, 0.5)),
            "p2": PriorSpec("pc_correlation", (0.5, 0.5)),
            "t1": PriorSpec("pc_precision", (1.0, 0.5)),
            "t2": PriorSpec("pc_precision", (1.0, 0.5)),
            "R": PriorSpec("lkj", (5.0,)),
            "a_r": PriorSpec("pc_scale", (0.5, 0.5)),
            "lam_i": PriorSpec("pc_precision", (0.5, 0.5)),
            "lam_c": PriorSpec("pc_precision", (0.5, 0.5)),
            "g": PriorSpec("gaussian", (0.0, 1.0)),
        },
        covariates={"z": z},
    )


GENERIC_THETA = {"tau": 2.0, "lam_s": 3.0, "p1": 0.6, "p2": -0.3, "t1": 4.0,
                 "t2": 0.5, "R[0]": 0.4, "a_r": 0.7, "lam_i": 1.5,
                 "lam_c": 0.8, "g": -0.8}
# pacf2 = 0 zeroes the ar2 band's outer diagonals, R[0] = 0 the mv_iid
# off-diagonals, and g = 0 the whole shared predictor
SPECIAL_THETA = dict(GENERIC_THETA, p2=0.0, **{"R[0]": 0.0}, g=0.0)


def stub_sparse(monkeypatch):
    """Make every use of scipy.sparse in latent.py and model.py fail."""

    class NoSparse:
        def __getattr__(self, name):
            raise AssertionError(f"scipy.sparse.{name} called")

    monkeypatch.setattr("circfit.latent.sparse", NoSparse())
    monkeypatch.setattr("circfit.model.sparse", NoSparse())


class TestFixedStructure:
    def test_patterns_do_not_depend_on_theta(self):
        # the value arrays fill the patterns fixed at build time
        m = build_model(structure_spec())
        S = m.structure
        for theta in (GENERIC_THETA, SPECIAL_THETA):
            assert S.prior_values(theta)[0].shape == S.prior_rows.shape
            for name, pat in S.blocks.items():
                values, products = pat.design(theta)
                assert values.shape == pat.nodes.shape
                assert products.shape == (pat.size, pat.pair_t.size)
                assert products.size == S.pairs[name].size

    def test_special_theta_keeps_vanishing_entries_stored(self):
        # a value-based pattern would shrink at these hyper values
        m = build_model(structure_spec())
        S = m.structure
        assert np.count_nonzero(prior(m, SPECIAL_THETA)[0]) < S.prior_rows.size
        pat = S.blocks["c"]
        assert np.count_nonzero(design(m, "c", SPECIAL_THETA)) < pat.nodes.size
        # observation 2 has a zero covariate and still stores all 5 terms
        pat = S.blocks["y"]
        assert np.count_nonzero(design(m, "y", GENERIC_THETA)[2]) == 4
        assert pat.nodes.shape == pat.design(GENERIC_THETA)[0].shape == (5, 12)

    @pytest.mark.parametrize("theta", [GENERIC_THETA, SPECIAL_THETA])
    def test_values_equal_the_reference_loops(self, theta):
        m = build_model(structure_spec())
        S = m.structure
        Q_ref, log_gdet_ref = prior(m, theta)
        Q, log_gdet = engine_prior(m, theta)
        np.testing.assert_array_equal(Q, Q_ref)
        assert log_gdet == log_gdet_ref
        for name, pat in S.blocks.items():
            values, _ = pat.design(theta)
            np.testing.assert_array_equal(
                engine_design(pat, values, m.latent_dim),
                design(m, name, theta),
            )
        # the matrix views the benchmark tracer wraps show the same values
        Q_view, log_gdet_view = m.prior_precision(theta)
        np.testing.assert_array_equal(Q_view.toarray(), Q_ref)
        assert log_gdet_view == log_gdet_ref
        for name in m.blocks:
            np.testing.assert_array_equal(
                m.block_matrix(name, theta).toarray(), design(m, name, theta)
            )

    def test_structure_is_built_once_on_first_use(self):
        m = build_model(structure_spec())
        assert m._structure is None
        built = m.structure
        assert m._structure is built
        assert m.structure is built

    def test_build_model_constructs_no_compressed_sparse_matrix(
        self, monkeypatch
    ):
        # terms hold nodes and coefficients; patterns wait for the first fit
        data = generate_sim1(50, SIM1_TRUTH, np.random.default_rng(1))
        built = []
        original = _cs_matrix.__init__

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(_cs_matrix, "__init__", counting)
        build_model(sim1_spec(data))
        assert built == []

    @pytest.mark.parametrize("generate, spec, truth, built", [
        (generate_sim1, sim1_spec, SIM1_TRUTH, 0),
        (generate_sim2, sim2_spec, SIM2_TRUTH, 1),
        (generate_sim3, sim3_spec, SIM3_TRUTH, 1),
    ], ids=["sim1", "sim2", "sim3"])
    def test_structure_builds_at_most_the_rcm_input(
        self, monkeypatch, generate, spec, truth, built
    ):
        # patterns are index arrays; the one compressed matrix is the
        # reverse Cuthill-McKee input, and only a component body needs it
        m = build_model(spec(generate(60, truth, np.random.default_rng(1))))
        matrices = []
        original = _cs_matrix.__init__

        def counting(self, *args, **kwargs):
            original(self, *args, **kwargs)
            matrices.append(self)

        monkeypatch.setattr(_cs_matrix, "__init__", counting)
        S = ModelStructure(m)
        assert len(matrices) == built
        assert (S.n_body > 0) == (built == 1)

    def test_design_memo_follows_the_chain_factors(self):
        # block c's terms carry the chains (g,) and (g, a_r); tau, lam_s
        # and p1 are in none of them
        m = build_model(structure_spec())
        pat = m.structure.blocks["c"]
        last = pat.design(GENERIC_THETA)
        for theta, chain_moved in (
            (dict(GENERIC_THETA, tau=5.0, lam_s=0.2, p1=0.1), False),
            (dict(GENERIC_THETA, a_r=1.9), True),
            (dict(GENERIC_THETA, g=0.3), True),
        ):
            values, products = pat.design(theta)
            np.testing.assert_array_equal(
                engine_design(pat, values, m.latent_dim), design(m, "c", theta)
            )
            # the pairs t >= s of the block's terms; two different terms at
            # one node of a row count twice
            t, s = np.tril_indices(len(pat.terms))
            twice = (t != s)[:, None] & (pat.nodes[t] == pat.nodes[s])
            np.testing.assert_array_equal(
                products, (np.where(twice, 2.0, 1.0) * values[t] * values[s]).T
            )
            assert (values is last[0]) is not chain_moved
            assert (products is last[1]) is not chain_moved
            assert not (values.flags.writeable or products.flags.writeable)
            last = (values, products)

    def test_chain_free_block_computes_its_design_once(self):
        data = generate_sim1(50, SIM1_TRUTH, np.random.default_rng(1))
        m = build_model(sim1_spec(data))
        pat = m.structure.blocks["y"]
        assert all(t.chain == () for t in pat.terms)
        values, products = pat.design({"kappa": 2.0})
        again = pat.design({"kappa": 40.0})
        assert again[0] is values and again[1] is products

    def test_no_evaluation_builds_a_sparse_matrix(self, monkeypatch):
        # once the structure exists, every kind's prior values come from
        # closed forms on its pattern: scipy.sparse is never reached
        m = build_model(structure_spec())
        S = m.structure
        stub_sparse(monkeypatch)
        for theta in (GENERIC_THETA, SPECIAL_THETA):
            S.prior_values(theta)
        lp, _ = log_posterior_theta(m, m.initial_internal())
        assert np.isfinite(lp)

    @pytest.mark.parametrize("generate, spec, truth", [
        (None, structure_spec, None),
        (generate_sim2, sim2_spec, SIM2_TRUTH),
        (generate_sim3, sim3_spec, SIM3_TRUTH),
    ], ids=["every_kind", "sim2", "sim3"])
    def test_build_model_reaches_no_scipy_sparse(
        self, monkeypatch, generate, spec, truth
    ):
        # every kind's pattern, unit values, constraints and size rule are
        # closed forms; the structure's reverse Cuthill-McKee input, built
        # after the stubs are lifted, is the only sparse matrix of a fit
        model_spec = (
            spec() if generate is None
            else spec(generate(100, truth, np.random.default_rng(1)))
        )
        stub_sparse(monkeypatch)
        m = build_model(model_spec)
        monkeypatch.undo()
        assert m.structure.prior_rows.size > m.latent_dim

    def test_nonpositive_precision_hyper_still_rejected(self):
        m = build_model(structure_spec())
        with pytest.raises(ConfigurationError, match="positive"):
            m.structure.prior_values(dict(GENERIC_THETA, lam_i=0.0))


def one_component_model(comp):
    """A Gaussian block of an intercept plus ``comp``, one observation per
    component node."""
    hypers = {"tau": PriorSpec("pc_precision", (1.0, 0.01))}
    for h in comp.pacf_hypers:
        hypers[h] = PriorSpec("pc_correlation", (0.5, 0.5))
    for h in comp.sigma_hypers:
        hypers[h] = PriorSpec("pc_precision", (1.0, 0.5))
    if comp.correlation_hyper is not None:
        hypers[comp.correlation_hyper] = PriorSpec("lkj", (5.0,))
    terms = (TermSpec("intercept", "mu"), TermSpec("component", comp.name))
    y = np.linspace(-1.0, 1.0, comp.dimension)
    return build_model(ModelSpec(
        blocks=(BlockSpec("y", "gaussian", y, terms, hyper="tau"),),
        components=(comp,),
        fixed_effects=(FixedEffectSpec("mu"),),
        hypers=hypers,
    ))


def structural_matrix(comp):
    """Every entry a component's precision may store, built by scipy: the
    band of half-width 2 for ar2, full d x d blocks for mv_iid, the unit
    matrix for the theta-free kinds."""
    if comp.kind == "ar2":
        n = comp.size
        return sparse.diags_array(
            [np.ones(n - abs(k)) for k in range(-2, 3)], offsets=range(-2, 3)
        )
    if comp.kind == "mv_iid":
        d = comp.block_dim
        return sparse.kron(sparse.eye_array(comp.size), np.ones((d, d)))
    return component_precision(comp, {}).matrix


PATTERN_COMPONENTS = [
    ComponentSpec("a", "ar2", n, pacf_hypers=("p1", "p2")) for n in (3, 4, 7)
] + [
    ComponentSpec(
        "v", "mv_iid", 3, block_dim=d,
        sigma_hypers=tuple(f"t{j}" for j in range(d)),
        correlation_hyper="R" if d > 1 else None,
    )
    for d in (1, 2, 3)
] + [
    ComponentSpec("i", "iid", n) for n in (1, 3, 100)
] + [
    ComponentSpec("r", "rw2", n) for n in (3, 4, 5, 100)
] + [
    ComponentSpec("c", "cyclic_rw2", n, period=p)
    for n, p in ((10, 5), (10, 6), (100, 24))
]


@pytest.mark.parametrize(
    "comp", PATTERN_COMPONENTS,
    ids=lambda c: f"{c.kind}-{c.block_dim or c.period or c.size}",
)
def test_component_pattern_is_scipys_canonical_csc_order(comp):
    # prior_values reads every kind's values by position, so the order of
    # the entries is part of the pattern
    rows, cols = _component_pattern(comp)
    ref = sparse.csc_array(structural_matrix(comp))
    ref.sum_duplicates()
    assert rows.dtype == cols.dtype == np.int64
    np.testing.assert_array_equal(rows, ref.indices)
    np.testing.assert_array_equal(
        cols, np.repeat(np.arange(ref.shape[1]), np.diff(ref.indptr))
    )


UNIT_COMPONENTS = [ComponentSpec("r", "rw2", n) for n in range(3, 61)] + [
    ComponentSpec("c", "cyclic_rw2", 7, period=p) for p in range(5, 41)
] + [ComponentSpec("i", "iid", n) for n in (1, 2, 100)]


@pytest.mark.parametrize(
    "comp", UNIT_COMPONENTS, ids=lambda c: f"{c.kind}-{c.period or c.size}"
)
def test_unit_values_equal_the_scipy_builders(comp):
    # the structure's closed forms against the public builders' sparse
    # products and coordinates, scaled by scale_precision: bit for bit
    m = one_component_model(comp)
    [(_, rows, cols, (values, log_gdet, rank))] = m.structure.prior_parts
    ref = component_precision(comp, {})
    np.testing.assert_array_equal(rows, ref.matrix.indices)
    np.testing.assert_array_equal(values, ref.matrix.data)
    assert log_gdet == ref.log_gdet
    assert rank == ref.dimension - ref.rank_deficiency
    C_ref = ref.constraints if ref.rank_deficiency else np.empty((0, comp.dimension))
    np.testing.assert_array_equal(m.constraints[:, :comp.dimension], C_ref)


EVERY_NODE = tuple(np.arange(20) % 8)


def intrinsic_reach_spec(kinds, maps):
    """20 gaussian observations of an intercept plus one 8-node intrinsic
    component w<j> of each kind, with period 8 when cyclic; the predictor
    references w<j> at node map maps[j] for each j < len(maps)."""
    y = np.random.default_rng(5).normal(size=20)
    terms = [TermSpec("intercept", "mu")]
    terms += [
        TermSpec("component", f"w{j}", indices=idx) for j, idx in enumerate(maps)
    ]
    components = tuple(
        ComponentSpec(f"w{j}", kind, 8, period=8 if kind == "cyclic_rw2" else None)
        for j, kind in enumerate(kinds)
    )
    return ModelSpec(
        blocks=(BlockSpec("y", "gaussian", y, tuple(terms), hyper="tau"),),
        components=components,
        fixed_effects=(FixedEffectSpec("mu"),),
        hypers={"tau": PriorSpec("pc_precision", (1.0, 0.01))},
    )


class TestValidation:
    def test_unknown_component_reference_names_it(self):
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "poisson",
                    np.zeros(4),
                    (TermSpec("component", "ghost"),),
                ),
            ),
        )
        with pytest.raises(ConfigurationError, match="ghost"):
            build_model(spec)

    def test_unknown_fixed_effect_named(self):
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y", "poisson", np.zeros(4), (TermSpec("intercept", "mu"),)
                ),
            ),
        )
        with pytest.raises(ConfigurationError, match="mu"):
            build_model(spec)

    def test_unknown_covariate_named(self):
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "poisson",
                    np.zeros(4),
                    (TermSpec("fixed", "beta", covariate="zz"),),
                ),
            ),
            fixed_effects=(FixedEffectSpec("beta"),),
        )
        with pytest.raises(ConfigurationError, match="zz"):
            build_model(spec)

    def test_covariate_length_mismatch(self):
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "poisson",
                    np.zeros(4),
                    (TermSpec("fixed", "beta", covariate="z"),),
                ),
            ),
            fixed_effects=(FixedEffectSpec("beta"),),
            covariates={"z": np.zeros(5)},
        )
        with pytest.raises(ConfigurationError, match="length 5"):
            build_model(spec)

    def test_undeclared_scale_hyper_named(self):
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "poisson",
                    np.zeros(4),
                    (TermSpec("component", "w", scale="a1"),),
                ),
            ),
            components=(ComponentSpec("w", "iid", 4),),
        )
        with pytest.raises(ConfigurationError, match="a1"):
            build_model(spec)

    def test_duplicate_scale_binding_rejected(self):
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "poisson",
                    np.zeros(4),
                    (
                        TermSpec("component", "w", scale="a1"),
                        TermSpec("component", "v", scale="a1"),
                    ),
                ),
            ),
            components=(
                ComponentSpec("w", "iid", 4),
                ComponentSpec("v", "iid", 4),
            ),
            hypers={"a1": PriorSpec("pc_scale", (0.5, 0.5))},
        )
        with pytest.raises(ConfigurationError, match="bound twice"):
            build_model(spec)

    def test_unbound_declared_hyper_rejected(self):
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y", "poisson", np.zeros(4), (TermSpec("component", "w"),)
                ),
            ),
            components=(ComponentSpec("w", "iid", 4),),
            hypers={"orphan": PriorSpec("pc_precision", (0.5, 0.5))},
        )
        with pytest.raises(ConfigurationError, match="orphan"):
            build_model(spec)

    def test_shared_cycle_detected(self):
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "a",
                    "gaussian",
                    np.zeros(4),
                    (TermSpec("shared", "b", scale="s1"),),
                    hyper="tau1",
                ),
                BlockSpec(
                    "b",
                    "gaussian",
                    np.zeros(4),
                    (TermSpec("shared", "a", scale="s2"),),
                    hyper="tau2",
                ),
            ),
            hypers={
                "tau1": PriorSpec("pc_precision", (0.5, 0.5)),
                "tau2": PriorSpec("pc_precision", (0.5, 0.5)),
                "s1": PriorSpec("gaussian", (0.0, 1.0)),
                "s2": PriorSpec("gaussian", (0.0, 1.0)),
            },
        )
        with pytest.raises(ConfigurationError, match="cycle"):
            build_model(spec)

    def test_shared_size_mismatch_rejected(self):
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "x",
                    "gaussian",
                    np.zeros(4),
                    (TermSpec("intercept", "a0"),),
                    hyper="tau1",
                ),
                BlockSpec(
                    "y",
                    "gaussian",
                    np.zeros(6),
                    (TermSpec("shared", "x", scale="b1"),),
                    hyper="tau2",
                ),
            ),
            fixed_effects=(FixedEffectSpec("a0"),),
            hypers={
                "tau1": PriorSpec("pc_precision", (0.5, 0.5)),
                "tau2": PriorSpec("pc_precision", (0.5, 0.5)),
                "b1": PriorSpec("gaussian", (0.0, 1.0)),
            },
        )
        with pytest.raises(ConfigurationError, match="matching sizes"):
            build_model(spec)

    def test_duplicate_block_names_rejected(self):
        spec = ModelSpec(
            blocks=(
                BlockSpec("y", "poisson", np.zeros(2), (TermSpec("intercept", "m"),)),
                BlockSpec("y", "poisson", np.zeros(2), (TermSpec("intercept", "m"),)),
            ),
            fixed_effects=(FixedEffectSpec("m"),),
        )
        with pytest.raises(ConfigurationError, match="duplicate block"):
            build_model(spec)

    def test_family_hyper_arity_enforced(self):
        with pytest.raises(ConfigurationError, match="likelihood hyper"):
            BlockSpec("y", "poisson", np.zeros(2), (), hyper="tau")
        with pytest.raises(ConfigurationError, match="likelihood hyper"):
            BlockSpec("y", "gaussian", np.zeros(2), ())

    def test_block_without_responses_rejected(self):
        with pytest.raises(ConfigurationError, match="'y' has no responses"):
            BlockSpec("y", "gaussian", np.zeros(0), (), hyper="tau")

    def test_component_kind_validation(self):
        with pytest.raises(ConfigurationError, match="unknown kind"):
            ComponentSpec("w", "rw7", 5)
        with pytest.raises(ConfigurationError, match="period"):
            ComponentSpec("w", "cyclic_rw2", 5)
        with pytest.raises(ConfigurationError, match="pacf"):
            ComponentSpec("w", "ar2", 5)
        with pytest.raises(ConfigurationError, match="sigma"):
            ComponentSpec("w", "mv_iid", 5, block_dim=2, sigma_hypers=("s",))

    @pytest.mark.parametrize("kind, size, extra, message", [
        ("iid", 0, {}, "iid component needs n >= 1, got 0"),
        ("rw2", 2, {}, "rw2 component needs n >= 3, got 2"),
        ("cyclic_rw2", 10, {"period": 4}, "cyclic_rw2 needs period >= 5, got 4"),
        ("cyclic_rw2", 0, {"period": 5},
         "cyclic_rw2 needs n >= 1 observations, got 0"),
        ("ar2", 2, {"pacf_hypers": ("p1", "p2")},
         "ar2 component needs n >= 3, got 2"),
        ("mv_iid", 0, {"block_dim": 1, "sigma_hypers": ("t0",)},
         "mv_iid component needs n >= 1, got 0"),
    ], ids=["iid", "rw2", "cyclic_rw2_period", "cyclic_rw2", "ar2", "mv_iid"])
    def test_size_rule_checked_when_the_component_is_declared(
        self, kind, size, extra, message
    ):
        # not inside the first Laplace evaluation of a fit, where the
        # engine does not catch it
        with pytest.raises(
            ConfigurationError, match=f"'w': {re.escape(message)}$"
        ):
            ComponentSpec("w", kind, size, **extra)

    @pytest.mark.parametrize("make, field", [
        (lambda: ComponentSpec("w", "iid", 10.0), "'w': size"),
        (lambda: ComponentSpec("w", "rw2", 9.5), "'w': size"),
        (lambda: ComponentSpec("w", "cyclic_rw2", 10, period=5.5),
         "'w': period"),
        (lambda: ComponentSpec("w", "mv_iid", 5, block_dim=2.0,
                               sigma_hypers=("s0", "s1"),
                               correlation_hyper="r"),
         "'w': block_dim"),
        (lambda: ModelSpec(blocks=(), components=(ComponentSpec("w", "rw2", 5),)),
         "blocks"),
        (lambda: FixedEffectSpec("b", prior_sd=np.nan), "'b': prior_sd"),
        (lambda: FixedEffectSpec("b", prior_sd=np.inf), "'b': prior_sd"),
    ], ids=["size_float", "size_fraction", "period", "block_dim",
            "no_blocks", "prior_sd_nan", "prior_sd_inf"])
    def test_malformed_spec_field_rejected(self, make, field):
        # before, build_model failed inside numpy (a float size, no block)
        # or every lp was -inf (an infinite prior sd)
        with pytest.raises(ConfigurationError, match=re.escape(field)):
            make()

    def test_empty_model_rejected(self):
        spec = ModelSpec(
            blocks=(BlockSpec("y", "poisson", np.zeros(2), ()),),
        )
        with pytest.raises(ConfigurationError, match="no latent nodes"):
            build_model(spec)

    def test_block_without_terms_rejected(self):
        # rejected at build time, not inside the first fit
        spec = ModelSpec(
            blocks=(BlockSpec("y", "gaussian", np.zeros(2), (), hyper="tau"),),
            fixed_effects=(FixedEffectSpec("b"),),
            hypers={"tau": PriorSpec("fixed", (1.0,))},
        )
        with pytest.raises(ConfigurationError, match="'y' has no predictor"):
            build_model(spec)

    @pytest.mark.parametrize(
        "kinds, maps, names",
        [
            (("rw2",), (), "'w0'"),
            (("rw2",), ((3,) * 20,), "'w0'"),
            (("cyclic_rw2",), (), "'w0'"),
            (("rw2", "cyclic_rw2"), (EVERY_NODE, EVERY_NODE), "'w0', 'w1'"),
            (("rw2", "rw2"), (EVERY_NODE, EVERY_NODE), "'w0', 'w1'"),
        ],
        ids=[
            "unreferenced_rw2",
            "one_node_rw2",
            "unreferenced_cyclic_rw2",
            "rw2_plus_cyclic_rw2",
            "two_rw2_on_the_same_nodes",
        ],
    )
    def test_intrinsic_component_the_observations_cannot_pin_down(
        self, kinds, maps, names
    ):
        # Q* would be singular at every theta: a combination of the
        # components' null directions (C's rows) meets no likelihood
        # curvature.  For rw2 + cyclic_rw2 it is +1 on the rw2 nodes and -1
        # on the cyclic ones, which every predictor sees as 1 - 1 = 0
        spec = intrinsic_reach_spec(kinds, maps)
        with pytest.raises(
            ConfigurationError, match=f"intrinsic component\\(s\\) {names}:"
        ):
            build_model(spec)

    def test_rw2_and_cyclic_rw2_in_two_predictors_build(self):
        # each block's intercept-free predictor sees one constant, so
        # nothing cancels
        y = np.random.default_rng(5).normal(size=20)
        spec = ModelSpec(
            blocks=tuple(
                BlockSpec(name, "gaussian", y,
                          (TermSpec("component", comp, indices=EVERY_NODE),),
                          hyper=f"tau_{name}")
                for name, comp in (("y0", "w0"), ("y1", "w1"))
            ),
            components=(
                ComponentSpec("w0", "rw2", 8),
                ComponentSpec("w1", "cyclic_rw2", 8, period=8),
            ),
            hypers={
                f"tau_{name}": PriorSpec("pc_precision", (1.0, 0.01))
                for name in ("y0", "y1")
            },
        )
        assert build_model(spec).constraints.shape[0] == 3

    def test_rw2_reached_at_two_nodes_fits(self):
        m = build_model(intrinsic_reach_spec(("rw2",), ((2, 5) * 10,)))
        fit = fit_model(m)
        assert np.isfinite(fit.theta_mode["tau"])
        assert np.max(np.abs(m.constraints @ fit.latent_summary["mean"])) < 1e-9

    def test_index_map_out_of_range(self):
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "poisson",
                    np.zeros(4),
                    (TermSpec("component", "w", indices=(0, 1, 2, 9)),),
                ),
            ),
            components=(ComponentSpec("w", "iid", 4),),
        )
        with pytest.raises(ConfigurationError, match="exceed"):
            build_model(spec)


class TestClassicalSpec:
    def test_round_trip_dimensions(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-np.pi, np.pi, 30)
        y = 1.0 + 2.0 * np.cos(x) - 0.5 * np.sin(x)
        m = build_model(classical_sincos_spec(y, x))
        assert m.latent_dim == 3
        assert [c.name for c in m.hyper_coords] == ["tau"]

    def test_predictor_reproduces_coefficients(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-np.pi, np.pi, 25)
        y = 1.0 + 2.0 * np.cos(x) - 0.5 * np.sin(x)
        m = build_model(classical_sincos_spec(y, x))
        w = np.zeros(3)
        w[m.effect_nodes["beta0"]] = 1.0
        w[m.effect_nodes["alpha1"]] = 2.0
        w[m.effect_nodes["alpha2"]] = -0.5
        th = m.theta_natural(m.initial_internal())
        np.testing.assert_allclose(block_predictor(m, "y", w, th), y, atol=1e-12)

    def test_nan_response_fails_the_fit_with_its_index(self):
        # it used to end the fit on "no successful Laplace evaluation"
        rng = np.random.default_rng(4)
        x = rng.uniform(-np.pi, np.pi, 50)
        y = 1.0 + 2.0 * np.cos(x) - 0.5 * np.sin(x)
        y[17] = np.nan
        with pytest.raises(ObservationError, match="finite") as err:
            fit_model(build_model(classical_sincos_spec(y, x)))
        assert err.value.indices == [17]

    def test_degenerate_circular_covariate_flagged(self):
        with pytest.warns(UserWarning, match="collinear with the intercept"):
            classical_sincos_spec(np.zeros(5), np.zeros(5))

    def test_generic_angles_not_flagged(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-np.pi, np.pi, 40)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            classical_sincos_spec(rng.normal(size=40), x)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="matching lengths"):
            classical_sincos_spec(np.zeros(4), np.zeros(5))


class TestHyperPlumbing:
    def test_fixed_hyper_passes_through_natural_value(self):
        n = 6
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "x",
                    "lavm",
                    np.zeros(n),
                    (TermSpec("intercept", "a0"),),
                    hyper="kappa",
                ),
            ),
            fixed_effects=(FixedEffectSpec("a0"),),
            hypers={"kappa": PriorSpec("fixed", (np.exp(15.0),))},
        )
        m = build_model(spec)
        assert m.free_hyper_names == []
        th = m.theta_natural(m.initial_internal())
        assert th["kappa"] == pytest.approx(np.exp(15.0))
        assert m.logprior_internal(m.initial_internal()) == 0.0

    def test_logprior_sums_free_coordinates(self):
        m = build_model(coupled_spec())
        theta = m.initial_internal()
        total = m.logprior_internal(theta)
        from circfit.priors import eval_logprior

        want = sum(
            eval_logprior(c.spec, v)
            for c, v in zip(m.hyper_coords, theta)
            if not c.is_fixed
        )
        assert total == pytest.approx(want, rel=1e-12)

    def test_intrinsic_component_standardized(self):
        # the assembled rw2 field is rescaled to unit reference marginal sd,
        # so the a1 hyper is the contribution sd itself; the oracle is the
        # dense pseudo-inverse, the field's covariance under its constraints
        for n in (100, 500, 1000):
            m = build_model(coupled_spec(n))
            Q_std = engine_prior(m, {})[0][:n, :n]
            pinv = np.linalg.pinv(Q_std, hermitian=True)
            assert np.sqrt(np.mean(np.diag(pinv))) == pytest.approx(1.0, rel=1e-6)
            raw = rw2_reference_sd(n)
            assert raw > 5.0
            Q_raw = build_rw2(n).matrix.toarray()
            assert np.allclose(Q_std, Q_raw * raw**2, rtol=1e-12)
