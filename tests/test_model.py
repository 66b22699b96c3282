from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse._compressed import _cs_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from circfit.inference import fit_model
from circfit.likelihoods import ObservationError
from circfit.latent import build_mv_iid, build_rw2, rw2_reference_sd
from circfit.model import (
    AssembledModel,
    BlockSpec,
    ComponentSpec,
    FixedEffectSpec,
    ModelSpec,
    TermSpec,
    build_model,
    classical_sincos_spec,
    predictor_values,
    terms_predictor,
)
from circfit.priors import ConfigurationError, PriorSpec
from circfit.studies import SIM1_TRUTH, generate_sim1, sim1_spec


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
        etas = predictor_values(m, np.zeros(m.latent_dim), th)
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
        eta = m.predictor("y", np.array([2.0]), th)
        np.testing.assert_allclose(eta, 6.0)

    def test_shared_predictor_composition(self):
        n = 8
        m = build_model(coupled_spec(n))
        w = np.zeros(m.latent_dim)
        w[m.effect_nodes["a0"]] = 2.0
        w[m.effect_nodes["b0"]] = 1.0
        th = m.theta_natural(m.initial_internal())
        th["a1"], th["b1"] = 1.0, 0.5
        etas = predictor_values(m, w, th)
        np.testing.assert_allclose(etas["x"], 2.0)
        np.testing.assert_allclose(etas["y"], 1.0 + 0.5 * 2.0)

    def test_shared_scale_rescales_whole_inner_predictor(self):
        n = 8
        m = build_model(coupled_spec(n))
        rng = np.random.default_rng(11)
        w = rng.normal(size=m.latent_dim)
        th = m.theta_natural(m.initial_internal())
        th["b1"] = -1.7
        inner = m.predictor("x", w, th)
        outer = m.predictor("y", w, th)
        base = dict(th, b1=0.0)
        np.testing.assert_allclose(
            outer, m.predictor("y", w, base) - 1.7 * inner, atol=1e-12
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
        zero = predictor_values(m, np.zeros(m.latent_dim), th)
        lhs = predictor_values(m, w1 + w2, th)
        p1 = predictor_values(m, w1, th)
        p2 = predictor_values(m, w2, th)
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
            eta = m.predictor(name, w, th)
            assert eta.flags.f_contiguous
            np.testing.assert_array_equal(
                eta, m.predictor(name, np.ascontiguousarray(w), th)
            )
            for i in (0, 17, 39):
                np.testing.assert_array_equal(
                    eta[i], m.predictor(name, w[i].copy(), th)
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
            np.testing.assert_allclose(A @ w, m.predictor(name, w, th))

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
        eta = m.predictor("y", w, th)
        np.testing.assert_array_equal(eta, np.arange(n) % p)


class TestPriorPrecision:
    def test_block_diagonal_across_components_and_effects(self):
        n = 16
        m = build_model(coupled_spec(n))
        th = m.theta_natural(m.initial_internal())
        Q, log_gdet = m.prior_precision(th)
        dense = Q.toarray()
        assert np.all(dense[:n, n:] == 0.0)
        assert np.all(dense[n:, :n] == 0.0)
        # fixed effects carry their own Gaussian precisions
        np.testing.assert_allclose(np.diag(dense[n:, n:]), 1.0)

    def test_gdet_adds_over_blocks(self):
        n = 16
        m = build_model(coupled_spec(n))
        th = m.theta_natural(m.initial_internal())
        _, log_gdet = m.prior_precision(th)
        comp = m.component_precision(m.components["w"], th)
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
        Q, _ = m.prior_precision(th)
        th1 = dict(th, tau_s=1.0)
        Q1, _ = m.prior_precision(th1)
        np.testing.assert_allclose(Q.toarray(), 4.0 * Q1.toarray(), atol=1e-12)

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
        Qa, _ = m.prior_precision({"p1": 0.5, "p2": 0.1})
        Qb, _ = m.prior_precision({"p1": -0.5, "p2": 0.1})
        assert not np.allclose(Qa.toarray(), Qb.toarray())

    def test_mv_component_matches_direct_build(self):
        n, d = 6, 3
        spec = ModelSpec(
            blocks=(
                BlockSpec(
                    "y",
                    "gaussian",
                    np.zeros(n),
                    (
                        TermSpec(
                            "component",
                            "w",
                            indices=tuple(range(0, n * d, d)),
                        ),
                    ),
                    hyper="tau",
                ),
            ),
            components=(
                ComponentSpec(
                    "w",
                    "mv_iid",
                    n,
                    block_dim=d,
                    sigma_hypers=("t1", "t2", "t3"),
                    correlation_hyper="R",
                ),
            ),
            hypers={
                "tau": PriorSpec("pc_precision", (0.5, 0.5)),
                "t1": PriorSpec("pc_precision", (1.0, 0.5)),
                "t2": PriorSpec("pc_precision", (1.0, 0.5)),
                "t3": PriorSpec("pc_precision", (1.0, 0.5)),
            },
        )
        spec.hypers["R"] = PriorSpec("lkj", (5.0,))
        m = build_model(spec)
        names = [c.name for c in m.hyper_coords]
        assert names.count("R[0]") == 1 and "R[2]" in names
        assert m.hyper_dim == 1 + 3 + 3
        th = {"tau": 1.0, "t1": 4.0, "t2": 1.0, "t3": 0.25,
              "R[0]": 0.5, "R[1]": 0.0, "R[2]": -0.3}
        got = m.component_precision(m.components["w"], th)
        from circfit.priors import partials_to_correlation

        R = partials_to_correlation(np.array([0.5, 0.0, -0.3]), d)
        want = build_mv_iid(n, np.array([0.5, 1.0, 2.0]), R)
        np.testing.assert_allclose(got.matrix.toarray(), want.matrix.toarray(), atol=1e-12)


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
            "g": PriorSpec("gaussian", (0.0, 1.0)),
        },
        covariates={"z": z},
    )


GENERIC_THETA = {"tau": 2.0, "lam_s": 3.0, "p1": 0.6, "p2": -0.3, "t1": 4.0,
                 "t2": 0.5, "R[0]": 0.4, "a_r": 0.7, "lam_i": 1.5, "g": -0.8}
# pacf2 = 0 zeroes the ar2 band's outer diagonals, R[0] = 0 the mv_iid
# off-diagonals, and g = 0 the whole shared predictor
SPECIAL_THETA = dict(GENERIC_THETA, p2=0.0, **{"R[0]": 0.0}, g=0.0)


def reference_prior(m, theta):
    """Block diagonal of the component precisions and effect precisions."""
    parts = [m.component_precision(c, theta).matrix for c in m.spec.components]
    parts.append(
        sparse.diags_array([e.prior_sd**-2.0 for e in m.spec.fixed_effects])
    )
    log_gdet = sum(m.component_precision(c, theta).log_gdet
                   for c in m.spec.components)
    log_gdet += float(np.sum(np.log([e.prior_sd**-2.0
                                     for e in m.spec.fixed_effects])))
    return sparse.block_diag(parts, format="csc"), log_gdet


def reference_block(m, name, theta):
    """Sum over the block's terms of M times its scale-chain product, M the
    term's observation-by-latent matrix."""
    A = None
    for t in m.blocks[name].terms:
        factor = 1.0
        for h in t.chain:
            factor *= theta[h]
        M = sparse.csr_array(
            (t.coef, t.nodes, np.arange(t.nodes.size + 1)),
            shape=(t.nodes.size, m.latent_dim),
        )
        A = M * factor if A is None else A + M * factor
    return sparse.csr_array(A)


class TestFixedStructure:
    def test_patterns_do_not_depend_on_theta(self):
        m = build_model(structure_spec())
        Qa, _ = m.prior_precision(GENERIC_THETA)
        Qb, _ = m.prior_precision(SPECIAL_THETA)
        np.testing.assert_array_equal(Qa.indices, Qb.indices)
        np.testing.assert_array_equal(Qa.indptr, Qb.indptr)
        for name in m.blocks:
            Aa = m.block_matrix(name, GENERIC_THETA)
            Ab = m.block_matrix(name, SPECIAL_THETA)
            np.testing.assert_array_equal(Aa.indices, Ab.indices)
            np.testing.assert_array_equal(Aa.indptr, Ab.indptr)

    def test_special_theta_keeps_vanishing_entries_stored(self):
        # a value-based pattern would shrink at these hyper values
        m = build_model(structure_spec())
        Q, _ = m.prior_precision(SPECIAL_THETA)
        assert reference_prior(m, SPECIAL_THETA)[0].nnz < Q.nnz
        A = m.block_matrix("c", SPECIAL_THETA)
        assert reference_block(m, "c", SPECIAL_THETA).nnz < A.nnz
        # observation 2 has a zero covariate and still stores all 5 terms
        assert m.block_matrix("y", GENERIC_THETA)[[2], :].nnz == 5

    @pytest.mark.parametrize("theta", [GENERIC_THETA, SPECIAL_THETA])
    def test_values_equal_the_reference_loops(self, theta):
        m = build_model(structure_spec())
        Q, log_gdet = m.prior_precision(theta)
        Q_ref, log_gdet_ref = reference_prior(m, theta)
        np.testing.assert_array_equal(Q.toarray(), Q_ref.toarray())
        assert log_gdet == log_gdet_ref
        for name in m.blocks:
            np.testing.assert_array_equal(
                m.block_matrix(name, theta).toarray(),
                reference_block(m, name, theta).toarray(),
            )

    def test_structure_is_built_once_on_first_use(self):
        m = build_model(structure_spec())
        assert m._structure is None
        m.prior_precision(GENERIC_THETA)
        built = m._structure
        m.block_matrix("y", SPECIAL_THETA)
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
            fresh = pat.values(theta)
            np.testing.assert_array_equal(values, fresh)
            np.testing.assert_array_equal(
                products, fresh[pat.nz_a] * fresh[pat.nz_b]
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

    def test_nonpositive_precision_hyper_still_rejected(self):
        m = build_model(structure_spec())
        with pytest.raises(ConfigurationError, match="positive"):
            m.prior_precision(dict(GENERIC_THETA, lam_i=0.0))


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
        np.testing.assert_allclose(m.predictor("y", w, th), y, atol=1e-12)

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
            built = m.component_precision(m.spec.components[0], {})
            Q_std = built.matrix.toarray()
            pinv = np.linalg.pinv(Q_std, hermitian=True)
            assert np.sqrt(np.mean(np.diag(pinv))) == pytest.approx(1.0, rel=1e-6)
            raw = rw2_reference_sd(n)
            assert raw > 5.0
            Q_raw = build_rw2(n).matrix.toarray()
            assert np.allclose(Q_std, Q_raw * raw**2, rtol=1e-12)
