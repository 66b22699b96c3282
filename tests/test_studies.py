"""Seeded smoke tests for the simulation studies.

Each study is run or built at a small size: replicate r must be the fit of
seed + r alone, and the coupled studies must build the latent dimensions
their specifications imply.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import circfit.studies as studies
from circfit.inference import fit_model
from circfit.model import build_model
from circfit.priors import ConfigurationError
from circfit.studies import (
    MV6_TRUTH,
    SIM2_TRUTH,
    SIM3_TRUTH,
    WIND_TRUTH,
    generate_mv6,
    generate_sim2,
    generate_sim3,
    generate_wind_like,
    mv6_recovery,
    mv6_spec,
    run_study,
    sim2_spec,
    sim3_spec,
    smooth_field,
    wind_spec,
)


def _capturing(fn, kept):
    """fn, wrapped to keep each of its results in ``kept``."""

    def wrapper(*args):
        kept.append(fn(*args))
        return kept[-1]

    return wrapper


def _without_timing(record):
    return dataclasses.replace(record, seconds=0.0)


def test_replicates_reproduce_in_isolation():
    result = run_study("sim1", n=300, reps=2, seed=7)
    assert [_without_timing(r) for r in result.records] == [
        _without_timing(studies._run_replicate("sim1", 300, r, 7))
        for r in range(2)
    ]
    assert [r.seed for r in result.records] == [7, 8]
    coverage = result.coverage()
    assert set(coverage) == {"beta0", "beta1", "beta2", "kappa"}
    assert all(reps == 2 for _, reps in coverage.values())


def test_sim2_study_records_parameters_and_predictive_pvalues():
    result = run_study("sim2", n=100, reps=1, seed=1000)
    (record,) = result.records
    assert record.seed == 1000
    names = [p.name for p in record.parameters]
    assert names == ["a0", "b0", "a1", "b1", "kappa", "tau"]
    for p in record.parameters:
        assert p.truth == SIM2_TRUTH[p.name]
        assert np.isfinite([p.estimate, p.lower, p.upper]).all()
        assert p.lower <= p.upper
    assert set(record.pvalues) == {"x", "y"}
    assert all(0.0 <= v <= 1.0 for v in record.pvalues.values())


@pytest.mark.parametrize("seed", [1000, 2000])
def test_default_fit_model_fits_the_data_run_study_fits(monkeypatch, seed):
    # sim3 n=30 searches over 12 free hypers and takes well over 200 mode
    # search evaluations; seed 1000 fits within the search budget only
    # under the SEARCH_GAIN stop: a fit with no setting must fit every
    # dataset run_study fits, and equal its fit
    data = generate_sim3(30, SIM3_TRUTH, np.random.default_rng(seed))
    alone = fit_model(build_model(sim3_spec(data)))
    assert alone.diagnostics["evaluations"] > 200
    fits = []
    monkeypatch.setattr(studies, "fit_model", _capturing(fit_model, fits))
    run_study("sim3", n=30, reps=1, seed=seed)
    (fit,) = fits
    np.testing.assert_array_equal(
        alone.theta_mode_internal, fit.theta_mode_internal
    )
    assert [pt.log_unnorm_posterior for pt in alone.points] == [
        pt.log_unnorm_posterior for pt in fit.points
    ]
    assert [pt.weight for pt in alone.points] == [
        pt.weight for pt in fit.points
    ]


@pytest.mark.parametrize("seed", [13000, 36000])
def test_sim2_warm_up_fits(seed):
    # from w = 0 at the prior medians 84 and 81 of the 100 LAvM curvatures
    # fail, so these searches start from solves that rest on the EM weight
    (record,) = run_study("sim2", n=100, reps=1, seed=seed).records
    for p in record.parameters:
        assert np.isfinite([p.estimate, p.lower, p.upper]).all()
        assert p.lower <= p.upper


@pytest.mark.parametrize(
    "generate, spec, truth, n",
    [
        (generate_wind_like, wind_spec, WIND_TRUTH, 240),
        (generate_mv6, mv6_spec, MV6_TRUTH, 30),
    ],
    ids=["wind", "mv6"],
)
def test_unregistered_studies_fit(generate, spec, truth, n):
    # from w = 0 at the prior medians 132 of wind's 240 LAvM curvatures
    # fail, and up to 18 of mv6's 30 in its first steps
    data = generate(n, truth, np.random.default_rng(1))
    fit = fit_model(build_model(spec(data)))
    summaries = [fit.latent_summary] + list(fit.hyper_summary.values())
    for s in summaries:
        q = np.array([s["q025"], s["q50"], s["q975"]], dtype=float)
        assert np.isfinite(q).all()
        assert (np.diff(q, axis=0) >= 0).all()


def test_sim3_records_read_the_fit_in_order(monkeypatch):
    # a hand-made fit of the real sim3 model: every latent node and hyper
    # holds distinct values, so a record reading the wrong one shows
    def made_fit(model):
        nodes = np.arange(model.latent_dim, dtype=float)
        hypers = {
            c.name: {"mode": 2.0 + k, "q025": 1.0 + k, "q975": 4.0 + k}
            for k, c in enumerate(model.hyper_coords)
        }
        return SimpleNamespace(
            model=model,
            latent_summary={
                "mean": nodes, "q025": nodes - 0.5, "q975": nodes + 0.5
            },
            hyper_summary=hypers,
        )

    fits = []
    monkeypatch.setattr(studies, "fit_model", _capturing(made_fit, fits))
    (record,) = run_study("sim3", n=30, reps=1).records
    (fit,) = fits
    latents = [
        "alpha11", "alpha12", "alpha13", "alpha21", "alpha22", "alpha23",
        "beta11", "beta12", "beta13", "beta21", "beta22", "beta23",
    ]
    hypers = ["pacf1", "pacf2", "a11", "a21", "b11", "b12", "b21", "b22"]
    params = record.parameters
    assert len(params) == 21
    assert [p.name for p in params] == latents + ["sigma_s"] + hypers
    assert all(p.truth == SIM3_TRUTH[p.name] for p in params)
    for p in params[:12]:
        node = fit.model.effect_nodes[p.name]
        assert (p.estimate, p.lower, p.upper) == (node, node - 0.5, node + 0.5)
    tau_s = fit.hyper_summary["tau_s"]
    sigma_s = params[12]
    assert sigma_s.estimate == tau_s["mode"] ** -0.5
    # t^(-1/2) decreases, so tau_s's upper end gives sigma_s's lower one
    assert sigma_s.lower == tau_s["q975"] ** -0.5
    assert sigma_s.upper == tau_s["q025"] ** -0.5
    assert sigma_s.lower < sigma_s.estimate < sigma_s.upper
    for p in params[13:]:
        h = fit.hyper_summary[p.name]
        assert (p.estimate, p.lower, p.upper) == (
            h["mode"], h["q025"], h["q975"]
        )


def test_sim2_fits_at_default_size():
    result = run_study("sim2", reps=1, seed=1)
    assert result.n == 1000
    (record,) = result.records
    assert [p.name for p in record.parameters] == [
        "a0", "b0", "a1", "b1", "kappa", "tau"
    ]
    for p in record.parameters:
        assert np.isfinite([p.estimate, p.lower, p.upper]).all()
        assert p.lower <= p.estimate <= p.upper


@pytest.mark.parametrize(
    "generate, spec, truth, n, latent_dim",
    [
        (generate_sim2, sim2_spec, SIM2_TRUTH, 200, 202),
        (generate_sim3, sim3_spec, SIM3_TRUTH, 100, 316),
    ],
    ids=["sim2", "sim3"],
)
def test_coupled_studies_build_their_latent_dimension(
    generate, spec, truth, n, latent_dim
):
    data = generate(n, truth, np.random.default_rng(1))
    model = build_model(spec(data))
    assert model.latent_dim == latent_dim
    assert all(blk.size == n for blk in model.blocks.values())


@pytest.mark.parametrize(
    "generate, spec, truth, n, latent_dim, free, constraints",
    [
        (generate_wind_like, wind_spec, WIND_TRUTH, 240, 268, 5, 1),
        (generate_mv6, mv6_spec, MV6_TRUTH, 30, 186, 21, 0),
    ],
    ids=["wind", "mv6"],
)
def test_unregistered_studies_build_their_structure(
    generate, spec, truth, n, latent_dim, free, constraints
):
    data = generate(n, truth, np.random.default_rng(1))
    model = build_model(spec(data))
    assert model.latent_dim == latent_dim
    assert len(model.free_hyper_names) == free
    assert model.constraints.shape == (constraints, latent_dim)
    perm = model.structure.perm
    assert np.array_equal(np.sort(perm), np.arange(latent_dim))


def test_mv6_recovery_at_zero_partial_correlations():
    prec = np.array([0.25, 1.0, 4.0, 2.0, 0.5, 9.0])
    theta = {f"prec{j + 1}": prec[j] for j in range(6)}
    theta.update({f"R[{k}]": 0.0 for k in range(15)})
    sig, R = mv6_recovery(SimpleNamespace(theta_mode=theta))
    np.testing.assert_allclose(sig, prec**-0.5, rtol=1e-15)
    np.testing.assert_array_equal(R, np.eye(6))


def test_unknown_study_and_empty_run_are_rejected():
    with pytest.raises(ConfigurationError, match="unknown study"):
        run_study("sim9")
    with pytest.raises(ConfigurationError, match="at least one replicate"):
        run_study("sim1", n=300, reps=0)


@pytest.mark.parametrize(
    "options, name",
    [
        ({"n": 50.5}, "^n must be an integer"),
        ({"reps": 1.5}, "^reps must be an integer"),
        ({"seed": 1.5}, "^seed must be an integer"),
    ],
)
def test_non_integer_run_arguments_are_rejected(options, name):
    # the float sizes and seed used to end in a TypeError from numpy or
    # range
    with pytest.raises(ConfigurationError, match=name):
        run_study("sim1", **{"n": 50, "reps": 1, **options})


def test_studies_without_enough_observations_are_rejected():
    # n=0 used to fit the prior alone, n=-1 failed in numpy, and sim2 at
    # n=2 divided its field by the zero reference sd of a two-node rw2
    for n in (0, -1):
        with pytest.raises(ConfigurationError, match="one observation"):
            run_study("sim1", n=n, reps=1)
    with pytest.raises(ConfigurationError, match="n >= 3"):
        run_study("sim2", n=2, reps=1)
    with pytest.raises(ConfigurationError, match="n >= 3"):
        smooth_field(2, np.random.default_rng(1))
    assert smooth_field(3, np.random.default_rng(1)).shape == (3,)
