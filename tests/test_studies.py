"""Seeded smoke tests for the simulation studies.

Each study is run or built at a small size: replicate records must not
depend on the thread count, and the coupled studies must build the latent
dimensions their specifications imply.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

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


def _without_timing(record):
    return dataclasses.replace(record, seconds=0.0)


def test_threads_reproduce_sequential_replicates():
    sequential = run_study("sim1", n=300, reps=2, seed=7, threads=1)
    threaded = run_study("sim1", n=300, reps=2, seed=7, threads=2)
    assert [_without_timing(r) for r in sequential.records] == [
        _without_timing(r) for r in threaded.records
    ]
    assert [r.seed for r in sequential.records] == [7, 8]
    coverage = sequential.coverage()
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
