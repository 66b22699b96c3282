"""Seeded smoke tests for the simulation studies.

Each study is run or built at a small size: replicate records must not
depend on the thread count, and the coupled studies must build the latent
dimensions their specifications imply.
"""

import dataclasses

import numpy as np
import pytest

from circfit.model import build_model
from circfit.priors import ConfigurationError
from circfit.studies import (
    SIM2_TRUTH,
    SIM3_TRUTH,
    generate_sim2,
    generate_sim3,
    run_study,
    sim2_spec,
    sim3_spec,
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


def test_unknown_study_and_empty_run_are_rejected():
    with pytest.raises(ConfigurationError, match="unknown study"):
        run_study("sim9")
    with pytest.raises(ConfigurationError, match="at least one replicate"):
        run_study("sim1", n=300, reps=0)
