"""Tests of the benchmark harness itself (not of circfit).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import circfit.studies as studies  # noqa: E402
import harness  # noqa: E402
import tracer as tr  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

SIM1 = harness.WORKLOADS["sim1-reps"]


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_seed_decides_the_generated_inputs(name):
    w = harness.WORKLOADS[name]
    first, again, other = (
        harness.generate_inputs(w, seed) for seed in (1, 1, 2)
    )
    assert first.keys() == other.keys()
    for key in first:
        np.testing.assert_array_equal(first[key], again[key])
    assert any(not np.array_equal(first[k], other[k]) for k in first)


@pytest.mark.parametrize("exc", [NameError("name 'x' is not defined"),
                                 ZeroDivisionError("stub")])
def test_a_fit_that_raises_is_counted_as_failed(monkeypatch, exc):
    def raising_fit(model, **kwargs):
        raise exc

    monkeypatch.setattr(studies, "fit_model", raising_fit)
    report, _ = harness.run(SIM1, seed=3, seconds=0.2)
    assert report["attempted"] >= 1
    assert report["failed"] == report["attempted"]
    assert report["wrong"] == 0
    assert sum(report["errors"].values()) == report["attempted"]
    assert all(m.startswith(type(exc).__name__) for m in report["errors"])
    assert report["fail_frac"] == 1.0
    assert report["coverage_frac"] == 0.0
    assert report["fits_per_min"] == 0.0
    assert report["op_s"] > harness.FAILURE_PENALTY_S


def test_a_set_up_that_raises_fails_its_operation(monkeypatch):
    def broken_build(spec):
        raise ValueError("bad spec")

    monkeypatch.setattr(harness.model, "build_model", broken_build)
    report, _ = harness.run(SIM1, seed=3, seconds=0.2)
    assert report["attempted"] >= 1
    assert report["failed"] == report["attempted"]
    assert list(report["errors"]) and all(
        m.startswith("set-up: ValueError: bad spec") for m in report["errors"]
    )


def _stub_fit(q025, q975):
    """A fit-shaped result whose only defect can be its hyper quantiles."""

    def fit(model, **kwargs):
        n = model.latent_dim
        ones = np.ones(n)
        latent = {"mean": 0 * ones, "sd": ones, "q025": -2 * ones,
                  "q50": 0 * ones, "q975": 2 * ones}
        kappa = {"mode": 2.0, "mean": 2.0, "q025": q025, "q50": 2.0,
                 "q975": q975}
        return SimpleNamespace(
            model=model,
            points=[SimpleNamespace(weight=1.0,
                                    approx=SimpleNamespace(mode=np.zeros(n)))],
            theta_mode_internal=np.zeros(model.hyper_dim),
            hyper_summary={"kappa": kappa},
            latent_summary=latent,
        )

    return fit


def test_unordered_quantiles_fail_the_output_check(monkeypatch):
    monkeypatch.setattr(studies, "fit_model", _stub_fit(1.0, 3.0))
    good, _ = harness.run(SIM1, seed=3, seconds=0.2)
    assert good["failed"] == 0 and good["wrong"] == 0

    monkeypatch.setattr(studies, "fit_model", _stub_fit(3.0, 1.0))
    bad, _ = harness.run(SIM1, seed=3, seconds=0.2)
    assert bad["attempted"] >= 1
    assert bad["failed"] == bad["wrong"] == bad["attempted"]
    assert list(bad["errors"]) == [
        "output check: hyper kappa quantiles are not ordered"
    ]


def _spans(*rows):
    return [[name, start, end, parent, False, None]
            for name, start, end, parent in rows]


def test_self_check_finds_stray_evaluations_and_stages():
    fit, opt, lpt = ("inference.fit_model", "inference.optimize_theta",
                     "inference.log_posterior_theta")
    nested = _spans((fit, 0, 10, -1), (opt, 1, 5, 0), (lpt, 2, 3, 1))
    assert harness.self_check(nested) == []
    assert tr.self_times(nested) == [6, 3, 1]

    stray = _spans((fit, 0, 10, -1), (opt, 1, 5, 0), (lpt, 6, 7, 0))
    assert "log_posterior_theta" in harness.self_check(stray)[0]
    outside = _spans((opt, 1, 5, -1), (lpt, 2, 3, 0))
    assert "outside a fit span" in harness.self_check(outside)[0]


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _run_cli("--workload", SIM1.name, "--seed", "1", "--seconds", "1",
                    "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in SPEC[key]]
    assert list(result["metrics"]) == names
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in lines[:-1])


def test_benchmark_workloads_exist():
    for w in SPEC["workloads"]:
        assert w["name"] in harness.WORKLOADS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run_cli("--workload", SIM1.name, "--seed", "1", "--seconds", "1",
                    cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
