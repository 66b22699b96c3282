"""Tests for the package metadata in pyproject.toml, the console script and
the names the benchmark's tracer wraps."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circfit

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_every_console_script_target_imports():
    # tomllib is in the standard library from Python 3.11 on
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name!r} is not callable"


def test_console_script_prints_the_study_result_as_json():
    # python -m runs the same main as the console script entry point
    src = str(Path(circfit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-m", "circfit", "sim1", "--n", "200", "--reps", "2",
         "--seed", "3"],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    ).stdout
    result = json.loads(out)
    assert (result["study"], result["n"], result["reps"]) == ("sim1", 200, 2)
    assert [r["seed"] for r in result["records"]] == [3, 4]
    for record in result["records"]:
        names = [p["name"] for p in record["parameters"]]
        assert names == ["beta0", "beta1", "beta2", "kappa"]
        for p in record["parameters"]:
            assert p["lower"] <= p["estimate"] <= p["upper"]
            assert all(math.isfinite(p[k]) for k in ("lower", "upper"))


@pytest.mark.parametrize(
    "args, message",
    [
        (("sim1", "--reps", "0"), "need at least one replicate, got 0"),
        (("sim1", "--n", "0", "--reps", "1"),
         "need at least one observation, got 0"),
        (("sim1", "--n", "-1", "--reps", "1"),
         "need at least one observation, got -1"),
        (("sim1", "--n", "50", "--reps", "1", "--seed", "-1"),
         "need a non-negative seed, got -1"),
    ],
)
def test_console_script_reports_a_bad_study_setup_as_a_usage_error(
    args, message
):
    # argparse's own status and format: no traceback, one error line
    src = str(Path(circfit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-m", "circfit", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert out.stderr.splitlines()[-1] == f"circfit: error: {message}"


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # the tracer replaces these attributes by name: deleting one breaks
    # the traced benchmark runs, so it fails here as well
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for owner, attr, span, _ in tracer.TARGETS:
        assert callable(getattr(owner, attr)), span
