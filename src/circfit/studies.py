"""Simulation studies: generators, model builders, and replicate runners.

Three regression studies with documented generating values (sim1 through
sim3), a wind-like forecasting setup joining a Gamma and a circular block,
and a six-dimensional correlated latent model.  Truth values live in module
constants so study output tables can be checked against them from files
alone; every generator consumes a caller-supplied generator so replicate
seeds stay explicit.

Intrinsic latent truths (the rw2-driven fields) are drawn as standardized
smooth curves rather than from the improper prior, which keeps the scale
hypers identified at 1 under the same standardization the fitted components
use.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.stats import ks_2samp

from .circular import lavm_sample
from .inference import fit_model
from .latent import pacf_to_ar2, rw2_reference_sd
from .model import (
    BlockSpec,
    ComponentSpec,
    FixedEffectSpec,
    ModelSpec,
    TermSpec,
    build_model,
)
from .predictive import posterior_predictive
from .priors import ConfigurationError, PriorSpec, partials_to_correlation

__all__ = [
    "SIM1_TRUTH",
    "SIM2_TRUTH",
    "SIM3_TRUTH",
    "WIND_TRUTH",
    "MV6_TRUTH",
    "ParameterRecord",
    "ReplicateRecord",
    "StudyResult",
    "ar2_path",
    "smooth_field",
    "generate_sim1",
    "generate_sim2",
    "generate_sim3",
    "generate_wind_like",
    "generate_mv6",
    "sim1_spec",
    "sim2_spec",
    "sim3_spec",
    "wind_spec",
    "mv6_spec",
    "mv6_recovery",
    "run_study",
    "STUDY_NAMES",
]


# ------------------------------------------------------------------ fields


def smooth_field(n, rng):
    """Exact draw from the standardized second-order random walk prior,
    conditioned on its level and trend being zero.

    Second differences are iid standard normal, so the path is a double
    cumulative sum; projecting out the constant and linear directions gives
    the conditional law.  Dividing by the reference sd, the root mean of
    those conditional variances, sqrt((n^2 - 4)(n^2 + 5) / (420 n)), matches
    the standardization applied to fitted components, keeping a unit scale
    hyper the generating truth.  Like an rw2 component it needs n >= 3.
    """
    if n < 3:
        raise ConfigurationError(f"rw2 field needs n >= 3, got {n}")
    d = rng.standard_normal(n - 2)
    w = np.concatenate([[0.0, 0.0], d]).cumsum().cumsum()
    t = np.arange(n, dtype=float)
    basis = np.stack([np.ones(n), t - t.mean()], axis=1)
    w = w - basis @ np.linalg.lstsq(basis, w, rcond=None)[0]
    return w / rw2_reference_sd(n)


def ar2_path(n, pacf1, pacf2, rng):
    """Stationary unit-marginal AR(2) sample path of length n."""
    a1, a2 = pacf_to_ar2(pacf1, pacf2)
    innov = np.sqrt((1.0 - pacf1**2) * (1.0 - pacf2**2))
    x = np.empty(n)
    x[0] = rng.standard_normal()
    if n > 1:
        # lag-1 correlation of the stationary law equals pacf1
        x[1] = pacf1 * x[0] + np.sqrt(1.0 - pacf1**2) * rng.standard_normal()
    for t in range(2, n):
        x[t] = a1 * x[t - 1] + a2 * x[t - 2] + innov * rng.standard_normal()
    return x


# ------------------------------------------- study 1: circular response


SIM1_TRUTH = {
    "beta0": 0.3,
    "beta1": 0.5,
    "beta2": -0.7,
    "kappa": 10.0,
}


def generate_sim1(n, truth, rng):
    """Circular response on two standard normal covariates."""
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    eta = truth["beta0"] + truth["beta1"] * z1 + truth["beta2"] * z2
    y = lavm_sample(rng, eta, truth["kappa"])
    return {"y": y, "z1": z1, "z2": z2}


def sim1_spec(data):
    return ModelSpec(
        blocks=(
            BlockSpec(
                "y",
                "lavm",
                data["y"],
                (
                    TermSpec("intercept", "beta0"),
                    TermSpec("fixed", "beta1", covariate="z1"),
                    TermSpec("fixed", "beta2", covariate="z2"),
                ),
                hyper="kappa",
            ),
        ),
        fixed_effects=(
            FixedEffectSpec("beta0", 1.0),
            FixedEffectSpec("beta1", 1.0),
            FixedEffectSpec("beta2", 1.0),
        ),
        hypers={"kappa": PriorSpec("pc_kappa", (0.5, 0.5))},
        covariates={"z1": data["z1"], "z2": data["z2"]},
    )


# ------------------------------------- study 2: circular covariate for y


SIM2_TRUTH = {
    "a0": 0.4,
    "a1": 1.0,
    "b0": 1.2,
    "b1": 0.6,
    "kappa": 12.0,
    "tau": 4.0,
}


def generate_sim2(n, truth, rng, field=None):
    """A standardized random-walk field drives the circular variable, whose
    whole predictor feeds the Gaussian response through the scale b1.

    Passing ``field`` redraws observations over an existing latent curve,
    which is what predictive-calibration comparisons need.
    """
    w = smooth_field(n, rng) if field is None else field
    eta_x = truth["a0"] + truth["a1"] * w
    x = lavm_sample(rng, eta_x, truth["kappa"])
    y = rng.normal(truth["b0"] + truth["b1"] * eta_x, truth["tau"] ** -0.5)
    return {"x": x, "y": y, "w": w}


def sim2_spec(data):
    n = data["x"].size
    return ModelSpec(
        blocks=(
            BlockSpec(
                "x",
                "lavm",
                data["x"],
                (
                    TermSpec("intercept", "a0"),
                    TermSpec("component", "w", scale="a1"),
                ),
                hyper="kappa",
            ),
            BlockSpec(
                "y",
                "gaussian",
                data["y"],
                (
                    TermSpec("intercept", "b0"),
                    TermSpec("shared", "x", scale="b1"),
                ),
                hyper="tau",
            ),
        ),
        components=(ComponentSpec("w", "rw2", n),),
        fixed_effects=(FixedEffectSpec("a0", 1.0), FixedEffectSpec("b0", 1.0)),
        hypers={
            "kappa": PriorSpec("pc_kappa", (0.5, 0.5)),
            "tau": PriorSpec("pc_precision", (0.5, 0.5)),
            "a1": PriorSpec("pc_scale", (0.5, 0.5)),
            "b1": PriorSpec("gaussian", (0.0, 1.0)),
        },
        covariates={},
    )


# ------------------- study 3: joint model, two circular and two linear


# the intercepts and covariate coefficients carry sd-0.001 priors, so their
# generating values have to live on that scale for coverage to be a
# meaningful question; the data-driven recovery checks are sigma_s and the
# two pacf parameters
SIM3_TRUTH = {
    "kappa1": 8.0,
    "kappa2": 15.0,
    "tau": 4.0,
    "a11": 1.0,
    "a21": 1.0,
    "sigma_s": 0.5,
    "b11": 0.7,
    "b12": -0.4,
    "b21": 0.5,
    "b22": 0.3,
    "pacf1": 0.5,
    "pacf2": -0.3,
    "a10": 0.0,
    "a20": 0.0,
    "b10": 0.0,
    "b20": 0.0,
    "alpha11": 6e-4,
    "alpha12": -3e-4,
    "alpha13": 8e-4,
    "alpha21": -5e-4,
    "alpha22": 7e-4,
    "alpha23": 2e-4,
    "beta11": 4e-4,
    "beta12": 6e-4,
    "beta13": -5e-4,
    "beta21": -2e-4,
    "beta22": 5e-4,
    "beta23": 3e-4,
}


def generate_sim3(n, truth, rng):
    w1 = smooth_field(n, rng)
    w2 = ar2_path(n, truth["pacf1"], truth["pacf2"], rng)
    s = rng.normal(0.0, truth["sigma_s"], n)
    z1 = rng.standard_normal(n)
    z2 = rng.gamma(2.0, 0.5, n)
    z3 = rng.poisson(2.0, n).astype(float)
    covs1 = (
        truth["alpha11"] * z1 + truth["alpha12"] * z2 + truth["alpha13"] * z3
    )
    covs2 = (
        truth["alpha21"] * z1 + truth["alpha22"] * z2 + truth["alpha23"] * z3
    )
    eta1 = truth["a10"] + truth["a11"] * w1 + covs1
    eta2 = truth["a20"] + truth["a21"] * w2 + covs2
    x1 = lavm_sample(rng, eta1, truth["kappa1"])
    x2 = lavm_sample(rng, eta2, truth["kappa2"])
    mean1 = (
        truth["b10"]
        + truth["b11"] * eta1
        + truth["b12"] * eta2
        + truth["beta11"] * z1
        + truth["beta12"] * z2
        + truth["beta13"] * z3
    )
    y1 = rng.normal(mean1, truth["tau"] ** -0.5)
    lograte = (
        truth["b20"]
        + truth["b21"] * eta1
        + truth["b22"] * eta2
        + truth["beta21"] * z1
        + truth["beta22"] * z2
        + truth["beta23"] * z3
        + s
    )
    y2 = rng.poisson(np.exp(lograte)).astype(float)
    return {
        "x1": x1,
        "x2": x2,
        "y1": y1,
        "y2": y2,
        "z1": z1,
        "z2": z2,
        "z3": z3,
        "w1": w1,
        "w2": w2,
    }


def sim3_spec(data):
    n = data["x1"].size

    def covariate_terms(prefix):
        return tuple(
            TermSpec("fixed", f"{prefix}{j}", covariate=f"z{j}")
            for j in (1, 2, 3)
        )

    tight = [
        FixedEffectSpec(name, 0.001)
        for name in (
            "a10",
            "a20",
            "b10",
            "b20",
            "alpha11",
            "alpha12",
            "alpha13",
            "alpha21",
            "alpha22",
            "alpha23",
            "beta11",
            "beta12",
            "beta13",
            "beta21",
            "beta22",
            "beta23",
        )
    ]
    return ModelSpec(
        blocks=(
            BlockSpec(
                "x1",
                "lavm",
                data["x1"],
                (
                    TermSpec("intercept", "a10"),
                    TermSpec("component", "w1", scale="a11"),
                )
                + covariate_terms("alpha1"),
                hyper="kappa1",
            ),
            BlockSpec(
                "x2",
                "lavm",
                data["x2"],
                (
                    TermSpec("intercept", "a20"),
                    TermSpec("component", "w2", scale="a21"),
                )
                + covariate_terms("alpha2"),
                hyper="kappa2",
            ),
            BlockSpec(
                "y1",
                "gaussian",
                data["y1"],
                (
                    TermSpec("intercept", "b10"),
                    TermSpec("shared", "x1", scale="b11"),
                    TermSpec("shared", "x2", scale="b12"),
                )
                + covariate_terms("beta1"),
                hyper="tau",
            ),
            BlockSpec(
                "y2",
                "poisson",
                data["y2"],
                (
                    TermSpec("intercept", "b20"),
                    TermSpec("shared", "x1", scale="b21"),
                    TermSpec("shared", "x2", scale="b22"),
                    TermSpec("component", "s"),
                )
                + covariate_terms("beta2"),
            ),
        ),
        components=(
            ComponentSpec("w1", "rw2", n),
            ComponentSpec(
                "w2", "ar2", n, pacf_hypers=("pacf1", "pacf2")
            ),
            ComponentSpec("s", "iid", n, precision_hyper="tau_s"),
        ),
        fixed_effects=tuple(tight),
        hypers={
            "kappa1": PriorSpec("pc_kappa", (0.5, 0.5)),
            "kappa2": PriorSpec("pc_kappa", (0.5, 0.5)),
            "tau": PriorSpec("pc_precision", (0.5, 0.5)),
            "tau_s": PriorSpec("pc_precision", (0.5, 0.5)),
            "a11": PriorSpec("pc_scale", (0.5, 0.5)),
            "a21": PriorSpec("pc_scale", (0.5, 0.5)),
            "b11": PriorSpec("gaussian", (0.0, 1.0)),
            "b12": PriorSpec("gaussian", (0.0, 1.0)),
            "b21": PriorSpec("gaussian", (0.0, 1.0)),
            "b22": PriorSpec("gaussian", (0.0, 1.0)),
            "pacf1": PriorSpec("pc_correlation", (0.5, 0.5)),
            "pacf2": PriorSpec("pc_correlation", (0.5, 0.5)),
        },
        covariates={"z1": data["z1"], "z2": data["z2"], "z3": data["z3"]},
    )


# --------------------------------------------- wind-like forecasting setup


WIND_TRUTH = {
    "a0": 0.3,
    "a1": 0.8,
    "a2": 0.6,
    "alpha": -0.3,
    "b0": 1.4,
    "b1": 0.4,
    "beta": 0.25,
    "kappa": 6.0,
    "rho": 8.0,
    "pacf1": 0.8,
    "pacf2": -0.1,
}


# hours in the daily cycle of the wind-like direction
_WIND_PERIOD = 24


def _daily_cycle():
    hours = np.arange(_WIND_PERIOD)
    c = np.sin(2.0 * np.pi * hours / _WIND_PERIOD)
    c = c + 0.4 * np.sin(4.0 * np.pi * hours / _WIND_PERIOD + 1.0)
    c = c - c.mean()
    return c / c.std()


def generate_wind_like(n, truth, rng):
    """Joint Gamma speed and circular direction series: an AR(2) path and a
    repeating daily cycle drive the direction, whose predictor is copied
    into the log mean of the speed together with a temperature-like
    covariate."""
    w = ar2_path(n, truth["pacf1"], truth["pacf2"], rng)
    w2 = _daily_cycle()[np.arange(n) % _WIND_PERIOD]
    t = np.arange(n) / _WIND_PERIOD
    z = np.sin(2.0 * np.pi * t / 15.0) + 0.5 * rng.standard_normal(n)
    z = (z - z.mean()) / z.std()
    eta_x = truth["a0"] + truth["a1"] * w + truth["a2"] * w2 + truth["alpha"] * z
    x = lavm_sample(rng, eta_x, truth["kappa"])
    eta_y = truth["b0"] + truth["b1"] * eta_x + truth["beta"] * z
    y = rng.gamma(truth["rho"], np.exp(eta_y) / truth["rho"])
    return {"x": x, "y": y, "z": z, "w": w, "w2": w2}


def wind_spec(data):
    n = data["x"].size
    hypers = {
        "kappa": PriorSpec("pc_kappa", (0.5, 0.99)),
        "rho": PriorSpec("log_gamma", (1.0, 0.01)),
        "a1": PriorSpec("pc_scale", (0.5, 0.5)),
        "a2": PriorSpec("pc_scale", (0.5, 0.5)),
        "b1": PriorSpec("gaussian", (0.0, 1.0)),
        "pacf1": PriorSpec("fixed", (WIND_TRUTH["pacf1"],)),
        "pacf2": PriorSpec("fixed", (WIND_TRUTH["pacf2"],)),
    }
    return ModelSpec(
        blocks=(
            BlockSpec(
                "x",
                "lavm",
                data["x"],
                (
                    TermSpec("intercept", "a0"),
                    TermSpec("component", "w", scale="a1"),
                    TermSpec("component", "w2", scale="a2"),
                    TermSpec("fixed", "alpha", covariate="z"),
                ),
                hyper="kappa",
            ),
            BlockSpec(
                "y",
                "gamma",
                data["y"],
                (
                    TermSpec("intercept", "b0"),
                    TermSpec("shared", "x", scale="b1"),
                    TermSpec("fixed", "beta", covariate="z"),
                ),
                hyper="rho",
            ),
        ),
        components=(
            ComponentSpec("w", "ar2", n, pacf_hypers=("pacf1", "pacf2")),
            ComponentSpec("w2", "cyclic_rw2", n, period=_WIND_PERIOD),
        ),
        fixed_effects=(
            FixedEffectSpec("a0", 1.0),
            FixedEffectSpec("b0", 1.0),
            FixedEffectSpec("alpha", 1.0),
            FixedEffectSpec("beta", 1.0),
        ),
        hypers=hypers,
        covariates={"z": data["z"]},
    )


# -------------------------------------- six-dimensional correlated effects


MV6_TRUTH = {
    "sigma": (0.8, 1.2, 0.5, 1.0, 1.5, 0.7),
    "alpha": (0.3, -0.5, 0.8),
    "beta": (1.0, -0.7, 0.4),
    "obs_precision": float(np.exp(15.0)),
}
MV6_TRUTH["R"] = 0.5 ** np.abs(
    np.arange(6)[:, None] - np.arange(6)[None, :]
)


def generate_mv6(n, truth, rng):
    """n independent 6-dimensional latent draws; three circular and three
    Gaussian responses observe one coordinate each, almost noiselessly."""
    sig = np.asarray(truth["sigma"], dtype=float)
    cov = truth["R"] * np.outer(sig, sig)
    W = rng.multivariate_normal(np.zeros(6), cov, size=n, method="cholesky")
    prec = truth["obs_precision"]
    data = {"W": W}
    for j in range(3):
        data[f"x{j + 1}"] = lavm_sample(rng, truth["alpha"][j] + W[:, j], prec)
        data[f"y{j + 1}"] = rng.normal(
            truth["beta"][j] + W[:, 3 + j], prec**-0.5
        )
    return data


def mv6_spec(data):
    n = data["x1"].size
    blocks = []
    for j in range(3):
        blocks.append(
            BlockSpec(
                f"x{j + 1}",
                "lavm",
                data[f"x{j + 1}"],
                (
                    TermSpec("intercept", f"alpha{j + 1}"),
                    TermSpec(
                        "component", "W", indices=tuple(range(j, 6 * n, 6))
                    ),
                ),
                hyper=f"kappa{j + 1}",
            )
        )
    for j in range(3):
        blocks.append(
            BlockSpec(
                f"y{j + 1}",
                "gaussian",
                data[f"y{j + 1}"],
                (
                    TermSpec("intercept", f"beta{j + 1}"),
                    TermSpec(
                        "component",
                        "W",
                        indices=tuple(range(3 + j, 6 * n, 6)),
                    ),
                ),
                hyper=f"tau{j + 1}",
            )
        )
    hypers = {"R": PriorSpec("lkj", (5.0,))}
    for j in range(6):
        hypers[f"prec{j + 1}"] = PriorSpec("pc_precision", (1.0, 0.5))
    for j in range(3):
        hypers[f"kappa{j + 1}"] = PriorSpec(
            "fixed", (MV6_TRUTH["obs_precision"],)
        )
        hypers[f"tau{j + 1}"] = PriorSpec(
            "fixed", (MV6_TRUTH["obs_precision"],)
        )
    return ModelSpec(
        blocks=tuple(blocks),
        components=(
            ComponentSpec(
                "W",
                "mv_iid",
                n,
                block_dim=6,
                sigma_hypers=tuple(f"prec{j + 1}" for j in range(6)),
                correlation_hyper="R",
            ),
        ),
        fixed_effects=tuple(
            FixedEffectSpec(name, 1.0)
            for name in ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3")
        ),
        hypers=hypers,
    )


def mv6_recovery(fit):
    """Posterior-mode marginal sds and correlation matrix of the
    six-dimensional latent process."""
    theta = fit.theta_mode
    sig = np.array([theta[f"prec{j + 1}"] ** -0.5 for j in range(6)])
    gam = np.array([theta[f"R[{k}]"] for k in range(15)])
    return sig, partials_to_correlation(gam, 6)


# --------------------------------------------------------- study running


@dataclass(frozen=True)
class ParameterRecord:
    name: str
    truth: float
    estimate: float
    lower: float
    upper: float

    @property
    def covered(self) -> bool:
        return self.lower <= self.truth <= self.upper


@dataclass(frozen=True)
class ReplicateRecord:
    replicate: int
    seed: int
    parameters: tuple
    pvalues: dict
    seconds: float


@dataclass(frozen=True)
class StudyResult:
    study: str
    n: int
    reps: int
    seed: int
    records: tuple

    def coverage(self) -> dict:
        """Parameter name -> (number of replicates covering, replicates)."""
        out = {}
        for rec in self.records:
            for p in rec.parameters:
                got = out.get(p.name, 0)
                out[p.name] = got + int(p.covered)
        return {k: (v, len(self.records)) for k, v in out.items()}


def _records(fit, design):
    """A replicate's ParameterRecords against the study's truth, in the
    order of its design: each latent effect's posterior mean and 95%
    interval, each standard deviation read from a precision hyper as
    precision^(-1/2) (a decreasing map, so its interval ends swap), then
    each hyper's posterior mode and 95% interval."""
    s, h = fit.latent_summary, fit.hyper_summary
    nodes = fit.model.effect_nodes
    rows = [
        (name, s["mean"][nodes[name]], s["q025"][nodes[name]],
         s["q975"][nodes[name]])
        for name in design["latents"]
    ]
    rows += [
        (name, h[p]["mode"] ** -0.5, h[p]["q975"] ** -0.5,
         h[p]["q025"] ** -0.5)
        for name, p in design["sds"]
    ]
    rows += [
        (name, h[name]["mode"], h[name]["q025"], h[name]["q975"])
        for name in design["hypers"]
    ]
    return tuple(
        ParameterRecord(
            name, design["truth"][name], float(est), float(lo), float(hi)
        )
        for name, est, lo, hi in rows
    )


def _sim2_pvalues(fit, truth, rng, data):
    # fresh observations over the same latent curve: the pooled predictive
    # conditions on this replicate's field, so the comparison must too
    fresh = generate_sim2(data["w"].size, truth, rng, field=data["w"])
    out = {}
    for block in ("x", "y"):
        draws = posterior_predictive(fit, block, n=40, rng=rng)["draws"]
        out[block] = float(ks_2samp(draws.ravel(), fresh[block]).pvalue)
    return out


# each study's generator, model and replicate summary: the names of the
# latent effects, of the standard deviations read from precisions
# (name, precision) and of the hypers it records, in record order
_STUDIES = {
    "sim1": {
        "truth": SIM1_TRUTH,
        "generate": generate_sim1,
        "spec": sim1_spec,
        "latents": ("beta0", "beta1", "beta2"),
        "sds": (),
        "hypers": ("kappa",),
        "pvalues": None,
        "default_n": 1000,
    },
    "sim2": {
        "truth": SIM2_TRUTH,
        "generate": generate_sim2,
        "spec": sim2_spec,
        "latents": ("a0", "b0"),
        "sds": (),
        "hypers": ("a1", "b1", "kappa", "tau"),
        "pvalues": _sim2_pvalues,
        "default_n": 1000,
    },
    "sim3": {
        "truth": SIM3_TRUTH,
        "generate": generate_sim3,
        "spec": sim3_spec,
        "latents": (
            "alpha11", "alpha12", "alpha13", "alpha21", "alpha22", "alpha23",
            "beta11", "beta12", "beta13", "beta21", "beta22", "beta23",
        ),
        "sds": (("sigma_s", "tau_s"),),
        "hypers": (
            "pacf1", "pacf2", "a11", "a21", "b11", "b12", "b21", "b22",
        ),
        "pvalues": None,
        "default_n": 300,
    },
}

STUDY_NAMES = tuple(_STUDIES)


def _run_replicate(study, n, rep, base_seed):
    design = _STUDIES[study]
    truth = design["truth"]
    seed = base_seed + rep
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    data = design["generate"](n, truth, rng)
    fit = fit_model(build_model(design["spec"](data)))
    params = _records(fit, design)
    pvalues = {}
    if design["pvalues"] is not None:
        pvalues = design["pvalues"](fit, truth, rng, data)
    return ReplicateRecord(
        replicate=rep,
        seed=seed,
        parameters=params,
        pvalues=pvalues,
        seconds=time.perf_counter() - started,
    )


def run_study(study, n=None, reps=100, seed=1):
    """Run one simulation study: reps independent datasets, one fit each.

    Each dataset is drawn from the study's truth and fitted by
    ``fit_model`` with no setting, so a replicate is a function of the
    study, n and its seed alone.  Replicate r uses seed + r, so any single
    replicate can be reproduced in isolation.
    """
    if study not in _STUDIES:
        raise ConfigurationError(
            f"unknown study {study!r}, expected one of {sorted(_STUDIES)}"
        )
    design = _STUDIES[study]
    if n is None:
        n = design["default_n"]
    for name, value in (("n", n), ("reps", reps), ("seed", seed)):
        if not isinstance(value, (int, np.integer)):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if n < 1:
        raise ConfigurationError(f"need at least one observation, got {n}")
    if reps < 1:
        raise ConfigurationError(f"need at least one replicate, got {reps}")
    if seed < 0:
        raise ConfigurationError(f"need a non-negative seed, got {seed}")

    records = [_run_replicate(study, n, r, seed) for r in range(reps)]
    return StudyResult(
        study=study, n=n, reps=reps, seed=seed, records=tuple(records)
    )
