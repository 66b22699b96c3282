"""Workloads, operations, output checks and metrics of the circfit benchmark.

Every workload is a closed loop with one caller: the next operation starts
when the previous one ends.  An operation is a fit (``run_study`` on one
replicate) or a query (one round of predictive calls on a finished fit).
Every exception an operation raises is caught, recorded with its type and
message, and counted as a failure; a result that comes back but fails its
output check is a failure too, and also marks the run as not correct.
"""

import contextlib
import os
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import circfit.model as model
import circfit.predictive as predictive
import circfit.studies as studies

import tracer as tr

# A failed operation is charged its own wall time plus this penalty.  It is
# above what any operation of the benchmark takes when it succeeds, so a
# failure always reads slower than a success and turning one into the other
# can only lower the latency metric.
FAILURE_PENALTY_S = 120.0

STUDIES = {
    "sim1": (studies.generate_sim1, studies.sim1_spec, studies.SIM1_TRUTH),
    "sim2": (studies.generate_sim2, studies.sim2_spec, studies.SIM2_TRUTH),
    "sim3": (studies.generate_sim3, studies.sim3_spec, studies.SIM3_TRUTH),
}

# ParameterRecords run_study reports per fit; a failed fit counts all of
# them as not covering the truth
INTERVALS = {"sim1": 4, "sim2": 6, "sim3": 21}

QUERY_DRAWS = 4000
QUERY_SAMPLES = 300


@dataclass(frozen=True)
class Workload:
    name: str
    study: str
    n: int
    # operations in the traced run, fixed so its counts repeat exactly
    trace_ops: int
    query: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim1-reps", "sim1", 1000, trace_ops=20),
        Workload("sim2-query", "sim2", 100, trace_ops=5, query=True),
        # runnable but not gated: a single fit's cost varies too much
        # between datasets (sim2-n200), or exceeds the time budget (sim3)
        Workload("sim2-n200", "sim2", 200, trace_ops=1),
        Workload("sim3-n100", "sim3", 100, trace_ops=1),
    )
}


def op_seed(seed, i):
    """Data seed of operation i: replicate i of a study seeded at
    1000 * seed, as ``run_study`` numbers them.  Seeds of different
    workload seeds stay apart while a run makes fewer than 1000 fits."""
    return 1000 * seed + i


def generate_inputs(workload, seed, i=0):
    """The data ``run_study`` fits for operation i (same generator use)."""
    generate, _, truth = STUDIES[workload.study]
    return generate(workload.n, truth, np.random.default_rng(op_seed(seed, i)))


# ------------------------------------------------------------- output checks


def _ordered(summary):
    return bool(
        np.all(np.asarray(summary["q025"]) <= np.asarray(summary["q50"]))
        and np.all(np.asarray(summary["q50"]) <= np.asarray(summary["q975"]))
    )


def check_fit(fit):
    """Problems with a FitResult; an empty list means it passed."""
    problems = []
    if not np.all(np.isfinite(fit.theta_mode_internal)):
        problems.append("theta mode is not finite")
    for name, h in fit.hyper_summary.items():
        if not _ordered(h):
            problems.append(f"hyper {name} quantiles are not ordered")
    weights = np.array([pt.weight for pt in fit.points])
    if abs(weights.sum() - 1.0) > 1e-9:
        problems.append(f"point weights sum to {weights.sum()!r}")
    latent = fit.latent_summary
    sd = np.asarray(latent["sd"])
    if not (np.all(np.isfinite(sd)) and np.all(sd > 0)):
        problems.append("latent sds are not finite and positive")
    if not _ordered(latent):
        problems.append("latent quantiles are not ordered")
    C = fit.model.constraints
    if C.shape[0]:
        for pt in fit.points:
            scale = 1.0 + float(np.max(np.abs(pt.approx.mode)))
            if np.max(np.abs(C @ pt.approx.mode)) > 1e-8 * scale:
                problems.append("constrained mode leaves the constraint set")
                break
    return problems


def fingerprint(fit):
    """Answers a later change must not move: recorded, not gated."""
    return {
        "theta_mode": [float(v) for v in fit.theta_mode_internal],
        "hypers": {
            name: [h["q025"], h["q50"], h["q975"]]
            for name, h in fit.hyper_summary.items()
        },
        "latent_mean_norm": float(np.linalg.norm(fit.latent_summary["mean"])),
        "latent_sd_norm": float(np.linalg.norm(fit.latent_summary["sd"])),
    }


def check_query(fit, result):
    """Problems with one round of predictive queries."""
    cpo_result, replicates, samples = result
    problems = []
    n_obs = {name: blk.size for name, blk in fit.model.blocks.items()}
    for name, b in cpo_result.blocks.items():
        if b.cpo.shape != (n_obs[name],) or not np.all(
            np.isfinite(b.log_cpo)
        ):
            problems.append(f"cpo of block {name} is not finite")
    for name, rep in replicates.items():
        draws = rep["draws"]
        if draws.shape != (QUERY_SAMPLES, n_obs[name]) or not np.all(
            np.isfinite(draws)
        ):
            problems.append(f"predictive draws of block {name} are malformed")
        elif fit.model.blocks[name].family == "lavm" and np.max(
            np.abs(draws)
        ) > np.pi:
            problems.append(f"circular draws of block {name} leave (-pi, pi]")
    if len(samples) != QUERY_SAMPLES:
        problems.append(f"{len(samples)} posterior samples, not {QUERY_SAMPLES}")
    C = fit.model.constraints
    for s in samples:
        if not np.all(np.isfinite(s.latent)) or (
            C.shape[0]
            and np.max(np.abs(C @ s.latent)) > 1e-8 * (1.0 + np.max(np.abs(s.latent)))
        ):
            problems.append("posterior sample is not finite or unconstrained")
            break
    return problems


# ------------------------------------------------------------ the operations


class FitCapture:
    """Keeps the FitResults ``run_study`` produces, by wrapping the
    ``fit_model`` name the studies module calls."""

    def __init__(self):
        self.fits = []

    def __enter__(self):
        self._original = studies.fit_model

        def capture(*args, **kwargs):
            fit = self._original(*args, **kwargs)
            self.fits.append(fit)
            return fit

        studies.fit_model = capture
        return self

    def __exit__(self, *exc):
        studies.fit_model = self._original


@dataclass
class Tally:
    """What the operations of one run did."""

    latencies: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    fits_ok: int = 0
    queries_ok: int = 0
    covered: int = 0
    intervals: int = 0
    errors: Counter = field(default_factory=Counter)
    # the first traceback of each recorded error
    tracebacks: dict = field(default_factory=dict)
    fingerprints: list = field(default_factory=list)

    def fail(self, message, wall):
        self.attempted += 1
        self.failed += 1
        self.errors[message] += 1
        self.latencies.append(wall + FAILURE_PENALTY_S)


def _attempt(call, tally):
    """(result, error or None, wall seconds); never raises.  The error
    names the exception type, its message and the line that raised it;
    its first traceback is kept in the tally."""
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # every failure is counted, whatever its type
        wall = time.perf_counter() - t0
        where = traceback.extract_tb(exc.__traceback__)[-1]
        origin = f"{os.path.basename(where.filename)}:{where.lineno}"
        error = f"{type(exc).__name__}: {exc} ({origin})"
        if error not in tally.tracebacks:
            tally.tracebacks[error] = traceback.format_exc()
        return None, error, wall
    return out, None, time.perf_counter() - t0


def fit_op(workload, seed, i, tally, capture, timed=True):
    """One replicate fit through ``run_study``; returns the FitResult or
    None.  An untimed fit (the query workload's warm-up) adds no latency
    and no throughput when it succeeds."""
    capture.fits.clear()
    result, error, wall = _attempt(
        lambda: studies.run_study(
            workload.study, n=workload.n, reps=1, seed=op_seed(seed, i)
        ),
        tally,
    )
    tally.intervals += INTERVALS[workload.study]
    if error is None:
        fit = capture.fits[-1]
        problems = check_fit(fit)
        if problems:
            tally.wrong += 1
            error = "output check: " + "; ".join(problems)
        else:
            tally.covered += sum(p.covered for p in result.records[0].parameters)
            tally.fingerprints.append(fingerprint(fit))
    if error is not None:
        tally.fail(error, wall)
        return None
    tally.attempted += 1
    if timed:
        tally.fits_ok += 1
        tally.latencies.append(wall)
    return fit


def query_op(fit, seed, i, tally):
    """cpo, posterior_predictive on every block and sample_posterior, with
    generators derived from the workload seed and the round."""

    def call():
        if fit is None:
            raise RuntimeError("no fit to query: the warm-up fit failed")
        rng = np.random.default_rng([seed, i])
        return (
            predictive.cpo(fit, n_draws=QUERY_DRAWS, rng=rng),
            {
                name: predictive.posterior_predictive(
                    fit, name, n=QUERY_SAMPLES, rng=rng
                )
                for name in fit.model.blocks
            },
            predictive.sample_posterior(fit, QUERY_SAMPLES, rng),
        )

    result, error, wall = _attempt(call, tally)
    if error is None:
        problems = check_query(fit, result)
        if problems:
            tally.wrong += 1
            error = "output check: " + "; ".join(problems)
    if error is not None:
        tally.fail(error, wall)
        return
    tally.attempted += 1
    tally.queries_ok += 1
    tally.latencies.append(wall)


def set_up(workload, seed, i):
    """Generate operation i's data and build its model, as a user of
    ``build_model`` would before fitting."""
    _, spec, _ = STUDIES[workload.study]
    return model.build_model(spec(generate_inputs(workload, seed, i)))


# ------------------------------------------------------------------- a run


def _step(workload, seed, fit, i, tally, capture):
    """One set-up sample, then operation i.  Sampling set-up before every
    operation spreads the samples over the whole run, as the operations
    are, so both see the same machine.  A set-up that raises fails the
    operation."""
    _, error, wall = _attempt(lambda: set_up(workload, seed, i), tally)
    tally.setups.append(wall)
    if error is not None:
        tally.fail(f"set-up: {error}", wall)
    elif workload.query:
        query_op(fit, seed, i, tally)
    else:
        fit_op(workload, seed, i, tally, capture)


def run(workload, seed, seconds, trace=False):
    """One benchmark run; returns (report dict, tracer or None).

    Untraced, operations run until ``seconds`` have passed.  Traced, each
    of the workload's ``trace_ops`` operations runs twice, once untraced
    and once traced, in alternating order so that warm-up favours neither;
    the per-layer metrics come from the traced runs and the tracing
    overhead from the two wall-time totals.  The query workload first fits
    its data once, untraced and untimed; if that fit fails, every query
    fails.
    """
    tally = Tally()
    report = {"workload": workload.name, "seed": seed, "trace": trace}
    tracer = tr.Tracer() if trace else None
    with FitCapture() as capture:
        fit = None
        if workload.query:
            t0 = time.perf_counter()
            fit = fit_op(workload, seed, 0, tally, capture, timed=False)
            report["warmup_s"] = time.perf_counter() - t0
        if trace:
            walls = {False: 0.0, True: 0.0}
            for i in range(workload.trace_ops):
                for traced in (False, True) if i % 2 == 0 else (True, False):
                    t0 = time.perf_counter()
                    with tracer if traced else contextlib.nullcontext():
                        _step(workload, seed, fit, i,
                              tally if traced else Tally(), capture)
                    walls[traced] += time.perf_counter() - t0
            report["untraced_s"], report["traced_s"] = walls[False], walls[True]
            timed = walls[True]
        else:
            started = time.perf_counter()
            i = 0
            while i == 0 or time.perf_counter() - started < seconds:
                _step(workload, seed, fit, i, tally, capture)
                i += 1
            timed = time.perf_counter() - started
    return _finish(report, tally, timed, workload), tracer


def _finish(report, tally, timed, workload):
    report.update(
        setup_s=statistics.median(tally.setups),
        op_s=statistics.median(tally.latencies),
        timed_s=timed,
        attempted=tally.attempted,
        failed=tally.failed,
        wrong=tally.wrong,
        fail_frac=tally.failed / tally.attempted,
        coverage_frac=tally.covered / tally.intervals if tally.intervals else 0.0,
        errors=dict(tally.errors),
        tracebacks=tally.tracebacks,
        fingerprints=tally.fingerprints,
    )
    if not report["trace"]:
        # successes per unit of timed wall; failures add time but no count
        if workload.query:
            report["queries_per_s"] = tally.queries_ok / timed
        else:
            report["fits_per_min"] = 60.0 * tally.fits_ok / timed
    return report


# ------------------------------------------------------- per-layer metrics

STAGES = ("inference.optimize_theta", "inference.explore_theta",
          "inference.latent_marginals", "inference.hyper_marginals")


def layer_metrics(spans, report):
    """Per-layer metrics of a traced run, and the self-check problems."""
    own = tr.self_times(spans)
    by_name = {}
    for idx, s in enumerate(spans):
        by_name.setdefault(s[tr.NAME], []).append(idx)

    def idxs(name):
        return by_name.get(name, [])

    def total(name):
        return float(sum(spans[i][tr.END] - spans[i][tr.START]
                         for i in idxs(name)))

    def self_s(name):
        return float(sum(own[i] for i in idxs(name)))

    out = {f"{stage}.s": total(stage) for stage in STAGES}
    lpt = idxs("inference.log_posterior_theta")
    out["inference.log_posterior_theta.calls"] = len(lpt)
    out["inference.log_posterior_theta.fail"] = sum(
        spans[i][tr.FAILED] for i in lpt
    )

    ga = idxs("inference.gaussian_approx")
    done = [i for i in ga if not spans[i][tr.FAILED]]
    iters = [spans[i][tr.DETAIL]["iterations"] for i in done]
    out["inference.gaussian_approx.calls"] = len(ga)
    out["inference.gaussian_approx.self_s"] = self_s("inference.gaussian_approx")
    out["inference.gaussian_approx.fail"] = len(ga) - len(done)
    out["inference.gaussian_approx.cold_starts"] = sum(
        spans[i][tr.DETAIL]["cold"] for i in ga
    )
    out["inference.gaussian_approx.newton_iters_mean"] = (
        float(np.mean(iters)) if iters else 0.0
    )
    out["inference.gaussian_approx.newton_iters_max"] = max(iters, default=0)

    ll = idxs("likelihoods.loglik")
    out["likelihoods.loglik.calls"] = len(ll)
    out["likelihoods.loglik.self_s"] = self_s("likelihoods.loglik")
    out["likelihoods.loglik.elements"] = sum(
        spans[i][tr.DETAIL]["elements"] for i in ll
    )
    done_set = set(done)
    in_newton = sum(
        tr.ancestor(spans, i, "inference.gaussian_approx") in done_set for i in ll
    )
    out["likelihoods.loglik.calls_per_newton_iter"] = in_newton / max(sum(iters), 1)

    for name in ("model.prior_precision", "model.block_matrix",
                 "inference.GaussianApprox.marginal_sd",
                 "inference.GaussianApprox.sample"):
        out[f"{name}.calls"] = len(idxs(name))
        out[f"{name}.self_s"] = self_s(name)
    for name in ("predictive.cpo", "predictive.posterior_predictive",
                 "predictive.sample_posterior"):
        out[f"{name}.s"] = total(name)
    out["circular.lavm_sample.self_s"] = self_s("circular.lavm_sample")
    builds = [spans[i][tr.END] - spans[i][tr.START]
              for i in idxs("model.build_model")]
    out["model.build_model.s"] = float(statistics.median(builds)) if builds else 0.0
    untraced = report.get("untraced_s", 0.0)
    out["trace_overhead_frac"] = (
        report["traced_s"] / untraced - 1.0 if untraced else 0.0
    )
    out["fail_frac"] = report["fail_frac"]
    out["coverage_frac"] = report["coverage_frac"]
    return out, self_check(spans)


def self_check(spans):
    """Every Laplace evaluation sits in a stage, every stage in a fit."""
    problems = []
    lpt = [i for i, s in enumerate(spans)
           if s[tr.NAME] == "inference.log_posterior_theta"]
    staged = sum(any(tr.ancestor(spans, i, st) >= 0 for st in STAGES) for i in lpt)
    if staged != len(lpt):
        problems.append(
            f"{len(lpt)} log_posterior_theta calls but the stages hold {staged}"
        )
    for i, s in enumerate(spans):
        if s[tr.NAME] in STAGES:
            fit = tr.ancestor(spans, i, "inference.fit_model")
            if fit < 0 or not (
                spans[fit][tr.START] <= s[tr.START] <= s[tr.END]
                <= spans[fit][tr.END]
            ):
                problems.append(f"stage span {s[tr.NAME]} is outside a fit span")
                break
    return problems
