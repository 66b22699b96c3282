"""Posterior simulation, predictive distributions, rolling forecasts and
leave-one-out metrics.

Everything here consumes a finished FitResult: hyper vectors are drawn from
the exploration weights, latent vectors from the matching conditional
Gaussians, and responses from the block families.  Predictors are summed
from the assembled term records by ``model.terms_predictor``, at new inputs
from copies holding ``model.term_design``'s nodes and coefficients; the
fixed-effect part of a forecast comes from ``term_design`` too.  Forecasting
extends the latent components past the fitted range (ar2 by its exact
conditional given the last two states, cyclic components by indexing modulo
their period, iid effects by fresh draws) and composes predictors from
whatever future covariates the task declares as observed.  A component term
with an explicit index map cannot be forecast: the map says nothing about
future positions.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.signal import fftconvolve

from .circular import lavm_sample
from .latent import pacf_to_ar2
# loglik is not called here since cpo reads the value alone, but the
# perfbench tracer wraps the name predictive.loglik
from .likelihoods import _log_density, loglik  # noqa: F401
from .model import term_design, terms_predictor
from .priors import ConfigurationError

__all__ = [
    "PosteriorSample",
    "ForecastTask",
    "ForecastResult",
    "BlockCpo",
    "CpoResult",
    "sample_posterior",
    "posterior_predictive",
    "forecast",
    "cpo",
]


@dataclass
class PosteriorSample:
    """One joint draw: hyper point, latent vector and derived predictors."""

    theta_internal: np.ndarray
    theta: dict
    latent: np.ndarray
    predictors: dict


@dataclass(frozen=True)
class ForecastTask:
    """A rolling multi-step forecasting request.

    ``origins`` are time indices; each origin t produces forecasts for steps
    t+1 .. t+horizon.  ``future_covariates`` lists the inputs assumed
    observed over the forecast range, each as an array indexed by absolute
    time; covariates not listed fall back to their fitted values and run out
    at the end of the sample.
    """

    horizon: int
    origins: tuple
    future_covariates: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigurationError(
                f"forecast horizon must be at least 1, got {self.horizon}"
            )
        origins = tuple(int(t) for t in self.origins)
        if not origins:
            raise ConfigurationError("forecast needs at least one origin")
        if min(origins) < 1:
            raise ConfigurationError(
                "forecast origins must leave at least two states behind them"
            )
        object.__setattr__(self, "origins", origins)
        object.__setattr__(
            self,
            "future_covariates",
            {k: np.asarray(v, dtype=float) for k, v in self.future_covariates.items()},
        )


@dataclass
class ForecastResult:
    """Per-block forecast summaries, arrays shaped (origins, horizon)."""

    origins: tuple
    horizon: int
    blocks: dict
    n_draws: int


@dataclass
class BlockCpo:
    cpo: np.ndarray
    log_cpo: np.ndarray
    ess: np.ndarray
    flagged: np.ndarray
    gm_cpo: float
    looic: float


@dataclass
class CpoResult:
    blocks: dict
    joint: Optional[BlockCpo]
    joint_blocks: Optional[tuple]
    n_draws: int


def _check_draw_count(name, n, least=1):
    if n < least:
        raise ConfigurationError(f"{name} must be at least {least}, got {n}")


def _point_batches(fit, n, rng):
    """Allocate n joint draws over the exploration points by weight and
    return (theta_internal, theta, latent matrix) per visited point."""
    weights = np.array([pt.weight for pt in fit.points])
    counts = rng.multinomial(n, weights / weights.sum())
    batches = []
    for pt, count in zip(fit.points, counts):
        if count == 0:
            continue
        theta = fit.model.theta_natural(pt.theta_internal)
        batches.append((pt.theta_internal, theta, pt.approx.sample(rng, count)))
    return batches


def sample_posterior(fit, n, rng):
    """Draw n joint posterior samples, deterministic for a given generator."""
    _check_draw_count("n", n, least=0)
    model = fit.model
    out = []
    for theta_internal, theta, latents in _point_batches(fit, n, rng):
        etas = {
            name: model.predictor(name, latents, theta)
            for name in model.blocks
        }
        for i, w in enumerate(latents):
            out.append(
                PosteriorSample(
                    theta_internal=theta_internal,
                    theta=theta,
                    latent=w,
                    predictors={name: eta[i] for name, eta in etas.items()},
                )
            )
    return out


def _draw_responses(rng, family, eta, hyper):
    if family == "gaussian":
        return rng.normal(eta, hyper**-0.5)
    if family == "poisson":
        return rng.poisson(np.exp(eta)).astype(float)
    if family == "gamma":
        return rng.gamma(hyper, np.exp(eta) / hyper)
    if family == "lavm":
        return lavm_sample(rng, eta, hyper)
    raise ConfigurationError(f"unknown likelihood family {family!r}")


def _scott_bandwidth(data):
    """Scott's rule h = sd(ddof=1) * N^(-1/5), the bandwidth gaussian_kde
    uses."""
    return float(np.std(data, ddof=1)) * data.size**-0.2


def _binned_kde(data, grid):
    """Gaussian kernel density of `data` at the equispaced `grid`.

    The data are linearly binned onto a lattice anchored on grid[0] whose
    step divides the grid step and is at most h/256, so every grid point is
    a lattice node; one FFT convolution with the kernel truncated at +-9h
    gives the density at every node.
    """
    N = data.size
    h = _scott_bandwidth(data)
    g = grid[1] - grid[0]
    r = int(np.ceil(256.0 * g / h))
    delta = g / r
    t = (data - grid[0]) / delta
    k = np.floor(t)
    frac = t - k
    k0 = int(min(k.min(), 0.0))
    k = k.astype(np.intp) - k0
    size = max(int(k.max()) + 2, (grid.size - 1) * r - k0 + 1)
    counts = np.bincount(k, 1.0 - frac, size) + np.bincount(k + 1, frac, size)
    half = int(9.0 * h / delta)
    z = np.arange(-half, half + 1) * (delta / h)
    kernel = np.exp(-0.5 * z * z) / (N * h * np.sqrt(2.0 * np.pi))
    dens = fftconvolve(counts, kernel)
    # full convolution: lattice node j sits at output index j + half
    return dens[np.arange(grid.size) * r - k0 + half]


def _density_summary(draws, circular, bins=60, grid_size=257):
    pooled = np.asarray(draws, dtype=float).ravel()
    if circular:
        lo, hi = -np.pi, np.pi
        grid = np.linspace(lo, hi, grid_size)
        padded = np.concatenate(
            [pooled - 2.0 * np.pi, pooled, pooled + 2.0 * np.pi]
        )
        dens = 3.0 * _binned_kde(padded, grid)
    else:
        lo, hi = float(pooled.min()), float(pooled.max())
        span = hi - lo
        if not span > 1e-12:
            # gaussian_kde raises the same for a zero covariance
            raise np.linalg.LinAlgError("predictive draws have no spread")
        grid = np.linspace(lo - 0.1 * span, hi + 0.1 * span, grid_size)
        dens = _binned_kde(pooled, grid)
    hist, edges = np.histogram(
        pooled, bins=bins, range=(lo, hi), density=True
    )
    return {
        "hist_edges": edges,
        "hist_density": hist,
        "grid": grid,
        "density": dens,
    }


def posterior_predictive(fit, block, new_inputs=None, n=300, rng=None):
    """Simulated response distribution for one block.

    new_inputs: None replicates the fitted observations; otherwise a dict
    with "size" plus "covariates" and "indices" entries as needed by the
    block's terms.  Returns the draw matrix (one row per posterior sample)
    together with histogram and density-curve series.

    The density curve is a Gaussian kernel estimate on 257 grid points
    (over (-pi, pi] for circular blocks, from three 2*pi-shifted copies of
    the draws so it wraps, times 3).  Its bandwidth is Scott's rule, h =
    sd(ddof=1) * N^(-1/5) over the N values the kernel sums, as in
    scipy.stats.gaussian_kde.  It is computed by linear binning onto a
    lattice of step at most h/256 and one FFT convolution, within 1e-5 of
    its peak of the direct sum.  Since range^2 <= 2(N-1) sd^2 the lattice
    has at most 256 * 1.2 * sqrt(2(N-1)) * N^(1/5) + 770 nodes.  Linear
    draws spanning at most 1e-12 raise numpy.linalg.LinAlgError.
    """
    _check_draw_count("n", n)
    if rng is None:
        rng = np.random.default_rng(0)
    model = fit.model
    blk = model.blocks[block]
    terms = blk.terms
    m = blk.size
    if new_inputs is not None:
        m = int(new_inputs["size"])
        covariates = new_inputs.get("covariates") or {}
        indices = new_inputs.get("indices") or {}
        terms = []
        for t in blk.terms:
            nodes, coef = term_design(
                model, block, t.spec, m, covariates, indices
            )
            terms.append(replace(t, nodes=nodes, coef=coef))
    draws = np.empty((n, m))
    row = 0
    for _, theta, latents in _point_batches(fit, n, rng):
        eta = terms_predictor(terms, latents, theta)
        hyper = theta[blk.hyper] if blk.hyper else None
        draws[row : row + eta.shape[0]] = _draw_responses(
            rng, blk.family, eta, hyper
        )
        row += eta.shape[0]
    summary = _density_summary(draws, circular=blk.family == "lavm")
    summary["draws"] = draws
    return summary


def _extend_component(model, comp, theta, w_batch, t0, horizon, rng):
    """Component values at absolute times t0+1 .. t0+horizon, one row per
    draw.  Cyclic components repeat their fitted cycle; iid effects are
    exchangeable so future ones are fresh; ar2 runs its conditional
    recursion forward from the last state at or before the origin."""
    off = model.comp_offsets[comp.name]
    S = w_batch.shape[0]
    steps = t0 + 1 + np.arange(horizon)
    if comp.kind == "cyclic_rw2":
        return w_batch[:, off + steps % comp.period]
    tau_c = theta[comp.precision_hyper] if comp.precision_hyper else 1.0
    if comp.kind == "iid":
        return rng.normal(0.0, tau_c**-0.5, (S, horizon))
    if comp.kind == "ar2":
        p1 = theta[comp.pacf_hypers[0]]
        p2 = theta[comp.pacf_hypers[1]]
        a1, a2 = pacf_to_ar2(p1, p2)
        innov_sd = np.sqrt((1.0 - p1 * p1) * (1.0 - p2 * p2) / tau_c)
        start = min(t0, comp.size - 1)
        prev = w_batch[:, off + start].copy()
        prev2 = w_batch[:, off + start - 1].copy()
        out = np.empty((S, horizon))
        for t in range(start + 1, t0 + horizon + 1):
            cur = a1 * prev + a2 * prev2
            cur += innov_sd * rng.standard_normal(S)
            prev2, prev = prev, cur
            if t > t0:
                out[:, t - t0 - 1] = cur
        return out
    raise ConfigurationError(
        f"component {comp.name!r} ({comp.kind}) cannot be extended past "
        "the fitted range"
    )


def _future_covariate(model, task, name, steps):
    fut = task.future_covariates.get(name)
    if fut is not None:
        if steps.max() >= fut.size:
            raise ConfigurationError(
                f"covariate {name!r} runs out at index {fut.size - 1}, "
                f"forecast needs index {steps.max()}"
            )
        return fut[steps]
    z = model.spec.covariates[name]
    if steps.max() >= z.size:
        raise ConfigurationError(
            f"forecasting needs future values of covariate {name!r} "
            f"(have {z.size}, need index {steps.max()})"
        )
    return z[steps]


def forecast(fit, task, rng=None, n_draws=300):
    """Rolling forecasts: per block, per origin, per step predictive means
    and central 95% intervals.  Draws are coherent across blocks within each
    posterior sample, so shared latent paths transfer between responses."""
    _check_draw_count("n_draws", n_draws)
    if rng is None:
        rng = np.random.default_rng(0)
    model = fit.model
    origins = task.origins
    H = task.horizon

    needed, covariates = set(), set()
    for name, blk in model.blocks.items():
        for t in blk.terms:
            if t.spec.kind == "fixed":
                covariates.add(t.spec.covariate)
            if t.spec.kind != "component":
                continue
            if t.spec.indices is not None:
                raise ConfigurationError(
                    f"block {name!r} maps component {t.spec.ref!r} through "
                    "explicit indices; its future positions are undefined"
                )
            needed.add(t.spec.ref)

    draws = {
        name: np.empty((n_draws, len(origins), H)) for name in model.blocks
    }
    row = 0
    for _, theta, latents in _point_batches(fit, n_draws, rng):
        S = latents.shape[0]
        for oi, t0 in enumerate(origins):
            ext = {
                cname: _extend_component(
                    model, model.components[cname], theta, latents, t0, H, rng
                )
                for cname in sorted(needed)
            }
            steps = t0 + 1 + np.arange(H)
            future = {
                c: _future_covariate(model, task, c, steps)
                for c in sorted(covariates)
            }
            for name, blk in model.blocks.items():
                eta = np.zeros((S, H))
                for t in blk.terms:
                    if t.spec.kind == "component":
                        eta += t.factor(theta) * ext[t.spec.ref]
                    else:
                        nodes, coef = term_design(
                            model, name, t.spec, H, future, {}
                        )
                        eta += t.factor(theta) * latents[:, nodes] * coef
                hyper = theta[blk.hyper] if blk.hyper else None
                draws[name][row : row + S, oi] = _draw_responses(
                    rng, blk.family, eta, hyper
                )
        row += S

    blocks = {}
    for name, blk in model.blocks.items():
        d = draws[name]
        if blk.family == "lavm":
            mean = np.arctan2(
                np.mean(np.sin(d), axis=0), np.mean(np.cos(d), axis=0)
            )
        else:
            mean = np.mean(d, axis=0)
        q = np.quantile(d, [0.025, 0.975], axis=0)
        blocks[name] = {"mean": mean, "q025": q[0], "q975": q[1]}
    return ForecastResult(
        origins=origins, horizon=H, blocks=blocks, n_draws=n_draws
    )


def _harmonic_cpo(logu):
    """CPO from log importance weights (draws, observations): truncate at
    the 99.9th percentile per observation, then invert the weight mean.

    The weights are copied once into a Fortran-ordered work array, so each
    observation's draws are contiguous whatever the layout of ``logu``.
    The cap is numpy's ``linear`` quantile from one select: a partition at
    k = floor((S - 1) * 0.999) along the draws, the smallest entry above k
    as the upper neighbour, and numpy's interpolation between the two,
    its ``t >= 0.5`` branch included.  The truncation, exp and both sums
    then run in place on the work array.
    """
    S = logu.shape[0]
    v = (S - 1) * 0.999
    if v >= S - 1:
        # S = 1: numpy takes the last order statistic with t = v + 1
        k, t = S - 1, v + 1.0
    else:
        k = math.floor(v)
        t = v - k
    work = np.array(logu, order="F")
    work.partition(k, axis=0)
    lower = work[k]
    upper = work[k + 1 :].min(axis=0) if k + 1 < S else lower
    diff = upper - lower
    if t >= 0.5:
        cap = upper - diff * (1.0 - t)
    else:
        cap = lower + diff * t
    # the cap lies between two order statistics, so it is also the largest
    # truncated weight
    np.minimum(work, cap, out=work)
    work -= cap
    np.exp(work, out=work)
    s1 = work.sum(axis=0)
    work *= work
    s2 = work.sum(axis=0)
    log_cpo = np.log(S) - cap - np.log(s1)
    ess = s1 * s1 / s2
    flagged = ess < 10.0
    return BlockCpo(
        cpo=np.exp(log_cpo),
        log_cpo=log_cpo,
        ess=ess,
        flagged=flagged,
        gm_cpo=float(np.exp(np.mean(log_cpo))),
        looic=float(-2.0 * np.sum(log_cpo)),
    )


def cpo(fit, n_draws=4000, rng=None, joint=None):
    """Leave-one-out metrics for every block, via importance weighting of
    posterior draws with weights proportional to 1/p(y_i | eta_i, theta).

    joint: optional pair of two different block names whose observations
    leave together; their weights multiply observation-wise.  Observations
    whose weight effective sample size falls below 10 are flagged.

    The weights read only log p(y_i | eta_i, theta), from
    ``likelihoods._log_density``: no derivative in eta is computed.  Each
    block's log weights -log p fill one preallocated (n_draws,
    observations) array in Fortran order, each exploration point's draws
    writing their own rows; the predictors of the sampler's draws keep
    one contiguous column per observation, so the weights are computed
    and stored column by column.
    """
    _check_draw_count("n_draws", n_draws)
    if rng is None:
        rng = np.random.default_rng(0)
    model = fit.model
    if joint is not None:
        a, b = joint
        for name in joint:
            if name not in model.blocks:
                raise ConfigurationError(
                    f"joint leave-one-out names unknown block {name!r}"
                )
        if a == b:
            raise ConfigurationError(
                f"joint leave-one-out names block {a!r} twice"
            )
        if model.blocks[a].size != model.blocks[b].size:
            raise ConfigurationError(
                f"joint leave-one-out needs matching block sizes, got "
                f"{model.blocks[a].size} and {model.blocks[b].size}"
            )
    responses = model.structure.responses
    logu = {
        name: np.empty((n_draws, blk.size), order="F")
        for name, blk in model.blocks.items()
    }
    row = 0
    for _, theta, latents in _point_batches(fit, n_draws, rng):
        rows = slice(row, row + latents.shape[0])
        for name, blk in model.blocks.items():
            eta = model.predictor(name, latents, theta)
            hyper = theta[blk.hyper] if blk.hyper else None
            value = _log_density(
                blk.family, blk.responses, eta, hyper, responses[name]
            )
            np.negative(value, out=logu[name][rows])
        row = rows.stop
    blocks = {name: _harmonic_cpo(lu) for name, lu in logu.items()}
    joint_result = None
    if joint is not None:
        joint_result = _harmonic_cpo(logu[a] + logu[b])
    return CpoResult(
        blocks=blocks,
        joint=joint_result,
        joint_blocks=tuple(joint) if joint is not None else None,
        n_draws=n_draws,
    )
