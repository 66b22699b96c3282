"""Dense references for the engine's prior, design and Newton matrices.

Everything here is built from a model's spec and its expanded terms with
the ``latent.py`` builders and dense numpy algebra: no pattern, scatter map
or value array of ``ModelStructure`` or ``NewtonSystem`` is read.  The
tests place the engine's value arrays at their pattern positions with
``dense`` and compare the result with these matrices.

The prior and design follow the engine's arithmetic term by term, so the
engine's values equal them exactly.  The prior shares its formulas with the
engine through ``ar2_diagonals`` and ``mv_iid_block``, which the builders
call: the builders place the values through scipy.sparse, and the engine
reads them at its pattern's indices.  The design uses the same products and
the same order of sums.  The Newton matrix and the Gaussian-model answers
sum in another order and match to roundoff.
"""

import numpy as np
from scipy.linalg import block_diag, null_space
from scipy.stats import multivariate_normal

from circfit.latent import (
    build_ar2,
    build_cyclic_rw2,
    build_iid,
    build_mv_iid,
    build_rw2,
    cyclic_rw2_reference_sd,
    rw2_reference_sd,
    scale_precision,
)
from circfit.likelihoods import loglik
from circfit.priors import partials_to_correlation


def dense(rows, cols, values, shape):
    """The matrix with the given values at (rows, cols), zero elsewhere."""
    M = np.zeros(shape)
    M[rows, cols] = values
    return M


def component_precision(comp, theta):
    """One component's ``SparsePrecision`` at natural hyper values theta:
    intrinsic fields standardized to unit reference marginal sd, ar2 and
    mv_iid at their hypers, then times the precision hyper."""
    if comp.kind == "iid":
        built = build_iid(comp.size)
    elif comp.kind == "rw2":
        sd = rw2_reference_sd(comp.size)
        built = scale_precision(build_rw2(comp.size), sd * sd)
    elif comp.kind == "cyclic_rw2":
        sd = cyclic_rw2_reference_sd(comp.period)
        built = scale_precision(build_cyclic_rw2(comp.size, comp.period), sd * sd)
    elif comp.kind == "ar2":
        p1, p2 = comp.pacf_hypers
        built = build_ar2(comp.size, theta[p1], theta[p2])
    else:
        d = comp.block_dim
        sigmas = np.array([theta[h] ** -0.5 for h in comp.sigma_hypers])
        partials = [
            theta[f"{comp.correlation_hyper}[{k}]"]
            for k in range(d * (d - 1) // 2)
        ]
        R = partials_to_correlation(np.array(partials), d) if d > 1 else np.eye(1)
        built = build_mv_iid(comp.size, sigmas, R)
    if comp.precision_hyper is not None:
        built = scale_precision(built, theta[comp.precision_hyper])
    return built


def prior(model, theta):
    """The joint prior precision, block diagonal over the components in
    declaration order and then the fixed effects' 1 / sd^2, and its log
    generalized determinant."""
    spec = model.spec
    built = [component_precision(c, theta) for c in spec.components]
    effects = np.array([e.prior_sd**-2.0 for e in spec.fixed_effects])
    Q = block_diag(*[b.matrix.toarray() for b in built], np.diag(effects))
    log_gdet = 0
    for b in built:
        log_gdet += b.log_gdet
    log_gdet += float(np.sum(np.log(effects)))
    return Q, float(log_gdet)


def design(model, name, theta):
    """A_b(theta) of block ``name``: each expanded term's observation-by-
    latent matrix (its coefficient at its node, row by row) times the
    product of its chain's hyper values, summed in term order."""
    blk = model.blocks[name]
    A = None
    for t in blk.terms:
        factor = 1.0
        for h in t.chain:
            factor *= theta[h]
        M = np.zeros((blk.size, model.latent_dim))
        M[np.arange(blk.size), t.nodes] = t.coef
        A = M * factor if A is None else A + M * factor
    return A


def curvatures(model, theta, w):
    """Per block the observed curvatures -d2 at latent w, from the public
    ``loglik``: the ones the factor at the conditional mode holds."""
    out = {}
    for name, blk in model.blocks.items():
        eta = design(model, name, theta) @ w
        hyper = theta[blk.hyper] if blk.hyper else None
        out[name] = -loglik(blk.family, blk.responses, eta, hyper)[2]
    return out


def newton_matrix(model, theta, curvature):
    """Q* = Q_p + sum_b A_b' diag(c_b) A_b for per-block curvatures c_b."""
    Q, _ = prior(model, theta)
    for name in model.blocks:
        A = design(model, name, theta)
        Q = Q + A.T @ (curvature[name][:, None] * A)
    return Q


def gls(model, theta):
    """Dense constrained generalized least squares for a Gaussian-only
    model: the posterior mean and marginal sds."""
    Q_star, _ = prior(model, theta)
    rhs = np.zeros(model.latent_dim)
    for name, blk in model.blocks.items():
        A = design(model, name, theta)
        tau = theta[blk.hyper]
        Q_star += tau * A.T @ A
        rhs += tau * A.T @ blk.responses
    cov = np.linalg.inv(Q_star)
    mean = cov @ rhs
    C = model.constraints
    if C.shape[0]:
        CS = C @ cov
        K = np.linalg.solve(CS @ C.T, CS)
        mean = mean - K.T @ (C @ mean)
        cov = cov - CS.T @ K
    return mean, np.sqrt(np.diag(cov))


def log_evidence(model, theta):
    """log p(y | theta) of a Gaussian-only model, marginalized densely over
    the latent vector, restricted to the constraint set when the model
    carries one."""
    Qp, _ = prior(model, theta)
    C = model.constraints
    B = null_space(C) if C.shape[0] else np.eye(model.latent_dim)
    K = np.linalg.inv(B.T @ Qp @ B)
    total = 0.0
    for name, blk in model.blocks.items():
        M = design(model, name, theta) @ B
        Sigma = M @ K @ M.T + np.eye(blk.size) / theta[blk.hyper]
        total += multivariate_normal.logpdf(blk.responses, cov=Sigma)
    return total
