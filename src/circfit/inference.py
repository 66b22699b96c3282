"""Laplace-approximation engine for latent Gaussian models.

The posterior factorizes as p(w, theta | y): for each hyper vector theta the
latent conditional is approximated by a Gaussian at its mode (Newton with
step halving, linear constraints enforced by conditioning-by-kriging), and
the hyper posterior is the Laplace ratio evaluated at that mode.  The hyper
space is explored with a grid in the Hessian eigenbasis when it is small and
a spherical central-composite design otherwise; latent marginals are
Gaussian mixtures over the exploration points.
The Gaussian's factor at the mode holds the observed curvature.  The hyper
mode is found by one quasi-Newton search for any number of free hypers, and
the hyper stages of a fit share one ``HyperEvaluator`` and hand on the mode
as the evaluation that found it, so no stage solves it again.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dpbtrf, dpotrf, dpotrs, dtbtrs, dtrtrs
from scipy.special import ndtr, ndtri

from .circular import _lavm_em_weight
from .likelihoods import loglik
from .model import AssembledModel, NewtonSystem
from .priors import TRANSFORMS, prior_median_internal

__all__ = [
    "GaussianApprox",
    "HyperEvaluator",
    "ThetaPoint",
    "FitResult",
    "InferenceError",
    "gaussian_approx",
    "log_posterior_theta",
    "optimize_theta",
    "explore_theta",
    "latent_marginals",
    "hyper_marginals",
    "fit_model",
]

CURVATURE_MIN = 1e-12

# fit-stage settings: Newton's gradient tolerance and iteration limit; the
# mode search's gradient step, |grad lp| tolerance, least lp gain of one
# step, budget in gradients (see ``_search_budget``) and Hessian stencil
# step; the exploration's grid step in posterior sds, lp drop, steps per
# axis and CCD radius; the marginal scans' step in posterior sds, lp drop
# and steps per direction; the latent mixture quantiles' tolerance in
# probability
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 100
GRAD_STEP = 1e-4
GRAD_TOL = 1e-5
SEARCH_GAIN = 1e-6
SEARCH_GRADIENTS = 67
HESSIAN_STEP = 0.05
EXPLORE_STEP = 0.75
EXPLORE_DROP = 5.0
EXPLORE_MAX_STEPS = 10
CCD_RADIUS = 1.1
SCAN_STEP = 0.5
SCAN_DROP = 6.0
SCAN_MAX_STEPS = 14
QUANTILE_TOL = 1e-8


class _BandArrowFactor:
    """Cholesky factor of Q* in the band + arrow layout of
    ``ModelStructure``, conditioned on the model's constraints C w = 0 by
    kriging (Rue & Held 2005, 2.3.3).

    In factor order (``perm``) Q* = [[A, B], [B', D]] with A the band, B
    the cross block and D the fixed-effect arrow.  Holds the plain Cholesky
    factor L = [[L_A, 0], [X', L_S]] of Q* by its pieces: the band factor
    L_A of A, X = L_A^{-1} B and the Cholesky factor L_S of the Schur
    complement D - X'X, so ``half_logdet`` = log det L; with no component
    body (``n_body`` = 0) ``band`` and ``X`` are None and L = L_S.  When C
    has rows ``_factor_spd`` sets ``QinvCt`` = Q^{-1} C', ``S_chol`` =
    chol(C Q^{-1} C') and the constrained half log determinant
    ``det_half`` = half_logdet + (log det(C Q^{-1} C') - log det(C C'))/2."""

    def __init__(self, structure, band, X, schur, half_logdet):
        self.structure = structure
        self.band = band
        self.X = X
        self.schur = schur
        self.half_logdet = half_logdet
        self.det_half = half_logdet
        self.C = self.QinvCt = self.S_chol = None

    def solve(self, b):
        """The factored matrix's inverse applied to a vector or to the
        columns of a matrix, returned in the memory order of b.

        A forward solve with L, then ``solve_lt``; with no component body
        L is L_S and ``perm`` the identity, so one LAPACK dpotrs solves."""
        perm, n_body = self.structure.perm, self.structure.n_body
        b = np.asarray(b, dtype=float)
        # allocated before b is permuted, so a column-major C' gives a
        # column-major QinvCt, whose products round as that layout does
        y = np.empty_like(b)  # L^{-1} b, in factor order
        if not n_body:
            y[...] = dpotrs(self.schur, b, lower=1)[0]
            return y
        head = dtbtrs(self.band, b[perm[:n_body]], uplo="L")[0]
        y[:n_body] = head
        if self.schur.shape[0]:
            rhs = b[perm[n_body:]] - self.X.T @ head
            y[n_body:] = dtrtrs(self.schur, rhs, lower=1)[0]
        return self.solve_lt(y)

    def solve_lt(self, z):
        """L^{-T} z for the columns of z, returned in latent order.

        U = solve_lt(I) satisfies U U' = the factored matrix's inverse, so
        its row norms are the marginal variances and standard normal
        columns map to draws with that covariance (Rue & Held 2005, ch. 2).
        The tail solves L_S' t = z_tail; the head, when there is a
        component body, is L_A^{-T}(z_head - X t).
        """
        perm, n_body = self.structure.perm, self.structure.n_body
        x = np.empty_like(z, dtype=float)
        head = z[:n_body]
        if self.schur.shape[0]:
            tail = dtrtrs(self.schur, z[n_body:], lower=1, trans=1)[0]
            x[perm[n_body:]] = tail
            if not n_body:
                return x
            head = head - self.X @ tail
        x[perm[:n_body]] = dtbtrs(self.band, head, uplo="L", trans="T")[0]
        return x

    def _s_solve(self, b):
        """(C Q^{-1} C')^{-1} b by LAPACK's dpotrs on ``S_chol``, the lower
        Cholesky factor that ``_factor_spd`` validated."""
        return dpotrs(self.S_chol, b, lower=1)[0]

    def correction(self, v):
        """The kriging correction Q^{-1} C' (C Q^{-1} C')^{-1} C v of a
        vector (or columns) on constraints C; ``constrain`` subtracts it."""
        return self.QinvCt @ self._s_solve(self.C @ v)

    def constrain(self, v):
        """Condition a vector (or columns) on C v = 0 the way the
        constrained conditional does: v - Q^{-1} C' (C Q^{-1} C')^{-1} C v,
        as a new array; v is never written."""
        if self.C is None:
            return v
        return v - self.correction(v)

    def marginal_sd(self):
        """Standard deviations of the constrained conditional, node-wise:
        the row norms of L^{-T} less the kriging term of the constraints."""
        U = self.solve_lt(np.eye(self.structure.perm.size))
        var = np.einsum("ij,ij->i", U, U)
        if self.C is not None:
            corr = self._s_solve(self.QinvCt.T)
            var = var - np.einsum("ij,ji->i", self.QinvCt, corr)
        return np.sqrt(np.maximum(var, 0.0))


def _factor_spd(structure, data, C=None):
    """The ``_BandArrowFactor`` of the symmetric positive definite Q* given
    by its values in the flat storage of ``structure`` (as
    ``NewtonSystem.values`` returns them), conditioned on C w = 0 when C
    has rows.  ``data`` is never written: views of one copy are factored.

    The component block is a band in the structure's reverse Cuthill-McKee
    order, factored by LAPACK's band Cholesky (dpbtrf); the fixed-effect
    arrow is eliminated by X = L_A^{-1} B (dtbtrs) and a dense Cholesky
    (dpotrf) of its Schur complement D - X'X (Rue & Held 2005, ch. 2).
    Both read only the lower triangle, and with no component body only
    the arrow is factored.  The half log determinant is one log-sum of
    the pivots.  A non-positive pivot reported by LAPACK or a non-finite
    log determinant means not positive definite.

    With constraints the kriging pieces Q^{-1}C' and chol(C Q^{-1} C') are
    validated as part of the positive definiteness test.  C must be the
    model's constraint matrix, from which the structure's log det(C C') was
    made.  Q* singular along C's rows is not positive definite either,
    although the constrained conditional is proper: ``build_model`` rejects
    the models where that holds at every theta, and a theta where it holds
    (a scale hyper at or near 0, so that an intrinsic component's null
    space meets no likelihood curvature) is a failed evaluation.
    """
    n_body, width = structure.n_body, structure.bandwidth + 1
    n_arrow = structure.perm.size - n_body
    # the three column-major pieces of one copy
    data = np.array(data, dtype=float)
    arrow = data[(width + n_arrow) * n_body:].reshape(n_arrow, n_arrow).T
    band = X = None
    info, half_logdet = 0, np.nan
    if n_body:
        band = data[:width * n_body].reshape(n_body, width).T
        band, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if n_arrow and not info:
            cross = data[width * n_body:(width + n_arrow) * n_body]
            X = dtbtrs(band, cross.reshape(n_arrow, n_body).T, uplo="L")[0]
            arrow = arrow - X.T @ X
    if n_arrow and not info:
        arrow, info = dpotrf(arrow, lower=1, overwrite_a=1)
    if not info:
        # the pivots: band storage holds the diagonal in its first row
        pivots = arrow.diagonal()
        if n_body:
            pivots = np.concatenate((band[0], pivots))
        half_logdet = float(np.log(pivots).sum())
    if not np.isfinite(half_logdet):
        raise InferenceError("conditional precision is not positive definite")
    factor = _BandArrowFactor(structure, band, X, arrow, half_logdet)
    if C is None or C.shape[0] == 0:
        return factor
    QinvCt = factor.solve(np.asarray(C.T, dtype=float))
    if not np.all(np.isfinite(QinvCt)):
        raise InferenceError("conditional precision is not positive definite")
    S = C @ QinvCt
    S_chol, info = dpotrf(0.5 * (S + S.T), lower=1, overwrite_a=1)
    logdet_S = (
        np.nan if info else 2.0 * float(np.sum(np.log(np.diag(S_chol))))
    )
    if not np.isfinite(logdet_S):
        raise InferenceError("conditional precision is not positive definite")
    factor.C, factor.QinvCt, factor.S_chol = C, QinvCt, S_chol
    factor.det_half = factor.half_logdet + 0.5 * (
        logdet_S - structure.constraint_cct_logdet
    )
    return factor


class InferenceError(RuntimeError):
    """Engine failure with the best point seen so far attached."""

    def __init__(self, message, best=None, diagnostics=None):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics or {}


def _curvatures(blk, eta, hyper, response):
    """Value, d1 and observed curvature -d2 of the block log-likelihood at
    eta, from the block's ``response_terms``."""
    value, d1, d2 = loglik(blk.family, blk.responses, eta, hyper,
                           response=response)
    return value, d1, -d2


def _fallback_curvatures(blk, eta, hyper, response, c):
    """The Newton step's curvatures where the observed Q* does not factor:
    the observed c where it is at least ``CURVATURE_MIN``, else
    ``CURVATURE_MIN``, or for LAvM the EM weight W
    (``circular._lavm_em_weight``), the curvature of a quadratic below the
    density, which keeps Q* positive definite and the Newton model a
    minorizer on those entries at any distance from the mode."""
    bad = c < CURVATURE_MIN
    if blk.family == "lavm":
        return np.where(bad, _lavm_em_weight(response, eta, hyper), c)
    return np.where(bad, CURVATURE_MIN, c)


class GaussianApprox:
    """Gaussian approximation of p(w | theta, y) at the constrained mode.

    ``factor`` is ``_factor_spd``'s constrained factor of the observed Q*
    at the mode, with -d2 for every curvature: ``det_half`` is its
    constrained half log determinant, which the Laplace ratio reads with
    ``loglik_sum``, ``prior_quad`` and ``prior_log_gdet``; the marginal sds
    and the draws are its too.
    """

    def __init__(self, mode, factor, loglik_sum, prior_quad, prior_log_gdet,
                 iterations):
        self.mode = mode
        self.factor = factor
        self.det_half = factor.det_half
        self.loglik_sum = loglik_sum
        self.prior_quad = prior_quad
        self.prior_log_gdet = prior_log_gdet
        self.iterations = iterations
        self._marginal_sd = None

    def marginal_sd(self):
        """Standard deviations of the constrained conditional, node-wise."""
        if self._marginal_sd is None:
            self._marginal_sd = self.factor.marginal_sd()
        return self._marginal_sd

    def sample(self, rng, size):
        """Draws from the constrained Gaussian as a (size, n) array, one row
        per draw.  It is the transposed view of the (n, size) solve, so in
        memory each draw's latent vector is one contiguous column.

        The draws are finished in place on the array ``solve_lt``
        allocates: the kriging correction is subtracted from it and the
        mode added to it, the sums ``mode + constrain(solve_lt(z))`` forms
        with no temporary (n, size) array."""
        factor = self.factor
        z = rng.standard_normal((self.mode.size, size))
        u = factor.solve_lt(z)
        if factor.C is not None:
            u -= factor.correction(u)
        u += self.mode[:, None]
        return u.T


def gaussian_approx(model, theta, init_w=None):
    """Newton iteration for the conditional latent mode at natural hyper
    values theta, with step halving and kriging-corrected constraints.

    Each pass factors the observed Q*, with -d2 for every curvature, and
    only where that is not positive definite the fallback's
    (``_fallback_curvatures``), a modified Newton step (Nocedal & Wright
    2006, 3.4).  So the mode's factor is the observed one: a converged
    iterate whose observed Q* does not factor is a saddle or an antimode,
    and raises "conditional mode is not a maximum".

    Each step works on value arrays over the model's fixed structure
    (``AssembledModel.structure``, through ``NewtonSystem``): predictors
    and gradients take each block's fixed-effect terms as dense columns
    and its component terms at their gathered nodes, Q*'s band + arrow
    values sum each fixed pair into its arrow slot and bincount the
    component pairs into theirs, and ``_factor_spd`` factors views of the
    values.  No sparse matrix is built, for any component kind.  Every
    Newton point is projected onto C w = 0 after its kriging correction,
    so every iterate is feasible and the mode needs no final projection:
    the converged iterate's values, factor and log-likelihood sum are the
    ones returned, never recomputed.

    Once per model the structure holds the patterns and each block's
    checked response terms; once per call (per theta) ``NewtonSystem``
    forms the prior values and takes each block's design values and pair
    products, recomputed only when its chain factors move; each objective
    evaluation computes the predictors and ``loglik`` on them, and each
    step the gradient, Q*'s values and their factor.

    Fails only by raising ``InferenceError`` with the last iterate as
    ``best``; ``optimize_theta``, ``explore_theta`` and ``hyper_marginals``
    catch exactly that, so any other exception escaping is a bug.  The
    Newton loop has three failure exits:

    - plateau guard: from iteration 24 on, the decrement has not halved
      over the last 12 iterations and the objective has not risen beyond
      roundoff over them either;
    - stall: the Newton step does not increase the objective at any of 21
      halvings while its predicted gain, the decrement, is above 1e-7 of
      the objective's scale.  With Q* positive definite the step is an
      ascent direction, so this exit means derivatives that do not match
      the objective, or roundoff beyond that threshold;
    - iteration limit: no convergence in ``NEWTON_MAX_ITER`` iterations.

    ``_factor_spd`` raises it too when neither the observed nor the
    fallback Q* is positive definite, and so does an mv_iid correlation
    matrix that saturated vine partials round to indefinite.
    """
    n = model.latent_dim
    C = model.constraints
    k = C.shape[0]
    structure = model.structure
    try:
        system = NewtonSystem(structure, theta)
    except np.linalg.LinAlgError as exc:
        raise InferenceError(str(exc)) from exc
    hypers = {
        name: (theta[blk.hyper] if blk.hyper else None)
        for name, blk in model.blocks.items()
    }

    def evaluate(w):
        """Objective at w, plus what a Newton step from w needs: Q_p w and
        per block the loglik sum, d1 and curvatures."""
        qw, parts = system.prior_times(w), {}
        f = -0.5 * float(w @ qw)
        for name, blk in model.blocks.items():
            eta = system.predictor(name, w)
            value, d1, c = _curvatures(
                blk, eta, hypers[name], structure.responses[name]
            )
            parts[name] = (float(value.sum()), d1, c, eta)
            f += parts[name][0]
        return f, (qw, parts)

    def assemble(at):
        """The gradient and Q*'s factor at an iterate, and whether the
        factor is the observed one rather than the fallback's."""
        qw, parts = at
        grad = -qw
        for name, p in parts.items():
            grad = grad + system.transpose_times(name, p[1])
        c = {name: p[2] for name, p in parts.items()}
        try:
            return grad, _factor_spd(structure, system.values(c), C), True
        except InferenceError:
            if all(np.all(v >= CURVATURE_MIN) for v in c.values()):
                raise
        c = {
            name: _fallback_curvatures(
                model.blocks[name], p[3], hypers[name],
                structure.responses[name], p[2],
            )
            for name, p in parts.items()
        }
        return grad, _factor_spd(structure, system.values(c), C), False

    def project(v):
        """v's Euclidean projection onto the constraint set C v = 0."""
        return v - C.T @ np.linalg.solve(structure.constraint_cct, C @ v)

    w = np.zeros(n) if init_w is None else np.asarray(init_w, dtype=float).copy()
    if k and np.max(np.abs(C @ w)) > 1e-9:
        w = project(w)

    f_w, at_w = evaluate(w)
    iterations, last = 0, False
    dec_hist, f_hist = [], []
    for iterations in range(1, NEWTON_MAX_ITER + 1):
        grad, factor, observed = assemble(at_w)
        g_proj = project(grad) if k else grad
        if last or np.abs(g_proj).max() < NEWTON_TOL:
            iterations -= 1
            break
        # an accepted iterate, a convex combination of two projected
        # points, keeps C @ w at machine zero
        point = factor.constrain(w + factor.solve(grad))
        step = (project(point) if k else point) - w

        # the decrement g'H^{-1}g has objective units: below the
        # objective's roundoff the line search cannot judge the step (at
        # large data scales |grad| is roundoff there too), but w still
        # converges quadratically, so the step is taken unchecked and the
        # next pass, which factors Q* at the result, is the last
        decrement = float(g_proj @ step)
        last = decrement < 1e-14 * (1.0 + abs(f_w))
        dec_hist.append(decrement)
        f_hist.append(f_w)
        if (
            not last
            and iterations >= 24
            and dec_hist[-1] > 0.5 * dec_hist[-13]
            and f_w - f_hist[-13] < 1e-9 * (1.0 + abs(f_w))
        ):
            # healthy Newton contracts the decrement; a flat decrement
            # with no objective gain means a march across a plateau, such
            # as the creep away from a stationary point that is not a
            # maximum (a real creep that gains is let run, hence the
            # objective condition)
            raise InferenceError(
                "Newton iteration is not contracting",
                best=w,
                diagnostics={"iterations": iterations, "decrement": decrement},
            )

        t, improved = 1.0, False
        for _ in range(0 if last else 21):
            f_new, at_new = evaluate(w + t * step)
            if np.isfinite(f_new) and f_new >= f_w - 1e-14:
                improved = True
                break
            t *= 0.5
        if not improved:
            if decrement >= 1e-7 * (1.0 + abs(f_w)):
                raise InferenceError(
                    "Newton iteration stalled before reaching tolerance",
                    best=w,
                    diagnostics={"iterations": iterations, "grad": g_proj},
                )
            # the predicted gain is below the objective's roundoff
            t, last = 1.0, True
            f_new, at_new = evaluate(w + step)
        w = w + t * step
        f_w, at_w = f_new, at_new
    else:
        raise InferenceError(
            "Newton did not converge within the iteration limit",
            best=w,
            diagnostics={"iterations": NEWTON_MAX_ITER},
        )

    if not observed:
        raise InferenceError(
            "conditional mode is not a maximum",
            best=w,
            diagnostics={"iterations": iterations},
        )
    qw, parts = at_w
    return GaussianApprox(
        mode=w,
        factor=factor,
        loglik_sum=sum(p[0] for p in parts.values()),
        prior_quad=-0.5 * float(w @ qw),
        prior_log_gdet=system.prior_log_gdet,
        iterations=iterations,
    )


def log_posterior_theta(model, theta_internal, init_w=None):
    """Unnormalized log posterior of the hyper vector (internal scale):
    Laplace ratio of the joint to the Gaussian approximation at its mode.
    The prior log-determinant comes from the approximation's own prior
    build."""
    theta_internal = np.asarray(theta_internal, dtype=float)
    approx = gaussian_approx(
        model, model.theta_natural(theta_internal), init_w=init_w
    )
    lp = (
        model.logprior_internal(theta_internal)
        + 0.5 * approx.prior_log_gdet
        + approx.prior_quad
        + approx.loglik_sum
        - approx.det_half
    )
    return float(lp), approx


@dataclass
class ThetaPoint:
    theta_internal: np.ndarray
    # theta_internal's natural values, mapped once by explore_theta
    theta: dict
    log_unnorm_posterior: float
    weight: float
    approx: GaussianApprox


@dataclass
class FitResult:
    model: AssembledModel
    points: list
    theta_mode_internal: np.ndarray
    theta_mode: dict
    hessian: np.ndarray
    latent_summary: dict
    hyper_summary: dict
    hyper_grids: dict
    diagnostics: dict


class HyperEvaluator:
    """Laplace evaluations of the hyper posterior at free coordinates ``u``,
    under the rules every hyper stage shares.  Fixed hypers are pinned at
    their values and the free ones are searched on their internal axes.
    ``fit_model`` makes one per fit, for all its hyper stages.

    Internal coordinates beyond +-30 are numerically degenerate for every
    transform in use (exp overflow, saturated correlations), so a point not
    inside that box (NaN is not) is a failed evaluation and is not solved.
    An evaluation warm-starts from ``w``, the latent mode of the last
    success (a stage may set it); a failed warm start is retried cold once,
    and a failed cold start is deterministic, so it is not repeated.
    ``count`` is the number of points evaluated, failures included.
    """

    BOX = 30.0

    def __init__(self, model):
        self.model = model
        # fixed coordinates at their values; to_full sets the free ones
        self.base = np.array([
            prior_median_internal(c.spec) if c.is_fixed else 0.0
            for c in model.hyper_coords
        ])
        self.free = np.array(
            [i for i, c in enumerate(model.hyper_coords) if not c.is_fixed],
            dtype=int,
        )
        self.dim = self.free.size
        self.w = None
        self.count = 0

    def to_full(self, u):
        th = self.base.copy()
        th[self.free] = np.asarray(u, dtype=float)
        return th

    def to_u(self, theta_internal):
        return np.asarray(theta_internal, dtype=float)[self.free]

    def __call__(self, u):
        """(theta_internal, lp, approx) at u; a failure has lp -inf and
        approx None."""
        theta = self.to_full(u)
        self.count += 1
        if not np.all(np.abs(u) <= self.BOX):
            return theta, -np.inf, None
        while True:
            try:
                lp, approx = log_posterior_theta(
                    self.model, theta, init_w=self.w
                )
                break
            except InferenceError:
                if self.w is None:
                    return theta, -np.inf, None
                self.w = None
        self.w = approx.mode
        return theta, lp, approx

    def walk(self, point, lp0, drop, max_steps, w):
        """Evaluate point(1), point(2), ..., point(max_steps), the first
        warm-started from the latent ``w``, stopping after the first step
        whose lp falls more than ``drop`` below ``lp0`` (a failure does);
        returns every step's evaluation in order."""
        self.w = w
        steps = []
        for k in range(1, max_steps + 1):
            steps.append(self(point(k)))
            if steps[-1][1] < lp0 - drop:
                break
        return steps


def _probe_slope_curvature(lp_minus, lp0, lp_plus, h):
    """Slope and curvature of lp at u from the gradient probe triple
    lp(u - h), lp(u), lp(u + h), a failed evaluation being -inf.

    Both probes give the central and the second difference.  One failed
    probe (past the box edge, say) leaves the one-sided difference to the
    other and no curvature (NaN).  A failed centre, which only a failed
    start has, points the slope to the probes' better side with no
    negative curvature.  With both probes failed the slope is NaN.
    """
    if np.isfinite(lp_minus) and np.isfinite(lp_plus):
        slope = (lp_plus - lp_minus) / (2.0 * h)
        return slope, (lp_plus + lp_minus - 2.0 * lp0) / h**2
    if np.isfinite(lp_plus):
        return (lp_plus - lp0) / h, np.nan
    if np.isfinite(lp_minus):
        return (lp0 - lp_minus) / h, np.nan
    return np.nan, np.nan


def _newton_search(evaluate, u, box):
    """Safeguarded quasi-Newton ascent of lp over the free hypers from the
    array ``u``; returns how it ended.

    ``evaluate(u)`` is the budgeted evaluator's (theta, lp, approx), with
    lp -inf and approx None for a failed evaluation.  Each accepted point
    is probed at u + h then u - h on every axis, which gives the gradient
    g and the second differences d (``_probe_slope_curvature``).  B models
    the Hessian of -lp.  Its diagonal is the probes': -d_i where d_i < 0
    and |g_i| otherwise (one unit uphill; a failed probe's NaN takes this
    branch).  Its correlations come from BFGS updates over the accepted
    steps (Nocedal & Wright 2006, ch. 6), skipped when y's <= 0, so it
    stays positive definite; where it does not (a zero on the diagonal),
    or g is not finite, the diagonal alone is used.  The step B^{-1} g is
    scaled so that no coordinate moves more than one internal unit and
    clipped to the box.  A trial point costs its centre only; its step is
    halved while its lp falls below the accepted point's (a failed
    evaluation does), and only an accepted point is probed.  The search
    stops when |g|_inf <= ``GRAD_TOL``, else when the step to the point
    raised lp by less than ``SEARCH_GAIN``, or when the step to try is
    below roundoff: lp cannot tell such a step from none, and a zero step
    would evaluate a point again.  With one free hyper the step is
    Newton's on the second difference, and one unit uphill where that is
    not negative.
    """
    h, m = GRAD_STEP, u.size
    _, lp, _ = evaluate(u)
    B, gain = None, np.inf
    while True:
        g, d = np.empty(m), np.empty(m)
        for i, e in enumerate(h * np.eye(m)):
            lp_plus = evaluate(u + e)[1]
            g[i], d[i] = _probe_slope_curvature(
                evaluate(u - e)[1], lp, lp_plus, h
            )
        if np.max(np.abs(g)) <= GRAD_TOL:
            return "gradient tolerance"
        if gain < SEARCH_GAIN:
            return "lp gain below SEARCH_GAIN"
        curved = d < 0.0
        diag = np.where(curved, -d, np.abs(g))
        step, finite = None, np.all(np.isfinite(g))
        if B is not None and finite:
            y = g_prev - g
            if y @ s > 0.0:
                Bs = B @ s
                B = B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(y, y) / (y @ s)
            # rescaled to the probes' diagonal, B keeps BFGS's correlations
            r = np.sqrt(diag / np.diag(B))
            B = B * np.outer(r, r)
            L, info = dpotrf(B, lower=1)
            if not info:
                step = dpotrs(L, g, lower=1)[0]
        if step is None:
            B = np.diag(diag) if finite else None
            step = np.where(curved, g, np.sign(g)) / np.where(curved, -d, 1.0)
        step = step / max(1.0, float(np.max(np.abs(step))))
        step = np.clip(u + step, -box, box) - u
        while True:
            # NaN, from a slope no probe gave, is no step either
            if not np.max(np.abs(step)) > 1e-8:
                return "roundoff step"
            _, lp_trial, approx = evaluate(u + step)
            if approx is not None and lp_trial >= lp:
                break
            step = 0.5 * step
        gain, g_prev, s = lp_trial - lp, g, step
        u, lp = u + step, lp_trial


def _search_budget(m):
    """How many points the mode search over m free hypers may evaluate:
    ``SEARCH_GRADIENTS`` central-difference gradients of 2m + 1 points
    each, the cost of one search iteration."""
    return SEARCH_GRADIENTS * (2 * m + 1)


def _checked_mode(mode):
    """The evaluation ``mode`` as given, unless it failed: every hyper
    stage raises ``InferenceError`` on a failed mode."""
    if mode[2] is None:
        raise InferenceError(
            "latent approximation failed at the hyper mode", best=mode[0]
        )
    return mode


def optimize_theta(hyper, init=None):
    """Search for the hyper posterior mode with central-difference
    gradients; returns (mode, hessian_u, info), where ``mode`` is the
    evaluation (theta_internal, lp, approx) of the best point evaluated.

    One search, ``_newton_search``, serves any number m >= 1 of free
    hypers.  It stops on |grad lp|_inf <= ``GRAD_TOL``, on a step that
    raised lp by less than ``SEARCH_GAIN``, or on a step below roundoff.
    A failed evaluation is never read as a value: a failed trial step is
    halved, and a failed gradient probe, such as the one past the box
    edge, leaves the one-sided difference to the other probe.  It raises
    ``InferenceError`` with the best point as ``best`` once
    ``_search_budget(m)`` points are evaluated; ``info["optimizer_message"]``
    says how a search that returns ended.

    The Hessian, in the free-coordinate basis, is a central-difference
    stencil around the mode: its centre value is the mode's lp and its
    first point warm-starts from the mode's latent mode, so the mode is not
    solved again.  A failed stencil evaluation raises ``InferenceError``
    with the mode as ``best``, since it has no value to enter the Hessian
    with, and so does a Hessian that is not positive definite: the mode is
    then a saddle of lp, whose marginals would have no width.
    ``info["evaluations"]`` counts the search's points, the ones the budget
    counts.  With no free hyper the one point is the mode, evaluated
    outside the count, and the message reads "no free hyper"; its failure
    raises.
    """
    m = hyper.dim
    if m == 0:
        mode = _checked_mode(hyper(np.zeros(0)))
        info = {"evaluations": 0, "optimizer_message": "no free hyper"}
        return mode, np.zeros((0, 0)), info

    u0 = hyper.to_u(hyper.model.initial_internal() if init is None else init)
    u0 = np.clip(u0, -hyper.BOX, hyper.BOX)
    budget, start = _search_budget(m), hyper.count
    mode = (None, -np.inf, None)

    def evaluate(u):
        nonlocal mode
        if hyper.count - start >= budget:
            raise InferenceError(
                "hyper optimization exceeded its evaluation budget",
                best=mode[0],
                diagnostics={"evaluations": hyper.count - start},
            )
        point = hyper(u)
        if point[1] > mode[1]:
            mode = point
        return point

    message = _newton_search(evaluate, u0, hyper.BOX)
    theta_mode, lp_mode, approx_mode = mode
    evaluations = hyper.count - start
    if approx_mode is None:
        # every evaluation failed, so the search's answer is the start
        # point and its curvature is flat
        raise InferenceError(
            "no successful Laplace evaluation during hyper optimization",
            diagnostics={"evaluations": evaluations},
        )
    # the best point evaluated, which may be a gradient probe
    u_mode = hyper.to_u(theta_mode)
    hyper.w = approx_mode.mode

    def stencil_neg(u):
        # a failed stencil point has no value to enter the Hessian with
        th, lp, approx = hyper(u)
        if approx is None:
            raise InferenceError(
                "Laplace evaluation failed in the Hessian stencil",
                best=theta_mode,
                diagnostics={"theta": th},
            )
        return -lp

    h = HESSIAN_STEP
    H = np.zeros((m, m))
    f0 = -lp_mode
    fp = np.zeros(m)
    fm = np.zeros(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        fp[i] = stencil_neg(u_mode + e)
        fm[i] = stencil_neg(u_mode - e)
        H[i, i] = (fp[i] + fm[i] - 2.0 * f0) / h**2
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros(m)
            e[i] = h
            f = np.zeros(m)
            f[j] = h
            fpp = stencil_neg(u_mode + e + f)
            fmm = stencil_neg(u_mode - e - f)
            H[i, j] = H[j, i] = (
                fpp + fmm + 2.0 * f0 - fp[i] - fm[i] - fp[j] - fm[j]
            ) / (2.0 * h**2)
    if dpotrf(H, lower=1)[1]:
        raise InferenceError(
            "the Hessian at the hyper mode is not positive definite",
            best=theta_mode,
            diagnostics={"hessian": H},
        )
    return mode, H, {"evaluations": evaluations, "optimizer_message": message}


def _spd_directions(H, step):
    """Axis vectors in u-space: eigen directions scaled to `step` posterior
    standard deviations; non-positive curvature falls back to unit scale."""
    vals, vecs = eigh(H)
    vals = np.where(vals > 1e-8, vals, 1.0)
    return vecs * (step / np.sqrt(vals))


def explore_theta(hyper, mode, hessian):
    """Weighted hyper-space point set around ``optimize_theta``'s ``mode``.

    Free dimension up to 2: centered product grid in the Hessian eigenbasis
    (spacing ``EXPLORE_STEP`` standard deviations).  Each axis is walked
    both ways from the mode until the log posterior falls ``EXPLORE_DROP``
    below the mode's, and spans the longer walk's extent on both sides.  The probes
    that set the extents are kept by integer offset and reused as grid
    points, each reused point's latent mode becoming the next warm start,
    so a grid point is evaluated only when no probe reached it.  Higher
    dimensions: a spherical central-composite design with axial (and, up
    to dimension 6, corner) points at radius CCD_RADIUS * sqrt(dim).  A
    point outside the hyper box counts as a failed evaluation: it ends a
    grid axis, or leaves the CCD.

    The mode is not solved again: its lp is the walks' reference and its
    latent mode the warm start of either branch.  The result always holds
    the mode as one of its points.
    """
    th0, lp0, approx0 = _checked_mode(mode)
    model, m = hyper.model, hyper.dim
    if m == 0:
        return [ThetaPoint(th0, model.theta_natural(th0), lp0, 1.0, approx0)]
    u_mode = hyper.to_u(th0)
    hyper.w = approx0.mode

    axes = _spd_directions(hessian, EXPLORE_STEP)

    points = []
    if m <= 2:
        reached = {(0,) * m: (th0, lp0, approx0)}
        unit = np.eye(m, dtype=int)
        extents = []
        for i in range(m):
            ext = 0
            for sign in (1, -1):
                steps = hyper.walk(
                    lambda k: u_mode + axes @ (sign * k * unit[i]),
                    lp0, EXPLORE_DROP, EXPLORE_MAX_STEPS, approx0.mode,
                )
                for k, probe in enumerate(steps, 1):
                    reached[tuple((sign * k * unit[i]).tolist())] = probe
                # the walk ends on its first drop: the steps before it reach
                reach = [not lp < lp0 - EXPLORE_DROP for _, lp, _ in steps]
                ext = max(ext, sum(reach))
            extents.append(ext)
        grids = [np.arange(-e, e + 1) for e in extents]
        mesh = np.meshgrid(*grids, indexing="ij")
        offsets = np.stack([g.ravel() for g in mesh], axis=-1)
        hyper.w = approx0.mode
        for z in offsets:
            key = tuple(z.tolist())
            if key not in reached:
                reached[key] = hyper(u_mode + axes @ z)
            elif reached[key][2] is not None:
                hyper.w = reached[key][2].mode
            th, lp, approx = reached[key]
            if approx is not None:
                points.append([th, lp, 1.0, approx])
    else:
        points.append([th0, lp0, None, approx0])
        zs = []
        if m <= 6:
            corners = np.array(
                np.meshgrid(*([[-1.0, 1.0]] * m), indexing="ij")
            ).reshape(m, -1).T
            zs.extend(CCD_RADIUS * corners)
        r = CCD_RADIUS * np.sqrt(m)
        for i in range(m):
            e = np.zeros(m)
            e[i] = r
            zs.extend([e, -e])
        np_pts = len(zs)
        w0 = np_pts * (CCD_RADIUS**2 - 1.0) * np.exp(-0.5 * m * CCD_RADIUS**2)
        points[0][2] = w0
        for z in zs:
            th, lp, approx = hyper(u_mode + axes @ (z / EXPLORE_STEP))
            if approx is not None:
                points.append([th, lp, 1.0, approx])

    lps = np.array([p[1] for p in points])
    design = np.array(
        [1.0 if p[2] is None else p[2] for p in points]
    )
    raw = design * np.exp(lps - np.max(lps))
    weights = raw / np.sum(raw)
    return [
        ThetaPoint(p[0], model.theta_natural(p[0]), p[1], float(wt), p[3])
        for p, wt in zip(points, weights)
    ]


def _mixture_quantiles(mus, sds, weights, probs):
    """Quantiles of per-node Gaussian mixtures, to ``QUANTILE_TOL`` in
    probability.

    mus, sds: arrays (points, nodes); weights: (points,); probs: list.
    Returns (len(probs), nodes).

    Every (probability, node) entry starts at the quantile of the
    moment-matched Gaussian and takes Newton steps on the mixture CDF, whose
    derivative is the mixture density.  The bracket [min(mu - 10 sd),
    max(mu + 10 sd)] shrinks around the root at every evaluation, and a
    Newton step that leaves it, or that follows an evaluation which did not
    halve it (as steps bouncing between its ends do), is replaced by
    bisection.  An entry is frozen once |F(q) - p| < QUANTILE_TOL, or once
    its bracket leaves no float between its ends; each iteration evaluates
    the CDF and the density of the entries still open, for all
    probabilities at once.  An entry still open after 200 raises.
    """
    k, n = len(probs), mus.shape[1]
    sds = np.maximum(sds, 1e-12)
    p = np.repeat(np.asarray(probs, dtype=float), n)
    node = np.tile(np.arange(n), k)
    lo = np.tile(np.min(mus - 10.0 * sds, axis=0), k)
    hi = np.tile(np.max(mus + 10.0 * sds, axis=0), k)
    mean = weights @ mus
    sd = np.sqrt(np.maximum(weights @ (sds**2 + mus**2) - mean**2, 0.0))
    x = np.clip(mean[node] + sd[node] * ndtri(p), lo, hi)
    width = np.full(k * n, np.inf)
    open_ = np.arange(k * n)
    for _ in range(200):
        xa, ca = x[open_], node[open_]
        s = sds[:, ca]
        z = (xa - mus[:, ca]) / s
        r = weights @ ndtr(z) - p[open_]
        dens = weights @ (np.exp(-0.5 * z**2) / s) / np.sqrt(2.0 * np.pi)
        under = r < 0.0
        lo[open_] = lo_a = np.where(under, xa, lo[open_])
        hi[open_] = hi_a = np.where(under, hi[open_], xa)
        # a zero density makes a huge step, which the bracket refuses
        step = xa - r / np.maximum(dens, np.finfo(float).tiny)
        newton = (step > lo_a) & (step < hi_a)
        newton &= hi_a - lo_a <= 0.5 * width[open_]
        width[open_] = hi_a - lo_a
        nxt = np.where(newton, step, 0.5 * (lo_a + hi_a))
        moving = (np.abs(r) >= QUANTILE_TOL) & (nxt != xa)
        open_ = open_[moving]
        if open_.size == 0:
            break
        x[open_] = nxt[moving]
    else:
        raise InferenceError("mixture quantiles did not converge")
    return x.reshape(k, n)


def latent_marginals(points):
    """Mixture summaries for every latent node: mean, sd, central quantiles."""
    weights = np.array([pt.weight for pt in points])
    mus = np.stack([pt.approx.mode for pt in points])
    sds = np.stack([pt.approx.marginal_sd() for pt in points])
    mean = weights @ mus
    second = weights @ (sds**2 + mus**2)
    var = np.maximum(second - mean**2, 0.0)
    qs = _mixture_quantiles(mus, sds, weights, [0.025, 0.5, 0.975])
    return {
        "mean": mean,
        "sd": np.sqrt(var),
        "q025": qs[0],
        "q50": qs[1],
        "q975": qs[2],
    }


def _natural_grid_summary(theta_grid_internal, logpost, coord):
    """Normalized natural-scale density from internal-scale log posterior
    values along one coordinate, plus mode, mean and central quantiles."""
    order = np.argsort(theta_grid_internal)
    v = np.asarray(theta_grid_internal, dtype=float)[order]
    lp = np.asarray(logpost, dtype=float)[order]
    to_nat, _, logjac = TRANSFORMS[coord.transform]
    x = to_nat(v)
    # density transported to the natural axis
    logd = lp - logjac(v)
    logd -= np.max(logd)
    dens = np.exp(logd)
    area = np.trapezoid(dens, x)
    dens = dens / area
    i = int(np.argmax(dens))
    if 0 < i < len(x) - 1:
        # parabolic refinement of the mode through the top three points,
        # on the log scale where they are finite even if their density
        # underflows
        x0, x1, x2 = x[i - 1], x[i], x[i + 1]
        d0, d1g, d2g = logd[i - 1 : i + 2]
        denom = (x1 - x0) * (d1g - d2g) - (x1 - x2) * (d1g - d0)
        if abs(denom) > 1e-300:
            mode = x1 - 0.5 * (
                (x1 - x0) ** 2 * (d1g - d2g) - (x1 - x2) ** 2 * (d1g - d0)
            ) / denom
        else:
            mode = x[i]
    else:
        mode = x[i]
    mean = np.trapezoid(dens * x, x)
    cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(x))]
    )
    cdf /= cdf[-1]
    quantiles = np.interp([0.025, 0.5, 0.975], cdf, x)
    return {
        "grid": x,
        "density": dens,
        "log_density_internal": lp,
        "grid_internal": v,
        "mode": float(mode),
        "mean": float(mean),
        "q025": float(quantiles[0]),
        "q50": float(quantiles[1]),
        "q975": float(quantiles[2]),
    }


def hyper_marginals(hyper, points, mode, hessian):
    """Per-hyper marginal grids on the natural scale.

    One free hyper: the exploration grid itself.  Several: profile scans
    along each coordinate, the others following the conditional quadratic
    ridge, which matches the Gaussian-mixture marginal when the posterior is
    close to Gaussian.  ``optimize_theta``'s ``mode`` gives the scans their
    reference lp and their warm start, so it is not solved again.  Fixed
    hypers yield degenerate one-point grids.  A scan step outside the hyper
    box counts as a failed evaluation; a free coordinate whose grid keeps
    only the mode raises ``InferenceError``.
    """
    th0, lp0, approx0 = _checked_mode(mode)
    model, out = hyper.model, {}

    def summary(grid, lps, coord):
        if len(grid) == 1:
            # a one-point grid has zero area: no density to normalize
            raise InferenceError(
                f"the marginal grid of hyper {coord.name!r} kept only the "
                "mode: every other point failed or left the hyper box",
                best=th0,
            )
        return _natural_grid_summary(grid, lps, coord)

    for coord in model.hyper_coords:
        if coord.is_fixed:
            val = float(coord.spec.parameters[0])
            out[coord.name] = {
                "grid": np.array([val]),
                "density": np.array([np.inf]),
                "mode": val,
                "mean": val,
                "q025": val,
                "q50": val,
                "q975": val,
                "fixed": True,
            }
    if hyper.dim == 1:
        coord = model.hyper_coords[hyper.free[0]]
        grid = [pt.theta_internal[hyper.free[0]] for pt in points]
        lps = [pt.log_unnorm_posterior for pt in points]
        out[coord.name] = summary(grid, lps, coord)
        return out

    if hyper.dim >= 2:
        Hinv = np.linalg.inv(hessian)
        u_mode = hyper.to_u(th0)

        for j in range(hyper.dim):
            coord = model.hyper_coords[hyper.free[j]]
            sd_j = float(np.sqrt(max(Hinv[j, j], 1e-12)))
            others = [t for t in range(hyper.dim) if t != j]
            Hoo = hessian[np.ix_(others, others)]
            Hoj = hessian[np.ix_(others, [j])].ravel()
            try:
                ridge_dir = np.linalg.solve(Hoo, -Hoj)
            except np.linalg.LinAlgError:
                ridge_dir = np.zeros(len(others))

            def on_ridge(delta):
                u = u_mode.copy()
                u[j] += delta
                u[others] += ridge_dir * delta
                return u

            us, lps = [u_mode[j]], [lp0]
            for sign in (1.0, -1.0):
                steps = hyper.walk(
                    lambda k: on_ridge(sign * k * SCAN_STEP * sd_j),
                    lp0, SCAN_DROP, SCAN_MAX_STEPS, approx0.mode,
                )
                for th, lp, _ in steps:
                    if np.isfinite(lp):
                        us.append(th[hyper.free[j]])
                        lps.append(lp)
            out[coord.name] = summary(us, lps, coord)
    return out


def fit_model(model):
    """Run the full pipeline: mode search, exploration, marginals.

    A fit is a function of the model alone: every stage setting is a
    module constant, and the mode search's budget follows the number of
    free hypers (``_search_budget``).

    ``diagnostics["evaluations"]`` counts the mode search's points and
    ``diagnostics["laplace_calls"]`` the points the fit's one
    ``HyperEvaluator`` evaluated over all four stages, failures included.
    """
    hyper = HyperEvaluator(model)
    timings = {}
    t0 = time.perf_counter()
    mode, hessian, opt_info = optimize_theta(hyper)
    timings["optimize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    points = explore_theta(hyper, mode, hessian)
    timings["explore"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    latent = latent_marginals(points)
    timings["latent_marginals"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    grids = hyper_marginals(hyper, points, mode, hessian)
    timings["hyper_marginals"] = time.perf_counter() - t0

    hyper_summary = {
        name: {
            key: g[key] for key in ("mode", "mean", "q025", "q50", "q975")
        }
        for name, g in grids.items()
    }
    diagnostics = {
        "evaluations": opt_info["evaluations"],
        "laplace_calls": hyper.count,
        "optimizer_message": opt_info["optimizer_message"],
        "newton_iterations_max": max(pt.approx.iterations for pt in points),
        "points": len(points),
        "timings": timings,
    }
    return FitResult(
        model=model,
        points=points,
        theta_mode_internal=mode[0],
        theta_mode=model.theta_natural(mode[0]),
        hessian=hessian,
        latent_summary=latent,
        hyper_summary=hyper_summary,
        hyper_grids=grids,
        diagnostics=diagnostics,
    )
