"""Laplace-approximation engine for latent Gaussian models.

The posterior factorizes as p(w, theta | y): for each hyper vector theta the
latent conditional is approximated by a Gaussian at its mode (Newton with
step halving, linear constraints enforced by conditioning-by-kriging), and
the hyper posterior is the Laplace ratio evaluated at that mode.  The hyper
space is explored with a grid in the Hessian eigenbasis when it is small and
a spherical central-composite design otherwise; latent marginals are
Gaussian mixtures over the exploration points.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, eigh
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotrs, dtbtrs, dtrtrs
from scipy.optimize import minimize
from scipy.special import ndtr

from .likelihoods import lavm_curvature_floor, loglik
from .model import AssembledModel, NewtonSystem
from .priors import TRANSFORMS

__all__ = [
    "GaussianApprox",
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


class _BandArrowFactor:
    """Cholesky factor of Q* in the band + arrow layout of
    ``ModelStructure``, conditioned on the model's constraints C w = 0 by
    kriging (Rue & Held 2005, 2.3.3).

    Q* = [[A, B], [B', D]] with A the banded component block in band order,
    B the cross block and D the fixed-effect arrow.  Holds the band factor
    L_A of A, X = A^{-1} B and the Cholesky factor L_S of the Schur
    complement D - B'X, so the factored matrix is L L' with
    L = [[L_A, 0], [X' L_A, L_S]] and ``half_logdet`` = log det L.  When C
    has rows ``_factor_spd`` sets ``QinvCt`` = Q^{-1} C', ``S_chol`` =
    chol(C Q^{-1} C') and the constrained half log determinant
    ``det_half`` = half_logdet + (log det(C Q^{-1} C') - log det(C C'))/2."""

    def __init__(self, structure, data, band, X, schur, half_logdet):
        self.structure = structure
        self.data = data
        self.band = band
        self.X = X
        self.schur = schur
        self.half_logdet = half_logdet
        self.det_half = half_logdet
        self.C = self.QinvCt = self.S_chol = None

    def solve(self, b):
        """The factored matrix's inverse applied to a vector or to the
        columns of a matrix."""
        order = self.structure.order
        n_body = order.size
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        head = b[order]
        y = dpbtrs(self.band, head, lower=1)[0] if n_body else head
        if self.schur.shape[0]:
            rhs = b[n_body:] - self.X.T @ head
            tail = dpotrs(self.schur, rhs, lower=1)[0]
            y = y - self.X @ tail
            x[n_body:] = tail
        x[order] = y
        return x

    def solve_lt(self, z):
        """L^{-T} z for the columns of z, returned in latent order.

        U = solve_lt(I) satisfies U U' = the factored matrix's inverse, so
        its row norms are the marginal variances and standard normal
        columns map to draws with that covariance (Rue & Held 2005, ch. 2).
        The tail solves L_S' t = z_tail; the head is L_A^{-T} z_head - X t.
        """
        order = self.structure.order
        n_body = order.size
        x = np.empty_like(z, dtype=float)
        head = z[:n_body]
        if n_body:
            head = dtbtrs(self.band, head, uplo="L", trans="T")[0]
        if self.schur.shape[0]:
            tail = dtrtrs(self.schur, z[n_body:], lower=1, trans=1)[0]
            head -= self.X @ tail
            x[n_body:] = tail
        x[order] = head
        return x

    def _s_solve(self, b):
        """(C Q^{-1} C')^{-1} b: LAPACK's dpotrs on ``S_chol``, the call
        ``cho_solve`` makes, without its finiteness checks of both
        operands; ``_factor_spd`` validated the factor when it made it."""
        c, lower = self.S_chol
        return dpotrs(c, b, lower=lower)[0]

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
        U = self.solve_lt(np.eye(self.structure.qstar.shape[0]))
        var = np.einsum("ij,ij->i", U, U)
        if self.C is not None:
            corr = self._s_solve(self.QinvCt.T)
            var = var - np.einsum("ij,ji->i", self.QinvCt, corr)
        return np.sqrt(np.maximum(var, 0.0))

    def matrix(self):
        """The factored matrix as a csc matrix."""
        return self.structure.qstar_matrix(self.data)


def _cholesky(band, cross, arrow):
    """Band + arrow Cholesky of pieces laid out by
    ``ModelStructure.band_arrow``, overwriting band, as (band factor, X,
    Schur factor, half log determinant); None when the matrix is not
    numerically positive definite."""
    X, half_logdet = cross, 0.0
    if band.shape[1]:
        band, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info:
            return None
        half_logdet += float(np.sum(np.log(band[0])))
        if arrow.shape[0]:
            X = dpbtrs(band, cross, lower=1)[0]
            arrow = arrow - cross.T @ X
    if arrow.shape[0]:
        arrow, info = dpotrf(arrow, lower=1, overwrite_a=1)
        if info:
            return None
        half_logdet += float(np.sum(np.log(np.diag(arrow))))
    if not np.isfinite(half_logdet):
        return None
    return band, X, arrow, half_logdet


def _factor_spd(structure, data, C=None):
    """The ``_BandArrowFactor`` of the symmetric positive definite Q* given
    by its stored values on the model's fixed pattern (``structure`` is
    ``AssembledModel.structure``), conditioned on C w = 0 when C has rows.

    The component block is a band in the structure's reverse Cuthill-McKee
    order, factored by LAPACK's band Cholesky (dpbtrf); the fixed-effect
    arrow is eliminated by a dense Cholesky (dpotrf) of its Schur
    complement (Rue & Held 2005, ch. 2).  A non-positive pivot reported by
    LAPACK or a non-finite log determinant means not positive definite.

    With constraints the kriging pieces Q^{-1}C' and chol(C Q^{-1} C') are
    validated as part of the positive definiteness test.  C must be the
    model's constraint matrix, from which the structure's log det(C C') was
    made.  Q* singular along C's rows is not positive definite either,
    although the constrained conditional is proper: ``build_model`` rejects
    the models where that holds at every theta, and a theta where it holds
    (a scale hyper at or near 0, so that an intrinsic component's null
    space meets no likelihood curvature) is a failed evaluation.
    """
    factored = _cholesky(*structure.band_arrow(data))
    if factored is None:
        raise InferenceError("conditional precision is not positive definite")
    factor = _BandArrowFactor(structure, data, *factored)
    if C is None or C.shape[0] == 0:
        return factor
    QinvCt = factor.solve(np.asarray(C.T, dtype=float))
    if not np.all(np.isfinite(QinvCt)):
        raise InferenceError("conditional precision is not positive definite")
    S = C @ QinvCt
    try:
        S_chol = cho_factor(0.5 * (S + S.T))
    except (np.linalg.LinAlgError, ValueError):
        raise InferenceError(
            "conditional precision is not positive definite"
        ) from None
    factor.C, factor.QinvCt, factor.S_chol = C, QinvCt, S_chol
    logdet_S = 2.0 * float(np.sum(np.log(np.diag(S_chol[0]))))
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
    """Value, d1 and the negative second derivatives of the block
    log-likelihood, from the block's ``response_terms``; the curvatures are
    floored so the assembled system stays positive definite.  The floor is
    evaluated only on the entries that take it."""
    value, d1, d2 = loglik(blk.family, blk.responses, eta, hyper,
                           response=response)
    c = -d2
    bad = c < CURVATURE_MIN
    if bad.any():
        if blk.family == "lavm":
            c[bad] = -lavm_curvature_floor(eta[bad], hyper)
        else:
            c[bad] = CURVATURE_MIN
    return value, d1, c


class GaussianApprox:
    """Gaussian approximation of p(w | theta, y) at the constrained mode.

    ``factor`` is ``_factor_spd``'s constrained factor of Q* at the mode:
    ``det_half`` is its constrained half log determinant, which the Laplace
    ratio reads with ``loglik_sum``, ``prior_quad`` and ``prior_log_gdet``;
    the marginal sds and the draws are its too.  ``Q`` is built as csc only
    when asked.
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
        self._Q = None
        self._marginal_sd = None

    @property
    def Q(self):
        """The factored conditional precision at the mode, a csc matrix
        built on first use."""
        if self._Q is None:
            self._Q = self.factor.matrix()
        return self._Q

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


def gaussian_approx(model, theta, init_w=None, tol=1e-8, max_iter=100):
    """Newton iteration for the conditional latent mode at natural hyper
    values theta, with step halving and kriging-corrected constraints.

    Each step works on value arrays over the model's fixed patterns
    (``AssembledModel.structure``, through ``NewtonSystem``): predictors
    and gradients are bincount matrix-vector products, Q*'s values are
    filled into its fixed pattern, and ``_factor_spd`` factorizes them in
    the band + arrow layout.  No sparse matrix is built in the loop; the
    returned approximation builds its csc ``Q`` only when asked.  The
    converged iterate's values, factor and log-likelihood sum are the ones
    returned; they are recomputed only when the final constraint projection
    moves the mode.

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
    - stall: neither the Newton step nor the gradient fallback step
      increases the objective;
    - iteration limit: no convergence within ``max_iter`` iterations.

    ``_factor_spd`` raises it too when the conditional precision is not
    positive definite.
    """
    n = model.latent_dim
    C = model.constraints
    k = C.shape[0]
    structure = model.structure
    system = NewtonSystem(structure, theta)
    hypers = {
        name: (theta[blk.hyper] if blk.hyper else None)
        for name, blk in model.blocks.items()
    }

    def evaluate(w):
        """Objective at w, plus what a Newton step from w needs: Q_p w and
        per block the loglik sum, d1 and floored curvature."""
        qw, parts = system.prior_times(w), {}
        f = -0.5 * float(w @ qw)
        for name, blk in model.blocks.items():
            eta = system.predictor(name, w)
            value, d1, c = _curvatures(
                blk, eta, hypers[name], structure.responses[name]
            )
            parts[name] = (float(value.sum()), d1, c)
            f += parts[name][0]
        return f, (qw, parts)

    def assemble(at):
        qw, parts = at
        grad = -qw
        for name, (_, d1, _) in parts.items():
            grad = grad + system.transpose_times(name, d1)
        return grad, system.values({name: p[2] for name, p in parts.items()})

    def project(v):
        """v's Euclidean projection onto the constraint set C v = 0."""
        return v - C.T @ np.linalg.solve(structure.constraint_cct, C @ v)

    w = np.zeros(n) if init_w is None else np.asarray(init_w, dtype=float).copy()
    if k and np.max(np.abs(C @ w)) > 1e-9:
        w = project(w)

    f_w, at_w = evaluate(w)
    iterations = 0
    dec_hist, f_hist = [], []
    for iterations in range(1, max_iter + 1):
        grad, q_data = assemble(at_w)
        factor = None
        g_proj = project(grad) if k else grad
        if np.abs(g_proj).max() < tol:
            iterations -= 1
            break
        factor = _factor_spd(structure, q_data, C)
        step = factor.constrain(w + factor.solve(grad)) - w

        # the decrement g'H^{-1}g has objective units, so this catches the
        # point where |grad| is dominated by roundoff at large data scales
        decrement = float(g_proj @ step)
        if decrement < 1e-14 * (1.0 + abs(f_w)):
            iterations -= 1
            break
        dec_hist.append(decrement)
        f_hist.append(f_w)
        if (
            iterations >= 24
            and dec_hist[-1] > 0.5 * dec_hist[-13]
            and f_w - f_hist[-13] < 1e-9 * (1.0 + abs(f_w))
        ):
            # healthy Newton contracts the decrement superlinearly; a flat
            # decrement with no objective gain means a march across a
            # pathological plateau, seen at absurd hyper values during
            # optimizer line searches (strongly saturated links make real
            # ascents slow, hence the objective condition)
            raise InferenceError(
                "Newton iteration is not contracting",
                best=w,
                diagnostics={"iterations": iterations, "decrement": decrement},
            )

        t, improved = 1.0, False
        for _ in range(21):
            f_new, at_new = evaluate(w + t * step)
            if np.isfinite(f_new) and f_new >= f_w - 1e-14:
                improved = True
                break
            t *= 0.5
        if not improved:
            if decrement < 1e-7 * (1.0 + abs(f_w)):
                # predicted gain is below the objective's roundoff; done
                break
            # quadratic model failed outright; fall back to one gradient step
            diag_max = float(np.max(q_data[structure.diag_pos]))
            step = g_proj / max(diag_max, 1.0)
            t = 1.0
            for _ in range(21):
                f_new, at_new = evaluate(w + t * step)
                if np.isfinite(f_new) and f_new > f_w:
                    improved = True
                    break
                t *= 0.5
            if not improved:
                raise InferenceError(
                    "Newton iteration stalled before reaching tolerance",
                    best=w,
                    diagnostics={"iterations": iterations, "grad": g_proj},
                )
        w = w + t * step
        f_w, at_w = f_new, at_new
    else:
        raise InferenceError(
            "Newton did not converge within the iteration limit",
            best=w,
            diagnostics={"iterations": max_iter},
        )

    if k:
        # settle roundoff left by the kriging corrections; the move is far
        # below mode accuracy but keeps C @ mode at machine zero
        settled = project(w)
        if not np.array_equal(settled, w):
            w = settled
            _, at_w = evaluate(w)
            _, q_data = assemble(at_w)
            factor = None
    if factor is None:
        factor = _factor_spd(structure, q_data, C)

    qw, parts = at_w
    loglik_sum = 0.0
    for block_sum, _, _ in parts.values():
        loglik_sum += block_sum
    return GaussianApprox(
        mode=w,
        factor=factor,
        loglik_sum=loglik_sum,
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
    return _laplace_ratio(model, theta_internal, approx), approx


def _laplace_ratio(model, theta_internal, approx):
    """``log_posterior_theta``'s value from an approximation already solved
    at theta_internal: no Newton solve."""
    lp = (
        model.logprior_internal(theta_internal)
        + 0.5 * approx.prior_log_gdet
        + approx.prior_quad
        + approx.loglik_sum
        - approx.det_half
    )
    return float(lp)


@dataclass
class ThetaPoint:
    theta_internal: np.ndarray
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


class _HyperEvaluator:
    """Laplace evaluations of the hyper posterior at free coordinates ``u``,
    under the rules every hyper stage shares.  Fixed hypers are pinned at
    their values and the free ones are searched on their internal axes.

    Internal coordinates beyond +-30 are numerically degenerate for every
    transform in use (exp overflow, saturated correlations), so a point not
    inside that box (NaN is not) is a failed evaluation and is not solved.
    An evaluation warm-starts from ``w``, the latent mode of the last
    success (a stage may set it); a failed warm start is retried cold once,
    and a failed cold start is deterministic, so it is not repeated.
    ``count`` is the number of points evaluated, failures included, and
    ``best`` the (lp, theta_internal, approx) of the highest success.
    """

    BOX = 30.0

    def __init__(self, model):
        self.model = model
        self.base = model.initial_internal()
        self.free = np.array(
            [i for i, c in enumerate(model.hyper_coords) if not c.is_fixed],
            dtype=int,
        )
        self.dim = self.free.size
        self.w = None
        self.count = 0
        self.best = (-np.inf, None, None)

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
        if lp > self.best[0]:
            self.best = (lp, theta, approx)
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


def optimize_theta(model, init=None, grad_step=1e-4, tol=1e-5,
                   max_evals=200, hessian_step=0.05):
    """Quasi-Newton search for the hyper posterior mode with central
    difference gradients; returns (theta_mode_internal, hessian_u, info).

    L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) minimizes -lp/s with
    s = max(1, |grad lp(u0)|_inf), the start point's gradient that the
    search needs anyway (it is handed back as the first evaluation, so the
    scaling costs none).  Its first step goes to the Cauchy point of a
    unit-Hessian model, so scaling bounds that step to one internal unit
    per coordinate instead of |grad lp(u0)|, which otherwise lands on the
    +-30 box corner.  ``tol`` is divided by s, so the projected-gradient
    test still reads |grad lp| <= tol.  A failed evaluation, a gradient
    probe outside the box included, reads as a -1e10 wall.

    The mode is the best point evaluated.  The Hessian, in the
    free-coordinate basis, is a central-difference stencil around it: its
    centre value is that evaluation's lp and its first point warm-starts
    from that evaluation's latent mode, so the mode is not solved again.
    A failed stencil evaluation raises ``InferenceError`` with the mode as
    ``best``, since it has no value to enter the Hessian with.
    ``info["mode_approx"]`` is that evaluation's ``GaussianApprox`` (None
    when no hyper is free), for ``explore_theta``'s ``center``.  Only the
    search's evaluations count against ``max_evals``, not the stencil's.
    """
    hyper = _HyperEvaluator(model)
    m = hyper.dim
    if m == 0:
        th = hyper.to_full(np.zeros(0))
        return th, np.zeros((0, 0)), {"evaluations": 0, "mode_approx": None}

    u0 = hyper.to_u(model.initial_internal() if init is None else init)
    u0 = np.clip(u0, -hyper.BOX, hyper.BOX)

    def neg(u):
        if hyper.count >= max_evals:
            raise InferenceError(
                "hyper optimization exceeded its evaluation budget",
                best=hyper.best[1],
                diagnostics={"evaluations": hyper.count},
            )
        _, lp, approx = hyper(u)
        # usually a wild line search excursion: a steep wall, not an abort
        return 1e10 if approx is None else -lp

    def neg_and_grad(u):
        f = neg(u)
        g = np.zeros(m)
        for i in range(m):
            e = np.zeros(m)
            e[i] = grad_step
            g[i] = (neg(u + e) - neg(u - e)) / (2.0 * grad_step)
        return f, g

    f_start, g_start = neg_and_grad(u0)
    scale = max(1.0, float(np.max(np.abs(g_start))))

    def scaled(u):
        # L-BFGS-B evaluates the start point first: already paid for
        if np.array_equal(u, u0):
            f, g = f_start, g_start
        else:
            f, g = neg_and_grad(u)
        return f / scale, g / scale

    res = minimize(
        scaled,
        u0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(-hyper.BOX, hyper.BOX)] * m,
        options={"gtol": tol / scale, "maxiter": 1000, "ftol": 1e-12},
    )
    lp_mode, theta_mode, approx_mode = hyper.best
    if theta_mode is None:
        # every evaluation hit the -1e10 wall, so the optimizer's answer
        # is the start point and its curvature is flat
        raise InferenceError(
            "no successful Laplace evaluation during hyper optimization",
            diagnostics={"evaluations": hyper.count},
        )
    evaluations = hyper.count
    # the best point actually evaluated; the optimizer's final iterate
    # can sit on a failed-evaluation wall after an aggressive line search
    u_mode = hyper.to_u(theta_mode)
    hyper.w = approx_mode.mode

    def stencil_neg(u):
        # a stencil point has no wall to fall back on: a failed evaluation
        # would enter the Hessian as a real value
        th, lp, approx = hyper(u)
        if approx is None:
            raise InferenceError(
                "Laplace evaluation failed in the Hessian stencil",
                best=theta_mode,
                diagnostics={"theta": th},
            )
        return -lp

    h = hessian_step
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

    info = {
        "evaluations": evaluations,
        "optimizer_message": str(res.message),
        "mode_approx": approx_mode,
    }
    return theta_mode, H, info


def _spd_directions(H, step):
    """Axis vectors in u-space: eigen directions scaled to `step` posterior
    standard deviations; non-positive curvature falls back to unit scale."""
    vals, vecs = eigh(H)
    vals = np.where(vals > 1e-8, vals, 1.0)
    return vecs * (step / np.sqrt(vals)), vals, vecs


def explore_theta(model, theta_mode_internal, hessian, step=0.75, drop=5.0,
                  ccd_radius=1.1, max_steps=10, center=None):
    """Weighted hyper-space point set around the mode.

    Free dimension up to 2: centered product grid in the Hessian eigenbasis
    (spacing `step` standard deviations).  Each axis is walked both ways
    from the mode until the log posterior falls `drop` below the mode's, and
    spans the longer walk's extent on both sides.  The probes that set the
    extents are kept by integer offset and reused as grid points, each
    reused point's latent mode becoming the next warm start, so a grid point
    is evaluated only when no probe reached it.  Higher dimensions: a
    spherical central-composite design with axial (and, up to dimension 6,
    corner) points at radius ccd_radius * sqrt(dim).  A point outside the
    hyper box counts as a failed evaluation: it ends a grid axis, or leaves
    the CCD.

    ``center``, when given, is the ``GaussianApprox`` at the mode (as
    ``optimize_theta`` returns it in ``info["mode_approx"]``); it is used
    like ``log_posterior_theta``'s ``approx``, so the mode costs no Newton
    solve.  The result always holds the mode as one of its points.
    """
    hyper = _HyperEvaluator(model)
    m = hyper.dim
    u_mode = hyper.to_u(theta_mode_internal)
    if center is None:
        th0, lp0, approx0 = hyper(u_mode)
    else:
        th0, approx0 = hyper.to_full(u_mode), center
        lp0 = _laplace_ratio(model, th0, center)
    if approx0 is None:
        raise InferenceError(
            "latent approximation failed at the hyper mode",
            best=theta_mode_internal,
        )
    if m == 0:
        return [ThetaPoint(th0, lp0, 1.0, approx0)]

    axes, _, _ = _spd_directions(hessian, step)

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
                    lp0, drop, max_steps, approx0.mode,
                )
                for k, probe in enumerate(steps, 1):
                    reached[tuple((sign * k * unit[i]).tolist())] = probe
                # the walk ends on its first drop: the steps before it reach
                ext = max(ext, sum(not lp < lp0 - drop for _, lp, _ in steps))
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
            zs.extend(ccd_radius * corners)
        r = ccd_radius * np.sqrt(m)
        for i in range(m):
            e = np.zeros(m)
            e[i] = r
            zs.extend([e, -e])
        np_pts = len(zs)
        w0 = np_pts * (ccd_radius**2 - 1.0) * np.exp(-0.5 * m * ccd_radius**2)
        points[0][2] = w0
        for z in zs:
            th, lp, approx = hyper(u_mode + axes @ (z / step))
            if approx is not None:
                points.append([th, lp, 1.0, approx])

    lps = np.array([p[1] for p in points])
    design = np.array(
        [1.0 if p[2] is None else p[2] for p in points]
    )
    raw = design * np.exp(lps - np.max(lps))
    weights = raw / np.sum(raw)
    return [
        ThetaPoint(p[0], p[1], float(wt), p[3])
        for p, wt in zip(points, weights)
    ]


def _mixture_quantiles(mus, sds, weights, probs, tol=1e-8):
    """Quantiles of per-node Gaussian mixtures, bisection in probability.

    mus, sds: arrays (points, nodes); weights: (points,); probs: list.
    """
    n = mus.shape[1]
    sds = np.maximum(sds, 1e-12)
    out = np.empty((len(probs), n))
    lo0 = np.min(mus - 10.0 * sds, axis=0)
    hi0 = np.max(mus + 10.0 * sds, axis=0)

    def cdf(x):
        z = (x[None, :] - mus) / sds
        return np.einsum("p,pn->n", weights, ndtr(z))

    for qi, p in enumerate(probs):
        lo, hi = lo0.copy(), hi0.copy()
        mid = 0.5 * (lo + hi)
        for _ in range(200):
            c = cdf(mid)
            under = c < p
            lo = np.where(under, mid, lo)
            hi = np.where(under, hi, mid)
            if np.max(np.abs(c - p)) < tol:
                break
            mid = 0.5 * (lo + hi)
        out[qi] = mid
    return out


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


def hyper_marginals(model, points, theta_mode_internal, hessian,
                    scan_step=0.5, scan_drop=6.0, max_steps=14):
    """Per-hyper marginal grids on the natural scale.

    One free hyper: the exploration grid itself.  Several: profile scans
    along each coordinate, the others following the conditional quadratic
    ridge, which matches the Gaussian-mixture marginal when the posterior is
    close to Gaussian.  The scans start from the entry of ``points`` at
    ``theta_mode_internal`` (``explore_theta``'s result always holds it):
    its lp is the scans' reference and its latent mode their warm start,
    so the mode is not solved again.  Fixed hypers yield degenerate
    one-point grids.  A scan step outside the hyper box counts as a failed
    evaluation; a free coordinate whose grid keeps only the mode raises
    ``InferenceError``.
    """
    hyper = _HyperEvaluator(model)
    out = {}

    def summary(grid, lps, coord):
        if len(grid) == 1:
            # a one-point grid has zero area: no density to normalize
            raise InferenceError(
                f"the marginal grid of hyper {coord.name!r} kept only the "
                "mode: every other point failed or left the hyper box",
                best=theta_mode_internal,
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
        u_mode = hyper.to_u(theta_mode_internal)
        at_mode = [
            pt for pt in points
            if np.array_equal(hyper.to_u(pt.theta_internal), u_mode)
        ]
        if not at_mode:
            raise ValueError(
                "points hold no evaluation at theta_mode_internal; pass "
                "explore_theta's result for that mode"
            )
        lp0 = at_mode[0].log_unnorm_posterior
        w_mode = at_mode[0].approx.mode

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
                    lambda k: on_ridge(sign * k * scan_step * sd_j),
                    lp0, scan_drop, max_steps, w_mode,
                )
                for th, lp, _ in steps:
                    if np.isfinite(lp):
                        us.append(th[hyper.free[j]])
                        lps.append(lp)
            out[coord.name] = summary(us, lps, coord)
    return out


def fit_model(model, *, max_evals=200, explore_step=0.75):
    """Run the full pipeline: mode search, exploration, marginals.

    ``max_evals`` is ``optimize_theta``'s evaluation budget and
    ``explore_step`` ``explore_theta``'s grid spacing; every other setting
    is its stage function's default.
    """
    timings = {}
    t0 = time.perf_counter()
    theta_mode, hessian, opt_info = optimize_theta(model, max_evals=max_evals)
    timings["optimize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    points = explore_theta(
        model, theta_mode, hessian,
        step=explore_step, center=opt_info["mode_approx"],
    )
    timings["explore"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    latent = latent_marginals(points)
    timings["latent_marginals"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    grids = hyper_marginals(model, points, theta_mode, hessian)
    timings["hyper_marginals"] = time.perf_counter() - t0

    hyper_summary = {
        name: {
            key: g[key] for key in ("mode", "mean", "q025", "q50", "q975")
        }
        for name, g in grids.items()
    }
    diagnostics = {
        "evaluations": opt_info.get("evaluations", 0),
        "newton_iterations_max": max(pt.approx.iterations for pt in points),
        "points": len(points),
        "timings": timings,
    }
    return FitResult(
        model=model,
        points=points,
        theta_mode_internal=theta_mode,
        theta_mode=model.theta_natural(theta_mode),
        hessian=hessian,
        latent_summary=latent,
        hyper_summary=hyper_summary,
        hyper_grids=grids,
        diagnostics=diagnostics,
    )
