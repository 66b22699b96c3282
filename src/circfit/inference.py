"""Laplace-approximation engine for latent Gaussian models.

The posterior factorizes as p(w, theta | y): for each hyper vector theta the
latent conditional is approximated by a Gaussian at its mode (Newton with
step halving, linear constraints enforced by conditioning-by-kriging), and
the hyper posterior is the Laplace ratio evaluated at that mode.  The hyper
space is explored with a grid in the Hessian eigenbasis when it is small and
a spherical central-composite design otherwise; latent marginals are
Gaussian mixtures over the exploration points.

Constrained determinants: adding any multiple of C'C to the precision leaves
log det(Q) + log det(C Q^{-1} C') unchanged (matrix determinant lemma), and
that combination is exactly what the conditional Gaussian density needs, so
when Q is not positive definite the solver factorizes the ridged matrix
Q + c*C'C instead, which is positive definite even when the likelihood
contributes no curvature along the constrained directions.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve, eigh
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
    """Cholesky factor of Q* (plus rho C'C when ``ridge`` is (rho, C)) in
    the band + arrow layout of ``ModelStructure``: Q* = [[A, B], [B', D]] with A the
    banded component block in band order, B the cross block and D the
    fixed-effect arrow.  Holds the band factor L_A of A, X = A^{-1} B and
    the Cholesky factor L_S of the Schur complement D - B'X, so the factored
    matrix is L L' with L = [[L_A, 0], [X' L_A, L_S]]."""

    def __init__(self, structure, data, ridge, band, X, schur):
        self.structure = structure
        self.data = data
        self.ridge = ridge
        self.band = band
        self.X = X
        self.schur = schur

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
            head = head - self.X @ tail
            x[n_body:] = tail
        x[order] = head
        return x

    def matrix(self):
        """The factored matrix as a csc matrix."""
        Q = self.structure.qstar_matrix(self.data)
        if self.ridge is not None:
            rho, C = self.ridge
            Q = sparse.csc_matrix(Q + rho * sparse.csc_matrix(C.T @ C))
        return Q


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
    """Cholesky factorization of the symmetric positive definite Q* given
    by its stored values on the model's fixed pattern (``structure`` is
    ``AssembledModel.structure``), returning (factor, half log determinant,
    QinvCt, S_chol).  ``factor.solve`` applies the inverse of the matrix
    factored, ``factor.solve_lt`` the transposed inverse of its Cholesky
    factor (marginal variances and sampling), and ``factor.matrix()``
    builds that matrix as csc.

    The component block is a band in the structure's reverse Cuthill-McKee
    order, factored by LAPACK's band Cholesky (dpbtrf); the fixed-effect
    arrow is eliminated by a dense Cholesky (dpotrf) of its Schur
    complement (Rue & Held 2005, ch. 2).  A non-positive pivot reported by
    LAPACK or a non-finite log determinant means not positive definite.

    With constraints the Schur pieces Q^{-1}C' and chol(C Q^{-1} C') come
    back too, validated as part of the positive definiteness test.  If Q is
    only positive definite on the constraint complement (for example when a
    scale hyper passes through zero and an intrinsic component loses all
    likelihood curvature), retry on Q + rho C'C with rho the mean diagonal
    of Q (at least 1): the determinant combination used downstream is
    invariant to that change, and the conditional distribution on the
    constraint set is untouched.  C'C is dense over a constrained
    component's nodes, so the retry runs the same band routine at the full
    body bandwidth (``ModelStructure.ridged_band_arrow``: Q*'s values are
    scattered at that width and rho times C'C's stored split is added).  C
    must be the model's constraint matrix, which that split was made from.
    """
    constrained = C is not None and C.shape[0] > 0
    for ridged in (False, True) if constrained else (False,):
        ridge = None
        if ridged:
            rho = max(float(np.mean(structure.diagonal(data))), 1.0)
            ridge = (rho, C)
            pieces = structure.ridged_band_arrow(data, rho)
        else:
            pieces = structure.band_arrow(data)
        factored = _cholesky(*pieces)
        if factored is None:
            continue
        *kept, half_logdet = factored
        factor = _BandArrowFactor(structure, data, ridge, *kept)
        if not constrained:
            return factor, half_logdet, None, None
        QinvCt = factor.solve(np.asarray(C.T, dtype=float))
        if not np.all(np.isfinite(QinvCt)):
            continue
        S = C @ QinvCt
        try:
            S_chol = cho_factor(0.5 * (S + S.T))
        except (np.linalg.LinAlgError, ValueError):
            continue
        return factor, half_logdet, QinvCt, S_chol
    raise InferenceError("conditional precision is not positive definite")


class InferenceError(RuntimeError):
    """Engine failure with the best point seen so far attached."""

    def __init__(self, message, best=None, diagnostics=None):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics or {}


def _curvatures(blk, eta, hyper):
    """Negative second derivatives of the block log-likelihood, floored so
    the assembled system stays positive definite."""
    value, d1, d2 = loglik(blk.family, blk.responses, eta, hyper)
    c = -d2
    bad = c < CURVATURE_MIN
    if np.any(bad):
        if blk.family == "lavm":
            c = np.where(bad, -lavm_curvature_floor(eta, hyper), c)
        else:
            c = np.where(bad, CURVATURE_MIN, c)
    return value, d1, c


class GaussianApprox:
    """Gaussian approximation of p(w | theta, y) at the constrained mode.

    Everything comes from the band + arrow factor of ``_factor_spd``: the
    mode search and the log determinant, the marginal sds (row norms of
    L^{-T} less the kriging term of the constraints) and the draws (L^{-T}
    applied to standard normals, then conditioned on the constraints).
    ``Q`` is built as csc only when asked.
    """

    def __init__(self, model, theta, mode, factor, det_half,
                 loglik_sum, prior_quad, prior_log_gdet, predictors,
                 iterations, QinvCt=None, S_chol=None):
        self.model = model
        self.theta = theta
        self.mode = mode
        self._factor = factor
        self._Q = None
        self.det_half = det_half
        self.loglik_sum = loglik_sum
        self.prior_quad = prior_quad
        self.prior_log_gdet = prior_log_gdet
        self.predictors = predictors
        self.iterations = iterations
        self._QinvCt = QinvCt
        self._S_chol = S_chol
        self._marginal_sd = None

    @property
    def Q(self):
        """The factored conditional precision at the mode (with the
        constraint ridge when it was needed), a csc matrix built on first
        use."""
        if self._Q is None:
            self._Q = self._factor.matrix()
        return self._Q

    def solve(self, b):
        return self._factor.solve(b)

    def constrain(self, v):
        """Project a vector (or columns) onto the constraint set the way the
        conditional distribution does."""
        if self._QinvCt is None:
            return v
        C = self.model.constraints
        return v - self._QinvCt @ cho_solve(self._S_chol, C @ v)

    def marginal_sd(self):
        """Standard deviations of the constrained conditional, node-wise."""
        if self._marginal_sd is None:
            U = self._factor.solve_lt(np.eye(self.mode.size))
            var = np.einsum("ij,ij->i", U, U)
            if self._QinvCt is not None:
                corr = cho_solve(self._S_chol, self._QinvCt.T)
                var = var - np.einsum("ij,ji->i", self._QinvCt, corr)
            self._marginal_sd = np.sqrt(np.maximum(var, 0.0))
        return self._marginal_sd

    def sample(self, rng, size):
        """Draws from the constrained Gaussian, one row per draw."""
        z = rng.standard_normal((self.mode.size, size))
        u = self.constrain(self._factor.solve_lt(z))
        return (self.mode[:, None] + u).T


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
    positive definite even after the constraint ridge.
    """
    n = model.latent_dim
    C = model.constraints
    k = C.shape[0]
    structure = model.structure
    prior_data, prior_log_gdet = structure.prior_values(theta)
    designs = {
        name: structure.blocks[name].values(theta) for name in model.blocks
    }
    system = NewtonSystem(structure, prior_data, designs)
    hypers = {
        name: (theta[blk.hyper] if blk.hyper else None)
        for name, blk in model.blocks.items()
    }

    def evaluate(w):
        """Objective at w, plus what a Newton step from w needs: Q_p w and
        per block the predictor, loglik sum, d1 and floored curvature."""
        qw, parts = system.prior_times(w), {}
        f = -0.5 * float(w @ qw)
        for name, blk in model.blocks.items():
            eta = system.predictor(name, w)
            value, d1, c = _curvatures(blk, eta, hypers[name])
            parts[name] = (eta, float(np.sum(value)), d1, c)
            f += parts[name][1]
        return f, (qw, parts)

    def assemble(at):
        qw, parts = at
        grad = -qw
        for name, (_, _, d1, _) in parts.items():
            grad = grad + system.transpose_times(name, d1)
        return grad, system.values({name: p[3] for name, p in parts.items()})

    w = np.zeros(n) if init_w is None else np.asarray(init_w, dtype=float).copy()
    if k and np.max(np.abs(C @ w)) > 1e-9:
        w = w - C.T @ np.linalg.solve(C @ C.T, C @ w)

    f_w, at_w = evaluate(w)
    iterations = 0
    dec_hist, f_hist = [], []
    for iterations in range(1, max_iter + 1):
        grad, q_data = assemble(at_w)
        factored = None
        g_proj = grad
        if k:
            g_proj = grad - C.T @ np.linalg.solve(C @ C.T, C @ grad)
        if np.max(np.abs(g_proj)) < tol:
            iterations -= 1
            break
        factored = _factor_spd(structure, q_data, C)
        factor, _, QinvCt, S_chol = factored

        candidate = w + factor.solve(grad)
        if k:
            candidate = candidate - QinvCt @ cho_solve(S_chol, C @ candidate)
        step = candidate - w

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
            diag_max = float(np.max(structure.diagonal(q_data)))
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
        settled = w - C.T @ np.linalg.solve(C @ C.T, C @ w)
        if not np.array_equal(settled, w):
            w = settled
            _, at_w = evaluate(w)
            _, q_data = assemble(at_w)
            factored = None
    if factored is None:
        factored = _factor_spd(structure, q_data, C)
    factor, half_logdet, QinvCt, S_chol = factored
    det_half = half_logdet
    if k:
        logdet_S = 2.0 * float(np.sum(np.log(np.diag(S_chol[0]))))
        logdet_CCt = float(np.linalg.slogdet(C @ C.T)[1])
        det_half = half_logdet + 0.5 * (logdet_S - logdet_CCt)

    qw, parts = at_w
    loglik_sum = 0.0
    for _, block_sum, _, _ in parts.values():
        loglik_sum += block_sum
    return GaussianApprox(
        model=model,
        theta=theta,
        mode=w,
        factor=factor,
        det_half=det_half,
        loglik_sum=loglik_sum,
        prior_quad=-0.5 * float(w @ qw),
        prior_log_gdet=prior_log_gdet,
        predictors={name: p[0] for name, p in parts.items()},
        iterations=iterations,
        QinvCt=QinvCt,
        S_chol=S_chol,
    )


def log_posterior_theta(model, theta_internal, init_w=None, approx=None):
    """Unnormalized log posterior of the hyper vector (internal scale):
    Laplace ratio of the joint to the Gaussian approximation at its mode.
    The prior log-determinant comes from the approximation's own prior
    build."""
    theta_internal = np.asarray(theta_internal, dtype=float)
    theta = model.theta_natural(theta_internal)
    if approx is None:
        approx = gaussian_approx(model, theta, init_w=init_w)
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


class _HyperSpace:
    """Free-coordinate bookkeeping: fixed hypers are pinned, the rest are
    searched on their internal axes, u being the free coordinates.

    Internal coordinates beyond +-30 are numerically degenerate for every
    transform in use (exp overflow, saturated correlations), so every stage
    stays inside that box: the optimizer is bounded by it, and exploration
    and scan points outside it are not evaluated.
    """

    BOX = 30.0

    def __init__(self, model):
        self.model = model
        self.base = model.initial_internal()
        self.free = np.array(
            [i for i, c in enumerate(model.hyper_coords) if not c.is_fixed],
            dtype=int,
        )
        self.lower = np.full(self.free.size, -self.BOX)
        self.upper = np.full(self.free.size, self.BOX)

    @property
    def dim(self):
        return self.free.size

    def to_full(self, u):
        th = self.base.copy()
        th[self.free] = np.asarray(u, dtype=float)
        return th

    def to_u(self, theta_internal):
        return np.asarray(theta_internal, dtype=float)[self.free]

    def inside(self, u):
        return bool(np.all((u >= self.lower) & (u <= self.upper)))


def optimize_theta(model, init=None, grad_step=1e-4, tol=1e-5,
                   max_evals=200, hessian_step=0.05):
    """Quasi-Newton search for the hyper posterior mode with central
    difference gradients; returns (theta_mode_internal, hessian_u, info).
    The Hessian is in the free-coordinate basis.  Only the search's
    evaluations count against ``max_evals``, not the Hessian stencil's."""
    space = _HyperSpace(model)
    m = space.dim
    state = {"w": None, "evals": 0, "budgeted": True, "best": (-np.inf, None)}

    def lp_at(u):
        theta_internal = space.to_full(u)
        if state["budgeted"]:
            state["evals"] += 1
            if state["evals"] > max_evals:
                raise _EvalBudget()
        try:
            lp, approx = log_posterior_theta(
                model, theta_internal, init_w=state["w"]
            )
        except InferenceError:
            # a cold start can rescue a failed warm start; a failed cold
            # start is deterministic, so it is not repeated.  A point that
            # fails is usually a wild line search excursion: report a
            # steep wall instead of aborting
            if state["w"] is None:
                return -1e10
            state["w"] = None
            try:
                lp, approx = log_posterior_theta(model, theta_internal)
            except InferenceError:
                return -1e10
        state["w"] = approx.mode
        if lp > state["best"][0]:
            state["best"] = (lp, theta_internal)
        return lp

    if m == 0:
        th = space.to_full(np.zeros(0))
        return th, np.zeros((0, 0)), {"evaluations": 0}

    u0 = space.to_u(model.initial_internal() if init is None else init)
    u0 = np.clip(u0, space.lower, space.upper)

    def neg(u):
        return -lp_at(u)

    def neg_grad(u):
        g = np.zeros(m)
        for i in range(m):
            e = np.zeros(m)
            e[i] = grad_step
            g[i] = (neg(u + e) - neg(u - e)) / (2.0 * grad_step)
        return g

    try:
        res = minimize(
            neg,
            u0,
            jac=neg_grad,
            method="L-BFGS-B",
            bounds=list(zip(space.lower, space.upper)),
            options={"gtol": tol, "maxiter": 1000, "ftol": 1e-12},
        )
    except _EvalBudget:
        raise InferenceError(
            "hyper optimization exceeded its evaluation budget",
            best=state["best"][1],
            diagnostics={"evaluations": state["evals"]},
        )
    if state["best"][1] is None:
        # every evaluation hit the -1e10 wall, so the optimizer's answer
        # is the start point and its curvature is flat
        raise InferenceError(
            "no successful Laplace evaluation during hyper optimization",
            diagnostics={"evaluations": state["evals"]},
        )
    # the best point actually evaluated; the optimizer's final iterate
    # can sit on a failed-evaluation wall after an aggressive line search
    u_mode = space.to_u(state["best"][1])

    state["budgeted"] = False

    h = hessian_step
    H = np.zeros((m, m))
    f0 = neg(u_mode)
    fp = np.zeros(m)
    fm = np.zeros(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        fp[i] = neg(u_mode + e)
        fm[i] = neg(u_mode - e)
        H[i, i] = (fp[i] + fm[i] - 2.0 * f0) / h**2
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros(m)
            e[i] = h
            f = np.zeros(m)
            f[j] = h
            fpp = neg(u_mode + e + f)
            fmm = neg(u_mode - e - f)
            H[i, j] = H[j, i] = (
                fpp + fmm + 2.0 * f0 - fp[i] - fm[i] - fp[j] - fm[j]
            ) / (2.0 * h**2)

    info = {
        "evaluations": state["evals"],
        "optimizer_message": str(res.message),
    }
    return space.to_full(u_mode), H, info


class _EvalBudget(Exception):
    pass


def _spd_directions(H, step):
    """Axis vectors in u-space: eigen directions scaled to `step` posterior
    standard deviations; non-positive curvature falls back to unit scale."""
    vals, vecs = eigh(H)
    vals = np.where(vals > 1e-8, vals, 1.0)
    return vecs * (step / np.sqrt(vals)), vals, vecs


def explore_theta(model, theta_mode_internal, hessian, step=0.75, drop=5.0,
                  ccd_radius=1.1, max_steps=10):
    """Weighted hyper-space point set around the mode.

    Free dimension up to 2: centered product grid in the Hessian eigenbasis
    (spacing `step` standard deviations, each axis extended until the log
    posterior falls `drop` below the mode).  Higher dimensions: a spherical
    central-composite design with axial (and, up to dimension 6, corner)
    points at radius ccd_radius * sqrt(dim).  A point outside the hyper box
    counts as a failed evaluation: it ends a grid axis, or leaves the CCD.
    """
    space = _HyperSpace(model)
    m = space.dim
    u_mode = space.to_u(theta_mode_internal)
    state = {"w": None}

    def evaluate(u):
        th = space.to_full(u)
        if not space.inside(u):
            return th, -np.inf, None
        try:
            lp, approx = log_posterior_theta(model, th, init_w=state["w"])
        except InferenceError:
            if state["w"] is not None:
                state["w"] = None
                return evaluate(u)
            return th, -np.inf, None
        state["w"] = approx.mode
        return th, lp, approx

    th0, lp0, approx0 = evaluate(u_mode)
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
        extents = []
        for i in range(m):
            ext = 0
            for sign in (1.0, -1.0):
                state["w"] = approx0.mode
                for kk in range(1, max_steps + 1):
                    _, lp, _ = evaluate(u_mode + sign * kk * axes[:, i])
                    if lp < lp0 - drop:
                        break
                    ext = max(ext, kk)
            extents.append(ext)
        grids = [np.arange(-extents[i], extents[i] + 1) for i in range(m)]
        mesh = np.meshgrid(*grids, indexing="ij")
        offsets = np.stack([g.ravel() for g in mesh], axis=-1)
        state["w"] = approx0.mode
        for z in offsets:
            u = u_mode + axes @ z.astype(float)
            th, lp, approx = evaluate(u)
            if approx is not None:
                points.append([th, lp, 1.0, approx])
    else:
        points.append([th0, lp0, None, approx0])
        zs = []
        design_w = []
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
            u = u_mode + axes @ (z / step)
            th, lp, approx = evaluate(u)
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


def latent_marginals(points, model=None):
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
    close to Gaussian.  Fixed hypers yield degenerate one-point grids.  A
    scan step outside the hyper box counts as a failed evaluation; a free
    coordinate whose scan keeps only the mode raises ``InferenceError``.
    """
    space = _HyperSpace(model)
    out = {}
    free_list = list(space.free)

    for idx, coord in enumerate(model.hyper_coords):
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
    if space.dim == 1:
        coord = model.hyper_coords[free_list[0]]
        grid = np.array([pt.theta_internal[free_list[0]] for pt in points])
        lps = np.array([pt.log_unnorm_posterior for pt in points])
        out[coord.name] = _natural_grid_summary(grid, lps, coord)
        return out

    if space.dim >= 2:
        Hinv = np.linalg.inv(hessian)
        u_mode = space.to_u(theta_mode_internal)
        state = {"w": None}

        def eval_theta(u):
            if not space.inside(u):
                return -np.inf
            th = space.to_full(u)
            try:
                lp, approx = log_posterior_theta(model, th, init_w=state["w"])
            except InferenceError:
                if state["w"] is None:
                    return -np.inf
                state["w"] = None
                try:
                    lp, approx = log_posterior_theta(model, th)
                except InferenceError:
                    return -np.inf
            state["w"] = approx.mode
            return lp

        lp0 = eval_theta(u_mode)
        if not np.isfinite(lp0):
            raise InferenceError(
                "latent approximation failed at the hyper mode",
                best=theta_mode_internal,
            )
        w_mode = state["w"]

        for j in range(space.dim):
            coord = model.hyper_coords[free_list[j]]
            sd_j = float(np.sqrt(max(Hinv[j, j], 1e-12)))
            others = [t for t in range(space.dim) if t != j]
            Hoo = hessian[np.ix_(others, others)]
            Hoj = hessian[np.ix_(others, [j])].ravel()
            try:
                ridge_dir = np.linalg.solve(Hoo, -Hoj)
            except np.linalg.LinAlgError:
                ridge_dir = np.zeros(len(others))

            us, lps = [u_mode[j]], [lp0]

            def eval_at(delta):
                u = u_mode.copy()
                u[j] += delta
                for t, o in enumerate(others):
                    u[o] += ridge_dir[t] * delta
                lp = eval_theta(u)
                if np.isfinite(lp):
                    us.append(u[j])
                    lps.append(lp)
                return lp

            for sign in (1.0, -1.0):
                state["w"] = w_mode
                for kk in range(1, max_steps + 1):
                    lp = eval_at(sign * kk * scan_step * sd_j)
                    if lp < lp0 - scan_drop:
                        break
            if len(us) == 1:
                # a one-point grid has zero area: no density to normalize
                raise InferenceError(
                    f"profile scan of hyper {coord.name!r} kept only the "
                    "mode: every scan step failed or left the hyper box",
                    best=theta_mode_internal,
                )
            out[coord.name] = _natural_grid_summary(
                np.array(us), np.array(lps), coord
            )
    return out


def fit_model(model, *, grad_step=1e-4, opt_tol=1e-5, max_evals=200,
              hessian_step=0.05, explore_step=0.75, explore_drop=5.0,
              ccd_radius=1.1, scan_step=0.5, scan_drop=6.0, init=None,
              compute_latent=True):
    """Run the full pipeline: mode search, exploration, marginals."""
    timings = {}
    t0 = time.perf_counter()
    theta_mode, hessian, opt_info = optimize_theta(
        model,
        init=init,
        grad_step=grad_step,
        tol=opt_tol,
        max_evals=max_evals,
        hessian_step=hessian_step,
    )
    timings["optimize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    points = explore_theta(
        model, theta_mode, hessian,
        step=explore_step, drop=explore_drop, ccd_radius=ccd_radius,
    )
    timings["explore"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    latent = latent_marginals(points) if compute_latent else None
    timings["latent_marginals"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    grids = hyper_marginals(
        model, points, theta_mode, hessian,
        scan_step=scan_step, scan_drop=scan_drop,
    )
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
