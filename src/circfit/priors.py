"""Log-prior densities for hyperparameters and their internal scales.

Hyperparameters are explored on unconstrained internal coordinates; every
prior family pairs a natural-scale density with the analytic Jacobian of its
internal transform:

    log tau, log kappa, log rho  (positive scalars)
    identity                     (real coefficients)
    2*artanh(rho)                (correlations and PACFs in (-1, 1))

Penalised-complexity priors follow the usual recipe: an exponential density
with rate lambda is placed on the distance d = sqrt(2 * KLD) from a base
model, then pushed back to the parameter.  The rate is calibrated so that a
stated exceedance probability holds, e.g. P(sigma > U) = alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.optimize import brentq
from scipy.special import betaln, gammaln, i0e, i1e

from .circular import bessel_ratio

# Numerical-work cap for pc_kappa: quadrature and root-finding stay inside
# [0, KAPPA_MAX].  The prior itself is supported on (0, inf); because the KL
# distance grows only like sqrt(log kappa) the tail can carry real mass for
# weakly-informative (U, alpha), and integrating in rho = I1/I0 space (or on
# the distance scale) is the reliable way to check it.
KAPPA_MAX = 1e3


class ConfigurationError(ValueError):
    """Invalid prior or model configuration."""


def _check_exceedance_params(U: float, alpha: float, u_open_unit: bool) -> None:
    if not (0.0 < alpha < 1.0):
        raise ConfigurationError(f"alpha must be in (0,1), got {alpha}")
    if u_open_unit:
        if not (0.0 < U < 1.0):
            raise ConfigurationError(f"U must be in (0,1) for this family, got {U}")
    elif U <= 0:
        raise ConfigurationError(f"U must be > 0, got {U}")


# ---------------------------------------------------------------------------
# precision (type-2 Gumbel)


def pc_precision_rate(U: float, alpha: float) -> float:
    """lambda = -ln(alpha)/U, so that P(tau^(-1/2) > U) = alpha."""
    _check_exceedance_params(U, alpha, u_open_unit=False)
    return -np.log(alpha) / U


def pc_precision_logprior(tau, U: float, alpha: float):
    """Log density of pi(tau) = (lambda/2) tau^(-3/2) exp(-lambda/sqrt(tau))."""
    lam = pc_precision_rate(U, alpha)
    t = np.asarray(tau, dtype=float)
    if np.any(t <= 0):
        raise ConfigurationError("tau must be positive")
    out = np.log(lam / 2.0) - 1.5 * np.log(t) - lam / np.sqrt(t)
    if np.ndim(tau) == 0:
        return float(out)
    return out


def pc_precision_logprior_internal(v, U: float, alpha: float):
    """pc_precision log density on the internal scale v = log tau, Jacobian
    included: log(lambda/2) - v/2 - lambda*exp(-v/2)."""
    lam = pc_precision_rate(U, alpha)
    vv = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        out = np.log(lam / 2.0) - 0.5 * vv - lam * np.exp(-0.5 * vv)
    if np.ndim(v) == 0:
        return float(out)
    return out


def pc_scale_logprior(a, U: float, alpha: float):
    """Log density induced on a signed scale coefficient a by placing the
    pc_precision prior on 1/a^2 (sign of a given a fair coin).

    pi(a) = pi_tau(a^-2) * |a|^-3 collapses algebraically to the Laplace
    density (lambda/2) exp(-lambda |a|), so P(|a| > U) = alpha with the same
    rate as pc_precision.
    """
    lam = pc_precision_rate(U, alpha)
    av = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(av)):
        raise ConfigurationError("scale coefficient must be finite")
    out = np.log(lam / 2.0) - lam * np.abs(av)
    if np.ndim(a) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# von Mises concentration


def vm_kl_distance(kappa):
    """d(kappa) = sqrt(2 * KLD(vM(kappa) || uniform)).

    KLD = kappa*I1/I0 - log I0; the small-kappa limit d ~ kappa/sqrt(2) is
    used below 1e-6 where the direct formula loses digits to cancellation.
    """
    k = np.asarray(kappa, dtype=float)
    kld = k * (bessel_ratio(k) - 1.0) - np.log(i0e(k))
    kld = np.maximum(kld, 0.0)
    out = np.where(k < 1e-6, k / np.sqrt(2.0), np.sqrt(2.0 * kld))
    if np.ndim(kappa) == 0:
        return float(out)
    return out


def _vm_kl_distance_deriv(kappa):
    """d'(kappa) = kappa * A'(kappa) / d(kappa) with A = I1/I0."""
    k = np.asarray(kappa, dtype=float)
    A = bessel_ratio(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        Ap = np.where(k > 0, 1.0 - A * A - A / k, 0.5)
        out = np.where(k < 1e-6, 1.0 / np.sqrt(2.0), k * Ap / vm_kl_distance(k))
    if np.ndim(kappa) == 0:
        return float(out)
    return out


def _resultant_to_kappa(U: float) -> float:
    """Invert the mean resultant length A(kappa) = U."""
    return brentq(lambda k: bessel_ratio(k) - U, 1e-12, KAPPA_MAX)


@lru_cache(maxsize=128)
def pc_kappa_rate(U: float, alpha: float) -> float:
    """Rate lambda of the exponential on d(kappa), chosen so that
    P(I1(kappa)/I0(kappa) > U) = alpha.

    The exceedance set {A(kappa) > U} maps to {d > d(A^-1(U))} because both
    A and d increase in kappa, so lambda = -ln(alpha) / d(A^-1(U)) exactly.
    """
    _check_exceedance_params(U, alpha, u_open_unit=True)
    d_u = vm_kl_distance(_resultant_to_kappa(U))
    return float(-np.log(alpha) / d_u)


def pc_kappa_logprior(kappa, U: float, alpha: float):
    """Log density of the PC prior for von Mises concentration on (0, inf),
    lambda * exp(-lambda * d(kappa)) * d'(kappa)."""
    lam = pc_kappa_rate(U, alpha)
    k = np.asarray(kappa, dtype=float)
    if np.any(k < 0):
        raise ConfigurationError("kappa must be >= 0")
    with np.errstate(divide="ignore"):
        out = np.log(lam) - lam * vm_kl_distance(k) + np.log(_vm_kl_distance_deriv(k))
    if np.ndim(kappa) == 0:
        return float(out)
    return out


def _vm_kl_distance_from_log(v: float):
    """(d, dd/dv) as functions of the scalar v = log kappa.

    Below v = 6 this is the exact Bessel formula; above, the expansion
    2*KLD = v + log(2*pi) - 1 - 1/(2k) - 3/(8k^2) - 25/(48k^3) + O(k^-4).
    The switch point balances the two error sources: the exact derivative
    computes A' = 1 - A^2 - A/k by cancellation (error ~ eps*k^2) while the
    expansion truncates at O(k^-4); both sit near 1e-10 at k = e^6.  The
    expansion also keeps the prior evaluable for concentrations beyond
    floating range, where diffuse (U, alpha) settings still hold mass.

    Only the branch returned is evaluated, with one Bessel ratio A = I1/I0;
    the arithmetic is that of ``vm_kl_distance`` and
    ``_vm_kl_distance_deriv``.  exp and log are numpy's, which can differ
    from ``math``'s in the last bit, so the values equal the vectorized
    formulas exactly.
    """
    v = float(v)
    if v > 6.0:
        ev = float(np.exp(-v))
        dsq = (
            v
            + float(np.log(2.0 * np.pi))
            - 1.0
            - ev * (0.5 + ev * (0.375 + ev * (25.0 / 48.0)))
        )
        d = math.sqrt(dsq)
        return d, (1.0 + ev * (0.5 + ev * (0.75 + ev * (25.0 / 16.0)))) / (2.0 * d)
    k = float(np.exp(v))
    if k < 1e-6:
        d = k / math.sqrt(2.0)
        return d, (k * (1.0 / math.sqrt(2.0)) if d > 0 else 0.0)
    i0 = float(i0e(k))
    A = float(i1e(k)) / i0
    d = math.sqrt(2.0 * max(k * (A - 1.0) - float(np.log(i0)), 0.0))
    if d == 0:
        return d, 0.0
    return d, k * (k * (1.0 - A * A - A / k) / d)


def pc_kappa_logprior_internal(v: float, U: float, alpha: float) -> float:
    """pc_kappa log density at the scalar internal value v = log kappa,
    Jacobian included.  Unlike the natural-scale form this stays finite for
    any real v, which matters for diffuse (U, alpha): the prior can hold
    appreciable mass at concentrations exp(v) beyond floating range."""
    lam = pc_kappa_rate(U, alpha)
    d, dd = _vm_kl_distance_from_log(v)
    log_dd = float(np.log(dd)) if dd > 0 else -math.inf
    return float(np.log(lam)) - lam * d + log_dd


# ---------------------------------------------------------------------------
# correlation


def correlation_distance(rho):
    """d(rho) = sqrt(-2*ln(1 - rho^2)), the KL distance from independence."""
    r = np.asarray(rho, dtype=float)
    return np.sqrt(-2.0 * np.log1p(-r * r))


def pc_correlation_rate(U: float, alpha: float) -> float:
    _check_exceedance_params(U, alpha, u_open_unit=True)
    return -np.log(alpha) / correlation_distance(U)


def pc_correlation_logprior(rho, U: float, alpha: float):
    """Symmetric two-sided PC prior on a correlation in (-1, 1).

    Exponential (rate lambda) on d(|rho|), half mass on each sign, so that
    P(|rho| > U) = alpha.  The derivative d'(rho) has the finite limit
    sqrt(2) at rho = 0, where the density has a kink but stays positive.
    """
    lam = pc_correlation_rate(U, alpha)
    r = np.asarray(rho, dtype=float)
    if np.any(np.abs(r) >= 1.0):
        raise ConfigurationError("rho must lie strictly inside (-1, 1)")
    a = np.abs(r)
    d = correlation_distance(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        dprime = np.where(a < 1e-8, np.sqrt(2.0), 2.0 * a / ((1.0 - a * a) * np.where(d > 0, d, 1.0)))
    out = np.log(lam / 2.0) - lam * d + np.log(dprime)
    if np.ndim(rho) == 0:
        return float(out)
    return out


def _log_cosh(x):
    return np.abs(x) - np.log(2.0) + np.log1p(np.exp(-2.0 * np.abs(x)))


def pc_correlation_logprior_internal(v, U: float, alpha: float):
    """pc_correlation log density on the internal scale v = 2*artanh(rho),
    Jacobian included.

    On this scale d = sqrt(4*log cosh(v/2)) and d grows like sqrt(2|v|), so
    the whole support is representable; near |rho| = 1 the natural scale is
    not (for diffuse (U, alpha) a visible fraction of the prior mass sits
    within one ulp of the boundary).
    """
    lam = pc_correlation_rate(U, alpha)
    vv = np.asarray(v, dtype=float)
    d = np.sqrt(4.0 * _log_cosh(vv / 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # dd/dv = tanh(|v|/2)/d, finite limit 1/sqrt(2) at v = 0
        dd = np.where(
            np.abs(vv) < 1e-8,
            1.0 / np.sqrt(2.0),
            np.tanh(np.abs(vv) / 2.0) / np.where(d > 0, d, 1.0),
        )
    out = np.log(lam / 2.0) - lam * d + np.log(dd)
    if np.ndim(v) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# LKJ over correlation matrices, plus its canonical-vine coordinates


def lkj_log_normalizing(dim: int, shape: float) -> float:
    """log of the LKJ normalizing constant c_d(shape), so that the density
    det(R)^(shape-1) / c_d(shape) integrates to 1 over correlation matrices."""
    if dim < 2:
        raise ConfigurationError("LKJ needs dimension >= 2")
    log_c = 0.0
    for k in range(1, dim):
        b = shape + 0.5 * (dim - k - 1)
        log_c += (dim - k) * ((2.0 * b - 1.0) * np.log(2.0) + betaln(b, b))
    return log_c


def lkj_logprior(R: np.ndarray, shape: float) -> float:
    """(shape-1)*log det(R) minus the log normalizing constant."""
    if shape <= 0:
        raise ConfigurationError(f"LKJ shape must be > 0, got {shape}")
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ConfigurationError("R must be a square matrix")
    if not np.allclose(R, R.T, atol=1e-10) or not np.allclose(np.diag(R), 1.0, atol=1e-10):
        raise ConfigurationError("R must be symmetric with unit diagonal")
    sign, logdet = np.linalg.slogdet(R)
    if sign <= 0:
        raise ConfigurationError("R must be positive definite")
    return float((shape - 1.0) * logdet - lkj_log_normalizing(R.shape[0], shape))


def vine_levels(dim: int):
    """Tree level of each canonical-vine partial correlation, in the flat
    order (1,2),(1,3),...,(1,d),(2,3),...,(d-1,d)."""
    return [i + 1 for i in range(dim - 1) for _ in range(i + 1, dim)]


def vine_beta_parameter(dim: int, shape: float, level: int) -> float:
    """Beta(b, b) shape for a level-k partial correlation under LKJ(shape)."""
    return shape + 0.5 * (dim - 1 - level)


def vine_partial_logprior(gamma, dim: int, shape: float, level: int):
    """Log density of a single canonical-vine partial correlation under LKJ.

    Under LKJ(shape) the partials are independent with
    (gamma+1)/2 ~ Beta(b, b), b = shape + (dim - 1 - level)/2.
    """
    b = vine_beta_parameter(dim, shape, level)
    g = np.asarray(gamma, dtype=float)
    if np.any(np.abs(g) >= 1.0):
        raise ConfigurationError("partial correlation must lie in (-1, 1)")
    out = (b - 1.0) * np.log1p(-g * g) - (2.0 * b - 1.0) * np.log(2.0) - betaln(b, b)
    if np.ndim(gamma) == 0:
        return float(out)
    return out


def vine_partial_logprior_internal(v, dim: int, shape: float, level: int):
    """Vine-partial log density on the internal scale v = 2*artanh(gamma),
    Jacobian included; uses log cosh so it never touches the boundary."""
    b = vine_beta_parameter(dim, shape, level)
    vv = np.asarray(v, dtype=float)
    lc = _log_cosh(0.5 * vv)
    out = (
        -2.0 * b * lc
        - (2.0 * b - 1.0) * np.log(2.0)
        - betaln(b, b)
        - np.log(2.0)
    )
    if np.ndim(v) == 0:
        return float(out)
    return out


def partials_to_correlation(gamma: np.ndarray, dim: int) -> np.ndarray:
    """Compose canonical-vine partial correlations into a full correlation
    matrix.  Any gamma in (-1,1)^(d(d-1)/2) yields a positive-definite R."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (dim * (dim - 1) // 2,):
        raise ConfigurationError(
            f"expected {dim*(dim-1)//2} partial correlations, got {gamma.shape}"
        )
    p = np.eye(dim)
    idx = 0
    for i in range(dim - 1):
        for j in range(i + 1, dim):
            p[i, j] = p[j, i] = gamma[idx]
            idx += 1
    R = np.eye(dim)
    for i in range(dim - 1):
        for j in range(i + 1, dim):
            rho = p[i, j]
            for k in range(i - 1, -1, -1):
                rho = rho * np.sqrt((1 - p[k, i] ** 2) * (1 - p[k, j] ** 2)) + p[k, i] * p[k, j]
            R[i, j] = R[j, i] = rho
    return R


def lkj_sample(rng: np.random.Generator, dim: int, shape: float) -> np.ndarray:
    """Draw a correlation matrix from LKJ(shape) via the canonical vine."""
    gam = np.empty(dim * (dim - 1) // 2)
    idx = 0
    for i in range(dim - 1):
        b = vine_beta_parameter(dim, shape, i + 1)
        for _ in range(i + 1, dim):
            gam[idx] = 2.0 * rng.beta(b, b) - 1.0
            idx += 1
    return partials_to_correlation(gam, dim)


# ---------------------------------------------------------------------------
# remaining families and the internal-scale dispatch


def gaussian_logprior(x, mean: float, sd: float):
    if sd <= 0:
        raise ConfigurationError(f"sd must be > 0, got {sd}")
    v = np.asarray(x, dtype=float)
    out = -0.5 * np.log(2 * np.pi) - np.log(sd) - 0.5 * ((v - mean) / sd) ** 2
    if np.ndim(x) == 0:
        return float(out)
    return out


def log_gamma_logprior_internal(v, a: float, b: float):
    """Prior for a positive parameter rho ~ Gamma(a, rate b), evaluated on
    the internal coordinate v = log rho (Jacobian included)."""
    if a <= 0 or b <= 0:
        raise ConfigurationError("Gamma shape and rate must be positive")
    vv = np.asarray(v, dtype=float)
    out = a * np.log(b) - gammaln(a) + a * vv - b * np.exp(vv)
    if np.ndim(v) == 0:
        return float(out)
    return out


# internal transforms: value = to_natural(internal), plus log |d natural / d internal|


def logit_pm1_to_natural(v):
    return np.tanh(0.5 * np.asarray(v, dtype=float))


def logit_pm1_from_natural(rho):
    r = np.asarray(rho, dtype=float)
    return np.log1p(r) - np.log1p(-r)


TRANSFORMS = {
    "log": (np.exp, np.log, lambda v: np.asarray(v, dtype=float)),
    "identity": (
        lambda v: np.asarray(v, dtype=float),
        lambda x: np.asarray(x, dtype=float),
        lambda v: np.zeros_like(np.asarray(v, dtype=float)),
    ),
    "logit_pm1": (
        logit_pm1_to_natural,
        logit_pm1_from_natural,
        lambda v: np.log1p(-logit_pm1_to_natural(v) ** 2) - np.log(2.0),
    ),
}

# default internal scale per family
FAMILY_TRANSFORM = {
    "pc_precision": "log",
    "pc_kappa": "log",
    "pc_correlation": "logit_pm1",
    "gaussian": "identity",
    "log_gamma": "log",
    "lkj": "logit_pm1",
    "pc_scale": "identity",
    "fixed": "identity",
}


@dataclass(frozen=True)
class PriorSpec:
    """A prior family with its parameters.

    parameters: (U, alpha) for pc families, (mean, sd) for gaussian,
    (a, b) for log_gamma, (shape,) for lkj, (value,) for fixed.
    For lkj coordinates, ``vine`` carries (dim, level) of the partial
    correlation this coordinate represents.
    """

    family: str
    parameters: tuple
    vine: Optional[tuple] = None

    def __post_init__(self):
        if self.family not in FAMILY_TRANSFORM:
            raise ConfigurationError(f"unknown prior family {self.family!r}")

    @property
    def transform(self) -> str:
        return FAMILY_TRANSFORM[self.family]

    @property
    def is_fixed(self) -> bool:
        return self.family == "fixed"


def eval_logprior(spec: PriorSpec, value_internal: float) -> float:
    """Log prior density on the internal scale (natural density + Jacobian).

    Evaluated through dedicated internal-scale forms rather than by
    transforming the value first: for diffuse pc_kappa and pc_correlation
    priors, real posterior mass lives where the natural parameter is not
    floating-point representable.
    """
    v = value_internal
    fam, par = spec.family, spec.parameters
    if fam == "fixed":
        return 0.0
    if fam == "gaussian":
        return gaussian_logprior(v, par[0], par[1])
    if fam == "log_gamma":
        return log_gamma_logprior_internal(v, par[0], par[1])
    if fam == "pc_precision":
        return pc_precision_logprior_internal(v, par[0], par[1])
    if fam == "pc_kappa":
        return pc_kappa_logprior_internal(v, par[0], par[1])
    if fam == "pc_correlation":
        return pc_correlation_logprior_internal(v, par[0], par[1])
    if fam == "pc_scale":
        return pc_scale_logprior(v, par[0], par[1])
    if fam == "lkj":
        if spec.vine is None:
            raise ConfigurationError("lkj prior coordinates need vine=(dim, level)")
        dim, level = spec.vine
        return vine_partial_logprior_internal(v, dim, par[0], level)
    raise ConfigurationError(f"unknown prior family {fam!r}")


def prior_median_internal(spec: PriorSpec) -> float:
    """Median of the prior on the internal scale, used to seed
    optimization.  A pure function of the spec, memoized on its family,
    parameters (as a tuple, so a list works too) and vine: for pc_kappa
    it is a root search."""
    return _prior_median_internal(
        spec.family, tuple(spec.parameters), spec.vine
    )


@lru_cache(maxsize=128)
def _prior_median_internal(fam, par, vine):
    if fam == "fixed":
        return float(par[0])
    if fam == "gaussian":
        return float(par[0])
    if fam == "log_gamma":
        from scipy.stats import gamma as gamma_dist

        return float(np.log(gamma_dist.ppf(0.5, par[0], scale=1.0 / par[1])))
    if fam == "pc_precision":
        lam = pc_precision_rate(par[0], par[1])
        sigma_med = np.log(2.0) / lam
        return float(np.log(sigma_med**-2))
    if fam == "pc_kappa":
        lam = pc_kappa_rate(par[0], par[1])
        d_med = np.log(2.0) / lam
        # very diffuse priors put the median beyond any concentration a von
        # Mises fit can resolve; KAPPA_MAX is a saner starting point then
        if d_med >= vm_kl_distance(KAPPA_MAX):
            return float(np.log(KAPPA_MAX))
        k_med = brentq(lambda k: vm_kl_distance(k) - d_med, 1e-10, KAPPA_MAX)
        return float(np.log(k_med))
    if fam in ("pc_correlation", "lkj"):
        return 0.0
    if fam == "pc_scale":
        lam = pc_precision_rate(par[0], par[1])
        return float(np.log(2.0) / lam)  # median of |a|, positive branch
    raise ConfigurationError(f"unknown prior family {fam!r}")
