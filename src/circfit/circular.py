"""Circular arithmetic, the von Mises family, and its link-adjusted variant.

Angles live on (-pi, pi].  Internally everything is wrapped to [-pi, pi) so
that a single representative exists for every direction; the upper endpoint
maps to the lower one.

The link-adjusted von Mises (LAvM) distribution is the pushforward of a
zero-mean von Mises variable through an inverse-tangent link shift: with
g(z) = 2*arctan(z) and h = g^{-1} (so h(y) = tan(y/2)),

    x ~ LAvM(eta, kappa)   iff   z := g(h(x) - eta) ~ vM(0, kappa).

Its log density is

    log p(x | eta, kappa) = kappa*cos(z) + log h'(x) - log h'(z) - log(2 pi I0(kappa)),

where the Jacobian ratio h'(x)/h'(z) accounts for the change of variables.
The density is smooth and unimodal on the open interval (-pi, pi) with mode
g(eta); it is singular at +-pi, which is why observations are kept away from
the boundary (see ``pre_center``).

Derivatives below use the helper functions

    S(y) = d/dy log h'(y) = tan(y/2),      Q(y) = S'(y) = (1 + tan(y/2)^2)/2,

which for the inverse-tangent link satisfy S = h and Q = h'.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.special import i0e, i1e

TWO_PI = 2.0 * np.pi

# Observations this close to +-pi are rejected: the LAvM density is singular
# at the boundary and the link value tan(x/2) overflows float64 well before.
BOUNDARY_MARGIN = 1e-6


class BoundaryError(ValueError):
    """Raised when an angle sits in the singular band at +-pi."""


def _as_finite_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got a NaN or infinity")
    return arr


def wrap_angle(theta):
    """Wrap angles to the canonical interval [-pi, pi).

    The upper endpoint wraps down: wrap_angle(pi) == -pi.  Idempotent and
    exact for values already inside the interval.
    """
    arr = _as_finite_array(theta, "theta")
    out = arr - TWO_PI * np.floor((arr + np.pi) / TWO_PI)
    # floating roundup can land exactly on pi for inputs a hair below a wrap
    # boundary; fold it back so the representative is unique
    out = np.where(out >= np.pi, out - TWO_PI, out)
    if np.ndim(theta) == 0:
        return float(out)
    return out


def circ_distance(x1, x2):
    """Signed shortest angular difference x1 - x2, in [-pi, pi).

    Antisymmetric up to the wrap convention at the antipode:
    circ_distance(a, b) == -circ_distance(b, a) except when the two angles
    are exactly pi apart, where both signs describe the same arc and the
    canonical representative -pi is returned.
    """
    a = _as_finite_array(x1, "x1")
    b = _as_finite_array(x2, "x2")
    d = a - b
    out = np.arctan2(np.sin(d), np.cos(d))
    out = np.where(out >= np.pi, out - TWO_PI, out)
    if np.ndim(x1) == 0 and np.ndim(x2) == 0:
        return float(out)
    return out


def log_bessel_i0(kappa):
    """log I0(kappa), stable for kappa up to at least 1e8."""
    k = np.asarray(kappa, dtype=float)
    return np.log(i0e(k)) + k


def bessel_ratio(kappa):
    """A(kappa) = I1(kappa)/I0(kappa), the von Mises mean resultant length."""
    k = np.asarray(kappa, dtype=float)
    return i1e(k) / i0e(k)


def vm_logpdf(x, mu, kappa):
    """Log density of the von Mises distribution vM(mu, kappa).

    Parameters
    ----------
    x : array_like
        Angles; any real values, wrapped implicitly by the cosine.
    mu : float
        Mean direction.
    kappa : float
        Concentration, >= 0.  kappa = 0 gives the circular uniform.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    xa = _as_finite_array(x, "x")
    # kappa*(cos(..) - 1) pairs with the scaled Bessel so huge kappa cannot
    # overflow: both terms stay O(kappa) negative.
    out = kappa * (np.cos(xa - mu) - 1.0) - np.log(TWO_PI) - np.log(i0e(kappa))
    if np.ndim(x) == 0:
        return float(out)
    return out


def _check_open_interval(x, name: str = "x") -> np.ndarray:
    arr = _as_finite_array(x, name)
    if np.any(np.abs(arr) >= np.pi - BOUNDARY_MARGIN):
        bad = np.asarray(arr)[np.abs(np.asarray(arr)) >= np.pi - BOUNDARY_MARGIN]
        raise BoundaryError(
            f"{name} within {BOUNDARY_MARGIN:g} of the +-pi boundary where the "
            f"link-adjusted density is singular (first offender {float(np.ravel(bad)[0])!r})"
        )
    return arr


def _lavm_response(x):
    """The eta-free terms of the LAvM log density at checked angles x:
    (tan(x/2), log h'(x)), in the form ``_lavm_value`` takes them."""
    t_x = np.tan(0.5 * x)
    return t_x, np.log(0.5 * (1.0 + t_x * t_x))


def _lavm_value(response, eta, kappa):
    """The LAvM log density alone, for the response terms
    ``_lavm_response`` gives and checked eta and kappa, with the
    intermediates (u, h'(z), sin z, kappa*sin z) its derivatives reuse.

    With u = h(x) - eta and z = g(u) the trig terms are rational in u:
    tan(z/2) = u, h'(z) = Q(z) = (1 + u^2)/2 and sin z = u/h'(z), so

        value = -kappa*u*sin z - log(2 pi I0(kappa)) + log h'(x) - log h'(z)

    without an arctan, cosine or sine.  This is the one formula of the
    density: ``_lavm_terms`` adds the derivatives to it, and
    ``lavm_logpdf`` and the CPO weights (through
    ``likelihoods._log_density``) read it alone.
    """
    t_x, log_hp_x = response
    u = t_x - eta
    hp = 0.5 * (1.0 + u * u)
    sin_z = u / hp
    ks = kappa * sin_z
    value = (
        log_hp_x
        - np.log(hp)
        - u * ks
        - (np.log(TWO_PI) + np.log(i0e(kappa)))
    )
    return value, (u, hp, sin_z, ks)


def _lavm_terms(response, eta, kappa):
    """Value, d1 and d2 in eta of the LAvM log density, for the response
    terms ``_lavm_response`` gives and checked eta and kappa.

    The value and the intermediates come from ``_lavm_value``; with
    cos z = 1 - u*sin z and dz/deta = -1/h'(z) the derivatives are

        d1    = (kappa*sin z + u) / h'(z)
        d2    = (u*(kappa*sin z + u) - kappa*cos z - h'(z)) / h'(z)^2,

    the formulas of ``lavm_deta_logpdf``.

    h(x) = tan(x/2) and log h'(x) depend on the responses alone, so a fit
    computes them once per model (``ModelStructure.responses``) and
    ``lavm_logpdf``, ``lavm_deta_logpdf`` and ``loglik`` once per call; the
    normalizer log(2 pi I0(kappa)) depends on kappa alone, and everything
    in u is per eta, that is per Newton step.
    """
    value, (u, hp, sin_z, ks) = _lavm_value(response, eta, kappa)
    kp = ks + u
    d1 = kp / hp
    d2 = (u * kp - kappa * (1.0 - u * sin_z) - hp) / (hp * hp)
    return value, d1, d2


def lavm_logpdf(x, eta, kappa):
    """Log density of the link-adjusted von Mises distribution.

    Parameters
    ----------
    x : array_like
        Angles strictly inside (-pi, pi); the density is singular at the
        boundary and values within 1e-6 of it raise ``BoundaryError``.
    eta : array_like
        Predictor on the link scale (real line).  Broadcasts against x.
    kappa : float
        Concentration of the underlying von Mises variable, >= 0.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    xa = _check_open_interval(x, "x")
    ea = _as_finite_array(eta, "eta")
    out = _lavm_value(_lavm_response(xa), ea, kappa)[0]
    if np.ndim(x) == 0 and np.ndim(eta) == 0:
        return float(out)
    return out


def lavm_dx_logpdf(x, eta, kappa):
    """First and second derivatives of the LAvM log density in x.

    Returns ``(d1, d2)``.  With z = g(h(x) - eta) and z'(x) = h'(x)/h'(z),

        d1 = z'(x) * (-kappa*sin z - S(z)) + S(x)
        d2 = z''(x) * (-kappa*sin z - S(z)) - z'(x)^2 * (kappa*cos z + Q(z)) + Q(x)

    where z''(x) = z'(x) * (S(x) - z'(x) * S(z)).  As in ``_lavm_terms``
    the z terms are rational in u = tan(x/2) - eta: S(z) = u,
    Q(z) = h'(z) = (1 + u^2)/2, sin z = u/h'(z) and cos z = 1 - u*sin z.
    """
    xa = _check_open_interval(x, "x")
    ea = _as_finite_array(eta, "eta")
    t_x = np.tan(0.5 * xa)
    u = t_x - ea
    hp_x = 0.5 * (1.0 + t_x * t_x)
    hp_z = 0.5 * (1.0 + u * u)
    sin_z = u / hp_z
    zp = hp_x / hp_z
    core = -kappa * sin_z - u
    zpp = zp * (t_x - zp * u)
    d1 = zp * core + t_x
    d2 = zpp * core - zp * zp * (kappa * (1.0 - u * sin_z) + hp_z) + hp_x
    if np.ndim(x) == 0 and np.ndim(eta) == 0:
        return float(d1), float(d2)
    return d1, d2


def lavm_deta_logpdf(x, eta, kappa):
    """First and second derivatives of the LAvM log density in eta.

    Returns ``(d1, d2)``.  Since dz/deta = -1/h'(z),

        d1 = (kappa*sin z + S(z)) / h'(z)
        d2 = (S(z)*(kappa*sin z + S(z)) - kappa*cos z - Q(z)) / h'(z)^2.
    """
    xa = _check_open_interval(x, "x")
    ea = _as_finite_array(eta, "eta")
    _, d1, d2 = _lavm_terms(_lavm_response(xa), ea, kappa)
    if np.ndim(x) == 0 and np.ndim(eta) == 0:
        return float(d1), float(d2)
    return d1, d2


def lavm_approx_concentration(eta, kappa):
    """Curvature of the LAvM log density at its mode, -l''(g(eta)).

    Equals kappa*(1 + eta^2)^2 + eta^2*(1 + eta^2)/2 and acts as the
    effective concentration of a matched von Mises approximation around the
    mode.  At eta = 0 it reduces to kappa.
    """
    e = np.asarray(eta, dtype=float)
    e2 = e * e
    out = kappa * (1.0 + e2) ** 2 + 0.5 * e2 * (1.0 + e2)
    if np.ndim(eta) == 0:
        return float(out)
    return out


def vm_sample(rng: np.random.Generator, mu, kappa, size=None):
    """Draw von Mises variates, wrapped to [-pi, pi).

    Uses the Best-Fisher rejection sampler (via numpy's generator); for
    kappa below 1e-8 the circular uniform is drawn directly.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if kappa < 1e-8:
        out = rng.uniform(-np.pi, np.pi, size=size)
        return out if size is not None else float(out)
    out = wrap_angle(rng.vonmises(mu, kappa, size=size))
    return out


def lavm_sample(rng: np.random.Generator, eta, kappa, size=None):
    """Draw from LAvM(eta, kappa) by pushing von Mises noise through the link.

    x = g(h(z) + eta) with z ~ vM(0, kappa).  Samples are strictly inside
    (-pi, pi) because the forward link never reaches the boundary.
    """
    ea = _as_finite_array(eta, "eta")
    if size is None and np.ndim(eta) > 0:
        size = np.shape(ea)
    z = vm_sample(rng, 0.0, kappa, size=size)
    x = 2.0 * np.arctan(np.tan(0.5 * z) + ea)
    if size is None and np.ndim(eta) == 0:
        return float(x)
    return x


def mean_resultant_length(x):
    """Mean resultant length of a sample of angles, in [0, 1].

    rho = |mean of unit vectors|; 0 for balanced antipodal data, 1 only if
    all angles coincide.
    """
    xa = _as_finite_array(x, "x")
    if xa.size == 0:
        raise ValueError("need at least one angle")
    c = np.mean(np.cos(xa))
    s = np.mean(np.sin(xa))
    return float(np.hypot(c, s))


def pre_center(x):
    """Rotate a circular sample so its mean direction sits at zero.

    Returns ``(centered, rotation)`` with centered = wrap(x - rotation).
    Near-uniform samples (mean resultant length < 1e-8) leave the data
    untouched with a warning, since no direction is meaningful.
    """
    xa = _as_finite_array(x, "x")
    c = np.sum(np.cos(xa))
    s = np.sum(np.sin(xa))
    if np.hypot(c, s) / max(xa.size, 1) < 1e-8:
        warnings.warn(
            "sample is indistinguishable from circular uniform; not rotating",
            stacklevel=2,
        )
        return wrap_angle(xa), 0.0
    rotation = float(np.arctan2(s, c))
    return wrap_angle(xa - rotation), rotation
