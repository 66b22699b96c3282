"""Observation families: log-likelihoods with derivatives in the predictor.

Four families cover the models here: gaussian (mean eta, precision tau),
poisson (rate exp(eta)), gamma (shape rho, rate rho*exp(-eta), so the mean is
exp(eta)), and the link-adjusted von Mises for angular responses.  Each
returns the log density together with its first and second derivatives with
respect to eta, which is all the Gaussian approximation needs.  The terms
that depend on the responses alone, with the responses' domain checks, are
``response_terms``: ``loglik`` computes them per call unless the caller
passes them, as a fit does once per model.

A caller that reads the log density alone, as ``predictive.cpo``'s
importance weights do, calls ``_log_density``: gaussian and LAvM have a
value kernel (``_gaussian_value``, ``circular._lavm_value``) from which
``loglik`` builds its derivatives, so each density has one formula, and
``circular.lavm_logpdf`` reads the LAvM kernel too.

The derivatives are the observed ones, and the Laplace factor at the
conditional mode holds -d2.  Only a Newton step whose observed Q* does not
factor, away from the mode, takes ``circular._lavm_em_weight`` on the
LAvM entries whose curvature fails.
"""

import numpy as np
from scipy.special import gammaln

from .circular import BOUNDARY_MARGIN, _lavm_response, _lavm_terms, _lavm_value

__all__ = [
    "FAMILY_HYPERS",
    "ObservationError",
    "loglik",
    "response_terms",
]

# family -> names of its hyperparameters, in binding order
FAMILY_HYPERS = {
    "gaussian": ("tau",),
    "poisson": (),
    "gamma": ("rho",),
    "lavm": ("kappa",),
}


class ObservationError(ValueError):
    """A response outside its family's domain; carries the offending indices."""

    def __init__(self, message: str, indices):
        self.indices = list(np.atleast_1d(indices))
        super().__init__(f"{message} (observations {self.indices})")


def _gaussian_value(y, eta, tau):
    """The gaussian log density and the residual y - eta."""
    if tau <= 0:
        raise ValueError(f"gaussian precision must be positive, got {tau}")
    r = y - eta
    return 0.5 * np.log(tau / (2.0 * np.pi)) - 0.5 * tau * r * r, r


def _gaussian(y, eta, tau):
    value, r = _gaussian_value(y, eta, tau)
    return value, tau * r, np.full_like(r, -tau)


def _poisson(y, eta, log_y_factorial):
    rate = np.exp(eta)
    value = y * eta - rate - log_y_factorial
    return value, y - rate, -rate


def _gamma(y, eta, rho, log_y):
    if rho <= 0:
        raise ValueError(f"gamma shape must be positive, got {rho}")
    # shape rho, rate rho * exp(-eta): mean exp(eta), tau = rho / mean^2
    scaled = y * np.exp(-eta)
    value = (
        rho * (np.log(rho) - eta)
        - gammaln(rho)
        + (rho - 1.0) * log_y
        - rho * scaled
    )
    return value, rho * (scaled - 1.0), -rho * scaled


def _check_lavm(eta, kappa):
    """The checks on kappa and eta of ``circular``'s LAvM functions; the
    responses were checked with their terms."""
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if not np.isfinite(eta).all():
        raise ValueError("eta must be finite, got a NaN or infinity")


def _lavm(y, eta, kappa, response):
    """Value, d1 and d2 from the one LAvM kernel of ``circular``, which
    ``lavm_logpdf`` and ``lavm_deta_logpdf`` share, so the results are
    bit-identical to theirs."""
    _check_lavm(eta, kappa)
    value, d1, d2 = _lavm_terms(response, eta, kappa)
    if np.ndim(y) == 0 and np.ndim(eta) == 0:
        return float(value), float(d1), float(d2)
    return value, d1, d2


def response_terms(kind: str, y):
    """The terms of a family's log density that depend on the responses
    alone, after checking the responses: gammaln(y + 1) for poisson, log y
    for gamma, (tan(y/2), log h'(y)) for lavm and None for gaussian.

    A non-finite response, in every family, and then a response outside
    its family's domain raise ``ObservationError`` with their indices; for
    lavm the domain rule is the boundary band |y| >= pi - 1e-6.
    """
    if kind not in FAMILY_HYPERS:
        raise ValueError(f"unknown likelihood family {kind!r}")
    y = np.asarray(y, dtype=float)
    bad = ~np.isfinite(y)
    if np.any(bad):
        raise ObservationError(
            f"{kind} responses must be finite", np.nonzero(bad)[0]
        )
    if kind == "gaussian":
        return None
    if kind == "poisson":
        bad = (y < 0) | (y != np.floor(y))
        if np.any(bad):
            raise ObservationError(
                "poisson responses must be nonnegative integers",
                np.nonzero(bad)[0],
            )
        return gammaln(y + 1.0)
    if kind == "gamma":
        bad = y <= 0
        if np.any(bad):
            raise ObservationError(
                "gamma responses must be positive", np.nonzero(bad)[0]
            )
        return np.log(y)
    bad = np.abs(y) >= np.pi - BOUNDARY_MARGIN
    if np.any(bad):
        raise ObservationError(
            "angular responses inside the boundary band |x| >= pi - 1e-6; "
            "consider pre-centering",
            np.nonzero(bad)[0],
        )
    return _lavm_response(y)


def loglik(kind: str, y, eta, hyper: float = None, response=None):
    """(log density, d/d eta, d^2/d eta^2) for one family, vectorized.

    ``hyper`` is the family hyperparameter on its natural scale (tau, rho or
    kappa); poisson takes none.  ``response`` is ``response_terms(kind, y)``
    from a caller that evaluates the same responses many times, as a fit
    does; when it is not given the responses are checked and their terms
    computed here.

    The value is the family's value kernel where it has one
    (``_gaussian_value``, ``circular._lavm_value``), which ``_log_density``
    returns alone for ``predictive.cpo`` and ``circular.lavm_logpdf`` reads
    for the LAvM density; the derivatives are built from its intermediates.
    """
    y = np.asarray(y, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if response is None:
        response = response_terms(kind, y)
    if kind == "gaussian":
        return _gaussian(y, eta, hyper)
    if kind == "poisson":
        return _poisson(y, eta, response)
    if kind == "gamma":
        return _gamma(y, eta, hyper, response)
    return _lavm(y, eta, hyper, response)


def _log_density(kind, y, eta, hyper, response):
    """``loglik(kind, y, eta, hyper, response=response)[0]`` without the
    derivatives, for array eta and the checked ``response_terms`` of float
    responses y: the gaussian and LAvM value kernels with ``loglik``'s
    checks on the hyper and on eta; poisson and gamma take ``loglik``'s
    value."""
    if kind == "gaussian":
        return _gaussian_value(y, eta, hyper)[0]
    if kind == "lavm":
        _check_lavm(eta, hyper)
        return _lavm_value(response, eta, hyper)[0]
    return loglik(kind, y, eta, hyper, response=response)[0]

