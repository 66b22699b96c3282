"""In-memory spans around public circfit functions, installed from outside.

The tracer replaces module and class attributes with wrappers that record a
span per call: name, start, end, parent span and whether the call raised,
plus a few call-specific details read from the arguments or the result.
Callers inside the package look these names up at call time, so wrapping
the attribute is enough to see every call; leaving the ``with`` block puts
the originals back.
"""

import functools
import json
import time

import circfit.inference as inference
import circfit.model as model
import circfit.predictive as predictive
import circfit.studies as studies

# span fields
NAME, START, END, PARENT, FAILED, DETAIL = range(6)


def _gaussian_approx_detail(args, kwargs, out):
    init_w = kwargs["init_w"] if "init_w" in kwargs else (
        args[2] if len(args) > 2 else None
    )
    return {"cold": init_w is None, "iterations": out.iterations if out else None}


def _loglik_detail(args, kwargs, out):
    eta = args[2] if len(args) > 2 else kwargs["eta"]
    return {"elements": int(getattr(eta, "size", 1))}


# (owner, attribute, span name, detail function); the same function reached
# through two modules shares one span name
TARGETS = (
    (studies, "fit_model", "inference.fit_model", None),
    (inference, "optimize_theta", "inference.optimize_theta", None),
    (inference, "explore_theta", "inference.explore_theta", None),
    (inference, "latent_marginals", "inference.latent_marginals", None),
    (inference, "hyper_marginals", "inference.hyper_marginals", None),
    (inference, "log_posterior_theta", "inference.log_posterior_theta", None),
    (inference, "gaussian_approx", "inference.gaussian_approx",
     _gaussian_approx_detail),
    (inference, "loglik", "likelihoods.loglik", _loglik_detail),
    (predictive, "loglik", "likelihoods.loglik", _loglik_detail),
    (predictive, "lavm_sample", "circular.lavm_sample", None),
    (predictive, "cpo", "predictive.cpo", None),
    (predictive, "posterior_predictive", "predictive.posterior_predictive",
     None),
    (studies, "posterior_predictive", "predictive.posterior_predictive", None),
    (predictive, "sample_posterior", "predictive.sample_posterior", None),
    (model.AssembledModel, "prior_precision", "model.prior_precision", None),
    (model.AssembledModel, "block_matrix", "model.block_matrix", None),
    (inference.GaussianApprox, "marginal_sd",
     "inference.GaussianApprox.marginal_sd", None),
    (inference.GaussianApprox, "sample", "inference.GaussianApprox.sample",
     None),
    (model, "build_model", "model.build_model", None),
    (studies, "build_model", "model.build_model", None),
)


class Tracer:
    """Records spans inside its ``with`` block; single-threaded callers only."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    def __enter__(self):
        for owner, attr, name, detail in TARGETS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, detail))
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, detail):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            out = None
            span[START] = time.perf_counter()
            try:
                out = original(*args, **kwargs)
                return out
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if detail is not None:
                    span[DETAIL] = detail(args, kwargs, out)

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def ancestor(spans, index, name):
    """Index of the nearest enclosing span called ``name``, or -1."""
    parent = spans[index][PARENT]
    while parent >= 0 and spans[parent][NAME] != name:
        parent = spans[parent][PARENT]
    return parent
