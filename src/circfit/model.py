"""Declarative joint-model assembly.

A model is a set of observation blocks (one likelihood family each), latent
components, and fixed effects, tied together by per-block predictor terms.
Scale parameters that multiply component nodes or whole shared predictors are
hyperparameters, so conditional on the hyper vector every predictor is linear
in the latent field and the model stays a latent Gaussian model.

Assembly expands shared predictors symbolically: a term like
b1 * (predictor of block x) becomes the inner block's terms with b1 joined
onto each term's chain of scale hyperparameters.  Each expanded term is kept
once, as a ``PredictorTerm`` holding ``term_design``'s latent node and
coefficient per observation; ``terms_predictor`` sums such records, fitted
or copied with the nodes and coefficients of new inputs.

``ModelStructure`` fixes the prior's sparsity pattern once per model as
index arrays, the (rows, cols) of its stored entries in column-major order,
and stacks each block's term records, and a fit works on value arrays over
them and builds no matrix: the prior's values are read from each component
kind's closed form, and Q*'s go straight into the storage its factor reads.
``AssembledModel.prior_precision`` and ``block_matrix`` are sparse views
of value arrays that no fit reads.
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .latent import (
    _mv_iid_values,
    ar2_diagonals,
    cyclic_rw2_reference_sd,
    cyclic_rw2_stencil,
    rw2_diagonals,
    rw2_reference_sd,
    scaled_log_gdet,
)
from .likelihoods import FAMILY_HYPERS, response_terms
from .priors import (
    ConfigurationError,
    PriorSpec,
    TRANSFORMS,
    eval_logprior,
    partials_to_correlation,
    prior_median_internal,
    vine_levels,
)

__all__ = [
    "ComponentSpec",
    "TermSpec",
    "FixedEffectSpec",
    "BlockSpec",
    "ModelSpec",
    "HyperCoord",
    "AssembledModel",
    "PredictorTerm",
    "build_model",
    "term_design",
    "terms_predictor",
    "classical_sincos_spec",
]

COMPONENT_KINDS = ("iid", "rw2", "cyclic_rw2", "ar2", "mv_iid")


@dataclass(frozen=True)
class ComponentSpec:
    """One latent Gaussian component.

    Hyper bindings by kind: every kind may carry ``precision_hyper`` (a
    multiplicative precision, pc_precision-style); ar2 needs the two
    ``pacf_hypers``; mv_iid needs ``block_dim``, one ``sigma_hypers`` name
    per coordinate and a ``correlation_hyper`` whose lkj prior is expanded
    into vine partial coordinates; cyclic_rw2 needs ``period`` and has
    dimension equal to it.  Sizes: rw2 and ar2 need n >= 3, cyclic_rw2 a
    period >= 5, and every kind n >= 1.
    """

    name: str
    kind: str
    size: int
    period: Optional[int] = None
    block_dim: Optional[int] = None
    precision_hyper: Optional[str] = None
    pacf_hypers: tuple = ()
    sigma_hypers: tuple = ()
    correlation_hyper: Optional[str] = None

    def __post_init__(self):
        for key in ("size", "period", "block_dim"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, (int, np.integer)):
                raise ConfigurationError(
                    f"component {self.name!r}: {key} must be an integer, "
                    f"got {value!r}"
                )
        if self.kind not in COMPONENT_KINDS:
            raise ConfigurationError(
                f"component {self.name!r}: unknown kind {self.kind!r}"
            )
        if self.kind == "ar2" and len(self.pacf_hypers) != 2:
            raise ConfigurationError(
                f"component {self.name!r}: ar2 needs two pacf hyper names"
            )
        if self.kind != "ar2" and self.pacf_hypers:
            raise ConfigurationError(
                f"component {self.name!r}: pacf hypers only apply to ar2"
            )
        if self.kind == "cyclic_rw2" and self.period is None:
            raise ConfigurationError(
                f"component {self.name!r}: cyclic_rw2 needs a period"
            )
        if self.kind == "mv_iid":
            d = self.block_dim
            if d is None or d < 1:
                raise ConfigurationError(
                    f"component {self.name!r}: mv_iid needs block_dim >= 1"
                )
            if len(self.sigma_hypers) != d:
                raise ConfigurationError(
                    f"component {self.name!r}: mv_iid needs {d} sigma hyper names"
                )
            if d > 1 and self.correlation_hyper is None:
                raise ConfigurationError(
                    f"component {self.name!r}: mv_iid needs a correlation hyper"
                )
        if self.kind == "cyclic_rw2" and self.period < 5:
            raise ConfigurationError(
                f"component {self.name!r}: cyclic_rw2 needs period >= 5, "
                f"got {self.period}"
            )
        least = 3 if self.kind in ("rw2", "ar2") else 1
        if self.size < least:
            needs = (
                "cyclic_rw2 needs n >= 1 observations"
                if self.kind == "cyclic_rw2"
                else f"{self.kind} component needs n >= {least}"
            )
            raise ConfigurationError(
                f"component {self.name!r}: {needs}, got {self.size}"
            )

    @property
    def dimension(self) -> int:
        if self.kind == "cyclic_rw2":
            return self.period
        if self.kind == "mv_iid":
            return self.size * self.block_dim
        return self.size


@dataclass(frozen=True)
class TermSpec:
    """One additive term of a block predictor.

    kinds: "intercept" (ref = fixed effect, implicit ones column),
    "fixed" (ref = fixed effect, ``covariate`` names the column),
    "component" (ref = component; optional ``scale`` hyper; optional
    ``indices`` mapping observation -> component node, identity if omitted),
    "shared" (ref = another block whose full predictor enters, scaled by the
    required ``scale`` hyper).
    """

    kind: str
    ref: str
    scale: Optional[str] = None
    covariate: Optional[str] = None
    indices: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("intercept", "fixed", "component", "shared"):
            raise ConfigurationError(f"unknown term kind {self.kind!r}")
        if self.kind == "fixed" and self.covariate is None:
            raise ConfigurationError(
                f"fixed-effect term {self.ref!r} needs a covariate name"
            )
        if self.kind == "shared" and self.scale is None:
            raise ConfigurationError(
                f"shared-predictor term over {self.ref!r} needs a scale hyper"
            )


@dataclass(frozen=True)
class FixedEffectSpec:
    """A coefficient with a zero-mean Gaussian prior of the given sd."""

    name: str
    prior_sd: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.prior_sd) and self.prior_sd > 0):
            raise ConfigurationError(
                f"fixed effect {self.name!r}: prior_sd must be finite and "
                f"positive, got {self.prior_sd!r}"
            )


@dataclass(frozen=True)
class BlockSpec:
    """One observation block: a family, its responses, and predictor terms."""

    name: str
    family: str
    responses: np.ndarray
    terms: tuple
    hyper: Optional[str] = None

    def __post_init__(self):
        if self.family not in FAMILY_HYPERS:
            raise ConfigurationError(
                f"block {self.name!r}: unknown family {self.family!r}"
            )
        needs = len(FAMILY_HYPERS[self.family])
        if (self.hyper is not None) != (needs == 1):
            raise ConfigurationError(
                f"block {self.name!r}: family {self.family} takes "
                f"{needs} likelihood hyper(s)"
            )
        object.__setattr__(
            self, "responses", np.asarray(self.responses, dtype=float)
        )
        if self.responses.size == 0:
            raise ConfigurationError(f"block {self.name!r} has no responses")
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def size(self) -> int:
        return self.responses.size


@dataclass(frozen=True)
class ModelSpec:
    blocks: tuple
    components: tuple = ()
    fixed_effects: tuple = ()
    hypers: dict = field(default_factory=dict)
    covariates: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ConfigurationError(
                "blocks: a model needs an observation block"
            )
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "fixed_effects", tuple(self.fixed_effects))
        object.__setattr__(
            self,
            "covariates",
            {k: np.asarray(v, dtype=float) for k, v in self.covariates.items()},
        )


@dataclass(frozen=True)
class HyperCoord:
    """One coordinate of the hyper vector: a named prior plus the role it
    plays in the model."""

    name: str
    spec: PriorSpec
    role: str

    @property
    def transform(self) -> str:
        return self.spec.transform

    @property
    def is_fixed(self) -> bool:
        return self.spec.is_fixed


class AssembledModel:
    """The flattened model: latent layout, hyper layout, per-block terms.
    ``build_model`` fills ``blocks`` once the latent layout exists."""

    def __init__(self, spec, hyper_coords, comp_offsets, effect_nodes,
                 latent_dim, constraints):
        self.spec = spec
        self.hyper_coords = hyper_coords
        self.blocks = {}
        self.comp_offsets = comp_offsets
        self.effect_nodes = effect_nodes
        self.latent_dim = latent_dim
        self.constraints = constraints
        self.components = {c.name: c for c in spec.components}
        self._structure = None

    # -- hyper vector plumbing ------------------------------------------

    @property
    def hyper_dim(self) -> int:
        return len(self.hyper_coords)

    @property
    def free_hyper_names(self):
        return [c.name for c in self.hyper_coords if not c.is_fixed]

    def initial_internal(self) -> np.ndarray:
        """Prior medians on the internal scale, the optimizer's start."""
        return np.array(
            [prior_median_internal(c.spec) for c in self.hyper_coords]
        )

    def theta_natural(self, theta_internal: np.ndarray) -> dict:
        """Map the full internal hyper vector to named natural values."""
        out = {}
        for coord, v in zip(self.hyper_coords, theta_internal):
            if coord.is_fixed:
                out[coord.name] = float(coord.spec.parameters[0])
            else:
                out[coord.name] = float(TRANSFORMS[coord.transform][0](v))
        return out

    def logprior_internal(self, theta_internal: np.ndarray) -> float:
        """Joint log prior of the free hyper coordinates, internal scale."""
        total = 0.0
        for coord, v in zip(self.hyper_coords, theta_internal):
            if not coord.is_fixed:
                total += float(eval_logprior(coord.spec, v))
        return total

    # -- latent structure ------------------------------------------------

    @property
    def structure(self) -> "ModelStructure":
        """The fixed sparsity structure and checked response terms, built
        on first use inside a fit."""
        if self._structure is None:
            self._structure = ModelStructure(self)
        return self._structure

    # -- matrix views: no fit reads them; the perfbench tracer wraps both
    # by name.  Each copies the index arrays it is built on, so no caller
    # can write the structure's -----------------------------------------

    def prior_precision(self, theta: dict):
        """Joint prior precision over the latent vector as a csc matrix
        and its generalized log-determinant, at natural hyper values theta.
        The matrix keeps the structural pattern whatever theta is."""
        S = self.structure
        data, log_gdet = S.prior_values(theta)
        n = self.latent_dim
        indptr = np.searchsorted(S.prior_cols, np.arange(n + 1))
        Q = sparse.csc_array(
            (data, S.prior_rows, indptr), shape=(n, n), copy=True
        )
        return Q, log_gdet

    def block_matrix(self, block_name: str, theta: dict) -> sparse.csr_array:
        """A_b(theta): observation-by-latent matrix with all scale hypers
        multiplied in, so eta_b = A_b w.  The matrix keeps the pattern of
        the block's term records whatever theta is."""
        pat = self.structure.blocks[block_name]
        values, _ = pat.design(theta)
        obs = np.broadcast_to(np.arange(pat.size), pat.nodes.shape)
        return sparse.csr_array(
            (values.ravel(), (obs.ravel(), pat.nodes.ravel())),
            shape=(pat.size, self.latent_dim),
        )


class _BlockDesign:
    """A block's ``PredictorTerm`` records stacked term-major, the
    fixed-effect terms first: ``nodes`` and ``coef`` (terms, size), so
    A_b(theta) w = sum_t factor_t(theta) coef[t] w[nodes[t]].  Each of the
    first ``n_fixed`` terms (intercept and fixed) holds one arrow node in
    every row, ``fixed_nodes``, so its values are a dense column of A_b;
    the component terms after them hold a node per observation.  In the
    term pairs t >= s (``pair_t``, ``pair_s``) observation i adds
    c_i A[i, t] A[i, s] to A_b' diag(c) A_b at the node pair (nodes[t, i],
    nodes[s, i]), times ``weight`` 2 where two terms meet one node, the
    cross term of (v_t + v_s)^2, and 1 elsewhere.  The first
    ``n_fixed_pairs`` pairs join two fixed-effect terms, so each of them
    meets one arrow node pair in every row."""

    def __init__(self, block):
        # a stable sort: the fixed-effect terms, then the component terms,
        # each in the block's order
        self.terms = tuple(
            sorted(block.terms, key=lambda t: t.spec.kind == "component")
        )
        self.size = block.size
        self.nodes = np.array([t.nodes for t in self.terms])
        self.coef = np.array([t.coef for t in self.terms])
        self.n_fixed = sum(t.spec.kind != "component" for t in self.terms)
        self.n_fixed_pairs = self.n_fixed * (self.n_fixed + 1) // 2
        self.fixed_nodes = self.nodes[:self.n_fixed, 0]
        self.pair_t, self.pair_s = np.tril_indices(len(self.terms))
        self.weight = np.where(
            (self.pair_t != self.pair_s)[:, None]
            & (self.nodes[self.pair_t] == self.nodes[self.pair_s]),
            2.0, 1.0,
        )
        self._design = None

    def design(self, theta):
        """The (terms, size) values coef * factor of A_b(theta)'s terms and
        the (size, pairs) weighted pair products, both read-only.

        They depend on theta only through the terms' chain factors, so
        they are kept for the last tuple of factors and recomputed when it
        changes: a block without scale chains computes them once per
        model, and a chained block again only when one of its chain's
        hypers moves."""
        key = tuple(term.factor(theta) for term in self.terms)
        # one read and one write of the memo, so a caller on another
        # thread never pairs this key with that thread's arrays
        memo = self._design
        if memo is None or memo[0] != key:
            vals = self.coef * np.array(key)[:, None]
            products = self.weight * vals[self.pair_t] * vals[self.pair_s]
            # observation-major, so that a fixed pair's sum over the
            # observations adds them in their order
            products = products.T.copy()
            vals.flags.writeable = products.flags.writeable = False
            memo = self._design = (key, vals, products)
        return memo[1], memo[2]


def _component_pattern(comp):
    """The (rows, cols) of each stored entry of one component's precision,
    in column-major order and rows ascending in each column, from its kind
    and size alone: the band of half-width 2 for ar2 and rw2, the nodes
    (c - 2 .. c + 2) mod p of each column c for cyclic_rw2, full d x d
    blocks for mv_iid and the diagonal for iid.  ar2's outer diagonals and
    mv_iid's off-diagonal entries vanish at special theta and stay stored;
    for the theta-free kinds the pattern is the unit matrix's canonical
    csc order."""
    if comp.kind in ("ar2", "rw2"):
        n = comp.size
        cols = np.repeat(np.arange(n), 5)
        rows = cols + np.tile(np.arange(-2, 3), n)
        keep = (rows >= 0) & (rows < n)
        return rows[keep], cols[keep]
    if comp.kind == "cyclic_rw2":
        p = comp.period
        rows = np.sort((np.arange(p)[:, None] + np.arange(-2, 3)) % p, axis=1)
        return rows.ravel(), np.repeat(np.arange(p), 5)
    if comp.kind == "mv_iid":
        d = comp.block_dim
        cols = np.repeat(np.arange(comp.dimension), d)
        return cols // d * d + np.tile(np.arange(d), comp.dimension), cols
    return np.arange(comp.size), np.arange(comp.size)


def _band_values(rows, cols, main, first, second):
    """The entries at (rows, cols) of the symmetric matrix of half-width 2
    with the given main, first and second diagonals."""
    band = np.zeros((3, main.size))
    band[0], band[1, :-1], band[2, :-2] = main, first, second
    return band[abs(rows - cols), np.minimum(rows, cols)]


def _unit_values(comp, rows, cols):
    """A theta-free component's unit precision at its pattern's (rows,
    cols), its log generalized determinant and its rank.

    Intrinsic fields are standardized to unit reference marginal sd, the
    root mean of their marginal variances under the constraints (the rw2
    analogue of the AR(2) unit-variance convention), so scale hypers read
    as the field's contribution sd and precision hypers as the field's own
    precision.  The reference variance is a closed form in the kind and
    size: (n^2 - 4)(n^2 + 5) / (420 n) for rw2 on n nodes and
    (p^2 - 1)(p^2 + 11) / (720 p) for the cyclic rw2 of period p.  Each
    value is an exact integer times that variance, and the log
    determinant gains rank times its log, as ``scale_precision`` rounds
    them."""
    if comp.kind == "iid":
        return np.ones(comp.size), 0.0, comp.size
    if comp.kind == "rw2":
        *diagonals, log_gdet = rw2_diagonals(comp.size)
        integers = _band_values(rows, cols, *diagonals)
        sd, rank = rw2_reference_sd(comp.size), comp.size - 2
    else:
        p = comp.period
        stencil, log_gdet = cyclic_rw2_stencil(p)
        integers = stencil[(rows - cols) % p]
        sd, rank = cyclic_rw2_reference_sd(p), p - 1
    variance = sd * sd
    return integers * variance, scaled_log_gdet(log_gdet, rank, variance), rank


class ModelStructure:
    """What a fit computes once per model: the sparsity patterns, fixed
    once the model is built, and each block's checked response terms.

    Holds each block's stacked term records (``_BlockDesign``, which also
    keeps its last design values and pair products) and the prior
    precision's pattern, block diagonal over the components in latent order
    and then the fixed effects' diagonal: ``prior_rows`` and ``prior_cols``
    give each stored entry's (row, col) in column-major order.
    ``responses`` holds each block's ``response_terms``, so a response
    outside its family's domain raises ``ObservationError`` when the
    structure is built, at the start of the first fit.  ``prior_parts``
    holds each component, its pattern's (rows, cols) within the component
    and, for the theta-free kinds iid, rw2 and cyclic_rw2, its unit values
    on that pattern with their log generalized determinant and rank
    (``_unit_values``), else None.  Per theta and per Newton step only
    values are computed (``NewtonSystem``).

    The Newton matrix Q* = Q_p + sum_b A_b' diag(c_b) A_b is stored as its
    band + arrow factor reads it (Rue & Held 2005, ch. 2).  ``perm`` gives
    the latent node at each factor position: the ``n_body`` component
    nodes in reverse Cuthill-McKee order, a band of half-width
    ``bandwidth``, then the fixed effects, a dense arrow.  Each node pair
    of Q*'s lower triangle in that order has one slot in a flat array of
    ``size`` values: the band in LAPACK lower band storage, the
    (n_body, n_arrow) cross block and the arrow block, each column-major.
    ``prior_slots`` holds (entries, slots) for the prior entries at or
    below the diagonal in factor order, and ``pairs`` per block the slot
    of each term pair's node pair at each observation, (pairs, size) in
    the block design's pair order: the row of each of the first
    ``n_fixed_pairs``, the fixed pairs, repeats its one arrow slot, and
    the rows after them are the component pairs' slots, pair-major as
    their bincount reads them.  ``constraint_cct`` and
    ``constraint_cct_logdet`` hold C C' and its log determinant, C the
    model's constraints."""

    def __init__(self, model):
        n = model.latent_dim
        self.model = model
        self.responses = {
            name: response_terms(blk.family, blk.responses)
            for name, blk in model.blocks.items()
        }
        self.blocks = {
            name: _BlockDesign(blk) for name, blk in model.blocks.items()
        }

        # prior: components in latent order, each one's columns after the
        # previous one's, then the fixed effects' diagonal
        self.prior_parts = []
        rows, cols = [], []
        for comp in model.spec.components:
            comp_rows, comp_cols = _component_pattern(comp)
            unit = None
            if comp.kind in ("iid", "rw2", "cyclic_rw2"):
                unit = _unit_values(comp, comp_rows, comp_cols)
            self.prior_parts.append((comp, comp_rows, comp_cols, unit))
            offset = model.comp_offsets[comp.name]
            rows.append(comp_rows + offset)
            cols.append(comp_cols + offset)
        self.effect_prec = np.array(
            [e.prior_sd**-2.0 for e in model.spec.fixed_effects]
        )
        self.effect_log_gdet = float(np.sum(np.log(self.effect_prec)))
        effects = np.arange(n - self.effect_prec.size, n)
        self.prior_rows = np.concatenate(rows + [effects])
        self.prior_cols = np.concatenate(cols + [effects])

        # the node pairs Q* stores: the prior's entries, then each block's
        # term pairs, (pairs, size) each; reverse Cuthill-McKee orders their
        # component block
        pair_nodes = [(self.prior_rows, self.prior_cols)] + [
            (pat.nodes[pat.pair_t], pat.nodes[pat.pair_s])
            for pat in self.blocks.values()
        ]
        rows, cols = (
            np.concatenate([np.ravel(a) for a in x]).astype(np.int64)
            for x in zip(*pair_nodes)
        )
        n_arrow = self.effect_prec.size
        self.n_body = n_body = n - n_arrow
        body = (rows < n_body) & (cols < n_body)
        rows, cols = rows[body], cols[body]
        self.perm = np.arange(n, dtype=np.int64)
        if n_body:
            # the symmetric csr pattern of the body, keyed in row-major order
            keys = np.unique(
                np.concatenate([rows * n_body + cols, cols * n_body + rows])
            )
            indptr = np.searchsorted(keys // n_body, np.arange(n_body + 1))
            B = sparse.csr_matrix(
                (np.ones(keys.size), keys % n_body, indptr),
                shape=(n_body, n_body),
            )
            self.perm[:n_body] = reverse_cuthill_mckee(B, symmetric_mode=True)
        rank = np.argsort(self.perm)  # the factor position of each node
        self.bandwidth = int(np.max(abs(rank[rows] - rank[cols]), initial=0))
        band_size = (self.bandwidth + 1) * n_body
        arrow_start = band_size + n_body * n_arrow
        self.size = arrow_start + n_arrow * n_arrow

        def slots(a, b):
            """The slot of node pair (a, b) in the flat storage."""
            r = np.maximum(rank[a], rank[b])
            c = np.minimum(rank[a], rank[b])
            band = c * (self.bandwidth + 1) + (r - c)
            cross = band_size + (r - n_body) * n_body + c
            arrow = arrow_start + (c - n_body) * n_arrow + (r - n_body)
            return np.where(
                r < n_body, band, np.where(c < n_body, cross, arrow)
            )

        rows, cols = self.prior_rows, self.prior_cols
        entries = np.flatnonzero(rank[rows] >= rank[cols])
        self.prior_slots = (entries, slots(rows[entries], cols[entries]))
        self.pairs = {
            name: slots(a, b) for name, (a, b) in zip(self.blocks, pair_nodes[1:])
        }
        C = model.constraints
        self.constraint_cct = C @ C.T
        self.constraint_cct_logdet = float(
            np.linalg.slogdet(self.constraint_cct)[1]
        )

    def prior_values(self, theta):
        """Q_p(theta)'s stored values on the prior pattern, and its log
        generalized determinant: a theta-free component's unit values,
        computed once with the structure, and ar2's diagonals or mv_iid's
        d x d block read at the component pattern's (rows, cols), each
        times its precision hyper.  Raises ``np.linalg.LinAlgError`` where
        saturated partials round R to indefinite."""
        parts, log_gdet = [], 0
        for comp, rows, cols, unit in self.prior_parts:
            rank = comp.dimension
            if unit is not None:
                data, comp_log_gdet, rank = unit
            elif comp.kind == "ar2":
                *diagonals, comp_log_gdet = ar2_diagonals(
                    comp.size, *(theta[h] for h in comp.pacf_hypers)
                )
                data = _band_values(rows, cols, *diagonals)
            else:
                d = comp.block_dim
                sigmas = np.array([theta[h] ** -0.5 for h in comp.sigma_hypers])
                R = partials_to_correlation([
                    theta[f"{comp.correlation_hyper}[{k}]"]
                    for k in range(d * (d - 1) // 2)
                ], d)
                sign, logdet_R = np.linalg.slogdet(R)
                if sign <= 0:
                    raise np.linalg.LinAlgError(
                        f"R of {comp.name!r} is not numerically positive definite"
                    )
                block, log_det_cov = _mv_iid_values(sigmas, R, logdet_R)
                data = block[rows % d, cols % d]
                comp_log_gdet = -comp.size * log_det_cov
            if comp.precision_hyper is not None:
                tau = theta[comp.precision_hyper]
                comp_log_gdet = scaled_log_gdet(comp_log_gdet, rank, tau)
                data = data * tau
            log_gdet += comp_log_gdet
            parts.append(data)
        if self.effect_prec.size:
            parts.append(self.effect_prec)
            log_gdet += self.effect_log_gdet
        return np.concatenate(parts), float(log_gdet)


class NewtonSystem:
    """The Newton problem at one theta on value arrays: the prior's stored
    values on its fixed pattern and each block's term values on its
    stacked term records.  A block's fixed-effect terms are dense columns
    X_b of A_b at their arrow nodes: A_b w adds X_b w[fixed_nodes] to the
    component terms' values times the gathered w[nodes], and A_b' v adds
    X_b' v at the fixed nodes to a bincount over the component nodes.
    ``values`` weighs each block's pair products A[i, t] A[i, s] by the
    curvatures of one Newton step: a fixed pair's products are summed over
    the observations, in their order, into its one arrow slot, and only
    the pairs that touch a component are bincounts over per-observation
    slots.  No sparse matrix is built.

    Per model ``ModelStructure`` holds the patterns, the slots of Q*'s
    storage and the response terms.  Per theta this object holds Q_p's
    values from ``ModelStructure.prior_values``, also placed in their
    slots (``base``), its log generalized
    determinant and each block's design values and pair products, which
    ``_BlockDesign.design`` recomputes only when the block's chain
    factors move.  Per step only the predictors, the gradient and
    ``values`` are computed."""

    def __init__(self, structure, theta):
        self.structure = structure
        self.prior_data, self.prior_log_gdet = structure.prior_values(theta)
        entries, slots = structure.prior_slots
        self.base = np.zeros(structure.size)
        self.base[slots] = self.prior_data[entries]
        self.designs, self.products = {}, {}
        for name, pat in structure.blocks.items():
            self.designs[name], self.products[name] = pat.design(theta)

    def prior_times(self, w):
        """Q_p w."""
        S = self.structure
        return np.bincount(
            S.prior_rows, weights=self.prior_data * w[S.prior_cols],
            minlength=w.size,
        )

    def predictor(self, name, w):
        """A_b w."""
        pat, vals = self.structure.blocks[name], self.designs[name]
        f = pat.n_fixed
        eta = np.dot(w[pat.fixed_nodes], vals[:f])
        if f < len(vals):
            eta += (vals[f:] * w[pat.nodes[f:]]).sum(0)
        return eta

    def transpose_times(self, name, v):
        """A_b' v."""
        pat, vals = self.structure.blocks[name], self.designs[name]
        f, n = pat.n_fixed, self.structure.model.latent_dim
        if f < len(vals):
            out = np.bincount(
                pat.nodes[f:].ravel(), weights=(vals[f:] * v).ravel(),
                minlength=n,
            )
        else:
            out = np.zeros(n)
        # two fixed-effect terms may share a node
        np.add.at(out, pat.fixed_nodes, np.dot(vals[:f], v))
        return out

    def values(self, curvatures):
        """Q*'s values in the structure's flat band + arrow storage, for
        per-block curvature vectors c_b."""
        data = self.base.copy()
        for name, slots in self.structure.pairs.items():
            f = self.structure.blocks[name].n_fixed_pairs
            c, products = curvatures[name], self.products[name]
            # each fixed pair's sum runs over the observations in order
            # (BLAS would sum in another); two pairs may share a slot
            np.add.at(
                data, slots[:f, 0], np.einsum("i,ij->j", c, products[:, :f])
            )
            if f < len(slots):
                # the component pairs' weights, pair-major as their slots
                weights = np.multiply(products[:, f:].T, c, order="C")
                data += np.bincount(
                    slots[f:].ravel(), weights=weights.ravel(),
                    minlength=data.size,
                )
        return data


@dataclass(frozen=True)
class PredictorTerm:
    """One expanded term of a block predictor.

    ``spec`` is the ``TermSpec`` as declared (never a shared term: those are
    expanded into the referenced block's terms), ``chain`` the names of
    every scale hyper that multiplies it, the shared-predictor scales first
    and its own scale last, and ``nodes`` and ``coef`` the latent node and
    coefficient of each observation as ``term_design`` gives them, without
    scales: the fitted inputs' on the assembled block, new inputs' in a copy.
    """

    spec: TermSpec
    chain: tuple
    nodes: np.ndarray
    coef: np.ndarray

    def factor(self, theta):
        """The product of the chain's natural hyper values."""
        factor = 1.0
        for h in self.chain:
            factor *= theta[h]
        return factor


def terms_predictor(terms, w, theta):
    """sum_t factor_t(theta) * w[..., nodes_t] * coef_t over the terms of a
    predictor, at latent w (one row per leading index) and natural theta.

    Each product is formed in place on its gather ``w[..., nodes]`` (a
    copy, so w is never written), factor first and coefficient second, and
    the sum starts from the first term's product and adds the others in
    place, so the output keeps the layout of the gathers: for the draws of
    ``GaussianApprox.sample``, one contiguous column per observation."""

    def product(t):
        g = w[..., t.nodes]
        g *= t.factor(theta)
        g *= t.coef
        return g

    first, *rest = terms
    eta = product(first)
    for t in rest:
        eta += product(t)
    return eta


@dataclass(frozen=True)
class AssembledBlock:
    name: str
    family: str
    responses: np.ndarray
    hyper: Optional[str]
    terms: tuple  # of PredictorTerm

    @property
    def size(self) -> int:
        return self.responses.size


def _expand_terms(block, block_by_name, seen):
    """Flatten shared-predictor references into (term, full scale chain)
    pairs, shared scales first."""
    if block.name in seen:
        chain = " -> ".join(list(seen) + [block.name])
        raise ConfigurationError(f"shared predictors form a cycle: {chain}")
    out = []
    for term in block.terms:
        if term.kind == "shared":
            inner = block_by_name.get(term.ref)
            if inner is None:
                raise ConfigurationError(
                    f"block {block.name!r}: shared term references unknown "
                    f"block {term.ref!r}"
                )
            if inner.size != block.size:
                raise ConfigurationError(
                    f"block {block.name!r}: shared predictor from {term.ref!r} "
                    f"needs matching sizes ({block.size} vs {inner.size})"
                )
            for t, chain in _expand_terms(
                inner, block_by_name, seen + [block.name]
            ):
                out.append((t, (term.scale,) + chain))
        else:
            out.append((term, (term.scale,) if term.scale else ()))
    return out


def term_design(model, block, term, m, covariates, indices):
    """Latent node and coefficient of each of m observations of block
    ``block`` under one expanded term, as two length-m arrays.

    ``covariates`` maps names to length-m columns, read by a fixed term.
    ``indices`` maps component names to length-m node maps, read by a
    component term; None stands for the fitted inputs, where a component
    term uses its own ``indices`` or else the identity.  A cyclic_rw2
    component without a map takes position modulo its period.  Raises
    ConfigurationError for an unknown fixed effect, component or covariate,
    a missing node map, an input whose length is not m, or a node outside
    the component.
    """
    if term.kind in ("intercept", "fixed"):
        node = model.effect_nodes.get(term.ref)
        if node is None:
            raise ConfigurationError(
                f"block {block!r}: term references unknown fixed effect "
                f"{term.ref!r}"
            )
        coef = np.ones(m)
        if term.kind == "fixed":
            z = covariates.get(term.covariate)
            if z is None:
                raise ConfigurationError(
                    f"block {block!r}: covariate {term.covariate!r} is not given"
                )
            coef = np.asarray(z, dtype=float)
            if coef.size != m:
                raise ConfigurationError(
                    f"block {block!r}: covariate {term.covariate!r} has "
                    f"length {coef.size}, expected {m}"
                )
        return np.full(m, node), coef
    comp = model.components.get(term.ref)
    if comp is None:
        raise ConfigurationError(
            f"block {block!r}: term references unknown component {term.ref!r}"
        )
    idx = term.indices if indices is None else indices.get(term.ref)
    if idx is None:
        if comp.kind == "cyclic_rw2":
            idx = np.arange(m) % comp.period
        elif indices is None:
            idx = np.arange(m)
        else:
            raise ConfigurationError(
                f"block {block!r}: new inputs need node indices for "
                f"component {term.ref!r}"
            )
    idx = np.asarray(idx, dtype=int)
    if idx.size != m:
        raise ConfigurationError(
            f"block {block!r}: index map for component {term.ref!r} has "
            f"length {idx.size}, expected {m}"
        )
    if idx.min() < 0 or idx.max() >= comp.dimension:
        raise ConfigurationError(
            f"block {block!r}: component term indices exceed {term.ref!r} "
            f"(dimension {comp.dimension}); future positions need a "
            f"forecast task"
        )
    return model.comp_offsets[comp.name] + idx, np.ones(m)


def _layout_hypers(spec):
    """Deterministic hyper order: block likelihood hypers, component hypers,
    then scale hypers in first-appearance order over block terms."""
    coords = []
    roles = {}

    def bind(name, role):
        if name in roles:
            raise ConfigurationError(
                f"hyperparameter {name!r} bound twice: {roles[name]} and {role}"
            )
        prior = spec.hypers.get(name)
        if prior is None:
            raise ConfigurationError(
                f"{role} references undeclared hyperparameter {name!r}"
            )
        roles[name] = role
        coords.append(HyperCoord(name, prior, role))

    for block in spec.blocks:
        if block.hyper is not None:
            bind(block.hyper, f"likelihood hyper of block {block.name!r}")
    for comp in spec.components:
        if comp.precision_hyper is not None:
            bind(comp.precision_hyper, f"precision of component {comp.name!r}")
        for k, name in enumerate(comp.pacf_hypers):
            bind(name, f"pacf({k + 1}) of component {comp.name!r}")
        for j, name in enumerate(comp.sigma_hypers):
            bind(name, f"sigma[{j}] of component {comp.name!r}")
        if comp.kind == "mv_iid" and comp.correlation_hyper is not None:
            d = comp.block_dim
            base = spec.hypers.get(comp.correlation_hyper)
            if base is None:
                raise ConfigurationError(
                    f"component {comp.name!r} references undeclared "
                    f"correlation hyper {comp.correlation_hyper!r}"
                )
            if base.family != "lkj":
                raise ConfigurationError(
                    f"component {comp.name!r}: correlation hyper must have an "
                    f"lkj prior, got {base.family!r}"
                )
            roles[comp.correlation_hyper] = f"correlation of {comp.name!r}"
            for k, level in enumerate(vine_levels(d)):
                coords.append(
                    HyperCoord(
                        f"{comp.correlation_hyper}[{k}]",
                        PriorSpec("lkj", base.parameters, vine=(d, level)),
                        f"vine partial {k} of component {comp.name!r}",
                    )
                )
    # scale hypers bind to exactly one raw term; shared expansion may then
    # replicate them across chains without rebinding
    for block in spec.blocks:
        for term in block.terms:
            if term.scale is not None:
                bind(term.scale, f"scale of {term.kind} term {term.ref!r} "
                                 f"in block {block.name!r}")
    return coords, roles


def build_model(spec: ModelSpec) -> AssembledModel:
    """Validate and flatten a ModelSpec; deterministic for identical specs."""
    names = [b.name for b in spec.blocks]
    if len(set(names)) != len(names):
        raise ConfigurationError("duplicate block names")
    comp_names = [c.name for c in spec.components]
    if len(set(comp_names)) != len(comp_names):
        raise ConfigurationError("duplicate component names")
    effect_names = [e.name for e in spec.fixed_effects]
    if len(set(effect_names)) != len(effect_names):
        raise ConfigurationError("duplicate fixed effect names")

    # latent layout: components in declaration order, then fixed effects
    comp_offsets, dim = {}, 0
    for comp in spec.components:
        comp_offsets[comp.name] = dim
        dim += comp.dimension
    effect_nodes = {}
    for e in spec.fixed_effects:
        effect_nodes[e.name] = dim
        dim += 1

    coords, roles = _layout_hypers(spec)

    unbound = set(spec.hypers) - set(roles)
    if unbound:
        raise ConfigurationError(
            f"declared hyperparameters never bound: {sorted(unbound)}"
        )

    # global constraint rows, padded to the latent dimension: the null
    # spaces of the intrinsic kinds, the constant and the linear trend for
    # rw2 and the constant for cyclic_rw2, one row per unit of rank
    # deficiency
    rows, owners = [], []
    for comp in spec.components:
        if comp.kind == "rw2":
            C = [np.ones(comp.size), np.arange(1.0, comp.size + 1.0)]
        elif comp.kind == "cyclic_rw2":
            C = [np.ones(comp.period)]
        else:
            continue
        for c in C:
            row = np.zeros(dim)
            row[comp_offsets[comp.name]: comp_offsets[comp.name] + c.size] = c
            rows.append(row)
            owners.append(comp.name)
    constraints = np.vstack(rows) if rows else np.empty((0, dim))

    model = AssembledModel(
        spec=spec,
        hyper_coords=coords,
        comp_offsets=comp_offsets,
        effect_nodes=effect_nodes,
        latent_dim=dim,
        constraints=constraints,
    )

    # expand each block's predictor into terms laid out on the latent field
    block_by_name = {b.name: b for b in spec.blocks}
    for block in spec.blocks:
        n = block.size
        terms = []
        for term, chain in _expand_terms(block, block_by_name, []):
            terms.append(PredictorTerm(term, chain, *term_design(
                model, block.name, term, n, spec.covariates, None
            )))
        model.blocks[block.name] = AssembledBlock(
            block.name, block.family, block.responses, block.hyper, tuple(terms)
        )

    # Q* = Q_prior + A'WA and null(Q_prior) is the row space of C, so Q* is
    # singular at every theta when A C'u = 0 for some u != 0: a combination
    # of the intrinsic components' null directions (their constraint rows)
    # that no predictor sees, such as one component left unreferenced, or
    # the constants of rw2 + cyclic_rw2 in one predictor.  A is every
    # block's predictor at unit scales; its column rank on C' is judged
    # like numpy's matrix_rank, on the k x k R of a QR
    k = constraints.shape[0]
    if k:
        seen = np.vstack([
            sum(
                (t.coef[:, None] * constraints[:, t.nodes].T
                 for t in blk.terms if t.spec.kind == "component"),
                np.zeros((blk.size, k)),
            )
            for blk in model.blocks.values()
        ])
        _, sv, vt = np.linalg.svd(np.linalg.qr(seen, mode="r"))
        tol = sv.max(initial=0.0) * max(seen.shape) * np.finfo(float).eps
        rank = int(np.sum(sv > tol))
        if rank < k:
            weight = np.abs(vt[rank:]).max(axis=0)
            names = sorted({owners[j] for j in np.flatnonzero(weight > 1e-8)})
            raise ConfigurationError(
                f"the observations cannot pin down intrinsic component(s) "
                f"{', '.join(map(repr, names))}: a combination of their "
                f"constraint directions leaves every predictor unchanged, so "
                f"the conditional precision is singular at every theta"
            )

    if dim == 0:
        raise ConfigurationError("model has no latent nodes")
    for blk in model.blocks.values():
        if not blk.terms:
            raise ConfigurationError(
                f"block {blk.name!r} has no predictor terms"
            )
    return model


def classical_sincos_spec(y, x, tau_prior=None) -> ModelSpec:
    """The comparator regression: y on cos(x), sin(x) and an intercept, with
    a Gaussian response.  Flags degenerate circular covariates whose cos or
    sin column is constant (collinear with the intercept)."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape:
        raise ConfigurationError("y and x must have matching lengths")
    cos_x, sin_x = np.cos(x), np.sin(x)
    for label, col in (("cos(x)", cos_x), ("sin(x)", sin_x)):
        if np.ptp(col) < 1e-10:
            warnings.warn(
                f"{label} column is constant and collinear with the intercept",
                UserWarning,
                stacklevel=2,
            )
    if tau_prior is None:
        tau_prior = PriorSpec("pc_precision", (0.5, 0.5))
    block = BlockSpec(
        name="y",
        family="gaussian",
        responses=y,
        hyper="tau",
        terms=(
            TermSpec("intercept", "beta0"),
            TermSpec("fixed", "alpha1", covariate="cos_x"),
            TermSpec("fixed", "alpha2", covariate="sin_x"),
        ),
    )
    return ModelSpec(
        blocks=(block,),
        fixed_effects=(
            FixedEffectSpec("beta0", 1.0),
            FixedEffectSpec("alpha1", 1.0),
            FixedEffectSpec("alpha2", 1.0),
        ),
        hypers={"tau": tau_prior},
        covariates={"cos_x": cos_x, "sin_x": sin_x},
    )
