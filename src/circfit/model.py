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
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .latent import (
    SparsePrecision,
    build_ar2,
    build_cyclic_rw2,
    build_iid,
    build_mv_iid,
    build_rw2,
    cyclic_rw2_reference_sd,
    rw2_reference_sd,
    scale_precision,
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
    "predictor_values",
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
    dimension equal to it.
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
        if self.prior_sd <= 0:
            raise ConfigurationError(
                f"fixed effect {self.name!r}: prior sd must be positive"
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
                 latent_dim, constraints, unit_precisions):
        self.spec = spec
        self.hyper_coords = hyper_coords
        self.hyper_index = {c.name: i for i, c in enumerate(hyper_coords)}
        self.blocks = {}
        self.comp_offsets = comp_offsets
        self.effect_nodes = effect_nodes
        self.latent_dim = latent_dim
        self.constraints = constraints
        self._unit = unit_precisions
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

    def _base_precision(self, comp: ComponentSpec, theta: dict) -> SparsePrecision:
        """The component's precision before its precision hyper scales it."""
        if comp.kind == "ar2":
            return build_ar2(
                comp.size, theta[comp.pacf_hypers[0]], theta[comp.pacf_hypers[1]]
            )
        if comp.kind == "mv_iid":
            d = comp.block_dim
            sigmas = np.array([theta[h] ** -0.5 for h in comp.sigma_hypers])
            if d == 1:
                R = np.eye(1)
            else:
                gam = np.array(
                    [
                        theta[f"{comp.correlation_hyper}[{k}]"]
                        for k in range(d * (d - 1) // 2)
                    ]
                )
                R = partials_to_correlation(gam, d)
            return build_mv_iid(comp.size, sigmas, R)
        return self._unit[comp.name]

    def component_precision(self, comp: ComponentSpec, theta: dict) -> SparsePrecision:
        base = self._base_precision(comp, theta)
        if comp.precision_hyper is not None:
            base = scale_precision(base, theta[comp.precision_hyper])
        return base

    def prior_precision(self, theta: dict):
        """Joint prior precision over the latent vector and its generalized
        log-determinant, at natural hyper values theta.  The matrix keeps
        the structural pattern whatever theta is."""
        return self.structure.prior_precision(theta)

    # -- predictors -------------------------------------------------------

    def block_matrix(self, block_name: str, theta: dict) -> sparse.csr_array:
        """A_b(theta): observation-by-latent matrix with all scale hypers
        multiplied in, so eta_b = A_b w.  The matrix keeps the union pattern
        of the block's terms whatever theta is."""
        return self.structure.blocks[block_name].matrix(theta)

    def predictor(self, block_name: str, w: np.ndarray, theta: dict) -> np.ndarray:
        return terms_predictor(self.blocks[block_name].terms, w, theta)


def _pattern(keys, shape, fmt):
    """The canonical (sorted, duplicate-free) csr or csc pattern of the
    entries with the given keys, as ``_keys`` forms them; keys may repeat.
    Stored zeros count, so a pattern never depends on values."""
    keys = np.unique(keys)
    major_dim, minor_dim = shape if fmt == "csr" else shape[::-1]
    indptr = np.searchsorted(keys // minor_dim, np.arange(major_dim + 1))
    compressed = sparse.csr_array if fmt == "csr" else sparse.csc_array
    P = compressed((np.ones(keys.size), keys % minor_dim, indptr), shape=shape)
    # matrices built on this pattern share its index arrays
    P.indices.flags.writeable = False
    P.indptr.flags.writeable = False
    return P


def _keys(P):
    """Sortable key per stored entry of a compressed matrix: major index
    times the minor dimension plus the minor index."""
    major = np.repeat(np.arange(P.indptr.size - 1, dtype=np.int64), np.diff(P.indptr))
    minor_dim = P.shape[1] if P.format == "csr" else P.shape[0]
    return major * minor_dim + P.indices


def _positions(pattern_keys, P):
    """Where P's stored entries sit in a canonical pattern with those keys."""
    return np.searchsorted(pattern_keys, _keys(P))


class _BlockPattern:
    """Union CSR pattern of a block's terms and a (terms, nnz) coefficient
    array, so A_b(theta) = sum_t coef[t] * (product of chain t's scales).
    ``rows`` and ``cols`` give each stored entry's position, and
    ``nz_a``, ``nz_b`` every pair of stored entries a, b in one row with
    cols[a] >= cols[b]: the products A[i, a] A[i, b] of these pairs make
    up the lower triangle of the symmetric A_b' diag(c) A_b."""

    def __init__(self, block, latent_dim):
        # each term stores one entry per observation, keyed as in csr
        obs = np.arange(block.size)
        keys = np.array([obs * latent_dim + t.nodes for t in block.terms])
        union, where = np.unique(keys, return_inverse=True)
        where = where.reshape(keys.shape)
        self.coef = np.zeros((len(block.terms), union.size))
        for t, term in enumerate(block.terms):
            self.coef[t, where[t]] = term.coef
        self.terms = block.terms
        self.pattern = _pattern(union, (block.size, latent_dim), "csr")
        self.rows = union // latent_dim
        self.cols = union % latent_dim
        P = self.pattern
        partners = np.diff(P.indptr)[self.rows]
        nz_a = np.repeat(np.arange(P.nnz), partners)
        first = np.cumsum(partners) - partners
        nz_b = np.repeat(P.indptr[self.rows], partners) + (
            np.arange(nz_a.size) - np.repeat(first, partners)
        )
        lower = self.cols[nz_a] >= self.cols[nz_b]
        self.nz_a, self.nz_b = nz_a[lower], nz_b[lower]
        self._design = None

    def _combine(self, factors):
        data = None
        for coef, factor in zip(self.coef, factors):
            data = coef * factor if data is None else data + coef * factor
        return data

    def values(self, theta):
        """A_b(theta)'s stored values in pattern order."""
        return self._combine([term.factor(theta) for term in self.terms])

    def design(self, theta):
        """A_b(theta)'s stored values and pair products, both read-only.

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
            data = self._combine(key)
            products = data[self.nz_a] * data[self.nz_b]
            data.flags.writeable = products.flags.writeable = False
            memo = self._design = (key, data, products)
        return memo[1], memo[2]

    def matrix(self, theta):
        P = self.pattern
        return sparse.csr_array(
            (self.values(theta), P.indices, P.indptr), shape=P.shape
        )


def _component_pattern(model, comp):
    """Structural pattern of one component's precision: the unit matrix's
    for theta-free kinds, the full band for ar2 and full d x d blocks for
    mv_iid, so entries that vanish at special theta stay stored."""
    if comp.kind == "ar2":
        n = comp.size
        M = sparse.diags_array(
            [np.ones(n - abs(k)) for k in range(-2, 3)], offsets=range(-2, 3)
        )
    elif comp.kind == "mv_iid":
        d = comp.block_dim
        M = sparse.kron(sparse.eye_array(comp.size), np.ones((d, d)))
    else:
        M = model._unit[comp.name].matrix
    return _pattern(_keys(sparse.csc_array(M)), M.shape, "csc")


class ModelStructure:
    """What a fit computes once per model: the sparsity patterns, fixed
    once the model is built, and each block's checked response terms.

    Holds each block's union pattern (``_BlockPattern``, which also keeps
    its last design values and pair products), the block-diagonal pattern
    of the prior precision, the pattern of the Newton matrix
    Q* = Q_p + sum_b A_b' diag(c_b) A_b, and per block the scatter map
    (obs, pos): observation i adds c_i A[i, a] A[i, b] at position pos of
    Q*'s data for every pair (nz_a, nz_b) of stored entries a, b of row i
    in the lower triangle, and ``lower_twin`` copies each lower entry's
    sum to its mirror image: the products and the sums are symmetric.
    ``responses`` holds each block's ``response_terms``, so a response
    outside its family's domain raises ``ObservationError`` when the
    structure is built, at the start of the first fit.  Per theta and per
    Newton step only values are computed (``NewtonSystem``).

    Q* is factorized in a band + arrow layout (Rue & Held 2005, ch. 2),
    fixed here too.  The component nodes in reverse Cuthill-McKee order
    (``order`` lists the node at each band position) form a band of
    half-width ``bandwidth``; the trailing fixed effects form a dense
    arrow, coupled to every band node they share an observation with.
    Scatter maps take Q*'s values straight into LAPACK lower band storage
    for the band, a dense (band, arrow) cross block and the dense arrow
    block.  ``constraint_cct`` and ``constraint_cct_logdet`` hold C C' and
    its log determinant, C the model's constraints."""

    def __init__(self, model):
        n = model.latent_dim
        self.model = model
        self.responses = {
            name: response_terms(blk.family, blk.responses)
            for name, blk in model.blocks.items()
        }
        self.blocks = {
            name: _BlockPattern(blk, n) for name, blk in model.blocks.items()
        }

        # prior: components in latent order, then the fixed effects
        self.prior_parts = []
        patterns = []
        for comp in model.spec.components:
            P = _component_pattern(model, comp)
            patterns.append(P)
            keys, unit_data = _keys(P), None
            if comp.name in model._unit:
                unit = model._unit[comp.name].matrix
                unit_data = np.zeros(P.nnz)
                unit_data[_positions(keys, unit)] = unit.data
            self.prior_parts.append((comp, keys, unit_data))
        self.effect_prec = np.array(
            [e.prior_sd**-2.0 for e in model.spec.fixed_effects]
        )
        self.effect_log_gdet = float(np.sum(np.log(self.effect_prec)))
        if self.effect_prec.size:
            patterns.append(sparse.eye_array(self.effect_prec.size, format="csc"))
        prior = sparse.block_diag(patterns, format="csc")
        self.prior = _pattern(_keys(prior), prior.shape, "csc")
        self.prior_rows = self.prior.indices
        self.prior_cols = np.repeat(np.arange(n), np.diff(self.prior.indptr))

        # Newton matrix: the prior pattern plus every block's A'A pattern,
        # whose entries are the pairs of stored entries of a row of A and
        # their mirror images
        self.pairs = {}
        keys = [_keys(self.prior)]
        for name, pat in self.blocks.items():
            # Q* is csc: entry (row pat.cols[nz_a], column pat.cols[nz_b])
            row, col = pat.cols[pat.nz_a], pat.cols[pat.nz_b]
            self.pairs[name] = (pat.rows[pat.nz_a], col * n + row)
            keys += [col * n + row, row * n + col]
        self.qstar = _pattern(np.concatenate(keys), (n, n), "csc")
        q_keys = _keys(self.qstar)
        self.prior_in_qstar = _positions(q_keys, self.prior)
        # each pair's key becomes its position in Q*'s data
        for name, (obs, keys) in self.pairs.items():
            self.pairs[name] = (obs, np.searchsorted(q_keys, keys))

        # band + arrow layout of Q*; rank is a node's band or arrow index
        Q = self.qstar
        n_arrow = self.effect_prec.size
        n_body = n - n_arrow
        rows = Q.indices.astype(np.int64)
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(Q.indptr))
        self.diag_pos = np.flatnonzero(rows == cols)
        # each stored entry's mirror image in the lower triangle
        self.lower_twin = np.searchsorted(
            q_keys, np.minimum(rows, cols) * n + np.maximum(rows, cols)
        )
        self.order = np.zeros(0, dtype=np.int64)
        if n_body:
            self.order = reverse_cuthill_mckee(
                sparse.csr_matrix(Q[:n_body, :n_body]), symmetric_mode=True
            ).astype(np.int64)
        rank = np.arange(n, dtype=np.int64) - n_body
        rank[self.order] = np.arange(n_body)
        r, c = rank[rows], rank[cols]
        in_band = (rows < n_body) & (cols < n_body) & (r >= c)
        self.bandwidth = int(np.max(r[in_band] - c[in_band])) if n_body else 0
        cross = (rows < n_body) & (cols >= n_body)
        arrow = (rows >= n_body) & (cols >= n_body)
        # destinations in the column-major storage of each piece
        self.band_map = (
            np.flatnonzero(in_band),
            c[in_band] * (self.bandwidth + 1) + (r - c)[in_band],
        )
        self.cross_map = (np.flatnonzero(cross), c[cross] * n_body + r[cross])
        self.arrow_map = (np.flatnonzero(arrow), c[arrow] * n_arrow + r[arrow])
        C = model.constraints
        self.constraint_cct = C @ C.T
        self.constraint_cct_logdet = float(
            np.linalg.slogdet(self.constraint_cct)[1]
        )

    def prior_values(self, theta):
        """Q_p(theta)'s stored values on the prior pattern, and its log
        generalized determinant."""
        model = self.model
        parts, log_gdet = [], 0
        for comp, keys, unit_data in self.prior_parts:
            tau = (
                None if comp.precision_hyper is None
                else theta[comp.precision_hyper]
            )
            if unit_data is None:
                built = model._base_precision(comp, theta)
                data = np.zeros(keys.size)
                data[_positions(keys, built.matrix)] = built.matrix.data
            else:
                built, data = model._unit[comp.name], unit_data
            if tau is None:
                log_gdet += built.log_gdet
            else:
                log_gdet += scaled_log_gdet(built, tau)
                data = data * tau
            parts.append(data)
        if self.effect_prec.size:
            parts.append(self.effect_prec)
            log_gdet += self.effect_log_gdet
        return np.concatenate(parts), float(log_gdet)

    def prior_precision(self, theta):
        data, log_gdet = self.prior_values(theta)
        P = self.prior
        Q = sparse.csc_array((data, P.indices, P.indptr), shape=P.shape)
        return Q, log_gdet

    def qstar_matrix(self, data):
        """Q* as a csc matrix from its stored values."""
        P = self.qstar
        return sparse.csc_matrix((data, P.indices, P.indptr), shape=P.shape)

    def band_arrow(self, data):
        """Q*'s values split into new column-major arrays (band, cross,
        arrow): the band's lower half in LAPACK band storage, shape
        (bandwidth + 1, n_body), the (n_body, n_arrow) cross block in band
        order, and the (n_arrow, n_arrow) arrow block."""
        n_body, n_arrow = self.order.size, self.effect_prec.size
        pieces = []
        for (src, dst), size in (
            (self.band_map, (n_body, self.bandwidth + 1)),
            (self.cross_map, (n_arrow, n_body)),
            (self.arrow_map, (n_arrow, n_arrow)),
        ):
            flat = np.zeros(size[0] * size[1])
            flat[dst] = data[src]
            pieces.append(flat.reshape(size).T)
        return tuple(pieces)


class NewtonSystem:
    """The Newton problem at one theta on value arrays: the prior's and
    each block's stored values on their fixed patterns.  Matrix-vector
    products are bincounts over those patterns, and ``values`` weighs each
    block's pair products A[i, a] A[i, b] by the curvatures of one Newton
    step.  No sparse matrix is built, and the per-step gathers use
    ``np.take``, which is quicker than fancy indexing at these sizes.

    Per model ``ModelStructure`` holds the patterns, the scatter maps and
    the response terms.  Per theta this object holds Q_p's values and log
    generalized determinant and each block's design values and pair
    products, which ``_BlockPattern.design`` recomputes only when the
    block's chain factors move.  Per step only the predictors, the
    gradient and ``values`` are computed."""

    def __init__(self, structure, theta):
        self.structure = structure
        self.prior_data, self.prior_log_gdet = structure.prior_values(theta)
        self.base = np.zeros(structure.qstar.nnz)
        self.base[structure.prior_in_qstar] = self.prior_data
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
        P = self.structure.blocks[name]
        return np.bincount(
            P.rows, weights=self.designs[name] * np.take(w, P.cols),
            minlength=P.pattern.shape[0],
        )

    def transpose_times(self, name, v):
        """A_b' v."""
        P = self.structure.blocks[name]
        return np.bincount(
            P.cols, weights=self.designs[name] * np.take(v, P.rows),
            minlength=P.pattern.shape[1],
        )

    def values(self, curvatures):
        """Q*'s stored values for per-block curvature vectors c_b."""
        S = self.structure
        data = self.base.copy()
        for name, (obs, pos) in S.pairs.items():
            lower = np.bincount(
                pos,
                weights=np.take(curvatures[name], obs) * self.products[name],
                minlength=data.size,
            )
            data += lower[S.lower_twin]
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

    # scale hypers bind to exactly one raw term; shared expansion may then
    # replicate them across chains without rebinding
    declared = set(spec.hypers)
    scale_roles = {}
    for block in spec.blocks:
        for term in block.terms:
            if term.scale is None:
                continue
            role = f"scale of {term.kind} term {term.ref!r} in block {block.name!r}"
            if term.scale in roles or term.scale in scale_roles:
                prev = roles.get(term.scale) or scale_roles[term.scale][0]
                raise ConfigurationError(
                    f"hyperparameter {term.scale!r} bound twice: {prev} and {role}"
                )
            if term.scale not in declared:
                raise ConfigurationError(
                    f"{role} references undeclared hyperparameter {term.scale!r}"
                )
            scale_roles[term.scale] = (role, term)

    # unit builds for theta-independent components; intrinsic fields are
    # standardized to unit reference marginal sd, the root mean of their
    # marginal variances under the constraints (the rw2 analogue of the
    # AR(2) unit-variance convention), so scale hypers read as the field's
    # contribution sd and precision hypers as the field's own precision.
    # The reference variance is a closed form in the kind and size:
    # (n^2 - 4)(n^2 + 5) / (420 n) for rw2 on n nodes and
    # (p^2 - 1)(p^2 + 11) / (720 p) for the cyclic rw2 of period p.
    unit = {}
    for comp in spec.components:
        if comp.kind == "iid":
            unit[comp.name] = build_iid(comp.size)
        elif comp.kind == "rw2":
            sd = rw2_reference_sd(comp.size)
            unit[comp.name] = scale_precision(build_rw2(comp.size), sd * sd)
        elif comp.kind == "cyclic_rw2":
            sd = cyclic_rw2_reference_sd(comp.period)
            unit[comp.name] = scale_precision(
                build_cyclic_rw2(comp.size, comp.period), sd * sd
            )

    for name, (role, term) in scale_roles.items():
        coords.append(HyperCoord(name, spec.hypers[name], role))
        roles[name] = role

    unbound = declared - set(roles)
    if unbound:
        raise ConfigurationError(
            f"declared hyperparameters never bound: {sorted(unbound)}"
        )

    # global constraint rows, padded to the latent dimension
    rows, owners = [], []
    for comp in spec.components:
        if comp.name in unit and unit[comp.name].rank_deficiency > 0:
            C = np.atleast_2d(unit[comp.name].constraints)
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
        unit_precisions=unit,
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


def predictor_values(model: AssembledModel, w: np.ndarray, theta: dict) -> dict:
    """Per-block predictor vectors at latent w and natural hyper values."""
    return {name: model.predictor(name, w, theta) for name in model.blocks}


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
