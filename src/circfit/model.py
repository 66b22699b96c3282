"""Declarative joint-model assembly.

A model is a set of observation blocks (one likelihood family each), latent
components, and fixed effects, tied together by per-block predictor terms.
Scale parameters that multiply component nodes or whole shared predictors are
hyperparameters, so conditional on the hyper vector every predictor is linear
in the latent field and the model stays a latent Gaussian model.

Assembly expands shared predictors symbolically: a term like
b1 * (predictor of block x) becomes the inner block's terms with b1 joined
onto each term's chain of scale hyperparameters.
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
    reference_marginal_sd,
    scale_precision,
    scaled_log_gdet,
)
from .likelihoods import FAMILY_HYPERS, LikelihoodFamily, ObservationBlock
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
    "build_model",
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
    """The flattened model: latent layout, hyper layout, per-block terms."""

    def __init__(self, spec, hyper_coords, blocks, comp_offsets, effect_nodes,
                 latent_dim, constraints, unit_precisions):
        self.spec = spec
        self.hyper_coords = hyper_coords
        self.hyper_index = {c.name: i for i, c in enumerate(hyper_coords)}
        self.blocks = blocks
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
        """The fixed sparsity structure, built on first use inside a fit."""
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
        return self.block_matrix(block_name, theta) @ w


def _pattern(mats, shape, fmt):
    """Union of the stored-entry patterns of mats in canonical (sorted,
    duplicate-free) csr or csc form.  Stored zeros count, so the pattern
    never depends on values."""
    coos = [sparse.coo_array(M) for M in mats]
    rows = np.concatenate([C.row for C in coos])
    cols = np.concatenate([C.col for C in coos])
    C = sparse.coo_array((np.ones(rows.size), (rows, cols)), shape=shape)
    P = C.tocsr() if fmt == "csr" else C.tocsc()
    P.sum_duplicates()
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
    ``rows`` and ``cols`` give each stored entry's position."""

    def __init__(self, block, latent_dim):
        mats = [M for M, _ in block.terms]
        union = _pattern(mats, (block.size, latent_dim), "csr")
        keys = _keys(union)
        self.coef = np.zeros((len(block.terms), union.nnz))
        for t, M in enumerate(mats):
            M = sparse.csr_array(M)
            self.coef[t, _positions(keys, M)] = M.data
        self.chains = [chain for _, chain in block.terms]
        self.pattern = union
        self.rows = np.repeat(np.arange(union.shape[0]), np.diff(union.indptr))
        self.cols = union.indices

    def values(self, theta):
        """A_b(theta)'s stored values in pattern order."""
        data = None
        for coef, chain in zip(self.coef, self.chains):
            factor = 1.0
            for h in chain:
                factor *= theta[h]
            data = coef * factor if data is None else data + coef * factor
        return data

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
    return _pattern([M], M.shape, "csc")


class ModelStructure:
    """Sparsity patterns of an assembled model, fixed once it is built.

    Holds each block's union pattern, the block-diagonal pattern of the
    prior precision, the pattern of the Newton matrix
    Q* = Q_p + sum_b A_b' diag(c_b) A_b, and per block the scatter map
    (obs, nz_a, nz_b, pos): observation i adds c_i A[i, a] A[i, b] at
    position pos of Q*'s data for every pair of stored entries a, b of
    row i.  Per theta and per Newton step only values are computed.

    Q* is factorized in a band + arrow layout (Rue & Held 2005, ch. 2),
    fixed here too.  The component nodes in reverse Cuthill-McKee order
    (``order`` lists the node at each band position) form a band of
    half-width ``bandwidth``; the trailing fixed effects form a dense
    arrow, coupled to every band node they share an observation with.
    Scatter maps take Q*'s values straight into LAPACK lower band storage
    for the band, a dense (band, arrow) cross block and the dense arrow
    block.  The constraint ridge Q* + rho C'C needs the band at the full
    body bandwidth: ``full_band_map`` scatters Q*'s values into that
    storage, and ``constraint_gram`` holds C'C split the same way, once.
    """

    def __init__(self, model):
        n = model.latent_dim
        self.model = model
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
        prior = sparse.block_diag(patterns)
        self.prior = _pattern([prior], prior.shape, "csc")
        self.prior_rows = self.prior.indices
        self.prior_cols = np.repeat(np.arange(n), np.diff(self.prior.indptr))

        # Newton matrix: the prior pattern plus every block's A'A pattern
        self.qstar = _pattern(
            [self.prior]
            + [pat.pattern.T @ pat.pattern for pat in self.blocks.values()],
            (n, n),
            "csc",
        )
        q_keys = _keys(self.qstar)
        self.prior_in_qstar = _positions(q_keys, self.prior)
        self.pairs = {}
        for name, pat in self.blocks.items():
            P = pat.pattern
            lengths = np.diff(P.indptr)
            obs_of = np.repeat(np.arange(P.shape[0]), lengths)
            partners = lengths[obs_of]
            nz_a = np.repeat(np.arange(P.nnz), partners)
            first = np.cumsum(partners) - partners
            nz_b = np.repeat(P.indptr[obs_of], partners) + (
                np.arange(nz_a.size) - np.repeat(first, partners)
            )
            # Q* is csc: entry (row cols[nz_a], column cols[nz_b])
            cols = P.indices.astype(np.int64)
            pos = np.searchsorted(q_keys, cols[nz_b] * n + cols[nz_a])
            self.pairs[name] = (obs_of[nz_a], nz_a, nz_b, pos)

        # band + arrow layout of Q*; rank is a node's band or arrow index
        Q = self.qstar
        n_arrow = self.effect_prec.size
        n_body = n - n_arrow
        rows = Q.indices.astype(np.int64)
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(Q.indptr))
        self.diag_pos = np.flatnonzero(rows == cols)
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
        self.full_band_map = (
            np.flatnonzero(in_band), c[in_band] * n_body + (r - c)[in_band]
        )
        self.cross_map = (np.flatnonzero(cross), c[cross] * n_body + r[cross])
        self.arrow_map = (np.flatnonzero(arrow), c[arrow] * n_arrow + r[arrow])
        # C'C split at the full body bandwidth, for the constraint ridge
        C = model.constraints
        self.constraint_gram = (
            self.band_arrow_dense(C.T @ C) if C.shape[0] else None
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

    def diagonal(self, data):
        """Q*'s diagonal from its stored values."""
        return data[self.diag_pos]

    def band_arrow(self, data):
        """Q*'s values split into new column-major arrays (band, cross,
        arrow): the band's lower half in LAPACK band storage, shape
        (bandwidth + 1, n_body), the (n_body, n_arrow) cross block in band
        order, and the (n_arrow, n_arrow) arrow block."""
        return self._split(data, self.band_map, self.bandwidth + 1)

    def ridged_band_arrow(self, data, rho):
        """Q* + rho C'C, C the model's constraints, split like
        ``band_arrow`` but with the band at the full body bandwidth
        n_body - 1: Q*'s values scattered at that width plus rho times the
        stored split of C'C."""
        pieces = self._split(data, self.full_band_map, self.order.size)
        for piece, gram in zip(pieces, self.constraint_gram):
            piece += rho * gram
        return pieces

    def _split(self, data, band_map, band_rows):
        n_body, n_arrow = self.order.size, self.effect_prec.size
        pieces = []
        for (src, dst), size in (
            (band_map, (n_body, band_rows)),
            (self.cross_map, (n_arrow, n_body)),
            (self.arrow_map, (n_arrow, n_arrow)),
        ):
            flat = np.zeros(size[0] * size[1])
            flat[dst] = data[src]
            pieces.append(flat.reshape(size).T)
        return tuple(pieces)

    def band_arrow_dense(self, M):
        """A dense symmetric n x n matrix split like ``band_arrow``, with
        the band at the full body bandwidth n_body - 1."""
        n_body = self.order.size
        body = M[np.ix_(self.order, self.order)]
        i, j = np.tril_indices(n_body)
        band = np.zeros((n_body, n_body)).T
        band[i - j, j] = body[i, j]
        return (
            band,
            np.asfortranarray(M[self.order, n_body:]),
            np.asfortranarray(M[n_body:, n_body:]),
        )


class NewtonSystem:
    """The Newton problem at one theta on value arrays: the prior's and
    each block's stored values on their fixed patterns.  Matrix-vector
    products are bincounts over those patterns, and each block's pair
    products A[i, a] A[i, b] are formed once, so ``values`` only weighs
    them by the curvatures of one Newton step.  No sparse matrix is
    built."""

    def __init__(self, structure, prior_data, designs):
        self.structure = structure
        self.prior_data = prior_data
        self.designs = designs
        self.base = np.zeros(structure.qstar.nnz)
        self.base[structure.prior_in_qstar] = prior_data
        self.products = {}
        for name, (_, nz_a, nz_b, _) in structure.pairs.items():
            data = designs[name]
            self.products[name] = data[nz_a] * data[nz_b]

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
            P.rows, weights=self.designs[name] * w[P.cols],
            minlength=P.pattern.shape[0],
        )

    def transpose_times(self, name, v):
        """A_b' v."""
        P = self.structure.blocks[name]
        return np.bincount(
            P.cols, weights=self.designs[name] * v[P.rows],
            minlength=P.pattern.shape[1],
        )

    def values(self, curvatures):
        """Q*'s stored values for per-block curvature vectors c_b."""
        S = self.structure
        data = self.base.copy()
        for name, (obs, _, _, pos) in S.pairs.items():
            data += np.bincount(
                pos,
                weights=curvatures[name][obs] * self.products[name],
                minlength=data.size,
            )
        return data


@dataclass(frozen=True)
class AssembledBlock:
    name: str
    family: str
    responses: np.ndarray
    hyper: Optional[str]
    terms: tuple  # of (csr matrix, tuple of scale-hyper names)

    @property
    def size(self) -> int:
        return self.responses.size

    def observation_block(self) -> ObservationBlock:
        bindings = ((self.hyper,) if self.hyper else ())
        return ObservationBlock(
            LikelihoodFamily(self.family, bindings), self.responses
        )


def _expand_terms(spec, block, block_by_name, seen):
    """Flatten shared-predictor references into (term, scale-chain) pairs."""
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
                spec, inner, block_by_name, seen + [block.name]
            ):
                out.append((t, (term.scale,) + chain))
        else:
            out.append((term, ()))
    return out


def _term_matrix(spec, block, term, comp_offsets, effect_nodes, latent_dim):
    n = block.size
    rows = np.arange(n)
    if term.kind in ("intercept", "fixed"):
        node = effect_nodes.get(term.ref)
        if node is None:
            raise ConfigurationError(
                f"block {block.name!r}: term references unknown fixed effect "
                f"{term.ref!r}"
            )
        if term.kind == "intercept":
            vals = np.ones(n)
        else:
            z = spec.covariates.get(term.covariate)
            if z is None:
                raise ConfigurationError(
                    f"block {block.name!r}: unknown covariate {term.covariate!r}"
                )
            if z.size != n:
                raise ConfigurationError(
                    f"block {block.name!r}: covariate {term.covariate!r} has "
                    f"length {z.size}, expected {n}"
                )
            vals = z
        cols = np.full(n, node)
    else:  # component
        comp = next(
            (c for c in spec.components if c.name == term.ref), None
        )
        if comp is None:
            raise ConfigurationError(
                f"block {block.name!r}: term references unknown component "
                f"{term.ref!r}"
            )
        if term.indices is not None:
            idx = np.asarray(term.indices, dtype=int)
            if idx.size != n:
                raise ConfigurationError(
                    f"block {block.name!r}: component term index map has "
                    f"length {idx.size}, expected {n}"
                )
        elif comp.kind == "cyclic_rw2":
            idx = rows % comp.period
        else:
            idx = rows
        if idx.min() < 0 or idx.max() >= comp.dimension:
            raise ConfigurationError(
                f"block {block.name!r}: component term indices exceed "
                f"{term.ref!r} (dimension {comp.dimension})"
            )
        vals = np.ones(n)
        cols = comp_offsets[comp.name] + idx
    return sparse.csr_array(
        sparse.coo_array((vals, (rows, cols)), shape=(n, latent_dim))
    )


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
    # standardized to unit reference marginal sd (the rw2 analogue of the
    # AR(2) unit-variance convention) so scale hypers read as the field's
    # contribution sd and precision hypers as the field's own precision
    unit = {}
    for comp in spec.components:
        if comp.kind == "iid":
            unit[comp.name] = build_iid(comp.size)
        elif comp.kind == "rw2":
            unit[comp.name] = build_rw2(comp.size)
        elif comp.kind == "cyclic_rw2":
            unit[comp.name] = build_cyclic_rw2(comp.size, comp.period)
        if comp.kind in ("rw2", "cyclic_rw2"):
            sd = reference_marginal_sd(unit[comp.name])
            unit[comp.name] = scale_precision(unit[comp.name], sd * sd)

    for name, (role, term) in scale_roles.items():
        coords.append(HyperCoord(name, spec.hypers[name], role))
        roles[name] = role

    unbound = declared - set(roles)
    if unbound:
        raise ConfigurationError(
            f"declared hyperparameters never bound: {sorted(unbound)}"
        )

    # expand predictors into (matrix, scale-chain) pairs
    block_by_name = {b.name: b for b in spec.blocks}
    assembled_blocks = {}
    for block in spec.blocks:
        terms = []
        for term, chain in _expand_terms(spec, block, block_by_name, []):
            full_chain = chain + ((term.scale,) if term.scale else ())
            M = _term_matrix(spec, block, term, comp_offsets, effect_nodes, dim)
            terms.append((M, full_chain))
        assembled_blocks[block.name] = AssembledBlock(
            block.name, block.family, block.responses, block.hyper, tuple(terms)
        )

    if dim == 0:
        raise ConfigurationError("model has no latent nodes")

    # global constraint rows, padded to the latent dimension
    rows = []
    for comp in spec.components:
        if comp.name in unit and unit[comp.name].rank_deficiency > 0:
            C = np.atleast_2d(unit[comp.name].constraints)
            for c in C:
                row = np.zeros(dim)
                row[comp_offsets[comp.name]: comp_offsets[comp.name] + c.size] = c
                rows.append(row)
    constraints = np.vstack(rows) if rows else np.empty((0, dim))

    return AssembledModel(
        spec=spec,
        hyper_coords=coords,
        blocks=assembled_blocks,
        comp_offsets=comp_offsets,
        effect_nodes=effect_nodes,
        latent_dim=dim,
        constraints=constraints,
        unit_precisions=unit,
    )


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
