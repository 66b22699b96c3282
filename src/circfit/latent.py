"""Precisions of the latent Gaussian components: closed forms and sparse
reference builders.

Each builder returns a :class:`SparsePrecision`: the (unit-scale) precision
matrix together with its rank deficiency, the constraint vectors spanning its
null space, and the log generalized determinant (product of nonzero
eigenvalues).  Intrinsic components keep their exact singular precision; the
inference engine enforces the constraints by conditioning, never by jitter.
A fit builds none of these matrices: it reads every kind's values from the
closed forms ``rw2_diagonals``, ``cyclic_rw2_stencil``, ``ar2_diagonals``
and ``mv_iid_block`` (an iid precision is the identity) at the index
pattern of each component.  The ``build_*`` functions and
``scale_precision`` are public references: they place the same precisions
in scipy.sparse by other computations (rw2 as the product D2' D2, the
cyclic rw2 from coordinates), and the tests compare the two.

The intrinsic kinds have closed forms.  Their reference sd is the root mean
of the marginal variances under the constraints, sqrt(trace(Q^+) / n) with Q^+
the pseudo-inverse; a model divides each intrinsic precision by its
square (Sorbye & Rue 2014; Rue & Held 2005, ch. 3).  For rw2 on n nodes the
log generalized determinant is log(n^2 (n^2 - 1) / 12) and the reference
variance (n^2 - 4)(n^2 + 5) / (420 n); for the cyclic rw2 of period p they are
4 log p and (p^2 - 1)(p^2 + 11) / (720 p).
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .priors import ConfigurationError

__all__ = [
    "SparsePrecision",
    "build_iid",
    "rw2_diagonals",
    "build_rw2",
    "rw2_reference_sd",
    "cyclic_rw2_stencil",
    "build_cyclic_rw2",
    "cyclic_rw2_reference_sd",
    "pacf_to_ar2",
    "ar2_diagonals",
    "build_ar2",
    "mv_iid_block",
    "build_mv_iid",
    "scale_precision",
    "scaled_log_gdet",
]


@dataclass(frozen=True)
class SparsePrecision:
    """A symmetric positive semi-definite precision with declared null space.

    ``log_gdet`` is the sum of log nonzero eigenvalues, so that the density
    of the improper Gaussian is well-defined after conditioning on the
    constraints.  ``constraints`` has one row per null-space direction.
    """

    matrix: sparse.csc_array
    rank_deficiency: int = 0
    constraints: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    log_gdet: float = 0.0

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def _as_csc(M) -> sparse.csc_array:
    """M in canonical csc, whose entry order a fit reads unit values in."""
    Q = sparse.csc_array(M)
    Q.sum_duplicates()
    Q.eliminate_zeros()
    return Q


def build_iid(n: int) -> SparsePrecision:
    """Identity precision for n exchangeable effects."""
    if n < 1:
        raise ConfigurationError(f"iid component needs n >= 1, got {n}")
    return SparsePrecision(matrix=_as_csc(sparse.eye_array(n, format="csc")))


def _second_difference(n: int) -> sparse.csc_array:
    data = np.tile([1.0, -2.0, 1.0], (n - 2, 1))
    offsets = np.arange(n - 2)
    rows = np.repeat(np.arange(n - 2), 3)
    cols = (offsets[:, None] + np.arange(3)[None, :]).ravel()
    return sparse.csc_array(
        sparse.coo_array((data.ravel(), (rows, cols)), shape=(n - 2, n))
    )


def rw2_diagonals(n: int) -> tuple:
    """The main, first and second diagonals of ``build_rw2``'s precision
    D2' D2 on n nodes, exact integers, and its log generalized
    determinant."""
    if n < 3:
        raise ConfigurationError(f"rw2 component needs n >= 3, got {n}")
    # D2 row k is (1, -2, 1) at nodes k, k + 1, k + 2
    main, first = np.zeros(n), np.zeros(n - 1)
    main[:-2] += 1.0
    main[1:-1] += 4.0
    main[2:] += 1.0
    first[:-1] -= 2.0
    first[1:] -= 2.0
    log_gdet = float(np.log(n * n * (n * n - 1.0) / 12.0))
    return main, first, np.ones(n - 2), log_gdet


def build_rw2(n: int) -> SparsePrecision:
    """Second-order random walk precision D2' D2 (interior stencil
    1, -4, 6, -4, 1), improper with the constant and the linear trend in its
    null space.  Its nonzero eigenvalues are those of D2 D2', whose
    determinant is n^2 (n^2 - 1) / 12."""
    if n < 3:
        raise ConfigurationError(f"rw2 component needs n >= 3, got {n}")
    D2 = _second_difference(n)
    Q = _as_csc(D2.T @ D2)
    constraints = np.vstack([np.ones(n), np.arange(1.0, n + 1.0)])
    log_gdet = float(np.log(n * n * (n * n - 1.0) / 12.0))
    return SparsePrecision(
        matrix=Q, rank_deficiency=2, constraints=constraints, log_gdet=log_gdet
    )


def rw2_reference_sd(n: int) -> float:
    """Reference sd of the unit rw2 on n nodes, the root of
    trace((D2 D2')^-1) / n; it grows as n^1.5 / sqrt(420)."""
    return float(np.sqrt((n * n - 4.0) * (n * n + 5.0) / (420.0 * n)))


def cyclic_rw2_stencil(period: int) -> tuple:
    """``build_cyclic_rw2``'s circulant as its first column s, so that
    entry (r, c) is s[(r - c) mod period], and its log generalized
    determinant 4 log period."""
    if period < 5:
        raise ConfigurationError(f"cyclic_rw2 needs period >= 5, got {period}")
    stencil = np.zeros(period)
    stencil[[0, 1, 2, -2, -1]] = [6.0, -4.0, 1.0, 1.0, -4.0]
    return stencil, 4.0 * float(np.log(period))


def build_cyclic_rw2(n: int, period: int) -> SparsePrecision:
    """Cyclic second-order random walk over one period.

    The component has dimension = period (observations map onto it by index
    mod period); the matrix is the circulant with first row
    (6, -4, 1, 0, ..., 0, 1, -4), singular only along the constant.
    """
    if period < 5:
        raise ConfigurationError(f"cyclic_rw2 needs period >= 5, got {period}")
    if n < 1:
        raise ConfigurationError(f"cyclic_rw2 needs n >= 1 observations, got {n}")
    p = period
    rows = np.repeat(np.arange(p), 5)
    cols = (np.arange(p)[:, None] + np.array([0, 1, 2, p - 2, p - 1])[None, :]) % p
    vals = np.tile([6.0, -4.0, 1.0, 1.0, -4.0], p)
    Q = _as_csc(sparse.coo_array((vals, (rows, cols.ravel())), shape=(p, p)))
    return SparsePrecision(
        matrix=Q,
        rank_deficiency=1,
        constraints=np.ones((1, p)),
        log_gdet=4.0 * float(np.log(p)),
    )


def cyclic_rw2_reference_sd(period: int) -> float:
    """Reference sd of the unit cyclic rw2 of the given period p, the root
    of the sum of 1 / (16 p sin^4(pi k / p)) over k = 1..p-1."""
    p = period
    return float(np.sqrt((p * p - 1.0) * (p * p + 11.0) / (720.0 * p)))


def pacf_to_ar2(pacf1: float, pacf2: float) -> tuple:
    """Durbin-Levinson map from the first two partial autocorrelations to
    AR(2) coefficients: a1 = pacf1*(1 - pacf2), a2 = pacf2.  Any pacfs in
    (-1, 1) give a stationary model."""
    if not (abs(pacf1) < 1 and abs(pacf2) < 1):
        raise ConfigurationError(
            f"partial autocorrelations must lie in (-1, 1), got ({pacf1}, {pacf2})"
        )
    return pacf1 * (1.0 - pacf2), pacf2


def ar2_diagonals(n: int, pacf1: float, pacf2: float) -> tuple:
    """The main, first and second diagonals of ``build_ar2``'s precision on
    n nodes, and its log determinant."""
    if n < 3:
        raise ConfigurationError(f"ar2 component needs n >= 3, got {n}")
    a1, a2 = pacf_to_ar2(pacf1, pacf2)
    v = (1.0 - pacf1**2) * (1.0 - pacf2**2)
    r1 = a1 / (1.0 - a2)
    # A'A / v by diagonals: each entry sums A's rows in order and is then
    # scaled by 1 / v, which is how the sparse product A'A / v rounds it
    main, first = np.zeros(n), np.zeros(n - 1)
    main[2:] += 1.0
    main[1:-1] += a1 * a1
    main[:-2] += a2 * a2
    first[1:] += -a1
    first[:-1] += a2 * a1
    second = np.full(n - 2, -a2)
    main, first, second = (d * (1.0 / v) for d in (main, first, second))
    gamma2_inv = np.array([[1.0, -r1], [-r1, 1.0]]) / (1.0 - r1 * r1)
    main[:2] += np.diagonal(gamma2_inv)
    first[0] += gamma2_inv[0, 1]
    log_det = -(n - 2) * np.log(v) - np.log1p(-r1 * r1)
    return main, first, second, float(log_det)


def build_ar2(n: int, pacf1: float, pacf2: float) -> SparsePrecision:
    """Stationary unit-marginal-variance AR(2) precision, bandwidth 2.

    Q = pad(Gamma2^-1) + A'A / v with A the conditional-mean rows
    (-a2, -a1, 1) and v = (1 - pacf1^2)(1 - pacf2^2) the innovation variance
    that makes every marginal variance 1; the stationary initial block
    Gamma2 supplies the boundary correction.
    """
    main, first, second, log_det = ar2_diagonals(n, pacf1, pacf2)
    Q = _as_csc(sparse.diags_array(
        [second, first, main, first, second], offsets=[-2, -1, 0, 1, 2]
    ))
    return SparsePrecision(matrix=Q, log_gdet=log_det)


def mv_iid_block(sigmas: np.ndarray, R: np.ndarray) -> tuple:
    """The d x d precision block (D R D)^-1, D = diag(sigmas), symmetrized,
    and the log determinant of the covariance D R D."""
    sigmas = np.asarray(sigmas, dtype=float)
    R = np.asarray(R, dtype=float)
    d = sigmas.size
    if np.any(sigmas <= 0):
        raise ConfigurationError("mv_iid standard deviations must be positive")
    if R.shape != (d, d):
        raise ConfigurationError(
            f"correlation matrix shape {R.shape} does not match {d} sigmas"
        )
    if not np.allclose(R, R.T, atol=1e-12) or not np.allclose(np.diag(R), 1.0, atol=1e-12):
        raise ConfigurationError("R must be symmetric with unit diagonal")
    sign, logdet_R = np.linalg.slogdet(R)
    if sign <= 0:
        raise ConfigurationError("R must be positive definite")
    cov = R * np.outer(sigmas, sigmas)
    block = np.linalg.inv(cov)
    block = 0.5 * (block + block.T)
    return block, logdet_R + 2.0 * float(np.sum(np.log(sigmas)))


def build_mv_iid(n: int, sigmas: np.ndarray, R: np.ndarray) -> SparsePrecision:
    """n independent d-dimensional Gaussians with covariance
    diag(sigmas) R diag(sigmas), laid out observation-major
    (w_11..w_1d, w_21..w_2d, ...)."""
    if n < 1:
        raise ConfigurationError(f"mv_iid component needs n >= 1, got {n}")
    block, log_det_cov = mv_iid_block(sigmas, R)
    Q = _as_csc(sparse.kron(sparse.eye_array(n), block, format="csc"))
    return SparsePrecision(matrix=Q, log_gdet=-n * log_det_cov)


def scaled_log_gdet(log_gdet: float, rank: int, tau: float) -> float:
    """Generalized log-determinant of tau * Q from Q's log_gdet and rank:
    log_gdet + rank * log tau."""
    if tau <= 0:
        raise ConfigurationError(f"precision scale must be positive, got {tau}")
    return log_gdet + rank * float(np.log(tau))


def scale_precision(Q: SparsePrecision, tau: float) -> SparsePrecision:
    """Entrywise tau * Q, keeping constraints and adjusting the generalized
    determinant as ``scaled_log_gdet`` does."""
    log_gdet = scaled_log_gdet(Q.log_gdet, Q.dimension - Q.rank_deficiency, tau)
    return replace(Q, matrix=_as_csc(Q.matrix * tau), log_gdet=log_gdet)
