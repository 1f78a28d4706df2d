"""Dense small-matrix kernel: SVD, least squares, and rank with an explicit
tolerance policy.

Everything downstream (certificates, decoders, Lipschitz constants) builds on
these operations. Factorizations are delegated to LAPACK via numpy; this
module owns the conventions layered on top: a deterministic sign convention
for singular vectors, the sigma_k out-of-range convention, and the relative
rank threshold. The Gram screens' packed layout, Cholesky kernel and error
allowances are in the screens module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalFailure


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric thresholds used throughout the package.

    rank_tol_factor scales the relative rank cutoff, consistency_tol bounds
    residuals accepted by the decoders, achievement_tol bounds the witness
    equality checks. All must be strictly positive.
    """

    rank_tol_factor: float = 1e-12
    consistency_tol: float = 1e-9
    achievement_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_tol_factor", "consistency_tol", "achievement_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D float64 array and reject non-finite entries."""
    a = np.asarray(v, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return a


def as_stack(v, ndim: int) -> np.ndarray:
    """Coerce to an ndim-D float64 stack of at least one item, all entries finite.

    Axis 0 indexes the items; callers check the item shape themselves.
    """
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != ndim or a.shape[0] < 1:
        raise DimensionError(f"expected a non-empty {ndim}-D stack, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("stack entries must be finite (no NaN/Inf)")
    return a


def row_norms(stack) -> np.ndarray:
    """Euclidean norm of every row (last axis) of a stack.

    Each row's norm has the bits of np.linalg.norm of that row alone, which is
    sqrt(row @ row): the stacked (1, n) @ (n, 1) products go to the same BLAS
    dot, so batched and one-at-a-time code make identical decisions.
    """
    a = np.ascontiguousarray(stack, dtype=np.float64)
    return np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])


@dataclass(frozen=True)
class SvdResult:
    """Singular values (nonincreasing) with aligned singular vectors.

    left_vectors holds one orthonormal column per singular value;
    right_vectors_t holds the matching rows of V^T so the factorization can
    be reassembled as U @ diag(s) @ Vt.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors_t: np.ndarray


def svd(m) -> SvdResult:
    """Thin SVD with a deterministic sign convention.

    Each left singular vector is flipped, together with its right partner, so
    that its first component of largest magnitude is nonnegative. Identical
    input bits therefore produce identical output bits.
    """
    a = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    u = u.copy()
    vt = vt.copy()
    for j in range(u.shape[1]):
        lead = int(np.argmax(np.abs(u[:, j])))
        if u[lead, j] < 0.0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]
    return SvdResult(singular_values=s, left_vectors=u, right_vectors_t=vt)


def singular_values(m) -> np.ndarray:
    """Singular values only (nonincreasing), skipping the vector work: the row
    of singular_values_many for a stack of one."""
    return singular_values_many(as_matrix(m)[None])[0]


def sigma_k(m, k: int) -> float:
    """k-th largest singular value; 0 when k exceeds min(rows, cols).

    The out-of-range convention matters: a submatrix with fewer than k
    columns cannot span a k-dimensional space, so its k-th singular value is
    taken to be zero.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    a = as_matrix(m)
    if k > min(a.shape):
        return 0.0
    return float(singular_values(a)[k - 1])


def least_squares(m, b) -> np.ndarray:
    """Minimum-norm least-squares solution of M z = b (pseudoinverse apply).

    ``b`` is a vector, or a matrix whose columns are solved in one LAPACK
    call. A one-column matrix gives the bits of the vector's solution; with
    more columns each may differ from its own solve in the last bits.
    """
    a = as_matrix(m)
    rhs = np.asarray(b, dtype=np.float64)
    rhs = as_matrix(rhs) if rhs.ndim == 2 else as_vector(rhs)
    if a.shape[0] != rhs.shape[0]:
        raise DimensionError(
            f"matrix has {a.shape[0]} rows but right-hand side has length {rhs.shape[0]}"
        )
    sol, _, _, _ = np.linalg.lstsq(a, rhs, rcond=None)
    return sol


def rank(m, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: count of singular values above the relative cutoff.

    The cutoff is rank_tol_factor * max(rows, cols) * sigma_1, so rank
    decisions are invariant under scaling of the matrix.
    """
    return int(ranks(as_matrix(m)[None], tol)[0])


def ranks(stack, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Numerical rank of each matrix in an (n, rows, cols) stack.

    One batched SVD; each matrix gets rank's cutoff from its own sigma_1, and
    its singular values are the same bits as for the matrix on its own.
    """
    a = np.asarray(stack, dtype=np.float64)
    return ranks_from_singular_values(singular_values_many(a), max(a.shape[1:]), tol)


def singular_values_many(stack) -> np.ndarray:
    """Singular values (nonincreasing) of each matrix in an (n, rows, cols) stack.

    One batched SVD; row i has the bits of singular_values(stack[i]).
    """
    a = np.asarray(stack, dtype=np.float64)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def ranks_from_singular_values(s: np.ndarray, size: int, tol: ToleranceConfig) -> np.ndarray:
    """rank's criterion applied to rows of nonincreasing singular values.

    ``size`` is the larger dimension of the matrices the rows belong to.
    """
    cutoff = tol.rank_tol_factor * size * s[:, :1]
    return np.count_nonzero(s > cutoff, axis=1)
