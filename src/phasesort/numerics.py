"""Dense small-matrix kernel: SVD, least squares, and rank with an explicit
tolerance policy.

Everything downstream (certificates, decoders, Lipschitz constants) builds on
these four operations. Factorizations are delegated to LAPACK via numpy; this
module owns the conventions layered on top: a deterministic sign convention
for singular vectors, the sigma_k out-of-range convention, and the relative
rank threshold.
"""

from __future__ import annotations

import functools
import math
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
    """Singular values only (nonincreasing), skipping the vector work."""
    a = as_matrix(m)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


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


# Error allowance of the Gram screens (lipschitz's A0 screen, frame_keys'
# subset scan and complement walk). The screens read the key's unit copy
# 2^-e A (frame_keys._unit, largest entry in [1/2, 1)), so no Gram entry or
# shift can overflow, and underflow costs a Gram entry a few subnormal
# spacings at most. In copy units the allowance is this many times eps * (D +
# d) * sigma_1 plus the key's own subnormal spacing 2^(-1074 - e) for a
# singular value, and that times d * sigma_1 for a Gram eigenvalue, sigma_1
# being the copy's. The spacing term covers the exact path's SVDs of a key at
# subnormal scale, whose results LAPACK rounds to that grid; for a nonzero key
# with e > -969 it is below half an ulp of the first term and changes no bit.
# Both are generous over the error bounds the screens rely on; a wider
# allowance only sends a few more matrices to the exact path.
GRAM_SCREEN_SLACK = 64.0


def _gram_screen_errors(sigma_1: float, d: int, D: int, e: int) -> tuple[float, float]:
    """(err_s, err_lam), the Gram screens' allowances for a singular value and
    a Gram eigenvalue of the unit copy 2^-e A of a d x D key A, sigma_1 being
    the copy's largest singular value."""
    spacing = np.ldexp(np.finfo(float).smallest_subnormal, -e)
    err_s = GRAM_SCREEN_SLACK * (np.finfo(float).eps * (D + d) * sigma_1 + spacing)
    return err_s, err_s * d * sigma_1


# The Gram screens' storage format (packed layout). A symmetric d x d
# matrix is stored as its upper triangle, row by row, in P = d(d + 1) / 2
# entries: the entries (i, i), ..., (i, d - 1) of row i are consecutive, from
# _row_starts(d)[i] on. A stack of n such matrices is a (P, n) array with the
# matrices on the last axis, the layout _shifted_cholesky_ok_inplace works in.


@functools.cache
def packed_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the P entries of the packed layout of a d x d matrix,
    in storage order (np.triu_indices), as read-only arrays (memoized)."""
    pairs = np.triu_indices(d)
    for a in pairs:
        a.flags.writeable = False
    return pairs


@functools.cache
def _row_starts(d: int) -> tuple[int, ...]:
    """Where row i of the packed upper triangle starts, i = 0..d; the last
    entry is P (memoized)."""
    return tuple(i * d - i * (i - 1) // 2 for i in range(d + 1))


def _packed_order(size: int) -> int:
    """d of a packed matrix of ``size`` = d(d + 1) / 2 entries."""
    return (math.isqrt(8 * size + 1) - 1) // 2


def pack(stack) -> np.ndarray:
    """The packed layout of a (d, d) matrix, (P,), or of an (n, d, d) stack,
    (P, n), as a new contiguous array. Only the upper triangle is read."""
    a = np.asarray(stack, dtype=np.float64)
    rows, cols = packed_pairs(a.shape[-1])
    return np.ascontiguousarray(np.moveaxis(a[..., rows, cols], -1, 0))


def unpack(packed) -> np.ndarray:
    """The (n, d, d) symmetric stack of a (P, n) packed one: each upper
    triangle, mirrored."""
    p = np.asarray(packed, dtype=np.float64)
    d = _packed_order(p.shape[0])
    rows, cols = packed_pairs(d)
    full = np.empty((p.shape[1], d, d))
    full[:, rows, cols] = p.T
    full[:, cols, rows] = p.T
    return full


def shifted_cholesky_ok(stack, tau: float) -> np.ndarray:
    """Whether an unpivoted Cholesky factorization of G - tau * I runs to
    completion with positive pivots, for each G of an (n, d, d) symmetric stack.

    Success proves lambda_min(G) >= tau - e with e of order d^2 * eps *
    max(||G||_2, tau): the computed factor R satisfies R^T R = G - tau * I +
    dG with |dG| <= gamma_(d+1) |R^T| |R| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 10.1), and, for tau >= 0,
    || |R^T| |R| ||_2 <= trace(R^T R) <= d * ||G||_2 up to second order; the
    rounding of the shifted diagonal adds eps * max(||G||_2, tau). Failure
    proves nothing.

    Only the upper triangle of each G is read: the stack is packed (pack)
    for _shifted_cholesky_ok_inplace.
    """
    return _shifted_cholesky_ok_inplace(pack(stack), tau)


def _shifted_cholesky_ok_inplace(w: np.ndarray, tau: float) -> np.ndarray:
    """shifted_cholesky_ok of each matrix w[:, i] of a packed (P, n) float64
    stack, which is overwritten.

    Each of the d right-looking elimination steps updates the upper triangle
    of the trailing block row by row, each row one vectorized operation over
    all n matrices; there is no per-matrix LAPACK call.

    The verdict is whether the last pivot is positive: a matrix whose
    factorization fails at an earlier step runs on, and its last pivot is NaN
    or -inf. Up to the first pivot p that is not positive, every value is the
    one a factorization that stops there computes. If p is negative or NaN,
    sqrt(p) is NaN, and so is every entry after the step. If p is +-0, each
    multiplier r_i is +-inf or NaN, so every later diagonal entry, reduced by
    r_i^2, is -inf or NaN. No step can lift a diagonal entry that is -inf or
    NaN, since it only ever has a square, or NaN, subtracted from it (no
    diagonal entry is ever +inf: it starts finite and only decreases). The
    next pivot is therefore -inf or NaN, its square root NaN, and from there
    on every entry is NaN. So each verdict is the one a factorization that
    stops at its first failed pivot gives. The invalid, divide and overflow
    warnings of the failed matrices are silenced; so is the overflow of a
    tiny positive pivot's row, which sends the next pivot to -inf or NaN.
    """
    d = _packed_order(w.shape[0])
    start = _row_starts(d)
    w[list(start[:-1])] -= tau
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in range(d - 1):
            r = w[start[k] + 1:start[k + 1]] / np.sqrt(w[start[k]])
            # the factorization reads only the upper triangle, all the layout holds
            for i in range(k + 1, d):
                w[start[i]:start[i + 1]] -= r[i - k - 1] * r[i - k - 1:]
    return w[start[d - 1]] > 0.0
