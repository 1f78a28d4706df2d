"""The three encoders and the quotient metrics they are measured in.

``alpha`` maps a signal to the absolute values of its frame coefficients and
is invariant under sign flips. ``beta`` maps an n x d configuration to the
column-sorted coefficient matrix and is invariant under row permutations.
``beta_tilde`` is the compressed two-row variant that stores the row mean
plus the encoded row difference. ``hadamard_split`` is the 2x2 transform
that connects the sorted two-row embedding back to the magnitude encoder and
the raw analysis operator.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SearchTooLarge, UnsupportedN
from .frame_keys import Key, analysis, analysis_many
from .numerics import as_matrix, as_stack, as_vector, row_norms

# n! permutations are enumerated explicitly; refuse beyond this row count.
MAX_ROWS_FOR_METRIC = 8

# Stacked entries the row-permutation metric builds at a time (memory, not
# correctness).
_METRIC_CHUNK = 1 << 20


def alpha(key: Key, x) -> np.ndarray:
    """Entrywise absolute value of the frame coefficients |A^T x|."""
    return np.abs(analysis(key, x))


def alpha_many(key: Key, xs) -> np.ndarray:
    """alpha of every row of an (m, d) stack; row i has the bits of alpha(key, xs[i])."""
    return np.abs(analysis_many(key, xs))


def _sort_desc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable nonincreasing sort of every column of each (n, D) matrix of a stack.

    Returns the sorted stack and the permutations as a (..., D, n) int64
    stack: entry [..., k, i] is the output row of input row i in column k.

    Two rows are ordered by one comparison per column, with the bits and
    perms of the stable argsort used for other row counts: equal entries
    (0.0 against -0.0 too) keep their row order, and a NaN sinks to the
    bottom row as the argsort puts it last.
    """
    *lead, n, cols = a.shape
    if n == 2:
        top, bottom = a[..., 0, :], a[..., 1, :]
        keep = (top >= bottom) | np.isnan(bottom)
        values = np.stack([np.where(keep, top, bottom), np.where(keep, bottom, top)], axis=-2)
        return values, np.stack([~keep, keep], axis=-1).astype(np.int64)
    order = np.argsort(-a, axis=-2, kind="stable")
    perms = np.empty((*lead, cols, n), dtype=np.int64)
    rows = np.broadcast_to(np.arange(n)[:, None], order.shape)
    np.put_along_axis(np.swapaxes(perms, -1, -2), order, rows, axis=-2)
    return np.take_along_axis(a, order, axis=-2), perms


def sort_desc_columns(m) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sort each column in nonincreasing order, tracking the permutations.

    Sorting is stable, so rows holding equal values keep their original
    relative order. The k-th returned permutation ``p`` maps input positions
    to output positions: output row p[i] of column k is input row i.
    """
    sorted_cols, perms = _sort_desc(as_matrix(m))
    return sorted_cols, list(perms)


@dataclass(frozen=True)
class BetaEmbedding:
    """Column-sorted coefficient matrix plus the sorting permutations.

    Every column of ``matrix`` is nonincreasing top to bottom. ``perms[k]``
    maps input row positions to output row positions for column k.
    """

    matrix: np.ndarray
    perms: list[np.ndarray]


def beta(key: Key, config) -> BetaEmbedding:
    """Sorting encoder: sort every column of X A in decreasing order.

    Defined for any number of rows n >= 1; permuting the rows of X leaves
    the output matrix unchanged.
    """
    matrices, perms = beta_many(key, as_matrix(config)[None])
    return BetaEmbedding(matrices[0], list(perms[0]))


def beta_many(key: Key, configs) -> tuple[np.ndarray, np.ndarray]:
    """beta of every configuration of an (m, n, d) stack.

    Returns the sorted (m, n, D) matrices and their (m, D, n) permutations,
    perms[i, k] being beta(key, configs[i]).perms[k]; one stacked product and
    one stacked sort, so every item has the bits of its single call.
    """
    x = as_stack(configs, 3)
    if x.shape[2] != key.d:
        raise DimensionError(f"configuration has {x.shape[2]} columns, key expects {key.d}")
    return _sort_desc(x @ key.matrix)


def beta_tilde(key: Key, config) -> np.ndarray:
    """Compressed two-row encoder: row mean prepended to |A^T (x1 - x2)|.

    Output length is d + D, with a nonnegative tail.
    """
    return beta_tilde_many(key, as_matrix(config)[None])[0]


def beta_tilde_many(key: Key, configs) -> np.ndarray:
    """beta_tilde of every configuration of an (m, 2, d) stack, as (m, d + D)."""
    x = as_stack(configs, 3)
    if x.shape[1] != 2:
        raise UnsupportedN(f"modified encoder needs exactly 2 rows, got {x.shape[1]}")
    if x.shape[2] != key.d:
        raise DimensionError(f"configuration has {x.shape[2]} columns, key expects {key.d}")
    return np.concatenate(
        [0.5 * (x[:, 0] + x[:, 1]), alpha_many(key, x[:, 0] - x[:, 1])], axis=1
    )


def hadamard_split(embedding) -> tuple[np.ndarray, np.ndarray]:
    """Difference and sum of the two rows of a sorted embedding.

    For B = beta(key, X) with rows x1, x2 in X, the difference row equals
    alpha(key, x1 - x2) and the sum row equals analysis(key, x1 + x2):
    sorting each column put max(u, v) on top of min(u, v), and
    max - min = |u - v| while max + min = u + v, exactly, in floats too.
    A stack of (m, 2, D) embeddings gives (m, D) differences and sums.
    """
    b = embedding.matrix if isinstance(embedding, BetaEmbedding) else np.asarray(embedding)
    b = as_stack(b, 3) if b.ndim == 3 else as_matrix(b)
    if b.shape[-2] != 2:
        raise UnsupportedN(f"hadamard split needs exactly 2 rows, got {b.shape[-2]}")
    return b[..., 0, :] - b[..., 1, :], b[..., 0, :] + b[..., 1, :]


def dist_hat_H(x, y) -> float:
    """Quotient metric modulo sign: min(|x - y|, |x + y|) in Euclidean norm."""
    a, b = as_vector(x), as_vector(y)
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(dist_hat_H_many(a[None], b[None])[0])


def dist_hat_H_many(xs, ys) -> np.ndarray:
    """dist_hat_H of every row pair of two (m, d) stacks; each has its single call's bits."""
    a, b = _stack_pair(xs, ys, 2)
    return np.minimum(row_norms(a - b), row_norms(a + b))


def dist_hat_V(x, y) -> tuple[float, tuple[int, ...]]:
    """Quotient metric modulo row permutation, with the minimizing permutation.

    Brute force over all n! row orders of the second argument, enumerated
    lexicographically starting from the identity; ties keep the first
    minimizer found. The returned permutation ``p`` means the aligned second
    argument is Y[p, :].
    """
    dist, perm = dist_hat_V_many(as_matrix(x)[None], as_matrix(y)[None])
    return float(dist[0]), tuple(int(i) for i in perm[0])


def dist_hat_V_many(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """dist_hat_V of every pair of two (m, n, d) stacks.

    Returns the (m,) distances and the (m, n) minimizing row orders, each
    with its single call's bits and first-minimizer tie-break: the n! orders
    are rated in lexicographic order and a later order only wins when
    strictly closer.
    """
    a, b = _stack_pair(xs, ys, 3)
    m, n, d = a.shape
    if n > MAX_ROWS_FOR_METRIC:
        raise SearchTooLarge(
            f"row-permutation metric is capped at n <= {MAX_ROWS_FOR_METRIC}, got {n}"
        )
    orders = _row_orders(n)
    best = np.full(m, np.inf)
    best_order = np.zeros(m, dtype=np.intp)
    step = max(1, _METRIC_CHUNK // max(1, m * n * d))
    for start in range(0, len(orders), step):
        chunk = orders[start:start + step]
        dist = row_norms((a[:, None] - b[:, chunk]).reshape(m, len(chunk), n * d))
        first = np.argmin(dist, axis=1)
        low = dist[np.arange(m), first]
        better = low < best
        best[better] = low[better]
        best_order[better] = start + first[better]
    return best, orders[best_order]


@functools.lru_cache(maxsize=None)
def _row_orders(n: int) -> np.ndarray:
    """All n! row orders as an (n!, n) array, lexicographic from the identity."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)


def _stack_pair(xs, ys, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    a, b = as_stack(xs, ndim), as_stack(ys, ndim)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape[1:]} vs {b.shape[1:]}")
    return a, b
