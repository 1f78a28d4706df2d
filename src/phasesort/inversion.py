"""Exact decoders: a left inverse for the magnitude encoder at desk scale,
and the closed-form decoders for the sorted and compressed two-row encoders.

The magnitude decoder ``omega`` works by sign enumeration on a well
conditioned pivot subset of d columns: solving the d x d system for each of
the 2^(d-1) sign patterns and keeping the candidate whose full measurement
residual vanishes. Injectivity of the encoder (checked up front) guarantees
the accepted orbit is unique.

Each decoder is a stacked kernel (``omega_many``, ``invert_beta_many``,
``invert_beta_tilde_many``) that decodes a batch of rows at once; the
single-row functions call it with a batch of one. The pivots, the pivot
block and the sign patterns are computed once per key, and ``omega_many``
solves a chunk of rows as one system with all their sign patterns as
right-hand sides, so the pivot block is factored once per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import beta_many, beta_tilde_many
from .errors import (
    AmbiguityDetected,
    DimensionError,
    NotAFrame,
    NotInRange,
    NotPhaseRetrievable,
)
from .frame_keys import Key, _cached, is_phase_retrievable, synthesis_left_inverse_many
from .numerics import as_matrix, as_stack, as_vector, row_norms


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered signal with diagnostics.

    ``x`` is the canonical orbit representative: its first coordinate above
    the rank tolerance (relative to the largest magnitude) is positive.
    ``sign_pattern`` holds the accepted signs on ``pivot_columns`` (0-based,
    in pivot selection order); both are empty for the trivial zero recovery.
    """

    x: np.ndarray
    residual: float
    sign_pattern: np.ndarray
    pivot_columns: tuple[int, ...]


def _greedy_pivot_columns(a: np.ndarray, d: int, tol_scale: float) -> list[int]:
    """Pick d well conditioned columns by greedy orthogonal elimination.

    At each step the column with the largest residual norm (first index on
    ties) is chosen and projected out of the rest. Deterministic given the
    matrix bits.
    """
    work = a.copy()
    chosen: list[int] = []
    for _ in range(d):
        norms = np.linalg.norm(work, axis=0)
        if chosen:
            norms[chosen] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= tol_scale:
            raise NotAFrame("could not find d independent pivot columns")
        chosen.append(j)
        q = work[:, j] / norms[j]
        work -= np.outer(q, q @ work)
    return chosen


def _gray_sign_patterns(d: int) -> np.ndarray:
    """All sign patterns with the first pivot fixed positive, in Gray order."""
    n_pat = 1 << (d - 1)
    codes = np.arange(n_pat, dtype=np.int64)
    gray = codes ^ (codes >> 1)
    eps = np.ones((n_pat, d))
    for t in range(d - 1):
        eps[:, t + 1] = np.where((gray >> t) & 1, -1.0, 1.0)
    return eps


# Consistent candidates further apart than this (relative) lie on distinct
# orbits, which the measurements do not tell apart within the tolerance.
_ORBIT_GAP = 1e-6

# Residual entries (rows x D x sign patterns) the sign search builds at a
# time (memory, not correctness).
_SOLVE_CHUNK = 1 << 16


@dataclass(frozen=True)
class RecoveryBatch:
    """Stacked omega results: ``result(i)`` is what omega returns for row i.

    ``x`` is (m, d), ``residual`` (m,) and ``sign_pattern`` (m, d).
    ``trivial`` marks the zero recoveries, whose sign pattern and pivots are
    empty; ``pivot_columns`` are those of every other row.
    """

    x: np.ndarray
    residual: np.ndarray
    sign_pattern: np.ndarray
    pivot_columns: tuple[int, ...]
    trivial: np.ndarray

    def result(self, i: int) -> RecoveryResult:
        if self.trivial[i]:
            return RecoveryResult(self.x[i], float(self.residual[i]), np.ones(0), ())
        return RecoveryResult(
            self.x[i], float(self.residual[i]), self.sign_pattern[i], self.pivot_columns
        )


class _RowErrors:
    """The error a batch raises: the one its first failing row raises alone.

    Stages run over the whole batch in the order a single call runs them, and
    each reports the rows it rejects. Only a lower row replaces the record,
    so a row rejected again by a later stage (on values it never reaches
    alone) changes nothing.
    """

    def __init__(self):
        self.row = None
        self.exc = None

    def add(self, bad: np.ndarray, make, rows: np.ndarray | None = None) -> None:
        """Record ``make(j)`` for the first j with bad[j], if its row is lower.

        Entry j stands for row j of the batch, or for row rows[j] when the
        stage ran on the ascending subset ``rows`` only.
        """
        if bad.any():
            j = int(np.argmax(bad))
            row = j if rows is None else int(rows[j])
            if self.row is None or row < self.row:
                self.row, self.exc = row, make(j)

    def stop(self, exc: Exception, first_row: int = 0) -> None:
        """Fail every row reaching this stage, the first being ``first_row``, and raise.

        For stages no row can get past, such as a key failing its certificate.
        """
        if self.row is None or first_row < self.row:
            self.row, self.exc = first_row, exc
        raise self.exc

    def raise_first(self) -> None:
        if self.exc is not None:
            raise self.exc


def _sign_search(key: Key) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivot columns, transposed pivot block and sign patterns (memoized per key)."""

    def compute():
        a = key.matrix
        pivot_scale = key.tol.rank_tol_factor * max(a.shape) * float(np.linalg.norm(a))
        pivots = np.array(_greedy_pivot_columns(a, key.d, pivot_scale))
        return pivots, a[:, pivots].T, _gray_sign_patterns(key.d)

    return _cached(key, "sign_search", compute)


def omega(key: Key, y) -> RecoveryResult:
    """Recover x (up to sign) from its magnitude measurements y = |A^T x|.

    The key must pass the phase-retrievability certificate. All 2^(d-1)
    sign patterns on the pivot subset are evaluated; the candidate with the
    smallest enumeration index whose residual against the full measurement
    vector is within consistency_tol is accepted. Finding consistent
    candidates on two distinct orbits raises AmbiguityDetected, with their
    distance and the acceptance tolerance: the measurements of the two orbits
    differ by less than the tolerance, which a certified but ill-conditioned
    key (A0 small against consistency_tol) can allow.
    """
    return omega_many(key, as_vector(y)[None]).result(0)


def omega_many(key: Key, ys) -> RecoveryBatch:
    """omega of every row of an (m, D) stack of measurements.

    Each chunk of rows is one solve against the cached pivot block, with
    every row's sign patterns as right-hand sides. Each row keeps its own
    zero shortcut, range checks, ambiguity check and sign canonicalization,
    and has the bits of its single call. A failing row raises what its
    single call raises, the first such row winning.
    """
    y = as_stack(ys, 2)
    if y.shape[1] != key.D:
        raise DimensionError(f"measurements have length {y.shape[1]}, key expects {key.D}")
    errors = _RowErrors()
    batch = _omega_rows(key, y, errors)
    errors.raise_first()
    return batch


def _omega_rows(key: Key, y: np.ndarray, errors: _RowErrors) -> RecoveryBatch:
    """omega's stages over the rows of y; row failures go to ``errors``."""
    if not is_phase_retrievable(key).verdict:
        errors.stop(NotPhaseRetrievable("key fails the phase-retrievability certificate"))
    m, d = y.shape[0], key.d
    tol = key.tol
    y_norm = row_norms(y)
    accept_tol = tol.consistency_tol * np.maximum(1.0, y_norm)
    negative = y.min(axis=1) < -accept_tol
    errors.add(negative, lambda _: NotInRange("measurements have significantly negative entries"))
    trivial = ~negative & (y_norm <= tol.consistency_tol)
    x, residual, signs = np.zeros((m, d)), y_norm.copy(), np.zeros((m, d))
    live = np.flatnonzero(~negative & ~trivial)
    if live.size == 0:
        return RecoveryBatch(x, residual, signs, (), trivial)

    try:
        pivots, _, patterns = _sign_search(key)
    except NotAFrame as exc:
        errors.stop(exc, int(live[0]))
    per_chunk = max(1, _SOLVE_CHUNK // (key.D * len(patterns)))
    for start in range(0, live.size, per_chunk):
        rows = live[start:start + per_chunk]
        x[rows], residual[rows], signs[rows] = _sign_search_rows(
            key, y[rows], accept_tol[rows], rows, errors
        )
    return RecoveryBatch(x, residual, signs, tuple(int(p) for p in pivots), trivial)


def _sign_search_rows(key: Key, y: np.ndarray, accept_tol: np.ndarray, rows: np.ndarray,
                      errors: _RowErrors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recovered x, residual and sign pattern of the nonzero measurement rows ``rows``.

    Every row's sign patterns are the right-hand sides of one solve against
    the pivot block, laid out (d, rows * patterns), so LAPACK factors the
    block once per chunk; a stacked right-hand side would be broadcast and
    factor it once per row. Each column of the solve is that of the row's
    single call (a one-row batch makes the very call, nrhs = 2^(d-1)).
    """
    pivots, a_piv_t, patterns = _sign_search(key)
    n_rows, (n_pat, d) = len(rows), patterns.shape
    rhs = (patterns * y[:, None, pivots]).transpose(2, 0, 1).reshape(d, n_rows * n_pat)
    candidates = np.linalg.solve(a_piv_t, rhs)
    del rhs
    candidates = candidates.reshape(d, n_rows, n_pat).transpose(1, 0, 2)  # (n, d, patterns)
    # residual norms as np.linalg.norm(..., axis=1) computes them, but with
    # one (n, D, patterns) temporary instead of three
    res = key.matrix.T @ candidates
    np.abs(res, out=res)
    res -= y[:, :, None]
    res *= res
    res = np.sqrt(np.add.reduce(res, axis=1))
    consistent = res <= accept_tol[:, None]
    errors.add(~consistent.any(axis=1), lambda j: NotInRange(
        f"no sign pattern is consistent (best residual {res[j].min():.3e}, "
        f"tolerance {accept_tol[j]:.3e})"
    ), rows=rows)

    n = np.arange(len(rows))
    first = np.argmax(consistent, axis=1)
    cands = np.ascontiguousarray(candidates.transpose(0, 2, 1))    # (n, patterns, d)
    xs = cands[n, first]
    others = consistent.copy()
    others[n, first] = False
    if others.any():  # only a second consistent candidate can be ambiguous
        apart = np.minimum(row_norms(cands - xs[:, None]), row_norms(cands + xs[:, None]))
        x_scale = np.maximum(1.0, row_norms(xs))
        far = others & (apart > _ORBIT_GAP * x_scale[:, None])
        errors.add(far.any(axis=1), lambda j: AmbiguityDetected(
            f"two consistent candidates on distinct orbits, {apart[j, np.argmax(far[j])]:.3e} "
            f"apart up to sign, fit within the acceptance tolerance {accept_tol[j]:.3e}"
        ), rows=rows)

    # canonical sign: the leading entry above the rank tolerance is positive
    mags = np.abs(xs)
    lead = np.argmax(mags > key.tol.rank_tol_factor * mags.max(axis=1, keepdims=True), axis=1)
    flip = np.where(xs[n, lead] < 0.0, -1.0, 1.0)[:, None]
    return flip * xs, res[n, first], flip * patterns[first]


def invert_beta(key: Key, embedding) -> np.ndarray:
    """Decode a sorted two-row embedding back to a 2 x d configuration.

    The row difference of the embedding is the encoded magnitude vector of
    x1 - x2 and the row sum is the analysis of x1 + x2, so the configuration
    is rebuilt from one magnitude recovery and one pseudoinverse apply. The
    result is re-encoded and checked against the input; a mismatch means the
    input was not in the encoder's range.
    """
    return invert_beta_many(key, as_matrix(embedding)[None])[0]


def invert_beta_many(key: Key, embeddings) -> np.ndarray:
    """invert_beta of every embedding of an (m, 2, D) stack, as (m, 2, d).

    The pseudoinverse is applied to all rows in one least-squares call, so a
    row may differ from its single call in the last bits (a batch of one
    keeps them). A failing row raises what its single call raises, the first
    such row winning.
    """
    e = as_stack(embeddings, 3)
    if e.shape[1:] != (2, key.D):
        raise DimensionError(f"expected a 2 x {key.D} embedding, got {e.shape[1:]}")
    errors = _RowErrors()
    errors.add(
        ~np.all(e[:, 0] >= e[:, 1], axis=1),
        lambda _: NotInRange("embedding columns are not sorted nonincreasing"),
    )
    diff = e[:, 0] - e[:, 1]
    total = e[:, 0] + e[:, 1]
    try:
        mean_part = synthesis_left_inverse_many(key, total)
    except NotAFrame as exc:
        errors.stop(exc)
    diff_part = _omega_rows(key, diff, errors).x
    decoded = np.stack([0.5 * (mean_part + diff_part), 0.5 * (mean_part - diff_part)], axis=1)
    _check_reencoding(key, beta_many(key, decoded)[0], e, errors)
    errors.raise_first()
    return decoded


def invert_beta_tilde(key: Key, y) -> np.ndarray:
    """Decode the compressed (d + D)-vector back to a 2 x d configuration."""
    return invert_beta_tilde_many(key, as_vector(y)[None])[0]


def invert_beta_tilde_many(key: Key, ys) -> np.ndarray:
    """invert_beta_tilde of every row of an (m, d + D) stack, as (m, 2, d).

    Every row has the bits of its single call. A failing row raises what its
    single call raises, the first such row winning.
    """
    y = as_stack(ys, 2)
    if y.shape[1] != key.d + key.D:
        raise DimensionError(f"expected a vector of length {key.d + key.D}, got {y.shape[1]}")
    errors = _RowErrors()
    mean_part = y[:, : key.d]
    diff_part = _omega_rows(key, y[:, key.d:], errors).x
    decoded = np.stack([mean_part + 0.5 * diff_part, mean_part - 0.5 * diff_part], axis=1)
    _check_reencoding(key, beta_tilde_many(key, decoded), y, errors)
    errors.raise_first()
    return decoded


def _check_reencoding(key: Key, reencoded: np.ndarray, given: np.ndarray, errors: _RowErrors):
    """Reject rows whose decoding does not re-encode to the input."""
    m = given.shape[0]
    err = row_norms((reencoded - given).reshape(m, -1))
    bound = key.tol.consistency_tol * np.maximum(1.0, row_norms(given.reshape(m, -1)))
    errors.add(err > bound, lambda r: NotInRange(
        f"re-encoding residual {err[r]:.3e} exceeds tolerance {bound[r]:.3e}"
    ))
