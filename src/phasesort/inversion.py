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
solves a chunk of rows as one system whose right-hand sides are the (row,
sign pattern) pairs of a keep mask, so the pivot block is factored once per
chunk. The mask keeps every pair, except in a call with two or more rows
to search, which is screened on one non-pivot column (_PatternScreen):
there a pair whose prediction of that column's measurement misses it by
more than the tolerance plus a proven rounding allowance cannot be
consistent, and is not solved. A pair's bits do not depend on which other
pairs are solved with it, so every row has the bits of its single call.
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
from .frame_keys import Key, _cached, _unit, is_phase_retrievable, synthesis_left_inverse_many
from .numerics import as_matrix, as_stack, as_vector, row_norms, scaled_row_norms, singular_values


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

# Entries the sign search builds per chunk of rows (memory, not
# correctness): D residual entries per (row, sign pattern) pair when every
# pair is solved, d candidate entries per pair when the chunk is screened.
_SOLVE_CHUNK = 1 << 16


@dataclass(frozen=True)
class RecoveryBatch:
    """Stacked omega results: ``result(i)`` is what omega returns for row i.

    ``x`` is (m, d), ``residual`` (m,) and ``sign_pattern`` (m, d).
    ``trivial`` marks the zero recoveries, of the rows y = 0, whose sign
    pattern and pivots are empty; ``pivot_columns`` are those of every other
    row.
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
    """(pivots, a_piv_t, patterns), memoized per key: the pivot columns, the
    transposed pivot block of the key's unit copy U = 2^-e A (_unit) and
    the sign patterns. The sign search works on the copy, so no norm or
    residual of a key at the ends of the float range under- or overflows;
    at normal scale every value is the key's own times 2^-e exactly, so the
    pivots, the decisions and the recovered bits are those of the key."""

    def compute():
        a = _unit(key).matrix
        pivot_scale = key.tol.rank_tol_factor * max(a.shape) * float(np.linalg.norm(a))
        pivots = np.array(_greedy_pivot_columns(a, key.d, pivot_scale))
        return pivots, a[:, pivots].T, _gray_sign_patterns(key.d)

    return _cached(key, "sign_search", compute)


def omega(key: Key, y) -> RecoveryResult:
    """Recover x (up to sign) from its magnitude measurements y = |A^T x|.

    The key must pass the phase-retrievability certificate. All 2^(d-1)
    sign patterns on the pivot subset are evaluated; the candidate with the
    smallest enumeration index whose residual against the full measurement
    vector is within consistency_tol * ||y|| is accepted. The tolerance is
    relative, so scaling the key or the signal by c > 0 scales the
    recovery by c or keeps it; only y = 0 is decoded as x = 0 without a
    search. Finding consistent candidates on two distinct orbits, more than
    _ORBIT_GAP * ||x|| apart, raises AmbiguityDetected, with their distance
    and the acceptance tolerance: the measurements of the two orbits differ
    by less than the tolerance, which a certified but ill-conditioned key
    (A0 small against consistency_tol * B0) can allow.
    """
    return omega_many(key, as_vector(y)[None]).result(0)


def omega_many(key: Key, ys) -> RecoveryBatch:
    """omega of every row of an (m, D) stack of measurements.

    Each chunk of rows is one solve against the cached pivot block, with
    the (row, sign pattern) pairs of its keep mask as right-hand sides
    (_sign_search_rows). Each row keeps its own zero shortcut, range
    checks, ambiguity check and sign canonicalization, and has the bits of
    its single call. A failing row raises what its single call raises, the
    first such row winning.
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
    # each row times the power of two 2^-ey that puts its largest |entry| in
    # [1/2, 1), exact at normal scale, as the key is scaled (_sign_search)
    ey = np.frexp(np.abs(y).max(axis=1))[1]
    y = np.ldexp(y, -ey[:, None])
    accept_tol = key.tol.consistency_tol * row_norms(y)
    negative = y.min(axis=1) < -accept_tol
    errors.add(negative, lambda _: NotInRange("measurements have significantly negative entries"))
    trivial = ~y.any(axis=1)
    x, residual, signs = np.zeros((m, d)), np.zeros(m), np.zeros((m, d))
    live = np.flatnonzero(~negative & ~trivial)
    if live.size == 0:
        return RecoveryBatch(x, residual, signs, (), trivial)

    try:
        pivots, _, patterns = _sign_search(key)
    except NotAFrame as exc:
        errors.stop(exc, int(live[0]))
    # a one-row call, what a one-off decode makes, is never screened:
    # building the key's screen (an SVD and a solve) would not pay back there
    screen = _pattern_screen(key) if live.size > 1 else None
    per_chunk = max(1, _SOLVE_CHUNK // ((key.D if screen is None else d) * len(patterns)))
    for start in range(0, live.size, per_chunk):
        rows = live[start:start + per_chunk]
        keep = (np.ones((rows.size, len(patterns)), dtype=bool) if screen is None
                else screen.keep(y[rows], accept_tol[rows]))
        x[rows], residual[rows], signs[rows] = _sign_search_rows(
            key, y[rows], ey[rows], accept_tol[rows], rows, errors, keep
        )
    return RecoveryBatch(x, residual, signs, tuple(int(p) for p in pivots), trivial)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53: the relative error bound
    of n successive roundings."""
    nu = n * 2.0**-53
    return nu / (1.0 - nu)


@dataclass(frozen=True)
class _PatternScreen:
    """omega_many's screen of (row, pattern) pairs on the non-pivot column
    ``column`` of the unit copy (see keep); ``g`` is solve(U_piv, u_k) as
    computed, and a pair's allowance is ``tol_factor`` times its acceptance
    tolerance plus ``weight`` times its row's ||y[pivots]|| plus ``floor``."""

    pivots: np.ndarray
    patterns_t: np.ndarray
    column: int
    g: np.ndarray
    weight: float
    tol_factor: float
    floor: float

    def keep(self, y: np.ndarray, accept_tol: np.ndarray) -> np.ndarray:
        """(rows, patterns) mask of the pairs that may be consistent: those
        with | |z . g| - y_k | within the allowance, z = pattern * y[pivots]."""
        y_piv = y[:, self.pivots]
        gap = (y_piv * self.g) @ self.patterns_t
        np.abs(gap, out=gap)
        gap -= y[:, self.column, None]
        np.abs(gap, out=gap)
        allowance = (self.tol_factor * accept_tol + self.weight * np.linalg.norm(y_piv, axis=1)
                     + self.floor)
        return gap <= allowance[:, None]


def _pattern_screen(key: Key) -> _PatternScreen | None:
    """The key's pattern screen (memoized), or None where it cannot work: one
    sign pattern (d = 1), a pivot block too ill-conditioned for its bound,
    no non-pivot column whose screen tells every single pivot flip apart, or
    an allowance that would keep every pattern.

    Writing M = U_piv^T for the transposed pivot block of the unit copy, the
    bound needs upper bounds on ||M|| (its computed Frobenius norm, doubled)
    and ||M^-1|| (2 / sigma_d(M) as computed: LAPACK's singular values are
    within a modest multiple p(d) u ||M|| of the exact ones, with p(d) <= d^2
    assumed, which the theta <= 1/4 test below keeps far under sigma_d / 2),
    and eta, the normwise backward error of LU with partial pivoting:
    (M + dM) c = z with |dM| <= gamma_3d |L||U| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 9.4), || |L||U| ||_inf
    <= (1 + 2 (d^2 - d) rho) ||M||_inf (Lemma 9.6) with growth factor rho <=
    2^(d-1), and a factor d between the inf-norms and the 2-norm. Then
    theta = kappa(M) eta, and the screen needs theta <= 1/4. The column k
    maximizes min_i |g_i| / (||u_k|| ||M^-1|| + ||g||), the least change a
    single sign flip makes to z . g against the bound's scale (first on
    ties); a k with a zero g_i cannot tell two patterns apart, and a pivot
    column (g a unit vector) none. The z . g of two patterns differ by at
    most ||z - z'|| ||g|| <= 2 ||y[pivots]|| ||g|| <= 4 ||y[pivots]|| ||g^||,
    so a weight of at least 4 ||g^|| keeps every pattern of a row that one
    pattern fits, and the screen would only cost time.
    """

    def compute():
        pivots, a_piv_t, patterns = _sign_search(key)
        d, D = key.d, key.D
        rest = np.ones(D, dtype=bool)
        rest[pivots] = False
        rest = np.flatnonzero(rest)
        if len(patterns) < 2 or rest.size == 0:
            return None
        s = singular_values(a_piv_t)
        if not s[-1] > 0.0:
            return None
        norm, inv_norm = 2.0 * float(np.linalg.norm(a_piv_t)), 2.0 / float(s[-1])
        eta = d * _gamma(3 * d) * (1.0 + 2.0 * (d * d - d) * 2.0 ** (d - 1))
        theta = norm * inv_norm * eta
        if not theta <= 0.25:
            return None
        u = _unit(key).matrix[:, rest]
        g = np.linalg.solve(a_piv_t.T, u)
        u_norm, g_norm = np.linalg.norm(u, axis=0), np.linalg.norm(g, axis=0)
        scale = u_norm * inv_norm + g_norm
        score = np.divide(np.abs(g).min(axis=0), scale, out=np.zeros_like(scale),
                          where=scale > 0.0)
        j = int(np.argmax(score))
        weight = 2.0 * ((2.0 * _gamma(d) + 2.0 * theta) * u_norm[j] * inv_norm
                        + (4.0 * theta + _gamma(d)) * g_norm[j])
        if not (score[j] > 0.0 and weight < 4.0 * g_norm[j]):
            return None
        return _PatternScreen(pivots, np.ascontiguousarray(patterns.T), int(rest[j]),
                              g[:, j].copy(), weight, 1.0 + 4.0 * _gamma(D + 6), 2.0 ** -900)

    return _cached(key, "pattern_screen", compute)


def _sign_search_rows(key: Key, y: np.ndarray, ey: np.ndarray, accept_tol: np.ndarray,
                      rows: np.ndarray, errors: _RowErrors, keep: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recovered x, residual and sign pattern of the nonzero measurement rows
    ``rows``, given as 2^-ey times the measurements, with their acceptance
    tolerances in the same units.

    The search solves against the key's unit copy 2^-e A (_unit), so its
    candidates are 2^(e - ey) times the signals and its residuals 2^-ey
    times the measurements' ones; both are scaled back, and so are the
    figures of the errors.

    ``keep`` (rows, patterns) names the (row, pattern) pairs to solve: every
    pair, or those _PatternScreen.keep finds may be consistent. The kept
    pairs are the right-hand sides of one solve against the pivot block,
    laid out (d, pairs) row by row, so LAPACK factors the block once per
    chunk (a stacked right-hand side would be broadcast and factor it once
    per row). Their residuals are reduced as (D, pairs) over axis 0 and
    scattered into (rows, patterns), with inf for the dropped pairs. A
    pair's column of the solve, of the residual product and of its
    reduction does not depend on which pairs share them, as long as there
    are at least two, so a lone pair is solved twice (one right-hand side
    goes through LAPACK's one-vector path, and a (D, 1) reduction is summed
    pairwise, and both move bits). So a row has the bits of its single call
    in every chunk and under every mask.

    The screen drops a pair only when its computed residual is sure to
    exceed the acceptance tolerance. With z = pattern * y[pivots], M =
    U_piv^T, the computed candidate c^ of M c = z and the computed g^ of
    M^T g = u_k, a non-pivot column k, exactly u_k . c = g . z. With
    theta = kappa(M) eta <= 1/4 (_pattern_screen), the backward error gives
    ||c^ - c|| <= 2 theta ||c||, ||c|| <= ||M^-1|| ||z||, ||g|| <= 2 ||g^||
    and ||g^ - g|| <= 4 theta ||g^||. The residual's k-th entry u_k . c^ is
    computed within gamma_d ||u_k|| ||c^||, the screen's t^ =
    (y[pivots] * g^) @ pattern within gamma_d ||z|| ||g^||, so

        | |u_k . c^| - |t^| | <= ||z|| [(2 gamma_d + 2 theta) ||u_k|| ||M^-1||
                                      + (4 theta + gamma_d) ||g^||],

    and ||z|| = ||y[pivots]||. The residual norm, a sum of nonnegative
    squares, is at least (1 - gamma_(D+3)) times its k-th entry's magnitude,
    and the screen's | |t^| - y_k | is rounded once. The allowance doubles
    the bracket (for the rounding of the bound itself and of the norms),
    raises the tolerance by 4 gamma_(D+6), and adds 2^-900 for what gradual
    underflow can add on the unit copy (at most 2^-1075 an operation,
    amplified by ||M^-1|| < 2^53). A screen on a pivot column keeps every
    pattern, as z . g is then +-y_k.

    Dropped pairs enter the steps below with an infinite residual, so the
    first consistent pattern, the ambiguity check among consistent patterns
    and the canonical sign are those of a search of every pair. A row with
    no consistent pattern raises NotInRange, naming its best residual, when
    its keep row is full; otherwise it is searched once more with a full
    keep row, so its error names its best residual over all patterns.
    """
    pivots, a_piv_t, patterns = _sign_search(key)
    unit = _unit(key)
    e = unit.e
    n_rows, (n_pat, d) = len(rows), patterns.shape
    pairs = np.flatnonzero(keep)
    pairs = pairs if pairs.size > 1 else np.repeat(pairs, 2)
    row, pat = np.divmod(pairs, n_pat)
    kept = np.linalg.solve(a_piv_t, (patterns.take(pat, 0) * y[:, pivots].take(row, 0)).T)
    res = np.full((n_rows, n_pat), np.inf)
    res.flat[pairs] = _residual_norms(unit.matrix.T @ kept, y.take(row, 0).T)
    cands = np.zeros((n_rows, n_pat, d))
    cands.reshape(-1, d)[pairs] = kept.T
    consistent = res <= accept_tol[:, None]
    n = np.arange(len(rows))
    first = np.argmax(consistent, axis=1)
    xs = cands[n, first]
    others = consistent.copy()
    others[n, first] = False
    if others.any():  # only a second consistent candidate can be ambiguous
        apart = np.minimum(row_norms(cands - xs[:, None]), row_norms(cands + xs[:, None]))
        far = others & (apart > _ORBIT_GAP * row_norms(xs)[:, None])
        errors.add(far.any(axis=1), lambda j: AmbiguityDetected(
            "two consistent candidates on distinct orbits, "
            f"{np.ldexp(apart[j, np.argmax(far[j])], ey[j] - e):.3e} apart up to sign, fit "
            f"within the acceptance tolerance {np.ldexp(accept_tol[j], ey[j]):.3e}"
        ), rows=rows)

    # canonical sign: the leading entry above the rank tolerance is positive
    mags = np.abs(xs)
    lead = np.argmax(mags > key.tol.rank_tol_factor * mags.max(axis=1, keepdims=True), axis=1)
    flip = np.where(xs[n, lead] < 0.0, -1.0, 1.0)[:, None]
    x = np.ldexp(flip * xs, (ey - e)[:, None])
    residual, signs = np.ldexp(res[n, first], ey), flip * patterns[first]

    found = consistent.any(axis=1)
    if not found.all():
        full = keep.all(axis=1)
        errors.add(~found & full, lambda j: NotInRange(
            f"no sign pattern is consistent (best residual {np.ldexp(res[j].min(), ey[j]):.3e}, "
            f"tolerance {np.ldexp(accept_tol[j], ey[j]):.3e})"
        ), rows=rows)
        redo = np.flatnonzero(~found & ~full)
        if redo.size:
            x[redo], residual[redo], signs[redo] = _sign_search_rows(
                key, y[redo], ey[redo], accept_tol[redo], rows[redo], errors,
                np.ones((redo.size, n_pat), dtype=bool)
            )
    return x, residual, signs


def _residual_norms(predicted: np.ndarray, given: np.ndarray) -> np.ndarray:
    """|| |predicted| - given || of every column, as np.linalg.norm computes it
    but with one temporary instead of three; ``predicted`` is overwritten."""
    np.abs(predicted, out=predicted)
    predicted -= given
    predicted *= predicted
    return np.sqrt(np.add.reduce(predicted, axis=0))


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
    """Reject rows whose decoding does not re-encode to the input, within
    consistency_tol times the input's norm. Both norms are taken on each
    row's own scale 2^-e, as _omega_rows scales its measurements, so their
    squares neither over- nor underflow; the figures of the error are scaled
    back."""
    m = given.shape[0]
    given = given.reshape(m, -1)
    e = np.frexp(np.abs(given).max(axis=1))[1][:, None]
    err = scaled_row_norms(reencoded.reshape(m, -1) - given, e)
    bound = key.tol.consistency_tol * scaled_row_norms(given, e)
    errors.add(err > bound, lambda r: NotInRange(
        f"re-encoding residual {np.ldexp(err[r], e[r, 0]):.3e} "
        f"exceeds tolerance {np.ldexp(bound[r], e[r, 0]):.3e}"
    ))
