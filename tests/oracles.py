"""One-at-a-time reference implementations for the stacked kernels.

These are the decoders, encoders, metrics, verify battery and ratio sampler
as they were before the kernels were batched: plain Python loops over
samples, sign patterns, columns and row orders, built on numpy alone. The
batched code must reproduce them, bit for bit where the docstrings of the
kernels say so. The complement property is here as its definition:
numerics.rank of both sides of every partition, one partition at a time.
The partition scan is here as it was before the A0 search walked the
partitions in ascending blocks: eigvalsh on every spanning side of every
partition. The A0 search is here as it was before its screen settled
partitions with the shifted-Cholesky test: every partition bracketed from
the eigenvalues of that scan. The A0 screen's cover is here as its definition: every
d-subset's Gram tested alone, and every column set compared with every
subset that passes. The d-subset scan is here as it was
before the same test settled subsets: one SVD of every subset. It is also
here as it was before it walked the prefix tree of the subsets: every
subset's Gram gathered from U^T U and tested by the packed kernel, chunk by
chunk. So is the shifted-Cholesky kernel as it was, updating the whole
trailing block. So are the pieces of the partition walk as they were before it worked on
strided views and gathered buffers: the Gram table filled through index
arrays, popcounts by a loop over the bits, and the screen's settled test
with one Cholesky call per side and shift, and the walks' one-side pass
with one call per side, as before sides I and C shared a call. Their Gram
tables are full (n, d, d) stacks, as before the screens stored packed upper
triangles. The column sort is here as it was before two-row stacks were
ordered by one comparison: one stable argsort for every row count. The battery's permutation loop draws in the
kernel's blocked order (row counts, then each row count's configurations
and row orders) but checks one sample at a time. The min/max identities are
checked one pair at a time too, the halved forms in integer arithmetic as
before they became one array predicate, but on numpy's maximum and minimum.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np

from phasesort import frame_keys, lipschitz, numerics, screens
from phasesort.errors import (
    AmbiguityDetected,
    DimensionError,
    NotAFrame,
    NotInRange,
    NotPhaseRetrievable,
    PhasesortError,
    SearchTooLarge,
    UnsupportedN,
)
from phasesort.frame_keys import (
    Partition,
    has_complement_property,
    is_full_spark,
    is_phase_retrievable,
    is_universal_key,
)
from phasesort.inversion import (
    _ORBIT_GAP,
    RecoveryResult,
    _gray_sign_patterns,
    _greedy_pivot_columns,
)
from phasesort.numerics import as_matrix, as_vector, rank, sigma_k
from phasesort.verify import SKIPPED, PropertyResult, _rng


# --- encoders and metrics ---------------------------------------------------

def analysis(key, x):
    v = as_vector(x)
    if v.shape[0] != key.d:
        raise DimensionError(f"signal has length {v.shape[0]}, key expects {key.d}")
    return key.matrix.T @ np.ascontiguousarray(v)


def alpha(key, x):
    return np.abs(analysis(key, x))


def sort_desc_columns(m):
    a = as_matrix(m)
    n = a.shape[0]
    sorted_cols = np.empty_like(a)
    perms = []
    for k in range(a.shape[1]):
        order = np.argsort(-a[:, k], kind="stable")
        sorted_cols[:, k] = a[order, k]
        p = np.empty(n, dtype=np.int64)
        p[order] = np.arange(n)
        perms.append(p)
    return sorted_cols, perms


def sort_desc(a):
    """Stable nonincreasing sort of every column of each (n, D) matrix of a stack,
    by one argsort for every row count, with (..., D, n) int64 perms."""
    *lead, n, cols = a.shape
    order = np.argsort(-a, axis=-2, kind="stable")
    perms = np.empty((*lead, cols, n), dtype=np.int64)
    rows = np.broadcast_to(np.arange(n)[:, None], order.shape)
    np.put_along_axis(np.swapaxes(perms, -1, -2), order, rows, axis=-2)
    return np.take_along_axis(a, order, axis=-2), perms


def beta(key, config):
    """Sorted matrix and permutations, as a (matrix, perms) pair."""
    x = as_matrix(config)
    if x.shape[1] != key.d:
        raise DimensionError(f"configuration has {x.shape[1]} columns, key expects {key.d}")
    return sort_desc_columns(x @ key.matrix)


def beta_tilde(key, config):
    x = as_matrix(config)
    if x.shape[0] != 2:
        raise UnsupportedN(f"modified encoder needs exactly 2 rows, got {x.shape[0]}")
    if x.shape[1] != key.d:
        raise DimensionError(f"configuration has {x.shape[1]} columns, key expects {key.d}")
    return np.concatenate([0.5 * (x[0] + x[1]), alpha(key, x[0] - x[1])])


def dist_hat_H(x, y):
    a, b = as_vector(x), as_vector(y)
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def dist_hat_V(x, y):
    a, b = as_matrix(x), as_matrix(y)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n > 8:
        raise SearchTooLarge(f"row-permutation metric is capped at n <= 8, got {n}")
    best = math.inf
    best_perm = tuple(range(n))
    for perm in itertools.permutations(range(n)):
        dist = float(np.linalg.norm(a - b[perm, :]))
        if dist < best:
            best = dist
            best_perm = perm
    return best, best_perm


# --- decoders ---------------------------------------------------------------

def _canonicalize_sign(x, rank_tol_factor):
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    if scale == 0.0:
        return 1.0
    lead = int(np.argmax(np.abs(x) > rank_tol_factor * scale))
    return -1.0 if x[lead] < 0.0 else 1.0


def _pattern_residuals(key, yv):
    """omega's search on the nonzero measurement vector yv, one pattern per
    column: (unit exponent e, row exponent ey, tolerance, pivots, patterns,
    candidates, residuals), all in the units of the scaled copies."""
    # the key's unit copy 2^-e A, and y times the power of two that puts its
    # largest |entry| in [1/2, 1); x, the residual and the reported figures
    # are scaled back
    unit = frame_keys._unit(key)
    a, e = unit.matrix, unit.e
    ey = int(np.frexp(np.abs(yv).max())[1])
    yv = np.ldexp(yv, -ey)
    accept_tol = key.tol.consistency_tol * float(np.linalg.norm(yv))
    if float(np.min(yv)) < -accept_tol:
        raise NotInRange("measurements have significantly negative entries")
    pivot_scale = key.tol.rank_tol_factor * max(a.shape) * float(np.linalg.norm(a))
    pivots = _greedy_pivot_columns(a, key.d, pivot_scale)
    eps = _gray_sign_patterns(key.d)
    candidates = np.linalg.solve(a[:, pivots].T, (eps * yv[pivots]).T)
    residuals = np.linalg.norm(np.abs(a.T @ candidates) - yv[:, None], axis=0)
    return e, ey, accept_tol, pivots, eps, candidates, residuals


def consistent_patterns(key, y):
    """Which of omega's sign patterns fit the nonzero measurement vector y
    within the acceptance tolerance, in enumeration order."""
    *_, accept_tol, _, _, _, residuals = _pattern_residuals(key, as_vector(y))
    return residuals <= accept_tol


def omega(key, y, certificate=is_phase_retrievable):
    yv = as_vector(y)
    if yv.shape[0] != key.D:
        raise DimensionError(f"measurements have length {yv.shape[0]}, key expects {key.D}")
    if not certificate(key).verdict:
        raise NotPhaseRetrievable("key fails the phase-retrievability certificate")
    if not yv.any():
        return RecoveryResult(np.zeros(key.d), 0.0, np.ones(0), ())
    e, ey, accept_tol, pivots, eps, candidates, residuals = _pattern_residuals(key, yv)
    consistent = residuals <= accept_tol
    if not consistent.any():
        raise NotInRange(
            f"no sign pattern is consistent (best residual {np.ldexp(residuals.min(), ey):.3e}, "
            f"tolerance {np.ldexp(accept_tol, ey):.3e})"
        )
    first = int(np.argmax(consistent))
    x = candidates[:, first]
    x_scale = float(np.linalg.norm(x))
    for j in np.nonzero(consistent)[0]:
        gap = dist_hat_H(candidates[:, j], x)
        if j != first and gap > _ORBIT_GAP * x_scale:
            raise AmbiguityDetected(
                f"two consistent candidates on distinct orbits, {np.ldexp(gap, ey - e):.3e} "
                f"apart up to sign, fit within the acceptance tolerance "
                f"{np.ldexp(accept_tol, ey):.3e}"
            )
    flip = _canonicalize_sign(x, key.tol.rank_tol_factor)
    return RecoveryResult(np.ldexp(flip * x, ey - e), float(np.ldexp(residuals[first], ey)),
                          flip * eps[first], tuple(pivots))


def synthesis_left_inverse(key, y):
    v = as_vector(y)
    if v.shape[0] != key.D:
        raise DimensionError(f"coefficients have length {v.shape[0]}, key expects {key.D}")
    if rank(key.matrix, key.tol) < key.d:
        raise NotAFrame("key matrix is rank deficient; columns do not span")
    return np.linalg.lstsq(key.matrix.T, v, rcond=None)[0]


def invert_beta(key, embedding):
    yq = as_matrix(embedding)
    if yq.shape != (2, key.D):
        raise DimensionError(f"expected a 2 x {key.D} embedding, got {yq.shape}")
    if not np.all(yq[0] >= yq[1]):
        raise NotInRange("embedding columns are not sorted nonincreasing")
    mean_part = synthesis_left_inverse(key, yq[0] + yq[1])
    diff_part = omega(key, yq[0] - yq[1]).x
    decoded = np.vstack([0.5 * (mean_part + diff_part), 0.5 * (mean_part - diff_part)])
    err = float(np.linalg.norm(beta(key, decoded)[0] - yq))
    bound = key.tol.consistency_tol * float(np.linalg.norm(yq))
    if err > bound:
        raise NotInRange(f"re-encoding residual {err:.3e} exceeds tolerance {bound:.3e}")
    return decoded


def invert_beta_tilde(key, y):
    yv = as_vector(y)
    if yv.shape[0] != key.d + key.D:
        raise DimensionError(f"expected a vector of length {key.d + key.D}, got {yv.shape[0]}")
    mean_part = yv[: key.d]
    diff_part = omega(key, yv[key.d:]).x
    decoded = np.vstack([mean_part + 0.5 * diff_part, mean_part - 0.5 * diff_part])
    err = float(np.linalg.norm(beta_tilde(key, decoded) - yv))
    bound = key.tol.consistency_tol * float(np.linalg.norm(yv))
    if err > bound:
        raise NotInRange(f"re-encoding residual {err:.3e} exceeds tolerance {bound:.3e}")
    return decoded


# --- the partition walk's pieces, one index array or one call at a time ------

def popcounts(masks):
    """Number of set bits of every mask, one bit at a time."""
    masks = masks.copy()
    counts = np.zeros_like(masks)
    while masks.any():
        counts += masks & 1
        masks >>= 1
    return counts


def fill_grams(grams, outers):
    """screens._fill_grams through index arrays: for each bit b, highest
    first, the rows with bit b set and no lower bit become the row without
    bit b plus outers[b]."""
    for b in range(len(outers) - 1, -1, -1):
        prefix = np.arange(1 << (len(outers) - 1 - b), dtype=np.int64)
        idx = (prefix << (b + 1)) | (1 << b)
        grams[idx] = grams[idx - (1 << b)] + outers[b]


def one_side_settled(gi, total, full_i, full_c, tau):
    """screens._one_side_settled as two calls of the packed kernel over a
    block of packed Grams ``gi``: side I where it spans, then side C, total -
    gi, where it spans and side I did not factor. Returns ``ok``, the masks
    with a side that factored."""
    ok = np.zeros(full_i.size, dtype=bool)
    finite = tau < np.inf
    if finite:
        rows_i = np.flatnonzero(full_i)
        ok[rows_i] = screens._shifted_cholesky_ok_inplace(np.take(gi, rows_i, axis=1), tau)
    rows_c = np.flatnonzero(full_c & ~ok)
    gc = total[:, None] - np.take(gi, rows_c, axis=1)
    if finite:
        ok[rows_c] = screens._shifted_cholesky_ok_inplace(gc.copy(), tau)
    return ok


def settled(gi, gc, full_i, full_c, hi_run, err_s, err_lam):
    """The masks the A0 screen settles in a block (those screens._unsettled
    does not return), with four Cholesky calls: side I, then side C of the
    masks not yet settled, at the one-side shift; then side I and, where it
    passed, side C of the rest at the both-sides shift."""
    ok = np.zeros(full_i.size, dtype=bool)
    if hi_run == np.inf:
        return ok
    one_side = (hi_run + 2.0 * err_s) ** 2 + 2.0 * err_lam
    both_sides = ((hi_run + err_s) / np.sqrt(2.0) + err_s) ** 2 + 2.0 * err_lam
    for g, full in ((gi, full_i), (gc, full_c)):
        rows = np.flatnonzero(full & ~ok)
        ok[rows] = screens.shifted_cholesky_ok(g[rows], one_side)
    rows = np.flatnonzero(full_i & full_c & ~ok)
    rows = rows[screens.shifted_cholesky_ok(gi[rows], both_sides)]
    ok[rows] = screens.shifted_cholesky_ok(gc[rows], both_sides)
    return ok


# --- the partition scan: eigvalsh on every spanning side ---------------------

def partition_scan(key):
    """Smallest Gram eigenvalues of both sides of every canonical mask, as
    arrays indexed by mask: ``counts`` (|I|) and ``lam_min_i``/``lam_min_c``
    (eigvalsh's smallest eigenvalue of the Grams of I and I^c; 0 for sides
    with fewer than d columns, which are not diagonalized). The Grams are
    full (n, d, d) tables over all masks: side I's filled by fill_grams from
    the outer products, highest bit first, and side C's A A^T minus them."""
    d, D = key.d, key.D
    a = key.matrix
    n_masks = 1 << (D - 1)
    gi = np.zeros((n_masks, d, d))
    fill_grams(gi, np.einsum("ik,jk->kij", a, a)[:D - 1])
    gc = a @ a.T - gi
    counts = popcounts(np.arange(n_masks)).astype(np.uint8)
    lam_min = {}
    for side, full, g in (("i", counts >= d, gi), ("c", D - counts >= d, gc)):
        lam_min[side] = np.zeros(n_masks)
        lam_min[side][full] = np.linalg.eigvalsh(g[full])[:, 0]
    return SimpleNamespace(counts=counts, lam_min_i=lam_min["i"], lam_min_c=lam_min["c"])


# --- the complement property by its definition ------------------------------

def complement_property(key):
    """(verdict, witness, method) of the complement property without the
    subset certificate: each canonical mask in ascending order, one at a
    time, passes when a side with at least d columns has numerics.rank d,
    and the witness is the first mask that does not."""
    d, D = key.d, key.D
    a = key.matrix
    for mask in range(1 << (D - 1)):
        cols = [k for k in range(D) if mask >> k & 1]
        comp = [k for k in range(D) if not mask >> k & 1]
        ok = (len(cols) >= d and rank(a[:, cols], key.tol) == d) or (
            len(comp) >= d and rank(a[:, comp], key.tol) == d
        )
        if not ok:
            return False, Partition(mask, D), "exhaustive-partitions"
    return True, None, "exhaustive-partitions"


# --- the A0 search with a bracket for every partition -----------------------

def lower_constant_screen(key, bound=np.inf):
    """The masks the A0 search may visit, ascending, with their bracket lower
    ends: every mask bracketed (screen_brackets), kept when its lower end is
    below the smallest upper end before it and below ``bound``, a start
    bound on the unit copy, and the lower ends scaled back by 2^e, the unit
    copy's exponent."""
    lo, hi = screen_brackets(key)
    prev_hi = np.minimum.accumulate(np.concatenate(([bound], hi[:-1])))
    keep = np.flatnonzero(lo < prev_hi)
    return keep, np.ldexp(lo[keep], frame_keys._unit(key).e)


def screen_brackets(key):
    """(lo, hi): the bracket of every canonical mask's value on the unit copy
    2^-e A (frame_keys._unit), from partition_scan's smallest eigenvalues of
    the copy. Reads the screen constants at call time, so they can be
    patched."""
    d, D = key.d, key.D
    copy = frame_keys._unit(key)
    unit, e = copy.matrix, copy.e
    scan = partition_scan(frame_keys.Key(unit, key.tol))
    b0 = sigma_k(unit, 1)
    spacing = np.ldexp(np.finfo(float).smallest_subnormal, -e)
    err_s = screens.GRAM_SCREEN_SLACK * (np.finfo(float).eps * (D + d) * b0 + spacing)
    err_lam = err_s * d * b0
    sides = []
    for lam, full in ((scan.lam_min_i, scan.counts >= d), (scan.lam_min_c, D - scan.counts >= d)):
        lo = np.maximum(np.sqrt(np.maximum(lam - err_lam, 0.0)) - err_s, 0.0)
        hi = np.sqrt(np.maximum(lam + err_lam, 0.0)) + err_s
        sides.append((np.where(full, lo, 0.0), np.where(full, hi, 0.0)))
    (lo_i, hi_i), (lo_c, hi_c) = sides
    lo = np.maximum(np.hypot(lo_i, lo_c) - err_s, 0.0)
    return lo, np.hypot(hi_i, hi_c) + err_s


# --- the A0 screen's cover, one d-subset at a time --------------------------

def cover(unit, tau):
    """Whether each column set S of range(D), indexed by its bitmask, holds a
    d-subset T whose Gram G[T, T] passes screens.shifted_cholesky_ok at the
    shift tau, G = U^T U being the Gram of the d x D unit copy ``unit``: every
    d-subset tested alone, and every set compared with every subset that
    passes."""
    d, D = unit.shape
    gram = unit.T @ unit
    sets = np.arange(1 << D)
    out = np.zeros(1 << D, dtype=bool)
    for t in itertools.combinations(range(D), d):
        if screens.shifted_cholesky_ok(gram[np.ix_(t, t)][None], tau)[0]:
            mask = sum(1 << c for c in t)
            out |= (sets & mask) == mask
    return out


def lower_constant(key):
    """(A0, mask of I0): lower_constant_screen's masks through exact_pass."""
    return exact_pass(key, *lower_constant_screen(key))[:2]


def exact_pass(key, masks, lo):
    """(A0, mask of I0, masks visited): the kept ``masks`` visited in
    ascending order with two numerics.sigma_k calls each, one at a time,
    dropping the masks whose bracket lower end ``lo`` shows they can no
    longer pass whenever the best changes."""
    d, D = key.d, key.D
    a = key.matrix
    tie = lipschitz._TIE_WINDOW * lipschitz.upper_constant(key)
    best_val = np.inf
    best_mask = 0
    visited = 0
    while masks.size:
        mask = int(masks[0])
        masks, lo = masks[1:], lo[1:]
        visited += 1
        part = Partition(mask, D)
        cols_i = part.column_indices0()
        cols_c = part.complement().column_indices0()
        s_i = sigma_k(a[:, cols_i], d) if len(cols_i) >= d else 0.0
        s_c = sigma_k(a[:, cols_c], d) if len(cols_c) >= d else 0.0
        val = float(np.hypot(s_i, s_c))
        if val < best_val - tie:
            best_val = val
            best_mask = mask
            keep = lo < best_val - tie
            masks, lo = masks[keep], lo[keep]
    return best_val, best_mask, visited


# --- the d-subset scan with an SVD of every subset ---------------------------

def subset_scan(key):
    """(first deficient d-subset or None, smallest sigma_d ranked): every
    subset's singular values from a stacked SVD, chunk by chunk in
    lexicographic order, stopping at the chunk with a deficient subset.
    Reads screens._CHUNK_ENTRIES at call time, so it can be patched."""
    d, D = key.d, key.D
    if D < d:
        return tuple(range(1, D + 1)), 0.0
    a = key.matrix
    subsets = itertools.combinations(range(D), d)
    per_chunk = max(1, screens._CHUNK_ENTRIES // (d * d))
    sigma_d_min = np.inf
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(subsets, per_chunk))
        cols = np.fromiter(chunk, dtype=np.intp).reshape(-1, d)
        if cols.size == 0:
            return None, float(sigma_d_min)
        s = numerics.singular_values_many(a[:, cols].transpose(1, 0, 2))
        sigma_d_min = min(sigma_d_min, s[:, d - 1].min())
        deficient = numerics.ranks_from_singular_values(s, d, key.tol) < d
        if deficient.any():
            first = cols[int(np.argmax(deficient))]
            return tuple(int(c) + 1 for c in first), float(sigma_d_min)


def subset_decision(key):
    """(first deficient d-subset or None, whether every subset's sigma_d is
    above the complement certificate's margin), from subset_scan."""
    deficient, sigma_d_min = subset_scan(key)
    factor = max(key.tol.rank_tol_factor, frame_keys._SUBSET_CERT_FLOOR)
    margin = frame_keys._SUBSET_CERT_MARGIN * factor * key.D * sigma_k(key.matrix, 1)
    return deficient, deficient is None and sigma_d_min > margin


def shifted_cholesky_ok(stack, tau):
    """The shifted-Cholesky test updating the whole trailing block each step."""
    a = np.asarray(stack, dtype=np.float64)
    n, d = a.shape[0], a.shape[-1]
    w = a.transpose(1, 2, 0).copy()
    diag = np.arange(d)
    w[diag, diag] -= tau
    ok = np.ones(n, dtype=bool)
    for k in range(d):
        pivot = w[k, k]
        ok &= pivot > 0.0
        if k == d - 1 or not ok.any():
            break
        r = w[k, k + 1:] / np.sqrt(np.where(ok, pivot, 1.0))
        w[k + 1:, k + 1:] -= r[:, None] * r[None, :]
    return ok


# --- the d-subset scan with a gathered Gram for every subset ----------------

def packed_submatrices(matrix, index):
    """The packed (P, n) stack of the principal submatrices matrix[T, T] of a
    square matrix, one for each column T of a (d, n) integer array ``index``.

    Each row of the packed triangle is one take from the flattened matrix,
    so no (P, n) index array is formed.
    """
    d, n = index.shape
    start = screens._row_starts(d)
    flat = np.ascontiguousarray(matrix).ravel()
    row_base = index * matrix.shape[1]
    w = np.empty((start[d], n))
    for i in range(d):
        np.take(flat, row_base[i] + index[i:], out=w[start[i]:start[i + 1]])
    return w


def _subset_chunks(d, D):
    """The d-subsets of range(D) in lexicographic order, one row each, in
    chunks of screens._CHUNK_ENTRIES // d^2 (read at call time)."""
    subsets = itertools.combinations(range(D), d)
    per_chunk = max(1, screens._CHUNK_ENTRIES // (d * d))
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(subsets, per_chunk))
        cols = np.fromiter(chunk, dtype=np.intp).reshape(-1, d)
        if cols.size == 0:
            return
        yield cols


def subset_verdicts(key, tau):
    """Whether each d-subset T, in lexicographic order, passes the packed
    shifted-Cholesky kernel at the shift tau: its Gram G[T, T] of the unit
    copy U (G = U^T U) gathered straight into the packed layout, chunk by
    chunk."""
    unit = frame_keys._unit(key).matrix
    gram = unit.T @ unit
    parts = [screens._shifted_cholesky_ok_inplace(
                 packed_submatrices(gram, np.ascontiguousarray(cols.T)), tau)
             for cols in _subset_chunks(key.d, key.D)]
    return np.concatenate([np.zeros(0, dtype=bool), *parts])


def cholesky_subset_scan(key):
    """frame_keys.subset_scan as it was before the prefix-tree walk: each
    chunk's Grams gathered and tested by the packed kernel, the subsets that
    fail it given a stacked SVD, stopping at the chunk with a deficient
    subset."""
    d, D = key.d, key.D
    if D < d:
        return frame_keys.SubsetScan(tuple(range(1, D + 1)), False, 0, 0)
    margin, tau = frame_keys._margin_shift(key)
    unit = frame_keys._unit(key).matrix
    gram = unit.T @ unit
    clears_margin = True
    settled = decomposed = 0
    for cols in _subset_chunks(d, D):
        above = screens._shifted_cholesky_ok_inplace(
            packed_submatrices(gram, np.ascontiguousarray(cols.T)), tau)
        settled += int(np.count_nonzero(above))
        cols = cols[~above]
        if cols.size == 0:
            continue
        decomposed += len(cols)
        s = numerics.singular_values_many(key.matrix[:, cols].transpose(1, 0, 2))
        clears_margin &= bool(s[:, d - 1].min() > margin)
        deficient = numerics.ranks_from_singular_values(s, d, key.tol) < d
        if deficient.any():
            first = cols[int(np.argmax(deficient))]
            return frame_keys.SubsetScan(tuple(int(c) + 1 for c in first), False,
                                         settled, decomposed)
    return frame_keys.SubsetScan(None, clears_margin, settled, decomposed)


# --- sampler and battery ----------------------------------------------------

def _pairs(row, d):
    """A row of 6d normals as its configuration pair and signal pair."""
    return (row[:2 * d].reshape(2, d), row[2 * d:4 * d].reshape(2, d),
            row[4 * d:5 * d], row[5 * d:])


def sample_pairs(d, samples, seed):
    """ratio_scan's draws as a (samples, 6d) array, one row per sample: a
    block of normals from one generator, then the rows whose configuration or
    signal pair is within _MIN_PAIR_DISTANCE (read at call time) drawn again
    one at a time, ascending, in rounds until none is close."""
    limit = lipschitz._MIN_PAIR_DISTANCE

    def close(row):
        x_cfg, y_cfg, x_sig, y_sig = _pairs(row, d)
        return dist_hat_V(x_cfg, y_cfg)[0] <= limit or dist_hat_H(x_sig, y_sig) <= limit

    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((samples, 6 * d))
    redraw = [i for i in range(samples) if close(z[i])]
    while redraw:
        for i in redraw:
            z[i] = rng.standard_normal(6 * d)
        redraw = [i for i in redraw if close(z[i])]
    return z


def ratio_scan(key, samples, seed, include_witnesses=False):
    """The per-sample ratio loop over sample_pairs' rows; reads lipschitz's
    build_report and _MIN_PAIR_DISTANCE at call time, so both can be patched."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    report = lipschitz.build_report(key)
    a0, b0 = report.A0, report.B0
    beta_ratios, alpha_ratios = [], []
    for row in sample_pairs(key.d, samples, seed):
        x_cfg, y_cfg, x_sig, y_sig = _pairs(row, key.d)
        dv = dist_hat_V(x_cfg, y_cfg)[0]
        gap = float(np.linalg.norm(beta(key, x_cfg)[0] - beta(key, y_cfg)[0]))
        beta_ratios.append(gap / dv)
        dh = dist_hat_H(x_sig, y_sig)
        gap = float(np.linalg.norm(alpha(key, x_sig) - alpha(key, y_sig)))
        alpha_ratios.append(gap / dh)
    if include_witnesses:
        w = report.witnesses
        pairs_v = [(w.X_max, w.Y_max)]
        pairs_h = [(w.x_max, w.y_max)]
        if not report.degenerate_lower:
            pairs_v.append((w.X_min, w.Y_min))
            pairs_h.append((w.x_min, w.y_min))
        for xc, yc in pairs_v:
            dv = dist_hat_V(xc, yc)[0]
            beta_ratios.append(float(np.linalg.norm(beta(key, xc)[0] - beta(key, yc)[0])) / dv)
        for xs, ys in pairs_h:
            dh = dist_hat_H(xs, ys)
            alpha_ratios.append(float(np.linalg.norm(alpha(key, xs) - alpha(key, ys))) / dh)
    result = lipschitz.RatioScanReport(
        min(beta_ratios), max(beta_ratios), min(alpha_ratios), max(alpha_ratios)
    )
    slack = key.tol.consistency_tol * b0
    for lo, hi, label in (
        (result.min_ratio, result.max_ratio, "beta"),
        (result.alpha_min_ratio, result.alpha_max_ratio, "alpha"),
    ):
        if lo < a0 - slack or hi > b0 + slack:
            raise lipschitz.LipschitzViolation(
                f"{label} ratios [{lo!r}, {hi!r}] escape [{a0!r}, {b0!r}]"
            )
    return result


def halved_identities(u, v):
    """Per pair: 2 max = u + v + |u - v| and 2 min = u + v - |u - v|, exactly.

    u, v and numpy's maximum and minimum of them are scaled to integers over
    one power-of-two denominator, so both identities become integer
    statements about the values numpy returned.
    """
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    mx, mn = np.maximum(u, v), np.minimum(u, v)
    ok = []
    for vals in zip(u.ravel().tolist(), v.ravel().tolist(), mx.ravel().tolist(), mn.ravel().tolist()):
        ratios = [x.as_integer_ratio() for x in vals]
        q = max(den for _, den in ratios)
        iu, iv, imx, imn = (num * (q // den) for num, den in ratios)
        s, spread = iu + iv, abs(iu - iv)
        ok.append(2 * imx == s + spread and 2 * imn == s - spread)
    return np.array(ok, dtype=bool).reshape(u.shape)


def minmax_identity_failures(u, v):
    """Pairs failing any of the five min/max/abs identities, one pair at a time."""
    halved = halved_identities(u, v)
    mx, mn = np.maximum(u, v), np.minimum(u, v)
    bad = 0
    for a, b, hi, lo, h in zip(u.tolist(), v.tolist(), mx.tolist(), mn.tolist(), halved.tolist()):
        if not (
            abs(a - b) == hi - lo
            and a + b == hi + lo
            and abs(abs(a) - abs(b)) == min(abs(a - b), abs(a + b))
            and h
        ):
            bad += 1
    return bad


def _rel_close(a, b, tol):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) <= tol * max(
        1.0, float(np.linalg.norm(np.asarray(b)))
    )


def _result(name, bad, count):
    return PropertyResult(
        name, "pass" if bad == 0 else "fail", count, "" if bad == 0 else f"{bad} violations"
    )


def run_battery(key, samples, seed):
    """The per-sample property loops of the verify battery."""
    d = key.d
    results = []
    injective = is_phase_retrievable(key).verdict

    rng = _rng(seed, 0)
    u = rng.standard_normal(samples)
    v = rng.standard_normal(samples)
    results.append(_result("minmax-identities", minmax_identity_failures(u, v), samples))

    rng = _rng(seed, 1)
    bad = 0
    for _ in range(samples):
        cfg = rng.standard_normal((2, d))
        b = beta(key, cfg)[0]
        diff, total = b[0] - b[1], b[0] + b[1]
        if not _rel_close(diff, alpha(key, cfg[0] - cfg[1]), 1e-12):
            bad += 1
        elif not _rel_close(total, analysis(key, cfg[0] + cfg[1]), 1e-12):
            bad += 1
    results.append(_result("hadamard-split-identity", bad, samples))

    rng = _rng(seed, 2)
    bad = 0
    for _ in range(samples):
        x = rng.standard_normal(d)
        if not np.array_equal(alpha(key, x), alpha(key, -x)):
            bad += 1
    results.append(_result("alpha-sign-invariance", bad, samples))

    # row counts first, then each row count's configurations and row orders;
    # a row count no sample drew gets empty blocks, which draw nothing
    rng = _rng(seed, 3)
    bad = 0
    counts = rng.integers(1, 5, samples)
    for n in range(1, 5):
        k = int(np.count_nonzero(counts == n))
        cfgs = rng.standard_normal((k, n, d))
        perms = rng.permuted(np.tile(np.arange(n), (k, 1)), axis=1)
        for cfg, perm in zip(cfgs, perms):
            if not np.array_equal(beta(key, cfg)[0], beta(key, cfg[perm])[0]):
                bad += 1
    results.append(_result("beta-permutation-invariance", bad, samples))

    rng = _rng(seed, 4)
    bad = 0
    a = key.matrix
    for _ in range(samples):
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        lhs = float(np.sum((alpha(key, x) - alpha(key, y)) ** 2))
        cd = a.T @ (x - y)
        cs = a.T @ (x + y)
        in_s = np.abs(cd) <= np.abs(cs)
        rhs = float(np.sum(cd[in_s] ** 2) + np.sum(cs[~in_s] ** 2))
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
            bad += 1
    results.append(_result("auxiliary-set-decomposition", bad, samples))

    rng = _rng(seed, 5)
    bad = 0
    for _ in range(samples):
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        stacked = dist_hat_V(np.vstack([x, -x]), np.vstack([y, -y]))[0]
        if abs(dist_hat_H(x, y) - stacked / np.sqrt(2.0)) > 1e-12 * max(1.0, stacked):
            bad += 1
    results.append(_result("quotient-metric-stack", bad, samples))

    problems = []
    uk = is_universal_key(key)
    if is_phase_retrievable(key).verdict != uk.verdict:
        problems.append("phase-retrievable != universal-key")
    if key.D == 2 * key.d - 1 and is_full_spark(key).verdict != uk.verdict:
        problems.append("full-spark != universal-key at D = 2d-1")
    if key.D < 2 * key.d - 1 and uk.verdict:
        problems.append("universal despite D < 2d-1")
    a0, _ = lipschitz.lower_constant(key)
    a0_positive = a0 > key.tol.rank_tol_factor * max(key.d, key.D) * lipschitz.upper_constant(key)
    if a0_positive != has_complement_property(key).verdict:
        problems.append("A0 positivity disagrees with complement property")
    results.append(PropertyResult(
        "certificate-agreement", "pass" if not problems else "fail", 4, "; ".join(problems)
    ))

    if not injective:
        for name in ("roundtrip-alpha", "roundtrip-beta", "roundtrip-beta-tilde",
                     "lipschitz-sandwich", "achievement"):
            results.append(PropertyResult(name, SKIPPED, 0))
        return results

    rng = _rng(seed, 6)
    bad = 0
    for _ in range(samples):
        x = rng.standard_normal(d)
        if dist_hat_H(omega(key, alpha(key, x)).x, x) > 1e-8 * max(1.0, np.linalg.norm(x)):
            bad += 1
    results.append(_result("roundtrip-alpha", bad, samples))

    rng = _rng(seed, 7)
    bad = 0
    for _ in range(samples):
        cfg = rng.standard_normal((2, d))
        rec = invert_beta(key, beta(key, cfg)[0])
        if dist_hat_V(rec, cfg)[0] > 1e-8 * max(1.0, float(np.linalg.norm(cfg))):
            bad += 1
    results.append(_result("roundtrip-beta", bad, samples))

    rng = _rng(seed, 8)
    bad = 0
    for _ in range(samples):
        cfg = rng.standard_normal((2, d))
        rec = invert_beta_tilde(key, beta_tilde(key, cfg))
        if dist_hat_V(rec, cfg)[0] > 1e-8 * max(1.0, float(np.linalg.norm(cfg))):
            bad += 1
    results.append(_result("roundtrip-beta-tilde", bad, samples))

    try:
        ratio_scan(key, samples, seed, include_witnesses=True)
        results.append(PropertyResult("lipschitz-sandwich", "pass", samples))
    except PhasesortError as exc:
        results.append(PropertyResult("lipschitz-sandwich", "fail", samples, str(exc)))

    try:
        lipschitz.check_achievement(key, lipschitz.build_report(key))
        results.append(PropertyResult("achievement", "pass", 4))
    except PhasesortError as exc:
        results.append(PropertyResult("achievement", "fail", 4, str(exc)))
    return results
