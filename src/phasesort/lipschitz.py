"""Optimal bi-Lipschitz constants of the encoders, with extremal witnesses.

The upper constant is the largest singular value of the key. The lower
constant is an exact minimum over all unordered column partitions of
sqrt(sigma_d(A[I])^2 + sigma_d(A[I^c])^2), found by exhaustive search at
desk scale: the Gram screen of screens._screen keeps the few partitions
that may hold the minimum, and the exact pass here decides them on SVD
values of the key. At D = 2d - 1 the partitions to decide grow instead
from the d-subsets whose Grams fail the screen's test, with no walk over
the partitions. Both constants are achieved by explicit vector pairs
built from singular vectors; ``check_achievement`` verifies those
equalities and ``ratio_scan`` samples random pairs to confirm the sandwich
empirically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import numerics, screens
from .encoders import (
    alpha,
    alpha_many,
    beta,
    beta_many,
    dist_hat_H,
    dist_hat_H_many,
    dist_hat_V,
    dist_hat_V_many,
)
from .errors import AchievementFailure, LipschitzViolation, SearchTooLarge
from .frame_keys import (
    COMPLEMENT_MAX_COLS,
    Key,
    Partition,
    _cached,
    _sigma_1,
    _unit,
)


def upper_constant(key: Key) -> float:
    """Optimal upper Lipschitz constant: the largest singular value (memoized)."""
    return _sigma_1(key)


# Relative window inside which partition values count as tied, so the
# smallest-mask tie-break is stable against last-ulp differences.
_TIE_WINDOW = 1e-12


def lower_constant(key: Key) -> tuple[float, Partition]:
    """Optimal lower Lipschitz constant with its minimizing partition (memoized).

    The value of a partition {I, I^c} is hypot(sigma_d(A[I]), sigma_d(A[I^c]))
    with both singular values from numerics.sigma_k; a side with fewer than d
    columns contributes sigma_d = 0. The result is that of visiting every
    canonical mask in ascending order (masks over subsets that avoid the last
    column) and taking a mask as the new best when its value is below the best
    so far by more than the tie window _TIE_WINDOW * B0; ties thus keep the
    earlier, i.e. smaller, mask. The window is relative, so scaling the key by
    a power of two scales A0 by it and keeps I0. Keys with
    D > COMPLEMENT_MAX_COLS raise SearchTooLarge.

    Only a few masks are visited, with the same bits as a full visit:

    - Unit copy. The screen reads U = 2^-e A (frame_keys._unit), whose
      largest entry lies in [1/2, 1), so that no Gram entry or shift can
      overflow at any scale of the key. The brackets and shifts are in units
      of the copy, where B0 means sigma_1(U).
    - Possible records. The best so far always lies in [runmin, runmin + tie],
      where runmin is the smallest value so far. So a mask can become the best
      only if its value is below runmin, hence below prev_hi, the smallest hi
      of the masks before it (infinite for mask 0). Masks with lo >= prev_hi
      are skipped.
    - Screen. screens._screen brackets the value of every mask, 2^-e times
      the value the visit computes, from Gram eigenvalues of the copy,
      settles most masks without a bracket by a shifted-Cholesky test that
      shows lo >= min(c, prev_hi), and keeps, in ascending order, the masks
      with lo < min(c, prev_hi), c being the cut of the Bound below (2^-e
      times it on the copy; infinite for an unseeded walk). In a seeded
      walk the test is mostly taken once per d-subset, before the first
      block, instead of once per mask: a mask is settled with no Gram of
      its own when a side holds d columns whose Gram passes it, as sigma_d
      of a side is at least that of any d of its columns (the cover). Its
      docstring has the argument that it keeps exactly the masks the full
      bracket of every mask would keep.
    - Exact pass. The kept masks are visited in ascending order with the
      full visit's body and test. Without a cut, every mask that becomes the
      best in the full visit is among them, so each sees the same best as in
      the full visit and decides the same way. The values come from one
      stack of SVDs of the key per side size (screens._side_singular_values),
      whose rows have the bits of numerics.sigma_k on each side alone.
    - Bound. Before the walk, h, the value the visit computes for mask 0 or
      for the split an alternating descent on the copy ends at, whichever
      is smaller (_descent_bound), bounds m*, the smallest value the visit
      computes, from above; the screen gets the cut c = h + 2 tie. Call a
      mask low when its value v < c. The full visit's final best f has
      v_f <= m* + tie < c, and once the best is low no mask with v >= c
      can pass val < best - tie. Suppose no visited value lies in the band
      [c - tie, c). Then the first low mask visited passes the test
      whatever high best precedes it, here as in the full visit, where no
      low mask before it is a record (a low mask is dropped only for lo >=
      prev_hi). From there on the two visits see the same best, as every
      later record of the full visit is low and kept; so the walk ends at
      f with the same bits. A mask the screen drops has v >= 2^e lo >= c
      or cannot be a record, so only visited values can break this, and
      the exact pass checks each against the band. On a hit the search is
      redone unseeded, and the work of both walks is counted. The band is
      needed: with tie = 1 and values 4.5, 3.6, 2.9, 2.0 in mask order, the
      full visit returns the third mask; h = 2.0 gives c = 4.0, the screen
      may drop the first, and the visit of the rest returns the fourth;
      3.6 lies in [3.0, 4.0). The seeded screen starts with full-size
      blocks and its cover (screens._screen's Start bound).
    - Stop. Values are >= 0, so once the best is at most tie no later mask
      can pass the test: the search ends with the first block whose exact
      best is at most tie. The kept masks of each block wait, and the
      exact pass visits them after a block that holds a kept mask with
      2^e * lo <= tie, and after the last block. The value the visit
      computes for a mask is at least 2^e times its lo, so while no
      waiting mask has one within the window, the best cannot be within it
      either: the wait moves only when masks are visited, never the
      answer. Mask 0, the first kept mask of an unseeded walk, is visited
      like any other; its value sigma_d(A) ends the search after the first
      block when it is within the window, as for a rank-deficient key.
      When D <= 2d - 2, mask 2^(D-d+1) - 1 (mask 0 when D < d) has no side
      of d columns, the value 0 and lo = 0, so the search ends at the
      latest with the block that holds it.
    - D = 2d - 1. With a finite cut c the search walks no blocks
      (_open_split_search). Every split then has exactly one side S of d
      or more columns, the other has at most d - 1 and sigma_d = 0, so the
      visit computes the split's value as hypot(sigma_d(A_S), 0) =
      sigma_d(A_S). That is at least sigma_d of any d columns of S
      (interlacing, as in screens._screen's Cover), so A0 is the smallest
      sigma_d of a d-subset, and a split can be low only when no d-subset
      of S passes the kernel at c's one-side shift (the Cover's argument,
      with the split's single spanning side). The subset scan's walk
      (screens._unsettled_subsets) gives F, the d-subsets that fail that
      shift. Their Grams, gathered once from U^T U, are factored again at
      shifts falling 16x a step, each step on the Grams that failed the
      step before (screens._lowest), and the exact values of at most
      _CUT_SUBSETS of the last ones give h2, a value the visit computes,
      so h2 bounds m* from above and c2 = min(c, h2 + 2 tie) is a cut as
      c is. F', the members of F that fail c2's one-side shift, take one
      more kernel call: a subset outside F passed at c's shift, which
      shows it above c2's as well, as the Cover's blocks are shown at
      shifts at most its own. A split is open when every d-subset of its
      spanning side is in F', and the open splits grow level by level
      from F' (screens._open_splits); every split with a value below c2
      is among them. They are visited in ascending order, in chunks of
      _FIRST_BLOCK masks that double, with the visit's test, each value
      checked against the band [c2 - tie, c2), so the Bound's argument
      gives the full visit's bits; a hit redoes the search unseeded. The
      visit ends with the first chunk after which the best is within the
      tie window (Stop). Where F's Grams would exceed
      screens._CHUNK_ENTRIES entries, or the open splits one block of the
      walk (screens._block_bits), the seeded walk runs instead, at c or
      c2.

    A0 therefore always comes from exact SVD values, never from the screen.
    Near-singular keys, whose values all sit inside the bracket's width, send
    many masks to the exact pass; the result is the same, only slower.
    """
    return lower_constant_search(key).result


@dataclass(frozen=True, eq=False)
class LowerConstantSearch:
    """Result of the A0 search with the work it did, in masks.

    ``result`` is (A0, I0). Of the 2^(D-1) canonical masks, ``settled`` were
    ruled out by the shifted-Cholesky test, of a side's Gram or of the Gram
    of d columns of a side (the screen's cover), ``diagonalized`` were bracketed
    with eigvalsh, and ``visited`` were decided on their exact SVD values:
    the kept masks of the blocks the screen walked, which are among the
    diagonalized ones. The search stops with the first block whose exact
    best is within the tie window (see lower_constant), so settled +
    diagonalized counts the masks up to the end of that block, fewer than
    2^(D-1) unless it is the last. A search seeded with a descent bound
    (lower_constant's Bound) keeps only masks below its cut, so it settles
    all but a few hundred of the 2^23 masks of the generic cap keys; a
    search redone unseeded after a band hit counts the work of both walks.
    The screen reads the key's unit copy (frame_keys._unit): the key times
    a power of two that holds it exactly has the same one, and so the same
    ``settled`` and ``diagonalized``, away from subnormal scale.

    At D = 2d - 1 with a descent bound the search walks no blocks (see
    lower_constant's D = 2d - 1 bullet), and the counts mean: ``settled``,
    the masks whose spanning side holds a d-subset that passes the kernel
    at the second cut's one-side shift; ``diagonalized``, the open masks,
    the others, which take the place of the masks no test settles, though
    no eigvalsh runs on them, so settled + diagonalized = 2^(D-1); and
    ``visited``, the open masks visited up to the chunk the visit ends
    with. The at most _CUT_SUBSETS exact values that set the second cut
    are not counted. Where that search runs the seeded walk instead, the
    counts are the walk's.
    """

    result: tuple[float, Partition]
    settled: int
    diagonalized: int
    visited: int


def lower_constant_search(key: Key) -> LowerConstantSearch:
    """lower_constant's search and its work counts (memoized)."""
    return _cached(key, "lower_constant", lambda: _lower_constant(key))


def _lower_constant(key: Key) -> LowerConstantSearch:
    D = key.D
    if D > COMPLEMENT_MAX_COLS:
        raise SearchTooLarge(
            f"partition search is capped at D <= {COMPLEMENT_MAX_COLS}, got {D}"
        )
    tie = _TIE_WINDOW * upper_constant(key)
    cut = _descent_bound(key, tie) + 2.0 * tie
    search = _open_split_search if cut < np.inf and D == 2 * key.d - 1 else _search
    result, *work = search(key, tie, cut)
    if result is None:  # a visited value in the band: see lower_constant's Bound
        result, *more = _search(key, tie, np.inf)
        work = [a + b for a, b in zip(work, more)]
    return LowerConstantSearch(result, *work)


def _search(key: Key, tie: float, cut: float):
    """(result, settled, diagonalized, visited): lower_constant's walk with
    the cut c, infinite for an unseeded walk. The result is None when the
    walk visits a value in the band [c - tie, c)."""
    unit = _unit(key)
    best, pending = (np.inf, 0), []
    settled = diagonalized = visited = 0
    # c on the unit copy, exactly: c is at least 2 tie, so the scaled c is
    # far above the subnormal range
    for masks, lo, s, g in screens._screen(unit, np.ldexp(cut, -unit.e)):
        settled, diagonalized = settled + s, diagonalized + g
        pending.append(masks)
        if (settled + diagonalized < 1 << (key.D - 1)
                and not (np.ldexp(lo, unit.e) <= tie).any()):
            continue  # no waiting mask can reach the tie window: see lower_constant
        rest = np.concatenate(pending)
        pending, visited = [], visited + rest.size
        best = _visit(key.matrix, rest, best, tie, cut)
        if best is None:
            return None, settled, diagonalized, visited
        if best[0] <= tie:
            break
    return (best[0], Partition(best[1], key.D)), settled, diagonalized, visited


def _visit(a: np.ndarray, masks: np.ndarray, best: tuple[float, int], tie: float,
           cut: float) -> tuple[float, int] | None:
    """The best (value, mask) after the visit's test on ``masks``, ascending,
    from the best so far; None when a value lies in the band [cut - tie,
    cut) (lower_constant's Bound)."""
    values = _split_values(a, masks)
    if ((values >= cut - tie) & (values < cut)).any():
        return None
    best_val, best_mask = best
    for mask, val in zip(masks.tolist(), values.tolist()):
        if val < best_val - tie:
            best_val, best_mask = val, mask
    return best_val, best_mask


# At most this many failing d-subsets get exact values for the second cut of
# _open_split_search
_CUT_SUBSETS = 8


def _open_split_search(key: Key, tie: float, cut: float):
    """_search's (result, settled, diagonalized, visited) at D = 2d - 1 for a
    finite cut c, from the d-subsets that fail c's one-side shift, with no
    block walk: lower_constant's D = 2d - 1 bullet. It runs the seeded walk
    (_search) instead when their Grams would exceed screens._CHUNK_ENTRIES,
    or the open splits one block of the walk (screens._block_bits)."""
    unit = _unit(key)
    d, D = key.d, key.D

    def shift(c):
        return screens._one_side_shift(np.ldexp(c, -unit.e), unit.err_s, unit.err_lam)

    starts, counts = screens._unsettled_subsets(unit.matrix, shift(cut))
    if not 0 < counts.sum() <= screens._CHUNK_ENTRIES // (d * (d + 1) // 2):
        return _search(key, tie, cut)
    cols = screens._unrank(screens._ranges(starts, counts), d, D)
    sets, grams = (1 << cols).sum(axis=1), screens._subset_grams(unit.matrix, cols)
    low = screens._lowest(grams, shift(cut), np.ldexp(tie, -unit.e) ** 2, _CUT_SUBSETS)
    cut = min(cut, _split_values(key.matrix, screens._canonical(sets[low], D)).min() + 2.0 * tie)
    masks = screens._open_splits(sets, grams, shift(cut), D, 1 << screens._block_bits(d, D))
    if masks is None:
        return _search(key, tie, cut)
    settled, diagonalized = (1 << (D - 1)) - masks.size, masks.size
    best, visited, size = (np.inf, 0), 0, screens._FIRST_BLOCK
    while visited < masks.size:
        best = _visit(key.matrix, masks[visited:visited + size], best, tie, cut)
        visited, size = min(masks.size, visited + size), 2 * size
        if best is None:
            return None, settled, diagonalized, visited
        if best[0] <= tie:
            break
    return (best[0], Partition(best[1], D)), settled, diagonalized, visited


def _descent_bound(key: Key, tie: float) -> float:
    """h of lower_constant's Bound: the smaller of mask 0's value and the
    value of the split _descent ends at, both as the visit computes them;
    or inf where the search runs unseeded.

    No descent runs where it cannot pay: for tie = 0 (the zero key); for
    D <= 2d - 2, where split 2^(D-d+1) - 1 has no side of d columns and the
    value 0, so the search ends with the block that holds it; for walks of
    at most 4 * screens._FIRST_BLOCK masks, D <= 9, where the descent costs
    about what it saves (in process, keygen keys of seeds 1-3: a median
    0.1 ms lost at D = 9, 0.1 ms won at D = 10 and 0.8 ms at D = 11); and
    when mask 0's value sigma_d(A) is within the tie window, as for a
    rank-deficient key. An h within the window is not used either: the
    search then ends with the first block that holds a value within it,
    and a seed would only build the cover early.
    """
    d, D = key.d, key.D
    if tie == 0.0 or D <= 2 * d - 2 or 1 << (D - 1) <= 4 * screens._FIRST_BLOCK:
        return np.inf
    h = _split_values(key.matrix, np.zeros(1, dtype=np.int64))[0]
    if h > tie:
        h = min(h, _split_values(key.matrix, np.array([_descent(_unit(key).matrix)]))[0])
    return float(h) if h > tie else np.inf


# The descent's direction pairs and its most rounds
_DESCENT_STARTS = 8
_DESCENT_ROUNDS = 6


def _descent(u: np.ndarray) -> int:
    """The canonical mask of a split of low value of the d x D unit copy
    ``u``, by an alternating descent and then single-column moves.

    Each of _DESCENT_STARTS direction pairs (v, w), entries drawn uniform
    in [-1, 1) from random.Random(0) (Python's own generator: numpy's would
    load numpy.random, about 6 MB of peak RSS for a bounds command that
    does not otherwise use it), puts column u_j on side I when (v . u_j)^2
    < (w . u_j)^2, the whole assignment flipped when column D - 1 lands on
    side I; then v and w become the bottom eigenvectors of the two sides'
    Grams (eigh). No round raises the sum over the columns of min((v .
    u_j)^2, (w . u_j)^2): the assignment takes the smaller square of each
    column, and the new v and w attain the minimum of v^T G_I v + w^T G_C w
    over unit vectors, lambda_min(G_I) + lambda_min(G_C) (Rayleigh), the
    split's squared value on the copy. The rounds end when no assignment
    changes, or after _DESCENT_ROUNDS. The split of the start with the
    smallest sum then moves one column at a time, column D - 1 never, to
    the other side while the best such move lowers its squared value as
    eigvalsh of the sides' Grams gives it, at most _DESCENT_ROUNDS times;
    on the generic 24-column cap keys that brings the split from up to 1.9
    to within 1.14 times A0. Reading the copy, nothing over- or underflows
    at any scale of the key.
    """
    d, D = u.shape
    rng = random.Random(0)
    vw = np.array([rng.uniform(-1.0, 1.0) for _ in range(2 * _DESCENT_STARTS * d)])
    side, bound = _descent_sides(vw.reshape(2, _DESCENT_STARTS, d), u)
    for _ in range(_DESCENT_ROUNDS):
        vw = np.linalg.eigh(_side_grams(u, side))[1][..., 0].reshape(2, _DESCENT_STARTS, d)
        assigned, bound = _descent_sides(vw, u)
        if np.array_equal(assigned, side):
            break
        side = assigned
    side = side[np.argmin(bound)]
    value = _squared_values(u, side[None])[0]
    for _ in range(_DESCENT_ROUNDS):
        moves = side ^ np.eye(D, dtype=bool)[:-1]
        values = _squared_values(u, moves)
        best = int(np.argmin(values))
        if values[best] >= value:
            break
        side, value = moves[best], values[best]
    return int((side << np.arange(D)).sum())


def _descent_sides(vw: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(side, bound): for each direction pair (vw[0], vw[1]) of _descent,
    whether each column of ``u`` goes to side I, column D - 1 on side C, and
    the sum over the columns of min((v . u_j)^2, (w . u_j)^2)."""
    proj = np.square(vw @ u)
    side = proj[0] < proj[1]
    return side ^ side[:, -1:], np.minimum(proj[0], proj[1]).sum(axis=1)


def _squared_values(u: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """The squared value on the copy ``u`` of the split of each row of
    ``sides`` (True on side I), lambda_min(G_I) + lambda_min(G_C) from one
    stacked eigvalsh (about 0 for a side of fewer than d columns)."""
    return np.linalg.eigvalsh(_side_grams(u, sides))[:, 0].reshape(2, -1).sum(axis=0)


def _side_grams(u: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """The Grams U_S U_S^T on the copy ``u`` of side I of each row of
    ``sides``, then of side C of each, one (2n, d, d) stack."""
    return (u * np.concatenate((sides, ~sides))[:, None, :]) @ u.T


def _split_values(a: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The value the visit computes for each canonical mask of the key
    matrix ``a``: hypot(sigma_d(A_I), sigma_d(A_C)) (_sigma_d)."""
    full = (1 << a.shape[1]) - 1
    return np.hypot(*np.split(_sigma_d(a, np.concatenate((masks, full ^ masks))), 2))


def _sigma_d(a: np.ndarray, col_masks: np.ndarray) -> np.ndarray:
    """numerics.sigma_k(a[:, cols], d) of the columns cols of each mask, from
    stacked SVDs (screens._side_singular_values), with the same bits; 0
    for masks of fewer than d columns."""
    sigma = np.zeros(col_masks.size)
    for rows, _, s in screens._side_singular_values(a, col_masks):
        sigma[rows] = s[:, -1]
    return sigma


@dataclass(frozen=True)
class Witnesses:
    """Extremal pairs achieving the two constants.

    The upper constant is achieved against zero by the principal left
    singular vector; the lower constant by the sum/difference of the d-th
    left singular vectors of the two optimal-partition sides.
    """

    x_max: np.ndarray
    y_max: np.ndarray
    x_min: np.ndarray
    y_min: np.ndarray
    X_max: np.ndarray
    Y_max: np.ndarray
    X_min: np.ndarray
    Y_min: np.ndarray


@dataclass(frozen=True)
class LipschitzReport:
    A0: float
    B0: float
    I0: Partition
    u: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    witnesses: Witnesses
    degenerate_lower: bool
    placeholder_sides: tuple[bool, bool]


def _earliest_leading_unit(rows: np.ndarray) -> np.ndarray:
    """Unit vector in the row span whose first nonzero entry is earliest.

    Row reduction to reduced echelon form; the first echelon row is the
    unique such direction, normalized with a positive leading entry.
    """
    b = np.array(rows, dtype=float)
    k, d = b.shape
    scale = max(1.0, float(np.abs(b).max()) if b.size else 0.0)
    r = 0
    for c in range(d):
        if r >= k:
            break
        p = r + int(np.argmax(np.abs(b[r:, c])))
        if abs(b[p, c]) <= 1e-12 * scale:
            continue
        b[[r, p]] = b[[p, r]]
        b[r] = b[r] / b[r, c]
        for other in range(k):
            if other != r:
                b[other] = b[other] - b[other, c] * b[r]
        r += 1
    if r == 0:
        v = np.zeros(d)
        v[0] = 1.0
        return v
    v = b[0]
    return v / np.linalg.norm(v)


def _dth_left_vector(key: Key, cols: list[int]) -> tuple[np.ndarray, bool]:
    """Left singular vector for sigma_d of the given column side.

    A side with fewer than d columns has sigma_d = 0 by convention; its
    vector is the deterministic unit vector orthogonal to the side's column
    span (the earliest-leading-entry direction of the left null space).
    Returns the vector and whether the placeholder rule was used.
    """
    d = key.d
    a = key.matrix
    if len(cols) >= d:
        res = numerics.svd(a[:, cols])
        return res.left_vectors[:, d - 1], False
    if len(cols) == 0:
        basis = np.eye(d)
    else:
        sub = a[:, cols]
        u_full, s, _ = np.linalg.svd(sub, full_matrices=True)
        rank = int(numerics.ranks_from_singular_values(s[None], max(sub.shape), key.tol)[0])
        basis = u_full[:, rank:]
    return _earliest_leading_unit(basis.T), True


def build_report(key: Key) -> LipschitzReport:
    """Assemble constants, optimal partition, singular vectors and witnesses
    (memoized per key)."""
    return _cached(key, "report", lambda: _build_report(key))


def _build_report(key: Key) -> LipschitzReport:
    a0, part = lower_constant(key)
    b0 = upper_constant(key)
    u = numerics.svd(key.matrix).left_vectors[:, 0]
    u1, ph1 = _dth_left_vector(key, part.column_indices0())
    u2, ph2 = _dth_left_vector(key, part.complement().column_indices0())

    d = key.d
    zeros = np.zeros(d)
    wit = Witnesses(
        x_max=u,
        y_max=zeros,
        x_min=u1 + u2,
        y_min=u1 - u2,
        X_max=np.vstack([u, zeros]),
        Y_max=np.zeros((2, d)),
        X_min=np.vstack([u1 + u2, zeros]),
        Y_min=np.vstack([u1, u2]),
    )
    degenerate = a0 <= key.tol.rank_tol_factor * max(key.d, key.D) * b0
    return LipschitzReport(
        A0=a0,
        B0=b0,
        I0=part,
        u=u,
        u1=u1,
        u2=u2,
        witnesses=wit,
        degenerate_lower=degenerate,
        placeholder_sides=(ph1, ph2),
    )


@dataclass(frozen=True)
class AchievementResult:
    passed: bool
    lower_checked: bool
    details: dict = field(default_factory=dict)


def _require_close(name: str, measured: float, expected: float, tol: float, details: dict,
                   floor: float = 1.0):
    details[name] = {"measured": measured, "expected": expected}
    if abs(measured - expected) > tol * max(floor, abs(expected)):
        raise AchievementFailure(
            f"{name}: measured {measured!r}, expected {expected!r} (tol {tol})"
        )


def check_achievement(key: Key, report: LipschitzReport) -> AchievementResult:
    """Verify the witness pairs achieve their constants exactly.

    Four equalities are checked, each within achievement_tol relative: the
    two upper achievements (distance 1 against zero) and, unless the lower
    constant is degenerate, the two lower achievements (squared distance 2).
    Any violation raises AchievementFailure naming the clause. The measured
    gaps are norms of encoder differences, taken on the key's unit scale
    2^-e (numerics.scaled_row_norms) and scaled back, so that a key with
    entries near the ends of the float range neither over- nor underflows
    their squares. The four gap clauses are relative to at least
    2^min(e, 0), so a key below unit scale is held to its own scale, not to
    an absolute 1; the two distance clauses have no units and keep the
    floor 1.
    """
    tol = key.tol.achievement_tol
    w = report.witnesses
    details: dict = {}
    e = _unit(key).e
    floor = float(np.ldexp(1.0, min(e, 0)))

    gap = alpha(key, w.x_max) - alpha(key, w.y_max)
    gap = float(np.ldexp(numerics.scaled_row_norms(gap, e), e))
    _require_close("alpha-upper", gap, report.B0 * dist_hat_H(w.x_max, w.y_max), tol, details,
                   floor)

    dv_max = dist_hat_V(w.X_max, w.Y_max)[0]
    _require_close("beta-upper-distance", dv_max, 1.0, tol, details)
    gap = beta(key, w.X_max).matrix - beta(key, w.Y_max).matrix
    gap = float(np.ldexp(numerics.scaled_row_norms(gap.ravel(), e), e))
    _require_close("beta-upper", gap, report.B0 * dv_max, tol, details, floor)

    if report.degenerate_lower:
        return AchievementResult(passed=True, lower_checked=False, details=details)

    gap = alpha(key, w.x_min) - alpha(key, w.y_min)
    gap = float(np.ldexp(numerics.scaled_row_norms(gap, e), e))
    _require_close("alpha-lower", gap, report.A0 * dist_hat_H(w.x_min, w.y_min), tol, details,
                   floor)

    dv_min = dist_hat_V(w.X_min, w.Y_min)[0]
    _require_close("beta-lower-distance-squared", dv_min**2, 2.0, tol, details)
    gap = beta(key, w.X_min).matrix - beta(key, w.Y_min).matrix
    gap = float(np.ldexp(numerics.scaled_row_norms(gap.ravel(), e), e))
    _require_close("beta-lower", gap, report.A0 * dv_min, tol, details, floor)

    return AchievementResult(passed=True, lower_checked=True, details=details)


@dataclass(frozen=True)
class RatioScanReport:
    """Extremal distortion ratios seen by the sampler, per encoder."""

    min_ratio: float
    max_ratio: float
    alpha_min_ratio: float
    alpha_max_ratio: float


# Pairs closer than this in the quotient metric are redrawn; the ratio is
# numerically meaningless at zero distance.
_MIN_PAIR_DISTANCE = 1e-6


def ratio_scan(
    key: Key, samples: int, seed: int, include_witnesses: bool = False
) -> RatioScanReport:
    """Sample distortion ratios and assert they stay inside [A0, B0].

    For each sample, one random two-row pair is rated under the sorting
    encoder and one random signal pair under the magnitude encoder. With
    ``include_witnesses`` the extremal pairs from the report are rated too,
    pinning the extremes to the constants themselves. A ratio escaping the
    sandwich (beyond consistency_tol * B0, which scales with the key as the
    ratios do) raises LipschitzViolation: it would falsify the
    implementation, not the bounds.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    report = build_report(key)
    a0, b0 = report.A0, report.B0

    pairs = _sample_pairs(key.d, samples, seed)
    if include_witnesses:
        w = report.witnesses
        extra = [(w.X_max, w.Y_max, w.x_max, w.y_max)]
        if not report.degenerate_lower:
            extra.append((w.X_min, w.Y_min, w.x_min, w.y_min))
        pairs = [np.concatenate([s, [e[k] for e in extra]]) for k, s in enumerate(pairs)]
    x_cfg, y_cfg, x_sig, y_sig = pairs
    # the gaps' norms are taken on the key's unit scale 2^-e and scaled back
    # (numerics.scaled_row_norms), so no square under- or overflows
    e = _unit(key).e
    beta_gaps = (beta_many(key, x_cfg)[0] - beta_many(key, y_cfg)[0]).reshape(len(x_cfg), -1)
    beta_ratios = (np.ldexp(numerics.scaled_row_norms(beta_gaps, e), e)
                   / dist_hat_V_many(x_cfg, y_cfg)[0])
    alpha_gaps = alpha_many(key, x_sig) - alpha_many(key, y_sig)
    alpha_ratios = (np.ldexp(numerics.scaled_row_norms(alpha_gaps, e), e)
                    / dist_hat_H_many(x_sig, y_sig))

    result = RatioScanReport(
        min_ratio=float(beta_ratios.min()),
        max_ratio=float(beta_ratios.max()),
        alpha_min_ratio=float(alpha_ratios.min()),
        alpha_max_ratio=float(alpha_ratios.max()),
    )
    slack = key.tol.consistency_tol * b0
    for lo, hi, label in (
        (result.min_ratio, result.max_ratio, "beta"),
        (result.alpha_min_ratio, result.alpha_max_ratio, "alpha"),
    ):
        if lo < a0 - slack or hi > b0 + slack:
            raise LipschitzViolation(
                f"{label} ratios [{lo!r}, {hi!r}] escape [{a0!r}, {b0!r}]"
            )
    return result


def _sample_pairs(d: int, samples: int, seed: int) -> list[np.ndarray]:
    """The pairs ratio_scan rates: (samples, 2, d) configurations and (samples, d) signals.

    One generator draws a (samples, 6, d) block of normals; row i holds sample
    i's configuration pair and signal pair. Rows where either pair is within
    _MIN_PAIR_DISTANCE are drawn again whole, in ascending order, from the
    same generator, until none is close.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((samples, 6, d))
    rows = np.arange(samples)
    while rows.size:
        w = z[rows]
        close = dist_hat_V_many(w[:, 0:2], w[:, 2:4])[0] <= _MIN_PAIR_DISTANCE
        close |= dist_hat_H_many(w[:, 4], w[:, 5]) <= _MIN_PAIR_DISTANCE
        rows = rows[close]
        z[rows] = rng.standard_normal((rows.size, 6, d))
    return [z[:, 0:2], z[:, 2:4], z[:, 4], z[:, 5]]
