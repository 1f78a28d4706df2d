"""Optimal bi-Lipschitz constants of the encoders, with extremal witnesses.

The upper constant is the largest singular value of the key. The lower
constant is an exact minimum over all unordered column partitions of
sqrt(sigma_d(A[I])^2 + sigma_d(A[I^c])^2), found by exhaustive search at
desk scale: the Gram screen of screens._screen keeps the few partitions
that may hold the minimum, and the exact pass here decides them on SVD
values of the key. Both constants are achieved by explicit vector pairs
built from singular vectors; ``check_achievement`` verifies those
equalities and ``ratio_scan`` samples random pairs to confirm the sandwich
empirically.
"""

from __future__ import annotations

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
      shows lo >= prev_hi, and keeps, in ascending order, the masks with lo
      < prev_hi. From its first full-size block on, the test is mostly
      taken once per d-subset instead of once per mask: a mask is settled
      with no Gram of its own when a side holds d columns whose Gram
      passes it, as sigma_d of a side is at least that of any d of its
      columns (the cover). Its docstring has the argument that it keeps
      exactly the masks the full bracket of every mask would keep.
    - Exact pass. The kept masks are visited in ascending order with the
      full visit's body and test. Every mask that becomes the best in the full
      visit is among them, so each sees the same best as in the full visit
      and decides the same way. The values come from one stack of SVDs of
      the key per side size (screens._side_singular_values), whose rows have
      the bits of numerics.sigma_k on each side alone.
    - Stops. Values are >= 0, so once the best is at most tie no later mask
      can pass the test, and the search stops where it knows this without a
      Gram. Mask 0, always kept first, has the value sigma_d(A): when that is
      at most tie it is the answer, and the screen is not called. When
      d <= D <= 2d - 2, mask 2^(D-d+1) - 1 is the first with no side of d
      columns, and its value is 0; no test settles it, and the screen stops
      after the block that holds it.

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
    every kept mask, which is among the diagonalized ones, or only mask 0
    when its value decides (work (0, 0, 1)). When the screen stops at a
    mask with no side of d columns, settled + diagonalized counts the masks
    up to the end of its block, fewer than 2^(D-1) unless that block is the
    last. The screen reads the key's unit copy (frame_keys._unit): the key
    times a power of two that holds it exactly has the same one, and so the
    same ``settled`` and ``diagonalized``, away from subnormal scale.
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
    full = (1 << D) - 1
    first = float(_sigma_d(key.matrix, np.array([full]))[0])  # mask 0's value
    if not first > tie:
        return LowerConstantSearch((first, Partition(0, D)), 0, 0, 1)
    masks, settled, diagonalized = screens._screen(_unit(key))
    rest = masks[1:]
    s_i, s_c = np.split(_sigma_d(key.matrix, np.concatenate((rest, full ^ rest))), 2)
    best_val, best_mask = first, 0
    for mask, val in zip(rest.tolist(), np.hypot(s_i, s_c).tolist()):
        if val < best_val - tie:
            best_val, best_mask = val, mask
    return LowerConstantSearch((best_val, Partition(best_mask, D)), settled, diagonalized,
                               masks.size)


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


def _require_close(name: str, measured: float, expected: float, tol: float, details: dict):
    details[name] = {"measured": measured, "expected": expected}
    if abs(measured - expected) > tol * max(1.0, abs(expected)):
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
    their squares.
    """
    tol = key.tol.achievement_tol
    w = report.witnesses
    details: dict = {}
    e = _unit(key).e

    gap = alpha(key, w.x_max) - alpha(key, w.y_max)
    gap = float(np.ldexp(numerics.scaled_row_norms(gap, e), e))
    _require_close("alpha-upper", gap, report.B0 * dist_hat_H(w.x_max, w.y_max), tol, details)

    dv_max = dist_hat_V(w.X_max, w.Y_max)[0]
    _require_close("beta-upper-distance", dv_max, 1.0, tol, details)
    gap = beta(key, w.X_max).matrix - beta(key, w.Y_max).matrix
    gap = float(np.ldexp(numerics.scaled_row_norms(gap.ravel(), e), e))
    _require_close("beta-upper", gap, report.B0 * dv_max, tol, details)

    if report.degenerate_lower:
        return AchievementResult(passed=True, lower_checked=False, details=details)

    gap = alpha(key, w.x_min) - alpha(key, w.y_min)
    gap = float(np.ldexp(numerics.scaled_row_norms(gap, e), e))
    _require_close("alpha-lower", gap, report.A0 * dist_hat_H(w.x_min, w.y_min), tol, details)

    dv_min = dist_hat_V(w.X_min, w.Y_min)[0]
    _require_close("beta-lower-distance-squared", dv_min**2, 2.0, tol, details)
    gap = beta(key, w.X_min).matrix - beta(key, w.Y_min).matrix
    gap = float(np.ldexp(numerics.scaled_row_norms(gap.ravel(), e), e))
    _require_close("beta-lower", gap, report.A0 * dv_min, tol, details)

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
