"""Optimal bi-Lipschitz constants of the encoders, with extremal witnesses.

The upper constant is the largest singular value of the key. The lower
constant is an exact minimum over all unordered column partitions of
sqrt(sigma_d(A[I])^2 + sigma_d(A[I^c])^2), found by exhaustive search at
desk scale. Both constants are achieved by explicit vector pairs built from
singular vectors; ``check_achievement`` verifies those equalities and
``ratio_scan`` samples random pairs to confirm the sandwich empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
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
from .errors import AchievementFailure, LipschitzViolation
from .frame_keys import Key, Partition, PartitionScan, _cached, partition_scan


def upper_constant(key: Key) -> float:
    """Optimal upper Lipschitz constant: the largest singular value."""
    return numerics.sigma_k(key.matrix, 1)


# Relative window inside which partition values count as tied, so the
# smallest-mask tie-break is stable against last-ulp differences.
_TIE_WINDOW = 1e-12

# Error allowance of the Gram screen, in units of eps * (D + d) * B0 for a
# singular value (its SVD error and the bracket's own rounding) and of
# eps * (D + d) * d * B0^2 for a Gram eigenvalue (the Gram sums and
# eigvalsh). Both are generous over the backward-error bounds; a wider
# bracket only sends a few more partitions to the exact pass.
_SCREEN_SLACK = 64.0

# Keys with B0 outside this range could under- or overflow in the Gram
# entries; their partitions all go to the exact pass.
_SCREEN_RANGE = (2.0**-400, 2.0**400)

# Partitions bracketed per batch (memory, not correctness).
_SCREEN_CHUNK = 1 << 16


def lower_constant(key: Key) -> tuple[float, Partition]:
    """Optimal lower Lipschitz constant with its minimizing partition (memoized).

    The value of a partition {I, I^c} is hypot(sigma_d(A[I]), sigma_d(A[I^c]))
    with both singular values from numerics.sigma_k; a side with fewer than d
    columns contributes sigma_d = 0. The result is that of visiting every
    canonical mask in ascending order (masks over subsets that avoid the last
    column) and taking a mask as the new best when its value is below the best
    so far by more than the tie window _TIE_WINDOW * max(1, B0); ties thus keep
    the earlier, i.e. smaller, mask.

    Only a few masks are visited, with the same bits as a full visit:

    - Bracket. The partition scan gives each side's smallest Gram eigenvalue
      lambda, equal to sigma_d^2 up to the error of the Gram sums and of
      eigvalsh, both at most c * eps * (D + d) * d * B0^2. Widened further by
      the SVD error, of order eps * (D + d) * B0, this puts the value the
      visit computes in a bracket [lo, hi] per mask.
    - Possible records. The best so far always lies in [runmin, runmin + tie],
      where runmin is the smallest value so far. So a mask can become the best
      only if its value is below runmin, hence below prev_hi, the smallest hi
      of the masks before it (infinite for mask 0). Masks with lo >= prev_hi
      are skipped.
    - Exact pass. The remaining masks are visited in ascending order with the
      full visit's body and test. Every mask that becomes the best in the full
      visit is among them, so each sees the same best as in the full visit
      and decides the same way. A mask with lo >= best - tie cannot pass the
      test, now or after the best drops; such masks are dropped whenever the
      best changes.

    A0 therefore always comes from exact SVD values, never from the screen.
    Near-singular keys, whose values all sit inside the bracket's width, send
    many masks to the exact pass; the result is the same, only slower.
    """
    return _cached(key, "lower_constant", lambda: _lower_constant(key))


def _lower_constant(key: Key) -> tuple[float, Partition]:
    d, D = key.d, key.D
    scan = partition_scan(key)
    a = key.matrix
    b0 = upper_constant(key)
    tie = _TIE_WINDOW * max(1.0, b0)
    masks, lo = _screen(scan, d, D, b0)
    best_val = np.inf
    best_mask = 0
    while masks.size:
        mask = int(masks[0])
        masks, lo = masks[1:], lo[1:]
        part = Partition(mask, D)
        cols_i = part.column_indices0()
        cols_c = part.complement().column_indices0()
        s_i = numerics.sigma_k(a[:, cols_i], d) if len(cols_i) >= d else 0.0
        s_c = numerics.sigma_k(a[:, cols_c], d) if len(cols_c) >= d else 0.0
        val = float(np.hypot(s_i, s_c))
        if val < best_val - tie:
            best_val = val
            best_mask = mask
            keep = lo < best_val - tie
            masks, lo = masks[keep], lo[keep]
    return best_val, Partition(best_mask, D)


def _side_bracket(lam, full, err_lam, err_s):
    """Bracket of sigma_d for sides with Gram eigenvalue ``lam``; 0 where not ``full``."""
    lo = np.maximum(np.sqrt(np.maximum(lam - err_lam, 0.0)) - err_s, 0.0)
    hi = np.sqrt(np.maximum(lam + err_lam, 0.0)) + err_s
    return np.where(full, lo, 0.0), np.where(full, hi, 0.0)


def _screen(scan: PartitionScan, d: int, D: int, b0: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks that may become the best, ascending, with the lower ends of their brackets."""
    n_masks = scan.counts.size
    if not _SCREEN_RANGE[0] <= b0 <= _SCREEN_RANGE[1]:
        return np.arange(n_masks), np.zeros(n_masks)
    err_s = _SCREEN_SLACK * np.finfo(float).eps * (D + d) * b0
    err_lam = err_s * d * b0
    kept_masks, kept_lo = [], []
    run_hi = np.inf
    for start in range(0, n_masks, _SCREEN_CHUNK):
        rows = slice(start, start + _SCREEN_CHUNK)
        counts = scan.counts[rows]
        lo_i, hi_i = _side_bracket(scan.lam_min_i[rows], counts >= d, err_lam, err_s)
        lo_c, hi_c = _side_bracket(scan.lam_min_c[rows], D - counts >= d, err_lam, err_s)
        lo = np.maximum(np.hypot(lo_i, lo_c) - err_s, 0.0)
        hi = np.hypot(hi_i, hi_c) + err_s
        prev_hi = np.minimum.accumulate(np.concatenate(([run_hi], hi[:-1])))
        run_hi = min(prev_hi[-1], hi[-1])
        keep = np.flatnonzero(lo < prev_hi)
        kept_masks.append(keep + start)
        kept_lo.append(lo[keep])
    return np.concatenate(kept_masks), np.concatenate(kept_lo)


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
        cutoff = key.tol.rank_tol_factor * max(sub.shape) * (s[0] if s.size else 0.0)
        rank = int(np.count_nonzero(s > cutoff))
        basis = u_full[:, rank:]
    return _earliest_leading_unit(basis.T), True


def build_report(key: Key) -> LipschitzReport:
    """Assemble constants, optimal partition, singular vectors and witnesses."""
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
    degenerate = a0 <= key.tol.rank_tol_factor * max(key.d, key.D) * max(1.0, b0)
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
    Any violation raises AchievementFailure naming the clause.
    """
    tol = key.tol.achievement_tol
    w = report.witnesses
    details: dict = {}

    gap = float(np.linalg.norm(alpha(key, w.x_max) - alpha(key, w.y_max)))
    _require_close("alpha-upper", gap, report.B0 * dist_hat_H(w.x_max, w.y_max), tol, details)

    dv_max = dist_hat_V(w.X_max, w.Y_max)[0]
    _require_close("beta-upper-distance", dv_max, 1.0, tol, details)
    gap = float(np.linalg.norm(beta(key, w.X_max).matrix - beta(key, w.Y_max).matrix))
    _require_close("beta-upper", gap, report.B0 * dv_max, tol, details)

    if report.degenerate_lower:
        return AchievementResult(passed=True, lower_checked=False, details=details)

    gap = float(np.linalg.norm(alpha(key, w.x_min) - alpha(key, w.y_min)))
    _require_close("alpha-lower", gap, report.A0 * dist_hat_H(w.x_min, w.y_min), tol, details)

    dv_min = dist_hat_V(w.X_min, w.Y_min)[0]
    _require_close("beta-lower-distance-squared", dv_min**2, 2.0, tol, details)
    gap = float(np.linalg.norm(beta(key, w.X_min).matrix - beta(key, w.Y_min).matrix))
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


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    # one substream per sample, so results do not depend on chunking
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def ratio_scan(
    key: Key, samples: int, seed: int, include_witnesses: bool = False
) -> RatioScanReport:
    """Sample distortion ratios and assert they stay inside [A0, B0].

    For each sample, one random two-row pair is rated under the sorting
    encoder and one random signal pair under the magnitude encoder. With
    ``include_witnesses`` the extremal pairs from the report are rated too,
    pinning the extremes to the constants themselves. A ratio escaping the
    sandwich (beyond consistency_tol) raises LipschitzViolation: it would
    falsify the implementation, not the bounds.
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
    gaps = beta_many(key, x_cfg)[0] - beta_many(key, y_cfg)[0]
    dv = dist_hat_V_many(x_cfg, y_cfg)[0]
    beta_ratios = numerics.row_norms(gaps.reshape(len(gaps), -1)) / dv
    gaps = alpha_many(key, x_sig) - alpha_many(key, y_sig)
    alpha_ratios = numerics.row_norms(gaps) / dist_hat_H_many(x_sig, y_sig)

    result = RatioScanReport(
        min_ratio=float(beta_ratios.min()),
        max_ratio=float(beta_ratios.max()),
        alpha_min_ratio=float(alpha_ratios.min()),
        alpha_max_ratio=float(alpha_ratios.max()),
    )
    slack = key.tol.consistency_tol
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

    Sample i draws from its own substream, as _draw_pairs does. Both pairs
    come from one draw of 6d normals, which are the loop's draws unless a
    pair is too close; those samples are drawn again with the loop itself.
    """
    z = np.empty((samples, 6 * d))
    for i in range(samples):
        z[i] = _sample_rng(seed, i).standard_normal(6 * d)
    x_cfg = z[:, : 2 * d].reshape(samples, 2, d)
    y_cfg = z[:, 2 * d: 4 * d].reshape(samples, 2, d)
    x_sig, y_sig = z[:, 4 * d: 5 * d], z[:, 5 * d:]
    close = dist_hat_V_many(x_cfg, y_cfg)[0] <= _MIN_PAIR_DISTANCE
    close |= dist_hat_H_many(x_sig, y_sig) <= _MIN_PAIR_DISTANCE
    for i in np.flatnonzero(close):
        x_cfg[i], y_cfg[i], x_sig[i], y_sig[i] = _draw_pairs(_sample_rng(seed, i), d)
    return [x_cfg, y_cfg, x_sig, y_sig]


def _draw_pairs(rng: np.random.Generator, d: int):
    """One sample's configuration pair and signal pair, each redrawn while too close."""
    while True:
        x_cfg = rng.standard_normal((2, d))
        y_cfg = rng.standard_normal((2, d))
        if dist_hat_V(x_cfg, y_cfg)[0] > _MIN_PAIR_DISTANCE:
            break
    while True:
        x_sig = rng.standard_normal(d)
        y_sig = rng.standard_normal(d)
        if dist_hat_H(x_sig, y_sig) > _MIN_PAIR_DISTANCE:
            break
    return x_cfg, y_cfg, x_sig, y_sig
