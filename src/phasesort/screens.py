"""The Gram screens of the exhaustive scans: cheap proofs that a side's
sigma_d is large, so that only the few sides they cannot place get an SVD.

Three scans use them, each over all sides of one shape:

- the subset scan (frame_keys.subset_scan) over the C(D, d) d-subsets,
  through the walk of their lexicographic prefix tree (_unsettled_subsets);
- the complement walk (frame_keys._complement_walk) over the 2^(D-1) column
  partitions, through the one-side pass (_one_side_settled);
- the A0 screen (_screen) of lipschitz.lower_constant over the same
  partitions. From its first full-size block on, it settles a partition
  with no Gram when a side holds a d-subset that the subset scan's walk
  factors at the block's shift (the cover, _cover), and runs the
  one-side pass on the others.

All read the key's unit copy U = 2^-e A (UnitCopy), so no Gram entry or
shift can overflow, and allow for the rounding of the Grams, of the
factorization and of the exact path's SVDs with _gram_screen_errors.
Grams are stored in one packed layout (pack), which the shifted-Cholesky
kernel (shifted_cholesky_ok) works in. The partition scans walk the masks
in ascending blocks (_partition_blocks), aligned power-of-two ranges of
masks, each with its own table of side I's Grams (_BlockGrams), filled
when a walk asks for it, or summed for a few masks alone; side C's is
U U^T minus side I's. The sides no screen settles get stacked SVDs of the
key (_side_singular_values).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from . import numerics

# Batched kernels work on at most this many stacked matrix entries at a time
# (memory, not correctness): the subset scan's arrays and the stacked SVDs of
# partition sides are taken one chunk at a time.
_CHUNK_ENTRIES = 1 << 20

# Gram entries per block of the partition walks (_partition_blocks), which
# bounds their memory: a block holds at most the largest power of two of
# masks whose Grams of one side fit, 8192 masks at d = 4 and 2048 at d = 8.
_SCREEN_ENTRIES = 1 << 17

# Error allowance of the Gram screens (the A0 screen, the subset scan and the
# complement walk). The screens read the key's unit copy 2^-e A (UnitCopy,
# largest entry in [1/2, 1)), so no Gram entry or shift can overflow, and
# underflow costs a Gram entry a few subnormal spacings at most. In copy
# units the allowance is this many times eps * (D + d) * sigma_1 plus the
# key's own subnormal spacing 2^(-1074 - e) for a singular value, and that
# times d * sigma_1 for a Gram eigenvalue, sigma_1 being the copy's. The
# spacing term covers the exact path's SVDs of a key at subnormal scale,
# whose results LAPACK rounds to that grid; for a nonzero key with e > -969
# it is below half an ulp of the first term and changes no bit. Both are
# generous over the error bounds the screens rely on; a wider allowance only
# sends a few more matrices to the exact path.
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


@dataclass(frozen=True, eq=False)
class UnitCopy:
    """What the Gram screens read of a key (_unit_copy): the copy ``matrix`` =
    U = 2^-e A, its sigma_1 from numerics.sigma_k, the allowances (err_s,
    err_lam) of _gram_screen_errors for it, and ``gram``, the packed U U^T
    (pack) from which the partition walks form side C's Grams."""

    matrix: np.ndarray
    e: int
    sigma_1: float
    err_s: float
    err_lam: float
    gram: np.ndarray


def _unit_copy(a: np.ndarray) -> UnitCopy:
    """The UnitCopy of a d x D key matrix ``a``, e being the np.frexp exponent
    of its largest |entry|. The copy's largest entry lies in [1/2, 1), so its
    Gram entries are at most D, and underflow costs each a few subnormal
    spacings at most. It is the key scaled exactly by a power of two, except
    that for e > 0 entries below 2^(e - 1022) in magnitude are rounded to the
    subnormal grid. Only the Gram screens read it (frame_keys._unit memoizes
    it per key)."""
    d, D = a.shape
    e = int(np.frexp(np.abs(a).max())[1])
    u = np.ldexp(a, -e)
    sigma_1 = numerics.sigma_k(u, 1)
    err_s, err_lam = _gram_screen_errors(sigma_1, d, D, e)
    return UnitCopy(u, e, sigma_1, err_s, err_lam, pack(u @ u.T))


# --- the subset scan's prefix tree --------------------------------------------

def _unsettled_subsets(unit: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(starts, counts): the lexicographic ranks of the d-subsets T whose Gram
    G[T, T] of the d x D unit copy ``unit`` = U, G = U^T U, fails
    shifted_cholesky_ok at the shift tau, as ascending disjoint ranges
    starts[k] .. starts[k] + counts[k] - 1: _subset_verdicts' ranges, sorted.
    """
    ranges = [(np.zeros(0, dtype=np.int64), 1), *_subset_verdicts(unit, tau, passing=False)]
    starts = np.concatenate([r for r, _ in ranges])
    counts = np.concatenate([np.full(r.size, n, dtype=np.int64) for r, n in ranges])
    order = np.argsort(starts)
    return starts[order], counts[order]


def _subset_verdicts(unit: np.ndarray, tau: float, passing: bool):
    """Yield ``(starts, length)``: the lexicographic ranks of the d-subsets T
    whose Gram G[T, T] of the d x D unit copy ``unit`` = U, G = U^T U, fails
    shifted_cholesky_ok at the shift tau, as disjoint ranges starts[k] ..
    starts[k] + length - 1, or, with ``passing``, of those that pass it, one
    rank each (length 1), in the walk's order, not in rank order.

    The d-subsets are the leaves of the prefix tree whose node at depth k is
    a k-prefix t_0 < ... < t_(k-1) of them. A node holds the Schur complement
    of its prefix in G - tau * I over the candidate columns after t_(k-1):
    the shifted entries minus r_j[u] * r_j[v] for ascending j < k, r_j being
    row t_j of the complement at depth j divided by the square root of its
    pivot. These are the values, and the order of operations, of the packed
    kernel (_shifted_cholesky_ok_inplace) on each leaf's gathered Gram, so
    every leaf gets the kernel's verdict bit for bit: it factors when every
    pivot along its path is positive. A node with a non-positive pivot
    passes NaN to its subtree, so all of its leaves fail, as the kernel's
    do; an expansion (below) drops such a node instead, and its leaves,
    consecutive ranks, become one range. A node with one pick left keeps
    only the diagonal of its complement, which holds its leaves' last
    pivots.

    The walk goes by depth. The nodes of one depth with the same last column
    share their candidates, so they form one block, one (entries, nodes)
    array in the packed layout, and each block is either expanded by one
    elimination step into the blocks of the next depth or, once its subtrees
    are small (_subtree_entries), settled down to its leaves, both by
    gathers through index tables that depend only on the block's shape
    (_subset_tree). So the number of numpy calls grows with d * D, not with
    the number of subsets. The arrays of one step hold at most a sixteenth
    of _CHUNK_ENTRIES entries together (a block's nodes are taken in
    batches), and an index table at most _CHUNK_ENTRIES / 16 (a settled
    block's subtrees are taken in windows of their first picks), unless a
    single node or a single first pick needs more. Only the root's and the
    expansions' tables are kept for later walks (_subset_tree). Each node
    carries the rank of its first leaf.
    """
    d, D = unit.shape
    budget = _CHUNK_ENTRIES >> 4
    gram = unit.T @ unit
    if d == 1:
        root = np.diagonal(gram) - tau
    else:
        root = pack(gram)
        root[list(_row_starts(D)[:-1])] -= tau
    # blocks by last column, -1 for the root: (complements, first-leaf ranks)
    blocks = {-1: (root[:, None], np.zeros(1, dtype=np.int64))}
    for depth in range(d):
        picks = d - depth
        children = {}
        for last, (w, ranks) in blocks.items():
            m = D - 1 - last
            # expanding a block with three picks left would hold about m^3 / 6
            # entries a node, more than its leaves for a key of many columns
            if picks <= 3 or _subtree_entries(picks, m) <= budget:
                tree = _subset_tree if depth == 0 else _build_subset_tree
                for r in _settle_block(w, ranks, picks, m, budget, passing, tree):
                    yield r, 1
                continue
            for i, part, failed, leaves in _expand_block(w, ranks, picks, m):
                children.setdefault(last + 1 + i, []).append(part)
                if not passing:
                    yield failed, leaves
        blocks = {last: tuple(np.concatenate(a, axis=-1) for a in zip(*parts))
                  for last, parts in children.items()}


def _settle_block(w: np.ndarray, ranks: np.ndarray, picks: int, m: int, budget: int,
                  passing: bool, tree):
    """Yield the ranks of the leaves that fail, or with ``passing`` of those
    that pass, a batch of nodes at a time, for a block of nodes with
    ``picks`` columns left to choose among ``m`` candidates (complements
    ``w``, first leaves ``ranks``), through the index tables ``tree``
    (_build_subset_tree or its memoized _subset_tree)."""
    for first, stop in _windows(picks, m, budget):
        steps, peak = tree(picks, m, first, stop, picks - 1)
        offset = sum(comb(m - 1 - i, picks - 1) for i in range(first))
        per_batch = max(1, _CHUNK_ENTRIES // (16 * peak))
        for start in range(0, w.shape[1], per_batch):
            x = w[:, start:start + per_batch]
            for step in steps:
                x = _eliminate(x, step)
            leaf, node = np.nonzero((x > 0.0) == passing)
            yield ranks[start + node] + (offset + leaf)


def _expand_block(w: np.ndarray, ranks: np.ndarray, picks: int, m: int):
    """Yield ``(i, (complements, ranks), failed, leaves)`` for the children
    of a block's nodes by their i-th candidate, one elimination step down, a
    batch of nodes at a time: the complements and first-leaf ranks of the
    children whose pivot is positive, and the first-leaf ranks of the
    others, whose ``leaves`` leaves all fail."""
    (step,), peak = _subset_tree(picks, m, 0, m - picks + 1, 1)
    per_batch = max(1, _CHUNK_ENTRIES // (16 * peak))
    for start in range(0, w.shape[1], per_batch):
        x = w[:, start:start + per_batch]
        alive = x.take(step[0], axis=0) > 0.0
        x = _eliminate(x, step)
        batch = ranks[start:start + per_batch]
        row = rank = 0
        for i in range(m - picks + 1):
            c = m - 1 - i
            part, keep = x[row:row + c * (c + 1) // 2], alive[i]
            yield i, (part[:, keep], batch[keep] + rank), batch[~keep] + rank, comb(c, picks - 1)
            row += c * (c + 1) // 2
            rank += comb(c, picks - 1)


def _eliminate(x: np.ndarray, step) -> np.ndarray:
    """One elimination step of every node of a block: the complements of
    their children, (entries, nodes), from theirs."""
    pivots, rows, row_child, entries, u, v = step
    pivot = x.take(pivots, axis=0)
    # a non-positive pivot fails its child's subtree: NaN compares false
    scale = np.sqrt(np.where(pivot > 0.0, pivot, np.nan))
    r = x.take(rows, axis=0)
    r /= scale.take(row_child, axis=0)
    outer = r.take(u, axis=0)
    outer *= outer if v is None else r.take(v, axis=0)
    out = x.take(entries, axis=0)
    out -= outer
    return out


def _stored(picks: int, c: int) -> int:
    """Entries a node with ``picks`` columns left and c candidates holds."""
    return c * (c + 1) // 2 if picks >= 2 else c


@functools.cache
def _subtree_entries(picks: int, c: int) -> int:
    """Entries held by all descendants of a node with ``picks`` columns left
    and c candidates, its leaves excluded."""
    if picks <= 1:
        return 0
    return sum(_stored(picks - 1, c - 1 - i) + _subtree_entries(picks - 1, c - 1 - i)
               for i in range(c - picks + 1))


def _windows(picks: int, m: int, budget: int) -> list[tuple[int, int]]:
    """Consecutive ranges of a node's first picks (children) whose subtrees
    hold at most ``budget`` entries together, or one child each."""
    if picks == 1:
        return [(0, m)]
    out, first, held = [], 0, 0
    for i in range(m - picks + 1):
        c = m - 1 - i
        size = _stored(picks - 1, c) + _subtree_entries(picks - 1, c)
        if held and held + size > budget:
            out.append((first, i))
            first, held = i, 0
        held += size
    out.append((first, m - picks + 1))
    return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[k] + arange(counts[k]), in the integer
    type of starts and counts (int32 for the index tables of _build_subset_tree)."""
    ends = np.cumsum(counts, dtype=counts.dtype)
    out = np.repeat(starts - (ends - counts), counts)
    out += np.arange(out.size, dtype=out.dtype)
    return out


def _unrank(ranks: np.ndarray, d: int, D: int) -> np.ndarray:
    """The d-subsets of range(D) at the given lexicographic ranks, one row of
    ascending columns each.

    Rank q of T is C(D, d) - 1 minus the colexicographic rank of the mirrored
    set {D - 1 - t : t in T}, sum_k C(y_k, k) over its elements y_1 < ... <
    y_d; that sum is decoded greedily, largest mirrored element (smallest
    column) first.
    """
    rest = comb(D, d) - 1 - ranks
    cols = np.empty((ranks.size, d), dtype=np.intp)
    for i in range(d):
        table = np.array([comb(y, d - i) for y in range(D)], dtype=np.int64)
        y = np.searchsorted(table, rest, side="right") - 1
        rest = rest - table[y]
        cols[:, i] = D - 1 - y
    return cols


def _cover(unit: np.ndarray, tau: float, least: int = 1) -> np.ndarray | None:
    """The cover of the d x D unit copy ``unit`` at the shift tau: 2^D bits,
    bit S (bit S & 7 of byte S >> 3) set when the column set S holds a
    d-subset T whose Gram G[T, T], G = U^T U, passes the packed kernel at
    tau, as the subset scan's walk decides it (_subset_verdicts); None when
    fewer than ``least`` d-subsets pass (by default, when none does).

    The passing subsets are unranked (_unrank) as the walk yields them, at
    most a sixteenth of _CHUNK_ENTRIES columns at a time, so no array holds
    them all. Each sets the bits of its supersets within its byte, the sets
    that differ from it in columns 0-2 only (``up``); then one pass per
    column b >= 3 ORs every byte of sets without b into the byte of the
    same sets with b, in place over strided halves of the bytes, which
    completes the upward closure.
    """
    d, D = unit.shape
    if D < d:
        return None
    low = range(min(8, 1 << D))
    up = np.array([sum(1 << w for w in low if w & v == v) for v in range(8)], dtype=np.uint8)
    cover = np.zeros(max(1, (1 << D) >> 3), dtype=np.uint8)
    per_window = max(1, (_CHUNK_ENTRIES >> 4) // d)
    passed = 0
    for ranks, _ in _subset_verdicts(unit, tau, passing=True):
        passed += ranks.size
        for start in range(0, ranks.size, per_window):
            sets = (1 << _unrank(ranks[start:start + per_window], d, D)).sum(axis=1)
            np.bitwise_or.at(cover, sets >> 3, up[sets & 7])
    if passed < least:
        return None
    for b in range(3, D):
        halves = cover.reshape(-1, 2, 1 << (b - 3))
        halves[:, 1] |= halves[:, 0]
    return cover


def _covered(cover: np.ndarray, start: int, n: int) -> np.ndarray:
    """Whether each of the n column sets start .. start + n - 1 (bitmasks)
    has its bit in the cover."""
    first = start >> 3
    bits = np.unpackbits(cover[first:((start + n - 1) >> 3) + 1], bitorder="little")
    return bits[start - 8 * first:start - 8 * first + n].view(bool)


def _build_subset_tree(picks: int, m: int, first: int, stop: int, depth: int):
    """(steps, peak): index tables for ``depth`` elimination steps below a
    node with ``picks`` columns left among m candidates, whose first step
    takes the children first .. stop - 1, and the most entries per node the
    arrays of one step hold; _subset_tree memoizes it.

    A level is the nodes of one depth below the node in lexicographic order,
    their complements concatenated. A child by candidate i of a node with c
    candidates at offset o reads the pivot at o + rs(i), rs(i) = P(c) - P(c -
    i) being where row i of the packed layout starts (P(c) = c(c + 1) / 2);
    its multipliers r are the rest of row i, and its complement is the
    trailing block after row i, which the packed layout holds contiguously
    as the packed block of c - 1 - i candidates, minus the packed outer
    product of r. A step is (pivots, rows, row_child, entries, u, v): the
    level's entries the pivots and the multipliers are read from, the child
    of each multiplier, and for each entry of the next level the entry it
    updates and the multipliers of its row u and column v; v is None when
    the next level holds diagonals only, where v = u. The tables are int32
    from the start, which halves their memory and that of their build.
    """
    i32 = np.int32
    tri = (np.arange(m + 2) * np.arange(1, m + 3) // 2).astype(i32)
    pair_rows, pair_cols = (a.astype(i32) for a in packed_pairs(m))
    cands, offsets = np.array([m], dtype=i32), np.array([0], dtype=i32)
    node, kids = np.zeros(stop - first, dtype=i32), np.arange(first, stop, dtype=i32)
    steps, peak, held = [], 0, _stored(picks, m)
    for level in range(depth):
        c = cands[node]
        cc = c - 1 - kids
        pivots = offsets[node] + tri[c] - tri[c - kids]
        rows = _ranges(pivots + 1, cc)
        row_start = np.cumsum(cc, dtype=i32) - cc
        row_child = np.repeat(np.arange(cc.size, dtype=i32), cc)
        if picks - level > 2:  # the children keep their full complements
            size = tri[cc]
            entries = _ranges(pivots + cc + 1, size)
            pos = _ranges(tri[m] - size, size)  # the packed pairs of cc as m's tail
            shift = np.repeat(row_start - (m - cc), size)
            u, v = pair_rows[pos], pair_cols[pos]
            u += shift
            v += shift
        else:  # the children keep their diagonals, their leaves' last pivots
            size = cc
            k = _ranges(np.zeros_like(cc), cc)
            entries = np.repeat(pivots + cc + 1 + tri[cc], cc) - tri[np.repeat(cc, cc) - k]
            u, v = np.repeat(row_start, cc) + k, None
        step = (pivots, rows, row_child, entries, u, v)
        for a in step:
            if a is not None:
                a.flags.writeable = False  # shared by the walks that memoize it
        steps.append(step)
        peak = max(peak, held + rows.size + 2 * entries.size)
        held = entries.size
        left = picks - level - 1
        cands, offsets = cc, np.cumsum(size, dtype=i32) - size
        node = np.repeat(np.arange(cc.size, dtype=i32), cc - left + 1)
        kids = _ranges(np.zeros_like(cc), cc - left + 1)
    return steps, max(peak, held)


# the last 16 tables of the walks' roots and expansions, which a run of small
# keys reuses; the settled blocks below the root of a large key each build
# their own (_build_subset_tree), which no later block reads
_subset_tree = functools.lru_cache(maxsize=16)(_build_subset_tree)


# --- the partition walks' blocks ----------------------------------------------

def _fill_grams(grams: np.ndarray, outers: np.ndarray) -> None:
    """Complete a packed (P, 2^n) table of subset Grams from the entry of mask
    0 in column 0, in place: a block of _partition_blocks, whose column m
    holds the block's first mask plus the low bits m.

    Column ``m`` becomes the entry of mask 0 plus the packed outer products
    outers[b] (each of P entries) of the bits b set in ``m``, added highest
    bit first: each entry is the entry without its lowest set bit plus that
    bit's outer product. Bit b is one add over a strided view of the
    contiguous table, whose axes are the packed entries, the bits above b,
    bit b, and the bits below it: the columns with bit b set and no lower
    bit are written from the columns without bit b, filled by the higher bits
    before. The sums and their order are those of filling the columns one at
    a time.
    """
    n, size = len(outers), grams.shape[0]
    for b in range(n - 1, -1, -1):
        g = grams.reshape(size, 1 << (n - 1 - b), 2, 1 << b)
        np.add(g[:, :, 0, 0], outers[b][:, None], out=g[:, :, 1, 0])


# The first block of a partition walk holds this many masks (or the whole
# walk, if smaller); later blocks double up to _SCREEN_ENTRIES. No split's A0
# value exceeds mask 0's, sigma_d(U), as G_I + G_C = G gives sigma_d(U_I)^2 +
# sigma_d(U_C)^2 <= sigma_d(U)^2; so while the A0 screen's running bound is
# still near mask 0's it settles almost nothing, and smaller first blocks
# would only add their fixed cost, some hundred numpy calls each.
_FIRST_BLOCK = 64


class _BlockGrams:
    """Side I's packed Grams of a block of _partition_blocks, formed on
    demand: column m is the Gram of the block's first mask, ``head``, plus
    the outer products ``outers[b]`` of the low bits b set in m, added
    highest bit first.

    The table's buffer is allocated with the block, while the walk still
    holds the block before it, as when every table was filled up front: a
    buffer freed before the next is allocated lets the allocator return
    the pages, and the next block's fill faults them in again. Until it is
    filled no page of it is touched."""

    def __init__(self, head: np.ndarray, outers: np.ndarray):
        self.head, self.outers = head, outers
        self._table = np.empty((head.size, 1 << len(outers)))
        self._filled = False

    def table(self) -> np.ndarray:
        """The contiguous (P, 2^k) table of every column, filled once
        (_fill_grams)."""
        if not self._filled:
            self._table[:, 0] = self.head
            _fill_grams(self._table, self.outers)
            self._filled = True
        return self._table

    def sums(self, rows: np.ndarray) -> np.ndarray:
        """table()[:, rows], with the same bits, each column summed alone,
        without filling the table: head plus outers[b] where bit b is set,
        for b from k - 1 down, the sums and the order _fill_grams makes.
        They are formed one contiguous row per mask, which halves the time
        of the masked adds, and transposed at the end."""
        grams = np.repeat(self.head[None], rows.size, axis=0)
        for b in range(len(self.outers) - 1, -1, -1):
            np.add(grams, self.outers[b], out=grams, where=(rows >> b & 1).astype(bool)[:, None])
        return np.ascontiguousarray(grams.T)


def _block_bits(d: int, D: int) -> int:
    """k of the largest blocks of _partition_blocks, 2^k masks: the most whose
    packed Grams fit _SCREEN_ENTRIES, or the whole walk."""
    return min(D - 1, max(0, (_SCREEN_ENTRIES // (d * (d + 1) // 2)).bit_length() - 1))


def _partition_blocks(a: np.ndarray):
    """Yield ``(masks, grams, full_i, full_c)`` for every canonical mask, in
    blocks of ascending masks.

    ``grams`` (_BlockGrams) gives the packed Grams A[I] A[I]^T (pack) of the
    block's masks, one per column, for the subsets I that avoid the last
    column; ``full_i`` and ``full_c`` mark the sides with at least d
    columns. The complement's Gram is pack(A A^T)[:, None] - gi, which the
    walks form only for the masks whose side C they may read.

    A block is an aligned range of masks [start, start + 2^k), and its Grams
    are one contiguous (P, 2^k) table of its own: column 0 is mask start's
    Gram, its outer products summed highest bit first, and _fill_grams adds
    the k low bits. So every entry is the same sum, in the same order, as in
    a single table over all masks. Blocks double from _FIRST_BLOCK masks to
    the largest power of two whose Grams fit _SCREEN_ENTRIES entries
    (_block_bits). A mask's column count is start's plus a lookup in one
    table over the low bits.
    """
    d, D = a.shape
    bits = D - 1
    rows, cols = packed_pairs(d)
    size = len(rows)
    outers = (a[rows] * a[cols]).T
    top = _block_bits(d, D)
    low_counts = np.zeros(1 << top, dtype=np.int64)
    for b in range(top):
        low_counts[1 << b:2 << b] = low_counts[:1 << b] + 1
    start = 0
    while start < 1 << bits:
        k = min(top, max(_FIRST_BLOCK.bit_length(), start.bit_length()) - 1)
        # mask start's Gram, summed from 0 highest bit first, as _fill_grams sums
        head = sum((outers[b] for b in range(bits - 1, k - 1, -1) if start >> b & 1),
                   np.zeros(size))
        counts = low_counts[:1 << k] + start.bit_count()
        yield (np.arange(start, start + (1 << k)), _BlockGrams(head, outers[:k]),
               counts >= d, D - counts >= d)
        start += 1 << k


def _one_side_settled(gi, total, full_i, full_c, tau):
    """The masks of a block of _partition_blocks with a spanning side that
    passes the packed kernel (_shifted_cholesky_ok_inplace) at the shift
    tau: the partition walks' one-side pass.

    One kernel call factors a copy of the block in which side C's Grams,
    total - gi, replace side I's where only side C spans: each column holds
    side I's Gram where side I spans (``full_i``) and side C's where only it
    does. The verdicts of the masks with no spanning side, which D >= 2d - 1
    rules out, are discarded. A second call factors side C of the masks
    whose two sides span and whose side I failed. The kernel works
    elementwise over the Grams of a call, so each verdict is the one the
    Gram would get alone. At tau = inf no Gram factors, and none is
    factored.
    """
    if tau == np.inf:
        return np.zeros(full_i.size, dtype=bool)
    w = gi.copy()
    np.subtract(total[:, None], gi, out=w, where=full_c & ~full_i)
    ok = (full_i | full_c) & _shifted_cholesky_ok_inplace(w, tau)
    both = np.flatnonzero(full_i & full_c & ~ok)
    if both.size:
        side_c = np.take(gi, both, axis=1)
        ok[both] = _shifted_cholesky_ok_inplace(
            np.subtract(total[:, None], side_c, out=side_c), tau)
    return ok


def _side_singular_values(a: np.ndarray, col_masks: np.ndarray):
    """Yield ``(rows, k, s)`` for the masks of ``col_masks`` that select at
    least d columns of the d x D matrix ``a``: the positions ``rows`` of the
    masks that select k columns, and their singular values (rows.size, d),
    row j being numerics.singular_values of the columns of mask rows[j].

    The masks are taken in chunks of at most _CHUNK_ENTRIES selection
    entries, and the sides of one chunk with one column count k in one
    stacked SVD (numerics.singular_values_many), ascending in k.
    """
    d, D = a.shape
    per_chunk = max(1, _CHUNK_ENTRIES // (d * D))
    for start in range(0, col_masks.size, per_chunk):
        masks = col_masks[start:start + per_chunk]
        member = ((masks[:, None] >> np.arange(D)) & 1).astype(bool)
        sizes = member.sum(axis=1)
        for k in np.flatnonzero(np.bincount(sizes)[d:]) + d:
            rows = np.flatnonzero(sizes == k)
            cols = np.nonzero(member[rows])[1].reshape(-1, k)
            yield start + rows, int(k), numerics.singular_values_many(
                a[:, cols].transpose(1, 0, 2))


# --- the A0 screen -------------------------------------------------------------

def _side_bracket(lam, full, err_lam, err_s):
    """Bracket of sigma_d for sides with Gram eigenvalue ``lam``; 0 where not ``full``."""
    lo = np.maximum(np.sqrt(np.maximum(lam - err_lam, 0.0)) - err_s, 0.0)
    hi = np.sqrt(np.maximum(lam + err_lam, 0.0)) + err_s
    return np.where(full, lo, 0.0), np.where(full, hi, 0.0)


def _screen(unit: UnitCopy) -> tuple[np.ndarray, int, int]:
    """The A0 screen of lipschitz.lower_constant on a key's unit copy: the
    masks that may become the best, ascending, and the numbers of masks
    settled and diagonalized. The brackets are those of the copy 2^-e A,
    with its own B0.

    - Bracket. A side's smallest Gram eigenvalue lambda from eigvalsh equals
      sigma_d(U_S)^2 up to the error of the Gram sums and of eigvalsh, both
      at most err_lam = err_s * d * B0. Widened further by err_s = c * (eps
      * (D + d) * B0 + 2^(-1074 - e)), which covers the error of the
      visit's SVDs of the key, 2^-e times the value the visit computes lies
      in a bracket [lo, hi] per mask (_side_bracket); c is
      GRAM_SCREEN_SLACK. The second term of err_s is the key's subnormal
      spacing, to which a key at subnormal scale rounds its singular values,
      and to which scaling lo back by 2^e rounds it.
    - Kept masks. A mask can become the best only if its value is below
      prev_hi, the smallest hi of the masks before it (infinite for mask 0;
      see lipschitz.lower_constant). Masks with lo >= prev_hi are skipped.
    - Settled masks. The screen walks the masks in the ascending blocks of
      _partition_blocks, aligned power-of-two ranges of masks that start at
      _FIRST_BLOCK masks and double up to the most whose Grams fit
      _SCREEN_ENTRIES, and keeps hi_run, the smallest hi so far, so that
      hi_run at the start of a block is >= prev_hi of every mask in it.
      Each block's Grams are one contiguous table, the same bits as a single
      table over all masks. They are packed upper triangles (pack); side
      C's, U U^T - G_I, is formed for the one-side test below where only
      side C spans or side I does not pass it, and, from one gather of
      their side I's, for the masks that test leaves unsettled. Each mask
      of a block after the first is tested before any eigvalsh, on sides
      that span (_one_side_settled, _unsettled): side I where it spans,
      side C where it spans and side I did not pass, then both where both
      span: shifted_cholesky_ok of a side's Gram G at a
      shift tau proves lambda_min(G) >= tau - delta, with delta of order
      d^2 * eps * B0^2 (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., section 10.1; tau stays near B0^2 or below, as
      hi_run <= hi of mask 0, whose value sigma_d(U) <= B0 bounds every
      partition's); eigvalsh's lambda is within a like amount of
      lambda_min(G), and the two together stay below err_lam. The shifts
      are those at which the bracket algebra gives lo >= hi_run, raised by
      err_lam: one spanning side at (hi_run + 2 err_s)^2 + 2 err_lam, or
      both sides at ((hi_run + err_s) / sqrt(2) + err_s)^2 + 2 err_lam. A
      mask that passes either test would get an eigvalsh bracket with lo >=
      hi_run >= prev_hi, so the rule above skips it, and its hi >= lo
      cannot lower prev_hi for the masks after it. Such a mask is settled
      without a bracket. The other masks are bracketed from eigvalsh of
      their Grams unpacked to full symmetric matrices (unpack), which are
      the Grams' own bits, as U U^T and the outer-product sums are exactly
      symmetric; one stacked eigvalsh per block takes both sides, each row
      with the bits of its matrix alone. So the screen keeps exactly the
      masks the full bracket of every mask would keep; as settling spares
      only masks the rule above skips, the kept masks do not depend on the
      block sizes.
    - Cover. At the first full-size block, where _partition_blocks stops
      doubling, the subset scan's walk (_subset_verdicts) tests the Gram
      G[T, T] of every d-subset T, G = U^T U, at that block's one-side
      shift tau_0, and _cover marks every column set that holds a T that
      passes. From that block on, a mask with a marked side S is settled
      with no Gram and no kernel call. The argument is the one-side
      test's, with T in place of S. The walk gives each subset the
      kernel's verdict bit for bit, and each entry of G is a length-d dot
      product, within the error budget of a side's Gram of up to D outer
      products; so a pass proves sigma_d(U_T)^2 = lambda_min(U_T^T U_T) >=
      tau_0 - err_lam, U_T being d x d. U_S U_S^T is U_T U_T^T plus the
      outer products of the other columns of S, so sigma_d(U_S) >=
      sigma_d(U_T) (the interlacing step of
      frame_keys._subsets_certify_complement), and S's bracket would have
      lo >= hi_run. That holds at every later block too: hi_run never
      rises, so the later shifts are at most tau_0, and a side shown above
      tau_0 - err_lam is above each of them less err_lam. The masks with no
      marked side, the open ones, get side I's Grams, the table's bits,
      each summed alone, and the one-side, both-sides and eigvalsh steps
      above (_open_unsettled); a block the cover leaves more than half
      open is walked whole, as without a cover. A passing T lies in a side
      of at most 2^(D-d) of the 2^(D-1) masks, so p passing subsets settle
      at most a share 2p / 2^d of them, a bound that counts a mask once
      per passing subset in its sides. The cover is built only when that
      bound reaches 1, p >= 2^(d-1): at 8x24 (keygen seed 1) 65 subsets
      pass, the bound is 0.51, and the cover settles a median 12.5% of a
      block, which pays for neither it nor its lookups, while the keys
      whose covers pay, from 4x16 to 12x23, have bounds of 15 to 550.
      Without a cover every block is walked as above; so is every block
      before the first full-size one, whose shift is not yet known. The
      cover settles only masks the bracket rule skips, so the kept masks
      are those above; it moves the settled and diagonalized counts only
      where a side's Gram and a subset's round to opposite sides of a
      shift.
    - Stop. When D <= 2d - 2, some masks have no side of d columns, the
      first being 2^(D-d+1) - 1, the first with D - d + 1 columns (mask 0
      when D < d). Such a mask has the value 0 and lo = 0 < prev_hi, and no
      test settles it, so it is kept; once the visit reaches it, no later
      mask can become the best. The walk stops after the block that holds
      the first such mask, so settled + diagonalized counts the masks up to
      the end of that block, fewer than 2^(D-1) unless it is the last.
    """
    err_s, err_lam = unit.err_s, unit.err_lam
    d, D = unit.matrix.shape
    kept = []
    hi_run = np.inf
    settled = diagonalized = 0
    cover, largest = None, 1 << _block_bits(d, D)
    for block, grams, full_i, full_c in _partition_blocks(unit.matrix):
        if block.size == largest:  # the first full-size block: see Cover above
            largest = 0
            if hi_run < np.inf:
                cover = _cover(unit.matrix, _one_side_shift(hi_run, err_s, err_lam),
                               least=1 << (d - 1))
        if cover is None:
            rows, gu, gc = _unsettled(grams.table(), unit.gram, full_i, full_c, hi_run,
                                      err_s, err_lam)
        else:
            rows, gu, gc = _open_unsettled(cover, block, grams, unit, full_i, full_c, hi_run)
        settled += block.size - rows.size
        if not rows.size:
            continue  # hi_run stays, and no mask is kept
        diagonalized += rows.size
        # both sides' Grams in one eigvalsh: side I's where it spans, then
        # side C's
        full = np.stack((full_i[rows], full_c[rows]))
        lam = np.zeros(full.shape)
        lam[full] = np.linalg.eigvalsh(unpack(np.concatenate(
            (gu[:, full[0]], gc[:, full[1]]), axis=1)))[:, 0]
        lo, hi = _side_bracket(lam, full, err_lam, err_s)
        lo = np.maximum(np.hypot(*lo) - err_s, 0.0)
        hi = np.hypot(*hi) + err_s
        prev_hi = np.minimum.accumulate(np.concatenate(([hi_run], hi)))
        hi_run = prev_hi[-1]
        kept.append(block[rows[lo < prev_hi[:-1]]])
        if not (full_i | full_c).all():
            break  # a mask with no side of d columns, kept: see Stop above
    return np.concatenate(kept), settled, diagonalized


def _open_unsettled(cover, block, grams, unit, full_i, full_c, hi_run):
    """_unsettled's (rows, gu, gc) for a block of the A0 screen walked with a
    cover (see _screen): the masks with a side in the cover are settled,
    and only the open ones, with neither side in it, get Grams, each summed
    alone with the table's bits (_BlockGrams.sums), and the tests. Summing
    a mask alone costs about twice its share of filling the table and
    testing it (blocks of 8x24, 10x22 and 12x23 keys, whose covers leave
    from 5% to 95% of a block open, timed both ways: the two break even at
    45-50% open), so a block the cover leaves more than half open is
    walked whole, as without a cover, from its table, and the tests settle
    its covered masks again.
    """
    start, n = int(block[0]), block.size
    last = (1 << unit.matrix.shape[1]) - 1 - (start + n - 1)  # side C of the block's last mask
    rows = np.flatnonzero(~(_covered(cover, start, n) | _covered(cover, last, n)[::-1]))
    if 2 * rows.size > n:
        return _unsettled(grams.table(), unit.gram, full_i, full_c, hi_run, unit.err_s,
                          unit.err_lam)
    if not rows.size:
        return rows, None, None
    part, gu, gc = _unsettled(grams.sums(rows), unit.gram, full_i[rows], full_c[rows], hi_run,
                              unit.err_s, unit.err_lam)
    return rows[part], gu, gc


def _one_side_shift(hi_run: float, err_s: float, err_lam: float) -> float:
    """The shift at which one side's Gram that factors settles a mask (see
    _screen): (hi_run + 2 err_s)^2 + 2 err_lam."""
    return (hi_run + 2.0 * err_s) ** 2 + 2.0 * err_lam


def _unsettled(gi, total, full_i, full_c, hi_run, err_s, err_lam):
    """(rows, gu, gc): the masks ``rows`` of a block whose bracket the tests
    below cannot show to have lo >= hi_run (see _screen), and their packed
    Grams of side I, ``gu`` = gi[:, rows], and of side C, ``gc`` = total -
    gu, which the both-sides test and the brackets read.

    A mask is settled when a spanning side passes the one-side test
    (_one_side_settled), or both sides span and pass the both-sides test:
    one more call of the packed kernel (_shifted_cholesky_ok_inplace), on
    the Grams of both sides of the masks the one-side test left where both
    span. The kernel works elementwise over the Grams of a call, so each
    Gram's verdict is the one it would get alone, whatever else shares the
    call and in whichever order the calls run: each mask gets the boolean
    of the rule above. At hi_run = inf both shifts are infinite: no mask is
    settled and no test runs.
    """
    one_side = _one_side_shift(hi_run, err_s, err_lam)
    rows = np.flatnonzero(~_one_side_settled(gi, total, full_i, full_c, one_side))
    gu = np.take(gi, rows, axis=1)
    gc = total[:, None] - gu
    both = np.flatnonzero(full_i[rows] & full_c[rows])
    if hi_run < np.inf and both.size:
        both_sides = ((hi_run + err_s) / np.sqrt(2.0) + err_s) ** 2 + 2.0 * err_lam
        passed = _shifted_cholesky_ok_inplace(
            np.concatenate((gu[:, both], gc[:, both]), axis=1), both_sides)
        keep = np.ones(rows.size, dtype=bool)
        keep[both] = ~(passed[:both.size] & passed[both.size:])
        rows, gu, gc = rows[keep], gu[:, keep], gc[:, keep]
    return rows, gu, gc
