"""Keys (frames given by the columns of a d x D matrix), their analysis and
synthesis operators, and the injectivity certificates.

Three certificates are exposed: full spark (every d-subset of columns is
independent), the complement property (every column split leaves one spanning
side), and the derived phase-retrievable / universal-key verdicts. When
D = 2d - 1 the first two are equivalent and the code cross-checks them
against each other, refusing to return silently inconsistent answers.

Two exhaustive scans back them, each run at most once per key:

- The subset scan (subset_scan) ranks the C(D, d) d-column submatrices.
  A shifted Cholesky factorization of each subset's d x d Gram in U^T U,
  U = 2^-e A being the key's unit copy (_unit), places almost every
  subset's sigma_d above the certificate margin; only the others get a
  stacked SVD of the key, so the verdict and witness are those of an SVD
  of every subset. The factorizations share their prefixes: a walk of the
  lexicographic prefix tree of the subsets (_unsettled_subsets) does each
  elimination step once per prefix, for all subsets that start with it,
  with the operations the packed kernel does on each subset's Gram. Full
  spark reads its verdict from it. It also certifies the complement
  property outright when D >= 2d - 1 and every d-subset has rank d with a
  margin: a full-spark frame with D >= 2d - 1 has the complement property
  (Balan, Casazza and Edidin, "On signal reconstruction without phase",
  ACHA 2006), and the margin makes the floating-point verdict the same.
- The complement walk (_complement_walk) visits the 2^(D-1) column
  partitions in ascending blocks and stops at the first violating split. A
  side spans when numerics.rank's criterion gives it rank d; the subset
  scan's shifted-Cholesky test, at the same margin shift (_margin_shift),
  settles most spanning sides from their Grams, and numerics.rank decides
  the rest, so the verdict and witness are those of the rank of every side.
  The complement property falls back to the walk when the subset certificate
  does not apply, and it is the only source of a false verdict and its
  witness.

The lower Lipschitz constant A0 (lipschitz.lower_constant) walks the same
ascending blocks (_partition_blocks) with its own Cholesky screen, which
shares the walk's one-side pass (_one_side_settled) at its own shift, and
diagonalizes only the partitions that screen cannot rule out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import numerics
from .errors import (
    DimensionError,
    InternalInconsistency,
    NotAFrame,
    SearchTooLarge,
)
from .numerics import DEFAULT_TOL, ToleranceConfig, as_matrix, as_stack, as_vector

# Exhaustive-search refusal caps. Beyond these the operations raise
# SearchTooLarge instead of degrading to sampling.
COMPLEMENT_MAX_COLS = 24
FULL_SPARK_MAX_SUBSETS = 5_000_000

# Batched kernels work on at most this many stacked matrix entries at a time
# (memory, not correctness): partition Grams are built, and column subsets
# ranked, one chunk at a time.
_CHUNK_ENTRIES = 1 << 20

# Gram entries per block of the partition walks, which bounds their memory; a
# block holds at most this many entries of each side's Grams.
_SCREEN_ENTRIES = 1 << 16


@dataclass(eq=False, frozen=True)
class Key:
    """A d x D key matrix whose columns are the frame vectors.

    The matrix is copied and frozen on construction; certificate results are
    memoized per instance, which is safe because the instance is immutable.
    """

    matrix: np.ndarray
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self):
        m = as_matrix(self.matrix).copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_cache", {})

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def D(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class Partition:
    """A subset I of the column indices {1..D}, stored as a bitmask.

    Bit k-1 of ``mask`` is set iff column k belongs to I.
    """

    mask: int
    size: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.size):
            raise ValueError("mask out of range for partition size")

    def indices(self) -> tuple[int, ...]:
        """Members of I as sorted 1-based column indices."""
        return tuple(k + 1 for k in range(self.size) if self.mask >> k & 1)

    def complement(self) -> "Partition":
        return Partition(((1 << self.size) - 1) ^ self.mask, self.size)

    def canonical(self) -> "Partition":
        """Of {I, I^c} return the one with the smaller mask."""
        comp = self.complement()
        return self if self.mask <= comp.mask else comp

    def column_indices0(self) -> list[int]:
        """Members of I as 0-based column positions."""
        return [k for k in range(self.size) if self.mask >> k & 1]


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a certificate check.

    ``witness`` is the violating object (a Partition or a tuple of 1-based
    column indices) and is present exactly when the verdict is false.
    """

    verdict: bool
    witness: object
    method: str

    def __post_init__(self):
        if self.verdict and self.witness is not None:
            raise ValueError("a true verdict must not carry a witness")
        if not self.verdict and self.witness is None:
            raise ValueError("a false verdict must carry a witness")


def generate_key(d: int, D: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL) -> Key:
    """Random key with i.i.d. standard normal entries.

    PRNG: numpy PCG64 seeded with ``seed``; the d x D block is drawn in a
    single row-major standard_normal call, so identical (d, D, seed) always
    reproduce the identical key bit for bit.
    """
    if d < 1 or D < 1:
        raise ValueError("d and D must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    return Key(rng.standard_normal((d, D)), tol)


def analysis(key: Key, x) -> np.ndarray:
    """Apply the analysis operator: the vector of inner products A^T x."""
    return analysis_many(key, as_vector(x)[None])[0]


def analysis_many(key: Key, xs) -> np.ndarray:
    """A^T x for every row x of an (m, d) stack, as an (m, D) stack.

    One stacked matrix-vector product, so row i has the bits of
    analysis(key, xs[i]). The stack is made contiguous first: BLAS takes
    another path for strided vectors, so the bits would otherwise depend on
    the memory layout of the input.
    """
    x = np.ascontiguousarray(as_stack(xs, 2))
    if x.shape[1] != key.d:
        raise DimensionError(f"signal has length {x.shape[1]}, key expects {key.d}")
    return (key.matrix.T @ x[:, :, None])[:, :, 0]


def synthesis_left_inverse(key: Key, y) -> np.ndarray:
    """Left inverse of the analysis operator (pseudoinverse application).

    Returns the minimum-norm least-squares solution of A^T x = y, which
    recovers x exactly from analysis(key, x) whenever the key has rank d.
    """
    return synthesis_left_inverse_many(key, as_vector(y)[None])[0]


def synthesis_left_inverse_many(key: Key, ys) -> np.ndarray:
    """synthesis_left_inverse of every row of an (m, D) stack, as (m, d).

    The frame check (a rank SVD) runs once per key. All rows are solved by
    one least-squares call; a batch of one keeps the bits of the vector
    solve, larger batches may differ from it in the last bits.
    """
    y = as_stack(ys, 2)
    if y.shape[1] != key.D:
        raise DimensionError(f"coefficients have length {y.shape[1]}, key expects {key.D}")
    if not _cached(key, "frame", lambda: numerics.rank(key.matrix, key.tol) == key.d):
        raise NotAFrame("key matrix is rank deficient; columns do not span")
    return numerics.least_squares(key.matrix.T, y.T).T


def _cached(key: Key, name: str, compute):
    cache = getattr(key, "_cache")
    if name not in cache:
        cache[name] = compute()
    return cache[name]


def is_full_spark(key: Key) -> CertificateReport:
    """Check that every d-subset of columns has rank d (exhaustive).

    The witness is the first rank-deficient subset in lexicographic column
    order, reported as 1-based indices.
    """
    return _cached(key, "full_spark", lambda: _full_spark(key))


def _full_spark(key: Key) -> CertificateReport:
    scan = subset_scan(key)
    return CertificateReport(scan.deficient is None, scan.deficient, "exhaustive-d-subsets")


@dataclass(frozen=True, eq=False)
class SubsetScan:
    """d-subsets of columns ranked in lexicographic order, with the work done.

    ``deficient`` is the first subset (1-based column indices) that
    numerics.rank's criterion finds rank deficient, or None when there is
    none; the scan stops at the chunk that holds it. ``clears_margin`` is
    whether sigma_d(A_T), as the SVD computes it, is above the complement
    certificate's margin (_certificate_margin) for every d-subset T; it is
    false when a subset is deficient. Of the subsets ranked, ``settled`` were
    shown above the margin by a shifted-Cholesky test of their Gram in the
    key's unit copy (_unit), and ``decomposed`` got an SVD. The key times a
    power of two that holds it exactly has the same unit copy, so the same
    subsets are settled, away from subnormal scale.
    """

    deficient: tuple[int, ...] | None
    clears_margin: bool
    settled: int
    decomposed: int


def subset_scan(key: Key) -> SubsetScan:
    """Rank every d-column submatrix, chunk by chunk (memoized).

    The verdict, the first deficient subset and clears_margin are those of
    an SVD of every subset of the key; only the subsets a shifted-Cholesky
    test of their Gram cannot place above the margin M get one. The test
    reads the unit copy U = 2^-e A (_unit), whose largest entry lies in
    [1/2, 1), so no Gram entry or shift can overflow, at any scale of the key:

    - Shift. With b = sigma_1(U) as numerics.sigma_k computes it and M_u the
      margin computed from b, the test runs at tau = (M_u + err_s)^2 +
      err_lam (_margin_shift), where err_s = c * (eps * (D + d) * b +
      2^(-1074 - e)) and err_lam = err_s * d * b are
      numerics._gram_screen_errors' allowances, c being
      numerics.GRAM_SCREEN_SLACK.
    - Gram entries. G = U^T U is formed once, and the test reads the
      entries of the subset Gram G[T, T] from it, so each entry is a
      length-d dot product of two columns, within gamma_d * b^2 of the
      exact one (a column's norm is at most sigma_1(U)) plus what underflow
      loses, at most d subnormal spacings 2^-1074, and G[T, T] within d
      times that in the 2-norm.
    - Cholesky. The walk of the prefix tree of the subsets
      (_unsettled_subsets) does, for every subset, the operations of
      numerics.shifted_cholesky_ok on G[T, T], in the kernel's order, once
      per prefix; so each subset gets the kernel's verdict bit for bit, and
      this argument is the kernel's. Its succeeding proves
      lambda_min(G[T, T]) >= tau - delta, with delta the factorization's
      backward error (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., section 10.1) plus the rounding of the shifted
      diagonal: at most about (d + 1)^2 * eps * max(||G[T, T]||, tau). A
      first pivot G_11 - tau > 0 means tau < ||G[T, T]|| <= b^2 (1 + d *
      gamma_d), so delta is about (d + 1)^2 * eps * b^2. With the entry
      error this is far below err_lam >= 2 * c * eps * d^2 * b^2, which
      also covers the few ulps by which b may differ from the exact
      sigma_1(U).
    - SVD. The exact sigma_d(U_T)^2 is lambda_min of the exact Gram, hence
      above tau - err_lam = (M_u + err_s)^2, and the exact sigma_d(A_T) is
      2^e times sigma_d(U_T). The SVD of the key's A_T computes it within a
      modest multiple of eps * ||A_T|| <= eps * 2^e * b, plus, for a key at
      subnormal scale, a few of the key's subnormal spacings 2^-1074, to
      which LAPACK rounds its rescaled results; the same holds for the M that
      the key's sigma_1(A) gives against 2^e * M_u. In units of the copy both
      are far below err_s, whose second term is that spacing. So the
      computed sigma_d(A_T) is above M.

    M is at least numerics.rank's cutoff for a d x d subset (D >= d, and M
    has a factor of 16 over it), so a settled subset is neither deficient
    nor below the margin; the others get the stacked SVD of the key, in
    lexicographic order, and numerics.rank's criterion.
    """
    return _cached(key, "subset_scan", lambda: _subset_scan(key))


def _subset_scan(key: Key) -> SubsetScan:
    d, D = key.d, key.D
    if D < d:
        # fewer than d columns can never span
        return SubsetScan(tuple(range(1, D + 1)), False, 0, 0)
    total = comb(D, d)
    if total > FULL_SPARK_MAX_SUBSETS:
        raise SearchTooLarge(
            f"C({D},{d}) = {total} exceeds the cap of {FULL_SPARK_MAX_SUBSETS}"
        )
    margin, tau = _margin_shift(key)
    starts, counts = _unsettled_subsets(key, tau)
    ends = starts + counts
    per_chunk = max(1, _CHUNK_ENTRIES // (d * d))
    clears_margin = True
    decomposed = ranked = k = 0
    while k < starts.size:
        # the unsettled subsets of the next chunk of per_chunk lexicographic
        # ranks that holds any: ranges k .. j - 1, less what earlier chunks took
        lowest = max(int(starts[k]), ranked)
        ranked = (lowest // per_chunk + 1) * per_chunk
        j = int(np.searchsorted(starts, ranked))
        lo = np.maximum(starts[k:j], lowest)
        cols = _unrank(_ranges(lo, np.minimum(ends[k:j], ranked) - lo), d, D)
        decomposed += len(cols)
        s = numerics.singular_values_many(key.matrix[:, cols].transpose(1, 0, 2))
        clears_margin &= bool(s[:, d - 1].min() > margin)
        deficient = numerics.ranks_from_singular_values(s, d, key.tol) < d
        if deficient.any():
            first = cols[int(np.argmax(deficient))]
            return SubsetScan(tuple(int(c) + 1 for c in first), False,
                              min(ranked, total) - decomposed, decomposed)
        k = j - 1 if ends[j - 1] > ranked else j
    return SubsetScan(None, clears_margin, total - decomposed, decomposed)


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


def _unsettled_subsets(key: Key, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(starts, counts): the lexicographic ranks of the d-subsets T whose Gram
    G[T, T] of the unit copy U (_unit), G = U^T U, fails
    numerics.shifted_cholesky_ok at the shift tau, as ascending disjoint
    ranges starts[k] .. starts[k] + counts[k] - 1.

    The d-subsets are the leaves of the prefix tree whose node at depth k is
    a k-prefix t_0 < ... < t_(k-1) of them. A node holds the Schur complement
    of its prefix in G - tau * I over the candidate columns after t_(k-1):
    the shifted entries minus r_j[u] * r_j[v] for ascending j < k, r_j being
    row t_j of the complement at depth j divided by the square root of its
    pivot. These are the values, and the order of operations, of the packed
    kernel (numerics._shifted_cholesky_ok_inplace) on each leaf's gathered
    Gram, so every leaf gets the kernel's verdict bit for bit: it factors
    when every pivot along its path is positive. A node with a non-positive
    pivot passes NaN to its subtree, so all of its leaves fail, as the
    kernel's do; an expansion (below) drops such a node instead, and its
    leaves, consecutive ranks, become one range. A node with one pick left
    keeps only the diagonal of its complement, which holds its leaves' last
    pivots.

    The walk goes by depth. The nodes of one depth with the same last column
    share their candidates, so they form one block, one (entries, nodes)
    array in the packed layout, and each block is either expanded by one
    elimination step into the blocks of the next depth or, once its subtrees
    are small (_subtree_entries), settled down to its leaves, both by
    gathers through index tables that depend only on the block's shape
    (_subset_tree). So the number of numpy calls grows with d * D, not with
    the number of subsets. The arrays of one step hold at most a quarter of
    _CHUNK_ENTRIES entries together (a block's nodes are taken in batches),
    and an index table at most _CHUNK_ENTRIES / 16 (a settled block's
    subtrees are taken in windows of their first picks), unless a single
    node or a single first pick needs more. Each node carries the rank of
    its first leaf.
    """
    d, D = key.d, key.D
    budget = _CHUNK_ENTRIES >> 4
    unit = _unit(key)[0]
    gram = unit.T @ unit
    if d == 1:
        root = np.diagonal(gram) - tau
    else:
        root = numerics.pack(gram)
        root[list(numerics._row_starts(D)[:-1])] -= tau
    # blocks by last column, -1 for the root: (complements, first-leaf ranks)
    blocks = {-1: (root[:, None], np.zeros(1, dtype=np.int64))}
    unsettled = [(np.zeros(0, dtype=np.int64), 1)]  # (range starts, range length)
    for depth in range(d):
        picks = d - depth
        children = {}
        for last, (w, ranks) in blocks.items():
            m = D - 1 - last
            # expanding a block with three picks left would hold about m^3 / 6
            # entries a node, more than its leaves for a key of many columns
            if picks <= 3 or _subtree_entries(picks, m) <= budget:
                unsettled += [(r, 1) for r in _settle_block(w, ranks, picks, m, budget)]
                continue
            for i, part, failed, leaves in _expand_block(w, ranks, picks, m):
                children.setdefault(last + 1 + i, []).append(part)
                unsettled.append((failed, leaves))
        blocks = {last: tuple(np.concatenate(a, axis=-1) for a in zip(*parts))
                  for last, parts in children.items()}
    starts = np.concatenate([r for r, _ in unsettled])
    counts = np.concatenate([np.full(r.size, n, dtype=np.int64) for r, n in unsettled])
    order = np.argsort(starts)
    return starts[order], counts[order]


def _settle_block(w: np.ndarray, ranks: np.ndarray, picks: int, m: int,
                  budget: int) -> list[np.ndarray]:
    """The ranks of the leaves that fail, for a block of nodes with ``picks``
    columns left to choose among ``m`` candidates (complements ``w``, first
    leaves ``ranks``)."""
    out = []
    for first, stop in _windows(picks, m, budget):
        steps, peak = _subset_tree(picks, m, first, stop, picks - 1)
        offset = sum(comb(m - 1 - i, picks - 1) for i in range(first))
        per_batch = max(1, _CHUNK_ENTRIES // (4 * peak))
        for start in range(0, w.shape[1], per_batch):
            x = w[:, start:start + per_batch]
            for step in steps:
                x = _eliminate(x, step)
            leaf, node = np.nonzero(~(x > 0.0))
            out.append(ranks[start + node] + (offset + leaf))
    return out


def _expand_block(w: np.ndarray, ranks: np.ndarray, picks: int, m: int):
    """Yield ``(i, (complements, ranks), failed, leaves)`` for the children
    of a block's nodes by their i-th candidate, one elimination step down, a
    batch of nodes at a time: the complements and first-leaf ranks of the
    children whose pivot is positive, and the first-leaf ranks of the
    others, whose ``leaves`` leaves all fail."""
    (step,), peak = _subset_tree(picks, m, 0, m - picks + 1, 1)
    per_batch = max(1, _CHUNK_ENTRIES // (4 * peak))
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
    """The concatenated ranges starts[k] + arange(counts[k])."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - (ends - counts), counts)


# the last 16 tables: every shape of a run of small keys, while a large key,
# whose blocks each build their own, does not keep them all
@functools.lru_cache(maxsize=16)
def _subset_tree(picks: int, m: int, first: int, stop: int, depth: int):
    """(steps, peak): index tables for ``depth`` elimination steps below a
    node with ``picks`` columns left among m candidates, whose first step
    takes the children first .. stop - 1, and the most entries per node the
    arrays of one step hold (memoized).

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
    the next level holds diagonals only, where v = u.
    """
    tri = np.arange(m + 2) * np.arange(1, m + 3) // 2
    pair_rows, pair_cols = numerics.packed_pairs(m)
    cands, offsets = np.array([m]), np.array([0])
    node, kids = np.zeros(stop - first, dtype=np.intp), np.arange(first, stop)
    steps, peak, held = [], 0, _stored(picks, m)
    for level in range(depth):
        c = cands[node]
        cc = c - 1 - kids
        pivots = offsets[node] + tri[c] - tri[c - kids]
        rows = _ranges(pivots + 1, cc)
        row_start = np.cumsum(cc) - cc
        row_child = np.repeat(np.arange(cc.size), cc)
        if picks - level > 2:  # the children keep their full complements
            size = tri[cc]
            entries = _ranges(pivots + cc + 1, size)
            pos = _ranges(tri[m] - size, size)  # the packed pairs of cc as m's tail
            shift = np.repeat(row_start - (m - cc), size)
            u, v = pair_rows[pos] + shift, pair_cols[pos] + shift
        else:  # the children keep their diagonals, their leaves' last pivots
            size = cc
            k = _ranges(np.zeros_like(cc), cc)
            entries = np.repeat(pivots + cc + 1 + tri[cc], cc) - tri[np.repeat(cc, cc) - k]
            u, v = np.repeat(row_start, cc) + k, None
        # int32 halves the memory of the cached tables, which are read-only
        step = tuple(None if a is None else a.astype(np.int32)
                     for a in (pivots, rows, row_child, entries, u, v))
        for a in step:
            if a is not None:
                a.flags.writeable = False
        steps.append(step)
        peak = max(peak, held + rows.size + 2 * entries.size)
        held = entries.size
        left = picks - level - 1
        cands, offsets = cc, np.cumsum(size) - size
        node = np.repeat(np.arange(cc.size), cc - left + 1)
        kids = _ranges(np.zeros_like(cc), cc - left + 1)
    return steps, max(peak, held)


def _fill_grams(grams: np.ndarray, outers: np.ndarray) -> None:
    """Complete a packed (P, 2^n) table of subset Grams from the entry of mask
    0 in column 0, in place.

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


def _partition_blocks(a: np.ndarray):
    """Yield ``(masks, gi, full_i, full_c)`` for every canonical mask, in
    blocks of ascending masks.

    ``gi`` holds the packed Grams A[I] A[I]^T (numerics.pack) of the block's
    masks, one per column, for the subsets I that avoid the last column;
    ``full_i`` and ``full_c`` mark the sides with at least d columns. The
    complement's Gram is pack(A A^T)[:, None] - gi, which the walks form only
    for the masks whose side C they read. The masks [0, 2^(D-1)) are split
    into a high prefix and the low bits that fit one chunk of at most
    _CHUNK_ENTRIES entries. The prefix Grams and then each chunk are
    completed by the same lowest-bit recurrence, one add over a strided view
    per bit (_fill_grams), so every entry is the same sum, in the same order,
    as in a single table over all masks. A mask's column count is a lookup in
    one table over the low bits plus its prefix's count. Blocks double from
    _FIRST_BLOCK masks up to _SCREEN_ENTRIES Gram entries per side.
    """
    d, D = a.shape
    bits = D - 1
    rows, cols = numerics.packed_pairs(d)
    size = len(rows)
    low = min(bits, max(0, (_CHUNK_ENTRIES // size).bit_length() - 1))
    outers = (a[rows] * a[cols]).T
    seeds = np.zeros((size, 1 << (bits - low)))
    _fill_grams(seeds, outers[low:bits])
    low_counts = np.zeros(1 << low, dtype=np.int64)
    for b in range(low):
        low_counts[1 << b:2 << b] = low_counts[:1 << b] + 1
    per_block = max(1, _SCREEN_ENTRIES // size)
    for prefix in range(seeds.shape[1]):
        # the chunk holds masks first .. stop - 1, mask m in column m - first
        first, stop = prefix << low, (prefix + 1) << low
        grams = np.empty((size, 1 << low))
        grams[:, 0] = seeds[:, prefix]
        _fill_grams(grams, outers[:low])
        start = first
        while start < stop:
            end = min(stop, start + per_block, max(_FIRST_BLOCK, 2 * start))
            counts = low_counts[start - first:end - first] + prefix.bit_count()
            yield (np.arange(start, end), grams[:, start - first:end - first],
                   counts >= d, D - counts >= d)
            start = end


def _one_side_settled(gi, total, full_i, full_c, tau):
    """(ok, rows_c, gc): the partition walks' one-side pass of the packed
    kernel (numerics._shifted_cholesky_ok_inplace) over a block of
    _partition_blocks at the shift tau.

    Side I is factored where it spans (``full_i``), then side C where it
    spans and side I did not factor; ``ok`` marks the masks with a side that
    factored. ``gc`` holds the packed complement Grams total - gi of the
    masks ``rows_c``, those whose side C spans and whose side I did not
    factor, unfactored. Side I's Grams are gathered from the block, unless
    at least seven eighths of them span: a gather then costs more than the
    contiguous copy of the whole block, whose extra verdicts are discarded.
    At tau = inf no Gram factors, and none is factored.
    """
    ok = np.zeros(full_i.size, dtype=bool)
    finite = tau < np.inf
    if finite:
        rows_i = np.flatnonzero(full_i)
        if 8 * rows_i.size >= 7 * full_i.size:
            ok = full_i & numerics._shifted_cholesky_ok_inplace(gi.copy(), tau)
        else:
            ok[rows_i] = numerics._shifted_cholesky_ok_inplace(np.take(gi, rows_i, axis=1), tau)
    rows_c = np.flatnonzero(full_c & ~ok)
    gc = total[:, None] - np.take(gi, rows_c, axis=1)
    if finite:
        ok[rows_c] = numerics._shifted_cholesky_ok_inplace(gc.copy(), tau)
    return ok, rows_c, gc


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


def _rank_d(key: Key, col_masks: np.ndarray) -> np.ndarray:
    """Whether the columns selected by each mask have rank d (numerics.rank's
    criterion); a side with fewer than d columns never does."""
    full = np.zeros(col_masks.shape, dtype=bool)
    for rows, k, s in _side_singular_values(key.matrix, col_masks):
        full[rows] = numerics.ranks_from_singular_values(s, k, key.tol) == key.d
    return full


def has_complement_property(key: Key) -> CertificateReport:
    """Check that every column split leaves at least one rank-d side.

    The verdict is that of examining all 2^(D-1) unordered partitions; the
    witness is the violating partition with the smallest canonical mask. The
    complement walk (_complement_walk) runs only when the subset certificate
    (_subsets_certify_complement) does not already settle a true verdict, and
    stops at the witness.
    """
    return _cached(key, "complement", lambda: _complement_property(key))


def _complement_property(key: Key) -> CertificateReport:
    if key.D > COMPLEMENT_MAX_COLS:
        raise SearchTooLarge(
            f"complement-property search is capped at D <= {COMPLEMENT_MAX_COLS}, got {key.D}"
        )
    witness = None if _subsets_certify_complement(key) else _complement_walk(key)
    return CertificateReport(witness is None, witness, "exhaustive-partitions")


def _complement_walk(key: Key) -> Partition | None:
    """The violating partition with the smallest canonical mask, or None.

    A side spans when numerics.rank's criterion gives it rank d. The walk
    visits the masks in _partition_blocks' ascending blocks and stops at the
    first block that holds a partition with no spanning side. Most spanning
    sides are settled from their packed Grams by the shifted-Cholesky test
    (numerics.shifted_cholesky_ok, one kernel call per side and block) at the
    subset scan's shift tau = (M_u + err_s)^2 + err_lam (_margin_shift), in
    _one_side_settled's pass, which lipschitz's A0 screen shares: side I
    where it spans, then side C where it spans and side I did not settle the
    split, its Gram U U^T - G_I formed for those masks only. The partitions
    with no settled side are decided by numerics.rank's criterion (_rank_d),
    side I first.

    The Grams are those of the key's unit copy U = 2^-e A (_unit). A side S
    that factors has rank d, by subset_scan's argument with U_S and A_S in
    place of U_T and A_T. Its Gram is a sum of at most D outer products, or
    U U^T minus one, so it is within a small multiple of eps * D * d * b^2
    of the exact U_S U_S^T in the 2-norm (b = sigma_1(U) bounds every row
    norm); with the factorization's backward error this is below err_lam,
    so the exact sigma_d(U_S) is above M_u + err_s, and the computed
    sigma_d(A_S) of the key above M. And M has a factor of 16 over
    numerics.rank's cutoff for A_S, rank_tol_factor * max(d, |S|) *
    sigma_1(A_S), which is at most rank_tol_factor * D * sigma_1(A) up to
    rounding. So the verdict and the witness are those of numerics.rank on
    both sides of every partition, which _rank_d computes on the key.
    """
    D = key.D
    _, tau = _margin_shift(key)
    unit = _unit(key)[0]
    total = numerics.pack(unit @ unit.T)
    for masks, gi, full_i, full_c in _partition_blocks(unit):
        settled = _one_side_settled(gi, total, full_i, full_c, tau)[0]
        rest = masks[~settled]
        ok = _rank_d(key, rest)
        ok[~ok] = _rank_d(key, ((1 << D) - 1) ^ rest[~ok])
        if not ok.all():
            return Partition(int(rest[np.argmin(ok)]), D)
    return None


# Margin of the subset certificate over the rank cutoff it relies on. The
# cutoff factor is taken as at least _SUBSET_CERT_FLOOR, far above the
# rounding of an SVD (a modest multiple of eps * sigma_1), so that the
# margin holds in floating point even for a key with a tinier tolerance.
_SUBSET_CERT_MARGIN = 16.0
_SUBSET_CERT_FLOOR = 1e-12


def _certificate_margin(key: Key, sigma_1: float) -> float:
    """The bound every sigma_d(A_T) must exceed for the subset certificate."""
    factor = max(key.tol.rank_tol_factor, _SUBSET_CERT_FLOOR)
    return _SUBSET_CERT_MARGIN * factor * key.D * sigma_1


def _margin_shift(key: Key) -> tuple[float, float]:
    """(M, tau): the key's certificate margin M, and the shift at which a Gram
    of the unit copy (_unit) that factors shows the key's sigma_d of the same
    columns above M (see subset_scan)."""
    unit, e = _unit(key)
    sigma_1 = numerics.sigma_k(unit, 1)
    unit_margin = _certificate_margin(key, sigma_1)
    err_s, err_lam = numerics._gram_screen_errors(sigma_1, key.d, key.D, e)
    tau = (unit_margin + err_s) * (unit_margin + err_s) + err_lam
    return _certificate_margin(key, numerics.sigma_k(key.matrix, 1)), tau


def _unit(key: Key) -> tuple[np.ndarray, int]:
    """(2^-e A, e), e being the np.frexp exponent of the key's largest |entry|
    (memoized). The copy's largest entry lies in [1/2, 1), so its Gram
    entries are at most D, and underflow costs each a few subnormal spacings
    at most. It is the key scaled exactly by a power of two, except that for
    e > 0 entries below 2^(e - 1022) in magnitude are rounded to the
    subnormal grid. Only the Gram screens read it."""
    def unit():
        e = int(np.frexp(np.abs(key.matrix).max())[1])
        return np.ldexp(key.matrix, -e), e
    return _cached(key, "unit", unit)


def _subsets_certify_complement(key: Key) -> bool:
    """Whether the subset scan shows that the complement walk's verdict is true.

    Requires D >= 2d - 1 and the subset scan's clears_margin: no
    rank-deficient d-subset and, with f = max(rank_tol_factor,
    _SUBSET_CERT_FLOOR), sigma_d(A_T) > m = _SUBSET_CERT_MARGIN * f * D *
    sigma_1(A) for every d-subset T. Then:

    - Some side S of each partition has at least d columns, as D >= 2d - 1.
      Without the margin this is the theorem that a full-spark frame with
      D >= 2d - 1 has the complement property (Balan, Casazza and Edidin,
      "On signal reconstruction without phase", ACHA 2006).
    - Interlacing. For T a d-subset of S, A_S A_S^T is A_T A_T^T plus the
      outer products of the other columns of S, so sigma_d(A_S) >=
      sigma_d(A_T) >= m; and A_S A_S^T <= A A^T, so sigma_1(A_S) <=
      sigma_1(A). Exactly, then, sigma_d(A_S) > 16 * f * |S| * sigma_1(A_S):
      sixteen times numerics.rank's cutoff for A_S.
    - Rounding. Each computed singular value (sigma_d(A_T), sigma_1(A), and
      those of A_S in the walk's exact-rank fallback) is within a modest
      multiple of eps * sigma_1(A) of the exact one, far inside the margin
      of 15 * f * sigma_1(A) >= 1.5e-11 * sigma_1(A). So numerics.rank
      gives A_S rank d.

    In the complement walk each partition's side S is then either settled
    from its Gram or given rank d by numerics.rank: every partition passes
    and the verdict is true. The partition Grams never enter the
    argument, so it holds at any scale of the key. A false answer decides
    nothing; the caller then runs the walk. Keys beyond the subset
    scan's cap get a false answer, so the certificate never raises
    SearchTooLarge.
    """
    d, D = key.d, key.D
    if D < 2 * d - 1 or comb(D, d) > FULL_SPARK_MAX_SUBSETS:
        return False
    return subset_scan(key).clears_margin


def is_phase_retrievable(key: Key) -> CertificateReport:
    """Certify injectivity of the magnitude encoder on the sign quotient.

    The verdict is the complement property. At the minimal size D = 2d - 1
    the verdict is additionally cross-checked against full spark, to which it
    must be equivalent; a mismatch is an internal error, never a report.
    """
    return _cached(key, "phase_retrievable", lambda: _phase_retrievable(key))


def _phase_retrievable(key: Key) -> CertificateReport:
    cp = has_complement_property(key)
    if key.D == 2 * key.d - 1:
        fs = is_full_spark(key)
        if fs.verdict != cp.verdict:
            raise InternalInconsistency(
                "complement property and full spark disagree at D = 2d-1: "
                f"complement={cp.verdict}, full_spark={fs.verdict}"
            )
    return CertificateReport(cp.verdict, cp.witness, "complement-property")


def is_universal_key(key: Key) -> CertificateReport:
    """Certify injectivity of the two-row sorting encoder.

    For two-row configurations this is the same condition as phase
    retrievability, so the verdict (and witness) are shared.
    """
    pr = is_phase_retrievable(key)
    return CertificateReport(pr.verdict, pr.witness, "theorem1-equivalence")
