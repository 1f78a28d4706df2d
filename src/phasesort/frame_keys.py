"""Keys (frames given by the columns of a d x D matrix), their analysis and
synthesis operators, and the injectivity certificates.

Three certificates are exposed: full spark (every d-subset of columns is
independent), the complement property (every column split leaves one spanning
side), and the derived phase-retrievable / universal-key verdicts. When
D = 2d - 1 the first two are equivalent and the code cross-checks them
against each other, refusing to return silently inconsistent answers.

Two exhaustive scans back them, each run at most once per key. Their Gram
screens, the shifted-Cholesky tests that settle most sides without an SVD,
are in the screens module; this one holds what the scans decide with them:

- The subset scan (subset_scan) ranks the C(D, d) d-column submatrices.
  A shifted Cholesky factorization of each subset's d x d Gram in U^T U,
  U = 2^-e A being the key's unit copy (_unit), places almost every
  subset's sigma_d above the certificate margin; only the others get a
  stacked SVD of the key, chunk by chunk, so the verdict and witness are
  those of an SVD of every subset. The factorizations share their
  prefixes: a walk of the lexicographic prefix tree of the subsets
  (screens._unsettled_subsets) does each elimination step once per prefix,
  for all subsets that start with it, with the operations the packed
  kernel does on each subset's Gram. Full spark reads its verdict from it.
  It also certifies the complement property outright when D >= 2d - 1 and
  every d-subset has rank d with a margin: a full-spark frame with D >=
  2d - 1 has the complement property (Balan, Casazza and Edidin, "On
  signal reconstruction without phase", ACHA 2006), and the margin makes
  the floating-point verdict the same.
- The complement walk (_complement_walk) visits the 2^(D-1) column
  partitions in ascending blocks (screens._partition_blocks: aligned
  power-of-two ranges of masks, each with its own table of Grams) and
  stops at the first violating split. A side spans when numerics.rank's
  criterion gives it rank d; the subset scan's shifted-Cholesky test, at
  the same margin shift (_margin_shift), settles most spanning sides from
  their Grams (screens._one_side_settled), and numerics.rank decides the
  rest, so the verdict and witness are those of the rank of every side.
  The complement property falls back to the walk when the subset certificate
  does not apply, and it is the only source of a false verdict and its
  witness.

The lower Lipschitz constant A0 (lipschitz.lower_constant) walks the same
ascending blocks with its own Cholesky screen (screens._screen), which
shares the walk's one-side pass at its own shift, and the subset scan's
prefix-tree walk once, at the shift of its first full-size block, to
settle the partitions with a side that holds a d-subset that factors
there; it diagonalizes only the partitions that screen cannot rule out.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import numerics, screens
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
      screens._gram_screen_errors' allowances, c being
      screens.GRAM_SCREEN_SLACK.
    - Gram entries. G = U^T U is formed once, and the test reads the
      entries of the subset Gram G[T, T] from it, so each entry is a
      length-d dot product of two columns, within gamma_d * b^2 of the
      exact one (a column's norm is at most sigma_1(U)) plus what underflow
      loses, at most d subnormal spacings 2^-1074, and G[T, T] within d
      times that in the 2-norm.
    - Cholesky. The walk of the prefix tree of the subsets
      (screens._unsettled_subsets) does, for every subset, the operations of
      screens.shifted_cholesky_ok on G[T, T], in the kernel's order, once
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
    starts, counts = screens._unsettled_subsets(_unit(key).matrix, tau)
    ends = starts + counts
    per_chunk = max(1, screens._CHUNK_ENTRIES // (d * d))
    clears_margin = True
    decomposed = ranked = k = 0
    while k < starts.size:
        # the unsettled subsets of the next chunk of per_chunk lexicographic
        # ranks that holds any: ranges k .. j - 1, less what earlier chunks took
        lowest = max(int(starts[k]), ranked)
        ranked = (lowest // per_chunk + 1) * per_chunk
        j = int(np.searchsorted(starts, ranked))
        lo = np.maximum(starts[k:j], lowest)
        cols = screens._unrank(screens._ranges(lo, np.minimum(ends[k:j], ranked) - lo), d, D)
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


def _rank_d(key: Key, col_masks: np.ndarray) -> np.ndarray:
    """Whether the columns selected by each mask have rank d (numerics.rank's
    criterion); a side with fewer than d columns never does."""
    full = np.zeros(col_masks.shape, dtype=bool)
    for rows, k, s in screens._side_singular_values(key.matrix, col_masks):
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
    visits the masks in screens._partition_blocks' ascending blocks and
    stops at the first block that holds a partition with no spanning side.
    Most spanning sides are settled from their packed Grams by the
    shifted-Cholesky test (screens.shifted_cholesky_ok) at the subset scan's
    shift tau = (M_u + err_s)^2 + err_lam (_margin_shift), in
    screens._one_side_settled's pass, which the A0 screen shares: side I
    where it spans and side C where only it spans in one kernel call per
    block, then side C where both span and side I did not settle the split,
    its Gram U U^T - G_I formed for those masks only. The partitions with no
    settled side are decided by numerics.rank's criterion (_rank_d), side I
    first.

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
    unit = _unit(key)
    for masks, grams, full_i, full_c in screens._partition_blocks(unit.matrix):
        settled = screens._one_side_settled(grams.table(), unit.gram, full_i, full_c, tau)
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
    unit = _unit(key)
    unit_margin = _certificate_margin(key, unit.sigma_1)
    tau = (unit_margin + unit.err_s) * (unit_margin + unit.err_s) + unit.err_lam
    return _certificate_margin(key, _sigma_1(key)), tau


def _sigma_1(key: Key) -> float:
    """numerics.sigma_k(key.matrix, 1), the key's largest singular value
    (memoized): the certificate margin and lipschitz's B0 read it."""
    return _cached(key, "sigma_1", lambda: numerics.sigma_k(key.matrix, 1))


def _unit(key: Key) -> screens.UnitCopy:
    """The key's unit copy, screens._unit_copy(key.matrix) (memoized): what
    the Gram screens read of it."""
    return _cached(key, "unit", lambda: screens._unit_copy(key.matrix))


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
