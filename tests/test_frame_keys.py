import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasesort.frame_keys as frame_keys
from phasesort import cli, lipschitz, numerics, screens
from phasesort import (
    DimensionError,
    InternalInconsistency,
    Key,
    NotAFrame,
    Partition,
    SearchTooLarge,
    analysis,
    analysis_many,
    build_report,
    generate_key,
    has_complement_property,
    is_full_spark,
    is_phase_retrievable,
    is_universal_key,
    rank,
    synthesis_left_inverse,
    synthesis_left_inverse_many,
)
from phasesort.matrixio import save_matrix
from phasesort.numerics import DEFAULT_TOL, ToleranceConfig

import oracles
from conftest import A_REF, ADVERSARIAL, SRC, drain_screen


def test_generate_key_deterministic():
    k1 = generate_key(2, 3, 123)
    k2 = generate_key(2, 3, 123)
    assert k1.matrix.tobytes() == k2.matrix.tobytes()
    assert generate_key(2, 3, 124).matrix.tobytes() != k1.matrix.tobytes()


def test_generate_key_shape_and_spark():
    key = generate_key(4, 7, 99)
    assert key.matrix.shape == (4, 7)
    assert is_full_spark(key).verdict


def test_generate_key_1x1_nonzero():
    assert generate_key(1, 1, 5).matrix[0, 0] != 0.0


def test_generate_key_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_key(0, 3, 1)


def test_key_matrix_is_frozen():
    key = generate_key(2, 3, 1)
    with pytest.raises(ValueError):
        key.matrix[0, 0] = 7.0


def test_analysis_reference():
    np.testing.assert_array_equal(analysis(Key(A_REF), [1.0, 2.0]), [1.0, 2.0, 3.0])


def test_analysis_zero_and_identity():
    key = Key(A_REF)
    np.testing.assert_array_equal(analysis(key, [0.0, 0.0]), np.zeros(3))
    ident = Key(np.eye(2))
    np.testing.assert_array_equal(analysis(ident, [5.0, -7.0]), [5.0, -7.0])


def test_analysis_linearity():
    rng = np.random.Generator(np.random.PCG64(21))
    key = generate_key(4, 6, 3)
    for _ in range(30):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        a, b = rng.standard_normal(2)
        lhs = analysis(key, a * x + b * y)
        rhs = a * analysis(key, x) + b * analysis(key, y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_analysis_dimension_error():
    with pytest.raises(DimensionError):
        analysis(Key(A_REF), [1.0, 2.0, 3.0])


def test_analysis_bits_do_not_depend_on_layout():
    key = generate_key(3, 8, 11)
    u = build_report(key).u  # a column of the SVD's U: a strided vector
    assert not u.flags.c_contiguous
    assert analysis(key, u).tobytes() == analysis(key, u.copy()).tobytes()
    left = numerics.svd(key.matrix).left_vectors
    assert analysis_many(key, left.T).tobytes() == analysis_many(key, left.T.copy()).tobytes()


def test_synthesis_left_inverse_roundtrip():
    key = Key(A_REF)
    y = analysis(key, [1.0, 2.0])
    np.testing.assert_allclose(synthesis_left_inverse(key, y), [1.0, 2.0], atol=1e-12)
    np.testing.assert_array_equal(synthesis_left_inverse(key, np.zeros(3)), np.zeros(2))


def test_synthesis_left_inverse_random_keys():
    rng = np.random.Generator(np.random.PCG64(22))
    for seed in range(20):
        key = generate_key(3, 6, seed)
        x = rng.standard_normal(3)
        rec = synthesis_left_inverse(key, analysis(key, x))
        assert np.linalg.norm(rec - x) <= 1e-9 * max(1.0, np.linalg.norm(x))


def test_synthesis_rejects_rank_deficient():
    key = Key(np.array([[1.0, 2.0], [2.0, 4.0]]))  # rank 1
    with pytest.raises(NotAFrame):
        synthesis_left_inverse(key, [1.0, 1.0])
    with pytest.raises(NotAFrame):
        synthesis_left_inverse_many(key, [[1.0, 1.0]])


def test_synthesis_frame_check_runs_once_per_key(monkeypatch):
    calls = []
    real_rank = frame_keys.numerics.rank
    monkeypatch.setattr(frame_keys.numerics, "rank", lambda *a: calls.append(1) or real_rank(*a))
    key = generate_key(3, 7, 5)
    y = np.random.Generator(np.random.PCG64(23)).standard_normal((4, 7))
    for row in y:
        synthesis_left_inverse(key, row)
    synthesis_left_inverse_many(key, y)
    assert len(calls) == 1


def test_synthesis_single_call_keeps_vector_lstsq_bits():
    key = generate_key(4, 12, 6)
    y = np.random.Generator(np.random.PCG64(24)).standard_normal((10, 12))
    many = synthesis_left_inverse_many(key, y)
    for i, row in enumerate(y):
        single = synthesis_left_inverse(key, row)
        assert single.tobytes() == oracles.synthesis_left_inverse(key, row).tobytes()
        np.testing.assert_allclose(many[i], single, rtol=0, atol=1e-14)


def test_full_spark_reference():
    # 2x2 minors of A_REF: det[a1 a2]=1, det[a1 a3]=1, det[a2 a3]=-1
    assert is_full_spark(Key(A_REF)).verdict


def test_full_spark_repeated_direction():
    key = Key(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))  # columns e1, e2, e1
    rep = is_full_spark(key)
    assert not rep.verdict
    assert rep.witness == (1, 3)


def test_full_spark_identity():
    assert is_full_spark(Key(np.eye(2))).verdict


def test_full_spark_too_few_columns():
    rep = is_full_spark(Key(np.zeros((3, 2)) + np.eye(3, 2)))
    assert not rep.verdict
    assert rep.witness == (1, 2)


def test_complement_property_reference():
    # partitions of {1,2,3}: each side with >= 2 of the three columns spans
    assert has_complement_property(Key(A_REF)).verdict


def test_complement_property_identity_witness():
    rep = has_complement_property(Key(np.eye(2)))
    assert not rep.verdict
    assert isinstance(rep.witness, Partition)
    assert rep.witness.indices() == (1,)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_complement_property_needs_2d_minus_1(d):
    for D in range(d, 2 * d - 1):
        key = generate_key(d, D, 1000 + 10 * d + D)
        assert not has_complement_property(key).verdict


def test_complement_property_cap():
    with pytest.raises(SearchTooLarge):
        has_complement_property(Key(np.ones((1, 25))))


def test_full_spark_cap():
    # C(30, 15) is far beyond the subset cap; must refuse before any work
    with pytest.raises(SearchTooLarge):
        is_full_spark(Key(np.ones((15, 30))))


def _complement(key: Key):
    rep = has_complement_property(key)
    return rep.verdict, rep.witness, rep.method


@pytest.mark.parametrize("d,D,seed", [(2, 3, 0), (2, 4, 1), (3, 5, 2), (3, 6, 3), (4, 7, 4)])
def test_complement_fast_path_matches_reference(d, D, seed):
    key = generate_key(d, D, seed)
    assert _complement(key) == oracles.complement_property(key)


def test_complement_fast_path_matches_reference_deficient():
    mat = generate_key(3, 6, 77).matrix.copy()
    mat[:, 4] = mat[:, 1]  # duplicate a column
    mat[:, 5] = 0.0  # and zero one
    key = Key(mat)
    assert _complement(key) == oracles.complement_property(key)


def _partition_grams_reference(a: np.ndarray) -> np.ndarray:
    """Single-table Gram build over all masks avoiding the last column."""
    d, D = a.shape
    n_masks = 1 << (D - 1)
    outers = np.einsum("ik,jk->kij", a, a)
    grams = np.zeros((n_masks, d, d))
    for b in range(D - 2, -1, -1):
        prefix = np.arange(1 << (D - 2 - b), dtype=np.int64)
        idx = (prefix << (b + 1)) | (1 << b)
        grams[idx] = grams[idx - (1 << b)] + outers[b]
    return grams


@pytest.mark.parametrize("entries", [1, 9, 40, 1 << 20])
@pytest.mark.parametrize("d,D", [(1, 1), (2, 5), (3, 8), (4, 9)])
def test_chunked_grams_match_single_table(monkeypatch, entries, d, D):
    # blocks of one mask (at 1 entry, and at 9 for d >= 3) up to the default
    # schedule's, 64 masks doubling
    a = generate_key(d, D, 70 + d + D).matrix
    monkeypatch.setattr(screens, "_SCREEN_ENTRIES", entries)
    blocks = list(screens._partition_blocks(a))
    # the blocks cover every mask once, in ascending order
    masks = np.concatenate([m for m, *_ in blocks])
    assert masks.tolist() == list(range(1 << (D - 1)))
    table = _partition_grams_reference(a)
    gi = np.concatenate([grams for _, grams, *_ in blocks], axis=1)
    assert gi.tobytes() == screens.pack(table).tobytes()
    # the complement Grams, as the walks form them from the packed A A^T
    gc = screens.pack(a @ a.T)[:, None] - gi
    assert gc.tobytes() == screens.pack(a @ a.T - table).tobytes()


@pytest.mark.parametrize("entries", [9, 1 << 20])
def test_fill_grams_matches_index_oracle(monkeypatch, entries):
    real = screens._fill_grams
    fills = []

    def checked(grams, outers):
        # the oracle fills a table with one row per mask: the packed table's
        # transpose
        want = grams.T.copy()
        oracles.fill_grams(want, outers)
        real(grams, outers)
        assert grams.T.tobytes() == want.tobytes()
        fills.append((grams, len(outers)))

    monkeypatch.setattr(screens, "_SCREEN_ENTRIES", entries)
    monkeypatch.setattr(screens, "_fill_grams", checked)
    bits = set()
    for D in range(1, 14):
        for masks, gi, _, _ in screens._partition_blocks(generate_key(3, D, 90 + D).matrix):
            # one fill per block, of the block's own table, over its low bits
            ((grams, n),) = fills
            assert grams is gi and masks.size == 1 << n
            bits.add(n)
            fills.clear()
    # d = 3: at 9 entries every block is one mask, its seed; at 2^20 the
    # blocks double from 64 masks to the whole walk, 2^11 masks at D = 13
    assert bits == ({0} if entries == 9 else {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})


@pytest.mark.parametrize("d,D,entries,largest", [
    (4, 16, None, 8192), (8, 15, None, 2048), (5, 18, None, 8192), (3, 9, 40, 4),
    (2, 7, 1, 1), (3, 12, 6 * 100, 64), (1, 1, None, 1)])
def test_partition_blocks_are_aligned_powers_of_two(monkeypatch, d, D, entries, largest):
    # blocks are aligned ranges [start, start + 2^k) that cover the canonical
    # masks in ascending order, each with its own contiguous (P, 2^k) table;
    # they double from _FIRST_BLOCK masks to the largest power of two whose
    # Grams fit _SCREEN_ENTRIES, or to the whole walk
    if entries:
        monkeypatch.setattr(screens, "_SCREEN_ENTRIES", entries)
    p = d * (d + 1) // 2
    sizes = []
    for masks, gi, full_i, full_c in screens._partition_blocks(generate_key(d, D, 3).matrix):
        n, start = masks.size, sum(sizes)
        assert n & (n - 1) == 0 and start % n == 0
        assert np.array_equal(masks, np.arange(start, start + n))
        assert gi.shape == (p, n) and gi.flags.c_contiguous
        assert full_i.shape == full_c.shape == (n,)
        sizes.append(n)
    assert sum(sizes) == 1 << (D - 1)
    assert max(sizes) == largest and largest * p <= max(p, screens._SCREEN_ENTRIES)
    assert sizes[0] == min(screens._FIRST_BLOCK, largest)
    assert sizes == sorted(sizes)


def test_unit_copy_grams_are_exactly_symmetric():
    # screens.unpack mirrors a packed Gram's upper triangle, and eigvalsh
    # reads the lower one: the screens' eigenvalues are those of the Grams
    # themselves only if U U^T and U^T U, and so the sums and differences
    # the walks form from them, are symmetric bit for bit
    mats = list(ADVERSARIAL.values())
    mats += [generate_key(d, D, 100 * d + D).matrix for d in range(1, 13) for D in range(1, 25)]
    for mat in mats:
        unit = frame_keys._unit(Key(mat)).matrix
        for gram in (unit @ unit.T, unit.T @ unit):
            assert gram.tobytes() == gram.T.copy().tobytes()


@pytest.mark.parametrize("chunk_masks", [16, None])
def test_block_popcounts_match_bit_loop(monkeypatch, chunk_masks):
    # full_i and full_c for every d in 1..13 pin each mask's column count, a
    # low-bit lookup plus the count of the block's first mask; blocks of at
    # most 16 masks, or the default blocks
    D = 13
    counts = oracles.popcounts(np.arange(1 << (D - 1)))
    for d in range(1, D + 1):
        if chunk_masks:
            # a packed Gram has d(d + 1) / 2 entries
            monkeypatch.setattr(screens, "_SCREEN_ENTRIES", chunk_masks * d * (d + 1) // 2)
        walked = 0
        for masks, _, full_i, full_c in screens._partition_blocks(generate_key(d, D, 5).matrix):
            assert np.array_equal(full_i, counts[masks] >= d)
            assert np.array_equal(full_c, D - counts[masks] >= d)
            walked += masks.size
        assert walked == 1 << (D - 1)


def test_complement_chunked_scan_matches_single_chunk(monkeypatch):
    mat = generate_key(3, 6, 78).matrix.copy()
    mat[:, 5] = mat[:, 0]
    whole = drain_screen(frame_keys._unit(Key(mat)))
    batch = has_complement_property(Key(mat))
    assert (batch.verdict, batch.witness, batch.method) == oracles.complement_property(Key(mat))
    monkeypatch.setattr(screens, "_SCREEN_ENTRIES", 9)  # blocks of one mask
    chunked = drain_screen(frame_keys._unit(Key(mat)))
    assert chunked[0].tobytes() == whole[0].tobytes()  # the kept masks
    for entries in (screens._SCREEN_ENTRIES, 9):  # default walk blocks, then one mask each
        monkeypatch.setattr(screens, "_SCREEN_ENTRIES", entries)
        rep = has_complement_property(Key(mat))
        assert (rep.verdict, rep.witness, rep.method) == (
            batch.verdict, batch.witness, batch.method)
    assert has_complement_property(Key(A_REF)).verdict


# The names predate the walk's rank criterion: the reference is now the
# complement property's definition, numerics.rank of every side.
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_complement_matches_gram_reference_adversarial(name):
    key = Key(ADVERSARIAL[name])
    assert _complement(key) == oracles.complement_property(key)


@pytest.mark.parametrize("d,D,seed", [(3, 8, 1), (4, 12, 1), (4, 10, 5), (3, 11, 6)])
def test_complement_matches_gram_reference_seeded(monkeypatch, d, D, seed):
    key = generate_key(d, D, seed)
    mat = key.matrix.copy()
    mat[:, D - 1] = mat[:, 0]  # forces exact-rank fallbacks
    for k in (key, Key(mat)):
        expected = oracles.complement_property(k)
        assert _complement(k) == expected
        monkeypatch.setattr(screens, "_SCREEN_ENTRIES", 16)  # blocks of 1 or 2 masks
        assert _complement(Key(k.matrix)) == expected
        monkeypatch.undo()


def _full_spark_reference(key: Key):
    for cols in itertools.combinations(range(key.D), key.d):
        if rank(key.matrix[:, cols], key.tol) < key.d:
            return False, tuple(c + 1 for c in cols)
    return True, None


@pytest.mark.parametrize("entries", [1, 30, 1 << 20])
def test_full_spark_batched_matches_loop(monkeypatch, entries):
    monkeypatch.setattr(screens, "_CHUNK_ENTRIES", entries)
    keys = [generate_key(3, 7, 5), generate_key(4, 9, 6), Key(A_REF), Key(np.eye(3))]
    late = generate_key(3, 8, 7).matrix.copy()
    late[:, 7] = late[:, 6] * 2.0  # deficient only with both of the last two columns
    keys.append(Key(late))
    keys += [Key(m) for m in ADVERSARIAL.values()]
    for key in keys:
        if key.D < key.d:
            continue
        rep = is_full_spark(key)
        assert (rep.verdict, rep.witness) == _full_spark_reference(key)


def test_phase_retrievable_reference_and_identity():
    assert is_phase_retrievable(Key(A_REF)).verdict
    assert not is_phase_retrievable(Key(np.eye(2))).verdict


def test_phase_retrievable_agrees_with_spark_at_minimal_size():
    for seed in range(15):
        key = generate_key(3, 5, 300 + seed)
        assert is_phase_retrievable(key).verdict == is_full_spark(key).verdict


def test_universal_key_delegates():
    key = Key(A_REF)
    uni = is_universal_key(key)
    assert uni.verdict == is_phase_retrievable(key).verdict
    assert uni.method == "theorem1-equivalence"
    assert not is_universal_key(Key(np.eye(2))).verdict


def test_universal_implies_enough_columns():
    for d in (2, 3, 4):
        for D in range(1, 2 * d + 2):
            key = generate_key(d, D, 50 * d + D)
            if is_universal_key(key).verdict:
                assert D >= 2 * d - 1


def test_internal_inconsistency_guard(monkeypatch, a_ref_key):
    fake = frame_keys.CertificateReport(False, Partition(0, 3), "exhaustive-partitions")
    monkeypatch.setattr(frame_keys, "has_complement_property", lambda key: fake)
    with pytest.raises(InternalInconsistency):
        frame_keys._phase_retrievable(a_ref_key)


def test_certificate_reports_are_deterministic():
    key = generate_key(3, 5, 8)
    r1 = is_phase_retrievable(key)
    key2 = Key(key.matrix)
    r2 = is_phase_retrievable(key2)
    assert r1.verdict == r2.verdict and r1.method == r2.method
    spark1, spark2 = is_full_spark(key), is_full_spark(key2)
    assert spark1.witness == spark2.witness


def test_partition_helpers():
    p = Partition(0b0101, 4)
    assert p.indices() == (1, 3)
    assert p.complement().indices() == (2, 4)
    assert p.canonical().mask == 0b0101
    assert Partition(0b1110, 4).canonical().mask == 0b0001
    with pytest.raises(ValueError):
        Partition(16, 4)


def test_certificate_report_witness_consistency():
    with pytest.raises(ValueError):
        frame_keys.CertificateReport(True, (1,), "m")
    with pytest.raises(ValueError):
        frame_keys.CertificateReport(False, None, "m")


def test_full_spark_lexicographic_witness():
    # columns: e1, e1, e2, e1 -> first deficient pair lexicographically is (1,2)
    key = Key(np.array([[1.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]))
    assert is_full_spark(key).witness == (1, 2)


def test_full_spark_matches_bruteforce_minors():
    rng = np.random.Generator(np.random.PCG64(23))
    for seed in range(10):
        key = generate_key(2, 5, 600 + seed)
        dets = [
            np.linalg.det(key.matrix[:, list(c)])
            for c in itertools.combinations(range(5), 2)
        ]
        assert is_full_spark(key).verdict == all(abs(v) > 1e-12 for v in dets)


def _scan_only(matrix, tol=DEFAULT_TOL):
    """(verdict, witness, method) of the complement property from the partition
    scan alone, with the subset certificate switched off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(frame_keys, "_subsets_certify_complement", lambda key: False)
        rep = has_complement_property(Key(matrix, tol))
    return rep.verdict, rep.witness, rep.method


def _assert_shortcut_matches_scan(matrix, tol=DEFAULT_TOL):
    """The certificate agrees with the complement walk, and the walk with the
    partition-scan oracle: verdict, witness and method."""
    rep = has_complement_property(Key(matrix, tol))
    walk = _scan_only(matrix, tol)
    assert (rep.verdict, rep.witness, rep.method) == walk
    assert walk == oracles.complement_property(Key(matrix, tol))
    return rep


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_complement_shortcut_matches_scan_adversarial(name):
    _assert_shortcut_matches_scan(ADVERSARIAL[name])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.integers(1, 9).flatmap(
            lambda D: st.lists(
                st.one_of(st.floats(-1e3, 1e3), st.integers(-2, 2).map(float)),
                min_size=d * D,
                max_size=d * D,
            ).map(lambda v: np.array(v).reshape(d, D))
        )
    )
)
def test_complement_shortcut_matches_scan_hypothesis(matrix):
    _assert_shortcut_matches_scan(matrix)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_complement_shortcut_settles_minimal_keys(monkeypatch, d):
    walks = _count_complement_walks(monkeypatch)
    for seed in range(3):
        key = generate_key(d, 2 * d - 1, 900 + 10 * d + seed)
        assert frame_keys._subsets_certify_complement(key)
        assert has_complement_property(key).verdict
        assert not any(k is key for k in walks)
        assert _assert_shortcut_matches_scan(key.matrix).verdict


def test_complement_shortcut_declines_too_few_columns():
    key = generate_key(4, 6, 3)
    assert not frame_keys._subsets_certify_complement(key)
    assert not _assert_shortcut_matches_scan(key.matrix).verdict


@pytest.mark.parametrize("gap,settled,spark", [
    (1e-7, True, True),  # far above the rank cutoff: the certificate settles it
    (1e-9, False, True),  # within its margin: the complement walk decides
    (3e-11, False, False),  # below the rank cutoff: a deficient subset
])
def test_complement_shortcut_on_nearly_dependent_subset(monkeypatch, gap, settled, spark):
    mat = generate_key(3, 5, 9).matrix.copy()
    # columns 1, 2, 5 are dependent up to a relative ``gap``
    mat[:, 4] = mat[:, 0] + mat[:, 1] + gap * mat[:, 2]
    key = Key(mat)
    assert is_full_spark(key).verdict == spark
    assert frame_keys._subsets_certify_complement(key) == settled
    walks = _count_complement_walks(monkeypatch)
    rep = has_complement_property(key)
    assert walks == ([] if settled else [key])
    assert _assert_shortcut_matches_scan(mat) == rep
    # the split {3, 4} | {1, 2, 5} has no side its Gram alone can settle:
    # side I has fewer than d columns, and side C's sigma_d^2 is below the
    # Gram's rounding allowance, so its Gram (of the unit copy, which the
    # screens read) does not factor at the margin shift and numerics.rank
    # decides
    _, tau = frame_keys._margin_shift(key)
    side = frame_keys._unit(key).matrix[:, [0, 1, 4]]
    assert not screens.shifted_cholesky_ok((side @ side.T)[None], tau)[0]


@pytest.mark.parametrize("factor", [1e-16, 1e-9, 1e-6])
def test_complement_shortcut_follows_the_key_tolerance(factor):
    tol = ToleranceConfig(rank_tol_factor=factor)
    for gap in (1e-3, 1e-5, 1e-7, 1e-9, 3e-11, 1e-12):
        mat = generate_key(3, 5, 9).matrix.copy()
        mat[:, 4] = mat[:, 0] + mat[:, 1] + gap * mat[:, 2]
        _assert_shortcut_matches_scan(mat, tol)


def test_complement_certificate_never_hits_the_subset_cap(monkeypatch):
    key = generate_key(3, 7, 5)
    expected = has_complement_property(key)
    monkeypatch.setattr(frame_keys, "FULL_SPARK_MAX_SUBSETS", 10)  # C(7, 3) = 35
    with pytest.raises(SearchTooLarge):
        is_full_spark(Key(key.matrix))
    rep = has_complement_property(Key(key.matrix))
    assert (rep.verdict, rep.witness, rep.method) == (
        expected.verdict, expected.witness, expected.method)


@pytest.mark.parametrize("factor", [1e-16, 1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_complement_walk_matches_scan_oracle_adversarial(name, factor):
    _assert_shortcut_matches_scan(ADVERSARIAL[name], ToleranceConfig(rank_tol_factor=factor))


@pytest.mark.parametrize("d,D,seed", [(2, 2, 1), (3, 4, 2), (4, 6, 3), (5, 8, 4), (6, 10, 5),
                                      (8, 14, 1)])
def test_complement_walk_matches_scan_oracle_too_few_columns(d, D, seed):
    # D < 2d - 1: the verdict is false, the subset certificate never applies
    mat = generate_key(d, D, seed).matrix
    dup = mat.copy()
    dup[:, 2 % D] = dup[:, 0]  # a repeated column moves the first violation
    for m in (mat, dup):
        assert not _assert_shortcut_matches_scan(m).verdict


@pytest.mark.parametrize("entries", [1, 40])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_complement_walk_chunks_match_scan_oracle(monkeypatch, name, entries):
    # walk blocks of one mask, or of up to 40 // P masks, and side SVDs one
    # mask at a time
    monkeypatch.setattr(screens, "_CHUNK_ENTRIES", 9)
    monkeypatch.setattr(screens, "_SCREEN_ENTRIES", entries)
    for factor in (1e-12, 1e-6):
        _assert_shortcut_matches_scan(ADVERSARIAL[name], ToleranceConfig(rank_tol_factor=factor))


def test_complement_walk_stops_at_the_first_violation(monkeypatch):
    key = generate_key(8, 14, 1)
    walked = []
    real = screens._partition_blocks

    def counted(a):
        for block in real(a):
            walked.append(block[0].size)
            yield block

    monkeypatch.setattr(screens, "_partition_blocks", counted)
    rep = has_complement_property(key)
    assert (rep.verdict, rep.witness) == (False, Partition(127, 14))
    # both sides of mask 2^(D-d+1) - 1 have fewer than d columns
    assert 0 < sum(walked) <= 1 << (14 - 8 + 1)
    assert (rep.verdict, rep.witness, rep.method) == oracles.complement_property(key)


@pytest.mark.parametrize("planted", [False, True])
def test_complement_walk_factors_only_spanning_sides(monkeypatch, planted):
    # D = 2d - 1: exactly one side of each split spans, and only it reaches
    # the packed kernel, in one call per block: each split's column holds
    # side I's Gram where side I spans and side C's, formed in the same
    # buffer, where side C spans. The planted
    # key has column 15 = c1 + c2 + 1e-9 c3, so the subset certificate
    # declines it and the walk runs until its first violation; the seeded
    # key's walk, called directly, visits every split
    mat = generate_key(8, 15, 1).matrix.copy()
    if planted:
        mat[:, 14] = mat[:, 0] + mat[:, 1] + 1e-9 * mat[:, 2]
    key = Key(mat)
    assert not (planted and frame_keys._subsets_certify_complement(key))
    log = []
    real_blocks, real_kernel = screens._partition_blocks, screens._shifted_cholesky_ok_inplace

    def blocks(a):
        for block in real_blocks(a):
            masks, gi, full_i, full_c = block
            log.append(("block", (masks.copy(), gi.copy(), full_i.copy(), full_c.copy())))
            yield block

    def kernel(w, tau):
        log.append(("kernel", w.copy()))
        return real_kernel(w, tau)

    monkeypatch.setattr(screens, "_partition_blocks", blocks)
    monkeypatch.setattr(screens, "_shifted_cholesky_ok_inplace", kernel)
    if planted:
        rep = has_complement_property(key)
        assert (rep.verdict, rep.witness, rep.method) == oracles.complement_property(key)
    else:
        assert frame_keys._complement_walk(key) is None
    unit = frame_keys._unit(key).matrix
    total = screens.pack(unit @ unit.T)
    walked = 0
    for i in range(0, len(log), 2):
        (tag, (masks, gi, full_i, full_c)), (_, sides) = log[i:i + 2]
        assert tag == "block" and np.array_equal(full_i, ~full_c)
        want = np.where(full_c, total[:, None] - gi, gi)
        assert sides.tobytes() == want.tobytes()
        walked += masks.size
    assert walked == (1024 if planted else 1 << 14)


def _assert_one_side_pass_matches_oracle(monkeypatch, matrix, tol=DEFAULT_TOL):
    """Every call of the one-side pass, the complement walk's at the margin
    shift and the A0 screen's at its running shifts, against the two-call
    pass of oracles.one_side_settled on the same block. Returns what the
    calls covered: side C's Grams written into the copy (side C spans where
    side I does not), a second call (both sides span and side I failed), a
    mask with no spanning side."""
    real = screens._one_side_settled
    seen = {"side_c": False, "second": False, "no_side": False}

    def checked(gi, total, full_i, full_c, tau):
        before = gi.copy()
        ok = real(gi, total, full_i, full_c, tau)
        assert gi.tobytes() == before.tobytes()  # the block is left as it was
        assert ok.tobytes() == oracles.one_side_settled(gi, total, full_i, full_c, tau).tobytes()
        if tau < np.inf:
            seen["side_c"] |= bool(np.any(full_c & ~full_i))
            seen["second"] |= bool(np.any(full_i & full_c & ~ok))
            seen["no_side"] |= bool(np.any(~full_i & ~full_c))
        return ok

    with monkeypatch.context() as m:
        m.setattr(screens, "_one_side_settled", checked)
        key = Key(matrix, tol)
        frame_keys._complement_walk(key)
        lipschitz.lower_constant_search(key)
    return seen


@pytest.mark.parametrize("factor", [1e-16, 1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_one_side_pass_matches_two_call_oracle_adversarial(monkeypatch, name, factor):
    _assert_one_side_pass_matches_oracle(
        monkeypatch, ADVERSARIAL[name], ToleranceConfig(rank_tol_factor=factor))


def test_one_side_pass_matches_two_call_oracle_seeded(monkeypatch):
    # 4x16 writes side C's Grams into the copy and makes second calls; 5x8
    # (D < 2d - 1) and 6x9 have masks with no spanning side, in blocks of one
    # mask too
    seen = {}
    for d, D, entries in ((4, 16, None), (4, 12, None), (5, 8, None), (6, 9, None), (5, 8, 9)):
        with monkeypatch.context() as m:
            if entries:
                m.setattr(screens, "_SCREEN_ENTRIES", entries)
            for key, covered in _assert_one_side_pass_matches_oracle(
                    monkeypatch, generate_key(d, D, 1).matrix).items():
                seen[key] = seen.get(key, False) or covered
    assert all(seen.values()), seen


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.integers(1, 10).flatmap(
            lambda D: st.lists(
                st.one_of(st.floats(-1e3, 1e3), st.integers(-2, 2).map(float)),
                min_size=d * D,
                max_size=d * D,
            ).map(lambda v: np.array(v).reshape(d, D))
        )
    )
)
def test_one_side_pass_matches_two_call_oracle_hypothesis(matrix):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_one_side_pass_matches_oracle(monkeypatch, matrix)


def test_complement_walk_leaves_numpy_ma_unimported():
    # numpy.ma, a lazy submodule, costs a fresh process its import; the walk
    # decides the splits it cannot settle without it, and neither does the
    # A0 search at D = 2d - 1 (8x15), which grows its open splits from the
    # failing d-subsets with searchsorted, where np.isin or np.unique would
    # import it
    code = (
        "import sys, numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from phasesort import frame_keys, generate_key, lipschitz, lower_constant\n"
        "for key in (generate_key(3, 4, 1), generate_key(5, 8, 4)):\n"
        "    assert not frame_keys._subsets_certify_complement(key)\n"
        "    frame_keys.has_complement_property(key)\n"
        "    lower_constant(key)\n"
        "taken = []\n"
        "real = lipschitz._open_split_search\n"
        "lipschitz._open_split_search = lambda *args: taken.append(1) or real(*args)\n"
        "lower_constant(generate_key(8, 15, 1))\n"
        "assert taken\n"
        "print(before, 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    before, after = res.stdout.split()
    assert before == "True" or after == "False"


def _near_trust_ratio_key(d, seed, delta):
    """A d x (d + 2) key: d columns with singular values 1, ..., 1 and
    sqrt(1e-12 * (1 + delta)), so that their Gram sits at an eigenvalue
    ratio of 1e-12 (the trust ratio of an earlier complement walk) with a
    largest eigenvalue of about B0^2, and two tiny columns along their
    weakest direction."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sv = np.ones(d)
    sv[-1] = np.sqrt(1e-12 * (1.0 + delta))
    return np.hstack([u @ np.diag(sv) @ v, 1e-9 * np.outer(u[:, -1], [1.0, 2.0])])


@pytest.mark.parametrize("d", [3, 4])
def test_complement_walk_settles_only_rank_d_sides(monkeypatch, d):
    settled, walking = [], []
    real_kernel, real_walk = screens._shifted_cholesky_ok_inplace, frame_keys._complement_walk

    def recorded(w, tau):
        grams = screens.unpack(w)  # before the kernel overwrites w
        ok = real_kernel(w, tau)
        if walking:  # the walk's calls, not the subset scan's
            settled.append(grams[ok])
        return ok

    def walk(key):
        walking.append(key)
        try:
            return real_walk(key)
        finally:
            walking.pop()

    monkeypatch.setattr(screens, "_shifted_cholesky_ok_inplace", recorded)
    monkeypatch.setattr(frame_keys, "_complement_walk", walk)
    # within rounding of the ratio, and once far enough above it to settle
    seen = 0
    for seed in range(10):
        for delta in [*np.linspace(-3e-4, 3e-4, 25), 3.0]:
            mat = _near_trust_ratio_key(d, seed, delta)
            for factor in (1e-12, 1e-6):  # at 1e-6 the planted side is rank deficient
                tol = ToleranceConfig(rank_tol_factor=factor)
                settled.clear()
                _assert_shortcut_matches_scan(mat, tol)
                # every Gram the screen settles, of the unit copy 2^-e A, has
                # sigma_d above the margin scaled by 2^-e
                margin, _ = frame_keys._margin_shift(Key(mat, tol))
                unit_margin = np.ldexp(margin, -frame_keys._unit(Key(mat, tol)).e)
                grams = np.concatenate([np.zeros((0, d, d)), *settled])
                assert np.all(np.linalg.eigvalsh(grams)[:, 0] > unit_margin**2)
                seen += grams.shape[0]
    assert seen > 0


def test_complement_walk_follows_the_key_tolerance_near_the_old_ratio():
    # the planted side has sigma_d = 2e-6 sigma_1: rank 2 at the cutoff
    # 1e-6 * 5 * sigma_1, so no side of mask 0 spans
    mat = _near_trust_ratio_key(3, 0, 3.0)
    tol = ToleranceConfig(rank_tol_factor=1e-6)
    assert _scan_only(mat, tol) == (False, Partition(0, 5), "exhaustive-partitions")
    assert has_complement_property(Key(mat, tol)).witness == Partition(0, 5)


def test_subset_scan_stops_at_the_first_deficient_chunk(monkeypatch):
    mat = generate_key(3, 8, 7).matrix.copy()
    mat[:, 3] = mat[:, 0] - mat[:, 1]  # first deficient subset: (1, 2, 4)
    key = Key(mat)
    # the margin's SVDs of the key and of its unit copy, taken before the
    # subset SVDs are counted
    _, tau = frame_keys._margin_shift(key)
    svds = []
    real_svd = numerics.singular_values_many
    monkeypatch.setattr(numerics, "singular_values_many",
                        lambda stack: svds.append(stack.copy()) or real_svd(stack))
    monkeypatch.setattr(screens, "_CHUNK_ENTRIES", 9)  # one subset per chunk
    rep = is_full_spark(key)
    assert (rep.verdict, rep.witness) == (False, (1, 2, 4))
    # the packed kernel on the gathered Grams of the unit copy settles
    # (1, 2, 3) and not (1, 2, 4), and so does the walk; (1, 2, 4) gets the
    # only SVD, and the scan stops after its chunk
    assert oracles.subset_verdicts(key, tau)[:2].tolist() == [True, False]
    assert screens._unsettled_subsets(frame_keys._unit(key).matrix, tau)[0][0] == 1
    assert len(svds) == 1 and svds[0].tobytes() == mat[:, [0, 1, 3]][None].tobytes()
    scan = frame_keys.subset_scan(key)
    assert (scan.settled, scan.decomposed, scan.clears_margin) == (1, 1, False)


@pytest.mark.parametrize("entries", [9, 1 << 20])
def test_subset_scan_smallest_sigma_d_matches_loop(monkeypatch, entries):
    # the scan keeps no minimum, but its margin decision pins the smallest
    # sigma_d bit for bit: with the margin moved onto the loop's smallest
    # value the decision is false, one ulp below it true
    monkeypatch.setattr(screens, "_CHUNK_ENTRIES", entries)
    key = generate_key(3, 7, 12)
    smallest = min(
        numerics.sigma_k(key.matrix[:, cols], 3)
        for cols in itertools.combinations(range(7), 3)
    )
    scan = frame_keys.subset_scan(key)
    assert scan.deficient is None and scan.clears_margin
    assert scan.settled + scan.decomposed == 35
    for margin, clears in ((smallest, False), (np.nextafter(smallest, 0.0), True)):
        monkeypatch.setattr(frame_keys, "_certificate_margin", lambda key, sigma_1: margin)
        scan = frame_keys.subset_scan(Key(key.matrix))
        assert scan.deficient is None and scan.clears_margin == clears
        assert scan.decomposed >= 1  # the smallest subset cannot be settled


def _assert_walk_matches_gathered_kernel(matrix, tol=DEFAULT_TOL):
    """The prefix-tree walk gives every d-subset the packed kernel's verdict
    on its gathered Gram, bit for bit, and the scan equals the gathered-Gram
    scan field for field."""
    want = oracles.cholesky_subset_scan(Key(matrix, tol))
    key = Key(matrix, tol)
    scan = frame_keys.subset_scan(key)
    assert (scan.deficient, scan.clears_margin, scan.settled, scan.decomposed) == (
        want.deficient, want.clears_margin, want.settled, want.decomposed)
    if key.D >= key.d:
        _, tau = frame_keys._margin_shift(key)
        verdicts = oracles.subset_verdicts(key, tau)
        assert verdicts.size == math.comb(key.D, key.d)
        unsettled = screens._ranges(*screens._unsettled_subsets(frame_keys._unit(key).matrix, tau))
        assert np.array_equal(unsettled, np.flatnonzero(~verdicts))


def _assert_subset_scan_matches_oracle(matrix, tol=DEFAULT_TOL):
    """Full spark's verdict, witness and method, the certificate's decision
    and the scan's own decision all equal the SVD-scan oracle's, and the
    scan's work that of the gathered-Gram scan."""
    key = Key(matrix, tol)
    deficient, clears = oracles.subset_decision(Key(matrix, tol))
    rep = is_full_spark(key)
    assert (rep.verdict, rep.witness, rep.method) == (
        deficient is None, deficient, "exhaustive-d-subsets")
    assert frame_keys._subsets_certify_complement(key) == (clears and key.D >= 2 * key.d - 1)
    scan = frame_keys.subset_scan(key)
    assert (scan.deficient, scan.clears_margin) == (deficient, clears)
    if deficient is None and key.D >= key.d:
        assert scan.settled + scan.decomposed == math.comb(key.D, key.d)
    _assert_walk_matches_gathered_kernel(matrix, tol)
    return scan


@pytest.mark.parametrize("factor", [1e-16, 1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_subset_scan_matches_svd_oracle_adversarial(name, factor):
    _assert_subset_scan_matches_oracle(ADVERSARIAL[name], ToleranceConfig(rank_tol_factor=factor))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.integers(1, 10).flatmap(
            lambda D: st.lists(
                st.one_of(st.floats(-1e3, 1e3), st.integers(-2, 2).map(float)),
                min_size=d * D,
                max_size=d * D,
            ).map(lambda v: np.array(v).reshape(d, D))
        )
    )
)
def test_subset_scan_matches_svd_oracle_hypothesis(matrix):
    _assert_subset_scan_matches_oracle(matrix)


def _planted_key(seed, target, factor):
    """A 3x6 key whose subset (1, 2, 6) has sigma_d close to ``target``
    times the bound it is named after: the certificate margin, or
    numerics.rank's cutoff for a 3 x 3 subset."""
    tol = ToleranceConfig(rank_tol_factor=factor)
    base = generate_key(3, 6, seed).matrix

    def build(gap):
        mat = base.copy()
        mat[:, 5] = mat[:, 0] + mat[:, 1] + gap * mat[:, 2]
        sub = numerics.singular_values(mat[:, [0, 1, 5]])
        bound = (frame_keys._certificate_margin(Key(mat, tol), numerics.sigma_k(mat, 1))
                 if target[0] == "margin" else factor * 3 * sub[0])
        return mat, sub[2] / bound

    gap = 1e-6
    for _ in range(4):  # sigma_d is close to linear in the gap
        mat, ratio = build(gap)
        gap *= target[1] / ratio
    mat, ratio = build(gap)
    return mat, tol, ratio


@pytest.mark.parametrize("factor", [1e-12, 1e-9])
@pytest.mark.parametrize("target", [("margin", 1 + 1e-3), ("margin", 1 - 1e-3),
                                    ("cutoff", 1 + 1e-3), ("cutoff", 1 - 1e-3)])
@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_subset_scan_matches_svd_oracle_near_its_bounds(seed, target, factor):
    mat, tol, ratio = _planted_key(seed, target, factor)
    assert (ratio > 1.0) == (target[1] > 1.0)  # the planted subset is on the intended side
    scan = _assert_subset_scan_matches_oracle(mat, tol)
    deficient, clears = oracles.subset_decision(Key(mat, tol))
    if target[0] == "margin":
        assert deficient is None and clears == (ratio > 1.0)
    else:
        assert (deficient is None) == (ratio > 1.0) and not clears
    assert scan.decomposed >= 1  # the planted subset got an SVD


@pytest.mark.parametrize("exponent", [-530, -450, 450])
@pytest.mark.parametrize("name", ["rank-deficient", "repeated-columns", "identity-twice",
                                  "near-parallel-first", "near-singular"])
def test_subset_scan_skips_the_screen_out_of_range(name, exponent):
    # named when keys this far from unit scale skipped the screen; now every
    # key is screened on its unit copy, which is that of the unscaled key, so
    # the work is the unscaled key's
    matrix = ADVERSARIAL[name] * 2.0**exponent
    scan = _assert_subset_scan_matches_oracle(matrix)
    plain = frame_keys.subset_scan(Key(ADVERSARIAL[name]))
    assert (scan.settled, scan.decomposed) == (plain.settled, plain.decomposed)


@pytest.mark.parametrize("gap", [1e-7, 1e-9, 3e-11])
def test_subset_scan_matches_svd_oracle_near_dependent(gap):
    mat = generate_key(3, 5, 9).matrix.copy()
    mat[:, 4] = mat[:, 0] + mat[:, 1] + gap * mat[:, 2]
    for factor in (1e-16, 1e-12, 1e-9, 1e-6):
        _assert_subset_scan_matches_oracle(mat, ToleranceConfig(rank_tol_factor=factor))


@pytest.mark.parametrize("d,D", [(4, 16), (8, 15), (10, 19)])
def test_subset_scan_settles_most_subsets(d, D):
    scan = frame_keys.subset_scan(generate_key(d, D, 1))
    assert scan.deficient is None and scan.clears_margin
    assert scan.settled + scan.decomposed == math.comb(D, d)
    assert scan.settled >= 0.99 * math.comb(D, d)


# 9 entries: chunks of one subset, node batches of one node, and every block
# with four or more columns left expanded; 4000: windows and batches of a few
# nodes. The tests through _assert_subset_scan_matches_oracle cover the
# default.
SMALL_CHUNKS = [9, 4000]


@pytest.mark.parametrize("entries", SMALL_CHUNKS)
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_subset_walk_matches_gathered_kernel_in_small_chunks(monkeypatch, name, entries):
    monkeypatch.setattr(screens, "_CHUNK_ENTRIES", entries)
    for factor in (1e-16, 1e-12, 1e-9, 1e-6):
        _assert_walk_matches_gathered_kernel(
            ADVERSARIAL[name], ToleranceConfig(rank_tol_factor=factor))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda d: st.integers(1, 11).flatmap(
            lambda D: st.lists(
                st.one_of(st.floats(-1e3, 1e3), st.integers(-2, 2).map(float)),
                min_size=d * D,
                max_size=d * D,
            ).map(lambda v: np.array(v).reshape(d, D))
        )
    ),
    st.sampled_from(SMALL_CHUNKS),
)
def test_subset_walk_matches_gathered_kernel_hypothesis(matrix, entries):
    real = screens._CHUNK_ENTRIES
    screens._CHUNK_ENTRIES = entries
    try:
        _assert_walk_matches_gathered_kernel(matrix)
    finally:
        screens._CHUNK_ENTRIES = real


@pytest.mark.parametrize("d,D,entries", [
    (4, 16, screens._CHUNK_ENTRIES), (8, 15, screens._CHUNK_ENTRIES),
    (10, 19, screens._CHUNK_ENTRIES), (4, 16, 9), (6, 11, 9), (8, 15, 4000)])
def test_subset_walk_matches_gathered_kernel_seeded(monkeypatch, d, D, entries):
    monkeypatch.setattr(screens, "_CHUNK_ENTRIES", entries)
    key = generate_key(d, D, 1)
    mat = key.matrix.copy()
    # columns 1 and 2 nearly parallel: exactly the subsets with both,
    # consecutive ranks over many chunks, fail the Cholesky test
    mat[:, 1] = mat[:, 0] + 1e-7 * generate_key(d, 1, 2).matrix[:, 0]
    for m in (key.matrix, mat):
        _assert_walk_matches_gathered_kernel(m)
    scan = frame_keys.subset_scan(Key(mat))
    if scan.deficient is None:  # at 10 x 19 some of them are deficient
        assert scan.decomposed == math.comb(D - 2, d - 2)


@pytest.mark.parametrize("entries", [*SMALL_CHUNKS, screens._CHUNK_ENTRIES])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (3, 3), (5, 5), (4, 2), (6, 1)])
def test_subset_walk_matches_gathered_kernel_edge_shapes(monkeypatch, shape, entries):
    monkeypatch.setattr(screens, "_CHUNK_ENTRIES", entries)
    _assert_walk_matches_gathered_kernel(generate_key(*shape, 3).matrix)
    _assert_walk_matches_gathered_kernel(np.zeros(shape))
    _assert_walk_matches_gathered_kernel(np.zeros((5, 10)))


def _count_complement_walks(monkeypatch) -> list:
    """Keys the complement walk runs on: outside the A0 search, the only code
    that walks the column partitions."""
    calls = []
    real = frame_keys._complement_walk
    monkeypatch.setattr(frame_keys, "_complement_walk",
                        lambda key: calls.append(key) or real(key))
    return calls


def _key_file(tmp_path, d, D) -> str:
    path = str(tmp_path / f"key-{d}x{D}.txt")
    save_matrix(path, generate_key(d, D, 1).matrix)
    return path


@pytest.mark.parametrize("d,D", [(4, 16), (4, 12)])
def test_check_and_decode_run_no_partition_scan(monkeypatch, tmp_path, capsys, d, D):
    calls = _count_complement_walks(monkeypatch)
    keyfile = _key_file(tmp_path, d, D)
    assert cli.main(["check", keyfile]) == 0
    config = str(tmp_path / "config.txt")
    save_matrix(config, np.random.Generator(np.random.PCG64(d + D)).standard_normal((2, d)))
    for encoder in ("beta", "beta-tilde"):
        encoded, decoded = str(tmp_path / f"{encoder}.txt"), str(tmp_path / "back.txt")
        argv = ["--encoder", encoder, "--key", keyfile]
        assert cli.main(["encode", *argv, "--input", config, "--out", encoded]) == 0
        assert cli.main(["decode", *argv, "--input", encoded, "--out", decoded]) == 0
    assert calls == []


def _count_lower_constant_searches(monkeypatch) -> list:
    calls = []
    real = lipschitz._lower_constant
    monkeypatch.setattr(lipschitz, "_lower_constant",
                        lambda key: calls.append(key.matrix.shape) or real(key))
    return calls


def test_bounds_runs_one_partition_scan(monkeypatch, tmp_path, capsys):
    calls = _count_complement_walks(monkeypatch)
    searches = _count_lower_constant_searches(monkeypatch)
    assert cli.main(["bounds", _key_file(tmp_path, 4, 12)]) == 0
    # the name predates the A0 screen that walks the Grams itself: now no
    # complement walk
    assert calls == []
    assert searches == [(4, 12)]


def test_verify_runs_one_partition_scan_per_key(monkeypatch, tmp_path, capsys):
    calls = _count_complement_walks(monkeypatch)
    searches = _count_lower_constant_searches(monkeypatch)
    for d, D in ((3, 8), (4, 12)):
        assert cli.main(["verify", _key_file(tmp_path, d, D), "--samples", "20"]) == 0
    assert calls == []
    assert searches == [(3, 8), (4, 12)]
