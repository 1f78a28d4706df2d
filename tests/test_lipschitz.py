import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesort import (
    AchievementFailure,
    Key,
    LipschitzViolation,
    Partition,
    SearchTooLarge,
    alpha,
    build_report,
    check_achievement,
    generate_key,
    has_complement_property,
    lower_constant,
    ratio_scan,
    upper_constant,
)
from phasesort import frame_keys, lipschitz, numerics, screens, verify
from phasesort.lipschitz import LipschitzReport

import oracles
from conftest import A_REF, ADVERSARIAL, drain_screen, sym2x2_eigenvalues


def _lower_constant_loop(key: Key, stop: int | None = None) -> tuple[float, int]:
    """Every canonical mask in ascending order, two SVDs each: the oracle;
    with ``stop``, the best of the masks below it."""
    d, D = key.d, key.D
    a = key.matrix
    tie = lipschitz._TIE_WINDOW * upper_constant(key)
    best_val = np.inf
    best_mask = 0
    for mask in range(1 << (D - 1) if stop is None else stop):
        part = Partition(mask, D)
        cols_i = part.column_indices0()
        cols_c = part.complement().column_indices0()
        s_i = numerics.sigma_k(a[:, cols_i], d) if len(cols_i) >= d else 0.0
        s_c = numerics.sigma_k(a[:, cols_c], d) if len(cols_c) >= d else 0.0
        val = float(np.hypot(s_i, s_c))
        if val < best_val - tie:
            best_val = val
            best_mask = mask
    return best_val, best_mask


def _assert_matches_loop(matrix):
    a0, part = lower_constant(Key(matrix))
    ref_a0, ref_mask = _lower_constant_loop(Key(matrix))
    assert np.float64(a0).tobytes() == np.float64(ref_a0).tobytes()
    assert part.mask == ref_mask


def test_upper_constant_reference(a_ref_key):
    lam1, _ = sym2x2_eigenvalues(A_REF @ A_REF.T)
    assert upper_constant(a_ref_key) == pytest.approx(math.sqrt(lam1), abs=1e-12)


def test_upper_constant_identity_and_scaling(a_ref_key, identity_key):
    assert upper_constant(identity_key) == pytest.approx(1.0, abs=1e-14)
    assert upper_constant(Key(2.0 * A_REF)) == pytest.approx(
        2.0 * upper_constant(a_ref_key), rel=1e-12
    )


def test_lower_constant_reference(a_ref_key):
    # complement side {2,3} has Gram [[1,1],[1,2]]; sigma_2 = sqrt((3-sqrt(5))/2)
    _, lam2 = sym2x2_eigenvalues([[1.0, 1.0], [1.0, 2.0]])
    a0, part = lower_constant(a_ref_key)
    assert a0 == pytest.approx(math.sqrt(lam2), abs=1e-12)
    assert a0 == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)
    assert part.indices() == (1,)  # {1} beats the tied {2} by smaller mask


def test_lower_constant_identity(identity_key):
    a0, part = lower_constant(identity_key)
    assert a0 == 0.0
    assert part.indices() == (1,)


def test_lower_constant_positive_iff_complement_property():
    for seed in range(25):
        d = 2 + seed % 3
        D = d + seed % (d + 3)
        key = generate_key(d, D, 3000 + seed)
        a0, _ = lower_constant(key)
        threshold = key.tol.rank_tol_factor * max(d, D) * upper_constant(key)
        assert (a0 > threshold) == has_complement_property(key).verdict


def test_lower_constant_cap():
    with pytest.raises(SearchTooLarge):
        lower_constant(Key(np.ones((1, 25))))


def test_scaling_homogeneity():
    key = generate_key(3, 6, 77)
    scaled = Key(3.5 * key.matrix)
    a0, _ = lower_constant(key)
    b0 = upper_constant(key)
    a0s, _ = lower_constant(scaled)
    assert a0s == pytest.approx(3.5 * a0, rel=1e-10)
    assert upper_constant(scaled) == pytest.approx(3.5 * b0, rel=1e-10)


def test_build_report_reference(a_ref_key):
    rep = build_report(a_ref_key)
    # side {1} is a single column (1,0): placeholder direction is (0,1)
    np.testing.assert_allclose(rep.u1, [0.0, 1.0], atol=1e-14)
    # side {2,3}: eigenvector of [[1,1],[1,2]] for the smaller eigenvalue,
    # normalized, leading-magnitude component positive
    _, lam2 = sym2x2_eigenvalues([[1.0, 1.0], [1.0, 2.0]])
    v = np.array([1.0, lam2 - 1.0])
    v /= np.linalg.norm(v)
    np.testing.assert_allclose(np.abs(rep.u2), np.abs(v), atol=1e-12)
    assert rep.u2[np.argmax(np.abs(rep.u2))] > 0
    assert rep.placeholder_sides == (True, False)
    assert not rep.degenerate_lower


def test_build_report_witness_structure(a_ref_key):
    rep = build_report(a_ref_key)
    w = rep.witnesses
    np.testing.assert_array_equal(w.x_max, rep.u)
    np.testing.assert_array_equal(w.y_max, np.zeros(2))
    np.testing.assert_array_equal(w.x_min, rep.u1 + rep.u2)
    np.testing.assert_array_equal(w.y_min, rep.u1 - rep.u2)
    np.testing.assert_array_equal(w.X_max, np.vstack([rep.u, np.zeros(2)]))
    np.testing.assert_array_equal(w.Y_max, np.zeros((2, 2)))
    np.testing.assert_array_equal(w.X_min, np.vstack([rep.u1 + rep.u2, np.zeros(2)]))
    np.testing.assert_array_equal(w.Y_min, np.vstack([rep.u1, rep.u2]))
    for vec in (rep.u, rep.u1, rep.u2):
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_build_report_degenerate_identity(identity_key):
    rep = build_report(identity_key)
    assert rep.A0 == 0.0
    assert rep.degenerate_lower
    assert rep.placeholder_sides == (True, True)
    res = check_achievement(identity_key, rep)
    assert res.passed and not res.lower_checked


def test_check_achievement_reference(a_ref_key):
    res = check_achievement(a_ref_key, build_report(a_ref_key))
    assert res.passed and res.lower_checked
    assert set(res.details) == {
        "alpha-upper",
        "beta-upper",
        "beta-upper-distance",
        "alpha-lower",
        "beta-lower",
        "beta-lower-distance-squared",
    }


def test_check_achievement_random_keys():
    for seed in range(20):
        d = 2 + seed % 3
        key = generate_key(d, 2 * d - 1 + seed % 2, 4000 + seed)
        res = check_achievement(key, build_report(key))
        assert res.passed and res.lower_checked


def test_check_achievement_scaled(a_ref_key):
    scaled = Key(2.0 * A_REF)
    rep = build_report(scaled)
    assert rep.B0 == pytest.approx(2.0 * upper_constant(a_ref_key), rel=1e-12)
    assert check_achievement(scaled, rep).passed


def test_check_achievement_detects_tampering(a_ref_key):
    rep = build_report(a_ref_key)
    broken = LipschitzReport(
        A0=rep.A0,
        B0=rep.B0 * 1.5,
        I0=rep.I0,
        u=rep.u,
        u1=rep.u1,
        u2=rep.u2,
        witnesses=rep.witnesses,
        degenerate_lower=rep.degenerate_lower,
        placeholder_sides=rep.placeholder_sides,
    )
    with pytest.raises(AchievementFailure, match="alpha-upper"):
        check_achievement(a_ref_key, broken)


@pytest.mark.parametrize("scale", [1e-20, 1e-200])
def test_check_achievement_detects_tampering_below_unit_scale(scale):
    # the gap clauses are relative to the key's own scale: constants 1.5x
    # too large fail far below unit scale as they do at scale 1, while the
    # report of the key itself still passes there
    key = Key(generate_key(4, 12, 1).matrix * scale)
    rep = build_report(key)
    assert check_achievement(key, rep).passed
    broken = dataclasses.replace(rep, A0=rep.A0 * 1.5, B0=rep.B0 * 1.5)
    with pytest.raises(AchievementFailure, match="alpha-upper"):
        check_achievement(key, broken)


def test_placeholder_is_orthogonal_to_side():
    # optimal partitions with a thin side get a null-direction stand-in
    for seed in range(10):
        key = generate_key(3, 5, 5000 + seed)
        rep = build_report(key)
        cols = rep.I0.column_indices0()
        for vec, side_cols, used in zip(
            (rep.u1, rep.u2),
            (cols, rep.I0.complement().column_indices0()),
            rep.placeholder_sides,
        ):
            if used and side_cols:
                assert np.abs(key.matrix[:, side_cols].T @ vec).max() <= 1e-10


def test_ratio_scan_within_bounds(a_ref_key):
    rep = ratio_scan(a_ref_key, 2000, 1234)
    a0, _ = lower_constant(a_ref_key)
    b0 = upper_constant(a_ref_key)
    assert a0 - 1e-9 <= rep.min_ratio <= rep.max_ratio <= b0 + 1e-9
    assert a0 - 1e-9 <= rep.alpha_min_ratio <= rep.alpha_max_ratio <= b0 + 1e-9


def test_ratio_scan_witnesses_pin_extremes(a_ref_key):
    rep = ratio_scan(a_ref_key, 500, 99, include_witnesses=True)
    a0, _ = lower_constant(a_ref_key)
    b0 = upper_constant(a_ref_key)
    assert rep.min_ratio == pytest.approx(a0, abs=1e-8)
    assert rep.max_ratio == pytest.approx(b0, abs=1e-8)
    assert rep.alpha_min_ratio == pytest.approx(a0, abs=1e-8)
    assert rep.alpha_max_ratio == pytest.approx(b0, abs=1e-8)


def test_ratio_scan_deterministic(a_ref_key):
    assert ratio_scan(a_ref_key, 100, 7) == ratio_scan(a_ref_key, 100, 7)


def test_ratio_scan_validates_samples(a_ref_key):
    with pytest.raises(ValueError):
        ratio_scan(a_ref_key, 0, 1)


def test_ratio_scan_violation_type_exists():
    assert issubclass(LipschitzViolation, Exception)


def test_auxiliary_set_decomposition():
    rng = np.random.Generator(np.random.PCG64(61))
    key = generate_key(4, 7, 8)
    a = key.matrix
    for _ in range(300):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        lhs = float(np.sum((alpha(key, x) - alpha(key, y)) ** 2))
        cd = a.T @ (x - y)
        cs = a.T @ (x + y)
        in_s = np.abs(cd) <= np.abs(cs)
        rhs = float(np.sum(cd[in_s] ** 2) + np.sum(cs[~in_s] ** 2))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_a0_never_exceeds_b0():
    for seed in range(30):
        d = 2 + seed % 4
        D = d + seed % (d + 2)
        key = generate_key(d, D, 6000 + seed)
        a0, _ = lower_constant(key)
        assert a0 <= upper_constant(key) + 1e-12


@pytest.mark.parametrize("d,D", [(3, 8), (4, 12), (4, 16), (8, 15)])
def test_lower_constant_matches_loop_seeded(d, D):
    _assert_matches_loop(generate_key(d, D, 1).matrix)


def test_screen_keeps_few_masks():
    masks, settled, diagonalized = drain_screen(frame_keys._unit(generate_key(4, 16, 1)))
    assert 0 < masks.size <= 64  # of 32768
    assert masks[0] == 0 and np.all(np.diff(masks) > 0)
    assert settled + diagonalized == 1 << 15


@pytest.mark.parametrize("chunk", [1, 7, "gram-chunks-of-one-mask"])
def test_screen_chunks_match_single_chunk(monkeypatch, chunk):
    # by default the 256 masks are in blocks of 64, 64 and 128; a block is a
    # power of two of masks whose packed Grams (6 entries each) fit
    # _SCREEN_ENTRIES: 9 * chunk gives blocks of one and of eight masks, and
    # exactly one Gram's entries blocks of one mask, each its own seed
    key = generate_key(3, 9, 4)
    masks, _, _ = drain_screen(frame_keys._unit(key))
    monkeypatch.setattr(screens, "_SCREEN_ENTRIES", 6 if chunk == "gram-chunks-of-one-mask"
                        else 9 * chunk)
    blocked = drain_screen(frame_keys._unit(Key(key.matrix)))
    assert blocked[0].tobytes() == masks.tobytes()
    assert blocked[1] + blocked[2] == 1 << 8
    _assert_matches_loop(key.matrix)


def _walked(run):
    """run()'s result and the blocks of _partition_blocks it took, (start, end)."""
    blocks = []
    real = screens._partition_blocks

    def logged(*args):
        for block in real(*args):
            blocks.append((int(block[0][0]), int(block[0][-1]) + 1))
            yield block

    with pytest.MonkeyPatch.context() as m:
        m.setattr(screens, "_partition_blocks", logged)
        return run(), blocks


def _cover_settled(run):
    """run()'s result and the masks the A0 screen's cover settled in it (0
    when no cover was built). The screen builds its cover before its first
    block; then a block's masks with a side that oracles.cover marks at the
    cover's shift are settled by it, and only the others reach _unsettled,
    which a block with none does not call."""
    blocks, calls, tested = [], [], {}
    real_blocks, real_cover, real_unsettled = (
        screens._partition_blocks, screens._cover, screens._unsettled)

    def logged(*args):
        for block in real_blocks(*args):
            blocks.append((int(block[0][0]), int(block[0][-1]) + 1))
            yield block

    def recorded(unit, tau):
        cover = real_cover(unit, tau)
        calls.append((len(blocks), unit, tau, cover is None))
        return cover

    def counted(gi, total, full_i, full_c, *rest):
        tested[len(blocks) - 1] = full_i.size
        return real_unsettled(gi, total, full_i, full_c, *rest)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(screens, "_partition_blocks", logged)
        m.setattr(screens, "_cover", recorded)
        m.setattr(screens, "_unsettled", counted)
        result = run()
    if not calls or calls[0][3]:
        return result, 0
    ((walked, unit, tau, _),) = calls
    assert walked == 0
    covered = oracles.cover(unit, tau)
    full = (1 << unit.shape[1]) - 1
    by_cover = 0
    for i, block in enumerate(blocks):
        masks = np.arange(*block)
        n = int(np.count_nonzero(covered[masks] | covered[full ^ masks]))
        assert tested.get(i, 0) == masks.size - n
        by_cover += n
    return result, by_cover


def _assert_screen_matches_oracle(key):
    # the kept masks of the full bracket oracle: the screen walks every block
    (masks, settled, diagonalized), blocks = _walked(
        lambda: drain_screen(frame_keys._unit(key)))
    assert blocks[-1][1] == settled + diagonalized == 1 << (key.D - 1)
    ref_masks, _ = oracles.lower_constant_screen(Key(key.matrix))
    assert masks.tobytes() == ref_masks.tobytes()


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_screen_matches_full_bracket_oracle_adversarial(name):
    _assert_screen_matches_oracle(Key(ADVERSARIAL[name]))


@pytest.mark.parametrize("d,D", [(4, 16), (8, 15), (5, 18)])
def test_screen_matches_full_bracket_oracle(d, D):
    key = generate_key(d, D, 1)
    _assert_screen_matches_oracle(key)
    a0, part = lower_constant(key)
    ref_a0, ref_mask = oracles.lower_constant(Key(key.matrix))
    assert np.float64(a0).tobytes() == np.float64(ref_a0).tobytes()
    assert part.mask == ref_mask


@pytest.mark.parametrize("d,D", [(4, 16), (8, 15)])
def test_search_settles_most_masks(d, D):
    search = lipschitz.lower_constant_search(generate_key(d, D, 1))
    assert search.settled + search.diagonalized == 1 << (D - 1)
    assert search.settled >= 0.9 * (1 << (D - 1))
    assert 0 < search.visited <= 64


def _unseeded(key):
    """The A0 search with no descent bound, as it runs on the keys that get
    none: the walk the work pins made before the bound describe."""
    tie = lipschitz._TIE_WINDOW * upper_constant(key)
    return lipschitz.LowerConstantSearch(*lipschitz._search(key, tie, np.inf))


def _assert_search_work(d, D, settled, diagonalized, visited, run=_unseeded):
    key = generate_key(d, D, 1)
    search = run(key)
    assert (search.settled, search.diagonalized, search.visited) == (settled, diagonalized, visited)
    a0, part = search.result
    ref_a0, ref_mask = oracles.lower_constant(Key(key.matrix))
    assert np.float64(a0).tobytes() == np.float64(ref_a0).tobytes()
    assert part.mask == ref_mask


@pytest.mark.parametrize("d,D,settled,diagonalized,visited", [
    (4, 16, 32556, 212, 31), (8, 15, 16311, 73, 31), (5, 18, 130875, 197, 38)])
def test_search_work_is_pinned_at_the_default_blocks(d, D, settled, diagonalized, visited):
    # the unseeded walk: blocks double from _FIRST_BLOCK masks
    _assert_search_work(d, D, settled, diagonalized, visited)


@pytest.mark.parametrize("d,D,settled,diagonalized,visited", [
    (4, 16, 32766, 2, 1), (8, 15, 16300, 84, 7), (5, 18, 131063, 9, 1)])
def test_seeded_search_work_is_pinned(monkeypatch, d, D, settled, diagonalized, visited):
    # the seeded walk: the descent bound's cut keeps only masks below it, in
    # full-size blocks with the cover from block 0 on. At 8x15 (D = 2d - 1)
    # the search as it runs walks no blocks, so the walk is forced there
    monkeypatch.setattr(lipschitz, "_open_split_search", lipschitz._search)
    _assert_search_work(d, D, settled, diagonalized, visited, lipschitz.lower_constant_search)


def test_open_split_search_work_is_pinned():
    # the search as it runs at 8x15 (D = 2d - 1): it walks no blocks, and 2
    # of the 2^14 splits are open
    _assert_search_work(8, 15, 16382, 2, 2, lipschitz.lower_constant_search)


@pytest.mark.parametrize("d,D,settled,diagonalized,visited", [
    (4, 16, 32605, 163, 31), (8, 15, 16348, 36, 31), (5, 18, 130925, 147, 38)])
def test_search_work_is_pinned(monkeypatch, d, D, settled, diagonalized, visited):
    # the blocks the full (d, d) Gram layout cut: doubling from one mask up to
    # 1 << 16 entries at d * d per Gram, 4096 masks at d = 4 and 1024 at d = 8.
    # The running bound moves once per block, so the counts depend on where
    # blocks end; on these blocks the packed screen does the work that layout
    # did, mask for mask. At d = 5 that layout's 2621-mask blocks are not a
    # power of two; the aligned 2048-mask blocks give the same counts
    p, full = d * (d + 1) // 2, d * d
    monkeypatch.setattr(screens, "_FIRST_BLOCK", 1)
    monkeypatch.setattr(screens, "_SCREEN_ENTRIES", (1 << 16) // full * p)
    _assert_search_work(d, D, settled, diagonalized, visited)


_SETTLED_KEYS = {**ADVERSARIAL, **{f"{d}x{D}": generate_key(d, D, 1).matrix
                                   for d, D in ((4, 16), (8, 15), (5, 18), (5, 8))}}


@pytest.mark.parametrize("name", sorted(_SETTLED_KEYS))
def test_settled_matches_four_call_oracle(monkeypatch, name):
    # every block of the walk, at the running hi_run and at hi_run = inf; 5x8
    # has D < 2d - 1. In a seeded walk the masks with a side the cover
    # marks are settled without a Gram, and the others reach _unsettled, so
    # the search's settled count is the two together. At D = 2d - 1 (8x15)
    # the search as it runs walks no blocks, so the seeded walk is forced
    matrix = _SETTLED_KEYS[name]
    real = screens._unsettled
    settled = []
    monkeypatch.setattr(lipschitz, "_open_split_search", lipschitz._search)

    def checked(gi, total, full_i, full_c, hi_run, err_s, err_lam):
        # the oracle reads the block's full Grams, side C's for every mask
        full_gi, full_gc = screens.unpack(gi), screens.unpack(total[:, None] - gi)
        for h in (np.inf, hi_run):
            rows, gu, gc = real(gi, total, full_i, full_c, h, err_s, err_lam)
            want = oracles.settled(full_gi, full_gc, full_i, full_c, h, err_s, err_lam)
            assert np.array_equal(rows, np.flatnonzero(~want))
            # both sides' Grams of the masks left unsettled, every side the
            # screen's eigvalsh reads
            assert gu.tobytes() == gi[:, rows].tobytes()
            assert gc.tobytes() == (total[:, None] - gi)[:, rows].tobytes()
        settled.append(full_i.size - rows.size)
        return rows, gu, gc

    monkeypatch.setattr(screens, "_unsettled", checked)
    search, by_cover = _cover_settled(lambda: lipschitz.lower_constant_search(Key(matrix)))
    assert sum(settled) + by_cover == search.settled
    if matrix.shape[1] <= 12:  # and in blocks of one mask: unseeded walks, with no cover
        monkeypatch.setattr(screens, "_SCREEN_ENTRIES", 9)
        settled.clear()
        search, by_cover = _cover_settled(lambda: lipschitz.lower_constant_search(Key(matrix)))
        assert sum(settled) == search.settled and by_cover == 0


@pytest.mark.parametrize("scale", [2.0**-450, 2.0**450])
def test_keys_outside_the_screen_range_skip_it(scale):
    # named when keys this far from unit scale skipped the screen; now every
    # key is screened on its unit copy, which is that of the unscaled key, so
    # the work is the unscaled key's
    matrix = A_REF * scale
    _assert_matches_loop(matrix)
    search = lipschitz.lower_constant_search(Key(matrix))
    plain = lipschitz.lower_constant_search(Key(A_REF))
    assert (search.settled, search.diagonalized, search.visited) == (
        plain.settled, plain.diagonalized, plain.visited)


_SUBNORMAL_KEYS = {f"{d}x{D}": generate_key(d, D, 1).matrix for d, D in ((3, 5), (3, 8), (4, 10))}
_SUBNORMAL_KEYS.update({name: m for name, m in ADVERSARIAL.items() if np.any(m)})


@pytest.mark.parametrize("k", [-1060, -1070])
@pytest.mark.parametrize("name", sorted(_SUBNORMAL_KEYS))
def test_keys_at_subnormal_scale(name, k):
    # the exact path's SVDs round to the subnormal grid, a spacing the screens'
    # allowance carries; certificates and A0 are still those of their
    # definitions
    key = Key(_SUBNORMAL_KEYS[name] * 2.0**k)
    rep = has_complement_property(key)
    assert (rep.verdict, rep.witness, rep.method) == oracles.complement_property(key)
    deficient, clears = oracles.subset_decision(key)
    spark = frame_keys.is_full_spark(key)
    assert (spark.verdict, spark.witness) == (deficient is None, deficient)
    scan = frame_keys.subset_scan(key)
    assert (scan.deficient, scan.clears_margin) == (deficient, clears)
    _assert_matches_loop(key.matrix)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_lower_constant_matches_loop_adversarial(name):
    _assert_matches_loop(ADVERSARIAL[name])


@st.composite
def _repeated_identities(draw):
    """[I_d I_d ... I_d], d <= 4 and at most 9 columns, its columns shuffled
    and scaled by 1, 1e-200 or 1e200: a key whose splits tie in many ways."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 9 // d))
    order = draw(st.permutations(range(d * k)))
    scale = draw(st.sampled_from([1.0, 1e-200, 1e200]))
    return np.hstack([np.eye(d)] * k)[:, order] * scale


# float or integer keys, d <= 4 and D <= 9, and repeated identities
_SMALL_KEYS = st.one_of(
    st.integers(1, 4).flatmap(
        lambda d: st.integers(1, 9).flatmap(
            lambda D: st.lists(
                st.one_of(st.floats(-1e3, 1e3), st.integers(-2, 2).map(float)),
                min_size=d * D,
                max_size=d * D,
            ).map(lambda v: np.array(v).reshape(d, D))
        )
    ),
    _repeated_identities(),
)


@settings(max_examples=60, deadline=None)
@given(_SMALL_KEYS)
def test_lower_constant_matches_loop_hypothesis(matrix):
    _assert_matches_loop(matrix)


def test_lower_constant_memoized(monkeypatch):
    calls = []
    search = lipschitz._lower_constant
    monkeypatch.setattr(lipschitz, "_lower_constant", lambda key: calls.append(1) or search(key))
    key = generate_key(3, 6, 9)
    first = lower_constant(key)
    assert lower_constant(key) is first
    verify.run_battery(key, 5, 1)
    assert len(calls) == 1
    lower_constant(Key(key.matrix))
    assert len(calls) == 2


def _searched(monkeypatch, key):
    """The key's A0 search and the blocks of screens._screen it read, each
    (masks, lo, settled, diagonalized). At D = 2d - 1 the search as it runs
    walks no blocks (lipschitz._open_split_search), so the seeded walk is
    forced in its place."""
    blocks = []
    real = screens._screen

    def recorded(*args):
        for block in real(*args):
            blocks.append(block)
            yield block

    with monkeypatch.context() as m:
        m.setattr(screens, "_screen", recorded)
        m.setattr(lipschitz, "_open_split_search", lipschitz._search)
        search = lipschitz.lower_constant_search(key)
    return search, blocks


def _assert_exact_pass_matches_loop(monkeypatch, matrix, tol=numerics.DEFAULT_TOL):
    # the stacked exact pass against oracles.exact_pass, the loop of two
    # numerics.sigma_k calls per mask, on the masks the screen kept in the
    # blocks the search read; every value is >= 0, so 0 is a lower end for
    # each. The pass visits every kept mask of those blocks
    key = Key(matrix, tol)
    search, blocks = _searched(monkeypatch, key)
    masks = np.concatenate([b[0] for b in blocks])
    a0, mask, _ = oracles.exact_pass(key, masks, np.zeros(masks.size))
    assert (search.settled, search.diagonalized, search.visited) == (
        sum(b[2] for b in blocks), sum(b[3] for b in blocks), masks.size)
    assert np.float64(search.result[0]).tobytes() == np.float64(a0).tobytes()
    assert search.result[1].mask == mask


@pytest.mark.parametrize("factor", [1e-16, 1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_exact_pass_matches_loop_adversarial(monkeypatch, name, factor):
    _assert_exact_pass_matches_loop(
        monkeypatch, ADVERSARIAL[name], numerics.ToleranceConfig(rank_tol_factor=factor))


@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_exact_pass_windows_match_loop(monkeypatch, name, window):
    # the pass's stacked SVDs taken in windows of 1 and of 3 masks
    # (screens._CHUNK_ENTRIES): window ends inside and between the stacks
    # of one side size, and between side I's masks and side C's
    monkeypatch.setattr(screens, "_CHUNK_ENTRIES", window * ADVERSARIAL[name].size)
    _assert_exact_pass_matches_loop(monkeypatch, ADVERSARIAL[name])


@pytest.mark.parametrize("d,D", [(3, 8), (4, 12), (4, 16), (8, 15), (5, 18), (3, 12)])
def test_exact_pass_matches_loop_seeded(monkeypatch, d, D):
    _assert_exact_pass_matches_loop(monkeypatch, generate_key(d, D, 1).matrix)


def test_exact_pass_matches_loop_at_the_cap(monkeypatch):
    # the 4x24 key of the CI A0 cap smoke step
    _assert_exact_pass_matches_loop(monkeypatch, generate_key(4, 24, 1).matrix)


def _entries(n):
    return st.lists(st.one_of(st.floats(-1e3, 1e3), st.integers(-2, 2).map(float)),
                    min_size=n, max_size=n)


@st.composite
def _keys_with_rank_deficient(draw):
    """A d x D key, d <= 4 and D <= 10, with float or integer entries: drawn
    whole, or as the product of d x r and r x D factors with r < d."""
    d, D = draw(st.integers(1, 4)), draw(st.integers(1, 10))
    r = draw(st.integers(0, d))
    if r == d:
        return np.array(draw(_entries(d * D))).reshape(d, D)
    left = np.array(draw(_entries(d * r))).reshape(d, r)
    return left @ np.array(draw(_entries(r * D))).reshape(r, D)


@settings(max_examples=60, deadline=None)
@given(_keys_with_rank_deficient())
def test_exact_pass_matches_loop_hypothesis(matrix):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_exact_pass_matches_loop(monkeypatch, matrix)
    a0, part = lower_constant(Key(matrix))
    ref_a0, ref_mask = oracles.lower_constant(Key(matrix))
    assert np.float64(a0).tobytes() == np.float64(ref_a0).tobytes()
    assert part.mask == ref_mask


def _r24():
    """The rank-3 4x24 key of the CI degenerate smoke step: every split has
    the value 0 up to rounding."""
    return generate_key(4, 3, 1).matrix @ generate_key(3, 24, 2).matrix


@pytest.mark.parametrize("name", ["rank-deficient", "zero", "all-ones", "rank-3-4x12"])
def test_mask_0_decides_a_rank_deficient_key(name):
    # sigma_d(A), the value of mask 0, is within the tie window of 0: no
    # other split can pass the visit's test, and the search ends with its
    # first block, in which no test settles a mask
    matrix = ADVERSARIAL.get(name)
    if matrix is None:
        matrix = generate_key(4, 3, 1).matrix @ generate_key(3, 12, 2).matrix
    search = lipschitz.lower_constant_search(Key(matrix))
    first = min(screens._FIRST_BLOCK, 1 << (matrix.shape[1] - 1))
    assert (search.settled, search.diagonalized) == (0, first)
    a0, part = search.result
    ref_a0, ref_mask = oracles.lower_constant(Key(matrix))
    assert np.float64(a0).tobytes() == np.float64(ref_a0).tobytes()
    assert part.mask == ref_mask == 0


def test_mask_0_decides_a_rank_deficient_key_at_the_cap():
    # rank 3 at d = 4: the search ends with its first block of 64 splits,
    # every one diagonalized and kept. One more column is over the cap
    product = _r24()
    search = lipschitz.lower_constant_search(Key(product))
    assert (search.settled, search.diagonalized, search.visited) == (0, 64, 64)
    a0, part = search.result
    assert part.indices() == ()
    assert np.float64(a0).tobytes() == np.float64(numerics.sigma_k(product, 4)).tobytes()
    wide = generate_key(4, 3, 1).matrix @ generate_key(3, 25, 2).matrix
    with pytest.raises(SearchTooLarge):
        lipschitz.lower_constant_search(Key(wide))


@pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 3.0])
def test_mask_0_decides_only_within_the_tie_window(c):
    # sigma_2 of diag(1, c * 1e-12) is c times the tie window 1e-12 * B0;
    # the split {1} | {2} has the value 0 and replaces mask 0 only when
    # mask 0's value is above the window
    matrix = np.diag([1.0, c * lipschitz._TIE_WINDOW])
    search = lipschitz.lower_constant_search(Key(matrix))
    assert search.result[1].mask == (1 if c > 1 else 0)
    _assert_matches_loop(matrix)


def _planted_8x15():
    """The 8x15 key (keygen seed 1) with column 15 = c1 + c2 + 1e-9 c3."""
    matrix = generate_key(8, 15, 1).matrix.copy()
    matrix[:, 14] = matrix[:, 0] + matrix[:, 1] + 1e-9 * matrix[:, 2]
    return matrix


_STOP_KEYS = {
    **ADVERSARIAL,
    **{f"{d}x{D}": generate_key(d, D, 1).matrix for d, D in ((5, 8), (6, 9), (7, 12))},
    **{f"I{d}x{k}": np.hstack([np.eye(d)] * k)
       for d, ks in ((1, (2, 5)), (2, (2, 3, 5)), (3, (2, 3, 4)), (4, (2, 3, 4))) for k in ks},
    "planted-8x15": _planted_8x15(),
    "r24": _r24(),
}

# (settled, diagonalized, visited) of tie-heavy keys whose exact best
# reaches the tie window before the last block. All but planted-8x15 run
# unseeded: their descent bound is within the window, or none is sought.
# planted-8x15's descent misses its split of value 1.6e-16 and bounds A0
# by 5.2e-10, above the window, so its walk is seeded; unseeded it did the
# work of _UNSEEDED_STOP_WORK
_STOP_WORK = {"planted-8x15": (2012, 36, 36), "I4x4": (6079, 2113, 938), "r24": (0, 64, 64),
              "zero": (0, 32, 32)}
_UNSEEDED_STOP_WORK = {"planted-8x15": (949, 75, 32)}


@pytest.mark.parametrize("name", sorted(_STOP_KEYS))
def test_search_stops_with_the_first_block_within_the_tie_window(monkeypatch, name):
    # the search ends with the first block after which the full visit's
    # best, over every mask up to the block's end (the loop oracle), is
    # within the tie window, or with the last block; no later mask can pass
    # the visit's test, so the answer is the full visit's
    key = Key(_STOP_KEYS[name])
    search, blocks = _searched(monkeypatch, key)
    walked = search.settled + search.diagonalized
    start = walked - blocks[-1][2] - blocks[-1][3]  # where the last block starts
    tie = lipschitz._TIE_WINDOW * upper_constant(key)
    if start:
        assert _lower_constant_loop(key, start)[0] > tie
    if walked < 1 << (key.D - 1):
        best_val, best_mask = _lower_constant_loop(key, walked)
        assert best_val <= tie
    else:
        best_val, best_mask = _lower_constant_loop(key)
    a0, part = search.result
    assert np.float64(a0).tobytes() == np.float64(best_val).tobytes()
    assert part.mask == best_mask
    if key.D <= 16:
        ref_a0, ref_mask = oracles.lower_constant(Key(key.matrix))
        assert np.float64(a0).tobytes() == np.float64(ref_a0).tobytes()
        assert part.mask == ref_mask
    if name in _STOP_WORK:
        assert (search.settled, search.diagonalized, search.visited) == _STOP_WORK[name]
    if name in _UNSEEDED_STOP_WORK:
        plain = _unseeded(Key(key.matrix))
        assert (plain.settled, plain.diagonalized, plain.visited) == _UNSEEDED_STOP_WORK[name]


def test_search_stops_early_on_the_11x20_key():
    # the complement-walk smoke key of CI: mask 1023 = {1..10} has the value
    # 0, and the search ends with its block, [512, 1024), of 2^19 splits
    search = lipschitz.lower_constant_search(generate_key(11, 20, 1))
    assert (search.settled, search.diagonalized, search.visited) == (915, 109, 34)
    a0, part = search.result
    assert a0 == 0.0 and part.mask == 1023


@pytest.mark.parametrize("d,D,most", [(8, 15, None), (4, 16, 41264), (5, 18, 155318)])
def test_search_kernel_work_is_pinned(monkeypatch, d, D, most):
    # the Grams the packed kernel receives during the unseeded search, which
    # builds no cover. At D = 2d - 1 exactly one side of each split spans,
    # and only it is factored: one Gram per mask after the first block,
    # which no test screens
    grams = []
    real = screens._shifted_cholesky_ok_inplace
    monkeypatch.setattr(screens, "_shifted_cholesky_ok_inplace",
                        lambda w, tau: grams.append(w.shape[1]) or real(w, tau))

    def search():
        _unseeded(generate_key(d, D, 1))
        return sum(grams)  # before the cover oracle's own kernel calls

    if most is None:
        factored, by_cover = _cover_settled(search)
        assert (factored, by_cover) == ((1 << (D - 1)) - screens._FIRST_BLOCK, 0) == (16320, 0)
    else:
        assert search() <= most


@pytest.mark.parametrize("d,D,grams,calls", [
    (8, 15, 16320, 12), (4, 16, 40398, 30), (5, 18, 152266, 55), (4, 12, 2584, 15)])
def test_search_kernel_calls_are_pinned(monkeypatch, d, D, grams, calls):
    # one call per block after the first, which no test screens, for side I
    # where it spans and side C where only it spans; at D = 2d - 1 that is
    # every call. Elsewhere a block may add a call for side C where both
    # sides span and side I failed, and one for the both-sides test. In a
    # block copied whole, side C takes the columns of the sides I that do
    # not span. These are the unseeded walk's figures, which builds no cover
    _assert_kernel_work(monkeypatch, d, D, (grams, calls), _unseeded)


# the kernel's Grams and calls in the search as it runs, seeded with the
# descent bound, whose cover is built at block 0. At 8x15 (D = 2d - 1) the
# search walks no blocks: the 1050 8-subsets that fail the cut's shift are
# factored at falling shifts, 242, 60 and 17 of them failing in turn, then
# all of them at the second cut's; the seeded walk made (1112, 8) there
_SEEDED_KERNEL_WORK = {(8, 15): (2419, 5), (4, 16): (26, 6), (5, 18): (147, 20),
                       (4, 12): (92, 3)}


@pytest.mark.parametrize("d,D", sorted(_SEEDED_KERNEL_WORK))
def test_seeded_search_kernel_calls_are_pinned(monkeypatch, d, D):
    _assert_kernel_work(monkeypatch, d, D, _SEEDED_KERNEL_WORK[d, D],
                        lipschitz.lower_constant_search)


def _assert_kernel_work(monkeypatch, d, D, work, run):
    """(Grams, calls) the packed kernel receives in run(key) on the keygen
    seed-1 d x D key; at D = 2d - 1 the calls are pinned exactly, elsewhere
    as a ceiling."""
    sizes = []
    with monkeypatch.context() as m:
        real = screens._shifted_cholesky_ok_inplace
        m.setattr(screens, "_shifted_cholesky_ok_inplace",
                  lambda w, tau: sizes.append(w.shape[1]) or real(w, tau))
        run(generate_key(d, D, 1))
    assert sum(sizes) == work[0]
    if D == 2 * d - 1:
        assert len(sizes) == work[1]
    else:
        assert len(sizes) <= work[1]


# --- the descent bound ----------------------------------------------------------

def _bounds(key, tie, plain):
    """Start bounds h the search could be given, each the value the visit
    computes for a split, above the tie window: mask 0's, I0's (h = A0, the
    tightest), the descent's split's (where D > 2d - 2 and D > 1, as in the
    searches it serves) and those of a few seeded masks."""
    d, D = key.d, key.D
    masks = [0, plain.result[1].mask]
    if D > max(2 * d - 2, 1):
        masks.append(lipschitz._descent(frame_keys._unit(key).matrix))
    rng = np.random.Generator(np.random.PCG64(D))
    masks += rng.integers(0, 1 << (D - 1), size=3).tolist()
    values = lipschitz._split_values(key.matrix, np.array(masks))
    return values[values > tie]


def _assert_seeded_matches_unseeded(matrix, tol=numerics.DEFAULT_TOL):
    """The walk with the cut h + 2 tie gives the unseeded walk's A0 bits and
    I0 for every h of _bounds, unless it reports a band hit; so does the
    search as it runs. Returns the number of band hits."""
    key = Key(matrix, tol)
    tie = lipschitz._TIE_WINDOW * upper_constant(key)
    plain = _unseeded(key)
    hits = 0
    for h in _bounds(key, tie, plain):
        result, settled, diagonalized, visited = lipschitz._search(key, tie, h + 2 * tie)
        if result is None:
            hits += 1
            continue
        assert np.float64(result[0]).tobytes() == np.float64(plain.result[0]).tobytes(), h
        assert result[1].mask == plain.result[1].mask, h
        assert settled + diagonalized <= 1 << (key.D - 1) and visited <= diagonalized
    a0, part = lipschitz.lower_constant_search(Key(matrix, tol)).result
    assert np.float64(a0).tobytes() == np.float64(plain.result[0]).tobytes()
    assert part.mask == plain.result[1].mask
    return hits


@pytest.mark.parametrize("factor", [1e-16, 1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_seeded_search_matches_unseeded_adversarial(name, factor):
    _assert_seeded_matches_unseeded(
        ADVERSARIAL[name], numerics.ToleranceConfig(rank_tol_factor=factor))


@pytest.mark.parametrize("d,D", [(4, 16), (8, 15), (5, 18), (4, 12), (6, 14)])
def test_seeded_search_matches_unseeded_seeded_keys(d, D):
    assert _assert_seeded_matches_unseeded(generate_key(d, D, 1).matrix) == 0


def test_seeded_search_matches_unseeded_at_the_cap():
    # the 4x24 key of the CI A0 cap smoke step; the unseeded walk screens all
    # 2^23 splits (about 0.7 s), the seeded one settles all but 812
    key = generate_key(4, 24, 1)
    search, plain = lipschitz.lower_constant_search(key), _unseeded(Key(key.matrix))
    assert np.float64(search.result[0]).tobytes() == np.float64(plain.result[0]).tobytes()
    assert search.result[1].mask == plain.result[1].mask
    assert (search.settled, search.diagonalized, search.visited) == (8387796, 812, 6)


@settings(max_examples=60, deadline=None)
@given(_SMALL_KEYS)
def test_seeded_search_matches_unseeded_hypothesis(matrix):
    _assert_seeded_matches_unseeded(matrix)


def test_band_hit_redoes_the_search_unseeded(monkeypatch):
    # h = A0 - 1.5 tie puts A0 itself in the band [c - tie, c): I0 is below
    # the cut and a record, so the seeded walk keeps and visits it, reports
    # the hit, and the search is redone unseeded; the counts add both walks'
    key = generate_key(4, 16, 1)
    tie = lipschitz._TIE_WINDOW * upper_constant(key)
    plain = _unseeded(key)
    cut = (plain.result[0] - 1.5 * tie) + 2 * tie
    assert cut - tie <= plain.result[0] < cut
    seeded = lipschitz._search(Key(key.matrix), tie, cut)
    assert seeded[0] is None
    cuts, real = [], lipschitz._search
    monkeypatch.setattr(lipschitz, "_descent_bound", lambda key, tie: plain.result[0] - 1.5 * tie)
    monkeypatch.setattr(lipschitz, "_search",
                        lambda key, tie, c: cuts.append(c) or real(key, tie, c))
    search = lipschitz.lower_constant_search(Key(key.matrix))
    assert cuts == [cut, np.inf]
    assert np.float64(search.result[0]).tobytes() == np.float64(plain.result[0]).tobytes()
    assert search.result[1].mask == plain.result[1].mask
    assert (search.settled, search.diagonalized, search.visited) == tuple(
        a + b for a, b in zip(seeded[1:], (plain.settled, plain.diagonalized, plain.visited)))


_SEEDED_SCREEN_KEYS = {**ADVERSARIAL, **{f"{d}x{D}": generate_key(d, D, 1).matrix
                                         for d, D in ((4, 16), (8, 15), (4, 12))}}


@pytest.mark.parametrize("name", sorted(_SEEDED_SCREEN_KEYS))
def test_seeded_screen_matches_full_bracket_oracle(name):
    # with a start bound, the screen keeps the masks of the full bracket
    # oracle whose lower end is also below it, in full-size blocks
    key = Key(_SEEDED_SCREEN_KEYS[name])
    unit = frame_keys._unit(key)
    tie = lipschitz._TIE_WINDOW * upper_constant(key)
    for h in _bounds(key, tie, _unseeded(key)):
        bound = np.ldexp(h + 2 * tie, -unit.e)
        (masks, settled, diagonalized), blocks = _walked(lambda: drain_screen(unit, bound))
        assert settled + diagonalized == 1 << (key.D - 1)
        largest = 1 << screens._block_bits(key.d, key.D)
        assert all(end - start == largest for start, end in blocks)
        ref_masks, _ = oracles.lower_constant_screen(Key(key.matrix), bound)
        assert masks.tobytes() == ref_masks.tobytes()


@pytest.mark.parametrize("name", ["zero-3x12", "11x20", "3x8", "r24", "3x9"])
def test_no_descent_where_the_search_runs_unseeded(monkeypatch, name):
    # tie = 0; D <= 2d - 2; walks of at most 4 * _FIRST_BLOCK masks; and
    # sigma_d(A), mask 0's value, within the tie window: the search is the
    # unseeded walk, with its work
    matrix = {"zero-3x12": np.zeros((3, 12)), "11x20": generate_key(11, 20, 1).matrix,
              "3x8": generate_key(3, 8, 1).matrix, "r24": _r24(),
              "3x9": generate_key(3, 9, 1).matrix}[name]
    plain = _unseeded(Key(matrix))

    def refused(u):
        raise AssertionError("descent ran")

    monkeypatch.setattr(lipschitz, "_descent", refused)
    search = lipschitz.lower_constant_search(Key(matrix))
    assert np.float64(search.result[0]).tobytes() == np.float64(plain.result[0]).tobytes()
    assert (search.result[1].mask, search.settled, search.diagonalized, search.visited) == (
        plain.result[1].mask, plain.settled, plain.diagonalized, plain.visited)


@pytest.mark.parametrize("d,D", [(4, 16), (8, 15), (3, 12), (1, 12), (6, 11)])
def test_descent_ends_at_a_canonical_split_at_any_scale(d, D):
    # the descent reads the unit copy: the key times a power of two far from
    # 1 gives the same split, and no floating-point warning
    matrix = generate_key(d, D, 2).matrix
    mask = lipschitz._descent(frame_keys._unit(Key(matrix)).matrix)
    assert 0 <= mask < 1 << (D - 1)
    for scale in (2.0**-1000, 2.0**1000):
        unit = frame_keys._unit(Key(matrix * scale)).matrix
        with np.errstate(all="raise"):
            assert lipschitz._descent(unit) == mask


# --- the search at D = 2d - 1 ----------------------------------------------------

def _block_walk(matrix):
    """The search with the seeded block walk forced at D = 2d - 1, where
    lipschitz._open_split_search takes its place: that search's oracle."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lipschitz, "_open_split_search", lipschitz._search)
        return lipschitz.lower_constant_search(Key(matrix))


def _assert_open_splits_match_block_walk(matrix):
    """The search as it runs gives the forced block walk's A0 bits and I0;
    returns whether it took _open_split_search, and its work."""
    taken = []
    real = lipschitz._open_split_search
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lipschitz, "_open_split_search",
                  lambda *args: taken.append(1) or real(*args))
        search = lipschitz.lower_constant_search(Key(matrix))
    walk = _block_walk(matrix)
    assert np.float64(search.result[0]).tobytes() == np.float64(walk.result[0]).tobytes()
    assert search.result[1].mask == walk.result[1].mask
    return bool(taken), search


def _odd_keys(d):
    """(d, 2d - 1) keys: keygen seed 1; seed 2 with one column replaced by a
    combination of three others plus 1e-9 times a fourth; entries drawn
    from {-1, 0, 1}; and seed 3 times 2^-600."""
    D = 2 * d - 1
    rng = np.random.Generator(np.random.PCG64(d))
    near = generate_key(d, D, 2).matrix.copy()
    picks = rng.permutation(D)[:5]
    near[:, picks[0]] = near[:, picks[1:4]] @ rng.standard_normal(3) + 1e-9 * near[:, picks[4]]
    return {"keygen": generate_key(d, D, 1).matrix, "near-dependent": near,
            "integer": rng.integers(-1, 2, size=(d, D)).astype(float),
            "tiny": generate_key(d, D, 3).matrix * 2.0**-600}


@pytest.mark.parametrize("d", [6, 7, 8, 9, 10])
def test_open_split_search_matches_block_walk(d):
    # the search at D = 2d - 1 walks no blocks when the descent gives a cut,
    # as on the generic keys at any scale; the descent may find a value
    # within the tie window on the others, and then no cut is used
    for name, matrix in _odd_keys(d).items():
        taken, _ = _assert_open_splits_match_block_walk(matrix)
        assert taken or name in ("near-dependent", "integer"), name


@pytest.mark.parametrize("d", [11, 12])
def test_open_split_search_matches_block_walk_at_the_cap(d):
    # 12x23 is the CI cap key; its seeded walk took about 1 s, this search
    # about 0.15 s (2-vCPU x86-64 VM, BLAS on one thread)
    taken, search = _assert_open_splits_match_block_walk(generate_key(d, 2 * d - 1, 1).matrix)
    assert taken
    if d == 12:
        assert (search.settled, search.diagonalized, search.visited) == (4194198, 106, 106)


def test_open_split_search_on_the_planted_8x15_key():
    # the 792 8-subsets that hold columns 1, 2 and 15 fail the cut's shift,
    # and all of them fail the first falling shift too, which ends the
    # steps: the second cut comes from the first 8, which also hold column
    # 3 and have values of rounding size. The 792 open splits are those
    # subsets' own, no larger set is open, and the first chunk of 64 holds
    # a value within the tie window, which ends the visit
    matrix = _planted_8x15()
    taken, search = _assert_open_splits_match_block_walk(matrix)
    assert taken
    a0, part = search.result
    assert a0 == 1.6324844100427064e-16 and part.indices() == (4, 5, 6, 7, 8, 9, 10)
    assert (search.settled, search.diagonalized, search.visited) == (15592, 792, 64)


@st.composite
def _odd_shapes(draw):
    """A d x (2d - 1) key, d = 6 or 7, float or integer entries, times 1 or
    1e-200."""
    d = draw(st.integers(6, 7))
    matrix = np.array(draw(_entries(d * (2 * d - 1)))).reshape(d, 2 * d - 1)
    return matrix * draw(st.sampled_from([1.0, 1e-200]))


@settings(max_examples=30, deadline=None)
@given(_odd_shapes())
def test_open_split_search_matches_block_walk_hypothesis(matrix):
    _assert_open_splits_match_block_walk(matrix)


def test_open_split_search_band_hit_redoes_the_search_unseeded(monkeypatch):
    # h = A0 - 1.5 tie puts A0 in the band [c - tie, c) of the cut c = h +
    # 2 tie; no value the visit computes is below A0, so the second cut is
    # c, the split of A0 is open, and its visit reports the hit; the search
    # is redone unseeded, and the counts add both searches'
    key = generate_key(8, 15, 1)
    tie = lipschitz._TIE_WINDOW * upper_constant(key)
    plain = _unseeded(key)
    cut = (plain.result[0] - 1.5 * tie) + 2 * tie
    first = lipschitz._open_split_search(Key(key.matrix), tie, cut)
    assert first[0] is None
    calls, real = [], lipschitz._search
    monkeypatch.setattr(lipschitz, "_descent_bound", lambda key, tie: plain.result[0] - 1.5 * tie)
    monkeypatch.setattr(lipschitz, "_search", lambda key, tie, c: calls.append(c) or real(key, tie, c))
    search = lipschitz.lower_constant_search(Key(key.matrix))
    assert calls == [np.inf]
    assert np.float64(search.result[0]).tobytes() == np.float64(plain.result[0]).tobytes()
    assert search.result[1].mask == plain.result[1].mask
    assert (search.settled, search.diagonalized, search.visited) == tuple(
        a + b for a, b in zip(first[1:], (plain.settled, plain.diagonalized, plain.visited)))


@pytest.mark.parametrize("limit", ["subset-grams", "open-splits"])
def test_open_split_search_falls_back_to_the_seeded_walk(monkeypatch, limit):
    # F's Grams over screens._CHUNK_ENTRIES (1050 failing 8-subsets of the
    # 8x15 key, 36 entries each), or more open splits than one block of the
    # walk (792 on the planted 8x15 key, in blocks of 512): the seeded walk
    # runs instead, at the descent's cut or at the second cut below it
    matrix = generate_key(8, 15, 1).matrix if limit == "subset-grams" else _planted_8x15()
    key = Key(matrix)
    tie = lipschitz._TIE_WINDOW * upper_constant(key)
    cut = lipschitz._descent_bound(key, tie) + 2 * tie
    if limit == "subset-grams":
        monkeypatch.setattr(screens, "_CHUNK_ENTRIES", 36 * 1049)
    else:
        monkeypatch.setattr(screens, "_SCREEN_ENTRIES", 36 * 512)
    calls, real = [], lipschitz._search
    monkeypatch.setattr(lipschitz, "_search", lambda key, tie, c: calls.append(c) or real(key, tie, c))
    search = lipschitz.lower_constant_search(Key(matrix))
    assert len(calls) == 1
    assert calls[0] == cut if limit == "subset-grams" else calls[0] < cut
    walk = real(Key(matrix), tie, calls[0])
    assert (search.result[0], search.result[1].mask, search.settled, search.diagonalized,
            search.visited) == (walk[0][0], walk[0][1].mask, *walk[1:])
    want = _block_walk(matrix).result
    assert np.float64(search.result[0]).tobytes() == np.float64(want[0]).tobytes()
    assert search.result[1].mask == want[1].mask


@pytest.mark.parametrize("d", [2, 3, 4])
def test_open_splits_match_every_split(d):
    # the level-wise closure against every split: open when each d-subset of
    # its side of at least d columns fails the kernel at the shift, here a
    # random choice of the d-subsets made to fail with a negative Gram entry
    D = 2 * d - 1
    rng = np.random.Generator(np.random.PCG64(d))
    subsets = list(itertools.combinations(range(D), d))
    for share in (0.2, 0.6, 0.9, 1.0):
        fail = rng.random(len(subsets)) < share
        sets = np.array([sum(1 << c for c in t) for t in subsets], dtype=np.int64)
        grams = np.repeat(screens.pack(np.eye(d))[:, None], len(subsets), axis=1)
        grams[0, fail] = -1.0  # the first pivot of each failing Gram; the others factor at 0.5
        want = []
        for mask in range(1 << (D - 1)):
            side = mask if bin(mask).count("1") >= d else ((1 << D) - 1) ^ mask
            want.append(all(fail[i] for i, t in enumerate(subsets)
                            if all(side >> c & 1 for c in t)))
        want = np.flatnonzero(want)
        got = screens._open_splits(sets, grams.copy(), 0.5, D, 1 << (D - 1))
        assert got.tobytes() == want.astype(got.dtype).tobytes()
        if want.size:
            assert screens._open_splits(sets, grams.copy(), 0.5, D, want.size - 1) is None
