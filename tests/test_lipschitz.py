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
from conftest import A_REF, ADVERSARIAL, sym2x2_eigenvalues


def _lower_constant_loop(key: Key) -> tuple[float, int]:
    """Every canonical mask in ascending order, two SVDs each: the oracle."""
    d, D = key.d, key.D
    a = key.matrix
    tie = lipschitz._TIE_WINDOW * upper_constant(key)
    best_val = np.inf
    best_mask = 0
    for mask in range(1 << (D - 1)):
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
    masks, settled, diagonalized = screens._screen(frame_keys._unit(generate_key(4, 16, 1)))
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
    masks, _, _ = screens._screen(frame_keys._unit(key))
    monkeypatch.setattr(screens, "_SCREEN_ENTRIES", 6 if chunk == "gram-chunks-of-one-mask"
                        else 9 * chunk)
    blocked = screens._screen(frame_keys._unit(Key(key.matrix)))
    assert blocked[0].tobytes() == masks.tobytes()
    assert blocked[1] + blocked[2] == 1 << 8
    _assert_matches_loop(key.matrix)


def _walked(run):
    """run()'s result and the blocks of _partition_blocks it took, (start, end)."""
    blocks = []
    real = screens._partition_blocks

    def logged(a):
        for block in real(a):
            blocks.append((int(block[0][0]), int(block[0][-1]) + 1))
            yield block

    with pytest.MonkeyPatch.context() as m:
        m.setattr(screens, "_partition_blocks", logged)
        return run(), blocks


def _cover_settled(run):
    """run()'s result and the masks the A0 screen's cover settled in it (0
    when no cover was built). From the block the screen built its cover at
    on, a block's masks with a side that oracles.cover marks at the cover's
    shift are settled by it, and only the others reach _unsettled, unless
    the block is mostly open: then the whole block reaches _unsettled, as
    without a cover."""
    blocks, calls, tested = [], [], {}
    real_blocks, real_cover, real_unsettled = (
        screens._partition_blocks, screens._cover, screens._unsettled)

    def logged(a):
        for block in real_blocks(a):
            blocks.append((int(block[0][0]), int(block[0][-1]) + 1))
            yield block

    def recorded(unit, tau, least):
        cover = real_cover(unit, tau, least)
        calls.append((len(blocks) - 1, unit, tau, cover is None))
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
    ((first, unit, tau, _),) = calls
    covered = oracles.cover(unit, tau)
    full = (1 << unit.shape[1]) - 1
    by_cover = 0
    for i in range(first, len(blocks)):
        masks = np.arange(*blocks[i])
        n = int(np.count_nonzero(covered[masks] | covered[full ^ masks]))
        if tested.get(i) != masks.size or not n:  # not walked whole
            assert tested.get(i, 0) == masks.size - n
            by_cover += n
    return result, by_cover


def _first_mask_without_a_spanning_side(d, D):
    """2^(D-d+1) - 1 when d <= D <= 2d - 2, 0 when D < d, else None."""
    if D < d:
        return 0
    return (1 << (D - d + 1)) - 1 if D <= 2 * d - 2 else None


def _assert_screen_matches_oracle(key):
    # the kept masks of the full bracket oracle, up to the end of the walk:
    # the block that holds the first mask with no side of d columns, or the
    # last block
    (masks, settled, diagonalized), blocks = _walked(
        lambda: screens._screen(frame_keys._unit(key)))
    stop = _first_mask_without_a_spanning_side(key.d, key.D)
    end = blocks[-1][1]
    if stop is None:
        assert end == 1 << (key.D - 1)
    else:
        assert blocks[-1][0] <= stop < end
    assert settled + diagonalized == end
    ref_masks, _ = oracles.lower_constant_screen(Key(key.matrix))
    assert masks.tobytes() == ref_masks[ref_masks < end].tobytes()


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


def _assert_search_work(d, D, settled, diagonalized, visited):
    key = generate_key(d, D, 1)
    search = lipschitz.lower_constant_search(key)
    assert (search.settled, search.diagonalized, search.visited) == (settled, diagonalized, visited)
    a0, part = search.result
    ref_a0, ref_mask = oracles.lower_constant(Key(key.matrix))
    assert np.float64(a0).tobytes() == np.float64(ref_a0).tobytes()
    assert part.mask == ref_mask


@pytest.mark.parametrize("d,D,settled,diagonalized,visited", [
    (4, 16, 32556, 212, 31), (8, 15, 16311, 73, 31), (5, 18, 130875, 197, 38)])
def test_search_work_is_pinned_at_the_default_blocks(d, D, settled, diagonalized, visited):
    _assert_search_work(d, D, settled, diagonalized, visited)


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
    # has D < 2d - 1. From the first full-size block on, the masks with a
    # side the cover marks are settled without a Gram, and the others reach
    # _unsettled, so the search's settled count is the two together
    matrix = _SETTLED_KEYS[name]
    real = screens._unsettled
    settled = []

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
    if matrix.shape[1] <= 12:  # and in blocks of one mask, every one full-size
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


def _assert_exact_pass_matches_loop(monkeypatch, matrix, tol=numerics.DEFAULT_TOL):
    # the stacked exact pass against oracles.exact_pass, the loop of two
    # numerics.sigma_k calls per mask, on the masks the search's screen kept;
    # every value is >= 0, so 0 is a lower end for each. The pass visits
    # every kept mask. A search that mask 0 decides takes no screen, and
    # matches the full bracket oracle
    screened = []
    with monkeypatch.context() as m:
        real = screens._screen
        m.setattr(screens, "_screen", lambda unit: screened.append(real(unit)) or screened[-1])
        key = Key(matrix, tol)
        search = lipschitz.lower_constant_search(key)
    if screened:
        masks, settled, diagonalized = screened[0]
        a0, mask, _ = oracles.exact_pass(key, masks, np.zeros(masks.size))
        assert (search.settled, search.diagonalized, search.visited) == (
            settled, diagonalized, masks.size)
    else:
        a0, mask = oracles.lower_constant(key)
        assert (search.settled, search.diagonalized, search.visited) == (0, 0, 1)
        assert mask == 0
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


def _search_decided_by_mask_0(monkeypatch, matrix):
    # sigma_d(A), the value of mask 0, is within the tie window of 0: no
    # other split can pass the visit's test, and the screen is not called
    def refuse(unit):
        raise AssertionError("the screen ran")

    with monkeypatch.context() as m:
        m.setattr(screens, "_screen", refuse)
        search = lipschitz.lower_constant_search(Key(matrix))
    assert (search.settled, search.diagonalized, search.visited) == (0, 0, 1)
    assert search.result[1].mask == 0
    return search.result


@pytest.mark.parametrize("name", ["rank-deficient", "zero", "all-ones", "rank-3-4x12"])
def test_mask_0_decides_a_rank_deficient_key(monkeypatch, name):
    matrix = ADVERSARIAL.get(name)
    if matrix is None:
        matrix = generate_key(4, 3, 1).matrix @ generate_key(3, 12, 2).matrix
    a0, part = _search_decided_by_mask_0(monkeypatch, matrix)
    ref_a0, ref_mask = oracles.lower_constant(Key(matrix))
    assert np.float64(a0).tobytes() == np.float64(ref_a0).tobytes()
    assert part.mask == ref_mask


def test_mask_0_decides_a_rank_deficient_key_at_the_cap(monkeypatch):
    # rank 3 at d = 4: every split has the value 0 up to rounding; the search
    # is the one SVD of the key. One more column is over the cap
    product = generate_key(4, 3, 1).matrix @ generate_key(3, 24, 2).matrix
    a0, part = _search_decided_by_mask_0(monkeypatch, product)
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
    assert (search.visited == 1) == (c <= 1)
    _assert_matches_loop(matrix)


def test_exact_pass_decomposes_mask_0_only_of_a_rank_deficient_key(monkeypatch):
    # the value of mask 0, a rounding error of a rank-2 key, decides: one
    # SVD of the key, where the screen would keep 512 masks
    rows = []
    real = numerics.singular_values_many
    monkeypatch.setattr(numerics, "singular_values_many",
                        lambda stack: rows.append(len(stack)) or real(stack))
    search = lipschitz.lower_constant_search(Key(ADVERSARIAL["rank-deficient"]))
    masks, _, _ = screens._screen(frame_keys._unit(Key(ADVERSARIAL["rank-deficient"])))
    assert (masks.size, search.visited) == (512, 1)
    assert rows[0] == 1 and search.result[1].mask == 0


@pytest.mark.parametrize("name", ["5x8", "6x9", "7x12", "too-few-columns", "identity"])
def test_screen_stops_at_the_first_split_without_a_spanning_side(monkeypatch, name):
    # D <= 2d - 2: mask 2^(D-d+1) - 1 has no side of d columns and the value
    # 0, so the search's walk ends with the block that holds it, and the
    # pass visits every mask the screen kept, that one among them
    if name in ADVERSARIAL:
        matrix = ADVERSARIAL[name]
    else:
        d, D = map(int, name.split("x"))
        matrix = generate_key(d, D, 1).matrix
    screened = []
    real = screens._screen
    monkeypatch.setattr(screens, "_screen", lambda unit: screened.append(real(unit)) or screened[-1])
    key = Key(matrix)
    search, blocks = _walked(lambda: lipschitz.lower_constant_search(key))
    stop = _first_mask_without_a_spanning_side(key.d, key.D)
    assert blocks[-1][0] <= stop < blocks[-1][1] == search.settled + search.diagonalized
    (masks, settled, diagonalized), = screened
    assert (search.settled, search.diagonalized, search.visited) == (
        settled, diagonalized, masks.size)
    assert stop in masks.tolist()
    a0, part = search.result
    ref_a0, ref_mask = oracles.lower_constant(Key(matrix))
    assert np.float64(a0).tobytes() == np.float64(ref_a0).tobytes()
    assert part.mask == ref_mask


def test_search_stops_early_on_the_11x20_key():
    # the complement-walk smoke key of CI: mask 1023 = {1..10} has the value
    # 0, and the search ends with its block, [512, 1024), of 2^19 splits
    search = lipschitz.lower_constant_search(generate_key(11, 20, 1))
    assert (search.settled, search.diagonalized, search.visited) == (915, 109, 34)
    a0, part = search.result
    assert a0 == 0.0 and part.mask == 1023


@pytest.mark.parametrize("d,D,most", [(8, 15, None), (4, 16, 41264), (5, 18, 155318)])
def test_search_kernel_work_is_pinned(monkeypatch, d, D, most):
    # the Grams the packed kernel receives during the search. At D = 2d - 1
    # exactly one side of each split spans, and only it is factored: one
    # Gram per mask after the first block, which no test screens, except the
    # masks the cover settles with no Gram. At 8x15 that is all but 2 of the
    # 14,336 masks of the full-size blocks
    grams = []
    real = screens._shifted_cholesky_ok_inplace
    monkeypatch.setattr(screens, "_shifted_cholesky_ok_inplace",
                        lambda w, tau: grams.append(w.shape[1]) or real(w, tau))

    def search():
        lipschitz.lower_constant_search(generate_key(d, D, 1))
        return sum(grams)  # before the cover oracle's own kernel calls

    if most is None:
        factored, by_cover = _cover_settled(search)
        assert factored + by_cover == (1 << (D - 1)) - screens._FIRST_BLOCK == 16320
        assert (factored, by_cover) == (1986, 14334)
    else:
        assert search() <= most


# the kernel's Grams and calls with the cover, against the parametrized
# figures of the walk without one; 4x12's walk has no full-size block
_COVERED_KERNEL_WORK = {(8, 15): (1986, 6), (4, 16): (12434, 30), (5, 18): (12282, 41),
                        (4, 12): (2584, 15)}


@pytest.mark.parametrize("d,D,grams,calls", [
    (8, 15, 16320, 12), (4, 16, 40398, 30), (5, 18, 152266, 55), (4, 12, 2584, 15)])
def test_search_kernel_calls_are_pinned(monkeypatch, d, D, grams, calls):
    # one call per block after the first, which no test screens, for side I
    # where it spans and side C where only it spans; at D = 2d - 1 that is
    # every call. Elsewhere a block may add a call for side C where both
    # sides span and side I failed, and one for the both-sides test. In a
    # block copied whole, side C takes the columns of the sides I that do
    # not span. The parametrized figures are those of the walk with no
    # cover, which every key without a passing d-subset takes; with the
    # cover, a block calls the kernel only for its open masks, and not at
    # all when it has none
    for work in ((grams, calls), _COVERED_KERNEL_WORK[d, D]):
        sizes = []
        with monkeypatch.context() as m:
            real = screens._shifted_cholesky_ok_inplace
            m.setattr(screens, "_shifted_cholesky_ok_inplace",
                      lambda w, tau: sizes.append(w.shape[1]) or real(w, tau))
            if work == (grams, calls):
                m.setattr(screens, "_cover", lambda unit, tau, least: None)
            lipschitz.lower_constant_search(generate_key(d, D, 1))
        assert sum(sizes) == work[0]
        if D == 2 * d - 1:
            assert len(sizes) == work[1]
        else:
            assert len(sizes) <= work[1]
