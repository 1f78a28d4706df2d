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
from phasesort import frame_keys, lipschitz, numerics, verify
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
    masks, lo, settled, diagonalized = lipschitz._screen(generate_key(4, 16, 1))
    assert 0 < masks.size <= 64  # of 32768
    assert masks[0] == 0 and np.all(np.diff(masks) > 0)
    assert settled + diagonalized == 1 << 15


@pytest.mark.parametrize("chunk", [1, 7, "gram-chunks-of-one-mask"])
def test_screen_chunks_match_single_chunk(monkeypatch, chunk):
    # by default the 256 masks are one Gram chunk, in blocks of 1, 1, 2, ..., 128
    key = generate_key(3, 9, 4)
    masks, lo, _, _ = lipschitz._screen(key)
    if chunk == "gram-chunks-of-one-mask":
        monkeypatch.setattr(frame_keys, "_CHUNK_ENTRIES", 9)
    else:
        monkeypatch.setattr(frame_keys, "_SCREEN_ENTRIES", 9 * chunk)  # blocks of <= chunk masks
    blocked = lipschitz._screen(Key(key.matrix))
    assert blocked[0].tobytes() == masks.tobytes() and blocked[1].tobytes() == lo.tobytes()
    assert blocked[2] + blocked[3] == 1 << 8
    _assert_matches_loop(key.matrix)


def _assert_screen_matches_oracle(key):
    masks, lo, _, _ = lipschitz._screen(key)
    ref_masks, ref_lo = oracles.lower_constant_screen(Key(key.matrix))
    assert masks.tobytes() == ref_masks.tobytes() and lo.tobytes() == ref_lo.tobytes()


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
    (4, 16, 32556, 212, 31), (8, 15, 16311, 73, 31), (5, 18, 130877, 195, 38)])
def test_search_work_is_pinned_at_the_default_blocks(d, D, settled, diagonalized, visited):
    _assert_search_work(d, D, settled, diagonalized, visited)


@pytest.mark.parametrize("d,D,settled,diagonalized,visited", [
    (4, 16, 32605, 163, 31), (8, 15, 16348, 36, 31), (5, 18, 130925, 147, 38)])
def test_search_work_is_pinned(monkeypatch, d, D, settled, diagonalized, visited):
    # the blocks the full (d, d) Gram layout cut: doubling from one mask, d * d
    # entries per Gram in a chunk and in a block. The running bound moves once
    # per block, so the counts depend on where blocks end; on these blocks the
    # packed screen does the work that layout did, mask for mask
    p, full = d * (d + 1) // 2, d * d
    chunk_masks = 1 << ((frame_keys._CHUNK_ENTRIES // full).bit_length() - 1)
    monkeypatch.setattr(frame_keys, "_FIRST_BLOCK", 1)
    monkeypatch.setattr(frame_keys, "_CHUNK_ENTRIES", chunk_masks * p)
    monkeypatch.setattr(frame_keys, "_SCREEN_ENTRIES", frame_keys._SCREEN_ENTRIES // full * p)
    _assert_search_work(d, D, settled, diagonalized, visited)


_SETTLED_KEYS = {**ADVERSARIAL, **{f"{d}x{D}": generate_key(d, D, 1).matrix
                                   for d, D in ((4, 16), (8, 15), (5, 18), (5, 8))}}


@pytest.mark.parametrize("name", sorted(_SETTLED_KEYS))
def test_settled_matches_four_call_oracle(monkeypatch, name):
    # every block of the walk, at the running hi_run and at hi_run = inf; 5x8
    # has D < 2d - 1
    matrix = _SETTLED_KEYS[name]
    real = lipschitz._settled
    settled = []

    def checked(gi, total, full_i, full_c, hi_run, err_s, err_lam):
        # the oracle reads the block's full Grams, side C's for every mask
        full_gi, full_gc = numerics.unpack(gi), numerics.unpack(total[:, None] - gi)
        for h in (np.inf, hi_run):
            ok, rows_c, gc = real(gi, total, full_i, full_c, h, err_s, err_lam)
            want = oracles.settled(full_gi, full_gc, full_i, full_c, h, err_s, err_lam)
            assert ok.tobytes() == want.tobytes()
            # side C's Grams are formed where it spans and side I did not settle
            # the mask, which covers every side C the screen reads
            by_side_i = oracles.settled(full_gi, full_gc, full_i, np.zeros_like(full_c), h,
                                        err_s, err_lam)
            assert np.array_equal(rows_c, np.flatnonzero(full_c & ~by_side_i))
            assert gc.tobytes() == (total[:, None] - gi)[:, rows_c].tobytes()
        settled.append(int(np.count_nonzero(ok)))
        return ok, rows_c, gc

    monkeypatch.setattr(lipschitz, "_settled", checked)
    search = lipschitz.lower_constant_search(Key(matrix))
    assert sum(settled) == search.settled
    if matrix.shape[1] <= 12:  # and in blocks of one mask
        monkeypatch.setattr(frame_keys, "_SCREEN_ENTRIES", 9)
        settled.clear()
        search = lipschitz.lower_constant_search(Key(matrix))
        assert sum(settled) == search.settled


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
    # numerics.sigma_k calls per mask, on the masks the search's screen kept
    screened = []
    with monkeypatch.context() as m:
        real = lipschitz._screen
        m.setattr(lipschitz, "_screen", lambda key: screened.append(real(key)) or screened[-1])
        key = Key(matrix, tol)
        search = lipschitz.lower_constant_search(key)
    masks, lo, _, _ = screened[0]
    a0, mask, visited = oracles.exact_pass(key, masks, lo)
    assert np.float64(search.result[0]).tobytes() == np.float64(a0).tobytes()
    assert (search.result[1].mask, search.visited) == (mask, visited)


@pytest.mark.parametrize("factor", [1e-16, 1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_exact_pass_matches_loop_adversarial(monkeypatch, name, factor):
    _assert_exact_pass_matches_loop(
        monkeypatch, ADVERSARIAL[name], numerics.ToleranceConfig(rank_tol_factor=factor))


@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_exact_pass_windows_match_loop(monkeypatch, name, window):
    # windows of 1, 2, 4, ... and 3, 6, 12, ... masks: drops inside and
    # across window boundaries
    monkeypatch.setattr(lipschitz, "_FIRST_WINDOW", window)
    _assert_exact_pass_matches_loop(monkeypatch, ADVERSARIAL[name])


@pytest.mark.parametrize("d,D", [(3, 8), (4, 12), (4, 16), (8, 15), (5, 18), (3, 12)])
def test_exact_pass_matches_loop_seeded(monkeypatch, d, D):
    _assert_exact_pass_matches_loop(monkeypatch, generate_key(d, D, 1).matrix)


def test_exact_pass_matches_loop_at_the_cap(monkeypatch):
    # the 4x24 key of the CI A0 cap smoke step
    _assert_exact_pass_matches_loop(monkeypatch, generate_key(4, 24, 1).matrix)


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
    ),
    st.sampled_from([1, 2, 16]),
)
def test_exact_pass_matches_loop_hypothesis(matrix, window):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(lipschitz, "_FIRST_WINDOW", window)
        _assert_exact_pass_matches_loop(monkeypatch, matrix)


def test_exact_pass_decomposes_one_window_of_a_rank_deficient_key(monkeypatch):
    # the value of its first visited mask, a rounding error of a rank-2 key,
    # drops the other 511 kept masks
    rows = []
    real = numerics.singular_values_many
    monkeypatch.setattr(numerics, "singular_values_many",
                        lambda stack: rows.append(len(stack)) or real(stack))
    search = lipschitz.lower_constant_search(Key(ADVERSARIAL["rank-deficient"]))
    masks, _, _, _ = lipschitz._screen(Key(ADVERSARIAL["rank-deficient"]))
    assert (masks.size, search.visited) == (512, 1)
    assert 0 < sum(rows) <= 32  # the first window, 16 masks, two sides each


@pytest.mark.parametrize("d,D,most", [(8, 15, None), (4, 16, 41264), (5, 18, 155318)])
def test_search_kernel_work_is_pinned(monkeypatch, d, D, most):
    # the Grams the packed kernel receives during the search. At D = 2d - 1
    # exactly one side of each split spans, and only it is factored: one
    # Gram per mask after the first block, which no test screens
    grams = []
    real = numerics._shifted_cholesky_ok_inplace
    monkeypatch.setattr(numerics, "_shifted_cholesky_ok_inplace",
                        lambda w, tau: grams.append(w.shape[1]) or real(w, tau))
    lipschitz.lower_constant_search(generate_key(d, D, 1))
    if most is None:
        assert sum(grams) == (1 << (D - 1)) - frame_keys._FIRST_BLOCK == 16320
    else:
        assert sum(grams) <= most
