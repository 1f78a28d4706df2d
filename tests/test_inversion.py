import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasesort.inversion as inversion
import oracles
from phasesort import (
    AmbiguityDetected,
    DimensionError,
    Key,
    NotInRange,
    NotPhaseRetrievable,
    PhasesortError,
    alpha,
    alpha_many,
    beta,
    beta_many,
    beta_tilde,
    beta_tilde_many,
    dist_hat_H,
    dist_hat_V,
    generate_key,
    invert_beta,
    invert_beta_many,
    invert_beta_tilde,
    invert_beta_tilde_many,
    is_phase_retrievable,
    omega,
    omega_many,
)

from conftest import A_REF, ADVERSARIAL, brute_force_magnitude_recovery
from phasesort.numerics import row_norms


def test_omega_reference_measurements(a_ref_key):
    rec = omega(a_ref_key, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(rec.x, [1.0, 2.0], atol=1e-12)
    assert rec.residual <= 1e-12
    oracle = brute_force_magnitude_recovery(A_REF, np.array([1.0, 2.0, 3.0]))
    assert dist_hat_H(rec.x, oracle) <= 1e-9


def test_omega_zero(a_ref_key):
    rec = omega(a_ref_key, np.zeros(3))
    np.testing.assert_array_equal(rec.x, [0.0, 0.0])
    assert rec.residual == 0.0
    assert rec.pivot_columns == ()


def test_omega_matches_bruteforce_on_random_keys():
    rng = np.random.Generator(np.random.PCG64(51))
    for seed in range(20):
        key = generate_key(3, 5, 700 + seed)
        x = rng.standard_normal(3)
        y = alpha(key, x)
        rec = omega(key, y)
        oracle = brute_force_magnitude_recovery(key.matrix, y)
        assert oracle is not None
        assert dist_hat_H(rec.x, oracle) <= 1e-8 * max(1.0, np.linalg.norm(x))


def test_omega_roundtrip_many():
    rng = np.random.Generator(np.random.PCG64(52))
    for seed in range(100):
        d = 2 + seed % 5
        key = generate_key(d, 2 * d - 1, 900 + seed)
        x = rng.standard_normal(d)
        rec = omega(key, alpha(key, x))
        assert dist_hat_H(rec.x, x) <= 1e-8 * max(1.0, np.linalg.norm(x))


def test_omega_canonical_sign():
    rng = np.random.Generator(np.random.PCG64(53))
    key = generate_key(4, 7, 11)
    for _ in range(50):
        x = rng.standard_normal(4)
        rec = omega(key, alpha(key, x))
        scale = np.abs(rec.x).max()
        lead = np.argmax(np.abs(rec.x) > key.tol.rank_tol_factor * scale)
        assert rec.x[lead] > 0


def test_omega_tolerates_tiny_noise(a_ref_key):
    rng = np.random.Generator(np.random.PCG64(54))
    x = np.array([0.7, -1.3])
    y = alpha(a_ref_key, x)
    eta = rng.standard_normal(3)
    eta *= 1e-10 / np.linalg.norm(eta)
    rec = omega(a_ref_key, np.maximum(y + eta, 0.0))
    assert dist_hat_H(rec.x, x) <= 1e-8


def test_omega_rejects_out_of_range(a_ref_key):
    # (1, 2, 3) is consistent; (1, 2, 0) admits no sign pattern
    with pytest.raises(NotInRange):
        omega(a_ref_key, [1.0, 2.0, 0.0])


def test_omega_rejects_negative_measurements(a_ref_key):
    with pytest.raises(NotInRange):
        omega(a_ref_key, [1.0, -2.0, 3.0])


def test_omega_requires_certificate():
    with pytest.raises(NotPhaseRetrievable):
        omega(Key(np.eye(2)), [1.0, 1.0])


def test_omega_dimension_error(a_ref_key):
    with pytest.raises(DimensionError):
        omega(a_ref_key, [1.0, 2.0])


def test_omega_ambiguity_guard(monkeypatch):
    # force the certificate so the identity key reaches the sign search,
    # where (a, b) and (a, -b) are both consistent but on distinct orbits
    key = Key(np.eye(2))
    fake = type("R", (), {"verdict": True})()
    monkeypatch.setattr(inversion, "is_phase_retrievable", lambda k: fake)
    with pytest.raises(AmbiguityDetected):
        omega(key, [1.0, 2.0])


def test_omega_sign_pattern_consistent(a_ref_key):
    rec = omega(a_ref_key, [1.0, 2.0, 3.0])
    a_piv = A_REF[:, list(rec.pivot_columns)]
    y_piv = np.array([1.0, 2.0, 3.0])[list(rec.pivot_columns)]
    np.testing.assert_allclose(a_piv.T @ rec.x, rec.sign_pattern * y_piv, atol=1e-12)


def test_invert_beta_reference(a_ref_key):
    cfg = np.array([[1.0, 0.0], [-1.0, 0.0]])
    rec = invert_beta(a_ref_key, beta(a_ref_key, cfg).matrix)
    assert dist_hat_V(rec, cfg)[0] <= 1e-12


def test_invert_beta_zero(a_ref_key):
    np.testing.assert_array_equal(invert_beta(a_ref_key, np.zeros((2, 3))), np.zeros((2, 2)))


def test_invert_beta_roundtrip_many():
    rng = np.random.Generator(np.random.PCG64(55))
    for seed in range(100):
        d = 2 + seed % 4
        key = generate_key(d, 2 * d, 1500 + seed)
        cfg = rng.standard_normal((2, d))
        rec = invert_beta(key, beta(key, cfg).matrix)
        assert dist_hat_V(rec, cfg)[0] <= 1e-8 * max(1.0, np.linalg.norm(cfg))


def test_invert_beta_rejects_unsorted(a_ref_key):
    with pytest.raises(NotInRange):
        invert_beta(a_ref_key, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))


def test_invert_beta_rejects_corruption(a_ref_key):
    cfg = np.array([[0.3, 1.1], [-0.4, 0.2]])
    emb = beta(a_ref_key, cfg).matrix.copy()
    emb[0, 0] += 0.5
    with pytest.raises(NotInRange):
        invert_beta(a_ref_key, emb)


def test_invert_beta_shape_check(a_ref_key):
    with pytest.raises(DimensionError):
        invert_beta(a_ref_key, np.zeros((2, 4)))


def test_invert_beta_tilde_reference(a_ref_key):
    cfg = np.array([[1.0, 0.0], [-1.0, 0.0]])
    rec = invert_beta_tilde(a_ref_key, beta_tilde(a_ref_key, cfg))
    assert dist_hat_V(rec, cfg)[0] <= 1e-12


def test_invert_beta_tilde_zero_difference(a_ref_key):
    rec = invert_beta_tilde(a_ref_key, np.array([2.5, -1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(rec, [[2.5, -1.0], [2.5, -1.0]], atol=1e-12)


def test_invert_beta_tilde_roundtrip_many():
    rng = np.random.Generator(np.random.PCG64(56))
    for seed in range(100):
        d = 2 + seed % 4
        key = generate_key(d, 2 * d - 1, 2500 + seed)
        cfg = rng.standard_normal((2, d))
        rec = invert_beta_tilde(key, beta_tilde(key, cfg))
        assert dist_hat_V(rec, cfg)[0] <= 1e-8 * max(1.0, np.linalg.norm(cfg))


def test_invert_beta_tilde_length_check(a_ref_key):
    with pytest.raises(DimensionError):
        invert_beta_tilde(a_ref_key, np.zeros(4))


def test_decoded_orbit_matches_not_rows():
    # the decoder fixes an orbit representative; row order may differ from input
    key = generate_key(3, 6, 4242)
    rng = np.random.Generator(np.random.PCG64(57))
    cfg = rng.standard_normal((2, 3))
    rec = invert_beta(key, beta(key, cfg).matrix)
    d_quot = dist_hat_V(rec, cfg)[0]
    d_plain = np.linalg.norm(rec - cfg)
    assert d_quot <= 1e-8
    assert d_plain == pytest.approx(d_quot, abs=1e-8) or d_plain > d_quot


# --- stacked decoders against the one-at-a-time oracles ----------------------

def _same_recovery(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    assert got.residual == want.residual
    assert got.sign_pattern.tobytes() == want.sign_pattern.tobytes()
    assert got.pivot_columns == want.pivot_columns


def _measurement_rows(key, rng, m):
    """Encoded random signals, with zero and near-zero rows mixed in: only
    the zero row is a trivial recovery."""
    y = alpha_many(key, rng.standard_normal((m, key.d)))
    y[1] = 0.0
    y[3] *= 1e-12
    return y


@pytest.mark.parametrize("d, D, seed", [(3, 8, 1), (4, 12, 2), (2, 3, 3), (5, 9, 4)])
def test_omega_many_rows_match_single_and_oracle(d, D, seed):
    key = generate_key(d, D, seed)
    y = _measurement_rows(key, np.random.Generator(np.random.PCG64(60 + seed)), 40)
    batch = omega_many(key, y)
    assert batch.trivial[1] and not batch.trivial[3]
    for i, row in enumerate(y):
        _same_recovery(batch.result(i), omega(key, row))
        _same_recovery(omega(key, row), oracles.omega(key, row))


@pytest.mark.parametrize("D, seed", [(12, 3), (5, 1)])
def test_d1_batch_rows_keep_their_single_call_bits(D, seed):
    # d = 1 has one sign pattern, so a one-row call solves a lone (row,
    # pattern) pair; it is padded to two columns as in any chunk, so its bits
    # are those of the row in a batch
    key = generate_key(1, D, seed)
    y = alpha_many(key, np.random.Generator(np.random.PCG64(72)).standard_normal((50, 1)))
    batch = omega_many(key, y)
    for i, row in enumerate(y):
        _same_recovery(batch.result(i), omega(key, row))
        want = oracles.omega(key, row)
        np.testing.assert_allclose(batch.x[i], want.x, rtol=1e-15, atol=0)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_omega_many_adversarial_keys(name):
    key = Key(ADVERSARIAL[name])
    if not is_phase_retrievable(key).verdict:
        with pytest.raises(NotPhaseRetrievable):
            omega_many(key, np.zeros((2, key.D)))
        return
    y = _measurement_rows(key, np.random.Generator(np.random.PCG64(61)), 12)
    batch = omega_many(key, y)
    for i, row in enumerate(y):
        _same_recovery(batch.result(i), oracles.omega(key, row))


def _raises_like_single(batch_call, single_call):
    """The batch raises the type and message of the single call on its first bad row."""
    with pytest.raises(Exception) as single:
        single_call()
    with pytest.raises(type(single.value)) as batch:
        batch_call()
    assert str(batch.value) == str(single.value)


def test_omega_many_error_parity(a_ref_key):
    good, zero = [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]
    negative, inconsistent = [1.0, -2.0, 3.0], [1.0, 2.0, 0.0]
    for rows in ([good, negative, inconsistent], [zero, inconsistent, negative]):
        first_bad = rows[1]
        _raises_like_single(lambda: omega_many(a_ref_key, rows),
                            lambda: oracles.omega(a_ref_key, first_bad))
    with pytest.raises(DimensionError):
        omega_many(a_ref_key, np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        omega_many(a_ref_key, np.zeros(3))
    with pytest.raises(NotPhaseRetrievable):
        omega_many(Key(np.eye(2)), [[0.0, 0.0], [1.0, -1.0]])


def test_omega_many_ambiguity_parity(monkeypatch):
    key = Key(np.eye(2))
    fake = type("R", (), {"verdict": True})()
    monkeypatch.setattr(inversion, "is_phase_retrievable", lambda k: fake)
    # a zero row passes, the next row is ambiguous; a negative row wins when first
    for rows, first_bad in (([[0.0, 0.0], [1.0, 2.0]], [1.0, 2.0]),
                            ([[1.0, -2.0], [1.0, 2.0]], [1.0, -2.0])):
        _raises_like_single(lambda: omega_many(key, rows),
                            lambda: oracles.omega(key, first_bad, certificate=lambda k: fake))


def test_omega_many_chunks_keep_bits_and_first_error(monkeypatch, a_ref_key):
    key = generate_key(4, 12, 2)
    y = _measurement_rows(key, np.random.Generator(np.random.PCG64(62)), 30)
    whole = omega_many(key, y)
    monkeypatch.setattr(inversion, "_SOLVE_CHUNK", 1)  # one row per chunk
    chunked = omega_many(key, y)
    for i in range(len(y)):
        _same_recovery(chunked.result(i), whole.result(i))
    good, inconsistent = [1.0, 2.0, 3.0], [1.0, 2.0, 0.0]
    rows = [good, good, inconsistent, [1.0, 2.0, 0.5], [1.0, -2.0, 3.0]]
    _raises_like_single(lambda: omega_many(a_ref_key, rows),
                        lambda: oracles.omega(a_ref_key, inconsistent))


_CHUNK_EDGE_KEYS = {
    "3x8": lambda: generate_key(3, 8, 21),
    "4x12": lambda: generate_key(4, 12, 22),
    "5x9": lambda: generate_key(5, 9, 23),
    **{name: (lambda m=m: Key(m)) for name, m in ADVERSARIAL.items()},
}


@pytest.mark.parametrize("name", sorted(_CHUNK_EDGE_KEYS))
def test_omega_many_one_solve_per_chunk_at_chunk_edges(monkeypatch, name):
    # each chunk solves all its rows' sign patterns against one pivot-block
    # factorization; a row must keep its single call's bits, and a batch must
    # raise its first failing row's error, wherever the chunk boundary falls
    key = _CHUNK_EDGE_KEYS[name]()
    if not is_phase_retrievable(key).verdict:
        with pytest.raises(NotPhaseRetrievable):
            omega_many(key, np.ones((4, key.D)))
        return
    per_chunk = 3
    patterns = 1 << (key.d - 1)
    monkeypatch.setattr(inversion, "_SOLVE_CHUNK", per_chunk * key.D * patterns)
    rng = np.random.Generator(np.random.PCG64(63))
    for m in (per_chunk - 1, per_chunk, per_chunk + 1, 2 * per_chunk + 1):
        y = alpha_many(key, rng.standard_normal((m, key.d)))
        want, failing = {}, []
        for i, row in enumerate(y):
            try:
                want[i] = oracles.omega(key, row)
            except PhasesortError:
                failing.append(i)
        if failing:
            _raises_like_single(lambda: omega_many(key, y),
                                lambda: oracles.omega(key, y[failing[0]]))
        batch = omega_many(key, y[list(want)])
        for i, j in enumerate(want):
            _same_recovery(batch.result(i), want[j])


def test_omega_ambiguity_on_a_certified_key_names_gap_and_tolerance():
    # the key is certified (A0 = 7.07e-9), but two orbits of this signal have
    # measurements closer than consistency_tol: the refusal must say so, not
    # that the key cannot be injective
    key = Key(ADVERSARIAL["near-parallel-first"])
    assert is_phase_retrievable(key).verdict
    x = np.random.Generator(np.random.PCG64(63)).standard_normal((40, 2))[1]
    y = alpha(key, x)
    with pytest.raises(AmbiguityDetected) as single:
        omega(key, y)
    message = str(single.value)
    assert "injective" not in message
    accept_tol = key.tol.consistency_tol * max(1.0, float(np.linalg.norm(y)))
    assert f"acceptance tolerance {accept_tol:.3e}" in message
    gap = float(message.split(", ")[1].split(" apart")[0])
    assert gap > inversion._ORBIT_GAP * max(1.0, float(np.linalg.norm(x)))
    with pytest.raises(AmbiguityDetected) as loop:
        oracles.omega(key, y)
    assert str(loop.value) == message


def test_omega_many_caches_the_sign_search():
    key = generate_key(3, 8, 5)
    omega_many(key, alpha_many(key, np.ones((1, 3))))
    cached = key._cache["sign_search"]
    omega(key, alpha(key, [1.0, -2.0, 0.5]))
    assert key._cache["sign_search"] is cached


# --- omega_many's pattern screen ----------------------------------------------

def _screen_masks(monkeypatch):
    """The keep mask of every chunk omega_many screens, in order."""
    masks = []
    real = inversion._PatternScreen.keep

    def keep(self, y, accept_tol):
        masks.append(real(self, y, accept_tol))
        return masks[-1]

    monkeypatch.setattr(inversion._PatternScreen, "keep", keep)
    return masks


def _screened_rows(key):
    """Rows of the screened batches below: at least two, and enough for 256
    (row, pattern) pairs, so the screen drops many pairs while the loop
    oracle stays quick."""
    return max(2, -(-256 // (1 << (key.d - 1))))


def _mixed_batch(key, rng, m):
    """m encoded signals, with a zero row, a row scaled by 1e-12 and a row no
    sign pattern fits: its screen column (or its last) moved by half its
    largest entry."""
    y = alpha_many(key, rng.standard_normal((m, key.d)))
    y[1] = 0.0
    y[3] *= 1e-12
    screen = inversion._pattern_screen(key)
    column = key.D - 1 if screen is None else screen.column
    y[m // 2, column] += 0.5 * np.abs(y[m // 2]).max()
    return y


def _assert_batch_matches_oracle(key, y):
    """omega_many(key, y) raises the oracle's error on its first failing row,
    and its stages give every other row the oracle's bits; returns the
    failing rows."""
    want, failing = {}, []
    for i, row in enumerate(y):
        try:
            want[i] = oracles.omega(key, row)
        except PhasesortError:
            failing.append(i)
    if failing:
        _raises_like_single(lambda: omega_many(key, y),
                            lambda: oracles.omega(key, y[failing[0]]))
    batch = inversion._omega_rows(key, np.array(y), inversion._RowErrors())
    for i, result in want.items():
        _same_recovery(batch.result(i), result)
    return failing


def _error_of(key, row):
    try:
        oracles.omega(key, row)
    except PhasesortError as exc:
        return exc
    return None


def _assert_screened_batches_match_oracle(key, masks, seed, ambiguous=False):
    """A mixed batch cut to its zero row and the row no pattern fits, so one
    row is live and the call is not screened, then a whole mixed batch,
    which is; with ``ambiguous``, one more row with two orbits that fit (the
    signal of test_omega_ambiguity_on_a_certified_key_names_gap_and_tolerance)."""
    if not is_phase_retrievable(key).verdict:
        with pytest.raises(NotPhaseRetrievable):
            omega_many(key, np.ones((2, key.D)))
        return
    rng = np.random.Generator(np.random.PCG64(seed))
    screened = _screened_rows(key)
    for m, engages in ((screened, False), (screened + 1, True)):
        y = _mixed_batch(key, rng, m)
        if ambiguous:
            x = np.random.Generator(np.random.PCG64(63)).standard_normal((40, 2))[1]
            y[5] = alpha(key, x)
            assert isinstance(_error_of(key, y[5]), AmbiguityDetected)
        bad = m // 2
        if not engages:
            y, bad = y[[1, bad]], 1
        masks.clear()
        failing = _assert_batch_matches_oracle(key, y)
        assert failing and isinstance(_error_of(key, y[bad]), NotInRange)
        assert bool(masks) == (engages and inversion._pattern_screen(key) is not None)


@pytest.mark.parametrize("name", sorted(_CHUNK_EDGE_KEYS))
def test_screened_batches_match_oracle(monkeypatch, name):
    _assert_screened_batches_match_oracle(_CHUNK_EDGE_KEYS[name](), _screen_masks(monkeypatch),
                                          64, ambiguous=name == "near-parallel-first")


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.integers(2 * d - 1, 10).flatmap(
            lambda D: st.lists(
                st.one_of(st.floats(-1e3, 1e3), st.integers(-2, 2).map(float)),
                min_size=d * D,
                max_size=d * D,
            ).map(lambda v: np.array(v).reshape(d, D))
        )
    )
)
def test_screened_batches_match_oracle_hypothesis(matrix):
    with pytest.MonkeyPatch.context() as monkeypatch:
        masks = _screen_masks(monkeypatch)
        _assert_screened_batches_match_oracle(Key(matrix), masks, 65)


@pytest.mark.parametrize("name", sorted(_CHUNK_EDGE_KEYS))
def test_screened_chunks_at_chunk_edges(monkeypatch, name):
    # screened chunks of per_chunk rows (d candidate entries per pair): every
    # chunk of a screened call is screened, a remainder of one row too
    key = _CHUNK_EDGE_KEYS[name]()
    if not is_phase_retrievable(key).verdict:
        return
    per_chunk = _screened_rows(key)
    monkeypatch.setattr(inversion, "_SOLVE_CHUNK", per_chunk * key.d * (1 << (key.d - 1)))
    masks = _screen_masks(monkeypatch)
    rng = np.random.Generator(np.random.PCG64(66))
    for m in (per_chunk - 1, per_chunk, per_chunk + 1, 2 * per_chunk + 1):
        y = alpha_many(key, rng.standard_normal((m, key.d)))
        y[m // 2, -1] += 0.5 * np.abs(y[m // 2]).max()
        masks.clear()
        calls = 1 + bool(_assert_batch_matches_oracle(key, y))  # a failing batch runs twice
        screened = m > 1 and inversion._pattern_screen(key) is not None
        assert len(masks) == (calls * -(-m // per_chunk) if screened else 0)


@pytest.mark.parametrize("d, D, seed", [(3, 8, 1), (4, 12, 1), (8, 15, 3)])
def test_a_lone_kept_pair_keeps_its_bits(monkeypatch, d, D, seed):
    # every row but the first fits no pattern and keeps no pair, so the
    # screened call's one chunk solves a single pair; it must keep the bits
    # of its one-row call
    key = generate_key(d, D, seed)
    screen = inversion._pattern_screen(key)
    m = _screened_rows(key)
    assert m <= inversion._SOLVE_CHUNK // (d << (d - 1))  # one chunk
    y = alpha_many(key, np.random.Generator(np.random.PCG64(67)).standard_normal((m, d)))
    y[1:, screen.column] += 0.5 * np.abs(y[1:]).max(axis=1)
    masks = _screen_masks(monkeypatch)
    assert _assert_batch_matches_oracle(key, y) == list(range(1, m))
    assert [mask.sum() for mask in masks] == [1, 1]  # the raising batch, then its stages


@pytest.mark.parametrize("D", [23, 24])
def test_d12_batches_are_screened_and_keep_their_bits(monkeypatch, D):
    # an unscreened chunk holds one row at d = 12 (D residual entries for
    # each of 2048 patterns), a screened one two; a batch of many rows is
    # screened, each row keeps the bits of its one-row call, which is not,
    # and the row no pattern fits raises its own error
    key = generate_key(12, D, 1)
    y = alpha_many(key, np.random.Generator(np.random.PCG64(74)).standard_normal((300, 12)))
    y[7] = 0.0
    y[150, -1] += 0.5 * np.abs(y[150]).max()
    masks = _screen_masks(monkeypatch)
    _raises_like_single(lambda: omega_many(key, y), lambda: omega(key, y[150]))
    assert isinstance(_error_of(key, y[150]), NotInRange)
    assert "pattern_screen" in key._cache
    batch = inversion._omega_rows(key, y, inversion._RowErrors())
    assert [len(mask) for mask in masks] == ([2] * 149 + [1]) * 2  # 299 live rows, each call
    masks.clear()
    for i in range(len(y)):
        if i != 150:
            _same_recovery(batch.result(i), omega(key, y[i]))
    assert batch.trivial[7] and not masks


_FOOTPRINT_KEYS = {
    **{f"{d}x{D}": (lambda d=d, D=D: generate_key(d, D, 1))
       for d, D in ((2, 3), (3, 8), (4, 12), (8, 15), (10, 19), (12, 23), (12, 24))},
    **{name: (lambda m=m: Key(m)) for name, m in ADVERSARIAL.items()},
}


@pytest.mark.parametrize("name", sorted(_FOOTPRINT_KEYS))
def test_every_chunk_of_a_call_takes_its_path_and_fits(monkeypatch, name):
    # a call of two or more live rows is screened when the key has a screen,
    # in chunks of _SOLVE_CHUNK // (d * patterns) rows, its last chunk too;
    # any other call solves every pair, in chunks of _SOLVE_CHUNK // (D *
    # patterns) rows. A chunk of one row is the least a call can take
    key = _FOOTPRINT_KEYS[name]()
    if name in ADVERSARIAL and not is_phase_retrievable(key).verdict:
        return
    screen = inversion._pattern_screen(key)
    patterns = 1 << (key.d - 1)
    entries = key.D if screen is None else key.d
    per_chunk = max(1, inversion._SOLVE_CHUNK // (entries * patterns))
    masks = _screen_masks(monkeypatch)
    chunks, depth = [], [0]
    search = inversion._sign_search_rows

    def first_level(*args):
        if not depth[0]:  # not the search again of a row that fits no kept pair
            chunks.append(args[-1])
        depth[0] += 1
        try:
            return search(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(inversion, "_sign_search_rows", first_level)
    rng = np.random.Generator(np.random.PCG64(75))
    for m in sorted({1, 2, per_chunk - 1, per_chunk, per_chunk + 1} - {0}):
        y = alpha_many(key, rng.standard_normal((m, key.d)))
        assert y.any(axis=1).all()
        masks.clear()
        chunks.clear()
        inversion._omega_rows(key, y, inversion._RowErrors())
        screened = m > 1 and screen is not None
        assert [any(keep is mask for mask in masks) for keep in chunks] == [screened] * len(chunks)
        rows = per_chunk if m > 1 else 1
        assert [len(keep) for keep in chunks] == [rows] * (m // rows) + [m % rows] * (m % rows > 0)
        width = key.d if screened else key.D
        assert all(len(keep) == 1 or len(keep) * width * patterns <= inversion._SOLVE_CHUNK
                   for keep in chunks)


def test_screen_keeps_one_pattern_per_row_on_the_verify_keys(monkeypatch):
    # verify decodes 1000 rows at a time on a 3x8 and a 4x12 key; the screen
    # leaves one (row, pattern) pair per row to solve, of 4 and 8
    masks = _screen_masks(monkeypatch)
    for d, D in ((3, 8), (4, 12)):
        key = generate_key(d, D, 1)
        x = np.random.Generator(np.random.PCG64(68)).standard_normal((1000, d))
        masks.clear()
        omega_many(key, alpha_many(key, x))
        assert sum(len(mask) for mask in masks) == 1000
        assert sum(int(mask.sum()) for mask in masks) == 1000


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_screen_keeps_few_patterns_on_adversarial_keys(monkeypatch, name):
    key = Key(ADVERSARIAL[name])
    if not is_phase_retrievable(key).verdict or inversion._pattern_screen(key) is None:
        return
    # near-parallel keys have signals with two orbits that fit: both
    # patterns are consistent, and the screen must keep them
    masks = _screen_masks(monkeypatch)
    y = alpha_many(key, np.random.Generator(np.random.PCG64(69)).standard_normal((1000, key.d)))
    try:
        omega_many(key, y)
    except AmbiguityDetected:
        pass
    keep = np.concatenate(masks)
    consistent = np.array([oracles.consistent_patterns(key, row) for row in y])
    assert keep[consistent].all()
    assert keep.sum() - consistent.sum() <= 5


def _thin_key(scale):
    """A 3x8 key whose last row is scaled down: every pivot block is ill conditioned."""
    m = generate_key(3, 8, 11).matrix.copy()
    m[2] *= scale
    return Key(m)


_NEAR_SINGULAR_KEYS = {
    "near-singular": lambda: Key(ADVERSARIAL["near-singular"]),
    "thin-1e-4": lambda: _thin_key(1e-4),
    "thin-1e-6": lambda: _thin_key(1e-6),
    "3x8": lambda: generate_key(3, 8, 1),
    "4x12": lambda: generate_key(4, 12, 1),
}


@pytest.mark.parametrize("name", sorted(_NEAR_SINGULAR_KEYS))
def test_screen_keeps_every_consistent_pattern(monkeypatch, name):
    # rows whose screen column is moved to within a few ulps of the
    # acceptance tolerance, on either side: the screen must keep every
    # pattern the exact residual accepts, here by its allowance alone. A key
    # with no screen (thin-1e-6) solves every pair, its last column moved
    key = _NEAR_SINGULAR_KEYS[name]()
    screen = inversion._pattern_screen(key)
    column = key.D - 1 if screen is None else screen.column
    y = alpha_many(key, np.random.Generator(np.random.PCG64(70)).standard_normal((40, key.d)))
    rows = []
    for ulps in range(-2, 6):
        moved = y.copy()
        for _ in range(2):  # the tolerance moves with the row
            tol = key.tol.consistency_tol * row_norms(moved)
            moved[:, column] = y[:, column] + tol * (1.0 - ulps * 2.0**-52)
        rows.append(moved)
    y = np.concatenate(rows)
    masks = _screen_masks(monkeypatch)
    with pytest.raises(NotInRange):
        omega_many(key, y)
    consistent = np.array([oracles.consistent_patterns(key, row) for row in y])
    assert 0 < consistent.any(axis=1).sum() < len(y)
    assert bool(masks) == (screen is not None)
    if masks:
        assert np.concatenate(masks)[consistent].all()


def test_no_screen_where_its_allowance_keeps_every_pattern(monkeypatch):
    # the z . g of two sign patterns differ by at most 2 ||g|| ||y[pivots]||
    # <= 4 ||g^|| ||y[pivots]||, so a weight of 4 ||g^|| or more keeps every
    # pattern of every row in range. With the last row of the 3x8 key times
    # 1e-6 the weight is 3.27 against 4 ||g^|| = 2.26: no screen. Times 1e-4
    # it is 3.3e-4, and the screen keeps a quarter of the pairs. Either way
    # every row of omega_many has the bits of its one-row call, which is
    # never screened
    masks = _screen_masks(monkeypatch)
    for scale, screened in ((1e-6, False), (1e-4, True)):
        key = _thin_key(scale)
        screen = inversion._pattern_screen(key)
        assert (screen is not None) == screened
        if screened:
            assert screen.weight < 4.0 * np.linalg.norm(screen.g)
        y = alpha_many(key, np.random.Generator(np.random.PCG64(72)).standard_normal((200, 3)))
        masks.clear()
        batch = omega_many(key, y)
        assert bool(masks) == screened
        if screened:
            kept = np.concatenate(masks)
            assert kept.mean() < 0.5 and kept.any(axis=1).all()
        for i in range(len(y)):
            _same_recovery(batch.result(i), omega(key, y[i]))


def test_one_row_calls_and_small_batches_build_no_screen():
    key = generate_key(4, 12, 3)
    rng = np.random.Generator(np.random.PCG64(71))
    y = alpha_many(key, rng.standard_normal((40, 4)))
    cfg = rng.standard_normal((2, 4))
    omega(key, y[0])
    invert_beta(key, beta(key, cfg).matrix)
    invert_beta_tilde(key, beta_tilde(key, cfg))
    omega_many(key, y[:1])
    omega_many(key, np.stack([y[1], np.zeros(key.D)]))  # one live row
    assert "pattern_screen" not in key._cache
    omega_many(key, y[:2])
    assert "pattern_screen" in key._cache


@pytest.mark.parametrize("d, D, seed", [(3, 8, 1), (4, 12, 2), (2, 4, 3)])
def test_invert_beta_many_matches_single_calls(d, D, seed):
    key = generate_key(d, D, seed)
    rng = np.random.Generator(np.random.PCG64(70 + seed))
    cfg = rng.standard_normal((30, 2, d))
    cfg[2] = 0.0
    emb = beta_many(key, cfg)[0]
    got = invert_beta_many(key, emb)
    for i in range(len(cfg)):
        single = invert_beta(key, emb[i])
        # the batch shares one least-squares call for the pseudoinverse
        scale = max(1.0, np.abs(single).max())
        np.testing.assert_allclose(got[i], single, rtol=0, atol=1e-14 * scale)
        assert single.tobytes() == oracles.invert_beta(key, emb[i]).tobytes()

    tilde = beta_tilde_many(key, cfg)
    got = invert_beta_tilde_many(key, tilde)
    for i in range(len(cfg)):
        assert got[i].tobytes() == invert_beta_tilde(key, tilde[i]).tobytes()
        assert got[i].tobytes() == oracles.invert_beta_tilde(key, tilde[i]).tobytes()


def test_invert_beta_many_error_parity(a_ref_key):
    cfg = np.array([[0.3, 1.1], [-0.4, 0.2]])
    good = beta(a_ref_key, cfg).matrix
    unsorted = good[::-1].copy()
    corrupted = good.copy()
    corrupted[0, 0] += 0.5
    for rows in ([good, unsorted, corrupted], [good, corrupted, unsorted]):
        _raises_like_single(lambda: invert_beta_many(a_ref_key, rows),
                            lambda: oracles.invert_beta(a_ref_key, rows[1]))
    with pytest.raises(DimensionError):
        invert_beta_many(a_ref_key, np.zeros((2, 2, 4)))
    # a key failing the certificate fails every row, unless row 0 failed earlier
    ident = Key(np.eye(2))
    ok = np.array([[1.0, 1.0], [0.0, 0.0]])
    _raises_like_single(lambda: invert_beta_many(ident, [ok, ok[::-1]]),
                        lambda: oracles.invert_beta(ident, ok))
    _raises_like_single(lambda: invert_beta_many(ident, [ok[::-1], ok]),
                        lambda: oracles.invert_beta(ident, ok[::-1]))


def test_invert_beta_tilde_many_error_parity(a_ref_key):
    good = beta_tilde(a_ref_key, np.array([[0.3, 1.1], [-0.4, 0.2]]))
    negative = good.copy()
    negative[3] = -1.0
    corrupted = good.copy()
    corrupted[2] += 0.5
    for rows in ([good, negative, corrupted], [good, corrupted, negative]):
        _raises_like_single(lambda: invert_beta_tilde_many(a_ref_key, rows),
                            lambda: oracles.invert_beta_tilde(a_ref_key, rows[1]))
    with pytest.raises(DimensionError):
        invert_beta_tilde_many(a_ref_key, np.zeros((2, 4)))


def _moved_sum_row_error(scale):
    """invert_beta_many's error on embeddings of the 4x12 key times scale
    whose row 1 has its sum row moved out of the range of A^T."""
    base = generate_key(4, 12, 1).matrix
    key = Key(base * scale)
    emb = beta_many(key, np.random.Generator(np.random.PCG64(73)).standard_normal((3, 2, 4)))[0]
    off_range = np.linalg.qr(base.T, mode="complete")[0][:, 4]  # orthogonal to A's rows
    emb[1] += 0.025 * np.abs(emb[1]).max() * off_range  # both rows alike: still sorted
    with pytest.raises(NotInRange, match="re-encoding residual") as exc:
        invert_beta_many(key, emb)
    return [float(f) for f in re.findall(r"\d\.\d+e[+-]\d+", str(exc.value))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_reencoding_check_is_scale_free(scale):
    # each row's norms are taken on its own power-of-two scale: at 1e-200
    # their squares underflowed to 0 and the moved embedding was accepted,
    # at 1e200 they overflowed; the figures of the message are scaled back
    want = _moved_sum_row_error(1.0)
    got = _moved_sum_row_error(scale)
    np.testing.assert_allclose(np.array(got) / scale, want, rtol=2e-3)
