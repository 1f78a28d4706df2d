import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from phasesort import (
    DimensionError,
    Key,
    SearchTooLarge,
    UnsupportedN,
    alpha,
    alpha_many,
    analysis,
    analysis_many,
    beta,
    beta_many,
    beta_tilde,
    beta_tilde_many,
    dist_hat_H,
    dist_hat_H_many,
    dist_hat_V,
    dist_hat_V_many,
    encoders,
    generate_key,
    hadamard_split,
    sort_desc_columns,
)
from phasesort.verify import exact_half_identities

from conftest import A_REF, ADVERSARIAL

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_alpha_reference():
    np.testing.assert_array_equal(alpha(Key(A_REF), [1.0, 2.0]), [1.0, 2.0, 3.0])


def test_alpha_zero():
    np.testing.assert_array_equal(alpha(Key(A_REF), [0.0, 0.0]), np.zeros(3))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=2))
def test_alpha_sign_invariance_bitwise(x):
    key = Key(A_REF)
    a1, a2 = alpha(key, x), alpha(key, [-v for v in x])
    assert a1.tobytes() == a2.tobytes()


def test_sort_desc_swap():
    out, perms = sort_desc_columns(np.array([[1.0], [3.0]]))
    np.testing.assert_array_equal(out, [[3.0], [1.0]])
    np.testing.assert_array_equal(perms[0], [1, 0])


def test_sort_desc_tie_is_stable_identity():
    out, perms = sort_desc_columns(np.array([[5.0], [5.0]]))
    np.testing.assert_array_equal(out, [[5.0], [5.0]])
    np.testing.assert_array_equal(perms[0], [0, 1])


def test_sort_desc_two_columns():
    out, _ = sort_desc_columns(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out, [[3.0, 4.0], [1.0, 2.0]])


def test_sort_desc_stability_among_equals():
    col = np.array([[2.0, 1.0], [3.0, 1.0], [3.0, 1.0], [1.0, 1.0]])
    out, perms = sort_desc_columns(col)
    np.testing.assert_array_equal(out[:, 0], [3.0, 3.0, 2.0, 1.0])
    # the two 3.0 rows keep their original order: row 1 before row 2
    np.testing.assert_array_equal(perms[0], [2, 0, 1, 3])
    np.testing.assert_array_equal(perms[1], [0, 1, 2, 3])


def test_beta_identity_key():
    emb = beta(Key(np.eye(2)), [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(emb.matrix, [[3.0, 4.0], [1.0, 2.0]])


def test_beta_permutation_invariance_bitwise():
    rng = np.random.Generator(np.random.PCG64(31))
    key = generate_key(3, 5, 7)
    for n in range(1, 6):
        cfg = rng.standard_normal((n, 3))
        base = beta(key, cfg).matrix
        for perm in itertools.permutations(range(n)):
            assert beta(key, cfg[list(perm)]).matrix.tobytes() == base.tobytes()
    # larger row counts: sampled permutations instead of all n!
    for n in range(6, 9):
        cfg = rng.standard_normal((n, 3))
        base = beta(key, cfg).matrix
        for _ in range(10):
            perm = rng.permutation(n)
            assert beta(key, cfg[perm]).matrix.tobytes() == base.tobytes()


def test_beta_equal_rows():
    key = Key(A_REF)
    row = np.array([1.5, -0.5])
    emb = beta(key, np.vstack([row, row]))
    np.testing.assert_array_equal(emb.matrix[0], emb.matrix[1])
    np.testing.assert_array_equal(emb.matrix[0], row @ A_REF)


def test_beta_columns_sorted_structurally():
    rng = np.random.Generator(np.random.PCG64(32))
    key = generate_key(4, 9, 2)
    for _ in range(20):
        m = beta(key, rng.standard_normal((5, 4))).matrix
        assert np.all(m[:-1, :] >= m[1:, :])


def test_beta_dimension_error():
    with pytest.raises(DimensionError):
        beta(Key(A_REF), [[1.0, 2.0, 3.0]])


def test_beta_tilde_equal_rows():
    out = beta_tilde(Key(A_REF), [[1.0, 2.0], [1.0, 2.0]])
    np.testing.assert_array_equal(out, [1.0, 2.0, 0.0, 0.0, 0.0])


def test_beta_tilde_reference():
    out = beta_tilde(Key(A_REF), [[1.0, 0.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0, 0.0, 2.0])


def test_beta_tilde_swap_invariant():
    key = generate_key(3, 5, 4)
    rng = np.random.Generator(np.random.PCG64(33))
    cfg = rng.standard_normal((2, 3))
    np.testing.assert_array_equal(beta_tilde(key, cfg), beta_tilde(key, cfg[::-1]))


def test_beta_tilde_wrong_rows():
    with pytest.raises(UnsupportedN):
        beta_tilde(Key(A_REF), np.zeros((3, 2)))


def test_hadamard_split_example():
    diff, total = hadamard_split(np.array([[3.0, 4.0], [1.0, 2.0]]))
    np.testing.assert_array_equal(diff, [2.0, 2.0])
    np.testing.assert_array_equal(total, [4.0, 6.0])


def test_hadamard_split_equal_rows_and_zero():
    diff, total = hadamard_split(np.array([[1.0, 2.0], [1.0, 2.0]]))
    np.testing.assert_array_equal(diff, [0.0, 0.0])
    np.testing.assert_array_equal(total, [2.0, 4.0])
    diff, total = hadamard_split(np.zeros((2, 4)))
    np.testing.assert_array_equal(diff, np.zeros(4))
    np.testing.assert_array_equal(total, np.zeros(4))


def test_hadamard_split_connects_encoders():
    rng = np.random.Generator(np.random.PCG64(34))
    key = generate_key(4, 8, 9)
    for _ in range(200):
        cfg = rng.standard_normal((2, 4))
        diff, total = hadamard_split(beta(key, cfg))
        want_diff = alpha(key, cfg[0] - cfg[1])
        want_total = analysis(key, cfg[0] + cfg[1])
        assert np.linalg.norm(diff - want_diff) <= 1e-12 * max(1.0, np.linalg.norm(want_diff))
        assert np.linalg.norm(total - want_total) <= 1e-12 * max(1.0, np.linalg.norm(want_total))


def test_hadamard_split_needs_two_rows():
    with pytest.raises(UnsupportedN):
        hadamard_split(np.zeros((3, 4)))


@settings(max_examples=200, deadline=None)
@given(finite_floats, finite_floats)
def test_minmax_lattice_identities(u, v):
    mx, mn = max(u, v), min(u, v)
    assert abs(u - v) == mx - mn
    assert u + v == mx + mn
    assert abs(abs(u) - abs(v)) == min(abs(u - v), abs(u + v))
    assert exact_half_identities(u, v)


def test_dist_hat_H_examples():
    assert dist_hat_H([1.0, 0.0], [-1.0, 0.0]) == 0.0
    assert dist_hat_H([1.0, 0.0], [0.0, 0.0]) == 1.0
    assert dist_hat_H([3.0, 4.0], [3.0, -4.0]) == 6.0  # min(8, 6)


def test_dist_hat_H_dimension_error():
    with pytest.raises(DimensionError):
        dist_hat_H([1.0], [1.0, 2.0])


def test_dist_hat_V_examples():
    dist, perm = dist_hat_V([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]])
    assert dist == 0.0 and perm == (1, 0)
    dist, perm = dist_hat_V([[1.0, 2.0]], [[1.0, 2.0]])
    assert dist == 0.0 and perm == (0,)
    dist, perm = dist_hat_V([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
    assert dist == 1.0 and perm == (0, 1)  # tie resolved to the identity


def test_dist_hat_V_row_permutation_invariance():
    rng = np.random.Generator(np.random.PCG64(35))
    x = rng.standard_normal((4, 3))
    y = rng.standard_normal((4, 3))
    base = dist_hat_V(x, y)[0]
    for p in itertools.permutations(range(4)):
        for q in itertools.permutations(range(4)):
            assert dist_hat_V(x[list(p)], y[list(q)])[0] == pytest.approx(base, abs=1e-12)
            break  # one q per p keeps this quick
    assert dist_hat_V(y, x)[0] == pytest.approx(base, abs=1e-12)


def test_dist_hat_V_cap():
    with pytest.raises(SearchTooLarge):
        dist_hat_V(np.zeros((9, 2)), np.zeros((9, 2)))


def test_dist_hat_V_shape_mismatch():
    with pytest.raises(DimensionError):
        dist_hat_V(np.zeros((2, 2)), np.zeros((2, 3)))


def test_stacked_metric_crosscheck():
    rng = np.random.Generator(np.random.PCG64(36))
    for _ in range(100):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        stacked = dist_hat_V(np.vstack([x, -x]), np.vstack([y, -y]))[0]
        assert dist_hat_H(x, y) == pytest.approx(stacked / math.sqrt(2.0), abs=1e-12)


def test_embedding_sizes_at_minimal_width():
    d, D = 5, 9
    key = generate_key(d, D, 41)
    cfg = np.random.Generator(np.random.PCG64(42)).standard_normal((2, d))
    assert beta_tilde(key, cfg).shape == (d + D,)
    assert beta(key, cfg).matrix.size == 2 * D


# --- stacked encoders and metrics against the one-at-a-time oracles ----------

def _tied_matrix(rng, n, cols):
    """Entries from a small set, with signed zeros, so columns have many ties."""
    return rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(n, cols))


def test_sort_desc_columns_matches_column_loop():
    rng = np.random.Generator(np.random.PCG64(37))
    for n in range(1, 7):
        for m in (_tied_matrix(rng, n, 5), rng.standard_normal((n, 4))):
            out, perms = sort_desc_columns(m)
            want, want_perms = oracles.sort_desc_columns(m)
            assert out.tobytes() == want.tobytes()  # signed zeros included
            assert len(perms) == len(want_perms)
            for p, q in zip(perms, want_perms):
                assert p.dtype == q.dtype and p.tobytes() == q.tobytes()


def test_beta_many_matches_single_and_oracle():
    rng = np.random.Generator(np.random.PCG64(38))
    key = generate_key(3, 8, 9)
    for n in (1, 2, 4):
        cfg = np.concatenate([rng.standard_normal((6, n, 3)), _tied_matrix(rng, 6 * n, 3)
                              .reshape(6, n, 3)])
        matrices, perms = beta_many(key, cfg)
        for i, c in enumerate(cfg):
            single = beta(key, c)
            want, want_perms = oracles.beta(key, c)
            assert matrices[i].tobytes() == single.matrix.tobytes() == want.tobytes()
            assert np.array_equal(perms[i], single.perms) and np.array_equal(perms[i], want_perms)


def _same_sort(got, want):
    (values, perms), (want_values, want_perms) = got, want
    assert values.shape == want_values.shape and values.tobytes() == want_values.tobytes()
    assert perms.dtype == want_perms.dtype == np.int64
    assert perms.shape == want_perms.shape and perms.tobytes() == want_perms.tobytes()


# two rows go through the one-comparison sort, the other row counts through the argsort
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sort_desc_matches_argsort_oracle(n):
    rng = np.random.Generator(np.random.PCG64(46))
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0]
    stacks = [
        rng.standard_normal((n, 5)),
        _tied_matrix(rng, n, 7),
        _tied_matrix(rng, 9 * n, 7).reshape(9, n, 7),
        rng.choice(specials, size=(40, n, 6)),
        np.repeat(rng.standard_normal((4, n, 1)), 3, axis=2),  # repeated columns
        np.repeat(rng.standard_normal((4, 1, 3)), n, axis=1),  # every row equal
    ]
    if n == 2:  # every ordered pair of special values, as one column each
        stacks.append(np.array(list(itertools.product(specials, repeat=2))).T)
    for a in stacks:
        _same_sort(encoders._sort_desc(a), oracles.sort_desc(a))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_beta_many_matches_argsort_oracle_on_adversarial_keys(name, n):
    key = Key(ADVERSARIAL[name])
    rng = np.random.Generator(np.random.PCG64(47))
    cfg = np.concatenate([
        rng.standard_normal((6, n, key.d)),
        _tied_matrix(rng, 6 * n, key.d).reshape(6, n, key.d),
        np.repeat(rng.standard_normal((2, 1, key.d)), n, axis=1),
    ])
    _same_sort(beta_many(key, cfg), oracles.sort_desc(cfg @ key.matrix))


@given(st.integers(1, 4), st.integers(1, 3), st.lists(finite_floats, min_size=36, max_size=36))
@settings(max_examples=60, deadline=None)
def test_sort_desc_matches_argsort_oracle_hypothesis(n, m, entries):
    cols = len(entries) // (m * n)
    a = np.array(entries[: m * n * cols]).reshape(m, n, cols)
    _same_sort(encoders._sort_desc(a), oracles.sort_desc(a))
    _same_sort(encoders._sort_desc(a[0]), oracles.sort_desc(a[0]))


def test_stacked_encoders_match_single_calls_bitwise():
    rng = np.random.Generator(np.random.PCG64(39))
    for d, D, seed in ((3, 8, 1), (4, 12, 2), (1, 3, 3)):
        key = generate_key(d, D, seed)
        x = rng.standard_normal((20, d))
        cfg = rng.standard_normal((20, 2, d))
        a, t = alpha_many(key, x), beta_tilde_many(key, cfg)
        an = analysis_many(key, x)
        for i in range(20):
            assert an[i].tobytes() == analysis(key, x[i]).tobytes()
            assert a[i].tobytes() == alpha(key, x[i]).tobytes()
            assert a[i].tobytes() == oracles.alpha(key, x[i]).tobytes()
            assert t[i].tobytes() == beta_tilde(key, cfg[i]).tobytes()
            assert t[i].tobytes() == oracles.beta_tilde(key, cfg[i]).tobytes()
    with pytest.raises(UnsupportedN):
        beta_tilde_many(key, np.zeros((2, 3, 1)))
    with pytest.raises(DimensionError):
        beta_many(key, np.zeros((2, 2, 2)))


def test_hadamard_split_of_a_stack():
    key = generate_key(3, 8, 4)
    cfg = np.random.Generator(np.random.PCG64(40)).standard_normal((5, 2, 3))
    diff, total = hadamard_split(beta_many(key, cfg)[0])
    for i in range(5):
        d_i, t_i = hadamard_split(beta(key, cfg[i]))
        assert diff[i].tobytes() == d_i.tobytes() and total[i].tobytes() == t_i.tobytes()


def test_dist_hat_H_many_matches_single_and_oracle():
    rng = np.random.Generator(np.random.PCG64(43))
    for d in (1, 3, 9):
        x, y = rng.standard_normal((30, d)), rng.standard_normal((30, d))
        y[0] = -x[0]
        got = dist_hat_H_many(x, y)
        for i in range(30):
            assert got[i] == dist_hat_H(x[i], y[i]) == oracles.dist_hat_H(x[i], y[i])
    with pytest.raises(DimensionError):
        dist_hat_H_many(np.zeros((2, 3)), np.zeros((3, 3)))


def test_dist_hat_V_many_matches_single_and_oracle():
    rng = np.random.Generator(np.random.PCG64(44))
    for n in range(1, 6):
        x, y = rng.standard_normal((8, n, 2)), rng.standard_normal((8, n, 2))
        dist, perm = dist_hat_V_many(x, y)
        for i in range(8):
            want = oracles.dist_hat_V(x[i], y[i])
            assert dist_hat_V(x[i], y[i]) == want
            assert (dist[i], tuple(perm[i])) == want


def test_metrics_scale_exactly_by_powers_of_two():
    # each pair is measured on its own power-of-two scale: times 2^600 the
    # squares would overflow, times 2^-600 underflow, and a stack mixes
    # pairs 2^-900 .. 2^900 apart; every distance scales exactly, with the
    # same minimizing row order
    rng = np.random.Generator(np.random.PCG64(46))
    x, y = rng.standard_normal((12, 3)), rng.standard_normal((12, 3))
    xx, yy = rng.standard_normal((12, 3, 2)), rng.standard_normal((12, 3, 2))
    y[0], yy[0] = -x[0], xx[0, ::-1]
    dist_h, (dist_v, perm) = dist_hat_H_many(x, y), dist_hat_V_many(xx, yy)
    for scale in (2.0**600, 2.0**-600, np.ldexp(1.0, rng.integers(-900, 900, size=12))):
        s = np.broadcast_to(scale, (12,))
        with np.errstate(all="raise"):
            got_h = dist_hat_H_many(x * s[:, None], y * s[:, None])
            got_v, got_perm = dist_hat_V_many(xx * s[:, None, None], yy * s[:, None, None])
        assert got_h.tobytes() == (dist_h * s).tobytes()
        assert got_v.tobytes() == (dist_v * s).tobytes()
        assert np.array_equal(got_perm, perm)
        assert dist_hat_H(x[1] * s[1], y[1] * s[1]) == dist_h[1] * s[1]
        assert dist_hat_V(xx[1] * s[1], yy[1] * s[1]) == (dist_v[1] * s[1], tuple(perm[1]))


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_dist_hat_V_many_keeps_first_minimizer_on_ties(monkeypatch, chunk):
    # rows repeat, so several row orders reach the minimum; small chunks split
    # the orders across batches and must still keep the lexicographic first
    monkeypatch.setattr(encoders, "_METRIC_CHUNK", chunk)
    rng = np.random.Generator(np.random.PCG64(45))
    for n in (2, 3, 4):
        base = rng.integers(-1, 2, size=(6, n, 2)).astype(float)
        x = base.copy()
        x[:, -1] = x[:, 0]
        y = x[:, ::-1] + 0.0
        dist, perm = dist_hat_V_many(x, y)
        for i in range(6):
            assert (dist[i], tuple(perm[i])) == oracles.dist_hat_V(x[i], y[i])
    tied_x = np.zeros((1, 3, 2))
    dist, perm = dist_hat_V_many(tied_x, tied_x)
    assert dist[0] == 0.0 and tuple(perm[0]) == (0, 1, 2)
