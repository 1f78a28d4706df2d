import math
import warnings

import numpy as np
import pytest

from phasesort import DimensionError, SvdResult, ToleranceConfig, least_squares, rank, sigma_k, svd
from phasesort import screens
from phasesort.numerics import ranks

import oracles
from conftest import A_REF, sym2x2_eigenvalues


def test_svd_diagonal():
    res = svd(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(res.singular_values, [2.0, 1.0], rtol=0, atol=0)


def test_svd_zero_matrix():
    res = svd(np.zeros((2, 3)))
    np.testing.assert_array_equal(res.singular_values, [0.0, 0.0])


def test_svd_reference_key_values():
    # Gram of A_REF is [[2,1],[1,2]]; eigenvalues 3 and 1 by char poly
    lam1, lam2 = sym2x2_eigenvalues(A_REF @ A_REF.T)
    res = svd(A_REF)
    np.testing.assert_allclose(
        res.singular_values, [math.sqrt(lam1), math.sqrt(lam2)], rtol=1e-14
    )


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.Generator(np.random.PCG64(11))
    for shape in [(2, 3), (5, 4), (6, 6), (3, 9), (1, 1)]:
        m = rng.standard_normal(shape)
        res = svd(m)
        rebuilt = res.left_vectors @ np.diag(res.singular_values) @ res.right_vectors_t
        fro = np.linalg.norm(m)
        assert np.linalg.norm(m - rebuilt) <= 1e-10 * max(1.0, fro)
        gram = res.left_vectors.T @ res.left_vectors
        assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-10
        # nonincreasing and nonnegative
        s = res.singular_values
        assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)


def test_svd_singular_triples():
    rng = np.random.Generator(np.random.PCG64(12))
    m = rng.standard_normal((5, 7))
    res = svd(m)
    s1 = res.singular_values[0]
    for i, sigma in enumerate(res.singular_values):
        u = res.left_vectors[:, i]
        v = res.right_vectors_t[i, :]
        assert np.linalg.norm(m @ v - sigma * u) <= 1e-9 * s1


def test_svd_sign_convention():
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(20):
        res = svd(rng.standard_normal((4, 6)))
        for j in range(res.left_vectors.shape[1]):
            col = res.left_vectors[:, j]
            assert col[np.argmax(np.abs(col))] >= 0


def test_svd_deterministic_repeat():
    rng = np.random.Generator(np.random.PCG64(14))
    m = rng.standard_normal((4, 5))
    r1, r2 = svd(m), svd(m)
    assert r1.singular_values.tobytes() == r2.singular_values.tobytes()
    assert r1.left_vectors.tobytes() == r2.left_vectors.tobytes()
    assert r1.right_vectors_t.tobytes() == r2.right_vectors_t.tobytes()


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan]]))


def test_sigma_k_reference_key():
    lam1, _ = sym2x2_eigenvalues(A_REF @ A_REF.T)
    assert sigma_k(A_REF, 1) == pytest.approx(math.sqrt(lam1), rel=1e-14)


def test_sigma_k_out_of_range_is_zero():
    assert sigma_k(np.array([[1.0], [0.0]]), 2) == 0.0


def test_sigma_k_identity():
    assert sigma_k(np.eye(2), 2) == pytest.approx(1.0)


def test_sigma_k_nonincreasing_in_k():
    rng = np.random.Generator(np.random.PCG64(15))
    m = rng.standard_normal((4, 7))
    values = [sigma_k(m, k) for k in range(1, 7)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_sigma_k_requires_positive_k():
    with pytest.raises(ValueError):
        sigma_k(np.eye(2), 0)


def test_least_squares_identity():
    np.testing.assert_allclose(least_squares(np.eye(2), [3.0, 4.0]), [3.0, 4.0])


def test_least_squares_reference_transpose():
    # b = A_REF^T (1,2) = (1,2,3); normal equations give back (1,2)
    sol = least_squares(A_REF.T, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(sol, [1.0, 2.0], rtol=0, atol=1e-14)


def test_least_squares_minimum_norm():
    sol = least_squares(np.array([[1.0, 0.0], [0.0, 0.0]]), [1.0, 1.0])
    np.testing.assert_allclose(sol, [1.0, 0.0], atol=1e-14)


def test_least_squares_residual_property():
    rng = np.random.Generator(np.random.PCG64(16))
    for _ in range(25):
        m = rng.standard_normal((6, 4))
        z = rng.standard_normal(4)
        b = m @ z
        sol = least_squares(m, b)
        assert np.linalg.norm(m @ sol - b) <= 1e-9 * np.linalg.norm(b)


def test_least_squares_dimension_mismatch():
    with pytest.raises(DimensionError):
        least_squares(np.eye(2), [1.0, 2.0, 3.0])


def test_rank_examples():
    assert rank(np.eye(3)) == 3
    assert rank(np.zeros((4, 2))) == 0
    assert rank(np.array([[1.0, 1.0], [0.0, 0.0]])) == 1


def test_rank_scale_invariance():
    rng = np.random.Generator(np.random.PCG64(17))
    m = rng.standard_normal((5, 5))
    m[4] = m[3]  # force rank 4
    assert rank(m) == rank(1e150 * m) == rank(1e-150 * m) == 4


def test_tolerance_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        ToleranceConfig(rank_tol_factor=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(consistency_tol=-1e-9)


def test_svd_result_is_plain_dataclass():
    res = svd(np.eye(2))
    assert isinstance(res, SvdResult)
    assert res.singular_values.shape == (2,)


def test_ranks_match_rank_per_matrix():
    rng = np.random.Generator(np.random.PCG64(11))
    stack = rng.standard_normal((40, 3, 5))
    stack[3] = 0.0
    stack[7, :, 4] = stack[7, :, 0]
    stack[9] = np.outer(stack[9, :, 0], np.ones(5))
    stack[12] *= 1e-300
    got = ranks(stack)
    assert got.tolist() == [rank(m) for m in stack]
    assert got[3] == 0 and got[9] == 1


def _test_grams() -> dict:
    """Symmetric positive semidefinite Grams of every kind the A0 screen meets."""
    rng = np.random.Generator(np.random.PCG64(71))
    grams = {"zero-3": np.zeros((3, 3)), "zero-1": np.zeros((1, 1))}
    for d in range(1, 7):
        grams[f"identity-{d}"] = np.eye(d)
        for n in (d, 2 * d + 1):
            a = rng.standard_normal((d, n))
            grams[f"random-{d}x{n}"] = a @ a.T
        cols = rng.standard_normal((d, max(1, d - 1)))
        grams[f"repeated-columns-{d}"] = np.repeat(cols, 3, axis=1) @ np.repeat(cols, 3, axis=1).T
        a = rng.standard_normal((d, max(1, d - 2))) @ rng.standard_normal((max(1, d - 2), 2 * d))
        grams[f"rank-deficient-{d}"] = a @ a.T
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        for exponent in (8, 12, 15, 17):
            scales = np.logspace(0, -exponent, d)
            grams[f"ill-conditioned-{d}-1e{exponent}"] = (q * scales) @ q.T
    for scale in (1e-150, 1e150):
        a = rng.standard_normal((4, 9))
        grams[f"scaled-{scale:g}"] = scale * (a @ a.T)
    return grams


GRAMS = _test_grams()


@pytest.mark.parametrize("name", sorted(GRAMS))
def test_shifted_cholesky_never_settles_below_the_shift(name):
    g = GRAMS[name]
    d = g.shape[0]
    eps = np.finfo(float).eps
    lam = float(np.linalg.eigvalsh(g)[0])
    norm = float(np.linalg.norm(g, 2))
    unit = eps * max(norm, np.finfo(float).tiny)
    taus = [lam + k * unit for k in (-1e4, -100, -10, -1, 0, 1, 10, 100, 1e4)]
    taus += [lam * f for f in (0.5, 1 - 1e-9, 1 + 1e-9, 2.0)] + [0.0, -norm, norm, 2 * norm]
    stack = np.repeat(g[None], len(taus), axis=0)
    before = stack.copy()
    ok = np.array([screens.shifted_cholesky_ok(g[None], tau)[0] for tau in taus])
    assert g.tobytes() == stack[0].tobytes()  # a stack of one is not factored in place
    for tau, passed in zip(taus, ok):
        # e of the docstring plus eigvalsh's error, far below the screen's err_lam
        err = 4 * (d + 1) ** 2 * eps * max(norm, abs(tau))
        if passed:
            assert lam >= tau - err, (tau, lam)
        if lam - tau >= 32 * (d + 1) ** 2 * eps * max(norm, abs(tau)) and lam - tau > 0:
            assert passed, (tau, lam)
    # one tau over a stack gives the answers of the matrices one by one
    for tau, passed in zip(taus, ok):
        assert np.array_equal(screens.shifted_cholesky_ok(stack, tau), np.full(len(taus), passed))
    assert stack.tobytes() == before.tobytes()


@pytest.mark.parametrize("d", range(1, 7))
def test_shifted_cholesky_matches_full_update_oracle(d):
    # updating only the upper triangle keeps the bits it reads, so every answer
    stack = np.stack([g for g in GRAMS.values() if g.shape[0] == d])
    lam = np.linalg.eigvalsh(stack)[:, 0]
    for tau in np.concatenate([lam, lam * (1 + 1e-9), lam * (1 - 1e-9), [0.0, 1e-12, 1.0]]):
        want = oracles.shifted_cholesky_ok(stack, tau)
        assert np.array_equal(screens.shifted_cholesky_ok(stack, tau), want)


@pytest.mark.parametrize("d", range(1, 7))
def test_shifted_cholesky_reads_only_the_upper_triangle(d):
    # the packed layout keeps the upper triangle, so whatever the lower one
    # holds, every answer is that of the symmetric stack
    stack = np.stack([g for g in GRAMS.values() if g.shape[0] == d])
    junk = stack.copy()
    lower = np.tril_indices(d, -1)
    junk[:, lower[0], lower[1]] = np.random.Generator(np.random.PCG64(d)).standard_normal(
        (len(stack), lower[0].size)) * 1e3
    lam = np.linalg.eigvalsh(stack)[:, 0]
    for tau in np.concatenate([lam, lam * (1 - 1e-9), [0.0, 1.0]]):
        assert np.array_equal(screens.shifted_cholesky_ok(junk, tau),
                              oracles.shifted_cholesky_ok(stack, tau))


@pytest.mark.parametrize("d", range(1, 7))
def test_packed_layout(d):
    # row by row through the upper triangle, row i from _row_starts(d)[i] on
    rows, cols = screens.packed_pairs(d)
    assert list(zip(rows.tolist(), cols.tolist())) == [
        (i, j) for i in range(d) for j in range(i, d)]
    start = screens._row_starts(d)
    for i in range(d):
        assert rows[start[i]:start[i + 1]].tolist() == [i] * (d - i)
    assert start[d] == rows.size == d * (d + 1) // 2
    a = np.random.Generator(np.random.PCG64(40 + d)).standard_normal((5, d, d + 2))
    stack = a @ a.transpose(0, 2, 1)
    sym = (stack + stack.transpose(0, 2, 1)) / 2  # exactly symmetric
    packed = screens.pack(sym)
    assert packed.shape == (rows.size, 5) and packed.flags.c_contiguous
    assert screens.pack(sym[2]).tobytes() == packed[:, 2].tobytes()
    assert screens.unpack(packed).tobytes() == sym.tobytes()
    # unpacking mirrors the upper triangle, whatever the lower one held
    junk = sym + np.tril(np.ones((d, d)), -1)
    assert screens.unpack(screens.pack(junk)).tobytes() == sym.tobytes()


def test_shifted_cholesky_empty_stack():
    assert screens.shifted_cholesky_ok(np.zeros((0, 3, 3)), 1.0).shape == (0,)


def _failing_grams(d: int) -> dict:
    """Grams whose factorization at tau = 0 fails at step k, for every k:
    a zero pivot whose row is zero or not, a negative pivot, and a tiny
    positive pivot whose row, or its square, overflows.

    G = L L^T for a unit lower-triangular L of small integers has integer
    entries, unit pivots and, after step k, the entries L[j, k] in row k, so
    elimination is exact up to the pivot that is changed."""
    rng = np.random.Generator(np.random.PCG64(90 + d))
    tiny = np.finfo(float).smallest_subnormal
    grams = {}
    for k in range(d):
        low = np.tril(rng.integers(-2, 3, size=(d, d)).astype(float), -1) + np.eye(d)
        low[k + 1:, k] = np.where(low[k + 1:, k] == 0.0, 1.0, low[k + 1:, k])
        g = low @ low.T
        for name, drop in (("zero", 1.0), ("negative", 3.0)):
            grams[f"{name}-{k}"] = g - drop * np.diag(np.eye(d)[k])
        flat = low.copy()
        flat[k + 1:, k] = 0.0  # row k after step k is zero: 0 / 0 = NaN
        grams[f"zero-row-{k}"] = flat @ flat.T - np.diag(np.eye(d)[k])
        # row k of L zero before its diagonal, so pivot k is G[k, k] itself
        lone = low.copy()
        lone[k, :k] = 0.0
        g = lone @ lone.T
        for name, entry in (("overflowing-row", 1e300), ("overflowing-square", 1.0)):
            h = g.copy()
            h[k, k] = tiny
            h[k, k + 1:] = h[k + 1:, k] = entry
            grams[f"{name}-{k}"] = h
    return grams


@pytest.mark.parametrize("d", range(1, 7))
def test_shifted_cholesky_failed_pivots_run_to_nan(d):
    # the kernel keeps factoring past a failed pivot; its verdict, the last
    # pivot's sign, is the oracle's, which stops at the first failure
    grams = _failing_grams(d)
    passing = np.stack([g for g in GRAMS.values() if g.shape[0] == d])
    for tau in (0.0, 0.5):
        shift = tau * np.eye(d)
        stack = np.concatenate([np.stack(list(grams.values())) + shift, passing])
        with np.errstate(all="ignore"):  # the oracle's own overflow and NaN
            want = oracles.shifted_cholesky_ok(stack, tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = screens.shifted_cholesky_ok(stack, tau)
        assert np.array_equal(got, want)
        if tau == 0.0:  # a shift of 0.5 absorbs the tiny pivots
            for name, verdict in zip(grams, want):
                step = int(name.rsplit("-", 1)[1])
                # a tiny positive last pivot factors; every other planted one fails
                assert verdict == (name.startswith("overflowing") and step == d - 1), name
