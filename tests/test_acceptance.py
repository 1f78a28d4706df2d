"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import json
import math
import time

import numpy as np

from phasesort import (
    Key,
    alpha,
    beta,
    beta_tilde,
    build_report,
    check_achievement,
    dist_hat_H,
    dist_hat_V,
    generate_key,
    invert_beta,
    invert_beta_tilde,
    is_full_spark,
    is_phase_retrievable,
    is_universal_key,
    lower_constant,
    omega,
    ratio_scan,
    upper_constant,
)
from phasesort.matrixio import parse_matrix, save_matrix, serialize_matrix

import oracles
from conftest import A_REF, run_cli, sym2x2_eigenvalues


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:2d} FAIL: {desc}")
                raise
            print(f"ACCEPTANCE {num:2d} PASS: {desc}")

        return wrapper

    return deco


def _deficient_variant(mat: np.ndarray, kind: str) -> np.ndarray:
    out = mat.copy()
    if kind == "repeat":
        out[:, -1] = out[:, 0]
    else:
        out[:, -1] = 0.0
    return out


@criterion(1, "certificate equivalence over >= 200 mixed keys, < 30 s")
def test_criterion_1_certificate_equivalence():
    start = time.monotonic()
    checked = 0
    for d in range(2, 6):
        for D in range(d, 2 * d + 3):
            for variant in range(8):
                base = generate_key(d, D, 10_000 + 100 * d + 10 * D + variant)
                if variant == 6:
                    key = Key(_deficient_variant(base.matrix, "repeat"))
                elif variant == 7:
                    key = Key(_deficient_variant(base.matrix, "zero"))
                else:
                    key = base
                pr = is_phase_retrievable(key)
                uk = is_universal_key(key)
                assert pr.verdict == uk.verdict
                if D == 2 * d - 1:
                    assert uk.verdict == is_full_spark(key).verdict
                checked += 1
    assert checked >= 200
    assert time.monotonic() - start < 30.0


@criterion(2, "sorted-embedding split identity on 1e4 random pairs, < 10 s")
def test_criterion_2_split_identity():
    start = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(777))
    pairs = 0
    for k in range(200):
        d = 2 + k % 5
        D = int(rng.integers(d, 2 * d + 3))
        key = generate_key(d, D, 20_000 + k)
        a = key.matrix
        for _ in range(50):
            cfg = rng.standard_normal((2, d))
            emb = beta(key, cfg).matrix
            diff, total = emb[0] - emb[1], emb[0] + emb[1]
            want_diff = np.abs(a.T @ (cfg[0] - cfg[1]))
            want_total = a.T @ (cfg[0] + cfg[1])
            assert np.linalg.norm(diff - want_diff) <= 1e-12 * max(1.0, np.linalg.norm(want_diff))
            assert np.linalg.norm(total - want_total) <= 1e-12 * max(1.0, np.linalg.norm(want_total))
            pairs += 1
    assert pairs == 10_000
    assert time.monotonic() - start < 10.0


@criterion(3, "five min/max/abs identities exact on 1e6 random pairs")
def test_criterion_3_minmax_identities():
    rng = np.random.Generator(np.random.PCG64(888))
    u = rng.standard_normal(1_000_000)
    v = rng.standard_normal(1_000_000)
    mx, mn = np.maximum(u, v), np.minimum(u, v)
    assert np.all(np.abs(u - v) == mx - mn)
    assert np.all(u + v == mx + mn)
    assert np.all(
        np.abs(np.abs(u) - np.abs(v)) == np.minimum(np.abs(u - v), np.abs(u + v))
    )
    # the two halved forms, 2 max = u + v + |u - v| and 2 min = u + v - |u - v|,
    # round if evaluated directly in floats. Over the reals the first holds
    # exactly when max is one of u, v and at least both, and the second when
    # min is one of them and at most both; comparisons of finite doubles are
    # exact, so these check numpy's maximum and minimum without rounding
    assert np.all(((mx == u) | (mx == v)) & (mx >= u) & (mx >= v)
                  & ((mn == u) | (mn == v)) & (mn <= u) & (mn <= v))
    # and the halved forms themselves in integer arithmetic, one pair at a
    # time, on numpy's outputs for the first 10,000 pairs
    assert oracles.halved_identities(u[:10_000], v[:10_000]).all()


@criterion(4, "decoder roundtrips over 1e3 certified keys at d <= 6, < 60 s")
def test_criterion_4_roundtrips():
    start = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(999))
    for k in range(1000):
        d = 2 + k % 5
        D = 2 * d - 1 + k % 3
        key = generate_key(d, D, 30_000 + k)
        assert is_phase_retrievable(key).verdict
        x = rng.standard_normal(d)
        rec = omega(key, alpha(key, x))
        assert dist_hat_H(rec.x, x) <= 1e-8 * max(1.0, np.linalg.norm(x))
        cfg = rng.standard_normal((2, d))
        back = invert_beta(key, beta(key, cfg).matrix)
        assert dist_hat_V(back, cfg)[0] <= 1e-8 * max(1.0, np.linalg.norm(cfg))
        back = invert_beta_tilde(key, beta_tilde(key, cfg))
        assert dist_hat_V(back, cfg)[0] <= 1e-8 * max(1.0, np.linalg.norm(cfg))
    assert time.monotonic() - start < 60.0


@criterion(5, "reference-key constants match closed forms to 1e-10")
def test_criterion_5_reference_constants():
    key = Key(A_REF)
    lam1, _ = sym2x2_eigenvalues(A_REF @ A_REF.T)
    b0_oracle = math.sqrt(lam1)
    _, lam2 = sym2x2_eigenvalues([[1.0, 1.0], [1.0, 2.0]])
    a0_oracle = math.sqrt(lam2)
    assert abs(b0_oracle - math.sqrt(3.0)) <= 1e-15
    assert abs(a0_oracle - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-15
    assert abs(upper_constant(key) - b0_oracle) <= 1e-10
    a0, part = lower_constant(key)
    assert abs(a0 - a0_oracle) <= 1e-10
    assert part.indices() == (1,)


@criterion(6, "witness achievement on >= 50 certified keys at 1e-8")
def test_criterion_6_achievement():
    passed = 0
    for d in (2, 3, 4):
        for D in (2 * d - 1, 2 * d, 2 * d + 1):
            for s in range(6):
                key = generate_key(d, D, 40_000 + 100 * d + 10 * D + s)
                assert is_phase_retrievable(key).verdict
                report = build_report(key)
                result = check_achievement(key, report)
                assert result.passed and result.lower_checked
                dv_max = result.details["beta-upper-distance"]["measured"]
                dv2_min = result.details["beta-lower-distance-squared"]["measured"]
                assert abs(dv_max - 1.0) <= 1e-8
                assert abs(dv2_min - 2.0) <= 2e-8
                passed += 1
    assert passed >= 50


@criterion(7, "1e4-sample ratio scan stays in [A0 - 1e-9, B0 + 1e-9] on both metrics")
def test_criterion_7_sandwich():
    for key in (Key(A_REF), generate_key(3, 6, 50_001)):
        assert is_phase_retrievable(key).verdict
        a0, _ = lower_constant(key)
        b0 = upper_constant(key)
        scan = ratio_scan(key, 10_000, 4321, include_witnesses=True)
        for lo, hi in (
            (scan.min_ratio, scan.max_ratio),
            (scan.alpha_min_ratio, scan.alpha_max_ratio),
        ):
            assert a0 - 1e-9 <= lo <= hi <= b0 + 1e-9


@criterion(8, "keys with D <= 2d-2 are never universal (exhaustive)")
def test_criterion_8_too_few_columns():
    for d in (2, 3, 4):
        for D in range(1, 2 * d - 1):
            for s in range(20):
                key = generate_key(d, D, 60_000 + 100 * d + 20 * D + s)
                assert not is_universal_key(key).verdict


@criterion(9, "embedding sizes at d=5, D=9: compressed 3d-1 = 14, sorted 2D = 18")
def test_criterion_9_embedding_dimensions():
    d, D = 5, 9
    assert D == 2 * d - 1
    key = generate_key(d, D, 70_001)
    cfg = np.random.Generator(np.random.PCG64(70_002)).standard_normal((2, d))
    tilde = beta_tilde(key, cfg)
    assert tilde.shape == (d + D,) and d + D == 3 * d - 1 == 14
    emb = beta(key, cfg).matrix
    assert emb.size == 2 * D == 18


@criterion(10, "CLI byte determinism and bit-exact matrix file round-trip")
def test_criterion_10_cli_determinism(tmp_path):
    keyfile = tmp_path / "key.txt"
    outs = []
    for run in range(2):
        out = tmp_path / f"key{run}.txt"
        res = run_cli("keygen", "--rows", "3", "--cols", "6", "--seed", "2024",
                      "--out", str(out), cwd=tmp_path)
        assert res.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    save_matrix(keyfile, parse_matrix(outs[0].decode()))

    for command in (
        ("check", str(keyfile)),
        ("bounds", str(keyfile)),
        ("verify", str(keyfile), "--samples", "50", "--seed", "9"),
    ):
        r1 = run_cli(*command, cwd=tmp_path)
        r2 = run_cli(*command, cwd=tmp_path)
        assert r1.returncode == r2.returncode
        assert r1.stdout == r2.stdout and r1.stdout
        json.loads(r1.stdout)  # stays valid JSON

    # bit-exact text round-trip on random doubles drawn from raw bit patterns
    rng = np.random.Generator(np.random.PCG64(314159))
    bits = rng.integers(0, 2**64, size=120_000, dtype=np.uint64)
    doubles = bits.view(np.float64)
    doubles = doubles[np.isfinite(doubles)][:100_000]
    assert doubles.size == 100_000
    m = doubles.reshape(1000, 100)
    back = parse_matrix(serialize_matrix(m))
    assert back.tobytes() == m.tobytes()
