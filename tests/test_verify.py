import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from phasesort import Key, LipschitzViolation, generate_key, lipschitz, ratio_scan, verify
from phasesort.encoders import dist_hat_H_many, dist_hat_V_many
from phasesort.verify import run_battery

from conftest import A_REF

KEYS = {
    "3x8": lambda: generate_key(3, 8, 11),
    "4x12": lambda: generate_key(4, 12, 12),
    "a-ref": lambda: Key(A_REF),
    "identity": lambda: Key(np.eye(2)),  # not injective: the skipped branch
}


def test_battery_passes_on_a_key_scaled_by_1e_minus_6():
    # the decoders accept at consistency_tol * ||y||: measurements of this key
    # are far below 1, where an absolute tolerance accepted two orbits and
    # the battery raised AmbiguityDetected out of its round trips
    key = Key(generate_key(4, 12, 1).matrix * 1e-6)
    results = run_battery(key, 100, 1)
    assert [r.status for r in results] == ["pass"] * 12, results
    assert results == oracles.run_battery(Key(key.matrix), 100, 1)


@pytest.mark.parametrize("scale", [1e100, 1e-6, 1e-200])
def test_battery_passes_on_scaled_keys(scale):
    # ratio_scan's sandwich slack is consistency_tol * B0, so it scales with
    # the key as the ratios do (an absolute slack failed the sandwich at 1e100
    # by 3e84), and the gaps' norms are taken on the unit scale (at 1e-200
    # their squares underflowed to ratios of 0)
    key = Key(generate_key(4, 12, 1).matrix * scale)
    results = run_battery(key, 100, 1)
    assert [r.status for r in results] == ["pass"] * 12, results


@pytest.mark.parametrize("samples", [1, 7, 200])
@pytest.mark.parametrize("name", sorted(KEYS))
def test_battery_matches_loop_oracle(name, samples):
    key = KEYS[name]()
    got = run_battery(key, samples, seed=5)
    assert got == oracles.run_battery(KEYS[name](), samples, seed=5)
    assert all(r.status != "fail" for r in got)


def test_battery_counts_violations(monkeypatch):
    # every sample fails the two patched properties and is counted once
    monkeypatch.setattr(verify, "exact_half_identities", lambda u, v: False)
    monkeypatch.setattr(verify, "hadamard_split", lambda b: (b[:, 0] + 1.0, b[:, 0] + b[:, 1]))
    results = {r.name: r for r in run_battery(KEYS["3x8"](), 7, seed=2)}
    for name in ("minmax-identities", "hadamard-split-identity"):
        assert (results[name].status, results[name].detail) == ("fail", "7 violations")
    assert results["roundtrip-beta"].status == "pass"


# zeros of both signs, the smallest subnormal and normal, the largest finite,
# neighbouring floats and far-apart magnitudes, each with both signs; every
# ordered pair of them, so u = v, u = -v and both orders all occur
_EDGE = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 3.0,
         float(np.nextafter(3.0, np.inf)), 1e300, 1e-300]
_EDGE = _EDGE + [-x for x in _EDGE]
EDGE_U, EDGE_V = (np.array(t) for t in zip(*itertools.product(_EDGE, repeat=2)))


def test_half_identities_match_integer_oracle_on_edge_pairs():
    got = verify.exact_half_identities(EDGE_U, EDGE_V)
    assert got.dtype == bool and got.shape == EDGE_U.shape
    assert np.array_equal(got, oracles.halved_identities(EDGE_U, EDGE_V))
    assert got.all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False, width=64),
                          st.floats(allow_nan=False, allow_infinity=False, width=64)),
                min_size=1, max_size=20))
def test_half_identities_match_integer_oracle(pairs):
    u, v = (np.array(t) for t in zip(*pairs))
    assert np.array_equal(verify.exact_half_identities(u, v), oracles.halved_identities(u, v))


def _one_ulp_up(real):
    def wrong(a, b):
        out = real(a, b)
        return np.where(np.asarray(a) != np.asarray(b), np.nextafter(out, np.inf), out)
    return wrong


# The oracle scales finite doubles only, so pairs holding the largest finite
# value, whose next float is inf, are left out of the mutation cases.
_KEEP = np.maximum(np.abs(EDGE_U), np.abs(EDGE_V)) < np.finfo(np.float64).max
MUT_U, MUT_V = EDGE_U[_KEEP], EDGE_V[_KEEP]


@pytest.mark.parametrize("name, wrong", [
    ("maximum", _one_ulp_up),  # equals neither of the pair
    ("minimum", _one_ulp_up),  # exceeds the smaller of the pair
    ("maximum", lambda real: np.minimum),  # below the larger of the pair
])
def test_half_identities_flag_wrong_extremes_like_the_oracle(monkeypatch, name, wrong):
    # a wrong np.maximum or np.minimum wherever u != v: exactly those pairs fail
    with monkeypatch.context() as m:
        m.setattr(np, name, wrong(getattr(np, name)))
        got = verify.exact_half_identities(MUT_U, MUT_V)
        want = oracles.halved_identities(MUT_U, MUT_V)
    assert np.array_equal(got, MUT_U == MUT_V)
    assert np.array_equal(want, MUT_U == MUT_V)


def test_battery_counts_a_wrong_maximum_like_the_oracle(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(np, "maximum", _one_ulp_up(np.maximum))
        counts = (verify.minmax_identity_failures(MUT_U, MUT_V),
                  oracles.minmax_identity_failures(MUT_U, MUT_V))
    assert counts == (np.count_nonzero(MUT_U != MUT_V),) * 2


def test_battery_counts_permutation_violations_of_one_row_count(monkeypatch):
    # the permuted copy of every 3-row configuration encodes differently, so
    # exactly the samples drawn with 3 rows fail
    real, calls = verify.beta_many, itertools.count()

    def beta_many(key, cfg):
        b, perms = real(key, cfg)
        if cfg.shape[1] == 3 and next(calls) % 2:
            b = b + 1.0
        return b, perms

    monkeypatch.setattr(verify, "beta_many", beta_many)
    samples, seed = 50, 2
    k_3 = int(np.count_nonzero(verify._rng(seed, 3).integers(1, 5, samples) == 3))
    assert 0 < k_3 < samples
    results = {r.name: r for r in run_battery(KEYS["3x8"](), samples, seed)}
    got = results["beta-permutation-invariance"]
    assert (got.status, got.count, got.detail) == ("fail", samples, f"{k_3} violations")
    assert results["roundtrip-beta"].status == "pass"


@pytest.mark.parametrize("samples", [0, -1])
def test_battery_rejects_nonpositive_samples(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        run_battery(Key(A_REF), samples, seed=0)


def _assert_reports_equal(got, want):
    # bit for bit: the oracle's analysis, like analysis_many, works on a
    # contiguous copy, so a strided witness gets the same BLAS path
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert np.float64(g).tobytes() == np.float64(w).tobytes(), field.name


@pytest.mark.parametrize("witnesses", [False, True])
@pytest.mark.parametrize("name", ["3x8", "4x12", "a-ref"])
def test_ratio_scan_matches_loop_oracle(name, witnesses):
    key = KEYS[name]()
    got = ratio_scan(key, 300, seed=8, include_witnesses=witnesses)
    _assert_reports_equal(got, oracles.ratio_scan(key, 300, seed=8, include_witnesses=witnesses))


def test_ratio_scan_redraws_close_pairs_like_the_loop(monkeypatch):
    # a large minimum distance sends many samples through the redraw loop
    monkeypatch.setattr(lipschitz, "_MIN_PAIR_DISTANCE", 2.5)
    key = KEYS["3x8"]()
    got = ratio_scan(key, 200, seed=3)
    _assert_reports_equal(got, oracles.ratio_scan(key, 200, seed=3))


def test_ratio_scan_violation_verdict_matches_loop(monkeypatch):
    # a claimed B0 below the true one must be falsified by both samplers alike
    real = lipschitz.build_report
    monkeypatch.setattr(lipschitz, "build_report",
                        lambda key: dataclasses.replace(real(key), B0=0.5 * real(key).B0))
    key = KEYS["4x12"]()
    with pytest.raises(LipschitzViolation) as want:
        oracles.ratio_scan(key, 100, seed=1)
    with pytest.raises(LipschitzViolation) as got:
        ratio_scan(key, 100, seed=1)
    assert str(got.value) == str(want.value)


def _split(z, d):
    n = len(z)
    return [z[:, :2 * d].reshape(n, 2, d), z[:, 2 * d:4 * d].reshape(n, 2, d),
            z[:, 4 * d:5 * d], z[:, 5 * d:]]


def _assert_pairs_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("d,samples,seed", [(2, 1, 0), (3, 50, 8), (4, 300, 1)])
def test_sample_pairs_are_one_block_when_none_is_close(d, samples, seed):
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal((samples, 6 * d))
    x_cfg, y_cfg, x_sig, y_sig = want = _split(z, d)
    assert dist_hat_V_many(x_cfg, y_cfg)[0].min() > lipschitz._MIN_PAIR_DISTANCE
    assert dist_hat_H_many(x_sig, y_sig).min() > lipschitz._MIN_PAIR_DISTANCE
    _assert_pairs_equal(lipschitz._sample_pairs(d, samples, seed), want)


def test_sample_pairs_redraw_until_far(monkeypatch):
    # most rows of the first block are close: many rounds of redraws
    monkeypatch.setattr(lipschitz, "_MIN_PAIR_DISTANCE", 2.5)
    x_cfg, y_cfg, x_sig, y_sig = got = lipschitz._sample_pairs(3, 200, 3)
    assert dist_hat_V_many(x_cfg, y_cfg)[0].min() > 2.5
    assert dist_hat_H_many(x_sig, y_sig).min() > 2.5
    _assert_pairs_equal(got, _split(oracles.sample_pairs(3, 200, 3), 3))


@pytest.mark.parametrize("seed", [0, 1, 8])
def test_sample_pairs_share_no_draw_with_the_battery(seed):
    # the battery's property streams are verify._rng(seed, k), k = 0..8
    d, samples = 3, 50
    pairs = lipschitz._sample_pairs(d, samples, seed)
    rows = np.concatenate([p.reshape(samples, -1) for p in pairs], axis=1)
    for k in range(9):
        first = verify._rng(seed, k).standard_normal(6 * d)
        assert not np.any(np.all(rows == first, axis=1)), k
