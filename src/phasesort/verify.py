"""Seeded invariant battery behind the ``verify`` command.

Each property draws its own deterministic substream, checks a batch of
random instances, and reports pass/fail with a count. Properties that only
make sense for injective keys are reported as skipped when the certificate
fails, instead of failing vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lipschitz
from .encoders import (
    alpha_many,
    beta_many,
    beta_tilde_many,
    dist_hat_H_many,
    dist_hat_V_many,
    hadamard_split,
)
from .errors import PhasesortError
from .frame_keys import (
    Key,
    _unit,
    analysis_many,
    has_complement_property,
    is_full_spark,
    is_phase_retrievable,
    is_universal_key,
)
from .inversion import invert_beta_many, invert_beta_tilde_many, omega_many
from .numerics import row_norms, scaled_row_norms

SKIPPED = "skipped (not injective)"


@dataclass(frozen=True)
class PropertyResult:
    name: str
    status: str  # "pass" | "fail" | SKIPPED
    count: int
    detail: str = ""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def exact_half_identities(u, v) -> np.ndarray:
    """Check max/min = (u + v +- |u - v|) / 2 exactly, one boolean per pair.

    Over the reals, 2 mx = u + v + |u - v| holds exactly when mx = max(u, v),
    and 2 mn = u + v - |u - v| exactly when mn = min(u, v). So the halved
    forms hold for numpy's maximum and minimum exactly when each equals one of
    the pair and bounds both. ``==`` and ``>=`` compare the exact values of
    finite doubles, so this states both identities without rounding a sum;
    direct float evaluation of the sums would round and fail spuriously.
    """
    mx, mn = np.maximum(u, v), np.minimum(u, v)
    return (
        ((mx == u) | (mx == v)) & (mx >= u) & (mx >= v)
        & ((mn == u) | (mn == v)) & (mn <= u) & (mn <= v)
    )


def minmax_identity_failures(u: np.ndarray, v: np.ndarray) -> int:
    """Count pairs violating any of the five min/max/abs lattice identities.

    The sum, difference, and folded-magnitude identities are bit-exact in
    float arithmetic and are checked directly; the two halved forms are
    checked exactly by ``exact_half_identities``, on numpy's maximum and
    minimum. All five are elementwise array expressions over every pair.
    """
    mx, mn = np.maximum(u, v), np.minimum(u, v)
    ok = np.abs(u - v) == mx - mn
    ok &= (u + v) == (mx + mn)
    ok &= np.abs(np.abs(u) - np.abs(v)) == np.minimum(np.abs(u - v), np.abs(u + v))
    ok &= exact_half_identities(u, v)
    return int(ok.size - np.count_nonzero(ok))


def _rel_close(a: np.ndarray, b: np.ndarray, tol: float, e: int) -> np.ndarray:
    """Per row, on the key's unit scale 2^-e: |a - b| <= tol * max(1, |b|)."""
    return scaled_row_norms(a - b, e) <= tol * np.maximum(1.0, scaled_row_norms(b, e))


# Each check below draws all its samples from its generator, checks them with
# the stacked encoders, decoders and metrics, and returns how many failed.
# Running each in its own call frees its arrays before the next one starts.
# The identities are compared on the key's unit scale 2^-e (frame_keys._unit),
# so their tolerances mean the same at every scale of the key and no square
# of a measurement over- or underflows.

def _minmax(key: Key, rng: np.random.Generator, samples: int):
    """Lattice identities on random pairs."""
    u = rng.standard_normal(samples)
    v = rng.standard_normal(samples)
    return minmax_identity_failures(u, v)


def _hadamard_split(key: Key, rng: np.random.Generator, samples: int):
    """The sorted embedding against the magnitude/analysis split."""
    cfg = rng.standard_normal((samples, 2, key.d))
    diff, total = hadamard_split(beta_many(key, cfg)[0])
    e = _unit(key).e
    bad = ~_rel_close(diff, alpha_many(key, cfg[:, 0] - cfg[:, 1]), 1e-12, e)
    bad |= ~_rel_close(total, analysis_many(key, cfg[:, 0] + cfg[:, 1]), 1e-12, e)
    return np.count_nonzero(bad)


def _alpha_sign(key: Key, rng: np.random.Generator, samples: int):
    """Sign invariance of alpha, bitwise."""
    x = rng.standard_normal((samples, key.d))
    return np.count_nonzero(np.any(alpha_many(key, x) != alpha_many(key, -x), axis=1))


def _beta_permutation(key: Key, rng: np.random.Generator, samples: int):
    """Row-permutation invariance of beta, bitwise, on configurations of 1-4 rows.

    Every sample's row count is drawn in one block; then, for 1 to 4 rows in
    turn, that group's configurations are drawn as one block of normals and
    its row orders as one ``permuted`` block, and checked by one pair of
    stacked encodings.
    """
    counts = rng.integers(1, 5, samples)
    bad = 0
    for n in range(1, 5):
        k = int(np.count_nonzero(counts == n))
        if k == 0:
            continue
        cfg = rng.standard_normal((k, n, key.d))
        perms = rng.permuted(np.tile(np.arange(n), (k, 1)), axis=1)
        permuted = np.take_along_axis(cfg, perms[:, :, None], axis=1)
        bad += np.count_nonzero(
            np.any(beta_many(key, cfg)[0] != beta_many(key, permuted)[0], axis=(1, 2))
        )
    return bad


def _auxiliary_set(key: Key, rng: np.random.Generator, samples: int):
    """Split of the squared magnitude gap along the comparison set."""
    xy = rng.standard_normal((samples, 2, key.d))
    x, y = xy[:, 0], xy[:, 1]
    e = _unit(key).e
    lhs = scaled_row_norms(alpha_many(key, x) - alpha_many(key, y), e) ** 2
    cd = analysis_many(key, x - y)
    cs = analysis_many(key, x + y)
    in_s = np.abs(cd) <= np.abs(cs)
    # the sum over the set plus the sum over its complement, other terms zeroed
    rhs = scaled_row_norms(np.where(in_s, cd, 0.0), e) ** 2
    rhs += scaled_row_norms(np.where(in_s, 0.0, cs), e) ** 2
    return np.count_nonzero(np.abs(lhs - rhs) > 1e-12 * np.maximum(1.0, rhs))


def _quotient_stack(key: Key, rng: np.random.Generator, samples: int):
    """Sign-quotient distance equals stacked permutation-quotient distance / sqrt(2)."""
    xy = rng.standard_normal((samples, 2, key.d))
    x, y = xy[:, 0], xy[:, 1]
    stacked = dist_hat_V_many(np.stack([x, -x], axis=1), np.stack([y, -y], axis=1))[0]
    gap = np.abs(dist_hat_H_many(x, y) - stacked / np.sqrt(2.0))
    return np.count_nonzero(gap > 1e-12 * np.maximum(1.0, stacked))


def _roundtrip_alpha(key: Key, rng: np.random.Generator, samples: int):
    x = rng.standard_normal((samples, key.d))
    rec = omega_many(key, alpha_many(key, x)).x
    return np.count_nonzero(dist_hat_H_many(rec, x) > 1e-8 * np.maximum(1.0, row_norms(x)))


def _roundtrip_beta(key: Key, rng: np.random.Generator, samples: int):
    cfg = rng.standard_normal((samples, 2, key.d))
    rec = invert_beta_many(key, beta_many(key, cfg)[0])
    return _config_mismatch(rec, cfg)


def _roundtrip_beta_tilde(key: Key, rng: np.random.Generator, samples: int):
    cfg = rng.standard_normal((samples, 2, key.d))
    rec = invert_beta_tilde_many(key, beta_tilde_many(key, cfg))
    return _config_mismatch(rec, cfg)


def _config_mismatch(rec: np.ndarray, cfg: np.ndarray) -> int:
    scale = np.maximum(1.0, row_norms(cfg.reshape(len(cfg), -1)))
    return np.count_nonzero(dist_hat_V_many(rec, cfg)[0] > 1e-8 * scale)


# Sampled properties in substream order: substreams 0-5 hold for every key,
# 6-8 need an injective one.
_INVARIANTS = (
    ("minmax-identities", _minmax),
    ("hadamard-split-identity", _hadamard_split),
    ("alpha-sign-invariance", _alpha_sign),
    ("beta-permutation-invariance", _beta_permutation),
    ("auxiliary-set-decomposition", _auxiliary_set),
    ("quotient-metric-stack", _quotient_stack),
)
_ROUNDTRIPS = (
    ("roundtrip-alpha", _roundtrip_alpha),
    ("roundtrip-beta", _roundtrip_beta),
    ("roundtrip-beta-tilde", _roundtrip_beta_tilde),
)


def _sampled(key: Key, samples: int, seed: int, stream: int, name: str, check):
    bad = int(check(key, _rng(seed, stream), samples))
    return PropertyResult(
        name, "pass" if bad == 0 else "fail", samples, "" if bad == 0 else f"{bad} violations"
    )


def run_battery(key: Key, samples: int, seed: int) -> list[PropertyResult]:
    """Run every invariant against one key; deterministic given (key, samples, seed)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    injective = is_phase_retrievable(key).verdict
    results = [
        _sampled(key, samples, seed, stream, name, check)
        for stream, (name, check) in enumerate(_INVARIANTS)
    ]
    results.append(_certificate_agreement(key))

    # decoders and the sandwich need an injective key
    if not injective:
        skipped = [name for name, _ in _ROUNDTRIPS] + ["lipschitz-sandwich", "achievement"]
        return results + [PropertyResult(name, SKIPPED, 0) for name in skipped]

    results += [
        _sampled(key, samples, seed, stream, name, check)
        for stream, (name, check) in enumerate(_ROUNDTRIPS, start=len(_INVARIANTS))
    ]

    try:
        lipschitz.ratio_scan(key, samples, seed, include_witnesses=True)
        results.append(PropertyResult("lipschitz-sandwich", "pass", samples))
    except PhasesortError as exc:
        results.append(PropertyResult("lipschitz-sandwich", "fail", samples, str(exc)))

    try:
        report = lipschitz.build_report(key)
        lipschitz.check_achievement(key, report)
        results.append(PropertyResult("achievement", "pass", 4))
    except PhasesortError as exc:
        results.append(PropertyResult("achievement", "fail", 4, str(exc)))

    return results


def _certificate_agreement(key: Key) -> PropertyResult:
    """Cross-agreement of the certificates and the sign of A0."""
    problems: list[str] = []
    pr = is_phase_retrievable(key)
    uk = is_universal_key(key)
    if pr.verdict != uk.verdict:
        problems.append("phase-retrievable != universal-key")
    if key.D == 2 * key.d - 1 and is_full_spark(key).verdict != uk.verdict:
        problems.append("full-spark != universal-key at D = 2d-1")
    if key.D < 2 * key.d - 1 and uk.verdict:
        problems.append("universal despite D < 2d-1")
    a0, _ = lipschitz.lower_constant(key)
    a0_positive = a0 > key.tol.rank_tol_factor * max(key.d, key.D) * lipschitz.upper_constant(key)
    if a0_positive != has_complement_property(key).verdict:
        problems.append("A0 positivity disagrees with complement property")
    return PropertyResult(
        "certificate-agreement",
        "pass" if not problems else "fail",
        4,
        "; ".join(problems),
    )
