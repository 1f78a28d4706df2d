"""Invariances of the constants and certificates, checked without an oracle.

A0 and B0 are singular values of column submatrices of the key, and every
certificate is a rank statement about them. So scaling the key by c > 0
scales A0 and B0 by c and keeps every verdict, witness and I0; flipping the
sign of a column or applying an orthogonal Q on the left changes no singular
value, and permuting the columns relabels the partitions. Scaling by a power
of two is exact in every floating-point operation
of the searches, so there the results must scale bit for bit. The decoders
commute with scaling: alpha(cA, x) = c alpha(A, x), and omega on the key cA
recovers the same x.
"""

import warnings

import numpy as np
import pytest

from phasesort import (
    Key,
    Partition,
    alpha,
    build_report,
    generate_key,
    has_complement_property,
    is_full_spark,
    is_phase_retrievable,
    is_universal_key,
    lower_constant,
    omega,
)
from phasesort import frame_keys, lipschitz

from conftest import ADVERSARIAL

def _near_dependent():
    """3x5 key whose columns 1, 2, 5 are dependent up to 1e-9: too close for
    the subset certificate, so the complement property walks the partitions."""
    mat = generate_key(3, 5, 9).matrix.copy()
    mat[:, 4] = mat[:, 0] + mat[:, 1] + 1e-9 * mat[:, 2]
    return mat


KEYS = {"4x12": generate_key(4, 12, 1).matrix, "8x15": generate_key(8, 15, 1).matrix,
        "5x8": generate_key(5, 8, 1).matrix,  # D < 2d - 1: the walk finds a violation
        "near-dependent-1e-9": _near_dependent()}
KEYS.update({name: m for name, m in ADVERSARIAL.items() if np.any(m)})

EXPONENTS = (-450, -40, 40, 450)

# LAPACK's SVD (dgesdd) rescales a matrix whose largest entry lies outside
# [2^-459, 2^459] (sqrt(safe minimum) / precision and its inverse) by a
# factor that is not a power of two, so there the last bits of the singular
# values move.
_LAPACK_UNSCALED = (2.0**-459, 2.0**459)

# (key, exponent) pairs whose scaled copy holds the key exactly: 2^-450
# times the scaled-1e-200 key would underflow to zero
SCALINGS = [
    (name, k) for name in sorted(KEYS) for k in EXPONENTS
    if np.array_equal(KEYS[name] * 2.0**k / 2.0**k, KEYS[name])
]


def _certificates(key):
    reports = (f(key) for f in (is_full_spark, has_complement_property, is_phase_retrievable,
                                is_universal_key))
    return [(r.verdict, r.witness, r.method) for r in reports]


def _subset_decision(key):
    scan = frame_keys.subset_scan(key)
    return scan.deficient, scan.clears_margin


def _work(key):
    """The Gram screens' work counts: they read the key's unit copy, which is
    the same for every power-of-two scaling of a key held exactly."""
    scan, search = frame_keys.subset_scan(key), lipschitz.lower_constant_search(key)
    return scan.settled, scan.decomposed, search.settled, search.diagonalized, search.visited


def _lapack_rescales(matrix):
    top = float(np.abs(matrix).max())
    return not _LAPACK_UNSCALED[0] <= top <= _LAPACK_UNSCALED[1]


@pytest.mark.parametrize("name,k", SCALINGS)
def test_power_of_two_scaling(name, k):
    matrix, c = KEYS[name], 2.0**k
    key, scaled = Key(matrix), Key(matrix * c)
    rep, rep_c = build_report(key), build_report(scaled)
    assert rep_c.I0 == rep.I0
    if _lapack_rescales(matrix) or _lapack_rescales(matrix * c):
        # scaled-1e6 and scaled-1e-200 times 2^450: LAPACK's own rescaling
        # moves the last bits, not the searches
        assert abs(rep_c.A0 - c * rep.A0) <= 1e-14 * c * rep.A0
        assert abs(rep_c.B0 - c * rep.B0) <= 1e-14 * c * rep.B0
    else:
        assert np.float64(rep_c.A0).tobytes() == np.float64(c * rep.A0).tobytes()
        assert np.float64(rep_c.B0).tobytes() == np.float64(c * rep.B0).tobytes()
    assert rep_c.degenerate_lower == rep.degenerate_lower
    assert _certificates(scaled) == _certificates(key)
    assert _subset_decision(scaled) == _subset_decision(key)
    assert _work(scaled) == _work(key)


def test_scalings_cover_both_paths():
    # the bit-for-bit branch runs at 2^-450 and 2^450, and the rescaled
    # branch runs at all
    rescaled = [(n, k) for n, k in SCALINGS
                if _lapack_rescales(KEYS[n]) or _lapack_rescales(KEYS[n] * 2.0**k)]
    assert sorted(rescaled) == [("scaled-1e-200", -40), ("scaled-1e-200", 40),
                                ("scaled-1e-200", 450), ("scaled-1e6", 450)]
    assert ("4x12", 450) in SCALINGS and ("4x12", -450) in SCALINGS
    assert len(SCALINGS) == 4 * len(KEYS) - 1


@pytest.mark.parametrize("k", [-530, -500, 500, 530])
def test_certificates_out_of_the_screens_range(k):
    # named for the range the Gram screens once stopped at: at 2^530 the
    # key's Grams would overflow, at 2^-530 underflow, so the screens read
    # the unit copy
    exact = [name for name in sorted(KEYS)
             if np.array_equal(KEYS[name] * 2.0**k / 2.0**k, KEYS[name])]
    assert len(exact) >= len(KEYS) - 1  # 2^-530 times scaled-1e-200 underflows
    for name in exact:
        matrix = KEYS[name]
        assert _certificates(Key(matrix * 2.0**k)) == _certificates(Key(matrix)), name


@pytest.mark.parametrize("d,D", [(2, 4), (3, 5)])
def test_searches_warn_nothing_near_the_overflow_scale(d, D):
    # these keys' own Gram entries are near 2^800, which the Cholesky
    # kernel's unit pivots for failed Grams would square; the screens read
    # the unit copies, so nothing overflows
    key = Key(generate_key(d, D, 7).matrix * 2.0**399)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lower_constant(key)
        is_full_spark(key)
        has_complement_property(key)


def _assert_constants_close(matrix, moved):
    # singular values carry an absolute error of order eps * B0, so B0 is
    # the scale of the comparison, as in numerics.rank's cutoff
    rep, rep_m = build_report(Key(matrix)), build_report(Key(moved))
    assert abs(rep_m.B0 - rep.B0) <= 1e-12 * rep.B0
    assert abs(rep_m.A0 - rep.A0) <= 1e-12 * rep.B0


@pytest.mark.parametrize("name", sorted(KEYS))
def test_column_sign_flips(name):
    matrix = KEYS[name]
    rng = np.random.Generator(np.random.PCG64(sum(map(ord, name))))
    for _ in range(3):
        _assert_constants_close(matrix, matrix * rng.choice([-1.0, 1.0], matrix.shape[1]))


@pytest.mark.parametrize("name", sorted(KEYS))
def test_left_orthogonal_transform(name):
    matrix = KEYS[name]
    rng = np.random.Generator(np.random.PCG64(sum(map(ord, name))))
    for _ in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((matrix.shape[0],) * 2))
        _assert_constants_close(matrix, q @ matrix)


def _permuted(part, perm):
    """The canonical partition of the key with columns ``perm`` that holds the
    columns of ``part``."""
    mask = sum(1 << j for j, k in enumerate(perm) if part.mask >> k & 1)
    return Partition(mask, part.size).canonical()


@pytest.mark.parametrize("name", ["4x12", "8x15"])
def test_column_permutation(name):
    matrix = KEYS[name]
    rep = build_report(Key(matrix))
    rng = np.random.Generator(np.random.PCG64(sum(map(ord, name))))
    for _ in range(3):
        perm = rng.permutation(matrix.shape[1])
        _assert_constants_close(matrix, matrix[:, perm])
        assert build_report(Key(matrix[:, perm])).I0 == _permuted(rep.I0, perm)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_column_permutation_keeps_verdicts(name):
    matrix = ADVERSARIAL[name]
    expected = [f(Key(matrix)).verdict for f in (is_full_spark, has_complement_property)]
    rng = np.random.Generator(np.random.PCG64(sum(map(ord, name))))
    for _ in range(3):
        moved = Key(matrix[:, rng.permutation(matrix.shape[1])])
        assert [f(moved).verdict for f in (is_full_spark, has_complement_property)] == expected


@pytest.mark.parametrize("k", [40, -40, -200])
@pytest.mark.parametrize("name", ["4x12", "8x15"])
def test_decoder_scaling(name, k):
    matrix = KEYS[name]
    key, scaled = Key(matrix), Key(matrix * 2.0**k)
    rng = np.random.Generator(np.random.PCG64(sum(map(ord, name))))
    for x in rng.standard_normal((3, matrix.shape[0])):
        want = omega(key, alpha(key, x)).x
        got = omega(scaled, alpha(scaled, x)).x
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
