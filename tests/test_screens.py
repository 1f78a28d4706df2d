import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import phasesort
from conftest import ADVERSARIAL
from phasesort import Key, frame_keys, generate_key, screens

# The packed Gram layout, the shifted-Cholesky kernel and the screens' error
# allowances
SCREEN_NAMES = {
    "pack", "unpack", "packed_pairs", "_row_starts", "_packed_order", "shifted_cholesky_ok",
    "_shifted_cholesky_ok_inplace", "GRAM_SCREEN_SLACK", "_gram_screen_errors",
}


def _names(tree):
    """Every name a module defines, binds, imports or reads, attributes included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword):
            yield node.arg


def test_only_screens_defines_or_references_the_packed_layout():
    # one module owns the Gram screens' layout, kernel and allowances; the
    # others call the screens
    src = Path(phasesort.__file__).parent
    users = {}
    for path in sorted(src.glob("*.py")):
        found = SCREEN_NAMES & set(_names(ast.parse(path.read_text(encoding="utf-8"))))
        if found:
            users[path.name] = found
    assert users == {"screens.py": SCREEN_NAMES}


# --- the A0 screen's cover ----------------------------------------------------

_COVER_KEYS = {**ADVERSARIAL, **{f"{d}x{D}": generate_key(d, D, 1).matrix
                                 for d, D in ((4, 12), (5, 9))}}


def _walk_shifts(key):
    """The one-side shifts of the A0 screen's blocks on the key, from the
    running bounds its blocks start at (inf at the first block)."""
    unit = frame_keys._unit(key)
    runs = []
    real = screens._unsettled

    def recorded(gi, total, full_i, full_c, hi_run, err_s, err_lam):
        runs.append(hi_run)
        return real(gi, total, full_i, full_c, hi_run, err_s, err_lam)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(screens, "_unsettled", recorded)
        m.setattr(screens, "_cover", lambda unit, tau, least: None)  # every block reaches _unsettled
        screens._screen(unit)
    return [screens._one_side_shift(h, unit.err_s, unit.err_lam) for h in runs]


def _cover_shifts(key):
    """tau = 0, the margin shift, a one-side shift from the middle of the A0
    screen's walk (when it has a finite one) and inf."""
    finite = [t for t in _walk_shifts(key) if t < np.inf]
    middle = [finite[len(finite) // 2]] if finite else []
    return [0.0, frame_keys._margin_shift(key)[1], *middle, np.inf]


def _assert_cover_matches_oracle(matrix):
    """Returns, per shift, whether the cover was None."""
    key = Key(matrix)
    unit = frame_keys._unit(key).matrix
    D = unit.shape[1]
    nones = []
    for tau in _cover_shifts(key):
        cover = screens._cover(unit, tau)
        want = oracles.cover(unit, tau)
        got = (np.zeros(1 << D, dtype=bool) if cover is None
               else screens._covered(cover, 0, 1 << D))
        assert np.array_equal(got, want), tau
        # no set is covered exactly when no d-subset passes
        assert (cover is None) == (not want.any())
        if cover is not None:
            assert cover.dtype == np.uint8 and cover.size == max(1, (1 << D) >> 3)
        nones.append(cover is None)
    return nones


@pytest.mark.parametrize("name", sorted(_COVER_KEYS))
def test_cover_matches_subset_oracle(name):
    # at tau = inf no subset passes, and no set is covered
    nones = _assert_cover_matches_oracle(_COVER_KEYS[name])
    assert nones[-1]


def test_cover_without_a_passing_subset_and_with_too_few_columns():
    # the zero key passes no subset at any shift; 4x6 (D <= 2d - 2) has
    # splits with no side of d columns, and its cover still marks every
    # superset of a passing subset
    assert all(_assert_cover_matches_oracle(ADVERSARIAL["zero"]))
    matrix = ADVERSARIAL["too-few-columns"]
    assert matrix.shape[1] <= 2 * matrix.shape[0] - 2
    assert not all(_assert_cover_matches_oracle(matrix))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.integers(1, 10).flatmap(
    lambda D: st.lists(st.one_of(st.floats(-1e3, 1e3), st.integers(-2, 2).map(float)),
                       min_size=d * D, max_size=d * D).map(lambda v: np.array(v).reshape(d, D)))))
def test_cover_matches_subset_oracle_hypothesis(matrix):
    _assert_cover_matches_oracle(matrix)


def test_cover_windows_match_one_window(monkeypatch):
    # the passing subsets of 4x12 unranked a few ranks at a time: windows end
    # inside the passing ranges and between them
    unit = frame_keys._unit(generate_key(4, 12, 1)).matrix
    tau = frame_keys._margin_shift(generate_key(4, 12, 1))[1]
    whole = screens._cover(unit, tau)
    for entries in (16 * 4, 16 * 4 * 7):  # one and seven ranks per window
        monkeypatch.setattr(screens, "_CHUNK_ENTRIES", entries)
        assert screens._cover(unit, tau).tobytes() == whole.tobytes()


def test_cover_needs_least_passing_subsets():
    # p d-subsets pass: least = p builds the cover, least = p + 1 does not
    key = generate_key(4, 12, 1)
    unit = frame_keys._unit(key).matrix
    sizes = np.bitwise_count(np.arange(1 << 12))
    passing = {tau: int(np.count_nonzero(oracles.cover(unit, tau) & (sizes == 4)))
               for tau in _cover_shifts(key)}
    tau, p = next((tau, p) for tau, p in passing.items() if 0 < p < 495)  # some fail
    assert screens._cover(unit, tau, least=p).tobytes() == screens._cover(unit, tau).tobytes()
    assert screens._cover(unit, tau, least=p + 1) is None


@pytest.mark.parametrize("d,D", [(4, 16), (8, 15), (5, 18), (6, 14)])
def test_cover_is_built_once_at_the_first_full_size_block(monkeypatch, d, D):
    # at the one-side shift of the running bound the block starts at, the
    # smallest hi of the masks before it in the full bracket oracle
    key = generate_key(d, D, 1)
    unit = frame_keys._unit(key)
    blocks, calls = [], []
    real_blocks, real_cover = screens._partition_blocks, screens._cover

    def logged(a):
        for block in real_blocks(a):
            blocks.append(block[0])
            yield block

    def cover(u, tau, least):
        calls.append((len(blocks), tau, least))
        return real_cover(u, tau, least)

    monkeypatch.setattr(screens, "_partition_blocks", logged)
    monkeypatch.setattr(screens, "_cover", cover)
    screens._screen(unit)
    largest = 1 << screens._block_bits(d, D)
    first = next(i for i, b in enumerate(blocks) if b.size == largest)
    ((walked, tau, least),) = calls
    assert walked == first + 1 and first > 0
    assert least == 1 << (d - 1)  # 2 * least / 2^d >= 1
    _, hi = oracles.screen_brackets(Key(key.matrix))
    hi_run = hi[:blocks[first][0]].min()
    assert np.float64(tau).tobytes() == np.float64(
        screens._one_side_shift(hi_run, unit.err_s, unit.err_lam)).tobytes()


@pytest.mark.parametrize("d,D", [(4, 16), (8, 15), (3, 12)])
def test_block_columns_match_the_table(d, D):
    # a block's Grams summed for a few masks alone, or for all of them, are
    # the table's columns, bit for bit. The columns have entries of very
    # different size, so an order other than highest bit first shows
    rng = np.random.Generator(np.random.PCG64(d * D))
    a = generate_key(d, D, 2).matrix * np.ldexp(1.0, rng.integers(-30, 30, size=D))
    reordered = False
    for masks, grams, _, _ in screens._partition_blocks(a):
        k = len(grams.outers)
        if k < 4:
            continue
        few = np.sort(rng.choice(masks.size, size=max(1, (1 << k) // (2 * k)), replace=False))
        alone = grams.sums(few)
        assert not grams._filled
        table = grams.table()
        assert alone.tobytes() == table[:, few].tobytes()
        every = np.arange(masks.size)
        assert grams.sums(every).tobytes() == table.tobytes()
        lowest_first = np.repeat(grams.head[:, None], few.size, axis=1)
        for b in range(k):
            lowest_first[:, few >> b & 1 == 1] += grams.outers[b][:, None]
        reordered |= lowest_first.tobytes() != alone.tobytes()
    assert reordered
