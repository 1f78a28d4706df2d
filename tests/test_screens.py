import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import phasesort
from conftest import ADVERSARIAL, drain_screen
from phasesort import Key, frame_keys, generate_key, lipschitz, screens

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
        drain_screen(unit)  # unseeded: no cover, so every block reaches _unsettled
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


def _unseeded_key(name):
    """Keys whose search runs unseeded: 13x24 and 12x22 have D <= 2d - 2,
    and [I8 I8 I8] a split of value 0 that the descent finds; 5x18 is
    walked here without its descent bound."""
    if name == "I8x3":
        return Key(np.hstack([np.eye(8)] * 3))
    return generate_key(*map(int, name.split("x")), 1)


@pytest.mark.parametrize("name", ["13x24", "12x22", "I8x3", "5x18"])
def test_unseeded_walk_builds_no_cover(monkeypatch, name):
    # hi_run is infinite until the first block ends, so an unseeded walk
    # has no shift to build a cover at before it; it builds none after
    # either, and its answer is the full visit's
    key = _unseeded_key(name)

    def refused(unit, tau):
        raise AssertionError("cover built")

    monkeypatch.setattr(screens, "_cover", refused)
    tie = lipschitz._TIE_WINDOW * lipschitz.upper_constant(key)
    (a0, part), *_ = lipschitz._search(key, tie, np.inf)
    if name in ("13x24", "12x22"):  # split 2^(D-d+1) - 1 has no side of d columns
        assert (a0, part.mask) == (0.0, (1 << (key.D - key.d + 1)) - 1)
    elif name == "I8x3":
        assert (a0, part.indices()) == (0.0, (1, 9, 17))
    else:
        ref_a0, ref_mask = oracles.lower_constant(Key(key.matrix))
        assert np.float64(a0).tobytes() == np.float64(ref_a0).tobytes()
        assert part.mask == ref_mask


def _seeded_bound(key):
    """The start bound the search gives the A0 screen on the key's unit copy:
    the cut of its descent bound."""
    tie = lipschitz._TIE_WINDOW * lipschitz.upper_constant(key)
    return np.ldexp(lipschitz._descent_bound(key, tie) + 2 * tie, -frame_keys._unit(key).e)


@pytest.mark.parametrize("d,D", [(4, 16), (8, 15), (5, 18), (6, 14)])
def test_seeded_cover_is_built_at_block_0(monkeypatch, d, D):
    # with the search's start bound every block is full size, and the cover
    # is built once, before block 0, at the bound's one-side shift
    key = generate_key(d, D, 1)
    unit = frame_keys._unit(key)
    bound = _seeded_bound(key)
    assert bound < np.inf
    sizes, calls = [], []
    real_blocks, real_cover = screens._partition_blocks, screens._cover

    def logged(*args):
        for block in real_blocks(*args):
            sizes.append(block[0].size)
            yield block

    def cover(u, tau):
        calls.append((len(sizes), tau))
        return real_cover(u, tau)

    monkeypatch.setattr(screens, "_partition_blocks", logged)
    monkeypatch.setattr(screens, "_cover", cover)
    drain_screen(unit, bound)
    assert set(sizes) == {1 << screens._block_bits(d, D)}
    ((walked, tau),) = calls
    assert walked == 0
    assert np.float64(tau).tobytes() == np.float64(
        screens._one_side_shift(bound, unit.err_s, unit.err_lam)).tobytes()


@pytest.mark.parametrize("d,D", [(4, 16), (5, 18)])
def test_seeded_block_with_every_mask_covered_makes_no_test(monkeypatch, d, D):
    # a block whose masks all have a side in the cover (oracles.cover, at
    # the bound's one-side shift) settles them with no _unsettled call and
    # no kernel call; the other blocks test their open masks only
    key = generate_key(d, D, 1)
    unit = frame_keys._unit(key)
    bound = _seeded_bound(key)
    blocks, unsettled, kernel = [], [], []
    real_blocks, real_unsettled = screens._partition_blocks, screens._unsettled
    real_kernel = screens._shifted_cholesky_ok_inplace

    def logged(*args):
        for block in real_blocks(*args):
            blocks.append(block[0])
            yield block

    def counted(gi, *rest):
        unsettled.append((len(blocks) - 1, gi.shape[1]))
        return real_unsettled(gi, *rest)

    monkeypatch.setattr(screens, "_partition_blocks", logged)
    monkeypatch.setattr(screens, "_unsettled", counted)
    monkeypatch.setattr(screens, "_shifted_cholesky_ok_inplace",
                        lambda w, tau: kernel.append(len(blocks) - 1) or real_kernel(w, tau))
    drain_screen(unit, bound)
    covered = oracles.cover(unit.matrix, screens._one_side_shift(bound, unit.err_s, unit.err_lam))
    full = (1 << D) - 1
    open_masks = [int(np.count_nonzero(~(covered[b] | covered[full ^ b]))) for b in blocks]
    assert 0 in open_masks
    assert unsettled == [(i, n) for i, n in enumerate(open_masks) if n]
    assert set(kernel) <= {i for i, n in enumerate(open_masks) if n}


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
