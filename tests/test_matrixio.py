import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesort import DimensionError
from phasesort.matrixio import (
    as_flat_vector,
    load_matrix,
    parse_matrix,
    save_matrix,
    serialize_matrix,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(finite_floats, min_size=3, max_size=3), min_size=1, max_size=4))
def test_roundtrip_bit_exact(rows):
    m = np.array(rows, dtype=np.float64)
    back = parse_matrix(serialize_matrix(m))
    assert m.tobytes() == back.tobytes()


def test_roundtrip_special_values():
    m = np.array([[0.0, -0.0, 1.0, -1.0], [5e-324, 1.7976931348623157e308, 0.1, -2.5e-308]])
    back = parse_matrix(serialize_matrix(m))
    assert m.tobytes() == back.tobytes()


def test_serialize_format():
    text = serialize_matrix(np.array([[1.0, 2.0], [3.0, 4.5]]))
    assert text == "1.0,2.0\n3.0,4.5\n"


def test_parse_tolerates_missing_final_newline():
    np.testing.assert_array_equal(parse_matrix("1.0,2.0\n3.0,4.0"), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("text", ["1.0,2.0\n3.0,4.0\n\n", "1.0,2.0\n3.0,4.0\n  \n\t\n"])
def test_parse_tolerates_trailing_blank_lines(text):
    np.testing.assert_array_equal(parse_matrix(text), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "text, line",
    [("1,2\n\n3,4\n", 2), ("1,2\n   \n3,4", 2), ("1,2\n3,4\n\n\n5,6\n\n", 3)],
)
def test_parse_rejects_blank_line_inside_matrix(text, line):
    # two matrices pasted into one file must not load as one taller matrix
    with pytest.raises(ValueError, match=f"^line {line}: blank line inside the matrix$"):
        parse_matrix(text)


def test_parse_rejects_ragged_rows():
    with pytest.raises(DimensionError):
        parse_matrix("1.0,2.0\n3.0\n")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_matrix("1.0,two\n")


def test_parse_rejects_nonfinite():
    with pytest.raises(ValueError):
        parse_matrix("1.0,inf\n")


def test_parse_rejects_empty():
    with pytest.raises(ValueError):
        parse_matrix("")


def test_serialize_rejects_nonfinite():
    with pytest.raises(ValueError):
        serialize_matrix(np.array([[np.inf]]))


def test_file_roundtrip(tmp_path):
    m = np.random.Generator(np.random.PCG64(3)).standard_normal((4, 5))
    path = tmp_path / "m.txt"
    save_matrix(path, m)
    assert load_matrix(path).tobytes() == m.tobytes()


def test_as_flat_vector():
    np.testing.assert_array_equal(as_flat_vector(np.array([[1.0, 2.0, 3.0]])), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(as_flat_vector(np.array([[1.0], [2.0]])), [1.0, 2.0])
    with pytest.raises(DimensionError):
        as_flat_vector(np.zeros((2, 2)))
