"""Plain-text matrix files: one row per line, comma-separated entries.

Values are written with Python's shortest round-trip decimal representation
(at most 17 significant digits), so parse(serialize(M)) reproduces every
finite double bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def format_entry(value: float) -> str:
    return repr(float(value))


def serialize_matrix(m) -> str:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise DimensionError(f"expected a vector or matrix, got ndim {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("refusing to serialize non-finite entries")
    return "\n".join(",".join(format_entry(v) for v in row) for row in a) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    rows = []
    width = None
    blank = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip() == "" and lineno > 1:
            # tolerate trailing blank lines only
            blank = blank or lineno
            continue
        if blank is not None:
            raise ValueError(f"line {blank}: blank line inside the matrix")
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DimensionError(
                f"line {lineno}: expected {width} entries, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise ValueError("empty matrix file")
    a = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix file contains non-finite entries")
    return a


def save_matrix(path, m) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize_matrix(m))


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())


def as_flat_vector(m: np.ndarray) -> np.ndarray:
    """Interpret a 1 x n or n x 1 matrix file as a vector."""
    a = np.asarray(m)
    if a.ndim == 2 and 1 in a.shape:
        return a.reshape(-1)
    if a.ndim == 1:
        return a
    raise DimensionError(f"expected a vector-shaped file, got shape {a.shape}")
