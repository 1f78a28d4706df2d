import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasesort import Key, screens

# Reference key used throughout: columns (1,0), (0,1), (1,1).
A_REF = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def _adversarial_matrices():
    """Keys that stress the partition searches: ties, repeated and missing
    columns, too few columns, extreme scale, near-singular splits."""
    rng = np.random.Generator(np.random.PCG64(4242))
    near = rng.standard_normal((3, 9))
    near[:, 5] = near[:, 0] + 1e-9 * near[:, 1]
    return {
        "identity": np.eye(3),
        "identity-twice": np.hstack([np.eye(3), np.eye(3)]),
        "repeated-columns": np.repeat(rng.standard_normal((3, 4)), 2, axis=1),
        "too-few-columns": rng.standard_normal((4, 6)),
        "integer-ties": rng.integers(-2, 3, size=(3, 9)).astype(float),
        "all-ones": np.ones((2, 6)),
        "zero": np.zeros((3, 6)),
        "scaled-1e6": 1e6 * rng.standard_normal((3, 9)),
        "scaled-1e-200": 1e-200 * rng.standard_normal((3, 7)),
        "near-singular": near,
        # one split is decided by the exact rank of a d-column side: side I
        # of {1,2} | {3}, and the complement side of {1} | {2,3}
        "near-parallel-first": np.array([[1.0, 1.0, 0.0], [0.0, 1e-8, 1.0]]),
        "near-parallel-last": np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1e-8]]),
        "rank-deficient": rng.standard_normal((3, 2)) @ rng.standard_normal((2, 10)),
    }


ADVERSARIAL = _adversarial_matrices()

def drain_screen(unit, bound=np.inf):
    """(masks, settled, diagonalized): screens._screen(unit, bound) walked to
    its end, the kept masks of every block, ascending, and the blocks' work
    counts summed."""
    blocks = list(screens._screen(unit, bound))
    return (np.concatenate([masks for masks, _, _, _ in blocks]),
            sum(b[2] for b in blocks), sum(b[3] for b in blocks))


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, cwd=None):
    """Run ``python -m phasesort`` in a child process and capture its output.

    The package's ``src`` directory is prepended to the child's PYTHONPATH as
    an absolute path, so the child imports this checkout from any ``cwd``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "phasesort", *args], capture_output=True, cwd=cwd, env=env
    )


@pytest.fixture
def a_ref_key():
    return Key(A_REF)


@pytest.fixture
def identity_key():
    return Key(np.eye(2))


def sym2x2_eigenvalues(m) -> tuple[float, float]:
    """Eigenvalues of a symmetric 2x2 matrix by the characteristic polynomial.

    Independent oracle for singular values of 2 x n matrices via their Gram.
    Returned in nonincreasing order.
    """
    a, b, c = float(m[0][0]), float(m[0][1]), float(m[1][1])
    tr = a + c
    det = a * c - b * b
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return (tr + disc) / 2.0, (tr - disc) / 2.0


def brute_force_magnitude_recovery(a: np.ndarray, y: np.ndarray, tol: float = 1e-9):
    """All-pattern reference solver: try every sign assignment on all D
    measurements with a full least-squares fit, return the first consistent
    signal or None."""
    d, D = a.shape
    y = np.asarray(y, dtype=float)
    bound = tol * max(1.0, float(np.linalg.norm(y)))
    for bits in range(1 << D):
        eps = np.array([-1.0 if bits >> k & 1 else 1.0 for k in range(D)])
        x, *_ = np.linalg.lstsq(a.T, eps * y, rcond=None)
        if np.linalg.norm(np.abs(a.T @ x) - y) <= bound:
            return x
    return None
