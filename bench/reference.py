"""A fixed reference kernel, the yardstick for the machine's speed.

On a shared machine the speed of one core drifts by 20-50% over tens of
seconds, so two runs of the same code can differ by more than any change
worth measuring. The kernel below does a fixed mix of the kinds of work the
CLI does (argparse, json, small LAPACK calls) in code no change to
``phasesort`` can touch. Timing it between commands and rescaling each
timing by ``REFERENCE_S / kernel time`` reports it at one reference speed:
on a 200 s decode run cut into 25 s windows (2-vCPU x86-64 VM, Python 3.11,
numpy 2.4, OpenBLAS), the quartile spread of the window medians fell from
0.20 to 0.06 of their median.
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter

import numpy as np

REFERENCE_S = 0.02       # the kernel's time at reference speed
_GRAM = np.eye(4) + 0.1


def kernel_seconds() -> float:
    """Wall time of one run of the kernel, about 20 ms."""
    start = perf_counter()
    for _ in range(8):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command")
        for j in range(7):
            p = sub.add_parser(f"c{j}")
            p.add_argument("--x")
            p.add_argument("--y", type=int)
        parser.parse_args(["c1", "--x", "1"])
        json.dumps({"a": list(range(300))}, indent=2)
        for _ in range(20):
            np.linalg.eigvalsh(_GRAM)
    return perf_counter() - start
