"""Workload inputs, command sequences and output checks.

A workload is a sequence of CLI commands (one "pass") on inputs made from
the workload seed. Keys come from ``phasesort.generate_key``; every other
input file and every check is computed here with plain numpy, independently
of the package, so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from phasesort import generate_key

WHY = {
    "audit": (
        "This workload is dominated by the search layers. At 4x16, bounds took about 3.2 s "
        "in one early timing and check about 0.25 s. That time is the per-mask SVD loop of "
        "lower_constant over 32768 splits. The 8x15 key is at D = 2d-1, so check also runs "
        "the full-spark cross-check over 6435 subsets (about 0.42 s of its 0.60 s). "
        "Decoders do not run here."
    ),
    "decode": (
        "This workload is dominated by per-command fixed costs. These are argument parsing "
        "(build_parser was about 55% of a 5 ms 3x8 decode under cProfile), matrixio file "
        "I/O, the certificate scan of a small key, and a single omega. Per-key work is never "
        "amortized here, so a per-key cache that costs more than it saves shows up as a loss."
    ),
    "verify": (
        "This workload is dominated by encoders, decoders and quotient metrics. There are "
        "thousands of calls against one key, so per-key work is amortized: the opposite use "
        "of the same inversion/encoders code as in decode. lower_constant runs 3 times per "
        "key but is small here."
    ),
}

# Layers each workload is meant to exercise; a traced pass that records no
# span in one of them means a wrapper went missing.
LAYERS = {
    "audit": {"cli", "matrixio", "frame_keys", "numerics", "lipschitz", "encoders"},
    "decode": {"cli", "matrixio", "frame_keys", "numerics", "inversion", "encoders"},
    "verify": {"cli", "matrixio", "frame_keys", "numerics", "lipschitz", "inversion",
               "encoders", "verify"},
}

VERIFY_PROPERTIES = {
    "minmax-identities", "hadamard-split-identity", "alpha-sign-invariance",
    "beta-permutation-invariance", "auxiliary-set-decomposition", "quotient-metric-stack",
    "certificate-agreement", "roundtrip-alpha", "roundtrip-beta", "roundtrip-beta-tilde",
    "lipschitz-sandwich", "achievement",
}

DECODE_BATCH = 100       # decode commands per pass, each on a fresh key
VERIFY_SAMPLES = 1000
SPLIT_SAMPLES = 64       # other splits A0 is compared against per bounds report
RANK_TOL = 1e-12         # the package's default relative rank tolerance factor


@dataclass
class Command:
    argv: list[str]
    kind: str
    writes: str | None = None    # file the command writes, part of the digest


def sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=path).generate_state(1)[0])


def write_matrix(path: str, m) -> None:
    a = np.atleast_2d(np.asarray(m, dtype=np.float64))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n")


def read_matrix(path: str) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        return np.array([[float(t) for t in line.split(",")]
                         for line in fh.read().splitlines() if line.strip()])


def _sigma_d(a: np.ndarray, cols: list[int], d: int) -> float:
    if len(cols) < d:
        return 0.0
    return float(np.linalg.svd(a[:, cols], compute_uv=False)[d - 1])


def _split_value(a: np.ndarray, mask: int) -> float:
    d, D = a.shape
    cols = [k for k in range(D) if mask >> k & 1]
    rest = [k for k in range(D) if not mask >> k & 1]
    return float(np.hypot(_sigma_d(a, cols, d), _sigma_d(a, rest, d)))


def _parse_report(code: int, stdout: str, command: str) -> dict:
    if code != 0:
        raise AssertionError(f"exit code {code}")
    report = json.loads(stdout)
    if report.get("command") != command:
        raise AssertionError(f"report is for {report.get('command')!r}")
    return report


class Workload:
    """The commands of one pass, the inputs they read, and their checks."""

    name = ""
    same_inputs_every_pass = True

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def why(self) -> str:
        return WHY[self.name]

    def warmup(self) -> list[Command]:
        raise NotImplementedError

    def prepare(self, k: int) -> list[Command]:
        """Write the inputs of pass ``k`` and return its commands."""
        raise NotImplementedError

    def check(self, commands: list[Command], results: list[tuple]) -> list[str | None]:
        """One failure reason (or None) per command, from (code, stdout) pairs."""
        raise NotImplementedError

    def n_keys(self, commands: list[Command]) -> int:
        return len({c.argv[c.argv.index("--key") + 1] if "--key" in c.argv else c.argv[1]
                    for c in commands})


class Audit(Workload):
    """``check`` then ``bounds`` on a 4x16 key and on an 8x15 key."""

    name = "audit"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.keys: dict[str, np.ndarray] = {}

    def _commands(self, tag: str, stream: int, shapes) -> list[Command]:
        cmds = []
        for i, (d, D) in enumerate(shapes):
            path = f"{tag}-{d}x{D}.txt"
            self.keys[path] = np.array(generate_key(d, D, sub_seed(self.seed, stream, i)).matrix)
            write_matrix(path, self.keys[path])
            cmds += [Command(["check", path], "check"), Command(["bounds", path], "bounds")]
        return cmds

    def warmup(self) -> list[Command]:
        # D = 2d-1, so the full-spark cross-check path is warmed too.
        return self._commands("warm", 0, ((3, 5),))

    def prepare(self, k: int) -> list[Command]:
        return self._commands("key", 1, ((4, 16), (8, 15)))

    def check(self, commands, results):
        reasons: list[str | None] = []
        for j in range(0, len(commands), 2):
            a = self.keys[commands[j].argv[1]]
            a0, why_check = None, "no A0 to compare the verdicts with"
            try:
                a0, why_bounds = self._check_bounds(a, results[j + 1])
            except (AssertionError, ValueError, KeyError, TypeError) as exc:
                why_bounds = f"{type(exc).__name__}: {exc}"
            if a0 is not None:
                try:
                    why_check = self._check_verdicts(a, a0, results[j])
                except (AssertionError, ValueError, KeyError, TypeError) as exc:
                    why_check = f"{type(exc).__name__}: {exc}"
            reasons += [why_check, why_bounds]
        return reasons

    def _check_bounds(self, a: np.ndarray, result) -> tuple[float, str | None]:
        D = a.shape[1]
        bounds = _parse_report(*result, "bounds")
        a0, b0 = bounds["constants"]["A0"], bounds["constants"]["B0"]
        if not bounds["achievement"]["passed"]:
            return a0, "achievement not passed"
        sigma_1 = float(np.linalg.svd(a, compute_uv=False)[0])
        if abs(b0 - sigma_1) > 1e-12 * sigma_1:
            return a0, f"B0 {b0!r} != sigma_1 {sigma_1!r}"
        mask = sum(1 << (k - 1) for k in bounds["I0"])
        at_i0 = _split_value(a, mask)
        if abs(a0 - at_i0) > 1e-12 * max(abs(at_i0), np.finfo(float).tiny):
            return a0, f"A0 {a0!r} != value {at_i0!r} at the reported I0"
        canonical = min(mask, ((1 << D) - 1) ^ mask)
        rng = np.random.default_rng(sub_seed(self.seed, 2, D))
        for other in map(int, rng.integers(0, 1 << (D - 1), SPLIT_SAMPLES)):
            if other != canonical and _split_value(a, other) < a0 * (1 - 1e-12):
                return a0, f"split {other} has a value below A0 {a0!r}"
        return a0, None

    def _check_verdicts(self, a: np.ndarray, a0: float, result) -> str | None:
        d, D = a.shape
        sigma_1 = float(np.linalg.svd(a, compute_uv=False)[0])
        positive = a0 > RANK_TOL * max(d, D) * max(1.0, sigma_1)
        check = _parse_report(*result, "check")
        certs = check["certificates"]
        expected = ["complement", "phase-retrievable", "universal-key"]
        if D == 2 * d - 1:
            expected.append("full-spark")
        for name in expected:
            if certs[name]["verdict"] != positive:
                return f"{name} verdict {certs[name]['verdict']} but A0 > 0 is {positive}"
        if check["all_true"] != all(c["verdict"] for c in certs.values()):
            return "all_true disagrees with the verdicts"
        return None


class Decode(Workload):
    """``decode`` with a fresh key per command, alternating 3x8/4x12 keys and
    the beta/beta-tilde encoders; each key decodes one seeded two-row config."""

    name = "decode"
    same_inputs_every_pass = False

    def __init__(self, seed: int):
        super().__init__(seed)
        self.truth: dict[str, np.ndarray] = {}

    def _commands(self, tag: str, stream: tuple, count: int) -> list[Command]:
        cmds = []
        for i in range(count):
            d, D = (3, 8) if i % 2 == 0 else (4, 12)
            encoder = "beta" if i // 2 % 2 == 0 else "beta-tilde"
            a = np.array(generate_key(d, D, sub_seed(self.seed, *stream, i, 0)).matrix)
            x = np.random.default_rng(sub_seed(self.seed, *stream, i, 1)).standard_normal((2, d))
            if encoder == "beta":
                y = np.sort(x @ a, axis=0)[::-1]
            else:
                y = np.concatenate([0.5 * (x[0] + x[1]), np.abs(a.T @ (x[0] - x[1]))])
            key_path, in_path, out_path = (f"{tag}-{i}-key.txt", f"{tag}-{i}-in.txt",
                                           f"{tag}-{i}-out.txt")
            write_matrix(key_path, a)
            write_matrix(in_path, y)
            self.truth[out_path] = x
            cmds.append(Command(["decode", "--encoder", encoder, "--key", key_path,
                                 "--input", in_path, "--out", out_path], "decode", out_path))
        return cmds

    def warmup(self) -> list[Command]:
        return self._commands("warm", (3,), 4)

    def prepare(self, k: int) -> list[Command]:
        return self._commands("pass", (4, k), DECODE_BATCH)

    def check(self, commands, results):
        reasons: list[str | None] = []
        for cmd, (code, _) in zip(commands, results):
            if code != 0:
                reasons.append(f"exit code {code}")
                continue
            x = self.truth[cmd.writes]
            try:
                got = read_matrix(cmd.writes)
            except (OSError, ValueError) as exc:
                reasons.append(f"unreadable output: {exc}")
                continue
            if got.shape != x.shape:
                reasons.append(f"decoded shape {got.shape}")
                continue
            dist = min(np.linalg.norm(got - x), np.linalg.norm(got[::-1] - x))
            bound = 1e-8 * max(1.0, float(np.linalg.norm(x)))
            reasons.append(None if dist <= bound else f"dist_hat_V {dist:.3e} > {bound:.3e}")
        return reasons


class Verify(Workload):
    """``verify --samples 1000`` on a 3x8 key and on a 4x12 key."""

    name = "verify"

    def _commands(self, tag: str, stream: int, shapes, samples: int) -> list[Command]:
        cmds = []
        for i, (d, D) in enumerate(shapes):
            path = f"{tag}-{d}x{D}.txt"
            write_matrix(path, generate_key(d, D, sub_seed(self.seed, stream, i, 0)).matrix)
            cmds.append(Command(["verify", path, "--samples", str(samples),
                                 "--seed", str(sub_seed(self.seed, stream, i, 1))], "verify"))
        return cmds

    def warmup(self) -> list[Command]:
        return self._commands("warm", 5, ((3, 8),), 20)

    def prepare(self, k: int) -> list[Command]:
        return self._commands("key", 6, ((3, 8), (4, 12)), VERIFY_SAMPLES)

    def check(self, commands, results):
        reasons: list[str | None] = []
        for code, stdout in results:
            try:
                report = _parse_report(code, stdout, "verify")
                names = {p["name"] for p in report["properties"]}
                if not report["all_pass"]:
                    failed = [p["name"] for p in report["properties"] if p["status"] == "fail"]
                    raise AssertionError(f"all_pass false: {failed}")
                if names != VERIFY_PROPERTIES:
                    raise AssertionError(f"properties {sorted(names ^ VERIFY_PROPERTIES)}")
                reasons.append(None)
            except (AssertionError, ValueError, KeyError, TypeError) as exc:
                reasons.append(f"{type(exc).__name__}: {exc}")
        return reasons


WORKLOADS = {w.name: w for w in (Audit, Decode, Verify)}



def read_written(cmd: Command) -> bytes:
    if cmd.writes is None or not os.path.exists(cmd.writes):
        return b""
    with open(cmd.writes, "rb") as fh:
        return fh.read()
