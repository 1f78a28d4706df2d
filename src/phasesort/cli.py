"""Command-line surface: keys, certificates, encoders, decoders, metrics,
bounds, and the invariant battery, all over plain-text matrix files.

Exit codes: 0 success / all verdicts true, 1 negative verdict or input not
in range, 2 usage or I/O error, 3 exhaustive search over the desk-scale cap.
Reports are JSON on stdout with a fixed field order; a report never carries
wall-clock data, so identical inputs give byte-identical output (timing goes
to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import lipschitz, matrixio, numerics, verify
from .encoders import alpha, beta, beta_tilde, dist_hat_H, dist_hat_V
from .errors import (
    DimensionError,
    NotInRange,
    PhasesortError,
    SearchTooLarge,
    UnsupportedN,
)
from .frame_keys import (
    Key,
    Partition,
    generate_key,
    has_complement_property,
    is_full_spark,
    is_phase_retrievable,
    is_universal_key,
)
from .inversion import invert_beta, invert_beta_tilde

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3

CERTIFICATES = ("full-spark", "complement", "phase-retrievable", "universal-key")

_CERT_FUNCS = {
    "full-spark": is_full_spark,
    "complement": has_complement_property,
    "phase-retrievable": is_phase_retrievable,
    "universal-key": is_universal_key,
}


def _vector_json(v) -> list:
    return [float(x) for x in np.asarray(v).reshape(-1)]


def _matrix_json(m) -> list:
    return [[float(x) for x in row] for row in np.asarray(m)]


def _witness_json(witness) -> dict | None:
    if witness is None:
        return None
    if isinstance(witness, Partition):
        return {"partition": list(witness.indices())}
    return {"columns": list(witness)}


def _emit_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _load_key(path: str) -> Key:
    return Key(matrixio.load_matrix(path))


def _cmd_keygen(args) -> int:
    if args.rows < 1 or args.cols < 1:
        print("keygen: --rows and --cols must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    key = generate_key(args.rows, args.cols, args.seed)
    matrixio.save_matrix(args.out, key.matrix)
    return EXIT_OK


def _cmd_check(args) -> int:
    key = _load_key(args.keyfile)
    requested = [args.certificate] if args.certificate else list(CERTIFICATES)
    certs = {}
    for name in requested:
        rep = _CERT_FUNCS[name](key)
        certs[name] = {
            "verdict": rep.verdict,
            "method": rep.method,
            "witness": _witness_json(rep.witness),
        }
    all_true = all(c["verdict"] for c in certs.values())
    _emit_report(
        {
            "schema": 1,
            "command": "check",
            "inputs": {"key": args.keyfile, "d": key.d, "D": key.D},
            "certificates": certs,
            "all_true": all_true,
        },
        args.out,
    )
    return EXIT_OK if all_true else EXIT_NEGATIVE


def _cmd_bounds(args) -> int:
    key = _load_key(args.keyfile)
    report = lipschitz.build_report(key)
    achievement = lipschitz.check_achievement(key, report)
    w = report.witnesses
    _emit_report(
        {
            "schema": 1,
            "command": "bounds",
            "inputs": {"key": args.keyfile, "d": key.d, "D": key.D},
            "constants": {"A0": report.A0, "B0": report.B0},
            "I0": list(report.I0.indices()),
            "degenerate_lower": report.degenerate_lower,
            "placeholder_sides": list(report.placeholder_sides),
            "u": _vector_json(report.u),
            "u1": _vector_json(report.u1),
            "u2": _vector_json(report.u2),
            "witnesses": {
                "x_max": _vector_json(w.x_max),
                "y_max": _vector_json(w.y_max),
                "x_min": _vector_json(w.x_min),
                "y_min": _vector_json(w.y_min),
                "X_max": _matrix_json(w.X_max),
                "Y_max": _matrix_json(w.Y_max),
                "X_min": _matrix_json(w.X_min),
                "Y_min": _matrix_json(w.Y_min),
            },
            "achievement": {
                "passed": achievement.passed,
                "lower_checked": achievement.lower_checked,
            },
        },
        args.out,
    )
    return EXIT_OK


def _cmd_encode(args) -> int:
    key = _load_key(args.key)
    data = matrixio.load_matrix(args.input)
    if args.encoder == "alpha":
        out = alpha(key, matrixio.as_flat_vector(data))
    elif args.encoder == "beta":
        emb = beta(key, data)
        out = emb.matrix
        if args.perms:
            perm_rows = np.array([p + 1 for p in emb.perms], dtype=np.float64)
            matrixio.save_matrix(args.perms, perm_rows)
    else:
        out = beta_tilde(key, data)
    matrixio.save_matrix(args.out, out)
    return EXIT_OK


def _canonical_rows(x: np.ndarray) -> np.ndarray:
    """Order the two rows so the first differing coordinate favors row 1."""
    for j in range(x.shape[1]):
        if x[0, j] != x[1, j]:
            return x if x[0, j] > x[1, j] else x[::-1].copy()
    return x


def _cmd_decode(args) -> int:
    key = _load_key(args.key)
    cert_name = "universal-key" if args.encoder == "beta" else "phase-retrievable"
    cert = _CERT_FUNCS[cert_name](key)
    if not cert.verdict:
        print(f"decode: key fails the {cert_name} certificate", file=sys.stderr)
        return EXIT_NEGATIVE
    data = matrixio.load_matrix(args.input)
    try:
        if args.encoder == "beta":
            decoded = invert_beta(key, data)
            gap = beta(key, decoded).matrix - data
        else:
            vec = matrixio.as_flat_vector(data)
            decoded = invert_beta_tilde(key, vec)
            gap = beta_tilde(key, decoded) - vec
    except NotInRange as exc:
        print(f"decode: input not in encoder range: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    # the norm on the input's power-of-two scale, where no square over- or
    # underflows; at normal scale it has np.linalg.norm's bits
    e = int(np.frexp(np.abs(data).max())[1])
    residual = float(np.ldexp(numerics.scaled_row_norms(gap.ravel(), e), e))
    decoded = _canonical_rows(decoded)
    matrixio.save_matrix(args.out, decoded)
    print(f"decode: residual {residual!r}", file=sys.stderr)
    if args.report:
        text = json.dumps(
            {
                "schema": 1,
                "command": "decode",
                "inputs": {"key": args.key, "input": args.input, "encoder": args.encoder},
                "certificate": cert_name,
                "residual": residual,
            },
            indent=2,
        ) + "\n"
        with open(args.report, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_metric(args) -> int:
    x = matrixio.load_matrix(args.x)
    y = matrixio.load_matrix(args.y)
    if args.space == "hatH":
        dist = dist_hat_H(matrixio.as_flat_vector(x), matrixio.as_flat_vector(y))
        perm = None
    else:
        dist, p = dist_hat_V(x, y)
        perm = [i + 1 for i in p]
    _emit_report(
        {
            "schema": 1,
            "command": "metric",
            "inputs": {"x": args.x, "y": args.y, "space": args.space},
            "distance": dist,
            "permutation": perm,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    key = _load_key(args.keyfile)
    results = verify.run_battery(key, args.samples, args.seed)
    all_pass = all(r.status != "fail" for r in results)
    _emit_report(
        {
            "schema": 1,
            "command": "verify",
            "inputs": {
                "key": args.keyfile,
                "d": key.d,
                "D": key.D,
                "samples": args.samples,
                "seed": args.seed,
            },
            "properties": [
                {"name": r.name, "status": r.status, "count": r.count, "detail": r.detail}
                for r in results
            ],
            "all_pass": all_pass,
        },
        args.out,
    )
    return EXIT_OK if all_pass else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of every subcommand; main reuses one (_parser)."""
    parser = argparse.ArgumentParser(
        prog="phasesort",
        description="Frame keys, invariant encoders, exact decoders, and bi-Lipschitz bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a random key matrix")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("check", help="run injectivity certificates on a key")
    p.add_argument("keyfile")
    p.add_argument("--certificate", choices=CERTIFICATES)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bounds", help="optimal Lipschitz constants and witnesses")
    p.add_argument("keyfile")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("encode", help="apply an encoder to a signal/configuration file")
    p.add_argument("--encoder", choices=("alpha", "beta", "beta-tilde"), required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--perms", help="side file for the column sorting permutations (beta only)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="invert an encoder output file")
    p.add_argument("--encoder", choices=("beta", "beta-tilde"), required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write a JSON report with the residual")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("metric", help="quotient distance between two files")
    p.add_argument("--space", choices=("hatH", "hatV"), required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("verify", help="run the seeded invariant battery on a key")
    p.add_argument("keyfile")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads, built once per process. Reuse is safe:
    parse_args writes only to the fresh Namespace it returns, and the help
    width is read when help is formatted, not when the parser is built."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except SearchTooLarge as exc:
        print(f"phasesort {args.command}: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (NotInRange, UnsupportedN) as exc:
        print(f"phasesort {args.command}: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (OSError, ValueError, DimensionError, PhasesortError) as exc:
        print(f"phasesort {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"phasesort {args.command}: elapsed {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
