"""End-to-end and per-layer benchmark of the phasesort command line.

Run from the repository root:

    python3 bench/run.py --workload audit --seed 1 --seconds 10 --trace 0

Every command goes in-process through ``phasesort.cli.main(argv)``: one
client, one process, a closed loop (the next command starts when the last
one returned), with the BLAS pinned to one thread. The import of the CLI is
paid once, not per command; ``setup_s`` measures it. A run repeats its
workload's pass of commands until ``--seconds`` have passed (and at least
``MIN_PASSES`` times), checks every command's output, and prints one JSON
line of information followed by the result line. End-to-end times are
rescaled to a reference machine speed (see ``reference.py``). ``--trace 1``
instead alternates traced and untraced passes and reports the per-layer
metrics of ``layers.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("audit", "decode", "verify")
SETUP_SAMPLES = 5       # set-ups per untraced run, spread evenly over it
REFERENCE_EVERY_S = 0.25
MIN_PASSES = 3          # untraced; a traced run makes at least one of each kind
END_TO_END = {"setup_s": "s", "wall_s": "s", "cmd_ms_p50": "ms", "cmd_ms_p90": "ms",
              "peak_rss_mb": "MB"}


def run_command(cli, argv: list[str]) -> tuple:
    """Run one CLI command in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:           # argparse usage errors
            code = exc.code
        except Exception:                   # a crash is a failed command, not a stop
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def run_pass(cli, commands, recorder=None, reference=None) -> tuple[list, list, list]:
    """Run the commands in order: latencies, (code, stdout) pairs, and the
    reference kernel's times, taken between commands at least every
    ``REFERENCE_EVERY_S`` (and once per pass) when ``reference`` is given."""
    latencies, results, kernel = [], [], []
    last = perf_counter()
    for i, cmd in enumerate(commands):
        if recorder is not None:
            recorder.command = i
        code, stdout, stderr, seconds = run_command(cli, cmd.argv)
        if code is None:
            sys.stderr.write(stderr)
        latencies.append(seconds)
        results.append((code, stdout))
        if reference is not None and (perf_counter() - last >= REFERENCE_EVERY_S
                                      or (i == len(commands) - 1 and not kernel)):
            kernel.append(reference.kernel_seconds())
            last = perf_counter()
    return latencies, results, kernel


_IMPORT_CLI = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import phasesort.cli; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time ``import phasesort.cli`` in a fresh interpreter, as every command pays it."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CLI, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def set_up(cli, wl, tally) -> float:
    """One set-up: the import, the inputs of the first pass, and one warm-up
    command of each kind (on a key of its own, so no timed key is warmed)."""
    start = perf_counter()
    wl.prepare(0)
    warm = wl.warmup()
    _, results, _ = run_pass(cli, warm)
    seconds = perf_counter() - start
    tally.add(warm, wl.check(warm, results))
    return import_seconds() + seconds


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile, as numpy's default method."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Tally:
    """Attempted and failed commands, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, commands, reasons) -> None:
        self.attempted += len(commands)
        for cmd, why in zip(commands, reasons):
            if why is not None:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"{' '.join(cmd.argv)}: {why}")


def check_pass(wl, commands, results, first: tuple | None, tally: Tally) -> None:
    """Check outputs; where every pass has the same inputs, stdout must repeat."""
    reasons = wl.check(commands, results)
    if first is not None and wl.same_inputs_every_pass:
        for i, (res, res0) in enumerate(zip(results, first[1])):
            if reasons[i] is None and res[1] != res0[1]:
                reasons[i] = "stdout differs from the first pass on the same inputs"
    tally.add(commands, reasons)


def digest(workloads, commands, results) -> str:
    h = hashlib.sha256()
    for cmd, (_, stdout) in zip(commands, results):
        h.update(stdout.encode())
        h.update(workloads.read_written(cmd))
    return h.hexdigest()


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
    }


def measure(cli, wl, workloads, reference, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Untraced passes: end-to-end metrics and information.

    Every timing is rescaled to reference speed by the reference kernel timed
    next to it (see ``reference.py``); the raw medians go to the information
    line. The set-ups are spread over the run, so that their median, like
    that of the passes, does not hang on one moment of the machine.
    """
    raw = {name: [] for name in ("setup_s", "wall_s", "cmd_ms_p50", "cmd_ms_p90")}
    scaled = {name: [] for name in raw}
    kinds, kernel_all = [], []
    first = None
    start = perf_counter()
    k = 0

    def add(name, value, kernel_s):
        raw[name].append(value)
        scaled[name].append(value * reference.REFERENCE_S / kernel_s)

    while k < MIN_PASSES or perf_counter() - start < seconds:
        if (len(raw["setup_s"]) < SETUP_SAMPLES
                and perf_counter() - start >= len(raw["setup_s"]) * seconds / SETUP_SAMPLES):
            setup = set_up(cli, wl, tally)
            add("setup_s", setup, reference.kernel_seconds())
        commands = wl.prepare(k)
        lat, results, kernel = run_pass(cli, commands, reference=reference)
        check_pass(wl, commands, results, first, tally)
        if first is None:
            first = (commands, results, digest(workloads, commands, results))
        kernel_s = statistics.median(kernel)
        kernel_all += kernel
        add("wall_s", sum(lat), kernel_s)
        add("cmd_ms_p50", 1e3 * percentile(lat, 50), kernel_s)
        add("cmd_ms_p90", 1e3 * percentile(lat, 90), kernel_s)
        per_kind: dict[str, float] = {}
        for cmd, t in zip(commands, lat):
            per_kind[cmd.kind] = per_kind.get(cmd.kind, 0.0) + t
        kinds.append(per_kind)
        k += 1
    info = {
        "passes": k,
        "commands_per_pass": len(first[0]),
        "cmd_samples": k * len(first[0]),
        "outputs_sha256": first[2],
        "raw": {name: statistics.median(v) for name, v in raw.items()},
        "raw_kind_s": {kind: statistics.median(p[kind] for p in kinds) for kind in kinds[0]},
        "reference_kernel_s": statistics.median(kernel_all),
    }
    return {name: statistics.median(v) for name, v in scaled.items()}, info


def measure_traced(cli, wl, workloads, layers, seconds: float, tally: Tally,
                   trace_path: Path) -> tuple[dict, dict]:
    """Alternate traced and untraced passes: per-layer metrics and information."""
    traced_walls, untraced_walls, per_pass = [], [], []
    seen: set[str] = set()
    first = None
    start = perf_counter()
    k = 0
    while k < 2 or perf_counter() - start < seconds:
        commands = wl.prepare(k)
        if k % 2 == 0:
            rec = layers.Recorder()
            with layers.Installed(rec):
                lat, results, _ = run_pass(cli, commands, rec)
            traced_walls.append(sum(lat))
            per_pass.append(layers.layer_metrics(rec, [c.kind for c in commands],
                                                 wl.n_keys(commands)))
            seen |= layers.layers_seen(rec)
            if k == 0:
                rec.write(str(trace_path))
        else:
            lat, results, _ = run_pass(cli, commands)
            untraced_walls.append(sum(lat))
        check_pass(wl, commands, results, first, tally)
        if first is None:
            first = (commands, results, digest(workloads, commands, results))
        k += 1
    missing = sorted(workloads.LAYERS[wl.name] - seen)
    if missing:
        raise RuntimeError(f"no span recorded in layers {missing} on workload {wl.name}")

    units = layers.metric_units()
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(traced_walls) - statistics.median(untraced_walls)
        elif unit == "s":
            metrics[name] = statistics.median(p[name] for p in per_pass)
        else:                 # counts and ratios: from pass 0, a function of the seed
            metrics[name] = per_pass[0][name]
    info = {
        "passes": k,
        "traced_passes": len(traced_walls),
        "commands_per_pass": len(first[0]),
        "outputs_sha256": first[2],
        "traced_wall_s": statistics.median(traced_walls),
        "untraced_wall_s": statistics.median(untraced_walls),
        "spans_file": str(trace_path.relative_to(ROOT)),
        "computed": list(layers.COMPUTED),
    }
    return {name: (metrics[name], unit) for name, unit in units.items()}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phasesort" / "cli.py").is_file():
        print(f"bench: no phasesort sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"        # before numpy loads the BLAS
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    cli = importlib.import_module("phasesort.cli")
    import_s = perf_counter() - start

    import numpy as np

    import layers
    import reference
    import workloads

    work = ROOT / ".bench_work"
    run_dir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    os.chdir(run_dir)            # relative input paths keep stdout location-free
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        tally = Tally()
        if args.trace:
            set_up(cli, wl, tally)
            metrics, info = measure_traced(cli, wl, workloads, layers, args.seconds, tally,
                                           work / f"spans-{args.workload}.jsonl")
        else:
            values, info = measure(cli, wl, workloads, reference, args.seconds, tally)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)

    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": wl.why,
        "loop": "closed, 1 client, 1 process, in-process cli.main",
        "import_s_in_process": import_s,
        "fail_frac": tally.failed / tally.attempted,
        "failures": tally.reasons,
        "environment": environment(np),
    })
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
