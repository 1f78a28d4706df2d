"""Per-layer tracing from outside the package.

Every public function of every ``phasesort`` module is wrapped in a span
recorder, and the wrapper is put at every place the function is bound: on
its own module, on each module that imported it by name, on the package,
and inside module-level dicts such as ``cli._CERT_FUNCS``. Nothing under
``src/`` changes. Spans stay in memory while a pass runs and are reduced to
``<module>.<function>.<stat>`` metrics afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
from itertools import combinations
from time import perf_counter

# Per-element conversions that every layer calls many times per command;
# wrapping them would cost more than the work they do and would inflate the
# self time of their callers.
NOT_LAYERS = {"numerics.as_matrix", "numerics.as_vector", "matrixio.format_entry"}

# Functions whose calls, busy_s and self_s are reported.
REPORTED = (
    "cli.main",
    "cli.build_parser",
    "matrixio.load_matrix",
    "matrixio.save_matrix",
    "frame_keys.has_complement_property",
    "frame_keys.is_full_spark",
    "frame_keys.synthesis_left_inverse",
    "numerics.sigma_k",
    "numerics.rank",
    "numerics.svd",
    "numerics.least_squares",
    "lipschitz.lower_constant",
    "lipschitz.build_report",
    "lipschitz.check_achievement",
    "lipschitz.ratio_scan",
    "inversion.omega",
    "inversion.invert_beta",
    "inversion.invert_beta_tilde",
    "encoders.alpha",
    "encoders.beta",
    "encoders.beta_tilde",
    "encoders.dist_hat_H",
    "encoders.dist_hat_V",
    "verify.run_battery",
)

# Counts computed from input shapes (or file sizes), not timed.
COMPUTED = (
    "matrixio.bytes",
    "frame_keys.partitions_scanned",
    "frame_keys.subsets_scanned",
    "lipschitz.partitions_scanned",
    "inversion.sign_patterns",
    "encoders.row_perms",
)

CLI_COMMANDS = ("check", "bounds", "decode", "verify")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for fn in REPORTED:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.busy_s"] = "s"
        units[f"{fn}.self_s"] = "s"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.busy_s"] = "s"
    for name in COMPUTED:
        units[name] = "bytes" if name == "matrixio.bytes" else "count"
    units["frame_keys.cert_memo_hit_ratio"] = "ratio"
    units["lipschitz.lower_constant.calls_per_key"] = "ratio"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def _subsets_before(witness: tuple[int, ...], D: int) -> int:
    """Lexicographic rank of a 1-based column subset among all d-subsets."""
    target = tuple(c - 1 for c in witness)
    for i, cols in enumerate(combinations(range(D), len(target))):
        if cols == target:
            return i
    raise ValueError(f"{witness} is not a subset of {D} columns")


class Recorder:
    """Span recorder: (name, start, end, parent, command, nested) tuples.

    ``nested`` marks a span opened while another span of the same name was
    open, so busy time does not count it twice.
    """

    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COMPUTED, 0)
        self.memo_calls = 0
        self.memo_hits = 0
        self.command = -1
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def wrap(self, name: str, fn):
        rec = self
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(rec, *args) if before is not None else None
            idx = len(rec.spans)
            rec.spans.append(None)
            parent = rec._stack[-1] if rec._stack else -1
            nested = rec._open.get(name, 0) > 0
            rec._open[name] = rec._open.get(name, 0) + 1
            rec._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec._stack.pop()
                rec._open[name] -= 1
                rec.spans[idx] = (name, start, end, parent, rec.command, nested)
            if after is not None:
                after(rec, token, result, *args)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start and end (s), parent, command."""
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, cmd, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "span": name, "start": start, "end": end,
                                     "parent": parent, "command": cmd}) + "\n")


# Hooks run outside the span: ``before(rec, *args)`` returns a token that
# is handed to ``after(rec, token, result, *args)``.

def _memo_hit(rec: Recorder, key, entry: str) -> bool:
    hit = entry in getattr(key, "_cache", {})
    rec.memo_calls += 1
    rec.memo_hits += hit
    return hit


def _complement_before(rec, key, *_):
    if not _memo_hit(rec, key, "complement"):
        rec.counts["frame_keys.partitions_scanned"] += 1 << (key.D - 1)


def _full_spark_after(rec, hit, report, key, *_):
    if hit or key.D < key.d:
        return
    if report.verdict:
        rec.counts["frame_keys.subsets_scanned"] += math.comb(key.D, key.d)
    else:
        rec.counts["frame_keys.subsets_scanned"] += _subsets_before(report.witness, key.D) + 1


def _count(counter: str, amount):
    def before(rec, *args):
        rec.counts[counter] += amount(*args)
    return before


def _saved_bytes(rec, _token, _result, path, *_):
    rec.counts["matrixio.bytes"] += os.path.getsize(path)


_HOOKS = {
    "frame_keys.has_complement_property": (_complement_before, None),
    "frame_keys.is_phase_retrievable": (
        lambda rec, key, *_: _memo_hit(rec, key, "phase_retrievable"), None),
    "frame_keys.is_full_spark": (
        lambda rec, key, *_: _memo_hit(rec, key, "full_spark"), _full_spark_after),
    "lipschitz.lower_constant": (
        _count("lipschitz.partitions_scanned", lambda key, *_: 1 << (key.D - 1)), None),
    "inversion.omega": (
        _count("inversion.sign_patterns", lambda key, *_: 1 << (key.d - 1)), None),
    "encoders.dist_hat_V": (
        _count("encoders.row_perms", lambda x, *_: math.factorial(len(x))), None),
    "matrixio.load_matrix": (
        _count("matrixio.bytes", lambda path, *_: os.path.getsize(path)), None),
    "matrixio.save_matrix": (None, _saved_bytes),
}


def _package_modules():
    pkg = importlib.import_module("phasesort")
    names = sorted(m.name for m in pkgutil.iter_modules(pkg.__path__) if m.name != "__main__")
    return pkg, [importlib.import_module(f"phasesort.{n}") for n in names]


class Installed:
    """Context manager that swaps every binding of every traced function."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[dict, str, object]] = []

    def __enter__(self):
        pkg, modules = _package_modules()
        wrappers = {}
        names = set()
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, val in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in NOT_LAYERS):
                    wrappers[val] = self.rec.wrap(name, val)
                    names.add(name)
        for ns in [pkg, *modules]:
            self._patch(vars(ns), wrappers)
            for attr, val in list(vars(ns).items()):
                if isinstance(val, dict) and not attr.startswith("__"):
                    self._patch(val, wrappers)
        missing = sorted(set(REPORTED) - names)
        if missing:
            self.__exit__(None, None, None)
            raise RuntimeError(f"reported functions not found in the package: {missing}")
        return self.rec

    def _patch(self, table: dict, wrappers: dict) -> None:
        for attr, val in list(table.items()):
            if inspect.isfunction(val) and val in wrappers:
                self._undo.append((table, attr, val))
                table[attr] = wrappers[val]

    def __exit__(self, *exc):
        for table, attr, val in reversed(self._undo):
            table[attr] = val
        self._undo.clear()
        return False


def layer_metrics(rec: Recorder, commands: list[str], n_keys: int) -> dict[str, float]:
    """Reduce one pass's spans to per-layer metrics (all keys of metric_units)."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    child: list[float] = [0.0] * len(rec.spans)
    for name, start, end, parent, _, _ in rec.spans:
        if parent >= 0:
            child[parent] += end - start
    selfs: dict[str, float] = {}
    per_cmd = dict.fromkeys(CLI_COMMANDS, 0.0)
    for i, (name, start, end, parent, cmd, nested) in enumerate(rec.spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        if not nested:
            busy[name] = busy.get(name, 0.0) + dur
        selfs[name] = selfs.get(name, 0.0) + dur - child[i]
        if name == "cli.main" and not nested and commands[cmd] in per_cmd:
            per_cmd[commands[cmd]] += dur
    out: dict[str, float] = {}
    for fn in REPORTED:
        out[f"{fn}.calls"] = calls.get(fn, 0)
        out[f"{fn}.busy_s"] = busy.get(fn, 0.0)
        out[f"{fn}.self_s"] = selfs.get(fn, 0.0)
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.busy_s"] = per_cmd[cmd]
    out.update(rec.counts)
    out["frame_keys.cert_memo_hit_ratio"] = (
        rec.memo_hits / rec.memo_calls if rec.memo_calls else 0.0)
    out["lipschitz.lower_constant.calls_per_key"] = (
        calls.get("lipschitz.lower_constant", 0) / n_keys)
    out["trace.spans"] = len(rec.spans)
    return out


def layers_seen(rec: Recorder) -> set[str]:
    return {span[0].split(".", 1)[0] for span in rec.spans}
