"""Spans around memtile's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that records
a span (name, start, end, parent span) and, for some functions, a count
taken from the arguments or result. A function is replaced everywhere it is
bound inside ``memtile``: in its own module, so calls between functions of
one module are seen, and in every module that bound it with a from-import
(``memtile.cli`` binds ``simulate_schedule``, ``select_schedule``, ... when
it is imported). ``uninstall`` puts the originals back; a ``with`` block
does both. Spans accumulate over installs.

Spans stay in memory; ``summary`` reduces them to per-layer totals. A
span's self time is its duration minus the durations of its direct
children, so every instant is charged to the innermost span covering it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, function, span name). Span names are "<layer>.<function>".
TARGETS = (
    ("memtile.hardware", "resolve_hardware", "hardware.resolve_hardware"),
    ("memtile.hardware", "fixture_hardware", "hardware.fixture_hardware"),
    ("memtile.hardware", "load_hardware", "hardware.load_hardware"),
    ("memtile.hardware", "hardware_from_dict", "hardware.hardware_from_dict"),
    ("memtile.benchmarks", "load_benchmark", "benchmarks.load_benchmark"),
    ("memtile.cli", "main", "cli.main"),
    ("memtile.tiling", "derive_square_tile", "tiling.derive_square_tile"),
    ("memtile.tiling", "best_register_tile", "tiling.best_register_tile"),
    ("memtile.tiling", "derive_cake_block", "tiling.derive_cake_block"),
    ("memtile.io_model", "select_schedule", "io_model.select_schedule"),
    ("memtile.io_model", "pad_to_tiles", "io_model.pad_to_tiles"),
    ("memtile.io_model", "all_class_io", "io_model.all_class_io"),
    ("memtile.io_model", "io_for_class", "io_model.io_for_class"),
    ("memtile.sim", "simulate_schedule", "sim.simulate_schedule"),
    ("memtile.sim", "brute_force_best", "sim.brute_force_best"),
    ("memtile.emit", "emit_descriptor", "emit.emit_descriptor"),
    ("memtile.emit", "emit_kernel_source", "emit.emit_kernel_source"),
)
# Methods of memtile.emit.ScheduleDescriptor: (method, span name, is classmethod).
DESCRIPTOR_METHODS = (("to_json", "emit.to_json", False), ("from_json", "emit.from_json", True))

# Per-layer time metrics: which spans' self time each one sums.
TIME_METRICS = {
    "hardware.resolve_s": ("hardware.",),
    "benchmarks.load_s": ("benchmarks.",),
    "cli.self_s": ("cli.",),
    "tiling.derive_s": ("tiling.",),
    "io_model.select_s": ("io_model.select_schedule", "io_model.pad_to_tiles"),
    "io_model.count_s": ("io_model.all_class_io", "io_model.io_for_class"),
    "sim.count_s": ("sim.",),
    "emit.descriptor_s": ("emit.emit_descriptor",),
    "emit.json_s": ("emit.to_json", "emit.from_json"),
    "emit.kernel_s": ("emit.emit_kernel_source",),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.sim_keys: set = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for modname in {m for m, _, _ in TARGETS}:
            importlib.import_module(modname)
        bindings = [m for n, m in sys.modules.items()
                    if m is not None and (n == "memtile" or n.startswith("memtile."))]
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for module in bindings:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        cls = sys.modules["memtile.emit"].ScheduleDescriptor
        for attr, name, is_classmethod in DESCRIPTOR_METHODS:
            original = cls.__dict__[attr]
            fn = original.__func__ if is_classmethod else original
            wrapper = self._wrap(name, fn)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer totals: self time per metric, call counts, work counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_by_name: Counter = Counter()
        calls: Counter = Counter()
        entered_from_outside: Counter = Counter()
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_by_name[name] += end - start - child_time[index]
            calls[name] += 1
            layer = name.split(".")[0]
            if parent < 0 or not self.spans[parent][0].startswith(layer + "."):
                entered_from_outside[layer] += 1
        times = {metric: sum(t for n, t in self_by_name.items() if n.startswith(prefixes))
                 for metric, prefixes in TIME_METRICS.items()}
        return {
            "times": times,
            "counts": {
                "hardware.resolve_calls": entered_from_outside["hardware"],
                "tiling.calls": sum(c for n, c in calls.items() if n.startswith("tiling.")),
                "io_model.select_calls": calls["io_model.select_schedule"],
                "io_model.pad_calls": calls["io_model.pad_to_tiles"],
                "sim.calls": calls["sim.simulate_schedule"],
                "sim.distinct": len(self.sim_keys),
                **self.counts,
            },
            "spans": {n: {"calls": calls[n], "self_s": self_by_name[n]} for n in sorted(calls)},
        }


def _observe_simulate(tracer: Tracer, args, kwargs, result) -> None:
    problem, schedule = args[0], args[1]
    tile = schedule.tile
    tracer.sim_keys.add((problem.M, problem.K, problem.N, tile.m, tile.k, tile.n,
                         schedule.inner_class, kwargs.get("c_zero", False)))
    tracer.counts["sim.blocks"] += result.blocks_executed


def _observe_benchmark(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["benchmarks.layers"] += len(result.layers)


def _observe_to_json(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["emit.descriptor_bytes"] += len(result.encode())


def _observe_kernel(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["emit.kernel_bytes"] += len(result.encode())


_OBSERVERS = {
    "sim.simulate_schedule": _observe_simulate,
    "benchmarks.load_benchmark": _observe_benchmark,
    "emit.to_json": _observe_to_json,
    "emit.emit_kernel_source": _observe_kernel,
}

COUNT_KEYS = ("hardware.resolve_calls", "benchmarks.layers", "tiling.calls",
              "io_model.select_calls", "io_model.pad_calls", "sim.calls", "sim.distinct",
              "sim.blocks", "emit.descriptor_bytes", "emit.kernel_bytes")


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several processes (one per CLI child)."""
    return {
        "times": {m: sum(s["times"][m] for s in summaries) for m in TIME_METRICS},
        "counts": {k: sum(s["counts"].get(k, 0) for s in summaries) for k in COUNT_KEYS},
    }


def import_times(stderr_texts: list[str]) -> dict:
    """Median over interpreters of numpy's cumulative import time and
    memtile's own (self) import time, from ``-X importtime`` output."""
    import statistics  # here, so that children importing this module do not pay for it
    numpy_s, memtile_s = [], []
    for text in stderr_texts:
        numpy_us = memtile_us = 0
        for line in text.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, module = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # the header line
            module = module.strip()
            if module == "numpy":
                numpy_us = int(cumulative_us)
            if module == "memtile" or module.startswith("memtile."):
                memtile_us += int(self_us)
        numpy_s.append(numpy_us / 1e6)
        memtile_s.append(memtile_us / 1e6)
    return {"import.numpy_s": statistics.median(numpy_s),
            "import.memtile_s": statistics.median(memtile_s)}
