#!/usr/bin/env python3
"""memtile benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; memtile is imported from ``src`` (nothing is
installed). Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--out FILE`` also writes the whole record
(host, metrics, schedule rows) as JSON.

Workloads, metrics and checks are described in perfbench/README.md; each run
repeats whole passes over its seeded inputs until ``--seconds`` of measured
time (the operations, not the checks) have passed, with at least one pass.

``--trace 1`` instead makes one untraced and one traced pass over the same
inputs, interleaved group by group, and reports per-layer metrics from spans recorded around memtile's
public functions (see ``tracer.py``), the tracing overhead, and one row per
chosen schedule. The schedule-quality results of the two passes must agree.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import csv
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as ref
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7  # set-up interpreters of a traced run, for the import metrics
CHILD_TIMEOUT_S = 60

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_share": "share",
    "total_io_elems": "elems",
    "pred_macs_per_s_gmean": "MAC/s",
    "io_lb_ratio_gmean": "ratio",
}
LAYER_UNITS = {
    "import.numpy_s": "s",
    "import.memtile_s": "s",
    "hardware.resolve_s": "s",
    "hardware.resolve_calls": "count",
    "benchmarks.load_s": "s",
    "benchmarks.layers": "count",
    "cli.self_s": "s",
    "tiling.derive_s": "s",
    "tiling.calls": "count",
    "io_model.select_s": "s",
    "io_model.count_s": "s",
    "io_model.select_calls": "count",
    "io_model.padded_share": "share",
    "sim.count_s": "s",
    "sim.calls": "count",
    "sim.blocks": "count",
    "sim.ns_per_block": "ns",
    "sim.useful_ratio": "ratio",
    "emit.descriptor_s": "s",
    "emit.json_s": "s",
    "emit.kernel_s": "s",
    "emit.descriptor_bytes": "bytes",
    "emit.kernel_bytes": "bytes",
    "trace.overhead_share": "share",
}

# Fresh-interpreter set-up: import memtile, load the profiles and tables.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import memtile
for name in filter(None, sys.argv[1].split(",")):
    memtile.fixture_hardware(name)
for name in filter(None, sys.argv[2].split(",")):
    memtile.load_benchmark(name)
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Pass:
    """Outcome of one pass over a workload's inputs."""

    keep_rows: bool = True  # only the first pass keeps them, so memory does not grow with speed
    traced: bool = False  # run under the benchmark's span wrappers
    busy_s: float = 0.0  # measured time: the operations only, checks excluded
    ops: int = 0
    failed: int = 0
    latencies: array.array = field(default_factory=lambda: array.array("d"))
    rows: list[dict] = field(default_factory=list)  # one per chosen schedule
    failures: list[str] = field(default_factory=list)
    peak_rss_kib: int = 0  # cli-cold: the largest child
    spans: tracer.Tracer | None = None  # traced in-process pass
    summaries: list[dict] = field(default_factory=list)  # traced cli-cold pass: one per child
    import_stderr: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.traced:
            self.spans = tracer.Tracer()

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(reason)

    def add_rows(self, rows: list[dict]) -> None:
        if self.keep_rows:
            self.rows.extend(rows)

    def layers(self) -> dict:
        """Per-layer totals of a traced pass: from the CLI children's
        summaries, or from the spans recorded in this process."""
        return tracer.merge(self.summaries) if self.summaries else self.spans.summary()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], scratch: Path) -> tuple[float, int, int, str, str]:
    """Run one process to completion; return (seconds, exit code, max RSS KiB,
    stdout, stderr). The clock covers process start to exit."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (elapsed, proc.returncode, usage.ru_maxrss, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"))


def measure_setup(devices: tuple, tables: tuple, scratch: Path, repeats: int,
                  importtime: bool = False) -> tuple[list[float], list[str]]:
    flags = ["-X", "importtime"] if importtime else []
    argv = [sys.executable, *flags, "-c", SETUP_CODE, ",".join(devices), ",".join(tables)]
    times, stderr = [], []
    for _ in range(repeats):
        _, code, _, out, err = run_child(argv, scratch)
        if code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}: {err.strip()[-500:]}")
        times.append(float(out))
        stderr.append(err)
    return times, stderr


def quality(rows: list[dict]) -> dict:
    if not rows:  # every operation failed; the run is reported incorrect
        return dict.fromkeys(("total_io_elems", "pred_macs_per_s_gmean", "io_lb_ratio_gmean"), 0)
    return {
        "total_io_elems": sum(r["io_elems"] for r in rows),
        "pred_macs_per_s_gmean": ref.geomean([r["pred_macs_per_s"] for r in rows]),
        "io_lb_ratio_gmean": ref.geomean([r["lb_ratio"] for r in rows]),
    }


def schedule_row(workload: str, device: dict, table: str, layer_id: int, dims: tuple,
                 order: str, tile: tuple, io_elems: int, pred: float) -> dict:
    return {"workload": workload, "device": device["name"], "problem": f"{table} layer {layer_id}",
            "order": order, "tile": "x".join(map(str, tile)), "io_elems": io_elems,
            "pred_macs_per_s": pred,
            "lb_ratio": io_elems / ref.lower_bound(dims, device["local_memory_elems"])}


def row_key(row: dict) -> tuple:
    """Device, table, layer number: a pass's rows in an order the seed does not change."""
    table, _, layer_id = row["problem"].split()
    return row["device"], table, int(layer_id)


def load_expected_sweep() -> dict:
    raw = json.loads((HERE / "expected_sweep.json").read_text(encoding="utf-8"))
    columns = raw["columns"]
    return {tuple(cell.split(" x ")): [dict(zip(columns, row)) for row in rows]
            for cell, rows in raw["cells"].items()}


def check_sweep_csv(text: str, expected: list[dict], device: dict, table: str, workload: str,
                    result: Pass) -> list[dict]:
    """Compare sweep CSV rows with the oracle-generated expected rows; record
    failures in ``result`` and return the schedule rows that passed."""
    got = {int(r["layer_id"]): r for r in csv.DictReader(io.StringIO(text))}
    rows = []
    for want in expected:
        name = f"{device['name']} {table} layer {want['layer_id']}"
        row = got.get(want["layer_id"])
        if row is None:
            result.fail(1, f"{name}: missing from sweep output")
            continue
        fields = ("M", "K", "N", "m", "k", "n", "io_analytic", "io_simulated")
        actual = {"order": row["order"], **{f: int(row[f]) for f in fields}}
        if any(actual[f] != want[f] for f in actual) or (
                want["divisible"] and actual["io_analytic"] != actual["io_simulated"]):
            result.fail(1, f"{name}: got {actual}, expected {want}")
            continue
        dims = (want["M"], want["K"], want["N"])
        rows.append(schedule_row(
            workload, device, table, want["layer_id"], dims, actual["order"],
            (actual["m"], actual["k"], actual["n"]), actual["io_simulated"],
            float(row["pred_throughput"])))
    return rows


# --- workloads --------------------------------------------------------------
#
# A workload's pass is a list of groups, run in order by ``run_group``. Set-up
# samples are taken between groups, and a traced run interleaves untraced and
# traced groups, so that both see the same phases of a host whose speed drifts.

class Sweep:
    """In-process ``memtile sweep`` over the bundled device x table cells; a
    group is one cell."""

    tables = ("mlperf-tiny", "dlmc")
    devices = ref.DEVICES
    setup_samples_per_group = 3
    pass_is_operation = True  # latency is the time of the whole batch

    def __init__(self, seed: int, scratch: Path) -> None:
        self.expected = load_expected_sweep()
        self.groups = sorted(self.expected)
        random.Random(seed).shuffle(self.groups)
        self.device = {d: ref.load_device(SRC, d) for d in self.devices}

    def run_group(self, index: int, result: Pass) -> None:
        import memtile.cli  # main is looked up on each call, so a traced group sees the wrapper
        device, table = self.groups[index]
        expected = self.expected[(device, table)]
        out = io.StringIO()
        with result.spans or contextlib.nullcontext(), contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = memtile.cli.main(["sweep", "--hw", device, "--fixture", table])
            except Exception as exc:  # a failed operation, not a failed benchmark
                code = repr(exc)
            result.busy_s += time.perf_counter() - start
        result.ops += len(expected)
        if code != 0:
            result.fail(len(expected), f"sweep {device} {table}: {code}")
            return
        result.add_rows(check_sweep_csv(out.getvalue(), expected, self.device[device], table,
                                        "sweep", result))


class CliCold:
    """Fresh-process CLI invocations, one at a time; a group is one cycle of
    the eight commands."""

    tables = ("mlperf-tiny",)
    devices = ("cortex-m4-fp32", "cortex-a72")
    setup_samples_per_group = 1
    pass_is_operation = False
    groups = range(13)  # 104 invocations: >= 10 latency samples beyond p90

    def __init__(self, seed: int, scratch: Path) -> None:
        rng = random.Random(seed)
        self.scratch = scratch
        self.fp32 = ref.load_device(SRC, "cortex-m4-fp32")
        self.a72 = ref.load_device(SRC, "cortex-a72")
        t = ref.square_tile(self.fp32["reuse_registers"])
        self.tile = (t, t, t)
        self.div = tuple(t * rng.randint(2, 6) for _ in range(3))
        self.ragged = tuple(t * rng.randint(2, 6) - rng.randint(1, t - 1) for _ in range(3))
        self.sel_tile = (rng.randint(2, 4), rng.randint(1, 3), rng.randint(2, 4))
        self.sel = tuple(x * rng.randint(2, 8) for x in self.sel_tile)
        self.sim_order = rng.choice(ref.ORDERS)
        self.roof = (rng.randint(1, 12), rng.randint(1, 12))
        self.kernel_path = scratch / "kernel.c"
        self.expected_sweep = load_expected_sweep()[("cortex-a72", "mlperf-tiny")]
        s = lambda dims: [str(x) for x in dims]
        hw = ["--hw", "cortex-m4-fp32"]
        self.cycle = [
            ("derive", ["derive", *hw, *s(self.div)]),
            ("derive-pad", ["derive", *hw, *s(self.ragged), "--pad", "--format", "json"]),
            ("derive-simulate", ["derive", *hw, *s(self.ragged), "--simulate", "--format", "json"]),
            ("select", ["select", *hw, *s(self.sel), "-m", str(self.sel_tile[0]),
                        "-k", str(self.sel_tile[1]), "-n", str(self.sel_tile[2])]),
            ("simulate", ["simulate", *s(self.ragged), "-m", str(t), "-k", str(t), "-n", str(t),
                          "--order", self.sim_order, "--format", "json"]),
            ("roofline", ["roofline", "--hw", "cortex-a72", "-m", str(self.roof[0]),
                          "-n", str(self.roof[1])]),
            ("emit", ["emit", *hw, *s(self.div), "--out", str(self.kernel_path)]),
            ("sweep", ["sweep", "--hw", "cortex-a72", "--fixture", "mlperf-tiny"]),
        ]

    def run_group(self, index: int, result: Pass) -> None:
        for kind, argv in self.cycle:
            if result.traced:
                summary_file = self.scratch / "spans.json"
                cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"),
                       str(summary_file), *argv]
            else:
                cmd = [sys.executable, "-m", "memtile.cli", *argv]
            self.kernel_path.unlink(missing_ok=True)
            elapsed, code, rss_kib, out, err = run_child(cmd, self.scratch)
            result.busy_s += elapsed
            result.latencies.append(elapsed)
            result.ops += 1
            result.peak_rss_kib = max(result.peak_rss_kib, rss_kib)
            if result.traced:
                result.import_stderr.append(err)
                if code == 0:
                    result.summaries.append(json.loads(summary_file.read_text(encoding="utf-8")))
            if code != 0:
                result.fail(1, f"{kind}: exit code {code}: {err.strip()[-300:]}")
                continue
            try:
                self._check(kind, out, result, first_cycle=index == 0)
            except (ValueError, KeyError, IndexError) as exc:
                result.fail(1, f"{kind}: unreadable output ({exc!r})")

    @staticmethod
    def _expect(dims: tuple, tile: tuple) -> tuple[str, int]:
        cls = ref.best_class(dims, tile, False)
        return ref.CANONICAL_ORDER[cls], ref.exact_io(dims, tile, cls, False)

    def _check(self, kind: str, out: str, result: Pass, first_cycle: bool) -> None:
        t = self.tile
        if kind == "sweep":
            rows = check_sweep_csv(out, self.expected_sweep, self.a72, "mlperf-tiny", "cli-cold",
                                   result)
            if first_cycle:
                result.add_rows(rows)
            return
        if kind == "roofline":
            m, n = self.roof
            ai = float(Fraction(m * n, m + n))
            ridge = self.a72["cores"] * self.a72["peak_flops_per_core"] / self.a72["ext_bandwidth_elems_per_s"]
            want = "compute-bound" if ai >= ridge else "bandwidth-bound"
            if not out.rstrip().endswith(f"-> {want}"):
                result.fail(1, f"roofline: expected {want} in {out!r}")
            return
        if kind == "simulate":
            got = json.loads(out)
            cls = ref.order_class(self.sim_order)
            blocks = 1
            for d, x in zip(self.ragged, t):
                blocks *= -(-d // x)
            want = (ref.exact_io(self.ragged, t, cls, False), blocks)
            if (got["total_elems"], got["blocks_executed"]) != want:
                result.fail(1, f"simulate: got {got}, expected total and blocks {want}")
            return
        if kind in ("derive", "select"):
            lines = dict(line.split(":", 1) for line in out.splitlines() if ":" in line)
            order = lines["order"].split()[0]
            tile = tuple(int(x.split("=")[1]) for x in lines["tile"].split()[:3])
            total = int(lines["io"].split("=")[1].split()[0])
        else:
            descriptor = json.loads(out)
            order, total = descriptor["order"], descriptor["total_io_elems"]
            tile = (descriptor["m"], descriptor["k"], descriptor["n"])
        if kind in ("derive", "emit"):
            want = (t, *self._expect(self.div, t))
        elif kind == "derive-pad":
            want = (t, *self._expect(ref.padded(self.ragged, t), t))
        elif kind == "derive-simulate":
            want = (t, *self._expect(self.ragged, t))
        else:
            want = (self.sel_tile, *self._expect(self.sel, self.sel_tile))
        if (tile, order, total) != want:
            result.fail(1, f"{kind}: got tile {tile} order {order} io {total}, expected {want}")
        elif kind == "emit" and f"mema_outer_{t[0]}x{t[1]}x{t[2]}" not in \
                self.kernel_path.read_text(encoding="utf-8"):
            result.fail(1, "emit: kernel file lacks the expected function")


WORKLOADS = {"sweep": Sweep, "cli-cold": CliCold}


# --- measurement --------------------------------------------------------------

def run_pass(workload, keep_rows: bool, between) -> Pass:
    """One untraced pass; ``between()`` runs before each group, outside the measured time."""
    result = Pass(keep_rows)
    for index in range(len(workload.groups)):
        between()
        workload.run_group(index, result)
    if workload.pass_is_operation:
        result.latencies.append(result.busy_s)
    result.rows.sort(key=row_key)
    return result


def paired_passes(workload) -> tuple[Pass, Pass, float]:
    """One untraced and one traced pass, interleaved group by group, and the
    tracing overhead: the median over groups of traced / untraced time - 1.
    The side that goes first alternates, so host drift does not favour either
    side, and the median is not set by the one group that ran in a slow phase."""
    untraced, traced = Pass(), Pass(traced=True)
    overheads = []
    for index in range(len(workload.groups)):
        spent = {}
        for result in (untraced, traced) if index % 2 == 0 else (traced, untraced):
            before = result.busy_s
            workload.run_group(index, result)
            spent[result.traced] = result.busy_s - before
        overheads.append(spent[True] / spent[False] - 1)
    for result in (untraced, traced):
        result.rows.sort(key=row_key)
    return untraced, traced, statistics.median(overheads)


def end_to_end(workload, passes: list[Pass], setup_times: list[float]) -> dict:
    ops = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    busy = sum(p.busy_s for p in passes)
    # Every pass repeats the same operations in the same order; an operation's
    # latency is its mean over the passes. A run can straddle phases in which
    # the host runs 1.5x slower; over raw samples the median would jump between
    # the two speeds, while the mean of each input moves in proportion.
    latencies = [statistics.fmean(times) for times in zip(*(p.latencies for p in passes))]
    if len(latencies) > 1:
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    else:  # sweep: one sample, the batch
        deciles = latencies * 9
    if isinstance(workload, CliCold):
        rss_kib = max(p.peak_rss_kib for p in passes)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops / busy,
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "peak_rss_mib": rss_kib / 1024,
        "ok_share": (ops - failed) / ops,
        **quality(passes[0].rows),
    }


def per_layer(traced: Pass, overhead: float, import_stderr: list[str]) -> dict:
    layers = traced.layers()
    times, counts = layers["times"], layers["counts"]
    selects, sims, blocks = counts["io_model.select_calls"], counts["sim.calls"], counts["sim.blocks"]
    return {
        **tracer.import_times(import_stderr),
        "hardware.resolve_s": times["hardware.resolve_s"],
        "hardware.resolve_calls": counts["hardware.resolve_calls"],
        "benchmarks.load_s": times["benchmarks.load_s"],
        "benchmarks.layers": counts.get("benchmarks.layers", 0),
        "cli.self_s": times["cli.self_s"],
        "tiling.derive_s": times["tiling.derive_s"],
        "tiling.calls": counts["tiling.calls"],
        "io_model.select_s": times["io_model.select_s"],
        "io_model.count_s": times["io_model.count_s"],
        "io_model.select_calls": selects,
        "io_model.padded_share": counts["io_model.pad_calls"] / selects if selects else 0.0,
        "sim.count_s": times["sim.count_s"],
        "sim.calls": sims,
        "sim.blocks": blocks,
        "sim.ns_per_block": times["sim.count_s"] / blocks * 1e9 if blocks else 0.0,
        "sim.useful_ratio": counts["sim.distinct"] / sims if sims else 0.0,
        "emit.descriptor_s": times["emit.descriptor_s"],
        "emit.json_s": times["emit.json_s"],
        "emit.kernel_s": times["emit.kernel_s"],
        "emit.descriptor_bytes": counts.get("emit.descriptor_bytes", 0),
        "emit.kernel_bytes": counts.get("emit.kernel_bytes", 0),
        "trace.overhead_share": overhead,
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text(encoding="utf-8").strip()
    if not text.startswith("ref: "):
        return text
    ref_name = text[5:]
    loose = ROOT / ".git" / ref_name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    return None


def host_info() -> dict:
    import numpy
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": git_commit()}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record here as JSON")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "memtile" / "__init__.py").is_file():
        print(f"error: memtile sources not found under {SRC}; run from a memtile checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import memtile
    if Path(memtile.__file__).resolve().parent != (SRC / "memtile").resolve():
        print(f"error: imported memtile from {memtile.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        cls = WORKLOADS[args.workload]
        workload = cls(args.seed, scratch)
        if args.trace:
            _, setup_stderr = measure_setup(cls.devices, cls.tables, scratch, SETUP_REPEATS,
                                            importtime=True)
            untraced, traced, overhead = paired_passes(workload)
            passes = [untraced, traced]
            imports = traced.import_stderr or setup_stderr
            metrics = per_layer(traced, overhead, imports)
            units = LAYER_UNITS
            agree = untraced.rows == traced.rows
            if not agree:
                untraced.fail(0, "traced and untraced passes chose different schedules")
        else:
            # Set-up is sampled between the groups of every pass and once after
            # them, so that its median does not rest on one moment of a host
            # whose speed drifts.
            setup_times = []

            def sample_setup() -> None:
                setup_times.extend(measure_setup(cls.devices, cls.tables, scratch,
                                                 cls.setup_samples_per_group)[0])

            passes = []
            while not passes or sum(p.busy_s for p in passes) < args.seconds:
                passes.append(run_pass(workload, not passes, sample_setup))
            sample_setup()
            metrics = end_to_end(workload, passes, setup_times)
            units = E2E_UNITS
            agree = True
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "host": host_info(),
        "measured_s": sum(p.busy_s for p in passes),
        "quality": quality(passes[-1].rows if args.trace else passes[0].rows),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if args.trace:
        layers = traced.layers()
        record["layer_counts"] = layers["counts"]
        record["spans"] = layers.get("spans")
        record["rows"] = traced.rows
    for reason in (r for p in passes for r in p.failures):
        print(f"failure: {reason}", file=sys.stderr)
    print(f"host: {json.dumps(record['host'])}")
    print(f"run: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} attempted={attempted} failed={failed} "
          f"measured_s={record['measured_s']:.3f}")
    for row in record.get("rows", []):
        print(f"row: {json.dumps(row)}")
    for name, m in record["metrics"].items():
        print(f"metric: {name} {m['value']!r} {m['unit']}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0 and agree, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
