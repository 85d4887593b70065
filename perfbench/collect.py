#!/usr/bin/env python3
"""Repeat run.py over seeds and collect the results into one BENCH file.

    python3 perfbench/collect.py --out perfbench/BENCH_baseline.json
    python3 perfbench/collect.py --workloads cli-cold --runs 5 --out cli-cold.json

For each workload: ``--runs`` untraced runs with seeds 1..runs, giving each
end-to-end metric's median, quartiles and spread (quartile distance over
median, compared with the bound in BENCHMARK.json), then two traced runs
with seed 1 for the per-layer metrics and the schedule rows.

The same runs make the self-test: the deterministic results (the
schedule-quality metrics, and every count among the per-layer metrics) must
be identical between the two traced runs, and the quality metrics between
the untraced and the traced runs of seed 1. The exit code is 1 if any run
failed, was incorrect, or the self-test found a difference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
QUALITY = ("total_io_elems", "pred_macs_per_s_gmean", "io_lb_ratio_gmean")
# Schedule rows are stored one per line, so that two BENCH files diff row by row.
ROW_COLUMNS = ("device", "problem", "order", "tile", "io_elems", "pred_macs_per_s", "lb_ratio")


def run(workload: str, seed: int, seconds: int, trace: int, scratch: Path) -> dict:
    out = scratch / f"{workload}-{seed}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    record = json.loads(out.read_text(encoding="utf-8"))
    record["result"] = json.loads(proc.stdout.splitlines()[-1])
    return record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def deterministic(traced: dict) -> dict:
    return {name: m["value"] for name, m in traced["metrics"].items()
            if m["unit"] in ("count", "bytes") or name in ("io_model.padded_share", "sim.useful_ratio")}


def collect(workload: str, runs: int, seconds: int, bounds: dict, scratch: Path) -> dict:
    untraced = [run(workload, seed, seconds, 0, scratch) for seed in range(1, runs + 1)]
    traced = [run(workload, 1, seconds, 1, scratch) for _ in range(2)]
    metrics = {}
    for name in untraced[0]["metrics"]:
        stats = spread([r["metrics"][name]["value"] for r in untraced])
        metrics[name] = {"unit": untraced[0]["metrics"][name]["unit"], **stats,
                         "bound": bounds.get(name)}
    problems = [f"seed {r['seed']} trace {r['trace']}: {r['result']}"
                for r in untraced + traced if not r["result"]["correct"]]
    if deterministic(traced[0]) != deterministic(traced[1]):
        problems.append(f"traced runs differ: {deterministic(traced[0])} vs {deterministic(traced[1])}")
    quality_untraced = {q: untraced[0]["metrics"][q]["value"] for q in QUALITY}
    for r in traced:
        if r["quality"] != quality_untraced:
            problems.append(f"traced quality {r['quality']} != untraced {quality_untraced}")
    return {
        "runs": runs, "seeds": list(range(1, runs + 1)), "seconds": seconds,
        "passes": [r["passes"] for r in untraced],
        "end_to_end": metrics,
        "per_layer": {name: m for name, m in traced[0]["metrics"].items()},
        "rows": [" | ".join(str(r[c]) for c in ROW_COLUMNS) for r in traced[0]["rows"]],
        "self_test": {"ok": not problems, "problems": problems,
                      "deterministic": deterministic(traced[0]), "quality": quality_untraced},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="collect-", dir=tmp_root))
    result = {"workloads": {}}
    ok = True
    try:
        for workload in args.workloads.split(","):
            entry = collect(workload, args.runs, args.seconds, bounds, scratch)
            result["workloads"][workload] = entry
            ok &= entry["self_test"]["ok"]
            print(f"{workload}: self-test {'ok' if entry['self_test']['ok'] else 'FAILED'}")
            for problem in entry["self_test"]["problems"]:
                print(f"  {problem}")
            for name, m in entry["end_to_end"].items():
                third = f"{m['spread'] / m['bound']:.2f} of bound" if m["bound"] else ""
                print(f"  {name:24s} median {m['median']:<14.6g} {m['unit']:6s} "
                      f"spread {m['spread']:.4f} {third}")
        host = json.loads((scratch / f"{workload}-1-0.json").read_text(encoding="utf-8"))["host"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    result = {"host": host, "row_columns": " | ".join(ROW_COLUMNS), "benchmark": bench, **result}
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
