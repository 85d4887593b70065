#!/usr/bin/env python3
"""Regenerate expected_sweep.json, the expected sweep rows, from the oracle.

    python3 perfbench/make_expected.py

For every sweep cell the expected order is the class with the fewest
elements moved on the problem the sweep selects on (padded up to tile
multiples when ragged), counted by memtile's access-counting simulator
``simulate_schedule`` with ties broken K-first, M-first, N-first. The
expected ``io_simulated`` is the simulator's count on the real problem and
``io_analytic`` its count on the padded one. Every count is also compared
with the benchmark's own exact formulas in reference.py. Takes a few
minutes, almost all of it cortex-m4-fp32 x dlmc.
"""

import json
import sys
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TABLES = ("mlperf-tiny", "dlmc")
# Left out of the sweep workload: about 300 s per pass today (see README.md).
EXCLUDED = {("cortex-m4-q15", "dlmc")}
COLUMNS = ["layer_id", "M", "K", "N", "divisible", "order", "m", "k", "n",
           "io_analytic", "io_simulated"]


def main() -> int:
    sys.path.insert(0, str(SRC))
    import memtile as mt

    cells = {}
    for device in ref.DEVICES:
        t = ref.square_tile(ref.load_device(SRC, device)["reuse_registers"])
        tile = mt.TileShape(t, t, t)
        for table in TABLES:
            if (device, table) in EXCLUDED:
                continue
            rows = []
            for layer in sorted(mt.load_benchmark(table).layers, key=lambda l: l.layer_id):
                dims = (layer.M, layer.K, layer.N)
                basis = ref.padded(dims, (t, t, t))
                counted = {cls: mt.simulate_schedule(
                    mt.MMProblem(*basis), mt.Schedule(mt.LoopOrder.parse(ref.CANONICAL_ORDER[cls]), tile)
                ).total_elems for cls in ref.CLASS_PRIORITY}
                cls = min(ref.CLASS_PRIORITY, key=counted.get)
                order = ref.CANONICAL_ORDER[cls]
                exact = mt.simulate_schedule(
                    mt.MMProblem(*dims), mt.Schedule(mt.LoopOrder.parse(order), tile)).total_elems
                for c in ref.CLASS_PRIORITY:
                    assert counted[c] == ref.exact_io(basis, (t, t, t), c, False), (device, layer, c)
                assert exact == ref.exact_io(dims, (t, t, t), cls, False), (device, layer)
                rows.append([layer.layer_id, *dims, basis == dims, order, t, t, t,
                             counted[cls], exact])
            cells[f"{device} x {table}"] = rows
            print(f"{device} x {table}: {len(rows)} layers", flush=True)
    out = {"generated_by": "perfbench/make_expected.py", "columns": COLUMNS, "cells": cells}
    text = json.dumps(out, indent=None, separators=(",", ":"))
    (HERE / "expected_sweep.json").write_text(text.replace('],[', '],\n[') + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
