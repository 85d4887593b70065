"""Command-line front end: derive, select, simulate, sweep, roofline, emit.

Only ``simulate`` and ``sweep`` count accesses, so only they import the
simulator, and with it numpy; the other commands start without it. Likewise
only ``sweep`` and ``simulate --format csv`` write CSV, so only they import csv.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .benchmarks import load_benchmark
from .emit import element_type, emit_descriptor, emit_kernel_source
from .hardware import HardwareSpec, attainable_throughput, resolve_hardware, ridge_point
from .io_model import (
    DivisibilityError,
    IOReport,
    LoopOrder,
    MMProblem,
    Schedule,
    all_class_io,
    pad_to_tiles,
    select_schedule,
)
from .tiling import TileShape, arithmetic_intensity_of_tile, derive_square_tile

_CSV_COLUMNS = ["layer_id", "M", "K", "N", "order", "m", "k", "n",
                "io_analytic", "io_simulated", "pred_throughput"]


def _tile(hw: HardwareSpec, m: int | None = None, k: int | None = None,
          n: int | None = None) -> TileShape:
    """The explicit ``m x k x n`` tile (all three or none), else the largest square tile."""
    if (m, k, n) == (None, None, None):
        t = derive_square_tile(hw.reuse_registers)
        return TileShape(t, t, t)
    if None in (m, k, n):
        raise ValueError("give all of -m, -k, -n or none")
    return TileShape(m, k, n)


def _choose(problem: MMProblem, tile: TileShape, *, c_zero: bool, pad: bool = False,
            simulate: bool = False, order: LoopOrder | None = None,
            ) -> tuple[Schedule, IOReport, dict, str]:
    """Pick a schedule (or take ``order``) and its IO under the count policy.

    Returns (schedule, io report, per-class totals, note). The counts are
    exact for every problem; a ragged one still needs a policy, choosing
    between its exact counts (``simulate``) and a padded estimate (``pad``).
    """
    basis, note = problem, ""
    if problem.M % tile.m or problem.K % tile.k or problem.N % tile.n:
        if simulate:
            note = "exact ceiling-count IO (ragged edge tiles clamped)"
        elif pad:
            basis = pad_to_tiles(problem, tile)
            note = f"padded to {basis.M}x{basis.K}x{basis.N} for closed-form IO"
        else:
            raise DivisibilityError(
                f"tile {tile.key()} does not divide {problem.M}x{problem.K}x{problem.N}; "
                "pass --pad for padded closed-form IO or --simulate for exact ragged counts")
    if order is None:
        schedule = select_schedule(basis, tile, c_zero=c_zero)
    else:
        schedule = Schedule(order, tile)
    reports = all_class_io(basis, tile, c_zero=c_zero)
    per_class = {cls: rep.total_elems for cls, rep in reports.items()}
    return schedule, reports[schedule.inner_class], per_class, note


def _write(path: str, text: str) -> None:
    """Write an ``--out`` artifact as UTF-8."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _print_note(note: str, beside_json: bool) -> None:
    """Print the count note as the last line of text output, or on stderr
    beside JSON, which must stay parseable: padded counts never pass for exact."""
    if note and beside_json:
        print(f"note: {note}", file=sys.stderr)
    elif note:
        print(f"note:    {note}")


def cmd_schedule(args) -> int:
    """derive and select: one schedule, on the given tile or else the square one."""
    hw = resolve_hardware(args.hw)
    problem = MMProblem(args.M, args.K, args.N, hw.element_bytes)
    tile = _tile(hw, args.m, args.k, args.n)
    schedule, io_rep, per_class, note = _choose(
        problem, tile, c_zero=args.c_zero, pad=args.pad, simulate=args.simulate)
    desc = emit_descriptor(problem, schedule, io_rep, hw, per_class)
    if args.out:
        _write(args.out, desc.to_json())
    if args.format == "json":
        print(desc.to_json(), end="")
        _print_note(note, beside_json=True)
        return 0
    ai = problem.macs / io_rep.total_elems
    ridge = ridge_point(hw)
    bound = "compute-bound" if ai >= ridge else "bandwidth-bound"
    print(f"problem: M={problem.M} K={problem.K} N={problem.N} "
          f"({problem.element_bytes} B/elem)")
    print(f"tile:    m={tile.m} k={tile.k} n={tile.n} "
          f"(register footprint {tile.register_footprint}/{hw.reuse_registers})")
    print(f"order:   {schedule.order.value} ({schedule.inner_class.value}, "
          f"stationary {schedule.stationary} tiles)")
    print(f"io:      {io_rep.streaming_elems} streamed + {io_rep.stationary_elems} stationary "
          f"= {io_rep.total_elems} elems ({io_rep.total_bytes} bytes)")
    per = ", ".join(f"{cls.value} {total}" for cls, total in per_class.items())
    print(f"classes: {per}")
    print(f"roofline: intensity {ai:.3f} MACs/elem, ridge {ridge:.3f}, "
          f"predicted {desc.predicted_throughput_macs_per_s:.3e} MACs/s ({bound})")
    _print_note(note, beside_json=False)
    return 0


def cmd_simulate(args) -> int:
    from .sim import simulate_schedule

    problem = MMProblem(args.M, args.K, args.N)
    schedule = Schedule(LoopOrder.parse(args.order), TileShape(args.m, args.k, args.n))
    report = simulate_schedule(problem, schedule, c_zero=args.c_zero)
    payload = {"M": problem.M, "K": problem.K, "N": problem.N,
               "order": schedule.order.value, **report.to_dict()}
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(payload))
        writer.writeheader()
        writer.writerow(payload)
        text = buf.getvalue()
    else:
        text = "".join(f"{key}: {value}\n" for key, value in payload.items())
    if args.out:
        _write(args.out, text)
    print(text, end="")
    return 0


def _sweep_rows(hw: HardwareSpec, fixture, c_zero: bool) -> list[dict]:
    from .sim import simulate_schedule

    tile = _tile(hw)
    rows = []
    for layer in sorted(fixture.layers, key=lambda l: l.layer_id):
        problem = MMProblem(layer.M, layer.K, layer.N, hw.element_bytes)
        # Order is chosen from the closed forms (on the padded problem when
        # ragged); the simulated column is always the exact ragged count.
        schedule, analytic, _, _ = _choose(problem, tile, c_zero=c_zero, pad=True)
        simulated = simulate_schedule(problem, schedule, c_zero=c_zero)
        pred = attainable_throughput(hw, problem.macs / simulated.total_elems)
        rows.append({
            "layer_id": layer.layer_id,
            "M": layer.M, "K": layer.K, "N": layer.N,
            "order": schedule.order.value,
            "m": tile.m, "k": tile.k, "n": tile.n,
            "io_analytic": analytic.total_elems,
            "io_simulated": simulated.total_elems,
            "pred_throughput": pred,
        })
    return rows


def cmd_sweep(args) -> int:
    hw = resolve_hardware(args.hw)
    fixture = load_benchmark(args.fixture)
    rows = _sweep_rows(hw, fixture, args.c_zero)
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    elif args.format == "text":
        widths = {col: max(len(col), *(len(str(r[col])) for r in rows)) if rows else len(col)
                  for col in _CSV_COLUMNS}
        lines = ["  ".join(col.ljust(widths[col]) for col in _CSV_COLUMNS)]
        lines += ["  ".join(str(r[col]).ljust(widths[col]) for col in _CSV_COLUMNS) for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        _write(args.out, text)
    print(text, end="")
    return 0


def cmd_roofline(args) -> int:
    hw = resolve_hardware(args.hw)
    ai = arithmetic_intensity_of_tile(args.m, args.n)
    ridge = ridge_point(hw)
    bound = "compute-bound" if ai >= ridge else "bandwidth-bound"
    payload = {
        "hardware": hw.name,
        "tile_m": args.m,
        "tile_n": args.n,
        "arithmetic_intensity": ai,
        "ridge_point": ridge,
        "attainable_throughput_macs_per_s": attainable_throughput(hw, ai),
        "classification": bound,
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = (f"tile {args.m}x{args.n}: intensity {ai:.4f} MACs/elem\n"
                f"{hw.name}: ridge point {ridge:.4f} MACs/elem\n"
                f"attainable {payload['attainable_throughput_macs_per_s']:.3e} MACs/s "
                f"-> {bound}\n")
    if args.out:
        _write(args.out, text)
    print(text, end="")
    return 0


def cmd_emit(args) -> int:
    hw = resolve_hardware(args.hw)
    kernel_type = element_type(hw.element_bytes)
    problem = MMProblem(args.M, args.K, args.N, hw.element_bytes)
    tile = _tile(hw, args.m, args.k, args.n)
    order = LoopOrder.parse(args.order) if args.order else None
    schedule, io_rep, per_class, note = _choose(
        problem, tile, c_zero=args.c_zero, pad=args.pad, simulate=args.simulate, order=order)
    source = emit_kernel_source(schedule, kernel_type)
    if args.out:
        _write(args.out, source)
    else:
        print(source, end="")
    desc = emit_descriptor(problem, schedule, io_rep, hw, per_class)
    if args.descriptor_out:
        _write(args.descriptor_out, desc.to_json())
    if args.out:
        # kernel went to a file; the descriptor is the stdout artifact
        print(desc.to_json(), end="")
    _print_note(note, beside_json=True)
    return 0


_FLAGS = {
    "--hw": {"required": True, "metavar": "FILE|NAME",
             "help": "hardware descriptor JSON file, or a bundled fixture name"},
    "--out": {"metavar": "FILE", "help": "write the primary artifact here"},
    "--c-zero": {"action": "store_true", "dest": "c_zero",
                 "help": "treat C as initially zero: skip first-touch C loads"},
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def _add_count_policy(p: argparse.ArgumentParser) -> None:
    """--pad and --simulate: the two ways to count a ragged problem, so one at most."""
    policy = p.add_mutually_exclusive_group()
    policy.add_argument("--pad", action="store_true",
                        help="round dims up to tile multiples for closed-form IO")
    policy.add_argument("--simulate", action="store_true",
                        help="count ragged problems exactly, edge tiles clamped")


def _add_dims(p: argparse.ArgumentParser) -> None:
    for dim in ("M", "K", "N"):
        p.add_argument(dim, type=int)


def _add_tile(p: argparse.ArgumentParser, required: bool) -> None:
    for dim in ("-m", "-k", "-n"):
        p.add_argument(dim, type=int, required=required)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memtile",
        description="Derive, simulate and emit minimum-IO schedules for blocked "
                    "matrix multiplication.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive tile + schedule for a problem on a device")
    _add_dims(p)
    _add_flags(p, "--hw", "--out", "--c-zero")
    _add_count_policy(p)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_schedule, m=None, k=None, n=None)  # no tile: the square one

    p = sub.add_parser("select", help="select the loop order for an explicit tile")
    _add_dims(p)
    _add_tile(p, required=True)
    _add_flags(p, "--hw", "--out", "--c-zero")
    _add_count_policy(p)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="count external accesses for one schedule exactly")
    _add_dims(p)
    _add_tile(p, required=True)
    p.add_argument("--order", required=True,
                   help="block loop order, e.g. 'M->N->K' or 'MNK' (outer->inner)")
    _add_flags(p, "--out", "--c-zero")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run derivation over a benchmark layer table")
    p.add_argument("--fixture", required=True,
                   help="bundled benchmark name (mlperf-tiny, dlmc) or a CSV path")
    _add_flags(p, "--hw", "--out", "--c-zero")
    p.add_argument("--format", choices=("json", "csv", "text"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("roofline", help="classify a tile's intensity against the device ridge")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    _add_flags(p, "--hw", "--out")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_roofline)

    p = sub.add_parser("emit", help="generate kernel source and a schedule descriptor")
    _add_dims(p)
    _add_tile(p, required=False)
    p.add_argument("--order", help="force a loop order instead of selecting one")
    p.add_argument("--descriptor-out", metavar="FILE",
                   help="also write the descriptor JSON here")
    _add_flags(p, "--hw", "--out", "--c-zero")
    _add_count_policy(p)
    p.set_defaults(func=cmd_emit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
