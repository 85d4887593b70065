"""Command-line front end: derive, select, simulate, sweep, roofline, emit."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .benchmarks import load_benchmark
from .emit import ScheduleDescriptor, emit_descriptor, emit_kernel_source
from .hardware import HardwareSpec, attainable_throughput, resolve_hardware, ridge_point
from .io_model import (
    DivisibilityError,
    IOReport,
    LoopOrder,
    MMProblem,
    Schedule,
    all_class_io,
    io_for_class,
    pad_to_tiles,
    select_schedule,
)
from .sim import simulate_schedule
from .tiling import TileShape, arithmetic_intensity_of_tile, derive_square_tile

_CSV_COLUMNS = ["layer_id", "M", "K", "N", "order", "m", "k", "n",
                "io_analytic", "io_simulated", "pred_throughput"]


def _divisible(problem: MMProblem, tile: TileShape) -> bool:
    return not (problem.M % tile.m or problem.K % tile.k or problem.N % tile.n)


def _choose(problem: MMProblem, tile: TileShape, args,
            order: LoopOrder | None = None) -> tuple[Schedule, IOReport, dict, str]:
    """Pick a schedule (or take ``order``) and its IO under the --pad / --simulate policy.

    Returns (schedule, io report, per-class totals, note). The counts are
    exact for every problem; a ragged one still needs a flag, choosing
    between its exact counts (--simulate) and a padded estimate (--pad).
    """
    c_zero = args.c_zero
    basis, note = problem, ""
    if not _divisible(problem, tile):
        if args.simulate:
            note = "exact ceiling-count IO (ragged edge tiles clamped)"
        elif args.pad:
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


def _print_schedule(problem: MMProblem, tile: TileShape, schedule: Schedule,
                    io_rep: IOReport, per_class: dict, hw: HardwareSpec,
                    note: str, args) -> None:
    desc = emit_descriptor(problem, schedule, io_rep, hw, per_class)
    if args.out:
        Path(args.out).write_text(desc.to_json(), encoding="utf-8")
    if args.format == "json":
        print(desc.to_json(), end="")
        return
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
    if note:
        print(f"note:    {note}")


def cmd_derive(args) -> int:
    hw = resolve_hardware(args.hw)
    problem = MMProblem(args.M, args.K, args.N, hw.element_bytes)
    t = derive_square_tile(hw.reuse_registers)
    tile = TileShape(t, t, t)
    schedule, io_rep, per_class, note = _choose(problem, tile, args)
    _print_schedule(problem, tile, schedule, io_rep, per_class, hw, note, args)
    return 0


def cmd_select(args) -> int:
    hw = resolve_hardware(args.hw)
    problem = MMProblem(args.M, args.K, args.N, hw.element_bytes)
    tile = TileShape(args.m, args.k, args.n)
    schedule, io_rep, per_class, note = _choose(problem, tile, args)
    _print_schedule(problem, tile, schedule, io_rep, per_class, hw, note, args)
    return 0


def cmd_simulate(args) -> int:
    problem = MMProblem(args.M, args.K, args.N)
    schedule = Schedule(LoopOrder.parse(args.order), TileShape(args.m, args.k, args.n))
    report = simulate_schedule(problem, schedule, c_zero=args.c_zero)
    payload = {"M": problem.M, "K": problem.K, "N": problem.N,
               "order": schedule.order.value, **report.to_dict()}
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(payload))
        writer.writeheader()
        writer.writerow(payload)
        text = buf.getvalue()
    else:
        text = "".join(f"{key}: {value}\n" for key, value in payload.items())
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _sweep_rows(hw: HardwareSpec, fixture, args) -> list[dict]:
    t = derive_square_tile(hw.reuse_registers)
    tile = TileShape(t, t, t)
    rows = []
    for layer in sorted(fixture.layers, key=lambda l: l.layer_id):
        problem = MMProblem(layer.M, layer.K, layer.N, hw.element_bytes)
        # Order is chosen from the closed forms (on the padded problem when
        # ragged); the simulated column is always the exact ragged count.
        basis = problem if _divisible(problem, tile) else pad_to_tiles(problem, tile)
        schedule = select_schedule(basis, tile, c_zero=args.c_zero)
        analytic = io_for_class(basis, tile, schedule.inner_class, c_zero=args.c_zero)
        simulated = simulate_schedule(problem, schedule, c_zero=args.c_zero)
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
    rows = _sweep_rows(hw, fixture, args)
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    elif args.format == "text":
        widths = {col: max(len(col), *(len(str(r[col])) for r in rows)) if rows else len(col)
                  for col in _CSV_COLUMNS}
        lines = ["  ".join(col.ljust(widths[col]) for col in _CSV_COLUMNS)]
        lines += ["  ".join(str(r[col]).ljust(widths[col]) for col in _CSV_COLUMNS) for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
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
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_emit(args) -> int:
    hw = resolve_hardware(args.hw)
    problem = MMProblem(args.M, args.K, args.N, hw.element_bytes)
    if args.m or args.k or args.n:
        if not (args.m and args.k and args.n):
            raise ValueError("give all of -m, -k, -n or none")
        tile = TileShape(args.m, args.k, args.n)
    else:
        t = derive_square_tile(hw.reuse_registers)
        tile = TileShape(t, t, t)
    order = LoopOrder.parse(args.order) if args.order else None
    schedule, io_rep, per_class, note = _choose(problem, tile, args, order)
    element_type = "f32" if args.dtype == "f32" else "i16-q15-scalar"
    source = emit_kernel_source(schedule, element_type)
    if args.out:
        Path(args.out).write_text(source, encoding="utf-8")
    else:
        print(source, end="")
    desc = emit_descriptor(problem, schedule, io_rep, hw, per_class)
    if args.descriptor_out:
        Path(args.descriptor_out).write_text(desc.to_json(), encoding="utf-8")
    if args.out:
        # kernel went to a file; the descriptor is the stdout artifact
        print(desc.to_json(), end="")
        if note:
            print(f"note: {note}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memtile",
        description="Derive, simulate and emit minimum-IO schedules for blocked "
                    "matrix multiplication.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hw", metavar="FILE|NAME",
                        help="hardware descriptor JSON file, or a bundled fixture name")
    common.add_argument("--out", metavar="FILE", help="write the primary artifact here")
    common.add_argument("--format", choices=("json", "csv", "text"), default=None)
    common.add_argument("--pad", action="store_true",
                        help="round dims up to tile multiples for closed-form IO")
    common.add_argument("--c-zero", action="store_true", dest="c_zero",
                        help="treat C as initially zero: skip first-touch C loads")
    common.add_argument("--simulate", action="store_true",
                        help="count ragged problems exactly, edge tiles clamped")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", parents=[common],
                       help="derive tile + schedule for a problem on a device")
    p.add_argument("M", type=int)
    p.add_argument("K", type=int)
    p.add_argument("N", type=int)
    p.set_defaults(func=cmd_derive, format_default="text")

    p = sub.add_parser("select", parents=[common],
                       help="select the loop order for an explicit tile")
    p.add_argument("M", type=int)
    p.add_argument("K", type=int)
    p.add_argument("N", type=int)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_select, format_default="text")

    p = sub.add_parser("simulate", parents=[common],
                       help="count external accesses for one schedule exactly")
    p.add_argument("M", type=int)
    p.add_argument("K", type=int)
    p.add_argument("N", type=int)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--order", required=True,
                   help="block loop order, e.g. 'M->N->K' or 'MNK' (outer->inner)")
    p.set_defaults(func=cmd_simulate, format_default="text")

    p = sub.add_parser("sweep", parents=[common],
                       help="run derivation over a benchmark layer table")
    p.add_argument("--fixture", required=True,
                   help="bundled benchmark name (mlperf-tiny, dlmc) or a CSV path")
    p.set_defaults(func=cmd_sweep, format_default="csv")

    p = sub.add_parser("roofline", parents=[common],
                       help="classify a tile's intensity against the device ridge")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_roofline, format_default="text")

    p = sub.add_parser("emit", parents=[common],
                       help="generate kernel source and a schedule descriptor")
    p.add_argument("M", type=int)
    p.add_argument("K", type=int)
    p.add_argument("N", type=int)
    p.add_argument("-m", type=int)
    p.add_argument("-k", type=int)
    p.add_argument("-n", type=int)
    p.add_argument("--order", help="force a loop order instead of selecting one")
    p.add_argument("--dtype", choices=("f32", "q15"), default="f32")
    p.add_argument("--descriptor-out", metavar="FILE",
                   help="also write the descriptor JSON here")
    p.set_defaults(func=cmd_emit, format_default="text")

    return parser


_HW_COMMANDS = {"cmd_derive", "cmd_select", "cmd_sweep", "cmd_roofline", "cmd_emit"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.format_default
    if args.func.__name__ in _HW_COMMANDS and not args.hw:
        parser.error(f"{args.command} requires --hw")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
