"""Command-line front end: derive, select, simulate, sweep, roofline, emit.

Each command returns its whole answer (an ``Answer``), and only ``main``
writes it: the ``--out``/``--descriptor-out`` files, then stdout, then the
count note on stderr. A command that fails prints just its ``error:`` line
and leaves every regular file as it was.

``_plan`` is the one place where a schedule and its cost are decided: the
tile, the loop order, the IO counts under the ragged-problem policy and the
descriptor. ``derive``/``select`` print that descriptor, ``emit`` renders its
kernel from it, and ``sweep`` takes each row's schedule and analytic IO from it.

Only ``simulate`` and ``sweep`` count accesses, so only they import the
simulator, and only ``sweep`` reads a layer table (``memtile.benchmarks``).
No command loads numpy. Only ``sweep`` and ``simulate --format csv`` write
CSV, so only they import csv.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .emit import ScheduleDescriptor, element_type, emit_descriptor, emit_kernel_source
from .hardware import HardwareSpec, attainable_throughput, resolve_hardware, ridge_point
from .io_model import LoopOrder, MMProblem, Schedule, all_class_io, pad_to_tiles, select_schedule
from .tiling import TileShape, arithmetic_intensity_of_tile, derive_square_tile

# What each command returns: stdout text, {path: text} to write, and a note for stderr.
Answer = tuple[str, dict[str, str], str]

_CSV_COLUMNS = ["layer_id", "M", "K", "N", "order", "m", "k", "n",
                "io_analytic", "io_simulated", "pred_throughput"]


def _plan(problem: MMProblem, hw: HardwareSpec, tile: TileShape | None = None, *,
          order: LoopOrder | None = None, c_zero: bool = False, pad: bool = False,
          simulate: bool = False) -> tuple[ScheduleDescriptor, str]:
    """The schedule for ``problem`` on ``hw`` and its cost, as a descriptor plus a note.

    The tile is the largest square one unless given; the order is selected
    unless given. The counts are exact for every problem; a ragged one still
    needs a policy, choosing between its exact counts (``simulate``) and a
    padded estimate (``pad``), which the note names.
    """
    if tile is None:
        t = derive_square_tile(hw.reuse_registers)
        tile = TileShape(t, t, t)
    basis, note = problem, ""
    if problem.M % tile.m or problem.K % tile.k or problem.N % tile.n:
        if simulate:
            note = "exact ceiling-count IO (ragged edge tiles clamped)"
        elif pad:
            basis = pad_to_tiles(problem, tile)
            try:
                note = f"padded to {basis.M}x{basis.K}x{basis.N} for closed-form IO"
            except ValueError:  # a padded dim too long to print; so are the counts
                note = "padded to tile multiples for closed-form IO"
        else:
            raise ValueError(
                f"tile {tile.key()} does not divide {problem.M}x{problem.K}x{problem.N}; "
                "pass --pad for padded closed-form IO or --simulate for exact ragged counts")
    if order is None:
        schedule = select_schedule(basis, tile, c_zero=c_zero)
    else:
        schedule = Schedule(order, tile)
    reports = all_class_io(basis, tile, c_zero=c_zero)
    per_class = {cls: rep.total_elems for cls, rep in reports.items()}
    return emit_descriptor(problem, schedule, reports[schedule.inner_class], hw, per_class), note


def _printable(**values: object) -> None:
    """Reject, by name, the first value holding an integer too long for Python
    to print in decimal (``sys.get_int_max_str_digits()``)."""
    for name, value in values.items():
        try:
            str(value)
        except ValueError:
            raise ValueError(f"{name} has more than {sys.get_int_max_str_digits()} digits, "
                             "too many to print") from None


def _answer(text: str, out: str | None) -> Answer:
    """``text`` on stdout, and in the ``--out`` file when one is given; no note."""
    return text, {out: text} if out else {}, ""


def cmd_schedule(args) -> Answer:
    """derive and select: one schedule, on the given tile or else the square one."""
    hw = resolve_hardware(args.hw)
    problem = MMProblem(args.M, args.K, args.N, hw.element_bytes)
    tile = None if args.m is None else TileShape(args.m, args.k, args.n)  # None on derive
    desc, note = _plan(problem, hw, tile, c_zero=args.c_zero, pad=args.pad,
                       simulate=args.simulate)
    _printable(**desc._asdict())
    desc_json = desc.to_json() if args.out or args.format == "json" else ""
    files = {args.out: desc_json} if args.out else {}
    if args.format == "json":
        # The note goes to stderr, so stdout stays parseable; padded counts never pass for exact.
        return desc_json, files, note
    tile = desc.schedule().tile
    _printable(register_footprint=tile.register_footprint)
    ai = problem.macs / desc.total_io_elems
    ridge = ridge_point(hw)
    bound = "compute-bound" if ai >= ridge else "bandwidth-bound"
    per = ", ".join(f"{cls} {total}" for cls, total in desc.per_class_total_elems.items())
    lines = [
        f"problem: M={problem.M} K={problem.K} N={problem.N} ({problem.element_bytes} B/elem)",
        f"tile:    m={tile.m} k={tile.k} n={tile.n} "
        f"(register footprint {tile.register_footprint}/{hw.reuse_registers})",
        f"order:   {desc.order} ({desc.inner_class}, stationary {desc.stationary} tiles)",
        f"io:      {desc.streaming_elems} streamed + {desc.stationary_elems} stationary "
        f"= {desc.total_io_elems} elems ({desc.total_io_bytes} bytes)",
        f"classes: {per}",
        f"roofline: intensity {ai:.3f} MACs/elem, ridge {ridge:.3f}, "
        f"predicted {desc.predicted_throughput_macs_per_s:.3e} MACs/s ({bound})",
    ] + [f"note:    {note}"] * bool(note)
    return "".join(line + "\n" for line in lines), files, ""


def _csv(rows: list[dict], columns: list[str]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_simulate(args) -> Answer:
    from .sim import simulate_schedule

    problem = MMProblem(args.M, args.K, args.N)
    schedule = Schedule(LoopOrder.parse(args.order), TileShape(args.m, args.k, args.n))
    report = simulate_schedule(problem, schedule, c_zero=args.c_zero)
    payload = {"M": problem.M, "K": problem.K, "N": problem.N,
               "order": schedule.order.value, **report.to_dict()}
    _printable(**payload)
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    elif args.format == "csv":
        text = _csv([payload], list(payload))
    else:
        text = "".join(f"{key}: {value}\n" for key, value in payload.items())
    return _answer(text, args.out)


def cmd_sweep(args) -> Answer:
    from .benchmarks import load_benchmark
    from .sim import simulate_schedule

    hw = resolve_hardware(args.hw)
    fixture = load_benchmark(args.fixture)
    rows = []
    for layer in sorted(fixture.layers, key=lambda l: l.layer_id):
        problem = MMProblem(layer.M, layer.K, layer.N, hw.element_bytes)
        # Order is chosen from the closed forms (on the padded problem when
        # ragged); the simulated column is always the exact ragged count.
        desc, _ = _plan(problem, hw, c_zero=args.c_zero, pad=True)
        simulated = simulate_schedule(problem, desc.schedule(), c_zero=args.c_zero)
        rows.append({
            "layer_id": layer.layer_id, "M": layer.M, "K": layer.K, "N": layer.N,
            "order": desc.order, "m": desc.m, "k": desc.k, "n": desc.n,
            "io_analytic": desc.total_io_elems, "io_simulated": simulated.total_elems,
            "pred_throughput": attainable_throughput(hw, problem.macs / simulated.total_elems),
        })
        _printable(**{f"layer {layer.layer_id} {col}": value for col, value in rows[-1].items()})
    if args.format == "json":
        text = json.dumps(rows, indent=2, allow_nan=False) + "\n"
    elif args.format == "text":
        widths = {col: max(len(col), *(len(str(r[col])) for r in rows)) if rows else len(col)
                  for col in _CSV_COLUMNS}
        lines = ["  ".join(col.ljust(widths[col]) for col in _CSV_COLUMNS)]
        lines += ["  ".join(str(r[col]).ljust(widths[col]) for col in _CSV_COLUMNS) for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = _csv(rows, _CSV_COLUMNS)
    return _answer(text, args.out)


def cmd_roofline(args) -> Answer:
    hw = resolve_hardware(args.hw)
    ai = arithmetic_intensity_of_tile(args.m, args.n)
    ridge = ridge_point(hw)
    bound = "compute-bound" if ai >= ridge else "bandwidth-bound"
    attainable = attainable_throughput(hw, ai)
    payload = {"hardware": hw.name, "tile_m": args.m, "tile_n": args.n,
               "arithmetic_intensity": ai, "ridge_point": ridge,
               "attainable_throughput_macs_per_s": attainable, "classification": bound}
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        text = (f"tile {args.m}x{args.n}: intensity {ai:.4f} MACs/elem\n"
                f"{hw.name}: ridge point {ridge:.4f} MACs/elem\n"
                f"attainable {attainable:.3e} MACs/s -> {bound}\n")
    return _answer(text, args.out)


def cmd_emit(args) -> Answer:
    if args.out and args.descriptor_out and (
            os.path.realpath(args.out) == os.path.realpath(args.descriptor_out)):
        raise ValueError(f"--out and --descriptor-out both name {args.out}; "
                         "the kernel and the descriptor need two files")
    hw = resolve_hardware(args.hw)
    kernel_type = element_type(hw.element_bytes)
    problem = MMProblem(args.M, args.K, args.N, hw.element_bytes)
    dims = (args.m, args.k, args.n)
    if None in dims and dims != (None, None, None):
        raise ValueError("give all of -m, -k, -n or none")
    tile = None if args.m is None else TileShape(*dims)
    order = LoopOrder.parse(args.order) if args.order else None
    desc, note = _plan(problem, hw, tile, order=order, pad=args.pad, simulate=args.simulate)
    source = emit_kernel_source(desc.schedule(), kernel_type)
    if not (args.out or args.descriptor_out):
        return source, {}, note
    _printable(**desc._asdict())
    desc_json = desc.to_json()
    files = {path: text for path, text in ((args.out, source), (args.descriptor_out, desc_json))
             if path}
    # With the kernel in a file, the descriptor is the stdout artifact.
    return desc_json if args.out else source, files, note


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
    _add_flags(p, "--hw", "--out")
    _add_count_policy(p)
    p.set_defaults(func=cmd_emit)

    return parser


def _write_files(files: dict[str, str]) -> None:
    """Write every file, or on an error leave each regular one as it was: a
    regular or new target is written to a temporary beside it, and the
    temporaries replace their targets once all are written. At most one other
    target (``/dev/stdout``, a FIFO) is taken, as its write cannot be taken
    back; it is written in place once every temporary is, so a target that
    cannot be staged writes nothing. Errors name the path given."""
    in_place = [path for path in files if os.path.exists(path) and not os.path.isfile(path)]
    if len(in_place) > 1:
        raise ValueError("only one output may be a stream or other non-regular file, "
                         f"not both {in_place[0]} and {in_place[1]}")
    staged = []  # (temporary, target)
    try:
        for path in sorted(files, key=in_place.__contains__):  # in place last
            try:
                if path in in_place:
                    with open(path, "w", encoding="utf-8") as f:
                        f.write(files[path])
                    continue
                target = os.path.realpath(path)  # through a symlink to its file
                temporary = os.path.join(os.path.dirname(target),
                                         f".{os.path.basename(target)}.{os.getpid()}.tmp")
                with open(temporary, "x", encoding="utf-8") as f:
                    staged.append((temporary, target))
                    f.write(files[path])
                if os.path.isfile(target):  # keep the replaced file's permissions
                    os.chmod(temporary, os.stat(target).st_mode & 0o7777)
            except OSError as exc:
                exc.filename = path
                raise
        for temporary, target in staged:
            os.replace(temporary, target)
    except BaseException:
        for temporary, _ in staged:
            if os.path.exists(temporary):
                os.remove(temporary)
        raise


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, files, note = args.func(args)
        _write_files(files)
        print(text, end="")
        if note:
            print(f"note: {note}", file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
