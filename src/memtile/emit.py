"""Schedule descriptors and portable scalar kernel generation.

A ScheduleDescriptor is the JSON wire format (schema "v1") tying together
the problem, the chosen tile and loop order, the analytic IO accounting,
and the roofline throughput prediction. Serialization is canonical
(sorted keys, fixed separators), so emit -> parse -> re-emit is
byte-identical. Its fields, in order, and the JSON type of each come from
one table, _DESCRIPTOR_FIELDS. Parsing follows the strict-JSON rules that
hardware descriptors follow too, which live in memtile.hardware
(parse_json and read_fields); from_json adds the descriptor's own checks.

Kernel generation produces a single self-contained C translation unit
realizing the blocked loop nest with a scalar rank-1 microkernel: three
block loops in schedule order, three clamped intra-block loops, and the
update C[i][j] += A[i][k] * B[k][j]. No intrinsics, no external
dependencies; any positive runtime dims are valid. Generated functions
follow the mema_outer_<m>x<k>x<n> naming convention.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .hardware import HardwareSpec, attainable_throughput, parse_json, read_fields
from .io_model import InnerClass, IOReport, LoopOrder, MMProblem, Schedule
from .tiling import TileShape

SCHEMA_VERSION = "v1"

# Kernel element type for each device element width in bytes.
ELEMENT_TYPES = {4: "f32", 2: "i16-q15-scalar"}


def element_type(element_bytes: int) -> str:
    """The kernel element type for a device element width; ValueError if none."""
    try:
        return ELEMENT_TYPES[element_bytes]
    except KeyError:
        raise ValueError(f"no kernel element type for element_bytes {element_bytes}; "
                         f"expected one of {sorted(ELEMENT_TYPES)}") from None


# Each descriptor field, in order, and its JSON type.
_DESCRIPTOR_FIELDS = {
    "M": int, "K": int, "N": int, "element_bytes": int,
    "order": str, "m": int, "k": int, "n": int, "inner_class": str, "stationary": str,
    "streaming_elems": int, "stationary_elems": int, "total_io_elems": int,
    "total_io_bytes": int, "per_class_total_elems": dict,
    "predicted_throughput_macs_per_s": float, "schema": str,
}
# Each per_class_total_elems key, all optional: the class names.
_CLASS_FIELDS = {c.value: int for c in InnerClass}


class ScheduleDescriptor(namedtuple("ScheduleDescriptor", _DESCRIPTOR_FIELDS,
                                    defaults=(SCHEMA_VERSION,))):
    """Flat, versioned record of a derived schedule; the "v1" JSON schema."""

    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps(self._asdict(), indent=2, sort_keys=True, separators=(",", ": "),
                          allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScheduleDescriptor":
        """Parse and check a descriptor; anything malformed or inconsistent is a ValueError.

        The JSON and each field's type follow memtile.hardware's strict-JSON
        rules. Dims, tile sizes and element_bytes must be positive, the totals
        must add up, and ``order`` must parse and agree with ``inner_class``
        and ``stationary``. A non-empty ``per_class_total_elems`` holds no
        negative total, and its ``inner_class`` entry equals ``total_io_elems``.
        """
        raw = parse_json(text)
        if isinstance(raw, dict) and raw.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported descriptor schema {raw.get('schema')!r}")
        values = read_fields(raw, _DESCRIPTOR_FIELDS, "descriptor")
        for name in ("M", "K", "N", "m", "k", "n", "element_bytes"):
            if values[name] < 1:
                raise ValueError(f"{name} must be >= 1, got {values[name]}")
        values["per_class_total_elems"] = read_fields(
            values["per_class_total_elems"], _CLASS_FIELDS, "per_class_total_elems",
            optional=frozenset(_CLASS_FIELDS))
        for c, total in values["per_class_total_elems"].items():
            if total < 0:
                raise ValueError(f"per_class_total_elems {c} must be >= 0, got {total}")
        desc = cls(**values)
        if desc.total_io_elems != desc.streaming_elems + desc.stationary_elems:
            raise ValueError(
                f"total_io_elems {desc.total_io_elems} != streaming_elems "
                f"{desc.streaming_elems} + stationary_elems {desc.stationary_elems}")
        if desc.total_io_bytes != desc.total_io_elems * desc.element_bytes:
            raise ValueError(
                f"total_io_bytes {desc.total_io_bytes} != total_io_elems "
                f"{desc.total_io_elems} * element_bytes {desc.element_bytes}")
        inner = LoopOrder.parse(desc.order).inner_class
        if (desc.inner_class, desc.stationary) != (inner.value, inner.stationary):
            raise ValueError(
                f"order {desc.order} is {inner.value} with {inner.stationary} stationary, "
                f"but the descriptor says {desc.inner_class} with {desc.stationary} stationary")
        chosen = desc.per_class_total_elems.get(desc.inner_class)
        if desc.per_class_total_elems and chosen != desc.total_io_elems:
            raise ValueError(
                f"per_class_total_elems {desc.inner_class} is {chosen}, "
                f"but total_io_elems is {desc.total_io_elems}")
        return desc

    def schedule(self) -> Schedule:
        return Schedule(LoopOrder.parse(self.order), TileShape(self.m, self.k, self.n))


def emit_descriptor(problem: MMProblem, schedule: Schedule, io: IOReport,
                    hw: HardwareSpec,
                    per_class_totals: dict[InnerClass, int] | None = None,
                    ) -> ScheduleDescriptor:
    """Assemble the descriptor for one (problem, schedule, IO) outcome.

    The stationary part of the traffic is the stationary operand's: its
    loads, and for C its stores too; the rest is streamed. The throughput
    prediction is the roofline ceiling at the schedule's achieved
    intensity, MKN MACs over the total external element traffic; an
    intensity past the float range is a ValueError.
    """
    elems = io.total_elems
    stationary = {"A": io.loads_a, "B": io.loads_b,
                  "C": io.loads_c + io.stores_c}[schedule.stationary]
    try:
        ai = problem.macs / elems
    except OverflowError:
        raise ValueError("arithmetic intensity MKN/(total IO) is too large for a float") from None
    per_class = {cls.value: total for cls, total in (per_class_totals or {}).items()}
    return ScheduleDescriptor(
        M=problem.M, K=problem.K, N=problem.N,
        element_bytes=problem.element_bytes,
        order=schedule.order.value,
        m=schedule.tile.m, k=schedule.tile.k, n=schedule.tile.n,
        inner_class=schedule.inner_class.value,
        stationary=schedule.stationary,
        streaming_elems=elems - stationary,
        stationary_elems=stationary,
        total_io_elems=elems,
        total_io_bytes=elems * problem.element_bytes,
        per_class_total_elems=per_class,
        predicted_throughput_macs_per_s=attainable_throughput(hw, ai),
    )


def kernel_name(tile: TileShape, element_type: str = "f32") -> str:
    suffix = "" if element_type == "f32" else "_q15"
    return f"mema_outer_{tile.m}x{tile.k}x{tile.n}{suffix}"


_DIM_VARS = {"M": ("m0", "mb", "dim_m"), "K": ("k0", "kb", "dim_k"), "N": ("n0", "nb", "dim_n")}

_Q15_HELPER = """\
/* Q15 multiply-accumulate: round to nearest, saturate on overflow.
 * Experimental semantics; packed dual-MAC forms are out of scope. */
static inline int16_t mema_q15_mac(int16_t acc, int16_t x, int16_t y)
{
    int32_t prod = (int32_t)x * (int32_t)y;
    int32_t q15 = (prod + (1 << 14)) >> 15;
    int32_t sum = (int32_t)acc + q15;
    if (sum > 32767) { sum = 32767; }
    if (sum < -32768) { sum = -32768; }
    return (int16_t)sum;
}
"""


def emit_kernel_source(schedule: Schedule, element_type: str = "f32") -> str:
    """Generate the C source for one schedule; deterministic, byte for byte.

    The function signature is
        void <name>(const T *a, const T *b, T *c, int dim_m, int dim_k, int dim_n)
    with row-major operands, computing C += A * B for any positive dims.
    """
    if element_type not in ELEMENT_TYPES.values():
        raise ValueError(f"unsupported element type {element_type!r}; "
                         f"expected one of {tuple(ELEMENT_TYPES.values())}")
    t = schedule.tile
    name = kernel_name(t, element_type)
    ctype = "float" if element_type == "f32" else "int16_t"
    order = schedule.order

    lines: list[str] = []
    out = lines.append
    out("/* Generated by memtile; do not edit.")
    out(" *")
    out(f" * {name}: blocked matrix multiply  C += A * B  (row-major)")
    out(f" *   A: dim_m x dim_k, B: dim_k x dim_n, C: dim_m x dim_n, element {ctype}.")
    out(f" *   Block schedule {order.value} ({order.inner_class.value}, "
        f"stationary {schedule.stationary} tiles), tile {t.key()}.")
    out(" *   Edge tiles are clamped; any positive dims are valid.")
    out(" */")
    out("#include <stdint.h>")
    out("#include <stddef.h>")
    out("")
    if element_type != "f32":
        out(_Q15_HELPER)
    out(f"void {name}(const {ctype} *a, const {ctype} *b, {ctype} *c,")
    out(f"{' ' * (6 + len(name))}int dim_m, int dim_k, int dim_n)")
    out("{")

    indent = "    "
    depth = 1
    step = {"M": t.m, "K": t.k, "N": t.n}
    for d in order.dims:
        base, extent, bound = _DIM_VARS[d]
        pad = indent * depth
        out(f"{pad}for (int {base} = 0; {base} < {bound}; {base} += {step[d]}) {{")
        out(f"{pad}{indent}int {extent} = ({bound} - {base} < {step[d]}) "
            f"? {bound} - {base} : {step[d]};")
        depth += 1
    pad = indent * depth
    out(f"{pad}for (int kk = 0; kk < kb; kk++) {{")
    out(f"{pad}{indent}for (int j = 0; j < nb; j++) {{")
    out(f"{pad}{indent * 2}for (int i = 0; i < mb; i++) {{")
    c_ref = "c[(size_t)(m0 + i) * dim_n + (n0 + j)]"
    a_ref = "a[(size_t)(m0 + i) * dim_k + (k0 + kk)]"
    b_ref = "b[(size_t)(k0 + kk) * dim_n + (n0 + j)]"
    body = indent * (depth + 3)
    if element_type == "f32":
        out(f"{body}{c_ref} +=")
        out(f"{body}{indent}{a_ref} * {b_ref};")
    else:
        out(f"{body}{c_ref} =")
        out(f"{body}{indent}mema_q15_mac({c_ref}, {a_ref}, {b_ref});")
    out(f"{pad}{indent * 2}}}")
    out(f"{pad}{indent}}}")
    out(f"{pad}}}")
    for level in range(depth - 1, 0, -1):
        out(f"{indent * level}}}")
    out("}")
    return "\n".join(lines) + "\n"
