"""Schedule descriptors and portable scalar kernel generation.

A ScheduleDescriptor is the JSON wire format (schema "v1") tying together
the problem, the chosen tile and loop order, the analytic IO accounting,
and the roofline throughput prediction. Serialization is canonical
(sorted keys, fixed separators), so emit -> parse -> re-emit is
byte-identical. Its fields, in order, and the JSON type of each come from
one table, _DESCRIPTOR_FIELDS, and the fields that follow from others from
one function, _derived_fields, which emit_descriptor builds with and the
constructor checks with. Every rule lives in the constructor, so a
descriptor is checked however it is built. Parsing follows the strict-JSON
rules that hardware descriptors follow too, which live in memtile.hardware
(parse_json and read_fields); from_json only parses and builds.

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

from .hardware import HardwareSpec, parse_json, printable, read_fields, roofline
from .io_model import CLASS_PRIORITY, InnerClass, IOReport, LoopOrder, MMProblem, Schedule
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
# Each per_class_total_elems key, all required: the class names, in tie-break
# order, which is their sorted order in JSON too.
_CLASS_FIELDS = {c.value: int for c in CLASS_PRIORITY}


def _derived_fields(order: str, total_io_elems: int, stationary_elems: int,
                    element_bytes: int) -> dict:
    """The descriptor fields that follow from others: the order's class and
    stationary operand, the streamed rest of the traffic, and its bytes."""
    inner = LoopOrder.parse(order).inner_class
    return {"inner_class": inner.value, "stationary": inner.stationary,
            "streaming_elems": total_io_elems - stationary_elems,
            "total_io_bytes": total_io_elems * element_bytes}


class ScheduleDescriptor(namedtuple("ScheduleDescriptor", _DESCRIPTOR_FIELDS,
                                    defaults=(SCHEMA_VERSION,))):
    """Flat, versioned record of a derived schedule; the "v1" JSON schema.

    Checked when built: each field has its JSON type; dims, tile sizes and
    element_bytes are positive; all three class totals are given, none
    negative, the chosen one equal to total_io_elems; and the derived
    fields are what _derived_fields gives. Else a ValueError names the field.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ScheduleDescriptor:
        values = read_fields(super().__new__(cls, *args, **kwargs)._asdict(),
                             _DESCRIPTOR_FIELDS, "descriptor")
        if values["schema"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported descriptor schema {values['schema']!r}")
        for name in ("M", "K", "N", "m", "k", "n", "element_bytes"):
            if values[name] < 1:
                raise ValueError(f"{name} must be >= 1, got {values[name]}")
        per_class = values["per_class_total_elems"] = read_fields(
            values["per_class_total_elems"], _CLASS_FIELDS, "per_class_total_elems")
        for c, total in per_class.items():
            if total < 0:
                raise ValueError(f"per_class_total_elems {c} must be >= 0, got {total}")
        derived = _derived_fields(values["order"], values["total_io_elems"],
                                  values["stationary_elems"], values["element_bytes"])
        for name, value in derived.items():
            if values[name] != value:
                raise ValueError(f"{name} {values[name]!r} != {value!r} derived from order, "
                                 "total_io_elems, stationary_elems and element_bytes")
        chosen = per_class[values["inner_class"]]
        if chosen != values["total_io_elems"]:
            raise ValueError(f"per_class_total_elems {values['inner_class']} is {chosen}, "
                             f"but total_io_elems is {values['total_io_elems']}")
        return super().__new__(cls, **values)

    def to_json(self) -> str:
        """The descriptor as JSON; a ValueError names the first field holding
        an integer too long to print."""
        printable(**self._asdict())
        return json.dumps(self._asdict(), indent=2, sort_keys=True, separators=(",", ": "),
                          allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScheduleDescriptor":
        """Parse a descriptor: JSON by memtile.hardware's strict rules, no key
        missing and none unknown, then built, and so checked, by the
        constructor. Anything malformed or inconsistent is a ValueError."""
        raw = parse_json(text)
        if isinstance(raw, dict) and raw.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported descriptor schema {raw.get('schema')!r}")
        return cls(**read_fields(raw, _DESCRIPTOR_FIELDS, "descriptor"))

    def schedule(self) -> Schedule:
        return Schedule(LoopOrder.parse(self.order), TileShape(self.m, self.k, self.n))


def emit_descriptor(problem: MMProblem, schedule: Schedule, io: IOReport,
                    hw: HardwareSpec, per_class_totals: dict[InnerClass, int],
                    ) -> ScheduleDescriptor:
    """Assemble the descriptor for one (problem, schedule, IO) outcome and
    each class's total.

    The stationary part of the traffic is the stationary operand's: its
    loads, and for C its stores too; the rest is streamed. The throughput
    prediction is the roofline ceiling at the schedule's achieved
    intensity, MKN MACs over the total external element traffic; an
    intensity past the float range is a ValueError.
    """
    elems = io.total_elems
    stationary = {"A": io.loads_a, "B": io.loads_b,
                  "C": io.loads_c + io.stores_c}[schedule.stationary]
    return ScheduleDescriptor(
        M=problem.M, K=problem.K, N=problem.N, element_bytes=problem.element_bytes,
        order=schedule.order.value, m=schedule.tile.m, k=schedule.tile.k, n=schedule.tile.n,
        stationary_elems=stationary, total_io_elems=elems,
        per_class_total_elems={cls.value: total for cls, total in per_class_totals.items()},
        predicted_throughput_macs_per_s=roofline(hw, problem.macs, elems)[2],
        **_derived_fields(schedule.order.value, elems, stationary, problem.element_bytes),
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
