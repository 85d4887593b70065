"""Schedule descriptors and portable scalar kernel generation.

A ScheduleDescriptor is the JSON wire format (schema "v1") tying together
the problem, the chosen tile and loop order, the analytic IO accounting,
and the roofline throughput prediction. Serialization is canonical
(sorted keys, fixed separators), so emit -> parse -> re-emit is
byte-identical. Its fields, in order, and the JSON type of each come from
one table, _DESCRIPTOR_FIELDS.

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

from .hardware import (HardwareSpec, _integer, _number, _string, _unique_keys,
                       attainable_throughput)
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
# The JSON reader for each scalar field type.
_READERS = {int: _integer, float: _number, str: _string}


class ScheduleDescriptor(namedtuple("ScheduleDescriptor", _DESCRIPTOR_FIELDS,
                                    defaults=(0.0, SCHEMA_VERSION))):
    """Flat, versioned record of a derived schedule; the "v1" JSON schema."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ScheduleDescriptor:
        # per_class_total_elems defaults to a new dict each time, never a shared one.
        if len(args) <= cls._fields.index("per_class_total_elems"):
            kwargs.setdefault("per_class_total_elems", {})
        return super().__new__(cls, *args, **kwargs)

    def to_json(self) -> str:
        return json.dumps(self._asdict(), indent=2, sort_keys=True, separators=(",", ": ")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScheduleDescriptor":
        """Parse and check a descriptor; anything malformed or inconsistent is a ValueError.

        Integer fields must hold integral numbers (40.9 is rejected, not
        truncated), the throughput a finite number, and text fields strings.
        Dims, tile sizes and element_bytes must be positive. The totals must
        add up, and ``order`` must parse and agree with ``inner_class`` and
        ``stationary``. ``per_class_total_elems`` may be empty; otherwise it
        is keyed by class names, holds no negative total, and its entry for
        ``inner_class`` equals ``total_io_elems``.
        """
        try:
            raw = json.loads(text, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("schedule descriptor JSON nested too deeply to parse") from None
        if not isinstance(raw, dict):
            raise ValueError("schedule descriptor must be a JSON object")
        schema = raw.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported descriptor schema {schema!r}")
        unknown = set(raw) - set(_DESCRIPTOR_FIELDS)
        if unknown:
            raise ValueError(f"unknown descriptor keys: {sorted(unknown)}")
        missing = set(_DESCRIPTOR_FIELDS) - set(raw)
        if missing:
            raise ValueError(f"missing descriptor keys: {sorted(missing)}")
        values = {name: _READERS[kind](raw, name)
                  for name, kind in _DESCRIPTOR_FIELDS.items() if kind in _READERS}
        for name in ("M", "K", "N", "m", "k", "n", "element_bytes"):
            if values[name] < 1:
                raise ValueError(f"{name} must be >= 1, got {values[name]}")
        per_class = raw["per_class_total_elems"]
        if not isinstance(per_class, dict):
            raise ValueError(f"per_class_total_elems must be an object, got {per_class!r}")
        classes = [c.value for c in InnerClass]
        unknown = set(per_class) - set(classes)
        if unknown:
            raise ValueError(
                f"unknown per_class_total_elems classes {sorted(unknown)}; expected {classes}")
        values["per_class_total_elems"] = {c: _integer(per_class, c) for c in per_class}
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

    def problem(self) -> MMProblem:
        return MMProblem(self.M, self.K, self.N, self.element_bytes)

    def schedule(self) -> Schedule:
        return Schedule(LoopOrder.parse(self.order), TileShape(self.m, self.k, self.n))


def emit_descriptor(problem: MMProblem, schedule: Schedule, io: IOReport,
                    hw: HardwareSpec,
                    per_class_totals: dict[InnerClass, int] | None = None,
                    ) -> ScheduleDescriptor:
    """Assemble the descriptor for one (problem, schedule, IO) outcome.

    The throughput prediction is the roofline ceiling at the schedule's
    achieved intensity, MKN MACs over the total external element traffic.
    """
    ai = problem.macs / io.total_elems
    per_class = {cls.value: total for cls, total in (per_class_totals or {}).items()}
    return ScheduleDescriptor(
        M=problem.M, K=problem.K, N=problem.N,
        element_bytes=problem.element_bytes,
        order=schedule.order.value,
        m=schedule.tile.m, k=schedule.tile.k, n=schedule.tile.n,
        inner_class=schedule.inner_class.value,
        stationary=schedule.stationary,
        streaming_elems=io.streaming_elems,
        stationary_elems=io.stationary_elems,
        total_io_elems=io.total_elems,
        total_io_bytes=io.total_bytes,
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
