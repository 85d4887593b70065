"""Target-device descriptions and the roofline throughput model.

A device is summarized by the handful of numbers the scheduler actually
uses: a register budget available for data reuse, the capacity of the one
local memory level, external bandwidth, per-core peak MAC throughput, and
the core count. Bandwidth and memory are expressed in *elements* (not
bytes) so they compose directly with the element-count IO accounting used
everywhere else; byte-based descriptor inputs are converted on load.

HardwareSpec is an immutable tuple record, checked when built: safe to
share across threads, and every operation on it is pure. The strict-JSON
rules live here, in parse_json and read_fields; memtile.emit shares them.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import namedtuple

# The bundled profiles, read from the package directory.
_DATA = os.path.join(os.path.dirname(__file__), "data")


class HardwareSpec(namedtuple("HardwareSpec", "name reuse_registers local_memory_elems "
                              "ext_bandwidth_elems_per_s peak_flops_per_core cores "
                              "element_bytes notes")):
    """Resource model of one target device.

    reuse_registers counts element slots usable for data reuse, which is
    deliberately distinct from the architectural register count: packed
    16-bit arithmetic on the same chip exposes a different budget than
    FP32 does, so the reusable budget is an explicit input.
    """

    __slots__ = ()

    def __new__(cls, name: str, reuse_registers: int, local_memory_elems: int,
                ext_bandwidth_elems_per_s: float, peak_flops_per_core: float,
                cores: int = 1, element_bytes: int = 4, notes: str = "") -> HardwareSpec:
        self = super().__new__(cls, name, reuse_registers, local_memory_elems,
                               ext_bandwidth_elems_per_s, peak_flops_per_core, cores,
                               element_bytes, notes)
        if self.reuse_registers < 3:
            raise ValueError("reuse_registers must be >= 3 (room for a 1x1x1 outer product)")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        for field_name in ("local_memory_elems", "ext_bandwidth_elems_per_s",
                           "peak_flops_per_core", "element_bytes"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be strictly positive")
        # Every printed rate derives from these two; a non-finite one prints as Infinity.
        try:
            total = self.peak_flops_total
        except OverflowError:  # an integer core count too large for a float
            total = math.inf
        for what, value in (("cores * peak_flops_per_core", total),
                            ("ridge point cores * peak_flops_per_core / "
                             "ext_bandwidth_elems_per_s", total / self.ext_bandwidth_elems_per_s)):
            if not 0 < value < math.inf:
                raise ValueError(f"{what} must be finite and positive, got {value!r}")
        return self

    @property
    def peak_flops_total(self) -> float:
        return self.cores * self.peak_flops_per_core


def ridge_point(hw: HardwareSpec) -> float:
    """Minimum arithmetic intensity (MACs/element) at which peak throughput is reachable."""
    return hw.peak_flops_total / hw.ext_bandwidth_elems_per_s


def attainable_throughput(hw: HardwareSpec, ai: float) -> float:
    """Roofline ceiling at intensity ``ai``: min(total peak, ai * bandwidth).

    Piecewise linear in ``ai`` with its breakpoint exactly at ridge_point(hw);
    the comparison against the ridge is done first so the plateau value is
    exactly the total peak, free of divide-then-multiply rounding.
    """
    if ai < 0:
        raise ValueError("arithmetic intensity must be >= 0")
    peak = hw.peak_flops_total
    if ai >= ridge_point(hw):
        return peak
    return min(ai * hw.ext_bandwidth_elems_per_s, peak)


# Each hardware descriptor field and its JSON type, in the order they are read.
_FIELDS = {"element_bytes": int, "ext_bandwidth_elems_per_s": float,
           "ext_bandwidth_bytes_per_s": float, "name": str, "reuse_registers": int,
           "local_memory_elems": int, "peak_flops_per_core": float, "cores": int, "notes": str}
_OPTIONAL = frozenset({"ext_bandwidth_elems_per_s", "ext_bandwidth_bytes_per_s", "notes"})


def hardware_from_dict(raw: dict) -> HardwareSpec:
    """Build a HardwareSpec from descriptor-file contents, read by read_fields
    (so a typo in a key fails loudly instead of falling back to a default).
    Bandwidth is given once, in elements/s or bytes/s (converted using
    element_bytes); ``notes`` may be left out."""
    values = read_fields(raw, _FIELDS, "hardware descriptor", _OPTIONAL)
    if ("ext_bandwidth_elems_per_s" in values) == ("ext_bandwidth_bytes_per_s" in values):
        raise ValueError(
            "exactly one of ext_bandwidth_elems_per_s / ext_bandwidth_bytes_per_s is required")
    if "ext_bandwidth_bytes_per_s" in values:
        if values["element_bytes"] <= 0:
            raise ValueError("element_bytes must be strictly positive")
        try:
            bandwidth = values.pop("ext_bandwidth_bytes_per_s") / values["element_bytes"]
        except OverflowError:  # an element width too large for a float: the rate rounds to 0
            bandwidth = 0.0
        values["ext_bandwidth_elems_per_s"] = bandwidth
    return HardwareSpec(**values)


_Overlong = namedtuple("_Overlong", "digits")  # an integer literal too long for int()


def _int(literal: str) -> int | _Overlong:
    """``parse_int`` for ``json.loads``: the integer, or its digit count if too long."""
    try:
        return int(literal)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return _Overlong(len(literal.lstrip("-")))


def _checked_object(pairs: list[tuple[str, object]]) -> dict:
    """A repeated key is an error, not a silent overwrite by its last value,
    and so is an integer too long to read, named by the key holding it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate JSON key {key!r}")
        inside = [value]
        while inside:  # the value, and the items of any array in it
            item = inside.pop()
            if type(item) is list:
                inside += item
            elif type(item) is _Overlong:
                raise ValueError(f"{key}: {item.digits} digits, "
                                 f"over the limit of {sys.get_int_max_str_digits()}")
        obj[key] = value
    return obj


def parse_json(text: str) -> object:
    """Parse JSON text strictly: text that is not valid JSON, nesting too deep
    to parse, a key given twice in one object and an integer under a key with
    more digits than ``sys.get_int_max_str_digits()`` are each a ValueError.
    A top level that is not an object is read_fields' to reject."""
    try:
        return json.loads(text, object_pairs_hook=_checked_object, parse_int=_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def _string(key: str, value: object) -> str:
    """A JSON string; null, numbers and other values are rejected, not converted."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _number(key: str, value: object) -> float:
    """A finite JSON number; bools, strings, NaN and Infinity are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # an integer past the float range
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return result


def _integer(key: str, value: object) -> int:
    """A JSON number with an integral value; 36.9 is rejected, not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if _number(key, value) != int(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _object(key: str, value: object) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object, got {value!r}")
    return value


_READERS = {int: _integer, float: _number, str: _string, dict: _object}


def read_fields(raw: object, fields: dict[str, type], what: str, optional=frozenset()) -> dict:
    """The fields of the JSON object ``raw``, in the order of ``fields``: no
    other key, none missing but the ``optional`` ones, and each read as its
    type, ``int`` (an integral number), ``float`` (finite), ``str`` or ``dict``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object")
    for fault, keys in (("unknown", raw.keys() - fields.keys()),
                        ("missing", fields.keys() - raw.keys() - optional)):
        if keys:
            raise ValueError(f"{fault} {what} keys: {sorted(keys)}")
    return {key: _READERS[kind](key, raw[key]) for key, kind in fields.items() if key in raw}


def load_hardware(path: str | os.PathLike) -> HardwareSpec:
    """Load a hardware descriptor from a JSON file."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = parse_json(f.read())
    except ValueError as exc:  # not UTF-8, or not strict JSON
        raise ValueError(f"{path}: {exc}") from None
    return hardware_from_dict(raw)


def fixture_names() -> list[str]:
    """Names of the hardware descriptors bundled with the package."""
    return sorted(f[:-5] for f in os.listdir(_DATA) if f.endswith(".json"))


def fixture_hardware(name: str) -> HardwareSpec:
    """Load a bundled descriptor by name (see fixture_names()).

    Register budgets and core counts in the bundled files are real; their
    bandwidth and peak-throughput numbers are illustrative placeholders,
    flagged as such in each file's notes.
    """
    path = os.path.join(_DATA, f"{name}.json")
    if not os.path.isfile(path):
        raise ValueError(f"unknown hardware fixture {name!r}; available: {fixture_names()}")
    return load_hardware(path)


def resolve_hardware(ref: str) -> HardwareSpec:
    """Interpret ``ref`` as a descriptor file path (any existing path but a
    directory, a pipe included), else as a bundled fixture name."""
    if os.path.exists(ref) and not os.path.isdir(ref):
        return load_hardware(ref)
    return fixture_hardware(ref)
