"""Target-device descriptions and the roofline throughput model.

A device is summarized by the handful of numbers the scheduler actually
uses: a register budget available for data reuse, the capacity of the one
local memory level, external bandwidth, per-core peak MAC throughput, and
the core count. Bandwidth and memory are expressed in *elements* (not
bytes) so they compose directly with the element-count IO accounting used
everywhere else; byte-based descriptor inputs are converted on load.

HardwareSpec is an immutable tuple record, checked when built: safe to
share across threads, and every operation on it is pure.
"""

from __future__ import annotations

import json
import math
import os
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


_REQUIRED_KEYS = {
    "name",
    "reuse_registers",
    "local_memory_elems",
    "peak_flops_per_core",
    "cores",
    "element_bytes",
}
_BANDWIDTH_KEYS = {"ext_bandwidth_elems_per_s", "ext_bandwidth_bytes_per_s"}
_OPTIONAL_KEYS = {"notes"}


def hardware_from_dict(raw: dict) -> HardwareSpec:
    """Build a HardwareSpec from descriptor-file contents.

    The schema is strict: unknown keys are rejected rather than ignored, so
    a typo in a descriptor fails loudly instead of silently falling back to
    a default. ``name`` and ``notes`` must be strings, not converted to
    them. Bandwidth may be given in elements/s or bytes/s; bytes are
    converted using element_bytes.
    """
    if not isinstance(raw, dict):
        raise ValueError("hardware descriptor must be a JSON object")
    keys = set(raw)
    unknown = keys - _REQUIRED_KEYS - _BANDWIDTH_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ValueError(f"unknown hardware descriptor keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - keys
    if missing:
        raise ValueError(f"missing hardware descriptor keys: {sorted(missing)}")
    bw_keys = keys & _BANDWIDTH_KEYS
    if len(bw_keys) != 1:
        raise ValueError(
            "exactly one of ext_bandwidth_elems_per_s / ext_bandwidth_bytes_per_s is required")

    element_bytes = _integer(raw, "element_bytes")
    if element_bytes <= 0:
        raise ValueError("element_bytes must be strictly positive")
    if "ext_bandwidth_elems_per_s" in raw:
        bandwidth = _number(raw, "ext_bandwidth_elems_per_s")
    else:
        try:
            bandwidth = _number(raw, "ext_bandwidth_bytes_per_s") / element_bytes
        except OverflowError:  # an element width too large for a float: the rate rounds to 0
            bandwidth = 0.0

    return HardwareSpec(
        name=_string(raw, "name"),
        reuse_registers=_integer(raw, "reuse_registers"),
        local_memory_elems=_integer(raw, "local_memory_elems"),
        ext_bandwidth_elems_per_s=bandwidth,
        peak_flops_per_core=_number(raw, "peak_flops_per_core"),
        cores=_integer(raw, "cores"),
        element_bytes=element_bytes,
        notes=_string(raw, "notes") if "notes" in raw else "",
    )


def _string(raw: dict, key: str) -> str:
    """A JSON string; null, numbers and other values are rejected, not converted."""
    value = raw[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _number(raw: dict, key: str) -> float:
    """A finite JSON number; bools, strings, NaN and Infinity are rejected."""
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:
        raise ValueError(f"{key} must be finite, got {value!r}") from None
    if not math.isfinite(result):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return result


def _integer(raw: dict, key: str) -> int:
    """A JSON number with an integral value; 36.9 is rejected, not truncated."""
    value = raw[key]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if _number(raw, key) != int(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for ``json.loads``: a repeated key is an error,
    not a silent overwrite by its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate JSON key {key!r}")
        obj[key] = value
    return obj


def load_hardware(path: str | os.PathLike) -> HardwareSpec:
    """Load a hardware descriptor from a JSON file."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.loads(f.read(), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    except ValueError as exc:  # not UTF-8, a repeated key, or an integer too long to convert
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
    """Interpret ``ref`` as a descriptor file path, else as a bundled fixture name."""
    if os.path.isfile(ref):
        return load_hardware(ref)
    return fixture_hardware(ref)
