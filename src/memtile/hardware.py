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
from collections import namedtuple
from importlib import resources
from pathlib import Path


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
        bandwidth = _number(raw, "ext_bandwidth_bytes_per_s") / element_bytes

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


def load_hardware(path: str | Path) -> HardwareSpec:
    """Load a hardware descriptor from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    return hardware_from_dict(raw)


def fixture_names() -> list[str]:
    """Names of the hardware descriptors bundled with the package."""
    pkg = resources.files("memtile") / "data"
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def fixture_hardware(name: str) -> HardwareSpec:
    """Load a bundled descriptor by name (see fixture_names()).

    Register budgets and core counts in the bundled files are real; their
    bandwidth and peak-throughput numbers are illustrative placeholders,
    flagged as such in each file's notes.
    """
    res = resources.files("memtile") / "data" / f"{name}.json"
    if not res.is_file():
        raise ValueError(f"unknown hardware fixture {name!r}; available: {fixture_names()}")
    return hardware_from_dict(json.loads(res.read_text(encoding="utf-8")))


def resolve_hardware(ref: str) -> HardwareSpec:
    """Interpret ``ref`` as a descriptor file path, else as a bundled fixture name."""
    if Path(ref).is_file():
        return load_hardware(ref)
    return fixture_hardware(ref)
