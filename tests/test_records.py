"""Value semantics of memtile's record types.

Every record is an immutable tuple record: built by position or keyword,
with defaults, equal and hashed by value, printed as ``Name(field=value,
...)``, and its fields cannot be reassigned. The validated types reject
bad values with the same ValueError whichever way they are built; Schedule,
IOReport and BenchmarkLayer hold what they are given. The oracles' CBBlock and
StreamTimingReport keep to the same rules.
"""

import pytest

from memtile.benchmarks import BenchmarkFixture, BenchmarkLayer
from memtile.emit import ScheduleDescriptor
from memtile.hardware import HardwareSpec
from memtile.io_model import IOReport, LoopOrder, MMProblem, Schedule
from memtile.tiling import TileShape
from oracles import CBBlock, StreamTimingReport

LAYERS = (BenchmarkLayer(1, 2, 3, 4), BenchmarkLayer(layer_id=2, M=5, K=6, N=7))
DESCRIPTOR = dict(M=40, K=40, N=40, element_bytes=4, order="M->N->K", m=5, k=5, n=5,
                  inner_class="K-first", stationary="C", streaming_elems=25600,
                  stationary_elems=3200, total_io_elems=28800, total_io_bytes=115200,
                  per_class_total_elems={"K-first": 28800, "M-first": 40000, "N-first": 40000},
                  predicted_throughput_macs_per_s=64e6, schema="v1")

# Each record type and the keyword arguments of one valid value.
RECORDS = [
    (TileShape, dict(m=5, k=1, n=5)),
    (CBBlock, dict(p=2, m=3, k=4, n=5)),
    (MMProblem, dict(M=40, K=41, N=42, element_bytes=2)),
    (Schedule, dict(order=LoopOrder.NKM, tile=TileShape(2, 3, 4))),
    (IOReport, dict(loads_a=1, loads_b=2, loads_c=3, stores_c=4, blocks_executed=5,
                    max_resident_elems=6)),
    (HardwareSpec, dict(name="dev", reuse_registers=36, local_memory_elems=4096,
                        ext_bandwidth_elems_per_s=64e6, peak_flops_per_core=32e6,
                        cores=2, element_bytes=2, notes="n")),
    (BenchmarkLayer, dict(layer_id=1, M=2, K=3, N=4)),
    (BenchmarkFixture, dict(name="t", layers=LAYERS)),
    (ScheduleDescriptor, DESCRIPTOR),
    (StreamTimingReport, dict(compute_time_per_row=1.5, writeback_time_per_row=0.5,
                              hidden=True)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, kwargs", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, kwargs):
    value = cls(**kwargs)
    assert value == cls(*kwargs.values())
    assert value._asdict() == kwargs
    assert [getattr(value, name) for name in kwargs] == list(kwargs.values())


@pytest.mark.parametrize("cls, kwargs", RECORDS, ids=IDS)
def test_fields_cannot_be_reassigned(cls, kwargs):
    value = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls, kwargs", RECORDS, ids=IDS)
def test_equal_values_compare_and_hash_equal(cls, kwargs):
    first, second = cls(**kwargs), cls(**dict(kwargs))
    assert first == second and first is not second
    if cls is ScheduleDescriptor:  # its per-class totals are a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


@pytest.mark.parametrize("cls, kwargs", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, kwargs):
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"


def test_defaults():
    assert MMProblem(1, 2, 3).element_bytes == 4
    hw = HardwareSpec("dev", 36, 4096, 64e6, 32e6)
    assert (hw.cores, hw.element_bytes, hw.notes) == (1, 4, "")
    required = {k: v for k, v in DESCRIPTOR.items() if k != "schema"}
    first, second = ScheduleDescriptor(**required), ScheduleDescriptor(*required.values())
    assert first.schema == "v1" == second.schema


@pytest.mark.parametrize("build, match", [
    (lambda: TileShape(0, 1, 1), "tile dims must be >= 1"),
    (lambda: TileShape(m=1, k=1, n=-2), "tile dims must be >= 1"),
    (lambda: CBBlock(0, 1, 1, 1), "CB block dims and core factor must be >= 1"),
    (lambda: CBBlock(p=1, m=1, k=0, n=1), "CB block dims and core factor must be >= 1"),
    (lambda: MMProblem(1, 0, 1), "matrix dims must be >= 1"),
    (lambda: MMProblem(M=1, K=1, N=1, element_bytes=0), "element_bytes must be >= 1"),
    (lambda: HardwareSpec("d", 2, 4096, 1.0, 1.0), "reuse_registers must be >= 3"),
    (lambda: HardwareSpec("d", 36, 4096, 1.0, 1.0, cores=0), "cores must be >= 1"),
    (lambda: HardwareSpec(name="d", reuse_registers=36, local_memory_elems=4096,
                          ext_bandwidth_elems_per_s=0.0, peak_flops_per_core=1.0),
     "ext_bandwidth_elems_per_s must be strictly positive"),
    (lambda: HardwareSpec("d", 36, 4096, 1.0, 1.0, element_bytes=-1),
     "element_bytes must be strictly positive"),
    (lambda: HardwareSpec("d", 36, 4096, 1e308, 1e308, cores=4),
     r"cores \* peak_flops_per_core must be finite and positive, got inf"),
    (lambda: HardwareSpec("d", 36, 4096, 1.0, 1.0, cores=10**400),
     r"cores \* peak_flops_per_core must be finite and positive, got inf"),
    (lambda: HardwareSpec("d", 36, 4096, 1.0, float("nan")),
     r"cores \* peak_flops_per_core must be finite and positive, got nan"),
    (lambda: HardwareSpec("d", 36, 4096, 1e-320, 1e6),
     r"ridge point cores \* peak_flops_per_core / ext_bandwidth_elems_per_s must be finite "
     r"and positive, got inf"),
    (lambda: HardwareSpec(name="d", reuse_registers=36, local_memory_elems=4096,
                          ext_bandwidth_elems_per_s=1e308, peak_flops_per_core=1e-320),
     r"ridge point cores \* peak_flops_per_core / ext_bandwidth_elems_per_s must be finite "
     r"and positive, got 0.0"),
    (lambda: BenchmarkFixture("t", (LAYERS[0], LAYERS[0])),
     "benchmark 't' has duplicate layer ids"),
    (lambda: BenchmarkFixture(name="t", layers=(BenchmarkLayer(3, 1, 0, 1),)),
     "benchmark 't' layer 3 has non-positive dims"),
    (lambda: ScheduleDescriptor(*{**DESCRIPTOR, "M": -5}.values()), "^M must be >= 1, got -5$"),
    (lambda: ScheduleDescriptor(**{**DESCRIPTOR, "total_io_bytes": 7}),
     "^total_io_bytes 7 != 115200 derived from order, total_io_elems, stationary_elems "
     "and element_bytes$"),
    (lambda: ScheduleDescriptor(**{**DESCRIPTOR, "per_class_total_elems": {"K-first": 28800}}),
     r"^missing per_class_total_elems keys: \['M-first', 'N-first'\]$"),
    (lambda: ScheduleDescriptor(*{**DESCRIPTOR, "schema": "v2"}.values()),
     "^unsupported descriptor schema 'v2'$"),
], ids=["tile", "tile-keywords", "cb-p", "cb-keywords", "problem", "problem-element-bytes",
        "hw-registers", "hw-cores", "hw-bandwidth-keywords", "hw-element-bytes",
        "hw-total-peak-inf", "hw-total-peak-overflow", "hw-total-peak-nan", "hw-ridge-inf",
        "hw-ridge-zero-keywords",
        "fixture-duplicate-ids", "fixture-dims-keywords",
        "descriptor-dims", "descriptor-derived-keywords", "descriptor-class-totals-keywords",
        "descriptor-schema"])
def test_validated_types_reject_bad_values(build, match):
    with pytest.raises(ValueError, match=match):
        build()
