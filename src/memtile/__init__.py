"""memtile: minimum-IO scheduling for blocked matrix multiplication.

Given a hardware description and an M x K x N multiplication, derive the
tile shape and block loop order that minimize external memory traffic,
validate the closed-form accounting against an exact access-counting
simulator, and emit schedule descriptors plus portable scalar kernels.

The package exports the names the README documents; everything else is
reached through its module (``memtile.io_model``, ``memtile.sim``, ...).

numpy is loaded only with the access-counting simulator (``memtile.sim``):
by the ``simulate`` and ``sweep`` commands and when ``simulate_schedule`` is
first read, so ``import memtile`` alone does not load it.
"""

from .benchmarks import load_benchmark
from .emit import emit_descriptor, emit_kernel_source
from .hardware import fixture_hardware
from .io_model import LoopOrder, MMProblem, Schedule, io_for_class, select_schedule
from .tiling import TileShape, best_register_tile, derive_square_tile

__version__ = "0.1.0"

__all__ = [
    "LoopOrder",
    "MMProblem",
    "Schedule",
    "TileShape",
    "best_register_tile",
    "derive_square_tile",
    "emit_descriptor",
    "emit_kernel_source",
    "fixture_hardware",
    "io_for_class",
    "load_benchmark",
    "select_schedule",
    "simulate_schedule",
]


def __getattr__(name: str):
    # PEP 562: the simulator, and numpy with it, loads on first use.
    if name == "simulate_schedule":
        from .sim import simulate_schedule
        return simulate_schedule
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
