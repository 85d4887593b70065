"""memtile: minimum-IO scheduling for blocked matrix multiplication.

Given a hardware description and an M x K x N multiplication, derive the
tile shape and block loop order that minimize external memory traffic,
validate the closed-form accounting against an exact access-counting
simulator, and emit schedule descriptors plus portable scalar kernels.

The package exports the names the README documents; everything else is
reached through its module (``memtile.io_model``, ``memtile.sim``, ...).

``import memtile`` loads none of its modules: each loads when one of its
names is first used (PEP 562). Every module imports only the standard
library, so the package installs with no dependency.
"""

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    "LoopOrder": "io_model",
    "MMProblem": "io_model",
    "Schedule": "io_model",
    "TileShape": "tiling",
    "derive_square_tile": "tiling",
    "emit_descriptor": "emit",
    "emit_kernel_source": "emit",
    "fixture_hardware": "hardware",
    "io_for_class": "io_model",
    "load_benchmark": "benchmarks",
    "select_schedule": "io_model",
    "simulate_schedule": "sim",
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # Never bound here, so a function swapped in its own module is what every
    # later read sees. Modules resolve too. __import__ (unlike
    # importlib.import_module) shows in ``-X importtime``.
    if name in _EXPORTS:
        return getattr(__import__(_EXPORTS[name], globals(), level=1, fromlist=[name]), name)
    if name in _EXPORTS.values():
        return __import__(name, globals(), level=1, fromlist=[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
