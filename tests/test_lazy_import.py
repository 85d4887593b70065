"""numpy is imported only where accesses are counted.

The simulator (``memtile.sim``) is the one module that needs numpy, so
``import memtile`` and the CLI commands that count nothing must start
without it; ``simulate`` and ``sweep`` import it when they run. The import
checks start a fresh interpreter, since the test process has long since
loaded numpy.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memtile
import memtile.sim
from memtile.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(memtile.__file__).resolve().parents[1]
M4 = "cortex-m4-fp32"


def _python(*args: str) -> tuple[int, str, str]:
    """Run a fresh interpreter that finds memtile in the source tree; its exit
    code, stdout and stderr, line endings kept (the CSV writer ends rows in CRLF)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *args], capture_output=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=120)
    return result.returncode, result.stdout.decode(), result.stderr.decode()


def _imported(importtime_stderr: str) -> set[str]:
    """Module names listed by ``-X importtime``."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_stderr.splitlines()
            if line.startswith("import time:")}


def _without_importtime(stderr: str) -> str:
    return "".join(line for line in stderr.splitlines(keepends=True)
                   if not line.startswith("import time:"))


def test_import_memtile_leaves_numpy_out():
    script = ("import sys, memtile\n"
              "print('numpy' in sys.modules)\n"
              "from memtile import *\n"
              "print('numpy' in sys.modules, all(n in globals() for n in memtile.__all__),\n"
              "      simulate_schedule is memtile.sim.simulate_schedule)\n")
    code, out, err = _python("-c", script)
    assert code == 0, err
    assert out == "False\nTrue True True\n"


@pytest.mark.parametrize("argv, loads_numpy", [
    (["derive", "--hw", M4, "40", "40", "40"], False),
    (["derive", "--hw", M4, "41", "39", "38", "--simulate", "--format", "json"], False),
    (["select", "--hw", M4, "40", "40", "40", "-m", "4", "-k", "2", "-n", "5"], False),
    (["roofline", "--hw", "cortex-a72", "-m", "4", "-n", "4", "--format", "json"], False),
    (["emit", "--hw", M4, "40", "40", "40"], False),
    (["simulate", "41", "39", "38", "-m", "5", "-k", "5", "-n", "5", "--order", "NKM",
      "--format", "json"], True),
    (["sweep", "--hw", "cortex-a72", "--fixture", "mlperf-tiny"], True),
], ids=["derive", "derive-simulate", "select", "roofline", "emit", "simulate", "sweep"])
def test_fresh_cli_imports_numpy_only_to_count_accesses(capsys, argv, loads_numpy):
    code, out, err = _python("-X", "importtime", "-m", "memtile.cli", *argv)
    assert ("numpy" in _imported(err)) is loads_numpy
    assert (code, out, _without_importtime(err)) == (main(argv), *capsys.readouterr())
    assert code == 0


def test_lazy_name_is_the_simulator_function():
    assert memtile.simulate_schedule is memtile.sim.simulate_schedule


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        memtile.nope  # noqa: B018


def _perfbench_tracer():
    """perfbench/tracer.py, loaded by path (it is read, never modified)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sweep_records_simulator_spans(capsys):
    """The benchmark's ``sim.*`` metrics come from the tracer's wrapper in
    ``memtile.sim``; the CLI's call-time import must reach it."""
    tracer = _perfbench_tracer()
    original = memtile.sim.simulate_schedule
    with tracer.Tracer() as spans:
        code = main(["sweep", "--hw", "cortex-a72", "--fixture", "mlperf-tiny"])
    rows = capsys.readouterr().out.count("\n") - 1  # CSV rows below the header
    assert code == 0 and rows == 20
    assert memtile.sim.simulate_schedule is original
    summary = spans.summary()
    assert summary["spans"]["sim.simulate_schedule"]["calls"] == rows
    assert summary["counts"]["sim.calls"] == rows
    assert summary["counts"]["sim.blocks"] > 0
