"""Generated inputs never end in a traceback.

Command lines for derive, select, emit and roofline, with a bundled device
or a generated hardware JSON file, run through cli.main in-process: each
run exits 0 or 1, and exit 1 prints exactly one ``error:`` line and nothing
on stdout. JSON output parses without NaN or Infinity, and every descriptor
printed passes ScheduleDescriptor.from_json. Generated descriptor JSON goes
through from_json and generated layer tables through load_benchmark; each
either parses or raises ValueError. Integers reach past the float range
(2**1024) and up to the 4,300 digits that Python reads and prints, so their
products can be too long to print.

simulate and sweep are left out: they visit every block, so huge dims
would run for hours.

The last test checks that a property test that fails, run under -W error,
shows its falsifying example (see conftest.py).
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtile.benchmarks import BenchmarkLayer, load_benchmark
from memtile.cli import main
from memtile.emit import ScheduleDescriptor
from memtile.hardware import fixture_names
from memtile.io_model import LoopOrder

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=50)

# Small values around the edges, and integers past the float range (2**1024)
# up to the longest that int() and json read (4,300 digits).
SMALL, HUGE = st.integers(-2, 80), st.integers(1, 10 ** 4300 - 1)
INTS = st.one_of(SMALL, HUGE)
# A fixed alphabet: the full Unicode one costs hypothesis seconds to build on first use.
TEXT = st.text(alphabet="aZ9 ,#\"\\\x00\né€", max_size=4)
VALUES = st.one_of(INTS, st.floats(), st.booleans(), st.none(), TEXT)

RATES = st.one_of(INTS, st.floats())
HARDWARE = st.builds(
    lambda fields, bandwidth_key, bandwidth: {**fields, bandwidth_key: bandwidth},
    st.fixed_dictionaries({"name": TEXT, "reuse_registers": INTS,
                           "local_memory_elems": INTS, "peak_flops_per_core": RATES,
                           "cores": INTS, "element_bytes": INTS},
                          optional={"notes": TEXT}),
    st.sampled_from(["ext_bandwidth_elems_per_s", "ext_bandwidth_bytes_per_s"]), RATES)
HW_KEYS = ["name", "reuse_registers", "local_memory_elems", "ext_bandwidth_elems_per_s",
           "ext_bandwidth_bytes_per_s", "peak_flops_per_core", "cores", "element_bytes",
           "notes", "extra"]
DESCRIPTOR = {"M": 40, "K": 40, "N": 40, "element_bytes": 4, "order": "M->N->K",
              "m": 5, "k": 5, "n": 5, "inner_class": "K-first", "stationary": "C",
              "streaming_elems": 25600, "stationary_elems": 3200, "total_io_elems": 28800,
              "total_io_bytes": 115200,
              "per_class_total_elems": {"K-first": 28800, "M-first": 40000, "N-first": 40000},
              "predicted_throughput_macs_per_s": 32e6, "schema": "v1"}


def _reject_constant(name):
    raise AssertionError(f"JSON output holds {name}")


def parse_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


@st.composite
def edited(draw, base, keys: list) -> dict:
    """A dict drawn from ``base`` with a few keys set to generated values and
    maybe one dropped."""
    raw = dict(draw(base))
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        raw[key] = draw(VALUES)
    for key in draw(st.lists(st.sampled_from(sorted(raw)), max_size=1)):
        del raw[key]
    return raw


HW_FILES = edited(HARDWARE, HW_KEYS).map(json.dumps)


@st.composite
def command_lines(draw, hw: str, out: str) -> list[str]:
    ints = draw(st.sampled_from([SMALL, HUGE]))  # one scale for every number

    def num() -> str:
        return str(draw(ints))

    command = draw(st.sampled_from(["derive", "select", "emit", "roofline"]))
    if command == "roofline":
        return [command, "--hw", hw, "-m", num(), "-n", num(),
                "--format", draw(st.sampled_from(["json", "text"]))]
    argv = [command, "--hw", hw, num(), num(), num()]
    if command == "select" or (command == "emit" and draw(st.booleans())):
        argv += ["-m", num(), "-k", num(), "-n", num()]
    argv += draw(st.sampled_from([[], ["--pad"], ["--simulate"]]))
    if command == "emit":
        if draw(st.booleans()):
            argv += ["--order", draw(st.sampled_from([o.name for o in LoopOrder]))]
        return argv + ["--out", out]  # the descriptor is then the stdout artifact
    if draw(st.booleans()):
        argv.append("--c-zero")
    return argv + ["--format", draw(st.sampled_from(["json", "text"]))]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


def check_run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert out == "", out
    elif argv[0] == "roofline" and "json" in argv:
        parse_json(out)
    elif argv[0] == "emit" or "json" in argv:
        parse_json(out)
        assert ScheduleDescriptor.from_json(out).to_json() == out


@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_cli_on_bundled_hardware(files, data):
    hw = data.draw(st.sampled_from(fixture_names()))
    check_run(data.draw(command_lines(hw, str(files / "kernel.c"))))


@settings(SETTINGS, max_examples=75)
@given(data=st.data())
def test_cli_on_generated_hardware_json(files, data):
    hw = files / "hw.json"
    hw.write_text(data.draw(HW_FILES), encoding="utf-8")
    check_run(data.draw(command_lines(str(hw), str(files / "kernel.c"))))


@SETTINGS
@given(raw=edited(st.just(DESCRIPTOR), sorted(DESCRIPTOR)))
def test_descriptor_json_parses_or_is_a_value_error(raw):
    text = json.dumps(raw)
    try:
        desc = ScheduleDescriptor.from_json(text)
    except ValueError:
        return
    assert ScheduleDescriptor.from_json(desc.to_json()) == desc


FIELDS = st.one_of(INTS.map(str), st.text(alphabet="0123456789 -_.,#\"x", max_size=4))
ROWS = st.lists(st.lists(FIELDS, min_size=3, max_size=5).map(",".join), max_size=4)


@SETTINGS
@given(header=st.sampled_from(["layer_id,M,K,N", "layer_id,M,K", "# note\nlayer_id,M,K,N"]),
       rows=ROWS)
def test_layer_table_parses_or_is_a_value_error(files, header, rows):
    path = files / "layers.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    try:
        fixture = load_benchmark(path)
    except ValueError:
        return
    assert fixture.layers == tuple(BenchmarkLayer(*map(int, row.split(",")))
                                   for row in rows if not row.startswith("#"))


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(derandomize=True, database=None)
@given(x=st.integers())
def test_fails(x):
    assert x < 10
"""


def test_failing_property_shows_its_example_under_warnings_as_errors(tmp_path):
    """With this directory's conftest.py, a failing @given test run under
    -W error reports its falsifying example, not an INTERNALERROR."""
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider",
         "test_fails.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
