"""``import memtile`` loads no module, and memtile needs no numpy.

The package binds none of its names: each public name's module loads when
the name is first read, and every read goes to that module, so a function
the benchmark's tracer swaps in its own module is what the package returns.
Every module of memtile imports only the standard library, and the package
declares no dependency; numpy is a test extra, for the oracles in
``oracles.py``. So neither ``import memtile``, ``import memtile.sim`` nor any
CLI command loads numpy, and every command gives the same output where numpy
cannot be imported. The import checks start a fresh interpreter, since the
test process has long since loaded memtile and numpy. memtile reads its
files without ``pathlib``, ``importlib.resources`` or ``csv``, and only the
commands that write CSV load ``csv``. No memtile module imports another's
underscore name, and JSON is parsed in one place, as an intensity is
computed in one place. Every function, class and method in the package is
reached by a command, exported or traced by the benchmark.
"""

import ast
import importlib.util
import json
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


def _python(*args: str, site: bool = True) -> tuple[int, str, str]:
    """Run a fresh interpreter that finds memtile in the source tree; its exit
    code, stdout and stderr, line endings kept (the CSV writer ends rows in CRLF).

    With ``site=False`` it runs with ``-S``: no ``site`` module, so no ``.pth``
    start-up hook in site-packages can load a module before memtile asks for
    it."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    flags = [] if site else ["-S"]
    result = subprocess.run([sys.executable, *flags, *args], capture_output=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=120)
    return result.returncode, result.stdout.decode(), result.stderr.decode()


def _imported(importtime_stderr: str) -> set[str]:
    """Module names listed by ``-X importtime``."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_stderr.splitlines()
            if line.startswith("import time:")}


def _without_importtime(stderr: str) -> str:
    return "".join(line for line in stderr.splitlines(keepends=True)
                   if not line.startswith("import time:"))


def _loaded_after(statement: str) -> list[str]:
    """The memtile modules loaded in a fresh interpreter after ``import memtile``
    and then ``statement``."""
    script = ("import json, sys, memtile\n" + statement + "\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('memtile'))))\n")
    code, out, err = _python("-c", script)
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("statement, loaded", [
    ("", ["memtile"]),
    ("memtile.fixture_hardware('cortex-m4-fp32')", ["memtile", "memtile.hardware"]),
    ("memtile.load_benchmark('mlperf-tiny')", ["memtile", "memtile.benchmarks"]),
    ("memtile.simulate_schedule", ["memtile", "memtile.io_model", "memtile.sim", "memtile.tiling"]),
], ids=["import", "fixture_hardware", "load_benchmark", "simulate_schedule"])
def test_a_name_loads_only_its_module(statement, loaded):
    assert _loaded_after(statement) == loaded


@pytest.mark.parametrize("module, attr", [
    ("benchmarks", "load_benchmark"),
    ("emit", "emit_kernel_source"),
    ("hardware", "resolve_hardware"),
    ("io_model", "io_for_class"),
    ("sim", "simulate_schedule"),
    ("tiling", "derive_square_tile"),
])
def test_submodules_resolve_after_plain_import(module, attr):
    assert f"memtile.{module}" in _loaded_after(f"assert callable(memtile.{module}.{attr})")


def test_lazily_loaded_modules_show_in_importtime():
    """The benchmark's ``import.memtile_s`` sums memtile's ``-X importtime`` rows."""
    code, _, err = _python("-X", "importtime", "-c", "import memtile\n"
                           "memtile.fixture_hardware('cortex-m4-fp32')\nmemtile.io_model\n")
    assert code == 0, err
    assert {"memtile", "memtile.hardware", "memtile.io_model"} <= _imported(err)


def test_every_public_name_is_its_modules_object():
    assert len(memtile.__all__) == 12
    for name in memtile.__all__:
        value = getattr(memtile, name)
        assert value.__module__.startswith("memtile."), name
        assert value is getattr(sys.modules[value.__module__], name), name
        assert name not in vars(memtile), name  # read through, never bound


def test_import_memtile_leaves_numpy_out():
    script = ("import sys, memtile\n"
              "print('numpy' in sys.modules)\n"
              "import memtile.sim\n"
              "print('numpy' in sys.modules)\n"
              "from memtile import *\n"
              "print('numpy' in sys.modules, all(n in globals() for n in memtile.__all__),\n"
              "      simulate_schedule is memtile.sim.simulate_schedule)\n")
    code, out, err = _python("-c", script)
    assert code == 0, err
    assert out == "False\nFalse\nFalse True True\n"


@pytest.mark.parametrize("argv", [
    ["derive", "--hw", M4, "40", "40", "40"],
    ["derive", "--hw", M4, "41", "39", "38", "--simulate", "--format", "json"],
    ["select", "--hw", M4, "40", "40", "40", "-m", "4", "-k", "2", "-n", "5"],
    ["roofline", "--hw", "cortex-a72", "-m", "4", "-n", "4", "--format", "json"],
    ["emit", "--hw", M4, "40", "40", "40"],
    ["simulate", "41", "39", "38", "-m", "5", "-k", "5", "-n", "5", "--order", "NKM",
     "--format", "json"],
    ["sweep", "--hw", "cortex-a72", "--fixture", "mlperf-tiny"],
], ids=["derive", "derive-simulate", "select", "roofline", "emit", "simulate", "sweep"])
def test_fresh_cli_imports_numpy_only_to_count_accesses(capsys, argv):
    """No command imports numpy, the two that count accesses included, and
    only ``sweep``, which reads a layer table, imports memtile.benchmarks."""
    code, out, err = _python("-X", "importtime", "-m", "memtile.cli", *argv)
    assert "numpy" not in _imported(err)
    assert ("memtile.benchmarks" in _imported(err)) == (argv[0] == "sweep")
    assert (code, out, _without_importtime(err)) == (main(argv), *capsys.readouterr())
    assert code == 0


def _every_output() -> dict[str, list[str]]:
    """Every command in every ``--format``, and ``emit`` writing each of its
    files; ``{dir}`` stands for the directory the files go to."""
    simulate = ["simulate", "41", "39", "38", "-m", "5", "-k", "5", "-n", "5",
                "--order", "NKM", "--c-zero"]
    cases = {f"simulate-{fmt}": [*simulate, "--format", fmt] for fmt in ("text", "json", "csv")}
    cases["sweep"] = ["sweep", "--hw", "cortex-m4-fp32", "--fixture", "dlmc"]  # csv
    for fmt in ("json", "text"):
        cases[f"sweep-{fmt}"] = ["sweep", "--hw", "cortex-a72", "--fixture", "mlperf-tiny",
                                 "--format", fmt]
    for fmt in ("text", "json"):
        cases[f"derive-{fmt}"] = ["derive", "--hw", M4, "41", "39", "38", "--simulate",
                                  "--format", fmt]
        cases[f"select-{fmt}"] = ["select", "--hw", M4, "40", "40", "40", "-m", "4", "-k", "2",
                                  "-n", "5", "--c-zero", "--format", fmt]
        cases[f"roofline-{fmt}"] = ["roofline", "--hw", "cortex-a72", "-m", "4", "-n", "4",
                                    "--format", fmt]
    emit = ["emit", "--hw", "cortex-m4-q15", "41", "39", "38", "--pad"]
    cases["emit"] = emit
    cases["emit-out"] = [*emit, "--out", "{dir}/kernel.c"]
    cases["emit-descriptor-out"] = [*emit, "--descriptor-out", "{dir}/descriptor.json"]
    cases["emit-out-descriptor-out"] = [*emit, "--out", "{dir}/kernel.c",
                                        "--descriptor-out", "{dir}/descriptor.json"]
    return cases


EVERY_OUTPUT = _every_output()


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("argv", EVERY_OUTPUT.values(), ids=list(EVERY_OUTPUT))
def test_counting_commands_run_where_numpy_cannot_be_imported(capsys, tmp_path, argv):
    """With numpy unimportable, every command's output and files are byte for
    byte the usual ones."""
    script = ("import sys\nsys.modules['numpy'] = None\n"
              "from memtile.cli import main\nsys.exit(main(sys.argv[1:]))\n")
    blocked, usual = tmp_path / "blocked", tmp_path / "usual"
    blocked.mkdir()
    usual.mkdir()
    code, out, err = _python("-c", script, *(a.replace("{dir}", str(blocked)) for a in argv))
    assert (code, out, err) == (main([a.replace("{dir}", str(usual)) for a in argv]),
                                *capsys.readouterr())
    assert code == 0
    assert _files(blocked) == _files(usual)
    assert len(_files(usual)) == str(argv).count("{dir}")


def _absolute_imports():
    """(file name, module) for each absolute import in the package, inside
    functions included."""
    for path in sorted((SRC / "memtile").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, node.module


def test_memtile_imports_only_the_standard_library():
    """Every import in the package is relative or of a standard-library module."""
    for path, name in _absolute_imports():
        assert name.split(".")[0] in sys.stdlib_module_names, (path, name)


def test_memtile_imports_no_fractions():
    """Exact answers are in plain integers: no module imports fractions."""
    assert [(p, n) for p, n in _absolute_imports() if n.split(".")[0] == "fractions"] == []


def test_simulator_imports_no_counting_function():
    """The simulator is the oracle the closed forms are tested against, so from
    io_model it takes only records, enums and the class tables: never
    io_for_class, all_class_io, select_schedule or pad_to_tiles, and not the
    module, whose functions it could then reach as attributes."""
    taken = []
    for node in ast.walk(ast.parse((SRC / "memtile" / "sim.py").read_text(encoding="utf-8"))):
        names = [alias.name for alias in getattr(node, "names", ())]
        if isinstance(node, ast.ImportFrom) and node.module in ("io_model", "memtile.io_model"):
            taken += names
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not [n for n in names if n.endswith("io_model")], ast.unparse(node)
    assert taken
    assert set(taken) <= {"CANONICAL_ORDER", "CLASS_PRIORITY", "InnerClass", "IOReport",
                          "LoopOrder", "MMProblem", "Schedule"}, taken


def test_memtile_modules_share_no_private_name_and_parse_json_once():
    """No module imports another's underscore name, and one place parses JSON:
    the hardware reader that schedule descriptors share."""
    loads = []
    for path in sorted((SRC / "memtile").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "memtile"
                                                     or node.module.startswith("memtile.")):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, node.module, private)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "loads" and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "json"):
                loads.append(f"{path.name}:{node.lineno}")
    assert len(loads) == 1, loads


def test_only_the_roofline_divides_macs():
    """One roofline: hardware.roofline alone turns MACs over traffic into an
    intensity, so no other module has ``macs`` or ``x.macs`` left of a ``/``."""
    divisions = []
    for path in sorted((SRC / "memtile").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and "macs" in (getattr(node.left, "id", None),
                                   getattr(node.left, "attr", None))):
                divisions.append(f"{path.name}:{node.lineno}")
    assert [d.split(":")[0] for d in divisions] == ["hardware.py"], divisions


def test_only_the_derived_field_function_derives_descriptor_fields():
    """One definition of a descriptor's derived fields: no function but
    emit._derived_fields multiplies by ``element_bytes`` or adds or subtracts
    ``stationary_elems``, as a name or as ``x.name``."""
    def names(node):
        return {getattr(side, "id", None) or getattr(side, "attr", None)
                for side in (node.left, node.right)}

    found = []
    for path in sorted((SRC / "memtile").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # each node's innermost enclosing function
        for parent in ast.walk(tree):  # breadth first: a parent before its children
            for child in ast.iter_child_nodes(parent):
                owner[child] = (parent.name if isinstance(parent, ast.FunctionDef)
                                else owner.get(parent, "<module>"))
            if isinstance(parent, ast.BinOp) and (
                    isinstance(parent.op, ast.Mult) and "element_bytes" in names(parent)
                    or isinstance(parent.op, (ast.Add, ast.Sub))
                    and "stationary_elems" in names(parent)):
                found.append((path.name, owner[parent], parent.lineno))
    assert [(p, f) for p, f, _ in found] == [("emit.py", "_derived_fields")] * 2, found


def _tracer_names() -> set[str]:
    """The names perfbench/tracer.py wraps, read without running it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    literals = {target.id: ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) for target in node.targets
                if isinstance(target, ast.Name)
                and target.id in ("TARGETS", "DESCRIPTOR_METHODS")}
    return ({attr for _, attr, _ in literals["TARGETS"]}
            | {method for method, _, _ in literals["DESCRIPTOR_METHODS"]})


def test_every_definition_is_reached():
    """Each top-level function and class of the package, and each method or
    property, ``__x__`` names aside, is used elsewhere in the package (a method
    as ``.name``), exported in ``__all__`` or wrapped by the benchmark's
    tracer. What no command reaches belongs in tests/oracles.py."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "memtile").glob("*.py"))]
    top = [node for tree in trees for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    methods = [member for node in top if isinstance(node, ast.ClassDef)
               for member in node.body if isinstance(member, ast.FunctionDef)]
    reached = set(memtile.__all__) | _tracer_names()
    unreached = []
    for definition in top + methods:
        name = definition.name
        if name in reached or name.startswith("__") and name.endswith("__"):
            continue
        kinds = (ast.Attribute,) if definition in methods else (ast.Attribute, ast.Name)
        inside = {id(node) for node in ast.walk(definition)}
        uses = (node.attr if isinstance(node, ast.Attribute) else node.id
                for tree in trees for node in ast.walk(tree)
                if isinstance(node, kinds) and id(node) not in inside)
        if name not in uses:
            unreached.append(name)
    assert unreached == []


def test_package_declares_no_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []
    assert "numpy>=1.24" in project["optional-dependencies"]["test"]


# Start-up cost no memtile path needs: dataclasses brings inspect (with ast,
# dis and tokenize), and fractions brings decimal.
HEAVY = ("dataclasses", "inspect", "fractions")


def _importers(importtime_stderr: str, name: str) -> list[str]:
    """The modules whose import loaded ``name``, innermost first: ``-X importtime``
    lists each module after its imports, which it indents one level deeper."""
    rows = [(len(field) - len(field.lstrip()), field.strip()) for field in
            (line.rsplit("|", 1)[1] for line in importtime_stderr.splitlines()
             if line.startswith("import time:"))]
    index = next(i for i, (_, module) in enumerate(rows) if module == name)
    chain, depth = [], rows[index][0]
    for indent, module in rows[index + 1:]:
        if indent < depth:
            chain.append(module)
            depth = indent
    return chain


def _heavy_loaded(importtime_stderr: str) -> dict[str, list[str]]:
    """Each HEAVY module loaded beyond a bare interpreter's, with its importers."""
    _, _, bare = _python("-X", "importtime", "-c", "pass")
    loaded = _imported(importtime_stderr) - _imported(bare)
    return {name: _importers(importtime_stderr, name) for name in HEAVY if name in loaded}


@pytest.mark.parametrize("argv", [
    ["derive", "--hw", M4, "40", "40", "40"],
    ["select", "--hw", M4, "40", "40", "40", "-m", "4", "-k", "2", "-n", "5"],
    ["roofline", "--hw", "cortex-a72", "-m", "4", "-n", "4"],
    ["emit", "--hw", M4, "41", "39", "38", "--simulate"],
    ["simulate", "41", "39", "38", "-m", "5", "-k", "5", "-n", "5", "--order", "NKM"],
    ["sweep", "--hw", "cortex-a72", "--fixture", "mlperf-tiny"],
], ids=["derive", "select", "roofline", "emit", "simulate", "sweep"])
def test_fresh_cli_loads_no_dataclasses_inspect_or_fractions(capsys, argv):
    code, out, err = _python("-X", "importtime", "-m", "memtile.cli", *argv)
    assert (code, out, _without_importtime(err)) == (main(argv), *capsys.readouterr())
    assert code == 0
    assert _heavy_loaded(err) == {}


def test_benchmark_setup_loads_no_dataclasses_inspect_or_fractions():
    """The benchmark's fresh-interpreter set-up: import memtile, load every
    bundled hardware profile and layer table."""
    script = ("import memtile\n"
              "for name in ('cortex-m4-fp32', 'cortex-m4-q15', 'cortex-a72'):\n"
              "    memtile.fixture_hardware(name)\n"
              "for name in ('mlperf-tiny', 'dlmc'):\n"
              "    memtile.load_benchmark(name)\n")
    code, _, err = _python("-X", "importtime", "-c", script)
    assert code == 0, err
    assert _heavy_loaded(err) == {}


# Modules memtile reads its files without. A site-packages start-up hook may
# load pathlib and importlib.resources before any user code runs, so these
# checks start the interpreter with -S.
FILE_MODULES = ("pathlib", "importlib.resources", "csv")


@pytest.mark.parametrize("argv, loads_csv", [
    (["derive", "--hw", M4, "40", "40", "40"], False),
    (["select", "--hw", M4, "40", "40", "40", "-m", "4", "-k", "2", "-n", "5"], False),
    (["roofline", "--hw", "cortex-a72", "-m", "4", "-n", "4"], False),
    (["emit", "--hw", M4, "41", "39", "38", "--simulate"], False),
    (["simulate", "41", "39", "38", "-m", "5", "-k", "5", "-n", "5", "--order", "NKM",
      "--format", "json"], False),
    (["simulate", "41", "39", "38", "-m", "5", "-k", "5", "-n", "5", "--order", "NKM",
      "--format", "csv"], True),
    (["sweep", "--hw", "cortex-a72", "--fixture", "mlperf-tiny"], True),
], ids=["derive", "select", "roofline", "emit", "simulate-json", "simulate-csv", "sweep"])
def test_plain_interpreter_cli_loads_csv_only_to_write_csv(capsys, argv, loads_csv):
    code, out, err = _python("-X", "importtime", "-m", "memtile.cli", *argv, site=False)
    assert (code, out, _without_importtime(err)) == (main(argv), *capsys.readouterr())
    assert code == 0
    expected = {"csv"} if loads_csv else set()
    assert _imported(err) & set(FILE_MODULES) == expected


def test_plain_interpreter_benchmark_setup_loads_no_file_modules():
    script = ("import sys, memtile\n"
              "for name in ('cortex-m4-fp32', 'cortex-m4-q15', 'cortex-a72'):\n"
              "    memtile.fixture_hardware(name)\n"
              "for name in ('mlperf-tiny', 'dlmc'):\n"
              "    memtile.load_benchmark(name)\n"
              f"print([m for m in {FILE_MODULES!r} if m in sys.modules])\n")
    code, out, err = _python("-c", script, site=False)
    assert code == 0, err
    assert out == "[]\n"


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


def test_tracer_swap_reaches_the_package_and_is_undone():
    """The tracer wraps ``select_schedule`` where it is bound, not in the
    package; the package reads through to the wrapper while it is installed
    and to the original after, even when first read under the tracer."""
    tracer = _perfbench_tracer()
    original = memtile.io_model.select_schedule
    with tracer.Tracer():
        assert memtile.select_schedule is memtile.io_model.select_schedule
        assert memtile.select_schedule is not original
    assert memtile.select_schedule is memtile.io_model.select_schedule
    assert memtile.select_schedule is original
    assert "select_schedule" not in vars(memtile)
