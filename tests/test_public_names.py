"""Names that code outside the package looks up must keep resolving.

perfbench/tracer.py wraps memtile functions found with getattr, the other
perfbench scripts read names off the top-level package, and the README's
library quick start imports from memtile; a rename would crash the one and
break the others, so all are read here (never modified).
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import memtile

ROOT = Path(__file__).resolve().parents[1]


def _assigned_literal(path: Path, name: str):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_tracer_targets_resolve():
    tracer = ROOT / "perfbench" / "tracer.py"
    targets = _assigned_literal(tracer, "TARGETS")
    assert targets
    for module, attr, _span in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    descriptor = importlib.import_module("memtile.emit").ScheduleDescriptor
    for method, _span, _is_classmethod in _assigned_literal(tracer, "DESCRIPTOR_METHODS"):
        assert method in vars(descriptor), method


def test_readme_quick_start_imports_and_runs():
    code = _quick_start()
    names = [alias.name for node in ast.walk(ast.parse(code))
             if isinstance(node, ast.ImportFrom) and node.module == "memtile"
             for alias in node.names]
    assert names
    for name in names:
        assert name in memtile.__all__, name
    exec(compile(code, "README quick start", "exec"), {})


def _trees(path: Path) -> list[ast.Module]:
    """A script's syntax tree, plus those of the Python it embeds in string
    literals that import memtile (code run in a child interpreter)."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))]
    for node in ast.walk(trees[0]):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "import memtile" in node.value:
            try:
                trees.append(ast.parse(node.value))
            except SyntaxError:
                pass  # prose that mentions the import, not code
    return trees


def _top_level_reads(tree: ast.Module) -> set[str]:
    """Attributes read off the top-level ``memtile`` package, submodules aside."""
    aliases = {alias.asname or "memtile" for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name.split(".")[0] == "memtile"
               and (alias.asname is None or alias.name == "memtile")}
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in aliases}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "memtile"
              for alias in node.names}
    return {name for name in names if not name.startswith("__")
            and importlib.util.find_spec(f"memtile.{name}") is None}


def test_perfbench_top_level_names_are_exported():
    read = set().union(*(_top_level_reads(tree) for path in (ROOT / "perfbench").glob("*.py")
                         for tree in _trees(path)))
    assert {"fixture_hardware", "load_benchmark", "simulate_schedule"} <= read
    assert read <= set(memtile.__all__), sorted(read - set(memtile.__all__))
    for name in memtile.__all__:
        assert hasattr(memtile, name), name
