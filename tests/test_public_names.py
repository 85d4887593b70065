"""Names that code outside the package looks up must keep resolving.

perfbench/tracer.py wraps memtile functions found with getattr, and the
README's library quick start imports from memtile; a rename would crash
the one and break the other, so both are read here (never modified).
"""

import ast
import importlib
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
