"""Bundled benchmark layer tables: per-layer MM dimensions for sweeps.

Layers and tables are immutable tuple records; a table is checked when built.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from importlib import resources
from pathlib import Path

BenchmarkLayer = namedtuple("BenchmarkLayer", "layer_id M K N")


class BenchmarkFixture(namedtuple("BenchmarkFixture", "name layers")):
    __slots__ = ()

    def __new__(cls, name: str, layers: tuple[BenchmarkLayer, ...]) -> BenchmarkFixture:
        ids = [l.layer_id for l in layers]
        if len(ids) != len(set(ids)):
            raise ValueError(f"benchmark {name!r} has duplicate layer ids")
        for l in layers:
            if min(l.M, l.K, l.N) < 1:
                raise ValueError(f"benchmark {name!r} layer {l.layer_id} has non-positive dims")
        return super().__new__(cls, name, layers)


def _parse_layers_csv(name: str, text: str) -> BenchmarkFixture:
    # Leading '#' lines carry the table's provenance and are skipped.
    rows = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(rows)))
    expected = ["layer_id", "M", "K", "N"]
    if reader.fieldnames != expected:
        raise ValueError(f"benchmark {name!r}: expected columns {expected}, got {reader.fieldnames}")
    layers = []
    for row, record in enumerate(reader, start=1):
        if None in record:  # DictReader's key for fields beyond the header
            raise ValueError(f"benchmark {name!r} layer row {row}: {len(expected)} fields "
                             f"expected, got {len(expected) + len(record[None])}")
        for col in expected:
            # ASCII digits only: int() alone also takes "4_0", " 40" and non-ASCII digits.
            value = record[col]
            if value is None or not (value.isascii() and value.isdigit()):
                raise ValueError(f"benchmark {name!r} layer row {row}, column {col}: "
                                 f"expected a whole number in ASCII digits, got {value!r}")
        layers.append(BenchmarkLayer(*(int(record[col]) for col in expected)))
    return BenchmarkFixture(name=name, layers=tuple(layers))


def benchmark_names() -> list[str]:
    pkg = resources.files("memtile") / "data"
    return sorted(p.name[:-4] for p in pkg.iterdir() if p.name.endswith(".csv"))


def load_benchmark(ref: str) -> BenchmarkFixture:
    """Load a bundled table by name, or any CSV file by path."""
    path = Path(ref)
    if path.is_file():
        return _parse_layers_csv(path.stem, path.read_text(encoding="utf-8"))
    res = resources.files("memtile") / "data" / f"{ref}.csv"
    if not res.is_file():
        raise ValueError(f"unknown benchmark fixture {ref!r}; available: {benchmark_names()}")
    return _parse_layers_csv(ref, res.read_text(encoding="utf-8"))
