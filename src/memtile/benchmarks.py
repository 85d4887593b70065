"""Bundled benchmark layer tables: per-layer MM dimensions for sweeps.

Layers and tables are immutable tuple records; a table is checked when built.
A table file holds a ``layer_id,M,K,N`` header and one row per layer, each
field a whole number in unquoted ASCII digits, so a line splits on its commas.
"""

from __future__ import annotations

import os
from collections import namedtuple

# The bundled layer tables, read from the package directory.
_DATA = os.path.join(os.path.dirname(__file__), "data")
_COLUMNS = ["layer_id", "M", "K", "N"]

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
    rows = [line.split(",") for line in text.splitlines()
            if line.strip() and not line.startswith("#")]
    header = rows[0] if rows else None
    if header != _COLUMNS:
        raise ValueError(f"benchmark {name!r}: expected columns {_COLUMNS}, got {header}")
    layers = []
    for row, fields in enumerate(rows[1:], start=1):
        if len(fields) > len(_COLUMNS):
            raise ValueError(f"benchmark {name!r} layer row {row}: {len(_COLUMNS)} fields "
                             f"expected, got {len(fields)}")
        fields += [None] * (len(_COLUMNS) - len(fields))  # a short row's missing fields
        for col, value in zip(_COLUMNS, fields):
            # ASCII digits only: int() alone also takes "4_0", " 40" and non-ASCII digits.
            if value is None or not (value.isascii() and value.isdigit()):
                raise ValueError(f"benchmark {name!r} layer row {row}, column {col}: "
                                 f"expected a whole number in ASCII digits, got {value!r}")
        layers.append(BenchmarkLayer(*map(int, fields)))
    return BenchmarkFixture(name=name, layers=tuple(layers))


def benchmark_names() -> list[str]:
    return sorted(f[:-4] for f in os.listdir(_DATA) if f.endswith(".csv"))


def load_benchmark(ref: str | os.PathLike) -> BenchmarkFixture:
    """Load a bundled table by name, or any CSV file by path (named after its
    file name without the suffix)."""
    path = os.fspath(ref)
    if os.path.isfile(path):
        name = os.path.basename(path)
        dot = name.rfind(".")  # as pathlib's stem: ".csv" and "layers." keep their dot
        name = name[:dot] if 0 < dot < len(name) - 1 else name
    else:
        name, path = path, os.path.join(_DATA, f"{path}.csv")
        if not os.path.isfile(path):
            raise ValueError(f"unknown benchmark fixture {name!r}; available: {benchmark_names()}")
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return _parse_layers_csv(name, text)
