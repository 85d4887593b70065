"""The benchmark's own reference model, independent of memtile's code.

Everything the benchmark checks memtile against, or derives its inputs
from, is computed here from first principles:

* the square register tile ``t = isqrt(R + 1) - 1`` (largest ``2t + t^2 <= R``);
* exact external element counts for any tile, ragged edges included.
  Clamped edge tiles partition each operand exactly, so each operand is
  fetched once per block along the dimension it does not index:

      K innermost (C stationary):  MK*ceil(N/n) + KN*ceil(M/m) + 2MN
      N innermost (A stationary):  MK + KN*ceil(M/m) + 2MN*ceil(K/k)
      M innermost (B stationary):  KN + MK*ceil(N/n) + 2MN*ceil(K/k)

  With ``c_zero`` the first read of each C tile is skipped (minus MN).
  On divisible problems these are memtile's closed forms; on ragged ones
  they equal the access-counting simulator (checked on every run);
* the selection rule: minimum total over the classes, ties broken
  K-first, M-first, N-first, each class represented by its canonical order;
* the I/O lower bound ``max(MK + KN + MN, 2MNK / sqrt(S))`` with
  ``S = local_memory_elems``: compulsory traffic, and the red-blue pebble
  bound (Hong & Kung, STOC'81) with the tight constant of Smith et al.,
  "A Tight I/O Lower Bound for Matrix Multiplication" (2019). This is a
  computed bound, not a measurement.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

CLASS_PRIORITY = ("K-first", "M-first", "N-first")
CANONICAL_ORDER = {"K-first": "M->N->K", "N-first": "M->K->N", "M-first": "N->K->M"}
ORDERS = ("M->N->K", "N->M->K", "M->K->N", "N->K->M", "K->M->N", "K->N->M")
INNER_CLASS = {"K": "K-first", "N": "N-first", "M": "M-first"}
DEVICES = ("cortex-a72", "cortex-m4-fp32", "cortex-m4-q15")


def load_device(src: Path, name: str) -> dict:
    """Read a bundled device profile straight from its JSON file."""
    return json.loads((src / "memtile" / "data" / f"{name}.json").read_text(encoding="utf-8"))


def square_tile(reuse_registers: int) -> int:
    return math.isqrt(reuse_registers + 1) - 1


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def exact_io(dims: tuple[int, int, int], tile: tuple[int, int, int], cls: str,
             c_zero: bool) -> int:
    """Exact external elements moved by one schedule class (ragged edges allowed)."""
    M, K, N = dims
    m, k, n = tile
    if cls == "K-first":
        total = M * K * _ceil(N, n) + K * N * _ceil(M, m) + 2 * M * N
    elif cls == "N-first":
        total = M * K + K * N * _ceil(M, m) + 2 * M * N * _ceil(K, k)
    else:
        total = K * N + M * K * _ceil(N, n) + 2 * M * N * _ceil(K, k)
    return total - M * N if c_zero else total


def padded(dims: tuple[int, int, int], tile: tuple[int, int, int]) -> tuple[int, int, int]:
    return tuple(_ceil(d, t) * t for d, t in zip(dims, tile))


def best_class(dims: tuple[int, int, int], tile: tuple[int, int, int], c_zero: bool) -> str:
    return min(CLASS_PRIORITY, key=lambda cls: exact_io(dims, tile, cls, c_zero))


def order_class(order: str) -> str:
    return INNER_CLASS[order.replace("->", "")[2]]


def lower_bound(dims: tuple[int, int, int], local_memory_elems: int) -> float:
    M, K, N = dims
    return max(M * K + K * N + M * N, 2 * M * N * K / math.sqrt(local_memory_elems))


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))

