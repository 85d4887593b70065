"""Exact two-level-memory simulator for blocked matrix multiplication.

The model has precisely two storage levels: a local memory that holds one
stationary tile plus the tiles of the block currently being computed, and
an external memory charged one access per element moved. Each (outer,
middle) block pair of a schedule's loop nest, one residency of the
stationary tile, is walked and charged in a few exact integer operations.
A visit charges an operand its tile, a product of two of the block's
clamped sizes, so over one residency each count is the operand's extent
along the outer and middle dims times a weight of the inner loop alone.
The weights are summed once per schedule over the inner loop's at most two
runs of equal tile sizes, the full blocks and then the last: each run's
size times the visits charging the operand if it spans the inner dim, else
those visits alone. The rules per visit are:

  * the stationary operand's tile is loaded once per (outer, middle) loop
    pair and persists across the whole inner loop;
  * streamed input tiles cost their full element count on every block that
    consumes them;
  * partial C tiles under M-first and N-first orders are read and written
    on every visit; under K-first the stationary C is read once before the
    inner loop and written once after it.

Streamed operands physically move at vector granularity inside a block,
but the per-block element totals are identical at tile granularity, so
counting happens per tile. Edge blocks are clamped, never rejected. The
counts fill the same IOReport record that memtile.io_model.io_for_class
computes, and equal it exactly, ragged problems included; this module is
the independent oracle those formulas are tested against, never derived
from them.

A row-stationary variant that keeps whole output rows resident is the
m = 1 special case of the K-first schedule and is not modeled separately.

The simulator only counts; it computes no product. The interpreter that
runs an emitted kernel's loop nest is a test oracle, in tests/oracles.py.
"""

from __future__ import annotations

from itertools import chain, repeat

from .io_model import (CANONICAL_ORDER, CLASS_PRIORITY, InnerClass, IOReport, LoopOrder,
                       MMProblem, Schedule)
from .tiling import TileShape


def _block_sizes(full: int, edge: int):
    """Each block's clamped size along one dim, in loop order: ``edge`` but the last."""
    blocks = -(-full // edge)
    return chain(repeat(edge, blocks - 1), (full - edge * (blocks - 1),))


def simulate_schedule(problem: MMProblem, schedule: Schedule, *, c_zero: bool = False,
                      ) -> IOReport:
    """Count every external element access for one schedule.

    Ragged problems are fine; edge tiles are clamped. Only accesses are
    counted; no product is computed.
    """
    t = schedule.tile
    full = {"M": problem.M, "K": problem.K, "N": problem.N}
    edge = {"M": t.m, "K": t.k, "N": t.n}
    blocks = {d: -(-full[d] // edge[d]) for d in full}
    dims = schedule.order.dims
    outer, middle, inner = dims
    spans = ("MK", "KN", "MN", "MN")  # of loads of A, B and C, and of stores of C
    n_inner = blocks[inner]
    weights = [0, 0, 0, 0]
    for i2, visits in ((0, n_inner - 1), (n_inner - 1, 1)):
        if visits:  # a one-block inner loop has no run of full blocks
            first, last = int(i2 == 0), int(i2 + visits == n_inner)
            charged = {"C": (visits, visits, 0 if c_zero else first, last),
                       "A": (first, visits, visits, visits),
                       "B": (visits, first, visits, visits)}[schedule.stationary]
            size = min(edge[inner], full[inner] - edge[inner] * i2)
            for j, (n, span) in enumerate(zip(charged, spans)):
                weights[j] += n * size if inner in span else n
    w_a, w_b, w_lc, w_sc = weights
    # Each operand's extent, as an index into (outer size, middle size, their product).
    j_a, j_b, j_c = (2 if inner not in span else int(middle in span) for span in spans[:3])
    widest = min(edge[inner], full[inner])  # the first inner run's size
    # Under A- and B-stationary orders, K is the outer or the middle dim.
    at_k = dims.index("K")
    k_zero_skips_c = c_zero and schedule.stationary != "C"

    loads_a = loads_b = loads_c = stores_c = max_resident = 0
    for i0, s0 in enumerate(_block_sizes(full[outer], edge[outer])):
        for i1, s1 in enumerate(_block_sizes(full[middle], edge[middle])):
            ext = (s0, s1, s0 * s1)
            c = ext[j_c]
            loads_a += ext[j_a] * w_a
            loads_b += ext[j_b] * w_b
            if not (k_zero_skips_c and (i0, i1)[at_k] == 0):
                loads_c += c * w_lc
            stores_c += c * w_sc
            # The three tiles' sizes are the pairwise products of the block's.
            resident = ext[2] + (s0 + s1) * widest
            if resident > max_resident:
                max_resident = resident
    assert max_resident <= t.m * t.k + t.k * t.n + t.m * t.n, \
        "resident footprint exceeded one block's tiles"
    return IOReport(loads_a, loads_b, loads_c, stores_c,
                    blocks["M"] * blocks["K"] * blocks["N"], max_resident)


def brute_force_best(problem: MMProblem, tile: TileShape, *, c_zero: bool = False,
                     ) -> tuple[Schedule, IOReport]:
    """Simulate all six loop orders and return the cheapest schedule.

    The search-based oracle for select_schedule: it must pick the same
    schedule as the formulas for every problem, ragged or not.

    The two schemes sharing an inner dimension must produce identical
    reports; any divergence would be a modeling bug, so it raises rather
    than silently picking one. Class ties break K-first, M-first, N-first,
    and the winning class is represented by its canonical scheme.
    """
    by_class: dict[InnerClass, IOReport] = {}
    for order in LoopOrder:
        report = simulate_schedule(problem, Schedule(order, tile), c_zero=c_zero)
        seen = by_class.get(order.inner_class)
        if seen is not None and seen != report:
            raise AssertionError(
                f"schemes sharing inner dim {order.inner_dim} diverged: {seen} vs {report}")
        by_class[order.inner_class] = report
    winner = min(CLASS_PRIORITY, key=lambda cls: by_class[cls].total_elems)
    return Schedule(CANONICAL_ORDER[winner], tile), by_class[winner]

