"""Exact two-level-memory simulator for blocked matrix multiplication.

The model has precisely two storage levels: a local memory that holds one
stationary tile plus the tiles of the block currently being computed, and
an external memory charged one access per element moved. Each (outer,
middle) block pair of a schedule's loop nest, one residency of the
stationary tile, is walked. Its inner loop is at most two runs of visits
with equal clamped tile sizes, the full blocks and then the last, and each
run is charged the rules per visit times its visits, in exact integers:

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

from collections import namedtuple
from itertools import chain, repeat

from .hardware import HardwareSpec
from .io_model import (CANONICAL_ORDER, CLASS_PRIORITY, InnerClass, IOReport, LoopOrder,
                       MMProblem, Schedule)
from .tiling import TileShape


class StreamTimingReport(namedtuple("StreamTimingReport",
                                    "compute_time_per_row writeback_time_per_row hidden")):
    """Can writing one finished output row overlap computing the next one?"""

    __slots__ = ()


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
    # A run's visits share their tile sizes: an operand is charged its size
    # times the number of the run's visits that charge it, which is all of
    # them, or the inner loop's first or last visit if the run holds it.
    t = schedule.tile
    full = {"M": problem.M, "K": problem.K, "N": problem.N}
    edge = {"M": t.m, "K": t.k, "N": t.n}
    blocks = {d: -(-full[d] // edge[d]) for d in full}
    dims = schedule.order.dims
    outer, middle, inner = dims
    at_m, at_k, at_n = (dims.index(d) for d in "MKN")
    n_inner = blocks[inner]
    runs = []  # (inner tile size, visits charging loads of A, B and C, and stores of C)
    for i2, visits in ((0, n_inner - 1), (n_inner - 1, 1)):
        if visits:  # a one-block inner loop has no run of full blocks
            first, last = int(i2 == 0), int(i2 + visits == n_inner)
            charged = {"C": (visits, visits, 0 if c_zero else first, last),
                       "A": (first, visits, visits, visits),
                       "B": (visits, first, visits, visits)}[schedule.stationary]
            runs.append((min(edge[inner], full[inner] - edge[inner] * i2), *charged))
    # Under A- and B-stationary orders, K is the outer or the middle dim.
    k_zero_skips_c = c_zero and schedule.stationary != "C"

    loads_a = loads_b = loads_c = stores_c = max_resident = 0
    for i0, s0 in enumerate(_block_sizes(full[outer], edge[outer])):
        for i1, s1 in enumerate(_block_sizes(full[middle], edge[middle])):
            skip_c = k_zero_skips_c and (i0, i1)[at_k] == 0
            for s2, n_a, n_b, n_lc, n_sc in runs:
                sizes = (s0, s1, s2)
                mi, ki, ni = sizes[at_m], sizes[at_k], sizes[at_n]
                a_sz, b_sz, c_sz = mi * ki, ki * ni, mi * ni
                loads_a += a_sz * n_a
                loads_b += b_sz * n_b
                loads_c += 0 if skip_c else c_sz * n_lc
                stores_c += c_sz * n_sc
                resident = a_sz + b_sz + c_sz
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


def check_streaming_hiding(hw: HardwareSpec, tile: TileShape,
                           row_len_n: int) -> StreamTimingReport:
    """Decide whether writing back a finished C row hides under compute.

    Computing one n-long row of C takes k*n MACs against the per-core peak;
    writing it back takes n elements of bandwidth. The row is hidden exactly
    when k*n/peak >= n/bandwidth, i.e. k >= peak/bandwidth. With both rates
    as exact integer ratios the predicate is k*bw_num*peak_den >=
    peak_num*bw_den, so the flip happens precisely at ceil(peak/bandwidth);
    the reported times use idealized peak rates with no startup latency.
    """
    if row_len_n < 1:
        raise ValueError("row length must be >= 1")
    compute = tile.k * row_len_n / hw.peak_flops_per_core
    writeback = row_len_n / hw.ext_bandwidth_elems_per_s
    bw_num, bw_den = hw.ext_bandwidth_elems_per_s.as_integer_ratio()
    peak_num, peak_den = hw.peak_flops_per_core.as_integer_ratio()
    hidden = tile.k * bw_num * peak_den >= peak_num * bw_den
    return StreamTimingReport(compute, writeback, hidden)
