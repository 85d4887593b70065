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

The simulator only counts; it computes no product. interpret_kernel runs
the emitted kernel's loop nest and is the one functional executor; it is
also the one function here that needs numpy, which it imports when called.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, repeat

from .emit import element_type
from .hardware import HardwareSpec
from .io_model import (CANONICAL_ORDER, CLASS_PRIORITY, InnerClass, IOReport, LoopOrder,
                       MMProblem, Schedule)
from .tiling import CBBlock, TileShape


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
    counted; interpret_kernel computes the product.
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
    when k*n/peak >= n/bandwidth, i.e. k >= peak/bandwidth. The predicate is
    evaluated in exact rationals so the flip happens precisely at
    ceil(peak/bandwidth); the reported times use idealized peak rates with
    no startup latency.
    """
    from fractions import Fraction

    if row_len_n < 1:
        raise ValueError("row length must be >= 1")
    compute = tile.k * row_len_n / hw.peak_flops_per_core
    writeback = row_len_n / hw.ext_bandwidth_elems_per_s
    hidden = (Fraction(tile.k) * Fraction(hw.ext_bandwidth_elems_per_s)
              >= Fraction(hw.peak_flops_per_core))
    return StreamTimingReport(compute, writeback, hidden)


def measure_cake_bw(block: CBBlock, hw: HardwareSpec) -> float:
    """Off-chip bandwidth of one simulated CB block: IO / time.

    One pm x k x pn block streams pmk + pnk input elements and performs
    pm*k*pn MACs at an aggregate rate of p * f. Evaluated in exact
    rationals, so the p factors cancel identically and the result equals
    cake_offchip_bw(m, n, f) bit for bit, independent of p.
    """
    from fractions import Fraction

    p = block.p
    io = p * block.m * block.k + p * block.n * block.k
    macs = (p * block.m) * block.k * (p * block.n)
    time = Fraction(macs) / (p * Fraction(hw.peak_flops_per_core))
    return float(Fraction(io) / time)


def _check_operands(problem: MMProblem, q15: bool, a, b, c) -> tuple:
    import numpy as np

    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    if a.shape != (problem.M, problem.K) or b.shape != (problem.K, problem.N) \
            or c.shape != (problem.M, problem.N):
        raise ValueError(
            f"operand shapes {a.shape}/{b.shape}/{c.shape} do not match problem "
            f"{problem.M}x{problem.K}x{problem.N}")
    if not q15:
        return a, b, c
    # The q15 kernel takes int16_t operands: anything else would be truncated
    # or multiplied as given and read as a plausible Q15 result.
    low, high = np.iinfo(np.int16).min, np.iinfo(np.int16).max
    for name, operand in zip("ABC", (a, b, c)):
        if operand.dtype.kind not in "iu":
            raise ValueError(f"q15 operand {name} has dtype {operand.dtype}, not an integer type")
        if operand.min() < low or operand.max() > high:
            raise ValueError(f"q15 operand {name} has values outside [{low}, {high}]")
    if not np.can_cast(np.int16, c.dtype):  # the result is written back into C's dtype
        raise ValueError(f"q15 operand C has dtype {c.dtype}, which cannot hold every int16 value")
    return a, b, c


def _f32_mac(acc, x, y):
    return acc + x * y


def _q15_mac(acc, x, y):
    # mema_q15_mac: round the Q15 product to nearest, then saturate the sum.
    q15 = (int(x) * int(y) + (1 << 14)) >> 15
    return max(-32768, min(32767, int(acc) + q15))


_MACS = {"f32": _f32_mac, "i16-q15-scalar": _q15_mac}


def interpret_kernel(problem: MMProblem, schedule: Schedule, a, b, c) -> tuple:
    """Run the loop nest emit_kernel_source prints, one MAC at a time.

    Block loops in schedule order, each with its clamped extent, then the
    kk, j, i loops of the scalar body. The MAC is the one of the kernel for
    ``problem.element_bytes`` (emit.element_type): 4 adds the product in
    the operands' dtype, 2 is mema_q15_mac's rounding, saturating Q15 MAC,
    whose operands must be integers in the int16 range, with C in a dtype
    that holds every int16 value (else ValueError).
    This is the library's one functional executor. The operands may be any
    array-likes; it is the one function here that needs numpy. Returns
    (C + A*B as a numpy array, number of MAC statements executed).
    """
    mac = _MACS[element_type(problem.element_bytes)]
    a, b, c = _check_operands(problem, mac is _q15_mac, a, b, c)
    out = c.copy()
    t = schedule.tile
    bound = {"M": problem.M, "K": problem.K, "N": problem.N}
    step = {"M": t.m, "K": t.k, "N": t.n}
    d0, d1, d2 = schedule.order.dims
    origin = {}  # each block loop writes its own dim's origin here
    macs = 0
    for origin[d0] in range(0, bound[d0], step[d0]):
        for origin[d1] in range(0, bound[d1], step[d1]):
            for origin[d2] in range(0, bound[d2], step[d2]):
                m0, k0, n0 = origin["M"], origin["K"], origin["N"]
                mb = min(t.m, problem.M - m0)
                kb = min(t.k, problem.K - k0)
                nb = min(t.n, problem.N - n0)
                for kk in range(kb):
                    for j in range(nb):
                        for i in range(mb):
                            out[m0 + i, n0 + j] = mac(out[m0 + i, n0 + j],
                                                      a[m0 + i, k0 + kk], b[k0 + kk, n0 + j])
                            macs += 1
    return out, macs
