"""Exact two-level-memory simulator for blocked matrix multiplication.

The model has precisely two storage levels: a local memory that holds one
stationary tile plus the tiles of the block currently being computed, and
an external memory charged one access per element moved. Every block visit
of a schedule's loop nest is counted one by one, with its own clamped tile
sizes, so every load and store is counted rather than estimated. The visits
are counted in numpy vector steps of a bounded number of visits each, which
bounds memory for every shape. The rules per visit are:

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
the emitted kernel's loop nest and is the one functional executor.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .emit import element_type
from .hardware import HardwareSpec
from .io_model import (
    CANONICAL_ORDER,
    CLASS_PRIORITY,
    InnerClass,
    IOReport,
    LoopOrder,
    MMProblem,
    Schedule,
)
from .tiling import CBBlock, TileShape


class StreamTimingReport(namedtuple("StreamTimingReport",
                                    "compute_time_per_row writeback_time_per_row hidden")):
    """Can writing one finished output row overlap computing the next one?"""

    __slots__ = ()


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# Block visits per vector step: bounds a step's arrays for every shape.
_STEP_VISITS = 1 << 14


def _step_dtype(largest: int) -> type:
    """The narrowest array dtype in which no per-visit value or step sum wraps.

    ``largest`` bounds every dim and every visit's resident elements. numpy
    sums int32 arrays in int64; object arrays of Python ints never wrap.
    """
    if largest < 2**31:
        return np.int32
    if _STEP_VISITS * largest < 2**63:
        return np.int64
    return object


def simulate_schedule(problem: MMProblem, schedule: Schedule, *, c_zero: bool = False,
                      ) -> IOReport:
    """Count every external element access for one schedule.

    Ragged problems are fine; edge tiles are clamped. Only accesses are
    counted; interpret_kernel computes the product.
    """
    # One vector step broadcasts a run of flattened (outer, middle) rows
    # against a span of the absolute inner index, at most _STEP_VISITS
    # visits, and charges each visit its own clamped tile sizes. A charge
    # that applies to some visits only is the size times a per-visit mask.
    t = schedule.tile
    full = {"M": problem.M, "K": problem.K, "N": problem.N}
    edge = {"M": t.m, "K": t.k, "N": t.n}
    counts = {d: _ceil_div(full[d], edge[d]) for d in full}
    outer, middle, inner = schedule.order.dims
    n_middle, n_inner = counts[middle], counts[inner]
    n_rows = counts[outer] * n_middle
    span = min(n_inner, _STEP_VISITS)
    rows_per_step = _STEP_VISITS // span
    stationary = schedule.stationary
    tile_cap = t.m * t.k + t.k * t.n + t.m * t.n
    dtype = _step_dtype(max(*full.values(), tile_cap))

    loads_a = loads_b = loads_c = stores_c = 0
    max_resident = 0
    for r0 in range(0, n_rows, rows_per_step):
        rows = np.arange(r0, min(r0 + rows_per_step, n_rows), dtype=dtype)[:, None]
        for j0 in range(0, n_inner, span):
            i2 = np.arange(j0, min(j0 + span, n_inner), dtype=dtype)
            idx = {outer: rows // n_middle, middle: rows % n_middle, inner: i2}
            mi, ki, ni = (np.minimum(edge[d], full[d] - edge[d] * idx[d]) for d in "MKN")
            # The stationary tile's sizes vary along the rows only; the
            # streamed operands index the inner dim, so theirs fill the step.
            a_sz, b_sz, c_sz = mi * ki, ki * ni, mi * ni
            first = i2 == 0
            if stationary == "C":
                if not c_zero:
                    loads_c += int((c_sz * first).sum())
                loads_a += int(a_sz.sum())
                loads_b += int(b_sz.sum())
                stores_c += int((c_sz * (i2 == n_inner - 1)).sum())
            else:
                if stationary == "A":
                    loads_a += int((a_sz * first).sum())
                    loads_b += int(b_sz.sum())
                else:
                    loads_b += int((b_sz * first).sum())
                    loads_a += int(a_sz.sum())
                written = int(c_sz.sum())
                loads_c += int((c_sz * (idx["K"] != 0)).sum()) if c_zero else written
                stores_c += written
            max_resident = max(max_resident, int((a_sz + b_sz + c_sz).max()))
    assert max_resident <= tile_cap, "resident footprint exceeded one block's tiles"
    return IOReport(
        loads_a=loads_a,
        loads_b=loads_b,
        loads_c=loads_c,
        stores_c=stores_c,
        blocks_executed=n_rows * n_inner,
        max_resident_elems=max_resident,
    )


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


def _check_operands(problem: MMProblem, q15: bool, a, b, c) -> tuple[np.ndarray, ...]:
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


def interpret_kernel(problem: MMProblem, schedule: Schedule, a: np.ndarray, b: np.ndarray,
                     c: np.ndarray) -> tuple[np.ndarray, int]:
    """Run the loop nest emit_kernel_source prints, one MAC at a time.

    Block loops in schedule order, each with its clamped extent, then the
    kk, j, i loops of the scalar body. The MAC is the one of the kernel for
    ``problem.element_bytes`` (emit.element_type): 4 adds the product in
    the operands' dtype, 2 is mema_q15_mac's rounding, saturating Q15 MAC,
    whose operands must be integers in the int16 range, with C in a dtype
    that holds every int16 value (else ValueError).
    This is the library's one functional executor. Returns (C + A*B, number
    of MAC statements executed).
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
