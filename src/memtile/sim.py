"""Exact two-level-memory simulator for blocked matrix multiplication.

The model has precisely two storage levels: a local memory that holds one
stationary tile plus the tiles of the block currently being computed, and
an external memory charged one access per element moved. A schedule is
executed as real nested loops over computation blocks, so every load and
store is counted rather than estimated:

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
counted totals equal the ceiling-count formulas in memtile.io_model
exactly, ragged problems included; this module is the independent oracle
those formulas are tested against, never derived from them.

A row-stationary variant that keeps whole output rows resident is the
m = 1 special case of the K-first schedule and is not modeled separately.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator

import numpy as np

from .emit import KernelIR
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


@dataclass(frozen=True)
class SimReport:
    """Exact external access counts from one simulated schedule."""

    loads_a: int
    loads_b: int
    loads_c: int
    stores_c: int
    blocks_executed: int
    max_resident_elems: int
    checksum: float | None = None

    @property
    def total_elems(self) -> int:
        return self.loads_a + self.loads_b + self.loads_c + self.stores_c

    def to_dict(self) -> dict:
        return {
            "loads_a": self.loads_a,
            "loads_b": self.loads_b,
            "loads_c": self.loads_c,
            "stores_c": self.stores_c,
            "total_elems": self.total_elems,
            "blocks_executed": self.blocks_executed,
            "max_resident_elems": self.max_resident_elems,
            "checksum": self.checksum,
        }


@dataclass(frozen=True)
class StreamTimingReport:
    """Can writing one finished output row overlap computing the next one?"""

    compute_time_per_row: float
    writeback_time_per_row: float
    hidden: bool


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class _Visit:
    bi: int
    bk: int
    bj: int
    mi: int
    ki: int
    ni: int
    first_inner: bool
    last_inner: bool


def _visits(problem: MMProblem, schedule: Schedule) -> Iterator[_Visit]:
    """Yield block visits in schedule order with clamped tile extents."""
    t = schedule.tile
    counts = {
        "M": _ceil_div(problem.M, t.m),
        "K": _ceil_div(problem.K, t.k),
        "N": _ceil_div(problem.N, t.n),
    }
    outer, middle, inner = schedule.order.dims
    n_inner = counts[inner]
    for i0 in range(counts[outer]):
        for i1 in range(counts[middle]):
            for i2 in range(n_inner):
                idx = {outer: i0, middle: i1, inner: i2}
                bi, bk, bj = idx["M"], idx["K"], idx["N"]
                yield _Visit(
                    bi=bi, bk=bk, bj=bj,
                    mi=min(t.m, problem.M - bi * t.m),
                    ki=min(t.k, problem.K - bk * t.k),
                    ni=min(t.n, problem.N - bj * t.n),
                    first_inner=i2 == 0,
                    last_inner=i2 == n_inner - 1,
                )


def _accumulate_block(out: np.ndarray, a: np.ndarray, b: np.ndarray,
                      v: _Visit, t: TileShape) -> None:
    # Rank-1 updates in ascending k order; matches the kernel-IR interpreter
    # step for step so float results agree bitwise, not just to tolerance.
    r0 = v.bi * t.m
    k0 = v.bk * t.k
    c0 = v.bj * t.n
    a_blk = a[r0:r0 + v.mi, k0:k0 + v.ki]
    b_blk = b[k0:k0 + v.ki, c0:c0 + v.ni]
    for kk in range(v.ki):
        out[r0:r0 + v.mi, c0:c0 + v.ni] += np.outer(a_blk[:, kk], b_blk[kk, :])


def _execute(problem: MMProblem, schedule: Schedule,
             operands: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    a, b, c = (np.asarray(x) for x in operands)
    out = np.array(c, copy=True)
    for v in _visits(problem, schedule):
        _accumulate_block(out, a, b, v, schedule.tile)
    return out


def _count_accesses(problem: MMProblem, schedule: Schedule, c_zero: bool) -> SimReport:
    # Hot loop: one iteration per block visit, plain ints only. Sweeps over
    # large layer tables execute millions of visits, so no per-visit objects.
    t = schedule.tile
    m_sizes = [min(t.m, problem.M - i * t.m) for i in range(_ceil_div(problem.M, t.m))]
    k_sizes = [min(t.k, problem.K - i * t.k) for i in range(_ceil_div(problem.K, t.k))]
    n_sizes = [min(t.n, problem.N - i * t.n) for i in range(_ceil_div(problem.N, t.n))]
    sizes = {"M": m_sizes, "K": k_sizes, "N": n_sizes}
    outer, middle, inner = schedule.order.dims
    pos = {outer: 0, middle: 1, inner: 2}
    m_pos, k_pos, n_pos = pos["M"], pos["K"], pos["N"]
    n_outer, n_middle, n_inner = len(sizes[outer]), len(sizes[middle]), len(sizes[inner])
    stationary = schedule.stationary
    last = n_inner - 1

    loads_a = loads_b = loads_c = stores_c = 0
    max_resident = 0
    for i0 in range(n_outer):
        for i1 in range(n_middle):
            for i2 in range(n_inner):
                idx = (i0, i1, i2)
                mi = m_sizes[idx[m_pos]]
                ki = k_sizes[idx[k_pos]]
                ni = n_sizes[idx[n_pos]]
                a_sz = mi * ki
                b_sz = ki * ni
                c_sz = mi * ni
                if stationary == "C":
                    if i2 == 0 and not c_zero:
                        loads_c += c_sz
                    loads_a += a_sz
                    loads_b += b_sz
                    if i2 == last:
                        stores_c += c_sz
                else:
                    if stationary == "A":
                        if i2 == 0:
                            loads_a += a_sz
                        loads_b += b_sz
                    else:
                        if i2 == 0:
                            loads_b += b_sz
                        loads_a += a_sz
                    if not (c_zero and idx[k_pos] == 0):
                        loads_c += c_sz
                    stores_c += c_sz
                resident = a_sz + b_sz + c_sz
                if resident > max_resident:
                    max_resident = resident
    tile_cap = t.m * t.k + t.k * t.n + t.m * t.n
    assert max_resident <= tile_cap, "resident footprint exceeded one block's tiles"
    return SimReport(
        loads_a=loads_a,
        loads_b=loads_b,
        loads_c=loads_c,
        stores_c=stores_c,
        blocks_executed=n_outer * n_middle * n_inner,
        max_resident_elems=max_resident,
    )


def simulate_schedule(problem: MMProblem, schedule: Schedule, *, c_zero: bool = False,
                      operands: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                      ) -> SimReport:
    """Count every external element access for one schedule.

    Ragged problems are fine; edge tiles are clamped. When ``operands``
    (A, B, C) are supplied the product is also computed in schedule order
    and reported as a checksum, for functional cross-checking.
    """
    report = _count_accesses(problem, schedule, c_zero)
    if operands is not None:
        _check_operand_dims(problem, *operands)
        out = _execute(problem, schedule, operands)
        report = replace(report, checksum=float(out.sum()))
    return report


def _check_operand_dims(problem: MMProblem, a, b, c) -> None:
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    if a.shape != (problem.M, problem.K) or b.shape != (problem.K, problem.N) \
            or c.shape != (problem.M, problem.N):
        raise ValueError(
            f"operand shapes {a.shape}/{b.shape}/{c.shape} do not match problem "
            f"{problem.M}x{problem.K}x{problem.N}")


def run_functional(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                   schedule: Schedule) -> np.ndarray:
    """Execute the blocked multiplication and return C + A*B.

    The result is independent of loop order up to floating-point
    reassociation; integer inputs reproduce the naive triple loop exactly.
    """
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    if a.ndim != 2 or b.ndim != 2 or c.ndim != 2:
        raise ValueError("operands must be 2-D matrices")
    if a.shape[1] != b.shape[0] or c.shape != (a.shape[0], b.shape[1]):
        raise ValueError(
            f"inconsistent operand shapes: A {a.shape}, B {b.shape}, C {c.shape}")
    problem = MMProblem(a.shape[0], a.shape[1], b.shape[1])
    return _execute(problem, schedule, (a, b, c))


def brute_force_best(problem: MMProblem, tile: TileShape, *, c_zero: bool = False,
                     ) -> tuple[Schedule, SimReport]:
    """Simulate all six loop orders and return the cheapest schedule.

    The search-based oracle for select_schedule: it must pick the same
    schedule as the formulas for every problem, ragged or not.

    The two schemes sharing an inner dimension must produce identical
    reports; any divergence would be a modeling bug, so it raises rather
    than silently picking one. Class ties break K-first, M-first, N-first,
    and the winning class is represented by its canonical scheme.
    """
    by_class: dict[InnerClass, SimReport] = {}
    for order in LoopOrder:
        report = simulate_schedule(problem, Schedule(order, tile), c_zero=c_zero)
        seen = by_class.get(order.inner_class)
        if seen is not None and seen != report:
            raise AssertionError(
                f"schemes sharing inner dim {order.inner_dim} diverged: {seen} vs {report}")
        by_class[order.inner_class] = report
    winner = min(CLASS_PRIORITY, key=lambda cls: by_class[cls].total_elems)
    return Schedule(CANONICAL_ORDER[winner], tile), by_class[winner]


def io_report_from_sim(report: SimReport, inner_class: InnerClass,
                       element_bytes: int = 4) -> IOReport:
    """Split simulated counts into the streamed/stationary decomposition."""
    if inner_class is InnerClass.K_FIRST:
        stationary = report.loads_c + report.stores_c
    elif inner_class is InnerClass.M_FIRST:
        stationary = report.loads_b
    else:
        stationary = report.loads_a
    return IOReport(report.total_elems - stationary, stationary, element_bytes)


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
    if row_len_n < 1:
        raise ValueError("row length must be >= 1")
    compute = tile.k * row_len_n / hw.peak_flops_per_core
    writeback = row_len_n / hw.ext_bandwidth_elems_per_s
    hidden = (Fraction(tile.k) * Fraction(hw.ext_bandwidth_elems_per_s)
              >= Fraction(hw.peak_flops_per_core))
    return StreamTimingReport(compute, writeback, hidden)


def measure_cake_bw(p_cores: int, block: CBBlock, hw: HardwareSpec) -> float:
    """Off-chip bandwidth of one simulated CB block: IO / time.

    One pm x k x pn block streams pmk + pnk input elements and performs
    pm*k*pn MACs at an aggregate rate of p * f. Evaluated in exact
    rationals, so the p factors cancel identically and the result equals
    cake_offchip_bw(m, n, f) bit for bit, independent of p_cores.
    """
    if p_cores != block.p:
        raise ValueError(f"core count {p_cores} does not match block's p={block.p}")
    io = p_cores * block.m * block.k + p_cores * block.n * block.k
    macs = (p_cores * block.m) * block.k * (p_cores * block.n)
    time = Fraction(macs) / (p_cores * Fraction(hw.peak_flops_per_core))
    return float(Fraction(io) / time)


def interpret_kernel(ir: KernelIR, a: np.ndarray, b: np.ndarray,
                     c: np.ndarray) -> tuple[np.ndarray, int]:
    """Execute a kernel IR loop nest directly and count MAC statements.

    Walks the six recorded loops (three block loops, three intra-block
    loops) rather than re-deriving the nest from a schedule, so it serves
    as an independent check on emitted kernels. Returns (result, macs).
    """
    a, b = np.asarray(a), np.asarray(b)
    out = np.array(c, copy=True)
    blk0, blk1, blk2 = ir.loops[:3]
    in0, in1, in2 = ir.loops[3:]
    dim_bounds = {l.dim: l.bound for l in ir.loops[:3]}
    macs = 0
    for v0 in range(0, blk0.bound, blk0.step):
        for v1 in range(0, blk1.bound, blk1.step):
            for v2 in range(0, blk2.bound, blk2.step):
                base = {blk0.dim: v0, blk1.dim: v1, blk2.dim: v2}
                ext0 = min(in0.bound, dim_bounds[in0.dim] - base[in0.dim])
                ext1 = min(in1.bound, dim_bounds[in1.dim] - base[in1.dim])
                ext2 = min(in2.bound, dim_bounds[in2.dim] - base[in2.dim])
                for w0 in range(ext0):
                    for w1 in range(ext1):
                        for w2 in range(ext2):
                            off = {in0.dim: w0, in1.dim: w1, in2.dim: w2}
                            i = base["M"] + off["M"]
                            kk = base["K"] + off["K"]
                            j = base["N"] + off["N"]
                            out[i, j] = out[i, j] + a[i, kk] * b[kk, j]
                            macs += 1
    return out, macs
