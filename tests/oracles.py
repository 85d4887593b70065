"""Independent oracles, and models no command runs, for memtile's tests.

No command calls these, so they live beside the tests, not in the package:

  * m_first_condition (criterion 3): the paper's closed-form M-first
    selection condition, in exact rationals, against select_schedule;
  * cake_offchip_bw and measure_cake_bw (criterion 4): a CB block's
    off-chip bandwidth demand in closed form, against IO / time of one
    block; cb_local_memory_footprint is the fit that derive_cake_block's
    blocks are checked against;
  * interpret_kernel (criterion 5): runs the loop nest emit_kernel_source
    prints, one MAC at a time, against numpy's product and the compiled C;
  * check_streaming_hiding (criterion 7): whether writing back a finished
    C row hides under compute, in a StreamTimingReport.

This is the one place the test suite's oracles need numpy; memtile itself
imports only the standard library.
"""

from collections import namedtuple
from fractions import Fraction

import numpy as np

from memtile.emit import element_type
from memtile.hardware import HardwareSpec
from memtile.io_model import MMProblem, Schedule
from memtile.tiling import CBBlock, TileShape


def m_first_condition(problem: MMProblem, tile: TileShape) -> bool:
    """True iff an M-first schedule is no worse than both K-first and N-first.

    Evaluates the pair of inequalities, multiplied out,

        K * (1 + M*(2/k - 1/m)) <= 2M      (M-first vs K-first)
        N * (1 + M*(1/n - 1/m)) <=  M      (M-first vs N-first)

    in exact rationals. Each is the difference of two class totals at the
    rational block counts M/m, K/k, N/n, divided by N or by K; both are
    positive, so the form holds for every tile, whatever the sign of the
    bracket. On divisible problems it agrees with comparing the exact
    totals of io_for_class.
    """
    M, K, N = problem.M, problem.K, problem.N
    m, k, n = tile.m, tile.k, tile.n
    return (K * (1 + M * (Fraction(2, k) - Fraction(1, m))) <= 2 * M
            and N * (1 + M * (Fraction(1, n) - Fraction(1, m))) <= M)


def cake_offchip_bw(m: int, n: int, f: float) -> float:
    """Off-chip bandwidth demand of a CB block: (m+n)/(mn) * f elements/second.

    Independent of the core factor p by construction; with f = num/den
    exactly, it is the one correctly rounded division (m+n)num / (mn den),
    so it compares bit-for-bit against the simulator's IO/time.
    """
    if m < 1 or n < 1:
        raise ValueError("tile dims must be >= 1")
    if f <= 0:
        raise ValueError("per-core peak must be positive")
    num, den = f.as_integer_ratio()
    return (m + n) * num / (m * n * den)


def cb_local_memory_footprint(block: CBBlock) -> int:
    """Local memory a CB block takes: pmk + kpn + p^2 mn elements."""
    return block.p * block.m * block.k + block.k * block.p * block.n \
        + block.p ** 2 * block.m * block.n


def measure_cake_bw(block: CBBlock, hw: HardwareSpec) -> float:
    """Off-chip bandwidth of one simulated CB block: IO / time.

    One pm x k x pn block streams pmk + pnk input elements and performs
    pm*k*pn MACs at an aggregate rate of p * f. Evaluated in exact
    rationals, so the p factors cancel identically and the result equals
    cake_offchip_bw(m, n, f) bit for bit, independent of p.
    """
    p = block.p
    io = p * block.m * block.k + p * block.n * block.k
    macs = (p * block.m) * block.k * (p * block.n)
    time = Fraction(macs) / (p * Fraction(hw.peak_flops_per_core))
    return float(Fraction(io) / time)


def _check_operands(problem: MMProblem, q15: bool, a, b, c) -> tuple:
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
    that holds every int16 value (else ValueError). The operands may be any
    array-likes. Returns (C + A*B as a numpy array, number of MAC
    statements executed).
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


class StreamTimingReport(namedtuple("StreamTimingReport",
                                    "compute_time_per_row writeback_time_per_row hidden")):
    """Can writing one finished output row overlap computing the next one?"""

    __slots__ = ()


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
