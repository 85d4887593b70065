"""Exact external-IO accounting and loop-order selection for blocked MM.

The multiplication C = C + A*B (A is M x K, B is K x N) is partitioned
into m x k x n computation blocks. Blocks can be visited in six loop
orders, written outer->middle->inner; the innermost dimension alone
determines which operand's tile can stay resident across consecutive
blocks, and with it the total external IO:

    N innermost, A tiles stationary:  MK + KN*ceil(M/m) + 2MN*ceil(K/k)
    M innermost, B tiles stationary:  KN + MK*ceil(N/n) + 2MN*ceil(K/k)
    K innermost, C tiles stationary:  MK*ceil(N/n) + KN*ceil(M/m) + 2MN

Clamped edge tiles partition each operand exactly, so a streamed operand
is fetched once per block along the dimension it does not index, and the
counts are exact for every problem, ragged or not. The factor 2 on MN
terms counts partial C tiles being both read and written; for K-first the
2MN is the stationary C loaded once and stored once. On divisible
problems the totals reduce to MKN*(1/m + 2/k) + MK and its companions.
The access-counting simulator (memtile.sim) executes the loop nest and is
the independent oracle these counts are tested against.

Everything here is pure and exact: totals are integers, and the selection
condition is evaluated in rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .tiling import TileShape


class DivisibilityError(ValueError):
    """Raised by the CLI for a ragged problem given without --pad or --simulate."""


class InnerClass(Enum):
    """IO class of a block loop order, keyed on the innermost dimension."""

    M_FIRST = "M-first"
    N_FIRST = "N-first"
    K_FIRST = "K-first"

    @property
    def stationary(self) -> str:
        """Operand held in local memory across the inner loop."""
        return {InnerClass.M_FIRST: "B", InnerClass.N_FIRST: "A", InnerClass.K_FIRST: "C"}[self]


class LoopOrder(Enum):
    """The six block-scheduling schemes, written outer->middle->inner."""

    MNK = "M->N->K"
    NMK = "N->M->K"
    MKN = "M->K->N"
    NKM = "N->K->M"
    KMN = "K->M->N"
    KNM = "K->N->M"

    @property
    def dims(self) -> tuple[str, str, str]:
        """(outer, middle, inner) dimension names."""
        name = self.name
        return (name[0], name[1], name[2])

    @property
    def inner_dim(self) -> str:
        return self.name[2]

    @property
    def inner_class(self) -> InnerClass:
        return {"M": InnerClass.M_FIRST, "N": InnerClass.N_FIRST,
                "K": InnerClass.K_FIRST}[self.inner_dim]

    @classmethod
    def parse(cls, text: str) -> "LoopOrder":
        """Accept either 'M->N->K' or the compact 'MNK' spelling."""
        compact = text.replace("->", "").replace(" ", "").upper()
        try:
            return cls[compact]
        except KeyError:
            raise ValueError(
                f"unknown loop order {text!r}; expected one of "
                f"{[o.value for o in cls]}") from None


# Deterministic preferences: class tie-break order, and the canonical
# scheme representing each class (first of its class in the enumeration).
CLASS_PRIORITY = (InnerClass.K_FIRST, InnerClass.M_FIRST, InnerClass.N_FIRST)
CANONICAL_ORDER = {
    InnerClass.K_FIRST: LoopOrder.MNK,
    InnerClass.N_FIRST: LoopOrder.MKN,
    InnerClass.M_FIRST: LoopOrder.NKM,
}


@dataclass(frozen=True)
class MMProblem:
    """One M x K x N multiplication instance (A: M x K, B: K x N, C: M x N)."""

    M: int
    K: int
    N: int
    element_bytes: int = 4

    def __post_init__(self) -> None:
        if min(self.M, self.K, self.N) < 1:
            raise ValueError("matrix dims must be >= 1")
        if self.element_bytes < 1:
            raise ValueError("element_bytes must be >= 1")

    @property
    def macs(self) -> int:
        return self.M * self.K * self.N


@dataclass(frozen=True)
class Schedule:
    """A loop order plus tile shape; the stationary operand follows from the order."""

    order: LoopOrder
    tile: TileShape

    @property
    def inner_class(self) -> InnerClass:
        return self.order.inner_class

    @property
    def stationary(self) -> str:
        return self.inner_class.stationary


@dataclass(frozen=True)
class IOReport:
    """External element traffic split into streamed and stationary parts."""

    streaming_elems: int
    stationary_elems: int
    element_bytes: int = 4

    @property
    def total_elems(self) -> int:
        return self.streaming_elems + self.stationary_elems

    @property
    def total_bytes(self) -> int:
        return self.total_elems * self.element_bytes


def _class_traffic(M: int, K: int, N: int, blocks_m, blocks_k, blocks_n,
                   inner_class: InnerClass) -> tuple:
    """(streamed, stationary) elements for one class, before any c_zero saving.

    Each operand is fetched once per block along the dimension it does not
    index, unless it is the stationary one, which is fetched once in all.
    """
    if inner_class is InnerClass.K_FIRST:
        return M * K * blocks_n + K * N * blocks_m, 2 * M * N
    if inner_class is InnerClass.N_FIRST:
        return K * N * blocks_m + 2 * M * N * blocks_k, M * K
    return M * K * blocks_n + 2 * M * N * blocks_k, K * N


def io_for_class(problem: MMProblem, tile: TileShape, inner_class: InnerClass,
                 *, c_zero: bool = False) -> IOReport:
    """Exact external IO of one class, ragged problems included.

    Block counts are ceilings: clamped edge tiles partition each operand
    exactly. With c_zero the first touch of each C tile skips its read,
    removing MN loads (from the stationary C under K-first, from the
    streamed partial C otherwise).
    """
    M, K, N = problem.M, problem.K, problem.N
    streaming, stationary = _class_traffic(
        M, K, N, -(-M // tile.m), -(-K // tile.k), -(-N // tile.n), inner_class)
    if c_zero:
        if inner_class is InnerClass.K_FIRST:
            stationary -= M * N
        else:
            streaming -= M * N
    return IOReport(streaming, stationary, problem.element_bytes)


def all_class_io(problem: MMProblem, tile: TileShape,
                 *, c_zero: bool = False) -> dict[InnerClass, IOReport]:
    return {cls: io_for_class(problem, tile, cls, c_zero=c_zero) for cls in CLASS_PRIORITY}


def select_schedule(problem: MMProblem, tile: TileShape, *, c_zero: bool = False) -> Schedule:
    """Schedule whose class minimizes total IO.

    Ties break K-first, then M-first, then N-first; the returned scheme is
    the canonical representative of the winning class.
    """
    reports = all_class_io(problem, tile, c_zero=c_zero)
    winner = min(CLASS_PRIORITY, key=lambda cls: reports[cls].total_elems)
    return Schedule(order=CANONICAL_ORDER[winner], tile=tile)


def formula_total(M: int, K: int, N: int, m: int, k: int, n: int,
                  inner_class: InnerClass) -> Fraction:
    """The io_for_class total at rational block counts M/m, K/k, N/n.

    This is the continuous relaxation the selection condition works in; it
    equals the exact count when the tile divides the problem.
    """
    return sum(_class_traffic(M, K, N, Fraction(M, m), Fraction(K, k), Fraction(N, n),
                              inner_class), Fraction(0))


def m_first_condition(problem: MMProblem, tile: TileShape) -> bool:
    """True iff an M-first schedule is no worse than both K-first and N-first.

    Evaluates the pair of inequalities

        K <= 2M / (1 + M*(2/k - 1/m))      (M-first vs K-first)
        N <=  M / (1 + M*(1/n - 1/m))      (M-first vs N-first)

    in exact rationals. When a denominator is not positive the division form
    is degenerate (the corresponding inequality then holds for every K or N),
    so the comparison falls back to the class totals directly; either path is
    algebraically equivalent to comparing the three formula_total values.
    """
    M, K, N = problem.M, problem.K, problem.N
    m, k, n = tile.m, tile.k, tile.n
    den_k = 1 + M * (Fraction(2, k) - Fraction(1, m))
    den_n = 1 + M * (Fraction(1, n) - Fraction(1, m))
    if den_k > 0 and den_n > 0:
        return K <= Fraction(2 * M) / den_k and N <= Fraction(M) / den_n
    m_total = formula_total(M, K, N, m, k, n, InnerClass.M_FIRST)
    return (m_total <= formula_total(M, K, N, m, k, n, InnerClass.K_FIRST)
            and m_total <= formula_total(M, K, N, m, k, n, InnerClass.N_FIRST))


def pad_to_tiles(problem: MMProblem, tile: TileShape) -> MMProblem:
    """Round every problem dim up to the next tile multiple."""
    def up(x: int, t: int) -> int:
        return ((x + t - 1) // t) * t

    return MMProblem(up(problem.M, tile.m), up(problem.K, tile.k),
                     up(problem.N, tile.n), problem.element_bytes)
