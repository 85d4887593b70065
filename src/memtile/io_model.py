"""Exact external-IO accounting and loop-order selection for blocked MM.

The multiplication C = C + A*B (A is M x K, B is K x N) is partitioned
into m x k x n computation blocks. Blocks can be visited in six loop
orders, written outer->middle->inner; the innermost dimension alone
determines which operand's tile can stay resident across consecutive
blocks, and with it the total external IO:

    N innermost, A tiles stationary:  MK + KN*ceil(M/m) + 2MN*ceil(K/k)
    M innermost, B tiles stationary:  KN + MK*ceil(N/n) + 2MN*ceil(K/k)
    K innermost, C tiles stationary:  MK*ceil(N/n) + KN*ceil(M/m) + 2MN

All of it follows from one per-operand rule. Clamped edge tiles partition
each operand exactly, so each operand is fetched once per block along the
dimension it does not index (A once per N block, B once per M block, C once
per K block); the stationary operand is fetched once in all; C is stored as
often as it is loaded; and with c_zero the first touch of each C tile skips
its read, removing MN loads in every class. The counts are exact for every
problem, ragged or not; on divisible ones the totals reduce to
MKN*(1/m + 2/k) + MK and its companions. The access-counting simulator
(memtile.sim) counts every block visit of the loop nest and returns the same
IOReport record; it is the independent oracle these counts are tested against.

Everything here is pure and exact: totals and their comparisons are in
integers. The records are immutable tuples. The paper's closed-form
M-first condition is a test oracle (tests/oracles.py), checked against
select_schedule.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .tiling import TileShape


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


class MMProblem(namedtuple("MMProblem", "M K N element_bytes")):
    """One M x K x N multiplication instance (A: M x K, B: K x N, C: M x N)."""

    __slots__ = ()

    def __new__(cls, M: int, K: int, N: int, element_bytes: int = 4) -> MMProblem:
        if min(M, K, N) < 1:
            raise ValueError("matrix dims must be >= 1")
        if element_bytes < 1:
            raise ValueError("element_bytes must be >= 1")
        return super().__new__(cls, M, K, N, element_bytes)

    @property
    def macs(self) -> int:
        return self.M * self.K * self.N


class Schedule(namedtuple("Schedule", "order tile")):
    """A loop order plus tile shape; the stationary operand follows from the order."""

    __slots__ = ()

    @property
    def inner_class(self) -> InnerClass:
        return self.order.inner_class

    @property
    def stationary(self) -> str:
        return self.inner_class.stationary


class IOReport(namedtuple("IOReport", "loads_a loads_b loads_c stores_c "
                          "blocks_executed max_resident_elems")):
    """Exact external element traffic of one schedule, per operand."""

    __slots__ = ()

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
        }


def io_for_class(problem: MMProblem, tile: TileShape, inner_class: InnerClass,
                 *, c_zero: bool = False) -> IOReport:
    """Exact external IO of one class, ragged problems included.

    Block counts are ceilings: clamped edge tiles partition each operand
    exactly. Each operand is loaded once per block along the dimension it
    does not index, the stationary one once in all. C is stored as often as
    it is loaded; with c_zero the first touch of each C tile skips its read,
    removing MN loads. The first block has the largest clamped tiles, so it
    holds the most resident elements.
    """
    M, K, N = problem.M, problem.K, problem.N
    blocks_m, blocks_k, blocks_n = -(-M // tile.m), -(-K // tile.k), -(-N // tile.n)
    stationary = inner_class.stationary
    loads_a = M * K * (1 if stationary == "A" else blocks_n)
    loads_b = K * N * (1 if stationary == "B" else blocks_m)
    loads_c = M * N * (1 if stationary == "C" else blocks_k)
    m, k, n = min(tile.m, M), min(tile.k, K), min(tile.n, N)
    return IOReport(loads_a, loads_b, loads_c - M * N if c_zero else loads_c, loads_c,
                    blocks_m * blocks_k * blocks_n, m * k + k * n + m * n)


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


def pad_to_tiles(problem: MMProblem, tile: TileShape) -> MMProblem:
    """Round every problem dim up to the next tile multiple."""
    return MMProblem(*(-(-x // t) * t for x, t in zip(problem, tile)), problem.element_bytes)
