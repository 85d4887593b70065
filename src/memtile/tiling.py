"""Tile-shape derivation that maximizes compute per element of external IO.

A rank-1 update of an m x n accumulator tile performs m*n MACs while
consuming m + n streamed inputs, so its arithmetic intensity is
mn/(m+n). Holding the accumulator plus one input column and one input row
resident costs m + n + mn element slots. Restricting to square tiles
(m = n = t) turns the budget constraint into 2t + t^2 <= R, which this
module solves in closed form.

Every integer pair within the budget obeys mn/(m+n) <= (sqrt(R+1) - 1)/2:
with a = m+1, b = n+1 the budget is ab - 1 <= R and the intensity is
(ab-1)/(a+b-2) - 1, which for a fixed product ab peaks at a = b and grows
with ab. The square meets the bound exactly when R+1 is a perfect square.
Between square footprints a rectangle can use the leftover slots better;
best_register_tile finds the integer optimum by exhaustive search.

For multicore devices the same idea is lifted to constant-bandwidth (CB)
blocks: scaling a block from m x k x n to pm x k x pn when p cores are
used keeps the off-chip bandwidth demand (m+n)/(mn) * f independent of p,
at the price of local memory growing as pmk + kpn + p^2 mn.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt


@dataclass(frozen=True)
class TileShape:
    """Dimensions of one computation block: A tile m x k, B tile k x n, C tile m x n."""

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) < 1:
            raise ValueError("tile dims must be >= 1")

    @property
    def register_footprint(self) -> int:
        """Element slots for an accumulator tile plus one input column and row."""
        return self.m + self.n + self.m * self.n

    def fits_registers(self, reuse_registers: int) -> bool:
        return self.register_footprint <= reuse_registers

    def key(self) -> str:
        return f"{self.m}x{self.k}x{self.n}"


@dataclass(frozen=True)
class CBBlock:
    """Constant-bandwidth block: p cores each compute an m x k x n sub-block.

    The full block has shape pm x k x pn; its C tile (pm x pn) stays in the
    shared local memory while A (pm x k) and B (k x pn) tiles stream through.
    """

    p: int
    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.p < 1 or min(self.m, self.k, self.n) < 1:
            raise ValueError("CB block dims and core factor must be >= 1")

    @property
    def block_dims(self) -> tuple[int, int, int]:
        return (self.p * self.m, self.k, self.p * self.n)

    @property
    def local_memory_footprint(self) -> int:
        return self.p * self.m * self.k + self.k * self.p * self.n + self.p ** 2 * self.m * self.n


def arithmetic_intensity_of_tile(m: int, n: int) -> float:
    """MACs per streamed input element for an m x n accumulator tile: mn/(m+n)."""
    if m < 1 or n < 1:
        raise ValueError("tile dims must be >= 1")
    return float(Fraction(m * n, m + n))


def derive_square_tile(reuse_registers: int) -> int:
    """Largest t with 2t + t^2 <= reuse_registers.

    2t + t^2 <= R is (t+1)^2 <= R+1, so t = isqrt(R+1) - 1 exactly.
    The square's intensity t/2 reaches the bound (sqrt(R+1) - 1)/2 on
    mn/(m+n) over all pairs with m + n + mn <= R exactly when R+1 is a
    perfect square; otherwise best_register_tile can do better.
    """
    if reuse_registers < 3:
        raise ValueError("no feasible tile: need at least 3 reusable registers")
    return isqrt(reuse_registers + 1) - 1


def best_register_tile(reuse_registers: int) -> tuple[int, int]:
    """Exhaustive (m, n) maximizing mn/(m+n) subject to m + n + mn <= budget.

    Integer budgets between consecutive square sizes are sometimes used
    better by a rectangle, so this can beat the square from
    derive_square_tile. Ties go to larger m, then larger n.
    """
    if reuse_registers < 3:
        raise ValueError("no feasible tile: need at least 3 reusable registers")
    best_val = Fraction(0)
    best_pair = (1, 1)
    for m in range(1, reuse_registers):
        if m + 1 + m > reuse_registers:
            break
        for n in range(1, reuse_registers):
            if m + n + m * n > reuse_registers:
                break
            val = Fraction(m * n, m + n)
            if val > best_val or (val == best_val and (m, n) > best_pair):
                best_val = val
                best_pair = (m, n)
    return best_pair


def derive_cake_block(p: int, local_memory_elems: int) -> CBBlock:
    """Largest square CB sub-block (m = k = n) fitting the shared local memory.

    With m = k = n the footprint pmk + kpn + p^2 mn becomes m^2 (2p + p^2),
    so m = isqrt(LM // (2p + p^2)).
    """
    if p < 1:
        raise ValueError("core factor must be >= 1")
    unit = 2 * p + p ** 2
    if local_memory_elems < unit:
        raise ValueError(
            f"local memory of {local_memory_elems} elements cannot hold a CB block "
            f"for p={p} (needs at least {unit})")
    m = isqrt(local_memory_elems // unit)
    return CBBlock(p=p, m=m, k=m, n=m)


def cake_offchip_bw(m: int, n: int, f: float) -> float:
    """Off-chip bandwidth demand of a CB block: (m+n)/(mn) * f elements/second.

    Independent of the core factor p by construction; computed through exact
    rationals so it compares bit-for-bit against the simulator's IO/time.
    """
    if m < 1 or n < 1:
        raise ValueError("tile dims must be >= 1")
    if f <= 0:
        raise ValueError("per-core peak must be positive")
    return float(Fraction(m + n, m * n) * Fraction(f))

