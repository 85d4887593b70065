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
best_register_tile finds the integer optimum in one pass over m.

For multicore devices the same idea is lifted to constant-bandwidth (CB)
blocks: p cores compute a pm x k x pn block, which takes pmk + kpn + p^2 mn
elements of local memory; derive_cake_block sizes the largest square one
and returns the per-core m x k x n TileShape.

TileShape is an immutable tuple record, checked when built.
Intensities are compared by cross-multiplying integers; hardware.roofline
computes one as a float.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt


class TileShape(namedtuple("TileShape", "m k n")):
    """Dimensions of one computation block: A tile m x k, B tile k x n, C tile m x n."""

    __slots__ = ()

    def __new__(cls, m: int, k: int, n: int) -> TileShape:
        if min(m, k, n) < 1:
            raise ValueError("tile dims must be >= 1")
        return super().__new__(cls, m, k, n)

    @property
    def register_footprint(self) -> int:
        """Element slots for an accumulator tile plus one input column and row."""
        return self.m + self.n + self.m * self.n

    def key(self) -> str:
        return f"{self.m}x{self.k}x{self.n}"


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
    """The (m, n) maximizing mn/(m+n) subject to m + n + mn <= budget.

    Integer budgets between consecutive square sizes are sometimes used
    better by a rectangle, so this can beat the square from
    derive_square_tile. mn/(m+n) grows with n, so each m is best with the
    largest n that fits, (budget - m) // (m + 1). Ties go to larger m.
    """
    if reuse_registers < 3:
        raise ValueError("no feasible tile: need at least 3 reusable registers")
    best_m = best_n = 1
    for m in range(1, (reuse_registers + 1) // 2):  # m + 1 + m <= budget
        n = (reuse_registers - m) // (m + 1)
        if m * n * (best_m + best_n) >= best_m * best_n * (m + n):
            best_m, best_n = m, n
    return best_m, best_n


def derive_cake_block(p: int, local_memory_elems: int) -> TileShape:
    """Largest square per-core CB sub-block (m = k = n) fitting the shared
    local memory, as the TileShape(m, m, m) each of the p cores computes.

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
    return TileShape(m, m, m)
