import math
import random
from fractions import Fraction

import pytest

from memtile.tiling import (
    CBBlock,
    TileShape,
    arithmetic_intensity_of_tile,
    best_register_tile,
    cake_offchip_bw,
    derive_cake_block,
    derive_square_tile,
)


def brute_force_square(budget):
    # independent oracle: scan t upward until the footprint overflows
    t = 0
    while 2 * (t + 1) + (t + 1) ** 2 <= budget:
        t += 1
    return t


def feasible_pairs(budget):
    for m in range(1, budget):
        for n in range(1, budget):
            if m + n + m * n <= budget:
                yield m, n


class TestIntensity:
    def test_unit_tile(self):
        assert arithmetic_intensity_of_tile(1, 1) == 0.5

    def test_square_five(self):
        assert arithmetic_intensity_of_tile(5, 5) == 2.5

    def test_eight_by_twelve(self):
        assert arithmetic_intensity_of_tile(8, 12) == 4.8

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            arithmetic_intensity_of_tile(0, 5)
        with pytest.raises(ValueError):
            arithmetic_intensity_of_tile(5, 0)

    def test_is_the_nearest_float_to_the_exact_rational(self):
        for m in range(1, 65):
            for n in range(1, 65):
                assert arithmetic_intensity_of_tile(m, n) == float(Fraction(m * n, m + n))

    def test_strictly_increasing_on_squares(self):
        values = [arithmetic_intensity_of_tile(t, t) for t in range(1, 60)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestDeriveSquareTile:
    def test_budget_36_gives_5(self):
        assert derive_square_tile(36) == 5

    def test_minimum_budget(self):
        assert derive_square_tile(3) == 1

    def test_budget_20(self):
        assert derive_square_tile(20) == 3

    def test_matches_brute_force(self):
        for budget in range(3, 301):
            assert derive_square_tile(budget) == brute_force_square(budget)

    def test_maximality_invariant(self):
        for budget in range(3, 301):
            t = derive_square_tile(budget)
            assert 2 * t + t * t <= budget
            assert 2 * (t + 1) + (t + 1) ** 2 > budget

    def test_infeasible_budget(self):
        with pytest.raises(ValueError, match="no feasible tile"):
            derive_square_tile(2)

    def test_square_is_best_among_squares(self):
        for budget in range(3, 201):
            t = derive_square_tile(budget)
            best = max(Fraction(s * s, 2 * s) for s in range(1, t + 1)
                       if 2 * s + s * s <= budget)
            assert Fraction(t * t, 2 * t) == best


class TestBestRegisterTile:
    def test_matches_exhaustive_oracle(self):
        for budget in (3, 5, 8, 11, 20, 36, 57, 100):
            best_val = max(Fraction(m * n, m + n) for m, n in feasible_pairs(budget))
            m, n = best_register_tile(budget)
            assert Fraction(m * n, m + n) == best_val

    def test_matches_exhaustive_scan_on_every_budget_to_1000(self):
        # Each pair joins the scan at the budget equal to its footprint
        # m + n + mn, so every budget sees every pair that fits it.
        best = (Fraction(0), 0, 0)  # value, then the larger m, then the larger n
        for budget in range(3, 1001):
            for m in range(1, budget):
                n, rest = divmod(budget - m, m + 1)
                if n >= 1 and rest == 0:
                    best = max(best, (Fraction(m * n, m + n), m, n))
            assert best_register_tile(budget) == best[1:], budget

    def test_tie_break_toward_larger_m(self):
        # at 20, both (3,4) and (4,3) hit 12/7; larger m wins
        assert best_register_tile(20) == (4, 3)

    def test_paper_budget_recovers_the_square(self):
        assert best_register_tile(36) == (5, 5)


class TestTileShape:
    def test_register_footprint(self):
        assert TileShape(5, 1, 5).register_footprint == 35
        assert TileShape(5, 1, 5).fits_registers(36)
        assert not TileShape(6, 1, 6).fits_registers(36)

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            TileShape(0, 1, 1)


class TestDeriveCakeBlock:
    def test_single_core_minimal(self):
        assert derive_cake_block(1, 3).m == 1

    def test_four_cores(self):
        blk = derive_cake_block(4, 2400)
        assert (blk.p, blk.m, blk.k, blk.n) == (4, 10, 10, 10)
        assert blk.block_dims == (40, 10, 40)

    def test_two_cores(self):
        assert derive_cake_block(2, 800).m == 10

    def test_matches_brute_force(self):
        for p in (1, 2, 3, 4, 8):
            for lm in (p * p + 2 * p, 100, 999, 5000, 12345):
                if lm < p * p + 2 * p:
                    continue
                blk = derive_cake_block(p, lm)
                m = 0
                while (m + 1) ** 2 * (2 * p + p * p) <= lm:
                    m += 1
                assert blk.m == m

    def test_footprint_within_budget(self):
        for p in (1, 2, 4, 8):
            for lm in (50, 777, 4096, 100000):
                if lm < p * p + 2 * p:
                    continue
                blk = derive_cake_block(p, lm)
                assert blk.local_memory_footprint <= lm

    def test_infeasible_local_memory(self):
        with pytest.raises(ValueError, match="cannot hold"):
            derive_cake_block(4, 23)


class TestCakeBandwidth:
    def test_unit_block(self):
        assert cake_offchip_bw(1, 1, 1.0) == 2.0

    def test_ten_by_ten(self):
        assert cake_offchip_bw(10, 10, 100.0) == 20.0

    def test_independent_of_core_scaling(self):
        # blocks derived with LM proportional to m^2(2p + p^2) keep m fixed,
        # and the bandwidth formula never sees p at all
        ref = cake_offchip_bw(10, 10, 100.0)
        for p in (1, 2, 4, 8):
            blk = derive_cake_block(p, 100 * (2 * p + p * p))
            assert blk.m == 10
            assert cake_offchip_bw(blk.m, blk.n, 100.0) == ref

    def test_equals_the_rounded_exact_rational(self):
        """The Fraction form is the oracle, its exception included."""
        def exact(m, n, f):
            try:
                return float(Fraction(m + n, m * n) * Fraction(f))
            except OverflowError:
                return OverflowError

        def dim():
            return rng.choice([rng.randrange(1, 100), rng.randrange(1, 10 ** 30)])

        rng = random.Random(35)
        # Huge dims and rates at the ends of the float range, then random ones.
        dims = [1, 2, 3, 7, 10 ** 20, 2 ** 64 - 1, 10 ** 400]
        rates = [1.0, 0.1, 1 / 3, 5e-324, 2.2250738585072014e-308, 1e308, 7, 10 ** 400]
        cases = [(m, n, f) for m in dims for n in dims for f in rates]
        for _ in range(3000):
            rate = rng.choice([rng.uniform(1e-3, 1e9), rng.randrange(1, 10 ** 30),
                               math.ldexp(rng.random() + 0.5, rng.randrange(-1074, 1024))])
            cases.append((dim(), dim(), rate))
        for m, n, f in cases:
            want = exact(m, n, f)
            if want is OverflowError:
                with pytest.raises(OverflowError):
                    cake_offchip_bw(m, n, f)
            else:
                assert cake_offchip_bw(m, n, f) == want, (m, n, f)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cake_offchip_bw(0, 1, 1.0)
        with pytest.raises(ValueError):
            cake_offchip_bw(1, 1, 0.0)


class TestCBBlock:
    def test_footprint_formula(self):
        blk = CBBlock(p=2, m=3, k=4, n=5)
        assert blk.local_memory_footprint == 2 * 3 * 4 + 4 * 2 * 5 + 4 * 3 * 5

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            CBBlock(p=0, m=1, k=1, n=1)
