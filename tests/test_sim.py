import random
from fractions import Fraction

import numpy as np
import pytest

from memtile.hardware import HardwareSpec
from memtile.io_model import (
    InnerClass,
    LoopOrder,
    MMProblem,
    Schedule,
    io_for_class,
    select_schedule,
)
from memtile.sim import (
    brute_force_best,
    check_streaming_hiding,
    io_report_from_sim,
    measure_cake_bw,
    run_functional,
    simulate_schedule,
)
from memtile.tiling import CBBlock, TileShape, cake_offchip_bw, derive_cake_block

T5 = TileShape(5, 5, 5)

ORDERS_BY_CLASS = {
    InnerClass.K_FIRST: (LoopOrder.MNK, LoopOrder.NMK),
    InnerClass.N_FIRST: (LoopOrder.MKN, LoopOrder.KMN),
    InnerClass.M_FIRST: (LoopOrder.NKM, LoopOrder.KNM),
}


def make_hw(peak, bw, cores=1):
    return HardwareSpec("t", 36, 4096, bw, peak, cores)


def naive_mm(a, b, c):
    return np.asarray(c) + np.asarray(a) @ np.asarray(b)


class TestSingleBlock:
    def test_every_order_loads_one_tile_each(self):
        p = MMProblem(5, 5, 5)
        for order in LoopOrder:
            rep = simulate_schedule(p, Schedule(order, T5))
            assert rep.loads_a == 25
            assert rep.loads_b == 25
            assert rep.loads_c == 25
            assert rep.stores_c == 25
            assert rep.blocks_executed == 1

    def test_two_blocks_m_first(self):
        rep = simulate_schedule(MMProblem(10, 5, 5), Schedule(LoopOrder.NKM, T5))
        assert rep.loads_a == 50
        assert rep.loads_b == 25  # stationary across the inner M loop
        assert rep.loads_c == 50
        assert rep.stores_c == 50
        assert rep.total_elems == 175


class TestOracleEquivalence:
    def test_matches_closed_forms_on_divisible_grid(self):
        rng = random.Random(31)
        for _ in range(60):
            m, k, n = (rng.randint(1, 6) for _ in range(3))
            p = MMProblem(m * rng.randint(1, 8), k * rng.randint(1, 8),
                          n * rng.randint(1, 8))
            t = TileShape(m, k, n)
            for cls, orders in ORDERS_BY_CLASS.items():
                expected = io_for_class(p, t, cls).total_elems
                for order in orders:
                    rep = simulate_schedule(p, Schedule(order, t))
                    assert rep.total_elems == expected

    def test_matches_closed_forms_with_c_zero(self):
        p = MMProblem(20, 15, 10)
        t = TileShape(5, 5, 5)
        for cls, orders in ORDERS_BY_CLASS.items():
            expected = io_for_class(p, t, cls, c_zero=True).total_elems
            for order in orders:
                rep = simulate_schedule(p, Schedule(order, t), c_zero=True)
                assert rep.total_elems == expected

    def test_schemes_sharing_inner_dim_identical(self):
        for p in (MMProblem(40, 40, 40), MMProblem(64, 5, 32), MMProblem(7, 9, 11)):
            for first, second in ORDERS_BY_CLASS.values():
                rep1 = simulate_schedule(p, Schedule(first, T5))
                rep2 = simulate_schedule(p, Schedule(second, T5))
                assert rep1 == rep2

    def test_stream_stationary_split_matches_formulas(self):
        p = MMProblem(40, 20, 35)
        for cls, orders in ORDERS_BY_CLASS.items():
            rep = simulate_schedule(p, Schedule(orders[0], T5))
            expected = io_for_class(p, T5, cls)
            split = io_report_from_sim(rep, cls, p.element_bytes)
            assert split.streaming_elems == expected.streaming_elems
            assert split.stationary_elems == expected.stationary_elems


class TestRaggedProblems:
    def test_edge_tiles_clamped(self):
        rep = simulate_schedule(MMProblem(64, 5, 32), Schedule(LoopOrder.NKM, T5))
        assert rep.blocks_executed == 13 * 1 * 7

    def test_ragged_counts_by_hand(self):
        # 64x5x32 with 5x5x5 tiles: 13 M-blocks (last of height 4), one
        # K-block, 7 N-blocks (last of width 2)
        p = MMProblem(64, 5, 32)
        m_first = simulate_schedule(p, Schedule(LoopOrder.NKM, T5))
        assert m_first.loads_a == 7 * 64 * 5
        assert m_first.loads_b == 5 * 32
        assert m_first.loads_c == 64 * 32
        assert m_first.stores_c == 64 * 32
        assert m_first.total_elems == 6496
        k_first = simulate_schedule(p, Schedule(LoopOrder.MNK, T5))
        assert k_first.total_elems == 8416

    def test_brute_force_on_ragged_problem(self):
        schedule, rep = brute_force_best(MMProblem(64, 5, 32), T5)
        assert schedule.inner_class is InnerClass.M_FIRST
        assert rep.total_elems == 6496

    def test_tile_larger_than_problem(self):
        rep = simulate_schedule(MMProblem(3, 2, 4), Schedule(LoopOrder.MNK, TileShape(5, 5, 5)))
        assert rep.blocks_executed == 1
        assert rep.total_elems == 3 * 2 + 2 * 4 + 2 * 3 * 4


class TestRaggedOracle:
    """The ceiling-count formulas against the loop-nest simulator, zero tolerance."""

    @staticmethod
    def ragged_cases(seed, count):
        rng = random.Random(seed)
        cases = []
        while len(cases) < count:
            t = TileShape(*(rng.randint(1, 8) for _ in range(3)))
            p = MMProblem(*(rng.randint(1, 30) for _ in range(3)))
            if p.M % t.m or p.K % t.k or p.N % t.n:
                cases.append((p, t))
        return cases

    def test_every_order_and_split_matches_simulator(self):
        for p, t in self.ragged_cases(seed=2024, count=1000):
            for c_zero in (False, True):
                for order in LoopOrder:
                    rep = simulate_schedule(p, Schedule(order, t), c_zero=c_zero)
                    counted = io_report_from_sim(rep, order.inner_class, p.element_bytes)
                    exact = io_for_class(p, t, order.inner_class, c_zero=c_zero)
                    assert exact == counted, (p, t, order, c_zero)

    def test_selection_matches_brute_force(self):
        for p, t in self.ragged_cases(seed=7, count=300):
            for c_zero in (False, True):
                schedule, rep = brute_force_best(p, t, c_zero=c_zero)
                assert select_schedule(p, t, c_zero=c_zero) == schedule
                assert io_for_class(p, t, schedule.inner_class, c_zero=c_zero).total_elems \
                    == rep.total_elems


class TestBruteForce:
    def test_skewed_problem(self):
        schedule, rep = brute_force_best(MMProblem(40, 5, 40), T5)
        assert schedule.inner_class is InnerClass.M_FIRST
        assert rep.total_elems == 5000

    def test_cube_tie_break(self):
        schedule, _ = brute_force_best(MMProblem(5, 5, 5), T5)
        assert schedule.inner_class is InnerClass.K_FIRST
        schedule, _ = brute_force_best(MMProblem(40, 40, 40), T5)
        assert schedule.inner_class is InnerClass.K_FIRST


class TestFootprintAndConservation:
    def test_max_resident_is_one_block(self):
        p = MMProblem(40, 40, 40)
        for order in LoopOrder:
            rep = simulate_schedule(p, Schedule(order, T5))
            assert rep.max_resident_elems == 5 * 5 + 5 * 5 + 5 * 5

    def test_c_write_volume_per_class(self):
        p = MMProblem(40, 20, 35)
        t = TileShape(5, 5, 5)
        k_first = simulate_schedule(p, Schedule(LoopOrder.MNK, t))
        assert k_first.loads_c == k_first.stores_c == p.M * p.N
        m_first = simulate_schedule(p, Schedule(LoopOrder.NKM, t))
        assert m_first.stores_c == p.M * p.N * (p.K // t.k)
        n_first = simulate_schedule(p, Schedule(LoopOrder.MKN, t))
        assert n_first.stores_c == p.M * p.N * (p.K // t.k)


class TestFunctional:
    def test_identity_a_returns_b(self):
        b = np.arange(30, dtype=np.int64).reshape(6, 5)
        out = run_functional(np.eye(6, dtype=np.int64), b, np.zeros((6, 5), dtype=np.int64),
                             Schedule(LoopOrder.MNK, TileShape(4, 2, 3)))
        assert np.array_equal(out, b)

    def test_zero_a_leaves_c(self):
        rng = np.random.default_rng(5)
        c = rng.integers(-9, 9, (7, 11)).astype(np.int64)
        out = run_functional(np.zeros((7, 9), dtype=np.int64),
                             rng.integers(-9, 9, (9, 11)).astype(np.int64),
                             c, Schedule(LoopOrder.KNM, T5))
        assert np.array_equal(out, c)

    def test_ragged_integer_exactness(self):
        rng = np.random.default_rng(17)
        a = rng.integers(-50, 50, (7, 9)).astype(np.int64)
        b = rng.integers(-50, 50, (9, 11)).astype(np.int64)
        c = rng.integers(-50, 50, (7, 11)).astype(np.int64)
        for order in LoopOrder:
            out = run_functional(a, b, c, Schedule(order, T5))
            assert np.array_equal(out, naive_mm(a, b, c))

    def test_float_tolerance(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((12, 13))
        b = rng.standard_normal((13, 8))
        c = rng.standard_normal((12, 8))
        for order in LoopOrder:
            out = run_functional(a, b, c, Schedule(order, TileShape(4, 3, 5)))
            ref = naive_mm(a, b, c)
            assert np.allclose(out, ref, rtol=1e-6, atol=0)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            run_functional(np.zeros((3, 4)), np.zeros((5, 6)), np.zeros((3, 6)),
                           Schedule(LoopOrder.MNK, T5))

    def test_checksum_matches_functional_result(self):
        rng = np.random.default_rng(29)
        a = rng.integers(0, 9, (10, 10)).astype(np.int64)
        b = rng.integers(0, 9, (10, 10)).astype(np.int64)
        c = np.zeros((10, 10), dtype=np.int64)
        schedule = Schedule(LoopOrder.MNK, T5)
        rep = simulate_schedule(MMProblem(10, 10, 10), schedule, operands=(a, b, c))
        assert rep.checksum == float(run_functional(a, b, c, schedule).sum())

    def test_operand_shape_checked_against_problem(self):
        with pytest.raises(ValueError):
            simulate_schedule(MMProblem(4, 4, 4), Schedule(LoopOrder.MNK, T5),
                              operands=(np.zeros((3, 4)), np.zeros((4, 4)), np.zeros((4, 4))))


class TestStreamingHiding:
    def test_boundary_equality_is_hidden(self):
        rep = check_streaming_hiding(make_hw(100.0, 100.0), TileShape(5, 1, 5), 8)
        assert rep.hidden is True
        assert rep.compute_time_per_row == rep.writeback_time_per_row

    def test_below_threshold(self):
        rep = check_streaming_hiding(make_hw(100.0, 10.0), TileShape(5, 5, 5), 8)
        assert rep.hidden is False

    def test_above_threshold(self):
        rep = check_streaming_hiding(make_hw(100.0, 10.0), TileShape(5, 16, 5), 8)
        assert rep.hidden is True

    def test_flip_exactly_at_ceiling(self):
        rng = random.Random(41)
        for _ in range(30):
            peak = rng.uniform(1, 1e6)
            bw = rng.uniform(1, 1e6)
            threshold = -((-Fraction(peak)) // Fraction(bw))  # ceil(peak/bw), exact
            threshold = int(threshold)
            for k in range(max(1, threshold - 2), threshold + 3):
                rep = check_streaming_hiding(make_hw(peak, bw), TileShape(3, k, 3), 7)
                assert rep.hidden == (k >= threshold)


class TestCakeBandwidth:
    def test_unit_block(self):
        hw = make_hw(1.0, 1.0)
        assert measure_cake_bw(1, CBBlock(1, 1, 1, 1), hw) == 2.0

    def test_equals_formula_and_core_invariant(self):
        hw = make_hw(100.0, 1.0)
        values = []
        for p in (1, 2, 4, 8):
            blk = derive_cake_block(p, 100 * (2 * p + p * p))
            values.append(measure_cake_bw(p, blk, hw))
            assert values[-1] == cake_offchip_bw(blk.m, blk.n, 100.0)
        assert len(set(values)) == 1

    def test_core_count_must_match_block(self):
        with pytest.raises(ValueError, match="does not match"):
            measure_cake_bw(2, CBBlock(4, 10, 10, 10), make_hw(1.0, 1.0))
