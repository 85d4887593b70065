import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from memtile import sim
from memtile.benchmarks import benchmark_names
from memtile.cli import main
from memtile.emit import emit_descriptor
from memtile.hardware import HardwareSpec, fixture_hardware, fixture_names
from memtile.io_model import (
    InnerClass,
    IOReport,
    LoopOrder,
    MMProblem,
    Schedule,
    io_for_class,
    select_schedule,
)
from memtile.sim import brute_force_best, simulate_schedule
from memtile.tiling import TileShape, derive_cake_block
from oracles import (
    CBBlock,
    cake_offchip_bw,
    check_streaming_hiding,
    interpret_kernel,
    measure_cake_bw,
)

T5 = TileShape(5, 5, 5)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(sim.__file__)))  # memtile's parent

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
        # The descriptor splits off the stationary operand's traffic: A or B
        # loaded once, or C loaded once and stored once.
        p = MMProblem(40, 20, 35)
        stationary = {InnerClass.N_FIRST: p.M * p.K, InnerClass.M_FIRST: p.K * p.N,
                      InnerClass.K_FIRST: 2 * p.M * p.N}
        hw = make_hw(64e6, 64e6)
        totals = {cls: io_for_class(p, T5, cls).total_elems for cls in InnerClass}
        for cls, orders in ORDERS_BY_CLASS.items():
            schedule = Schedule(orders[0], T5)
            counted = emit_descriptor(p, schedule, simulate_schedule(p, schedule), hw, totals)
            assert counted == emit_descriptor(p, schedule, io_for_class(p, T5, cls), hw, totals)
            assert counted.stationary_elems == stationary[cls]
            assert counted.streaming_elems == counted.total_io_elems - stationary[cls]


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
                    assert io_for_class(p, t, order.inner_class, c_zero=c_zero) \
                        == simulate_schedule(p, Schedule(order, t), c_zero=c_zero), \
                        (p, t, order, c_zero)

    def test_selection_matches_brute_force(self):
        for p, t in self.ragged_cases(seed=7, count=300):
            for c_zero in (False, True):
                schedule, rep = brute_force_best(p, t, c_zero=c_zero)
                assert select_schedule(p, t, c_zero=c_zero) == schedule
                assert io_for_class(p, t, schedule.inner_class, c_zero=c_zero).total_elems \
                    == rep.total_elems


def walk_visits(problem, schedule, c_zero):
    """Plain-Python reference count, one block visit at a time in schedule order."""
    t = schedule.tile
    size = {"M": problem.M, "K": problem.K, "N": problem.N}
    step = {"M": t.m, "K": t.k, "N": t.n}
    counts = {d: -(-size[d] // step[d]) for d in size}
    outer, middle, inner = schedule.order.dims
    stationary = schedule.stationary
    loads_a = loads_b = loads_c = stores_c = blocks = max_resident = 0
    for i0 in range(counts[outer]):
        for i1 in range(counts[middle]):
            for i2 in range(counts[inner]):
                idx = {outer: i0, middle: i1, inner: i2}
                mi, ki, ni = (min(step[d], size[d] - step[d] * idx[d]) for d in "MKN")
                first, last = i2 == 0, i2 == counts[inner] - 1
                a, b, c = mi * ki, ki * ni, mi * ni
                if stationary == "C":
                    loads_c += c if first and not c_zero else 0
                    loads_a += a
                    loads_b += b
                    stores_c += c if last else 0
                else:
                    if stationary == "A":
                        loads_a += a if first else 0
                        loads_b += b
                    else:
                        loads_b += b if first else 0
                        loads_a += a
                    loads_c += 0 if c_zero and idx["K"] == 0 else c
                    stores_c += c
                blocks += 1
                max_resident = max(max_resident, a + b + c)
    return IOReport(loads_a, loads_b, loads_c, stores_c, blocks, max_resident)


class TestVectorCounter:
    """The residency-wise counter against a per-visit walk, zero tolerance."""

    @staticmethod
    def check(problem, tile, orders=tuple(LoopOrder)):
        for order in orders:
            schedule = Schedule(order, tile)
            for c_zero in (False, True):
                assert simulate_schedule(problem, schedule, c_zero=c_zero) \
                    == walk_visits(problem, schedule, c_zero), (problem, tile, order, c_zero)

    def test_random_ragged_problems(self):
        rng = random.Random(99)
        # Dims up to 12 against tiles up to 9 give tiles larger than the problem
        # and one-block inner loops.
        for high in [30] * 60 + [12] * 150:
            self.check(MMProblem(*(rng.randint(1, high) for _ in range(3))),
                       TileShape(*(rng.randint(1, 9) for _ in range(3))))

    # Each case runs in all six orders, so each dim is the inner one twice.
    @pytest.mark.parametrize("problem, tile", [
        (MMProblem(2, 9, 13), TileShape(3, 4, 5)),  # one M block: first == last
        (MMProblem(11, 4, 13), TileShape(3, 4, 5)),  # one K block, full
        (MMProblem(11, 9, 2), TileShape(3, 4, 5)),  # one N block, clamped
        (MMProblem(4, 5, 6), TileShape(3, 4, 5)),  # two blocks: one full visit, one clamped
        (MMProblem(11, 9, 13), TileShape(3, 4, 5)),  # every last block clamped
        (MMProblem(12, 8, 15), TileShape(3, 4, 5)),  # every last block full
        (MMProblem(7, 10, 8), TileShape(3, 3, 3)),  # c_zero skips K block 0 as outer and middle
        (MMProblem(3, 2, 4), TileShape(5, 5, 5)),  # tile larger than the problem
    ], ids=["one-m-block", "one-k-block", "one-n-block", "two-blocks", "clamped-last",
            "full-last", "c-zero-k-outer-middle", "tile-over-problem"])
    def test_run_boundaries(self, problem, tile):
        self.check(problem, tile)

    @pytest.mark.parametrize("problem, tile", [
        (MMProblem(40, 3, 2**31), TileShape(3, 1, 2**30)),  # a dim beyond int32
        (MMProblem(5, 2**33, 3), TileShape(2, 2**32, 2)),  # per-visit sizes beyond int32
        (MMProblem(2**40, 2**40, 1), TileShape(2**40, 2**40, 1)),  # sizes beyond int64
    ])
    def test_counts_never_wrap(self, problem, tile):
        self.check(problem, tile)


def test_long_inner_loop_is_counted_per_run():
    """10^12 inner visits under one residency: two runs, not a walk of the
    inner loop, so the command answers at once, with the exact formula's counts."""
    argv = ["simulate", "7", "7", str(10**12), "-m", "7", "-k", "7", "-n", "1",
            "--order", "MKN", "--format", "json"]
    result = subprocess.run([sys.executable, "-m", "memtile.cli", *argv], capture_output=True,
                            text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": SRC})
    assert (result.returncode, result.stderr) == (0, "")
    report = io_for_class(MMProblem(7, 7, 10**12), TileShape(7, 7, 1), InnerClass.N_FIRST)
    assert json.loads(result.stdout) == {"M": 7, "K": 7, "N": 10**12, "order": "M->K->N",
                                         **report.to_dict()}


SWEEP_CELLS = [(device, table) for device in fixture_names() for table in benchmark_names()]


@pytest.mark.parametrize("device, table", SWEEP_CELLS)
def test_sweep_simulated_column_equals_exact_formula(capsys, device, table):
    assert main(["sweep", "--hw", device, "--fixture", table, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows
    element_bytes = fixture_hardware(device).element_bytes
    for row in rows:
        problem = MMProblem(row["M"], row["K"], row["N"], element_bytes)
        tile = TileShape(row["m"], row["k"], row["n"])
        inner_class = LoopOrder.parse(row["order"]).inner_class
        assert row["io_simulated"] == io_for_class(problem, tile, inner_class).total_elems, row


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

    def test_diverging_schemes_raise(self, monkeypatch):
        """N->M->K reporting one load more than M->N->K is a modeling bug."""
        def simulate(problem, schedule, **kwargs):
            report = simulate_schedule(problem, schedule, **kwargs)
            if schedule.order is LoopOrder.NMK:
                return report._replace(loads_a=report.loads_a + 1)
            return report

        monkeypatch.setattr(sim, "simulate_schedule", simulate)
        with pytest.raises(AssertionError, match="^schemes sharing inner dim K diverged: "):
            brute_force_best(MMProblem(40, 40, 40), T5)


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
        out, _ = interpret_kernel(MMProblem(6, 6, 5), Schedule(LoopOrder.MNK, TileShape(4, 2, 3)),
                                  np.eye(6, dtype=np.int64), b, np.zeros((6, 5), dtype=np.int64))
        assert np.array_equal(out, b)

    def test_zero_a_leaves_c(self):
        rng = np.random.default_rng(5)
        c = rng.integers(-9, 9, (7, 11)).astype(np.int64)
        out, _ = interpret_kernel(MMProblem(7, 9, 11), Schedule(LoopOrder.KNM, T5),
                                  np.zeros((7, 9), dtype=np.int64),
                                  rng.integers(-9, 9, (9, 11)).astype(np.int64), c)
        assert np.array_equal(out, c)

    def test_ragged_integer_exactness(self):
        rng = np.random.default_rng(17)
        a = rng.integers(-50, 50, (7, 9)).astype(np.int64)
        b = rng.integers(-50, 50, (9, 11)).astype(np.int64)
        c = rng.integers(-50, 50, (7, 11)).astype(np.int64)
        for order in LoopOrder:
            out, _ = interpret_kernel(MMProblem(7, 9, 11), Schedule(order, T5), a, b, c)
            assert np.array_equal(out, naive_mm(a, b, c))

    def test_float_tolerance(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((12, 13))
        b = rng.standard_normal((13, 8))
        c = rng.standard_normal((12, 8))
        for order in LoopOrder:
            out, _ = interpret_kernel(MMProblem(12, 13, 8), Schedule(order, TileShape(4, 3, 5)),
                                      a, b, c)
            ref = naive_mm(a, b, c)
            assert np.allclose(out, ref, rtol=1e-6, atol=0)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            interpret_kernel(MMProblem(3, 4, 6), Schedule(LoopOrder.MNK, T5),
                             np.zeros((3, 4)), np.zeros((5, 6)), np.zeros((3, 6)))


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

    def test_equals_the_exact_rational_predicate(self):
        """Random, huge and near-threshold rates against the Fraction form."""
        rng = random.Random(35)
        rates = [rng.uniform(1, 1e6) for _ in range(40)]
        # Exponents that keep both reported times inside the float range.
        rates += [math.ldexp(rng.random() + 0.5, rng.randrange(-500, 500)) for _ in range(40)]
        rates += [1e150, 1e-150, 0.1, 12.5, 3, 10 ** 30, 2 ** 53 + 1]
        for _ in range(400):
            peak, bw = rng.choice(rates), rng.choice(rates)
            hw = tuple.__new__(HardwareSpec, ("t", 36, 4096, bw, peak, 1, 4, ""))
            ratio = Fraction(peak) / Fraction(bw)
            near = -(-ratio.numerator // ratio.denominator)  # ceil(peak/bw), exact
            for k in {1, max(1, near - 1), near, near + 1, rng.randrange(1, 10 ** 40)}:
                hidden = Fraction(k) * Fraction(bw) >= Fraction(peak)
                rep = check_streaming_hiding(hw, TileShape(3, k, 3), 7)
                assert rep.hidden == hidden, (peak, bw, k)


class TestCakeBandwidth:
    def test_unit_block(self):
        hw = make_hw(1.0, 1.0)
        assert measure_cake_bw(CBBlock(1, 1, 1, 1), hw) == 2.0

    def test_equals_formula_and_core_invariant(self):
        hw = make_hw(100.0, 1.0)
        values = []
        for p in (1, 2, 4, 8):
            blk = CBBlock(p, *derive_cake_block(p, 100 * (2 * p + p * p)))
            values.append(measure_cake_bw(blk, hw))
            assert values[-1] == cake_offchip_bw(blk.m, blk.n, 100.0)
        assert len(set(values)) == 1
