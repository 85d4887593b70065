import random
from fractions import Fraction

import pytest

from memtile.io_model import (
    CANONICAL_ORDER,
    InnerClass,
    LoopOrder,
    MMProblem,
    Schedule,
    all_class_io,
    formula_total,
    io_for_class,
    m_first_condition,
    pad_to_tiles,
    select_schedule,
)
from memtile.tiling import TileShape

T5 = TileShape(5, 5, 5)


class TestLoopOrder:
    def test_exactly_six_schemes(self):
        assert len(LoopOrder) == 6

    def test_inner_class_follows_innermost_dim(self):
        # names read outer->middle->inner
        assert LoopOrder.MNK.inner_class is InnerClass.K_FIRST
        assert LoopOrder.NMK.inner_class is InnerClass.K_FIRST
        assert LoopOrder.MKN.inner_class is InnerClass.N_FIRST
        assert LoopOrder.KMN.inner_class is InnerClass.N_FIRST
        assert LoopOrder.NKM.inner_class is InnerClass.M_FIRST
        assert LoopOrder.KNM.inner_class is InnerClass.M_FIRST

    def test_parse_both_spellings(self):
        assert LoopOrder.parse("M->N->K") is LoopOrder.MNK
        assert LoopOrder.parse("mnk") is LoopOrder.MNK
        with pytest.raises(ValueError):
            LoopOrder.parse("MMK")

    def test_stationary_operand_per_class(self):
        assert InnerClass.N_FIRST.stationary == "A"
        assert InnerClass.M_FIRST.stationary == "B"
        assert InnerClass.K_FIRST.stationary == "C"
        assert Schedule(LoopOrder.MNK, T5).stationary == "C"


class TestClosedForms:
    def test_single_block_n_first(self):
        p = MMProblem(5, 5, 5)
        rep = io_for_class(p, T5, InnerClass.N_FIRST)
        assert rep.streaming_elems == 2 * 25 + 25
        assert rep.stationary_elems == 25
        assert rep.total_elems == 100

    def test_single_block_m_first(self):
        rep = io_for_class(MMProblem(5, 5, 5), T5, InnerClass.M_FIRST)
        assert rep.total_elems == 25 + 2 * 25 + 25

    def test_single_block_k_first(self):
        rep = io_for_class(MMProblem(5, 5, 5), T5, InnerClass.K_FIRST)
        assert rep.total_elems == 25 + 25 + 2 * 25

    def test_n_first_skewed(self):
        # 64 blocks of (2mn + nk) = 75, plus MK = 200
        rep = io_for_class(MMProblem(40, 5, 40), T5, InnerClass.N_FIRST)
        assert rep.streaming_elems == 4800
        assert rep.stationary_elems == 200
        assert rep.total_elems == 5000

    def test_m_first_cube(self):
        assert io_for_class(MMProblem(40, 40, 40), T5, InnerClass.M_FIRST).total_elems == 40000

    def test_k_first_skewed(self):
        assert io_for_class(MMProblem(40, 5, 40), T5, InnerClass.K_FIRST).total_elems == 6400

    def test_k_first_cube(self):
        assert io_for_class(MMProblem(40, 40, 40), T5, InnerClass.K_FIRST).total_elems == 28800

    def test_total_bytes(self):
        rep = io_for_class(MMProblem(40, 40, 40, element_bytes=4), T5, InnerClass.K_FIRST)
        assert rep.total_bytes == 28800 * 4

    def test_ragged_counts_exact(self):
        # the hand count of tests/test_sim.py::test_ragged_counts_by_hand
        assert io_for_class(MMProblem(64, 5, 32), T5, InnerClass.M_FIRST).total_elems == 6496

    def test_fractional_evaluation_of_ragged_dims(self):
        # the closed forms evaluated at non-divisible dims, kept exact
        assert formula_total(64, 5, 32, 5, 5, 5, InnerClass.N_FIRST) == 6464
        assert formula_total(64, 5, 32, 5, 5, 5, InnerClass.M_FIRST) == 6304
        assert formula_total(64, 5, 32, 5, 5, 5, InnerClass.K_FIRST) == 8192

    def test_formula_total_matches_integer_path_when_divisible(self):
        rng = random.Random(11)
        for _ in range(100):
            m, k, n = (rng.randint(1, 8) for _ in range(3))
            p = MMProblem(m * rng.randint(1, 9), k * rng.randint(1, 9), n * rng.randint(1, 9))
            t = TileShape(m, k, n)
            assert formula_total(p.M, p.K, p.N, m, k, n, InnerClass.N_FIRST) \
                == io_for_class(p, t, InnerClass.N_FIRST).total_elems
            assert formula_total(p.M, p.K, p.N, m, k, n, InnerClass.M_FIRST) \
                == io_for_class(p, t, InnerClass.M_FIRST).total_elems
            assert formula_total(p.M, p.K, p.N, m, k, n, InnerClass.K_FIRST) \
                == io_for_class(p, t, InnerClass.K_FIRST).total_elems

    def test_m_n_exchange_symmetry(self):
        rng = random.Random(3)
        for _ in range(100):
            m, k, n = (rng.randint(1, 7) for _ in range(3))
            M, K, N = m * rng.randint(1, 8), k * rng.randint(1, 8), n * rng.randint(1, 8)
            p, t = MMProblem(M, K, N), TileShape(m, k, n)
            p_t, t_t = MMProblem(N, K, M), TileShape(n, k, m)
            fwd = io_for_class(p, t, InnerClass.M_FIRST).total_elems
            rev = io_for_class(p_t, t_t, InnerClass.N_FIRST).total_elems
            assert fwd == rev
            assert io_for_class(p, t, InnerClass.K_FIRST).total_elems \
                == io_for_class(p_t, t_t, InnerClass.K_FIRST).total_elems

    def test_c_zero_drops_first_touch_loads(self):
        p = MMProblem(40, 40, 40)
        mn = p.M * p.N
        assert io_for_class(p, T5, InnerClass.K_FIRST, c_zero=True).total_elems \
            == io_for_class(p, T5, InnerClass.K_FIRST).total_elems - mn
        assert io_for_class(p, T5, InnerClass.M_FIRST, c_zero=True).total_elems \
            == io_for_class(p, T5, InnerClass.M_FIRST).total_elems - mn
        assert io_for_class(p, T5, InnerClass.N_FIRST, c_zero=True).total_elems \
            == io_for_class(p, T5, InnerClass.N_FIRST).total_elems - mn


class TestSelectSchedule:
    def test_cube_prefers_k_first(self):
        s = select_schedule(MMProblem(40, 40, 40), T5)
        assert s.inner_class is InnerClass.K_FIRST
        assert s.order is LoopOrder.MNK

    def test_small_k_prefers_m_first(self):
        # M-first and N-first tie at 5000; M-first wins the tie-break
        s = select_schedule(MMProblem(40, 5, 40), T5)
        assert s.inner_class is InnerClass.M_FIRST
        assert s.order is CANONICAL_ORDER[InnerClass.M_FIRST]

    def test_single_block_tie_goes_k_first(self):
        s = select_schedule(MMProblem(5, 5, 5), T5)
        assert s.inner_class is InnerClass.K_FIRST

    def test_selected_class_minimizes_totals(self):
        rng = random.Random(19)
        for _ in range(200):
            m, k, n = (rng.randint(1, 6) for _ in range(3))
            p = MMProblem(m * rng.randint(1, 10), k * rng.randint(1, 10),
                          n * rng.randint(1, 10))
            t = TileShape(m, k, n)
            reports = all_class_io(p, t)
            chosen = select_schedule(p, t).inner_class
            assert reports[chosen].total_elems == min(r.total_elems for r in reports.values())


class TestMFirstCondition:
    def test_small_k_true(self):
        assert m_first_condition(MMProblem(40, 5, 40), T5) is True

    def test_large_k_false(self):
        assert m_first_condition(MMProblem(40, 20, 40), T5) is False

    def test_wide_n_false(self):
        assert m_first_condition(MMProblem(40, 5, 80), T5) is False

    def test_exact_k_bound_for_square_tiles(self):
        # with m=k=n=5 and M=40 the bound is 2M/(1+M/m) = 80/9
        bound = Fraction(2 * 40) / (1 + Fraction(40, 5))
        assert bound == Fraction(80, 9)
        assert m_first_condition(MMProblem(40, 8, 40), T5) is True
        assert m_first_condition(MMProblem(40, 9, 40), T5) is False

    def test_agrees_with_direct_comparison(self):
        rng = random.Random(23)
        for _ in range(500):
            m, k, n = (rng.randint(1, 9) for _ in range(3))
            M = m * rng.randint(1, 12)
            K = k * rng.randint(1, 12)
            N = n * rng.randint(1, 12)
            p = MMProblem(M, K, N)
            t = TileShape(m, k, n)
            direct_m = formula_total(M, K, N, m, k, n, InnerClass.M_FIRST)
            expected = (direct_m <= formula_total(M, K, N, m, k, n, InnerClass.K_FIRST)
                        and direct_m <= formula_total(M, K, N, m, k, n, InnerClass.N_FIRST))
            assert m_first_condition(p, t) == expected

    def test_degenerate_denominator_falls_back(self):
        # k > 2m makes 1 + M(2/k - 1/m) negative for large enough M;
        # the M-first-vs-K-first inequality then holds for every K
        p = MMProblem(40, 1000, 8)
        t = TileShape(1, 8, 8)
        den = 1 + p.M * (Fraction(2, 8) - Fraction(1, 1))
        assert den < 0
        direct_m = formula_total(p.M, p.K, p.N, 1, 8, 8, InnerClass.M_FIRST)
        expected = (direct_m <= formula_total(p.M, p.K, p.N, 1, 8, 8, InnerClass.K_FIRST)
                    and direct_m <= formula_total(p.M, p.K, p.N, 1, 8, 8, InnerClass.N_FIRST))
        assert m_first_condition(p, t) == expected


class TestPadding:
    def test_rounds_up_to_multiples(self):
        padded = pad_to_tiles(MMProblem(64, 5, 32), T5)
        assert (padded.M, padded.K, padded.N) == (65, 5, 35)

    def test_divisible_unchanged(self):
        p = MMProblem(40, 5, 40)
        assert pad_to_tiles(p, T5) == p
