"""Acceptance suite: one test per shipping criterion, exact tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s, or in
the captured output of a failure). Expected values are either fixed
points of the model reproduced by independent oracles (in this file or
in oracles.py), or exact equalities between two independently implemented
routes (closed-form accounting vs. the access-counting simulator, the
kernel interpreter vs. numpy's product).
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from memtile.emit import ScheduleDescriptor, emit_descriptor
from memtile.hardware import HardwareSpec
from memtile.io_model import (
    CANONICAL_ORDER,
    InnerClass,
    LoopOrder,
    MMProblem,
    Schedule,
    all_class_io,
    io_for_class,
    select_schedule,
)
from memtile.sim import check_streaming_hiding, simulate_schedule
from memtile.tiling import (
    TileShape,
    arithmetic_intensity_of_tile,
    best_register_tile,
    cake_offchip_bw,
    derive_cake_block,
    derive_square_tile,
)
from oracles import interpret_kernel, m_first_condition, measure_cake_bw

T5 = TileShape(5, 5, 5)


def report(number, label, ok):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_formula_simulator_equivalence():
    """Closed forms equal counted accesses on {10,20,40,80}^3, 192 cases, 0 tolerance."""
    started = time.perf_counter()
    cases = 0
    mismatches = []
    for M, K, N in itertools.product((10, 20, 40, 80), repeat=3):
        problem = MMProblem(M, K, N)
        for cls in InnerClass:
            analytic = io_for_class(problem, T5, cls).total_elems
            simulated = simulate_schedule(problem, Schedule(CANONICAL_ORDER[cls], T5))
            cases += 1
            if analytic != simulated.total_elems:
                mismatches.append((M, K, N, cls.value, analytic, simulated.total_elems))
    elapsed = time.perf_counter() - started
    ok = not mismatches and cases == 192 and elapsed < 5.0
    report(1, "formula-simulator equivalence", ok)
    assert cases == 192
    assert not mismatches, mismatches[:5]
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_square_tile_derivation():
    """A 36-slot reuse budget yields the 5x5 accumulator tile."""
    ok = derive_square_tile(36) == 5
    report(2, "square tile from 36 registers", ok)
    assert ok


def test_criterion_3_schedule_selection():
    """Skew decisions and exact agreement of the selection condition."""
    shallow = MMProblem(40, 5, 40)
    deep = MMProblem(40, 40, 40)
    shallow_io = {c: r.total_elems for c, r in all_class_io(shallow, T5).items()}
    deep_io = {c: r.total_elems for c, r in all_class_io(deep, T5).items()}

    ok = True
    ok &= select_schedule(shallow, T5).inner_class is InnerClass.M_FIRST
    ok &= shallow_io[InnerClass.M_FIRST] == 5000
    ok &= shallow_io[InnerClass.K_FIRST] == 6400
    ok &= select_schedule(deep, T5).inner_class is InnerClass.K_FIRST
    ok &= deep_io[InnerClass.K_FIRST] == 28800
    ok &= deep_io[InnerClass.M_FIRST] == 40000

    rng = random.Random(2024)
    disagreements = 0
    for _ in range(1000):
        m, k, n = (rng.randint(1, 8) for _ in range(3))
        problem = MMProblem(m * rng.randint(1, 12), k * rng.randint(1, 12),
                            n * rng.randint(1, 12))
        tile = TileShape(m, k, n)
        totals = {c: r.total_elems for c, r in all_class_io(problem, tile).items()}
        argmin_allows_m = (totals[InnerClass.M_FIRST] <= totals[InnerClass.K_FIRST]
                           and totals[InnerClass.M_FIRST] <= totals[InnerClass.N_FIRST])
        if m_first_condition(problem, tile) != argmin_allows_m:
            disagreements += 1
    ok &= disagreements == 0
    report(3, "schedule selection and M-first condition", ok)
    assert ok
    assert disagreements == 0


def test_criterion_4_cake_bandwidth_invariance():
    """Simulated CB-block bandwidth equals the formula, identically across p."""
    ok = True
    for f in (1.0, 100.0, 137.5, 6.4e7):
        hw = HardwareSpec("cb", 36, 10 ** 9, 1.0, f)
        values = set()
        for p in (1, 2, 4, 8):
            block = derive_cake_block(p, 100 * (2 * p + p * p))
            ok &= block.m == 10
            measured = measure_cake_bw(block, hw)
            ok &= measured == cake_offchip_bw(block.m, block.n, f)
            values.add(measured)
        ok &= len(values) == 1
    report(4, "constant-bandwidth block invariance", ok)
    assert ok


def test_criterion_5_functional_correctness():
    """All six orders, ragged and divisible, reproduce the naive product."""
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    orders = list(LoopOrder)
    failures = []

    # the fixed ragged case, every order, exact integers
    a = rng.integers(-40, 40, (7, 9)).astype(np.int64)
    b = rng.integers(-40, 40, (9, 11)).astype(np.int64)
    c = rng.integers(-40, 40, (7, 11)).astype(np.int64)
    for order in orders:
        out, _ = interpret_kernel(MMProblem(7, 9, 11), Schedule(order, T5), a, b, c)
        if not np.array_equal(out, c + a @ b):
            failures.append(("fixed", order.value))

    for case in range(200):
        M, K, N = (int(x) for x in rng.integers(1, 28, 3))
        tile = TileShape(*(int(x) for x in rng.integers(1, 8, 3)))
        schedule = Schedule(orders[case % 6], tile)
        problem = MMProblem(M, K, N)
        if case % 2 == 0:
            a = rng.integers(-50, 50, (M, K)).astype(np.int64)
            b = rng.integers(-50, 50, (K, N)).astype(np.int64)
            c = rng.integers(-50, 50, (M, N)).astype(np.int64)
            if not np.array_equal(interpret_kernel(problem, schedule, a, b, c)[0], c + a @ b):
                failures.append((case, "int"))
        else:
            a = rng.standard_normal((M, K))
            b = rng.standard_normal((K, N))
            c = rng.standard_normal((M, N))
            out, _ = interpret_kernel(problem, schedule, a, b, c)
            ref = c + a @ b
            if not np.allclose(out, ref, rtol=1e-6, atol=0):
                failures.append((case, "float"))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 5.0
    report(5, "functional correctness, six orders", ok)
    assert not failures, failures[:5]
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_6_square_tile_intensity_optimality():
    """Square-tile intensity optimality in the form that holds over integers.

    With a = m+1, b = n+1 the budget m + n + mn <= R reads ab - 1 <= R and
    the intensity mn/(m+n) reads (ab-1)/(a+b-2) - 1. For a fixed product ab
    this is largest at a = b (AM-GM) and it grows with ab, so every feasible
    pair obeys mn/(m+n) <= (sqrt(R+1) - 1)/2, with equality only for the
    square m = n = t with (t+1)^2 = R+1. Checked exactly over 3 <= R <= 200
    by brute force:

    1. the bound, as (2v+1)^2 <= R+1 for every feasible intensity v;
    2. equality only at m = n = derive_square_tile(R) when (t+1)^2 = R+1;
    3. the square from derive_square_tile is the largest feasible square, and
       attains the integer maximum at the 13 budgets where R+1 is a perfect
       square and at the paper's R = 36;
    4. best_register_tile reaches the brute-force maximum and is never below
       the square;
    5. between square footprints a rectangle can do better: it strictly beats
       the square on exactly 118 of the 198 budgets, first at R = 5, where
       1x2 reaches 2/3 against the square's 1/2.
    """
    violations = []
    perfect_budgets = []
    rectangle_wins = []
    for budget in range(3, 201):
        t = derive_square_tile(budget)
        square = Fraction(t, 2)  # t^2 / (2t), kept defined if t were 0
        perfect = (t + 1) ** 2 == budget + 1
        best = Fraction(0)
        best_pair = None
        largest_square = 0
        for m in range(1, budget):
            if m + 1 + m > budget:
                break
            for n in range(1, budget):
                if m + n + m * n > budget:
                    break
                value = Fraction(m * n, m + n)
                bound = (2 * value + 1) ** 2
                if bound > budget + 1:
                    violations.append(("bound", budget, (m, n)))
                if bound == budget + 1 and not (m == n == t and perfect):
                    violations.append(("equality", budget, (m, n)))
                if m == n:
                    largest_square = m
                if value > best:
                    best, best_pair = value, (m, n)
        if t != largest_square:
            violations.append(("largest square", budget, t, largest_square))
        if perfect:
            perfect_budgets.append(budget)
        if (perfect or budget == 36) and square != best:
            violations.append(("square not maximal", budget, t, best_pair))
        bm, bn = best_register_tile(budget)
        tile_value = Fraction(bm * bn, bm + bn)
        if bm + bn + bm * bn > budget or tile_value != best or tile_value < square:
            violations.append(("best_register_tile", budget, (bm, bn), best_pair))
        if best > square:
            rectangle_wins.append((budget, best_pair, best, square))

    expected_perfect = [3, 8, 15, 24, 35, 48, 63, 80, 99, 120, 143, 168, 195]
    first_win = (5, (1, 2), Fraction(2, 3), Fraction(1, 2))
    ok = (not violations and perfect_budgets == expected_perfect
          and len(rectangle_wins) == 118 and rectangle_wins[0] == first_win)
    report(6, "square tile intensity optimality", ok)
    assert not violations, f"{len(violations)} violations, first: {violations[:5]}"
    assert perfect_budgets == expected_perfect
    assert len(rectangle_wins) == 118, len(rectangle_wins)
    assert rectangle_wins[0] == first_win


def test_criterion_7_streaming_hiding_threshold():
    """hidden flips false -> true exactly at k = ceil(peak / bandwidth)."""
    rng = random.Random(77)
    ok = True
    specs = [(rng.uniform(1.0, 1e6), rng.uniform(1.0, 1e6)) for _ in range(16)]
    specs += [(q * 12.5, 12.5) for q in (1, 3, 7, 10)]  # exact integer ratios
    assert len(specs) == 20
    for peak, bw in specs:
        hw = HardwareSpec("hide", 36, 64, bw, peak)
        threshold = int(-((-Fraction(peak)) // Fraction(bw)))
        for k in range(max(1, threshold - 3), threshold + 4):
            hidden = check_streaming_hiding(hw, TileShape(5, k, 5), 11).hidden
            if hidden != (k >= threshold):
                ok = False
    report(7, "streaming-hiding threshold", ok)
    assert ok


def test_criterion_8_emission_round_trip():
    """Descriptors re-emit byte-identically; the kernel interpreter reproduces C + A @ B."""
    hw = HardwareSpec("emit", 36, 4096, 64e6, 64e6)
    problem = MMProblem(40, 40, 40)
    schedule = select_schedule(problem, T5)
    io = io_for_class(problem, T5, schedule.inner_class)
    per_class = {c: r.total_elems for c, r in all_class_io(problem, T5).items()}
    desc = emit_descriptor(problem, schedule, io, hw, per_class)
    text = desc.to_json()
    round_tripped = ScheduleDescriptor.from_json(text)
    ok = round_tripped == desc and round_tripped.to_json() == text

    rng = np.random.default_rng(123)
    orders = list(LoopOrder)
    for case in range(10):
        M, K, N = (int(x) for x in rng.integers(1, 22, 3))
        tile = TileShape(*(int(x) for x in rng.integers(1, 7, 3)))
        sched = Schedule(orders[case % 6], tile)
        prob = MMProblem(M, K, N)
        a = rng.integers(-30, 30, (M, K)).astype(np.int64)
        b = rng.integers(-30, 30, (K, N)).astype(np.int64)
        c = rng.integers(-30, 30, (M, N)).astype(np.int64)
        via_kernel, macs = interpret_kernel(prob, sched, a, b, c)
        ok &= np.array_equal(via_kernel, c + a @ b)
        ok &= macs == prob.macs
    report(8, "emission round trip and interpreter fidelity", ok)
    assert ok


def test_roofline_sanity():
    """Companion check: the derived tile is compute-bound on its device."""
    hw = HardwareSpec("m4ish", 36, 65536, 64e6, 64e6)
    t = derive_square_tile(hw.reuse_registers)
    ok = arithmetic_intensity_of_tile(t, t) >= hw.peak_flops_total / hw.ext_bandwidth_elems_per_s
    report("*", "derived tile clears the ridge", ok)
    assert ok
