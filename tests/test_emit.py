import ctypes
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from memtile.emit import (
    ScheduleDescriptor,
    emit_descriptor,
    emit_kernel_source,
    kernel_name,
)
from memtile.hardware import HardwareSpec, attainable_throughput
from memtile.io_model import (
    InnerClass,
    LoopOrder,
    MMProblem,
    Schedule,
    all_class_io,
    io_for_class,
)
from memtile.tiling import TileShape
from oracles import interpret_kernel

HW = HardwareSpec("dev", 36, 4096, 64e6, 64e6)


def q15_mac(acc, x, y):
    q15 = (x * y + (1 << 14)) >> 15
    return max(-32768, min(32767, acc + q15))


def q15_reference(a, b, c):
    """C + A*B under q15_mac; per C element, contributions arrive in ascending k."""
    (M, K), N = a.shape, b.shape[1]
    expected = np.empty((M, N), dtype=np.int64)
    for i in range(M):
        for j in range(N):
            acc = int(c[i, j])
            for kk in range(K):
                acc = q15_mac(acc, int(a[i, kk]), int(b[kk, j]))
            expected[i, j] = acc
    return expected


def cube40_descriptor():
    problem = MMProblem(40, 40, 40)
    tile = TileShape(5, 5, 5)
    schedule = Schedule(LoopOrder.MNK, tile)
    io = io_for_class(problem, tile, InnerClass.K_FIRST)
    per_class = {c: r.total_elems for c, r in all_class_io(problem, tile).items()}
    return emit_descriptor(problem, schedule, io, HW, per_class)


class TestDescriptor:
    def test_json_has_schema_fields(self):
        text = cube40_descriptor().to_json()
        for key in ('"order"', '"m"', '"k"', '"n"', '"schema"'):
            assert key in text

    def test_cube40_totals(self):
        desc = cube40_descriptor()
        assert (desc.streaming_elems, desc.stationary_elems) == (25600, 3200)
        assert desc.total_io_elems == 28800
        assert desc.total_io_bytes == 28800 * 4
        assert desc.per_class_total_elems == {"K-first": 28800, "M-first": 40000,
                                              "N-first": 40000}

    def test_predicted_throughput_is_roofline_value(self):
        desc = cube40_descriptor()
        assert desc.predicted_throughput_macs_per_s \
            == attainable_throughput(HW, 64000 / 28800)

    def test_parse_emit_identity(self):
        desc = cube40_descriptor()
        assert ScheduleDescriptor.from_json(desc.to_json()) == desc

    def test_reemit_byte_identical(self):
        text = cube40_descriptor().to_json()
        assert ScheduleDescriptor.from_json(text).to_json() == text

    def test_reconstructors(self):
        desc = cube40_descriptor()
        assert MMProblem(desc.M, desc.K, desc.N, desc.element_bytes) == MMProblem(40, 40, 40)
        assert desc.schedule() == Schedule(LoopOrder.MNK, TileShape(5, 5, 5))

    def test_unknown_key_rejected(self):
        text = cube40_descriptor().to_json().replace('"schema"', '"zchema"')
        with pytest.raises(ValueError):
            ScheduleDescriptor.from_json(text)

    def test_wrong_schema_version_rejected(self):
        text = cube40_descriptor().to_json().replace('"v1"', '"v2"')
        with pytest.raises(ValueError, match="schema"):
            ScheduleDescriptor.from_json(text)

    def test_missing_key_rejected(self):
        raw = json.loads(cube40_descriptor().to_json())
        del raw["n"]
        with pytest.raises(ValueError, match="missing descriptor keys: \\['n'\\]"):
            ScheduleDescriptor.from_json(json.dumps(raw))

    @pytest.mark.parametrize("old, new, key", [
        ('"M": 40,', '"M": 10, "M": 999,', "M"),
        ('"K-first": 28800,', '"K-first": 1, "K-first": 28800,', "K-first"),
    ], ids=["field", "per-class"])
    def test_duplicate_key_rejected(self, old, new, key):
        # The last value used to win silently: M=999 parsed as a valid descriptor.
        text = cube40_descriptor().to_json()
        assert old in text
        with pytest.raises(ValueError, match=f"^duplicate JSON key '{key}'$"):
            ScheduleDescriptor.from_json(text.replace(old, new))

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(ValueError, match="^JSON nested too deeply to parse$"):
            ScheduleDescriptor.from_json('{"schema": ' + "[" * 200_000 + "]" * 200_000 + "}")

    def test_invalid_json_rejected(self):
        # Was json's bare message; it now says what is wrong, as for a hardware file.
        with pytest.raises(ValueError, match="^not valid JSON: Expecting value: line 1 column 1"):
            ScheduleDescriptor.from_json("not json")

    def test_top_level_not_an_object_rejected(self):
        with pytest.raises(ValueError, match="^descriptor must be a JSON object$"):
            ScheduleDescriptor.from_json("[" + cube40_descriptor().to_json() + "]")

    @pytest.mark.parametrize("old, key", [
        ('"M": 40,', "M"),
        ('"K-first": 28800,', "K-first"),
        ('"schema": "v1"', "bogus"),  # not a descriptor key: named all the same
    ], ids=["field", "per-class", "unknown-key"])
    def test_integer_too_long_to_read_names_its_key(self, old, key):
        text = cube40_descriptor().to_json()
        assert old in text
        new = f'"{key}": {"8" * 5000}' + ("," if old.endswith(",") else f", {old}")
        with pytest.raises(ValueError) as exc:
            ScheduleDescriptor.from_json(text.replace(old, new))
        assert str(exc.value) == (f"{key}: 5000 digits, "
                                  f"over the limit of {sys.get_int_max_str_digits()}")

    def test_no_digit_limit_rejects_no_integer(self):
        text = cube40_descriptor().to_json().replace('"M": 40,', f'"M": {"6" * 5000},')
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert ScheduleDescriptor.from_json(text).M == int("6" * 5000)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("key, value, match", [
        ("M", 40.9, "M must be an integer"),
        ("M", True, "M must be a number"),
        ("M", "40", "M must be a number"),
        ("predicted_throughput_macs_per_s", "fast", "must be a number"),
        ("predicted_throughput_macs_per_s", float("nan"), "must be finite"),
        ("order", 5, "order must be a string"),
        ("per_class_total_elems", [28800], "must be an object"),
        ("per_class_total_elems", {"K-first": 28800.5}, "K-first must be an integer"),
        ("total_io_elems", 12345, "total_io_elems 12345 != streaming_elems"),
        ("total_io_bytes", 28800, "total_io_bytes 28800 != total_io_elems"),
        ("order", "M->M->K", "unknown loop order"),
        ("inner_class", "M-first", "order M->N->K is K-first"),
        ("stationary", "A", "order M->N->K is K-first with C stationary"),
        ("M", -64, "M must be >= 1, got -64"),
        ("n", 0, "n must be >= 1, got 0"),
        ("element_bytes", 0, "element_bytes must be >= 1, got 0"),
        ("per_class_total_elems", {"bogus": 28800}, "unknown per_class_total_elems keys"),
        ("per_class_total_elems", {"K-first": 28800, "M-first": -3},
         "per_class_total_elems M-first must be >= 0, got -3"),
        ("per_class_total_elems", {"K-first": 12345, "M-first": 30000},
         "per_class_total_elems K-first is 12345, but total_io_elems is 28800"),
        ("per_class_total_elems", {"M-first": 30000},
         "per_class_total_elems K-first is None, but total_io_elems is 28800"),
    ])
    def test_bad_field_rejected(self, key, value, match):
        raw = json.loads(cube40_descriptor().to_json())
        raw[key] = value
        with pytest.raises(ValueError, match=match):
            ScheduleDescriptor.from_json(json.dumps(raw))


class TestInterpreter:
    def test_mac_count_equals_volume(self):
        problem = MMProblem(12, 8, 10)
        schedule = Schedule(LoopOrder.KNM, TileShape(4, 2, 5))
        a = np.ones((12, 8), dtype=np.int64)
        b = np.ones((8, 10), dtype=np.int64)
        _, macs = interpret_kernel(problem, schedule, a, b, np.zeros((12, 10), dtype=np.int64))
        assert macs == problem.macs

    def test_interpreter_identity(self):
        b = np.arange(42, dtype=np.int64).reshape(6, 7)
        out, _ = interpret_kernel(MMProblem(6, 6, 7), Schedule(LoopOrder.MNK, TileShape(4, 4, 4)),
                                  np.eye(6, dtype=np.int64), b, np.zeros((6, 7), dtype=np.int64))
        assert np.array_equal(out, b)

    def test_interpreter_matches_blocked_execution(self):
        rng = np.random.default_rng(47)
        for case in range(10):
            M, K, N = rng.integers(1, 20, 3)
            tile = TileShape(*(int(x) for x in rng.integers(1, 7, 3)))
            order = list(LoopOrder)[case % 6]
            schedule = Schedule(order, tile)
            problem = MMProblem(int(M), int(K), int(N))
            a = rng.integers(-30, 30, (M, K)).astype(np.int64)
            b = rng.integers(-30, 30, (K, N)).astype(np.int64)
            c = rng.integers(-30, 30, (M, N)).astype(np.int64)
            via_kernel, _ = interpret_kernel(problem, schedule, a, b, c)
            assert np.array_equal(via_kernel, c + a @ b)

    @pytest.mark.parametrize("side", [6, 3])
    def test_operands_must_match_problem(self, side):
        square = np.zeros((side, side))
        with pytest.raises(ValueError, match="do not match problem 4x4x4"):
            interpret_kernel(MMProblem(4, 4, 4), Schedule(LoopOrder.MNK, TileShape(2, 2, 2)),
                             square, square, square)

    def test_q15_matches_reference(self):
        rng = np.random.default_rng(61)
        ragged = tuple(rng.integers(-32768, 32768, shape).astype(np.int16)
                       for shape in ((7, 9), (9, 11), (7, 11)))
        for order in LoopOrder:
            out, _ = interpret_kernel(MMProblem(7, 9, 11, 2), Schedule(order, TileShape(4, 3, 2)),
                                      *ragged)
            assert out.dtype == np.int16
            assert np.array_equal(out.astype(np.int64), q15_reference(*ragged))
        # 20000 + round(20000 * 20000 / 2**15) = 32207; the rest saturate
        a = np.array([[20000, 0], [32767, 32767], [-32768, 32767]], dtype=np.int16)
        b = np.array([[20000, 32767], [0, 32767]], dtype=np.int16)
        c = np.array([[20000, 32767], [32767, 32767], [-32768, -32768]], dtype=np.int16)
        out, _ = interpret_kernel(MMProblem(3, 2, 2, 2), Schedule(LoopOrder.KNM, TileShape(2, 1, 1)),
                                  a, b, c)
        assert np.array_equal(out.astype(np.int64), q15_reference(a, b, c))
        assert out[0, 0] == 32207 and out[1, 1] == 32767 and out[2, 0] == -32768

    @pytest.mark.parametrize("operands", [
        ([[0.9]], [[40000.0]], [[0.5]]),
        ([[1]], [[1]], np.array([[1]], dtype=np.float32)),
        ([[1]], np.array([[True]]), [[0]]),
    ], ids=["float-lists", "float32-c", "bool-b"])
    def test_q15_rejects_non_integer_operands(self, operands):
        with pytest.raises(ValueError, match="q15 operand [ABC] has dtype .*, not an integer"):
            interpret_kernel(MMProblem(1, 1, 1, 2), Schedule(LoopOrder.MNK, TileShape(1, 1, 1)),
                             *operands)

    @pytest.mark.parametrize("operands", [
        ([[70000]], [[1]], [[0]]),
        ([[1]], [[-32769]], [[0]]),
        ([[1]], [[1]], np.array([[40000]], dtype=np.uint16)),
    ], ids=["a-70000", "b-32769", "c-uint16"])
    def test_q15_rejects_values_outside_int16(self, operands):
        with pytest.raises(ValueError, match=r"outside \[-32768, 32767\]"):
            interpret_kernel(MMProblem(1, 1, 1, 2), Schedule(LoopOrder.MNK, TileShape(1, 1, 1)),
                             *operands)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.uint32])
    def test_q15_rejects_c_that_cannot_hold_int16(self, dtype):
        # -32768 * 32767 / 2**15 + 5 = -32762 would overflow C mid-loop.
        with pytest.raises(ValueError, match="q15 operand C has dtype .*, which cannot hold "
                                             "every int16 value"):
            interpret_kernel(MMProblem(1, 1, 1, 2), Schedule(LoopOrder.MNK, TileShape(1, 1, 1)),
                             [[-32768]], [[32767]], np.array([[5]], dtype))

    def test_q15_takes_int16_extremes_in_wider_integer_dtypes(self):
        # -32768 * 32767 / 2**15 rounds to -32767; 5 - 32767 = -32762.
        for dtype in (np.int16, np.int32, np.int64):
            one = np.ones((1, 1), dtype=dtype)
            out, _ = interpret_kernel(MMProblem(1, 1, 1, 2),
                                      Schedule(LoopOrder.MNK, TileShape(1, 1, 1)),
                                      [[-32768]], one * 32767, one * 5)
            assert out.tolist() == [[-32762]]

    @pytest.mark.parametrize("element_bytes", [1, 8])
    def test_element_width_without_kernel_type_rejected(self, element_bytes):
        one = np.ones((1, 1))
        with pytest.raises(ValueError, match=f"no kernel element type for element_bytes "
                                             f"{element_bytes}"):
            interpret_kernel(MMProblem(1, 1, 1, element_bytes),
                             Schedule(LoopOrder.MNK, TileShape(1, 1, 1)), one, one, one)


class TestKernelSource:
    def test_naming_convention(self):
        schedule = Schedule(LoopOrder.MNK, TileShape(5, 1, 5))
        assert kernel_name(schedule.tile) == "mema_outer_5x1x5"
        assert "mema_outer_5x1x5" in emit_kernel_source(schedule)

    def test_q15_variant(self):
        src = emit_kernel_source(Schedule(LoopOrder.MNK, TileShape(4, 2, 2)), "i16-q15-scalar")
        assert "mema_outer_4x2x2_q15" in src
        assert "mema_q15_mac" in src
        assert "int16_t" in src

    def test_deterministic_output(self):
        schedule = Schedule(LoopOrder.KNM, TileShape(3, 4, 5))
        assert emit_kernel_source(schedule) == emit_kernel_source(schedule)

    def test_block_loops_follow_schedule_order(self):
        src = emit_kernel_source(Schedule(LoopOrder.KNM, TileShape(3, 4, 5)))
        assert src.index("for (int k0") < src.index("for (int n0") < src.index("for (int m0")

    def test_unsupported_element_type(self):
        with pytest.raises(ValueError, match="unsupported element type"):
            emit_kernel_source(Schedule(LoopOrder.MNK, TileShape(2, 2, 2)), "f64")


def _compile_kernel(tmp_path, source, name):
    cc = shutil.which("cc")
    src = tmp_path / f"{name}.c"
    lib = tmp_path / f"{name}.so"
    src.write_text(source)
    subprocess.run([cc, "-std=c99", "-Wall", "-Wextra", "-Werror", "-pedantic", "-O2",
                    "-shared", "-fPIC", "-o", str(lib), str(src)],
                   check=True, capture_output=True)
    return ctypes.CDLL(str(lib))


def _run_each_order(tmp_path, element_type, ctype, operands):
    """Compile the kernel of every loop order and run it on each (A, B, C).

    Yields (schedule, A, B, C, C + A*B as the compiled kernel computed it).
    """
    pointer = ctypes.POINTER(ctype)
    for number, order in enumerate(LoopOrder):
        schedule = Schedule(order, TileShape(4, 3, 2))
        lib = _compile_kernel(tmp_path, emit_kernel_source(schedule, element_type),
                              f"k{number}_{element_type}")
        fn = getattr(lib, kernel_name(schedule.tile, element_type))
        fn.argtypes = [pointer] * 3 + [ctypes.c_int] * 3
        fn.restype = None
        for a, b, c in operands:
            out = c.copy()
            fn(a.ctypes.data_as(pointer), b.ctypes.data_as(pointer),
               out.ctypes.data_as(pointer), *a.shape, b.shape[1])
            yield schedule, a, b, c, out


RAGGED = ((8, 6, 4), (7, 9, 11), (1, 1, 1), (13, 2, 5))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
class TestCompiledKernel:
    def test_f32_kernel_matches_naive(self, tmp_path):
        rng = np.random.default_rng(53)
        operands = [tuple(rng.integers(-8, 8, shape).astype(np.float32)
                          for shape in ((M, K), (K, N), (M, N))) for M, K, N in RAGGED]
        for schedule, a, b, c, out in _run_each_order(tmp_path, "f32", ctypes.c_float, operands):
            problem = MMProblem(a.shape[0], a.shape[1], b.shape[1])
            # small integers stay exact in float32
            assert np.array_equal(out, interpret_kernel(problem, schedule, a, b, c)[0])
            assert np.array_equal(out, c + a @ b)

    def test_q15_kernel_matches_reference_semantics(self, tmp_path):
        rng = np.random.default_rng(59)
        operands = [tuple(rng.integers(-32768, 32768, shape).astype(np.int16)
                          for shape in ((M, K), (K, N), (M, N)))
                    for M, K, N in ((9, 6, 7), *RAGGED)]
        for schedule, a, b, c, out in _run_each_order(tmp_path, "i16-q15-scalar",
                                                      ctypes.c_int16, operands):
            assert np.array_equal(out.astype(np.int64), q15_reference(a, b, c))
            problem = MMProblem(a.shape[0], a.shape[1], b.shape[1], 2)
            assert np.array_equal(out, interpret_kernel(problem, schedule, a, b, c)[0])
