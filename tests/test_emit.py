import ctypes
import json
import shutil
import subprocess

import numpy as np
import pytest

from memtile.emit import (
    KernelIR,
    LoopSpec,
    ScheduleDescriptor,
    build_kernel_ir,
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
from memtile.sim import interpret_kernel, run_functional
from memtile.tiling import TileShape

HW = HardwareSpec("dev", 36, 4096, 64e6, 64e6)


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
        assert desc.problem() == MMProblem(40, 40, 40)
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

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            ScheduleDescriptor.from_json('{"schema": ' + "[" * 200_000 + "]" * 200_000 + "}")

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
        ("per_class_total_elems", {"bogus": 28800}, "unknown per_class_total_elems classes"),
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


class TestKernelIR:
    def test_six_loops_with_matching_steps(self):
        ir = build_kernel_ir(MMProblem(40, 20, 30), Schedule(LoopOrder.MNK, TileShape(5, 4, 3)))
        assert len(ir.loops) == 6
        assert [l.dim for l in ir.loops[:3]] == ["M", "N", "K"]
        assert [(l.bound, l.step) for l in ir.loops[:3]] == [(40, 5), (30, 3), (20, 4)]
        assert {l.dim: l.bound for l in ir.loops[3:]} == {"K": 4, "N": 3, "M": 5}

    def test_rejects_wrong_loop_count(self):
        with pytest.raises(ValueError):
            KernelIR(loops=(LoopSpec("M", 4, 2),) * 3)

    def test_rejects_mismatched_intra_bound(self):
        block = (LoopSpec("M", 8, 2), LoopSpec("N", 8, 2), LoopSpec("K", 8, 2))
        intra = (LoopSpec("K", 3, 1), LoopSpec("N", 2, 1), LoopSpec("M", 2, 1))
        with pytest.raises(ValueError):
            KernelIR(loops=block + intra)

    def test_mac_count_equals_volume(self):
        problem = MMProblem(12, 8, 10)
        schedule = Schedule(LoopOrder.KNM, TileShape(4, 2, 5))
        ir = build_kernel_ir(problem, schedule)
        a = np.ones((12, 8), dtype=np.int64)
        b = np.ones((8, 10), dtype=np.int64)
        _, macs = interpret_kernel(ir, a, b, np.zeros((12, 10), dtype=np.int64))
        assert macs == problem.macs
        bound_product = 1
        for blk in ir.loops[:3]:
            bound_product *= blk.bound // blk.step
        for intra in ir.loops[3:]:
            bound_product *= intra.bound
        assert bound_product == problem.macs

    def test_interpreter_identity(self):
        b = np.arange(42, dtype=np.int64).reshape(6, 7)
        ir = build_kernel_ir(MMProblem(6, 6, 7), Schedule(LoopOrder.MNK, TileShape(4, 4, 4)))
        out, _ = interpret_kernel(ir, np.eye(6, dtype=np.int64), b,
                                  np.zeros((6, 7), dtype=np.int64))
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
            via_ir, _ = interpret_kernel(build_kernel_ir(problem, schedule), a, b, c)
            assert np.array_equal(via_ir, run_functional(a, b, c, schedule))
            assert np.array_equal(via_ir, c + a @ b)


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
    subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", str(lib), str(src)],
                   check=True, capture_output=True)
    return ctypes.CDLL(str(lib))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
class TestCompiledKernel:
    def test_f32_kernel_matches_naive(self, tmp_path):
        schedule = Schedule(LoopOrder.NKM, TileShape(4, 3, 2))
        lib = _compile_kernel(tmp_path, emit_kernel_source(schedule), "k_f32")
        fn = getattr(lib, kernel_name(schedule.tile))
        fn.argtypes = [ctypes.POINTER(ctypes.c_float)] * 3 + [ctypes.c_int] * 3
        rng = np.random.default_rng(53)
        for M, K, N in ((8, 6, 4), (7, 9, 11), (1, 1, 1), (13, 2, 5)):
            a = rng.integers(-8, 8, (M, K)).astype(np.float32)
            b = rng.integers(-8, 8, (K, N)).astype(np.float32)
            c = rng.integers(-8, 8, (M, N)).astype(np.float32)
            out = c.copy()
            fn(a.ctypes.data_as(ctypes.POINTER(ctypes.c_float)),
               b.ctypes.data_as(ctypes.POINTER(ctypes.c_float)),
               out.ctypes.data_as(ctypes.POINTER(ctypes.c_float)),
               M, K, N)
            # small integers stay exact in float32
            assert np.array_equal(out, c + a @ b)

    def test_q15_kernel_matches_reference_semantics(self, tmp_path):
        def q15_mac(acc, x, y):
            q15 = (x * y + (1 << 14)) >> 15
            return max(-32768, min(32767, acc + q15))

        schedule = Schedule(LoopOrder.MNK, TileShape(4, 2, 2))
        lib = _compile_kernel(tmp_path, emit_kernel_source(schedule, "i16-q15-scalar"), "k_q15")
        fn = getattr(lib, kernel_name(schedule.tile, "i16-q15-scalar"))
        fn.argtypes = [ctypes.POINTER(ctypes.c_int16)] * 3 + [ctypes.c_int] * 3
        rng = np.random.default_rng(59)
        M, K, N = 9, 6, 7
        a = rng.integers(-32768, 32768, (M, K)).astype(np.int16)
        b = rng.integers(-32768, 32768, (K, N)).astype(np.int16)
        c = rng.integers(-32768, 32768, (M, N)).astype(np.int16)
        out = c.copy()
        fn(a.ctypes.data_as(ctypes.POINTER(ctypes.c_int16)),
           b.ctypes.data_as(ctypes.POINTER(ctypes.c_int16)),
           out.ctypes.data_as(ctypes.POINTER(ctypes.c_int16)),
           M, K, N)
        # per C element, contributions arrive in ascending k regardless of order
        expected = np.empty((M, N), dtype=np.int64)
        for i in range(M):
            for j in range(N):
                acc = int(c[i, j])
                for kk in range(K):
                    acc = q15_mac(acc, int(a[i, kk]), int(b[kk, j]))
                expected[i, j] = acc
        assert np.array_equal(out.astype(np.int64), expected)
