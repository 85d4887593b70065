import ast
import csv
import io
import json
import os
import random
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import memtile.cli
from memtile.cli import build_parser, main
from memtile.emit import ScheduleDescriptor, emit_descriptor
from memtile.hardware import fixture_hardware, fixture_names
from memtile.io_model import (CANONICAL_ORDER, InnerClass, LoopOrder, MMProblem, Schedule,
                               io_for_class)
from memtile.sim import brute_force_best, simulate_schedule
from memtile.tiling import TileShape, derive_square_tile

M4 = "cortex-m4-fp32"


def _tree(root: Path) -> dict:
    """Every path under ``root``, with a file's bytes."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.fixture(autouse=True)
def failures_leave_tmp_path_as_it_was(tmp_path, monkeypatch):
    """Every command in this module that exits 1 leaves the test's directory as it was."""
    def checked_main(argv=None):
        before = _tree(tmp_path)
        code = memtile.cli.main(argv)
        if code == 1:
            assert _tree(tmp_path) == before, argv
        return code
    monkeypatch.setitem(globals(), "main", checked_main)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh_cli(*argv, stdin=b""):
    """Run the CLI in a fresh interpreter with ``stdin`` piped to it and its
    stdout a pipe; its exit code, stdout and stderr."""
    src = str(Path(memtile.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "memtile.cli", *argv], input=stdin,
                            capture_output=True, env={**os.environ, "PYTHONPATH": path},
                            timeout=120)
    return result.returncode, result.stdout.decode(), result.stderr.decode()


@pytest.fixture
def tiny_hw_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "name": "tiny",
        "reuse_registers": 3,
        "local_memory_elems": 64,
        "ext_bandwidth_elems_per_s": 1e6,
        "peak_flops_per_core": 1e6,
        "cores": 1,
        "element_bytes": 4,
    }))
    return str(path)


class TestDerive:
    def test_cube_forty(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--hw", M4, "40", "40", "40")
        assert code == 0
        assert "m=5 k=5 n=5" in out
        assert "K-first" in out
        assert "28800" in out

    def test_json_descriptor(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--hw", M4, "40", "40", "40",
                               "--format", "json")
        assert code == 0
        desc = ScheduleDescriptor.from_json(out)
        assert desc.order == "M->N->K"
        assert desc.total_io_elems == 28800
        assert (desc.m, desc.k, desc.n) == (5, 5, 5)

    def test_non_divisible_needs_flag(self, capsys):
        code, _, err = run_cli(capsys, "derive", "--hw", M4, "64", "5", "32")
        assert code != 0
        assert "does not divide" in err

    def test_pad_mode_selects_m_first(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--hw", M4, "64", "5", "32", "--pad")
        assert code == 0
        assert "M-first" in out
        assert "padded to 65x5x35" in out

    def test_simulate_mode_selects_m_first(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--hw", M4, "64", "5", "32",
                               "--simulate", "--format", "json")
        assert code == 0
        desc = ScheduleDescriptor.from_json(out)
        assert desc.inner_class == "M-first"
        assert desc.total_io_elems == 6496

    def test_simulate_mode_matches_brute_force_oracle(self, capsys):
        rng = random.Random(5)
        for device in ("cortex-m4-fp32", "cortex-m4-q15", "cortex-a72"):
            hw = fixture_hardware(device)
            t = derive_square_tile(hw.reuse_registers)
            tile = TileShape(t, t, t)
            for _ in range(8):
                dims = [t * rng.randint(1, 4) - rng.randint(1, t - 1) for _ in range(3)]
                c_zero = rng.random() < 0.5
                code, out, _ = run_cli(capsys, "derive", "--hw", device, *map(str, dims),
                                       "--simulate", "--format", "json",
                                       *(["--c-zero"] if c_zero else []))
                assert code == 0
                desc = ScheduleDescriptor.from_json(out)
                problem = MMProblem(*dims, hw.element_bytes)
                schedule, rep = brute_force_best(problem, tile, c_zero=c_zero)
                per_class = {
                    cls: simulate_schedule(problem, Schedule(CANONICAL_ORDER[cls], tile),
                                           c_zero=c_zero).total_elems
                    for cls in InnerClass
                }
                assert desc == emit_descriptor(problem, schedule, rep, hw, per_class)

    def test_three_register_device_uses_unit_tile(self, capsys, tiny_hw_file):
        code, out, _ = run_cli(capsys, "derive", "--hw", tiny_hw_file, "7", "7", "7")
        assert code == 0
        assert "m=1 k=1 n=1" in out

    def test_descriptor_out_round_trips_through_simulator(self, capsys, tmp_path):
        out_path = tmp_path / "sched.json"
        code, _, _ = run_cli(capsys, "derive", "--hw", M4, "40", "40", "40",
                             "--out", str(out_path))
        assert code == 0
        desc = ScheduleDescriptor.from_json(out_path.read_text())
        rep = simulate_schedule(MMProblem(desc.M, desc.K, desc.N, desc.element_bytes),
                                desc.schedule())
        assert rep.total_elems == desc.total_io_elems

    def test_missing_hw_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["derive", "40", "40", "40"])

    @pytest.mark.parametrize("command, tile, policy, note", [
        ("derive", [], "--pad", "note: padded to 45x40x40 for closed-form IO\n"),
        ("derive", [], "--simulate", "note: exact ceiling-count IO (ragged edge tiles clamped)\n"),
        ("select", ["-m", "4", "-k", "4", "-n", "4"], "--pad",
         "note: padded to 44x40x40 for closed-form IO\n"),
    ])
    def test_json_output_puts_count_note_on_stderr(self, capsys, command, tile, policy, note):
        code, out, err = run_cli(capsys, command, "--hw", M4, "41", "40", "40", *tile, policy,
                                 "--format", "json")
        assert code == 0
        ScheduleDescriptor.from_json(out)
        assert err == note

    def test_unknown_fixture_name(self, capsys):
        code, _, err = run_cli(capsys, "derive", "--hw", "no-such-device", "40", "40", "40")
        assert code == 1
        assert "unknown hardware fixture" in err

    @pytest.mark.parametrize("key, value", [("ext_bandwidth_elems_per_s", float("nan")),
                                            ("reuse_registers", 36.9),
                                            ("reuse_registers", "36")])
    def test_bad_number_in_hw_file(self, capsys, tmp_path, key, value):
        raw = {"name": "bad", "reuse_registers": 36, "local_memory_elems": 65536,
               "ext_bandwidth_elems_per_s": 64e6, "peak_flops_per_core": 64e6,
               "cores": 1, "element_bytes": 4, key: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "derive", "--hw", str(bad), "--format", "text",
                                 "40", "40", "40")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and key in err and err.count("\n") == 1

    @pytest.mark.parametrize("bandwidth, argv", [
        (1e308, ["derive", "--format", "json", "40", "40", "40"]),
        (64e6, ["roofline", "--format", "json", "-m", "5", "-n", "5"]),
        (1e-320, ["derive", "40", "40", "40"]),
    ])
    def test_hw_file_with_infinite_rates_is_rejected(self, capsys, tmp_path, bandwidth, argv):
        # Each used to exit 0 printing Infinity or inf for a throughput or ridge point.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "name": "huge", "reuse_registers": 36, "local_memory_elems": 4096,
            "ext_bandwidth_elems_per_s": bandwidth, "peak_flops_per_core": 1e308,
            "cores": 4, "element_bytes": 4}))
        code, out, err = run_cli(capsys, argv[0], "--hw", str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err == "error: cores * peak_flops_per_core must be finite and positive, got inf\n"

    def test_duplicate_key_in_hw_file(self, capsys, tmp_path, tiny_hw_file):
        # The last value used to win silently: 12 registers give a 2x2x2 tile.
        text = (tmp_path / "tiny.json").read_text()
        bad = tmp_path / "dup.json"
        bad.write_text(text.replace('"reuse_registers": 3,',
                                    '"reuse_registers": 36, "reuse_registers": 12,'))
        code, out, err = run_cli(capsys, "derive", "--hw", str(bad), "40", "40", "40")
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: duplicate JSON key 'reuse_registers'\n"

    def test_integer_too_long_in_hw_file_names_file_and_key(self, capsys, tmp_path,
                                                             tiny_hw_file):
        # Python's bare int() message used to stand alone, ending in advice to
        # call sys.set_int_max_str_digits().
        text = (tmp_path / "tiny.json").read_text()
        bad = tmp_path / "long.json"
        bad.write_text(text.replace('"reuse_registers": 3,', f'"reuse_registers": {"3" * 5000},'))
        assert run_cli(capsys, "derive", "--hw", str(bad), "40", "40", "40") == (
            1, "", f"error: {bad}: reuse_registers: 5000 digits, "
                   f"over the limit of {sys.get_int_max_str_digits()}\n")

    def test_non_utf8_hw_file_is_named(self, capsys, tmp_path):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b'{"name": "caf\xe9"}')
        code, out, err = run_cli(capsys, "derive", "--hw", str(bad), "40", "40", "40")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode ")
        assert err.count("\n") == 1

    def test_malformed_hw_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run_cli(capsys, "derive", "--hw", str(bad), "40", "40", "40")
        assert code == 1
        assert "error" in err


class TestSelect:
    def test_explicit_tile(self, capsys):
        code, out, _ = run_cli(capsys, "select", "--hw", M4, "40", "5", "40",
                               "-m", "5", "-k", "5", "-n", "5")
        assert code == 0
        assert "M-first" in out
        assert "5000" in out


class TestSimulate:
    def test_counts_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "64", "5", "32",
                               "-m", "5", "-k", "5", "-n", "5",
                               "--order", "N->K->M", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        rep = simulate_schedule(MMProblem(64, 5, 32),
                                Schedule(LoopOrder.NKM, TileShape(5, 5, 5)))
        assert payload["total_elems"] == rep.total_elems == 6496
        assert payload["blocks_executed"] == rep.blocks_executed
        # The model predicts every count the command prints, ragged or not.
        rng = random.Random(17)
        for _ in range(20):
            dims = tile = (1, 1, 1)
            while all(d % t == 0 for d, t in zip(dims, tile)):
                dims = [rng.randint(1, 30) for _ in range(3)]
                tile = TileShape(*(rng.randint(1, 8) for _ in range(3)))
            for order in LoopOrder:
                for c_zero in (False, True):
                    code, out, _ = run_cli(capsys, "simulate", *map(str, dims),
                                           "-m", str(tile.m), "-k", str(tile.k),
                                           "-n", str(tile.n), "--order", order.name,
                                           "--format", "json",
                                           *(["--c-zero"] if c_zero else []))
                    assert code == 0
                    expected = io_for_class(MMProblem(*dims), tile, order.inner_class,
                                            c_zero=c_zero).to_dict()
                    assert json.loads(out) == {"M": dims[0], "K": dims[1], "N": dims[2],
                                               "order": order.value, **expected}

    def test_compact_order_spelling_and_csv(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "10", "10", "10",
                               "-m", "5", "-k", "5", "-n", "5",
                               "--order", "MNK", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["order"] == "M->N->K"

    def test_output_fields(self, capsys):
        fields = ["M", "K", "N", "order", "loads_a", "loads_b", "loads_c", "stores_c",
                  "total_elems", "blocks_executed", "max_resident_elems"]
        args = ["simulate", "7", "9", "11", "-m", "5", "-k", "5", "-n", "5", "--order", "MNK"]
        _, out, _ = run_cli(capsys, *args, "--format", "json")
        assert sorted(json.loads(out)) == sorted(fields)
        _, out, _ = run_cli(capsys, *args, "--format", "csv")
        assert out.splitlines()[0] == ",".join(fields)
        _, out, _ = run_cli(capsys, *args, "--format", "text")
        assert [line.split(": ")[0] for line in out.splitlines()] == fields


class TestRoofline:
    def test_compute_bound(self, capsys):
        code, out, _ = run_cli(capsys, "roofline", "--hw", M4, "-m", "5", "-n", "5")
        assert code == 0
        assert "compute-bound" in out

    def test_bandwidth_bound(self, capsys):
        code, out, _ = run_cli(capsys, "roofline", "--hw", "cortex-a72", "-m", "1", "-n", "1")
        assert code == 0
        assert "bandwidth-bound" in out

    def test_boundary_is_compute_bound(self, capsys, tmp_path):
        # ridge = 100/40 = 2.5 equals the 5x5 tile intensity exactly
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({
            "name": "edge", "reuse_registers": 36, "local_memory_elems": 64,
            "ext_bandwidth_elems_per_s": 40.0, "peak_flops_per_core": 100.0,
            "cores": 1, "element_bytes": 4,
        }))
        code, out, _ = run_cli(capsys, "roofline", "--hw", str(path),
                               "-m", "5", "-n", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["arithmetic_intensity"] == payload["ridge_point"] == 2.5
        assert payload["classification"] == "compute-bound"

    @pytest.mark.parametrize("text, message", [
        ('{"name": null, "reuse_registers": 36, "local_memory_elems": 64, '
         '"ext_bandwidth_elems_per_s": 40.0, "peak_flops_per_core": 100.0, '
         '"cores": 1, "element_bytes": 4}', "name must be a string, got None"),
        ("[" * 200_000 + "]" * 200_000, "JSON nested too deeply to parse"),
    ], ids=["null-name", "deep-nesting"])
    def test_bad_hw_file_is_one_error_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "roofline", "--hw", str(path),
                                 "-m", "4", "-n", "4", "--format", "json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


class TestSweep:
    def test_mlperf_tiny_has_twenty_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--hw", M4, "--fixture", "mlperf-tiny")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 20
        assert list(rows[0]) == ["layer_id", "M", "K", "N", "order", "m", "k", "n",
                                 "io_analytic", "io_simulated", "pred_throughput"]

    def test_dlmc_has_twelve_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--hw", "cortex-a72", "--fixture", "dlmc")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 12

    def test_analytic_equals_simulated_on_divisible_rows(self, capsys, tmp_path):
        fixture = tmp_path / "layers.csv"
        fixture.write_text("layer_id,M,K,N\n1,40,40,40\n2,40,5,40\n3,7,9,11\n")
        code, out, _ = run_cli(capsys, "sweep", "--hw", M4, "--fixture", str(fixture))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        by_id = {r["layer_id"]: r for r in rows}
        assert by_id["1"]["io_analytic"] == by_id["1"]["io_simulated"] == "28800"
        assert by_id["2"]["io_analytic"] == by_id["2"]["io_simulated"] == "5000"
        # ragged rows report padded analytic vs exact simulated counts
        assert by_id["3"]["io_analytic"] != by_id["3"]["io_simulated"]

    @pytest.mark.parametrize("c_zero", [False, True])
    @pytest.mark.parametrize("hw", fixture_names())
    def test_rows_are_the_derive_pad_descriptors(self, capsys, tmp_path, hw, c_zero):
        """Each row's order, tile and io_analytic are those of the descriptor
        that derive --pad prints for its layer, which emit --pad also writes."""
        flags = ["--c-zero"] * c_zero
        code, out, _ = run_cli(capsys, "sweep", "--hw", hw, "--fixture", "mlperf-tiny",
                               "--format", "json", *flags)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 20
        for row in rows:
            dims = [str(row[d]) for d in "MKN"]
            code, derived, _ = run_cli(capsys, "derive", "--hw", hw, *dims, "--pad",
                                       "--format", "json", *flags)
            assert code == 0
            desc = ScheduleDescriptor.from_json(derived)
            assert ((row["order"], row["m"], row["k"], row["n"], row["io_analytic"])
                    == (desc.order, desc.m, desc.k, desc.n, desc.total_io_elems)), row
            if not c_zero:  # emit has no --c-zero
                path = tmp_path / "d.json"
                code, _, _ = run_cli(capsys, "emit", "--hw", hw, *dims, "--pad",
                                     "--descriptor-out", str(path))
                assert code == 0
                assert path.read_text(encoding="utf-8") == derived

    def test_empty_fixture_gives_header_only(self, capsys, tmp_path):
        fixture = tmp_path / "empty.csv"
        fixture.write_text("layer_id,M,K,N\n")
        code, out, _ = run_cli(capsys, "sweep", "--hw", M4, "--fixture", str(fixture))
        assert code == 0
        assert out.strip() == "layer_id,M,K,N,order,m,k,n,io_analytic,io_simulated,pred_throughput"

    def test_unknown_fixture(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--hw", M4, "--fixture", "nope")
        assert code == 1
        assert "unknown benchmark fixture" in err

    @pytest.mark.parametrize("value", ["40.9", "nan", "true", "4_0", " 40"])
    def test_bad_layer_field_is_one_error_line(self, capsys, tmp_path, value):
        fixture = tmp_path / "bad.csv"
        fixture.write_text(f"layer_id,M,K,N\n1,5,5,5\n2,{value},5,5\n")
        code, out, err = run_cli(capsys, "sweep", "--hw", M4, "--fixture", str(fixture))
        assert code == 1
        assert out == ""
        assert err == ("error: benchmark 'bad' layer row 2, column M: expected a whole "
                       f"number in ASCII digits, got {value!r}\n")

    def test_non_utf8_layer_table_is_named(self, capsys, tmp_path):
        fixture = tmp_path / "latin.csv"
        fixture.write_bytes(b"# caf\xe9\nlayer_id,M,K,N\n1,5,5,5\n")
        code, out, err = run_cli(capsys, "sweep", "--hw", M4, "--fixture", str(fixture))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {fixture}: 'utf-8' codec can't decode ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_count_too_long_to_print_names_layer_and_column(self, capsys, tmp_path, fmt):
        fixture = tmp_path / "long.csv"
        fixture.write_text(f"layer_id,M,K,N\n2,5,5,5\n1,{'9' * sys.get_int_max_str_digits()},1,1\n")
        code, out, err = run_cli(capsys, "sweep", "--hw", "cortex-a72", "--fixture", str(fixture),
                                 "--format", fmt)
        assert (code, out) == (1, "")
        assert err == (f"error: layer 1 io_analytic has more than {sys.get_int_max_str_digits()} "
                       "digits, too many to print\n")

    def test_rows_ordered_by_layer_id(self, capsys, tmp_path):
        fixture = tmp_path / "layers.csv"
        fixture.write_text("layer_id,M,K,N\n2,10,10,10\n1,5,5,5\n")
        code, out, _ = run_cli(capsys, "sweep", "--hw", M4, "--fixture", str(fixture))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["layer_id"] for r in rows] == ["1", "2"]


class TestEmit:
    def test_writes_kernel_and_prints_descriptor(self, capsys, tmp_path):
        kernel = tmp_path / "kernel.c"
        code, out, _ = run_cli(capsys, "emit", "--hw", M4, "40", "40", "40",
                               "--out", str(kernel))
        assert code == 0
        src = kernel.read_text()
        assert "mema_outer_5x5x5" in src
        desc = ScheduleDescriptor.from_json(out)
        assert desc.total_io_elems == 28800

    def test_explicit_tile_and_name(self, capsys, tmp_path):
        kernel = tmp_path / "kernel.c"
        code, _, _ = run_cli(capsys, "emit", "--hw", M4, "40", "40", "40",
                             "-m", "5", "-k", "1", "-n", "5", "--out", str(kernel))
        assert code == 0
        assert "mema_outer_5x1x5" in kernel.read_text()

    def test_q15_dtype(self, capsys, tmp_path):
        kernel = tmp_path / "kernel.c"
        code, _, _ = run_cli(capsys, "emit", "--hw", "cortex-m4-q15", "40", "40", "40",
                             "-m", "4", "-k", "2", "-n", "2", "--out", str(kernel))
        assert code == 0
        src = kernel.read_text()
        assert "mema_outer_4x2x2_q15" in src
        assert "mema_q15_mac" in src

    @pytest.mark.parametrize("element_bytes", [1, 8])
    def test_element_width_without_kernel_type_rejected(self, capsys, tmp_path, element_bytes):
        path = tmp_path / "hw.json"
        path.write_text(json.dumps({**fixture_hardware(M4)._asdict(),
                                    "element_bytes": element_bytes}))
        kernel = tmp_path / "kernel.c"
        code, out, err = run_cli(capsys, "emit", "--hw", str(path), "40", "40", "40",
                                 "--out", str(kernel))
        assert code == 1
        assert out == ""
        assert err == (f"error: no kernel element type for element_bytes {element_bytes}; "
                       "expected one of [2, 4]\n")
        assert not kernel.exists()

    def test_forced_order(self, capsys, tmp_path):
        kernel = tmp_path / "kernel.c"
        code, out, _ = run_cli(capsys, "emit", "--hw", M4, "40", "40", "40",
                               "--order", "K->N->M", "--out", str(kernel))
        assert code == 0
        assert ScheduleDescriptor.from_json(out).order == "K->N->M"

    def test_forced_order_on_ragged_problem_simulate(self, capsys, tmp_path):
        kernel = tmp_path / "kernel.c"
        code, out, err = run_cli(capsys, "emit", "--hw", M4, "64", "5", "32", "--order", "NKM",
                                 "--simulate", "--out", str(kernel))
        assert code == 0
        desc = ScheduleDescriptor.from_json(out)
        assert desc.order == "N->K->M"
        assert desc.total_io_elems == 6496
        assert "exact ceiling-count IO" in err

    def test_forced_order_on_ragged_problem_pad(self, capsys, tmp_path):
        kernel = tmp_path / "kernel.c"
        code, out, err = run_cli(capsys, "emit", "--hw", M4, "64", "5", "32", "--order", "NKM",
                                 "--pad", "--out", str(kernel))
        assert code == 0
        assert ScheduleDescriptor.from_json(out).total_io_elems == 7000
        assert "note: padded to 65x5x35" in err

    def test_forced_order_on_ragged_problem_needs_flag(self, capsys, tmp_path):
        kernel = tmp_path / "kernel.c"
        code, out, err = run_cli(capsys, "emit", "--hw", M4, "64", "5", "32", "--order", "NKM",
                                 "--out", str(kernel))
        assert code == 1
        assert out == ""
        assert "does not divide" in err and "--pad" in err and "--simulate" in err
        assert not kernel.exists()

    @pytest.mark.parametrize("tile", [["0", "0", "0"], ["0", "5", "5"]])
    def test_zero_tile_dim_rejected(self, capsys, tile):
        code, out, err = run_cli(capsys, "emit", "--hw", M4, "40", "40", "40",
                                 "-m", tile[0], "-k", tile[1], "-n", tile[2])
        assert code == 1
        assert out == ""
        assert err == "error: tile dims must be >= 1\n"

    def test_stdout_source_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "emit", "--hw", M4, "40", "40", "40")
        assert code == 0
        assert "mema_outer_5x5x5" in out

    @pytest.mark.parametrize("policy,total,note", [
        ("--pad", 7000, "note: padded to 65x5x35 for closed-form IO\n"),
        ("--simulate", 6496, "note: exact ceiling-count IO (ragged edge tiles clamped)\n"),
    ], ids=["pad", "simulate"])
    def test_count_note_on_stderr_when_kernel_goes_to_stdout(self, capsys, tmp_path,
                                                              policy, total, note):
        desc_path = tmp_path / "d.json"
        code, out, err = run_cli(capsys, "emit", "--hw", M4, "64", "5", "32", policy,
                                 "--descriptor-out", str(desc_path))
        assert code == 0
        assert err == note
        assert ScheduleDescriptor.from_json(desc_path.read_text()).total_io_elems == total
        kernel = tmp_path / "kernel.c"
        run_cli(capsys, "emit", "--hw", M4, "64", "5", "32", policy, "--out", str(kernel))
        assert out == kernel.read_text()

    def test_descriptor_out_into_missing_directory_prints_nothing(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "d.json"
        code, out, err = run_cli(capsys, "emit", "--hw", M4, "40", "40", "40",
                                 "--descriptor-out", str(missing))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    @pytest.mark.parametrize("spelling", ["k.c", "./k.c"])
    def test_out_and_descriptor_out_on_one_file_rejected(self, capsys, tmp_path, spelling):
        code, out, err = run_cli(capsys, "emit", "--hw", M4, "40", "40", "40",
                                 "--out", str(tmp_path / "k.c"),
                                 "--descriptor-out", f"{tmp_path}/{spelling}")
        assert (code, out) == (1, "")
        assert err == (f"error: --out and --descriptor-out both name {tmp_path / 'k.c'}; "
                       "the kernel and the descriptor need two files\n")
        assert list(tmp_path.iterdir()) == []


class TestOutputFiles:
    def test_failed_descriptor_write_leaves_no_kernel(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "d.json"
        code, out, err = run_cli(capsys, "emit", "--hw", M4, "40", "40", "40",
                                 "--out", str(tmp_path / "k.c"), "--descriptor-out", str(missing))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_success_leaves_only_the_targets(self, capsys, tmp_path):
        kernel, desc = tmp_path / "k.c", tmp_path / "d.json"
        kernel.write_text("old")
        code, out, _ = run_cli(capsys, "emit", "--hw", M4, "40", "40", "40",
                               "--out", str(kernel), "--descriptor-out", str(desc))
        assert code == 0
        assert sorted(tmp_path.iterdir()) == [desc, kernel]
        assert out == desc.read_text() and kernel.read_text().startswith("/* Generated")

    def test_existing_file_keeps_its_mode(self, capsys, tmp_path):
        answer = tmp_path / "answer"
        answer.write_text("old")
        answer.chmod(0o600)
        assert run_cli(capsys, *VALID["roofline"], "--out", str(answer))[0] == 0
        assert stat.S_IMODE(answer.stat().st_mode) == 0o600
        assert answer.read_text() != "old"

    def test_symlink_target_is_written_through(self, capsys, tmp_path):
        real, link = tmp_path / "real", tmp_path / "link"
        real.write_text("old")
        link.symlink_to(real)
        code, out, _ = run_cli(capsys, *VALID["roofline"], "--out", str(link))
        assert code == 0
        assert link.is_symlink() and real.read_text() == out

    def test_pipe_is_written_only_once_every_file_is_staged(self, tmp_path):
        """The kernel bound for a pipe on stdout waits for the descriptor, whose
        directory is missing, so the failed command prints nothing."""
        missing = tmp_path / "missing" / "d.json"
        code, out, err = run_fresh_cli("emit", "--hw", M4, "40", "40", "40",
                                       "--out", "/dev/stdout", "--descriptor-out", str(missing))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_fifo_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code, out, _ = run_cli(capsys, *VALID["roofline"], "--out", str(fifo))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0 and received == [out]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_second_stream_is_refused_before_anything_is_written(self):
        """The kernel bound for a pipe on stdout cannot be taken back if the
        descriptor's write then fails, so two such targets write nothing."""
        code, out, err = run_fresh_cli("emit", "--hw", M4, "40", "40", "40",
                                       "--out", "/dev/stdout", "--descriptor-out", "/dev/full")
        assert (code, out) == (1, "")
        assert err == ("error: only one output may be a stream or other non-regular file, "
                       "not both /dev/stdout and /dev/full\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_in_place_names_its_path(self, capsys):
        for command in ("derive", "emit"):
            code, out, err = run_cli(capsys, *VALID[command], "--out", "/dev/full")
            assert (code, out) == (1, ""), command
            assert err == "error: [Errno 28] No space left on device: '/dev/full'\n", command


# Every option each subcommand accepts; each one is read by its handler.
OPTIONS = {
    "derive": {"--hw", "--out", "--format", "--pad", "--simulate", "--c-zero"},
    "select": {"--hw", "--out", "--format", "--pad", "--simulate", "--c-zero",
               "-m", "-k", "-n"},
    "simulate": {"--out", "--format", "--c-zero", "-m", "-k", "-n", "--order"},
    "sweep": {"--hw", "--out", "--format", "--c-zero", "--fixture"},
    "roofline": {"--hw", "--out", "--format", "-m", "-n"},
    "emit": {"--hw", "--out", "--pad", "--simulate", "-m", "-k", "-n",
             "--order", "--descriptor-out"},
}

VALID = {
    "derive": ["derive", "--hw", M4, "40", "40", "40"],
    "select": ["select", "--hw", M4, "40", "40", "40", "-m", "5", "-k", "5", "-n", "5"],
    "simulate": ["simulate", "40", "40", "40", "-m", "5", "-k", "5", "-n", "5",
                 "--order", "MNK"],
    "sweep": ["sweep", "--hw", M4, "--fixture", "mlperf-tiny"],
    "roofline": ["roofline", "--hw", M4, "-m", "5", "-n", "5"],
    "emit": ["emit", "--hw", M4, "40", "40", "40"],
}


@pytest.mark.parametrize("argv, bundled", [
    (["derive", "--hw", "{}", "40", "40", "40"], "cortex-m4-fp32.json"),
    (["sweep", "--hw", M4, "--fixture", "{}"], "mlperf-tiny.csv"),
], ids=["hw", "fixture"])
def test_hw_and_fixture_read_a_pipe(capsys, argv, bundled):
    """A path that is not a regular file, here stdin as a pipe, is read as the file."""
    text = (Path(memtile.cli.__file__).parent / "data" / bundled).read_bytes()
    piped = run_fresh_cli(*(a.replace("{}", "/dev/stdin") for a in argv), stdin=text)
    assert piped == run_cli(capsys, *(a.replace("{}", bundled.split(".")[0]) for a in argv))
    assert piped[0] == 0


def test_directory_named_like_a_bundle_is_not_read(capsys, tmp_path, monkeypatch):
    """A directory is never read as a file: a bundled name still finds its bundle."""
    expected = run_cli(capsys, "sweep", "--hw", M4, "--fixture", "mlperf-tiny")
    monkeypatch.chdir(tmp_path)
    (tmp_path / M4).mkdir()
    (tmp_path / "mlperf-tiny").mkdir()
    assert run_cli(capsys, "sweep", "--hw", M4, "--fixture", "mlperf-tiny") == expected
    assert expected[0] == 0


HUGE = str(10 ** 400)


@pytest.mark.parametrize("argv, message", [
    (["roofline", "--hw", "cortex-a72", "-m", HUGE, "-n", HUGE],
     "tile arithmetic intensity mn/(m+n) is too large for a float"),
    (["select", "--hw", M4, HUGE, HUGE, HUGE, "-m", HUGE, "-k", HUGE, "-n", HUGE],
     "arithmetic intensity MKN/(total IO) is too large for a float"),
    (["emit", "--hw", M4, HUGE, HUGE, HUGE, "-m", HUGE, "-k", HUGE, "-n", HUGE],
     "arithmetic intensity MKN/(total IO) is too large for a float"),
], ids=["roofline", "select", "emit"])
def test_intensity_past_float_range_is_one_error_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


LONG = str(10 ** 4000)  # its products pass the 4,300 digits Python prints


@pytest.mark.parametrize("argv, name", [
    (["derive", "--hw", M4, LONG, LONG, LONG, "--pad"], "streaming_elems"),
    (["derive", "--hw", M4, LONG, LONG, LONG, "--pad", "--format", "json"], "streaming_elems"),
    (["select", "--hw", M4, LONG, LONG, LONG, "-m", "1", "-k", "1", "-n", "1", "--pad"],
     "streaming_elems"),
    (["select", "--hw", M4, "1", "1", "1", "-m", LONG, "-k", "1", "-n", LONG, "--simulate"],
     "register_footprint"),
    (["emit", "--hw", M4, LONG, LONG, LONG, "--pad", "--out", "unwritten.c"],
     "streaming_elems"),
    (["simulate", LONG, LONG, LONG, "-m", LONG, "-k", LONG, "-n", LONG, "--order", "MNK"],
     "loads_a"),
], ids=["derive", "derive-json", "select", "select-footprint", "emit", "simulate"])
def test_value_too_long_to_print_is_one_error_line(capsys, tmp_path, monkeypatch, argv, name):
    monkeypatch.chdir(tmp_path)
    message = f"{name} has more than {sys.get_int_max_str_digits()} digits, too many to print"
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestFlags:
    def test_each_subcommand_declares_exactly_its_options(self):
        sub = next(a for a in build_parser()._actions if a.choices and a.dest == "command")
        assert set(sub.choices) == set(OPTIONS)
        for command, parser in sub.choices.items():
            declared = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
            assert declared == OPTIONS[command], command

    @pytest.mark.parametrize("command, flag", [
        ("simulate", ["--hw", M4]), ("simulate", ["--pad"]), ("simulate", ["--simulate"]),
        ("sweep", ["--pad"]), ("sweep", ["--simulate"]),
        ("roofline", ["--pad"]), ("roofline", ["--simulate"]), ("roofline", ["--c-zero"]),
        ("emit", ["--format", "json"]), ("emit", ["--dtype", "q15"]), ("emit", ["--c-zero"]),
    ])
    def test_flag_the_subcommand_ignores_is_a_usage_error(self, capsys, command, flag):
        assert usage_error(VALID[command] + flag) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["derive", "select", "emit"])
    def test_pad_and_simulate_exclude_each_other(self, capsys, command):
        assert usage_error(VALID[command] + ["--pad", "--simulate"]) == 2
        assert "not allowed with argument --pad" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["derive", "select", "roofline"])
    def test_csv_only_where_printed(self, capsys, command):
        assert usage_error(VALID[command] + ["--format", "csv"]) == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


# What decides a schedule and its cost: cli._plan alone may use these.
PLAN_ONLY = {"select_schedule", "all_class_io", "pad_to_tiles", "derive_square_tile",
             "emit_descriptor"}


def test_one_function_plans_every_schedule():
    """In cli.py only _plan names the tile, order, count and descriptor
    functions, and each command that needs a schedule calls _plan once."""
    tree = ast.parse(Path(memtile.cli.__file__).read_text(encoding="utf-8"))
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def uses(node):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id in PLAN_ONLY
                or isinstance(n, ast.Attribute) and n.attr in PLAN_ONLY]

    assert "_plan" in functions
    assert set(uses(functions["_plan"])) == PLAN_ONLY
    assert sorted(uses(tree)) == sorted(uses(functions["_plan"]))
    for name in ("cmd_schedule", "cmd_emit", "cmd_sweep"):
        calls = [n for n in ast.walk(functions[name])
                 if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_plan"]
        assert len(calls) == 1, name
