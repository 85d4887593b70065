import json
import random
import re
import sys

import pytest

from memtile.hardware import (
    HardwareSpec,
    fixture_hardware,
    fixture_names,
    hardware_from_dict,
    load_hardware,
    resolve_hardware,
    roofline,
)


def make_hw(peak=100.0, bw=100.0, cores=1, **kw):
    return HardwareSpec(
        name="test",
        reuse_registers=kw.pop("reuse_registers", 36),
        local_memory_elems=kw.pop("local_memory_elems", 1024),
        ext_bandwidth_elems_per_s=bw,
        peak_flops_per_core=peak,
        cores=cores,
        **kw,
    )


def ridge_point(hw):
    """The ridge, which roofline returns at every intensity."""
    return roofline(hw, 1, 1)[1]


class TestRidgePoint:
    def test_equal_peak_and_bandwidth(self):
        assert ridge_point(make_hw(100, 100, 1)) == 1.0

    def test_peak_twice_bandwidth(self):
        assert ridge_point(make_hw(100, 50, 1)) == 2.0

    def test_cores_scale_the_peak(self):
        assert ridge_point(make_hw(100, 50, 4)) == 8.0

    def test_scaling_laws(self):
        rng = random.Random(7)
        for _ in range(50):
            peak = rng.uniform(1, 1e9)
            bw = rng.uniform(1, 1e9)
            base = ridge_point(make_hw(peak, bw))
            assert ridge_point(make_hw(2 * peak, bw)) == pytest.approx(2 * base, rel=1e-12)
            assert ridge_point(make_hw(peak, 2 * bw)) == pytest.approx(base / 2, rel=1e-12)


class TestAttainableThroughput:
    def test_zero_intensity_zero_throughput(self):
        assert roofline(make_hw(), 0, 7) == (0.0, 1.0, 0.0, "bandwidth-bound")

    def test_ridge_reaches_total_peak_exactly(self):
        for hw in (make_hw(100, 50, 1), make_hw(123.4, 7.6, 3), make_hw(1e9, 3.0, 4)):
            macs, elems = ridge_point(hw).as_integer_ratio()  # exactly the ridge
            assert roofline(hw, macs, elems)[2:] == (hw.peak_flops_total, "compute-bound")

    def test_bandwidth_bound_region(self):
        assert roofline(make_hw(100, 50, 1), 1, 1)[2:] == (50.0, "bandwidth-bound")

    def test_monotone_and_flat_past_ridge(self):
        hw = make_hw(170.0, 13.0, 2)
        points = [roofline(hw, macs, 40) for macs in range(0, 40 * 80)]  # 0 to 3x the ridge
        values = [attainable for _, _, attainable, _ in points]
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))
        assert all(attainable == hw.peak_flops_total for ai, ridge, attainable, _ in points
                   if ai >= ridge)
        assert all((bound == "compute-bound") == (ai >= ridge) for ai, ridge, _, bound in points)

    def test_roofline_point_invariant(self):
        hw = make_hw(100, 40, 1)
        assert roofline(hw, 3, 2) == (1.5, 2.5, min(hw.peak_flops_total, 1.5 * 40),
                                      "bandwidth-bound")


class TestSpecInvariants:
    def test_rejects_non_positive_fields(self):
        with pytest.raises(ValueError):
            make_hw(bw=0)
        with pytest.raises(ValueError):
            make_hw(peak=-1)
        with pytest.raises(ValueError):
            make_hw(cores=0)

    def test_rejects_tiny_register_budget(self):
        with pytest.raises(ValueError):
            make_hw(reuse_registers=2)


class TestDescriptorLoading:
    BASE = {
        "name": "dev",
        "reuse_registers": 36,
        "local_memory_elems": 4096,
        "ext_bandwidth_elems_per_s": 1e6,
        "peak_flops_per_core": 2e6,
        "cores": 1,
        "element_bytes": 4,
    }

    def test_round_bytes_to_elements(self):
        raw = dict(self.BASE)
        del raw["ext_bandwidth_elems_per_s"]
        raw["ext_bandwidth_bytes_per_s"] = 256e6
        hw = hardware_from_dict(raw)
        assert hw.ext_bandwidth_elems_per_s == 64e6

    def test_unknown_key_rejected(self):
        raw = dict(self.BASE, registers=32)
        with pytest.raises(ValueError, match="unknown"):
            hardware_from_dict(raw)

    def test_missing_key_rejected(self):
        raw = dict(self.BASE)
        del raw["cores"]
        with pytest.raises(ValueError, match="missing"):
            hardware_from_dict(raw)

    def test_both_bandwidth_keys_rejected(self):
        raw = dict(self.BASE, ext_bandwidth_bytes_per_s=4e6)
        with pytest.raises(ValueError, match="exactly one"):
            hardware_from_dict(raw)

    @pytest.mark.parametrize("key, value, message", [
        ("ext_bandwidth_elems_per_s", float("nan"), "finite"),
        ("ext_bandwidth_elems_per_s", float("inf"), "finite"),
        ("peak_flops_per_core", float("-inf"), "finite"),
        pytest.param("peak_flops_per_core", 10 ** 400, "finite", id="huge-int"),
        ("reuse_registers", 36.9, "integer"),
        ("local_memory_elems", 4096.5, "integer"),
        ("cores", float("nan"), "finite"),
        ("reuse_registers", "36", "number"),
        ("peak_flops_per_core", "2e6", "number"),
        ("element_bytes", True, "number"),
        ("ext_bandwidth_elems_per_s", False, "number"),
        ("cores", None, "number"),
    ])
    def test_bad_numbers_rejected(self, key, value, message):
        raw = dict(self.BASE, **{key: value})
        with pytest.raises(ValueError, match=f"{key} must be .*{message}"):
            hardware_from_dict(raw)

    @pytest.mark.parametrize("key, value", [
        ("name", None), ("name", 7), ("name", ["dev"]), ("notes", None), ("notes", 1.5)])
    def test_non_string_text_rejected(self, key, value):
        raw = dict(self.BASE, **{key: value})
        with pytest.raises(ValueError, match=re.escape(f"{key} must be a string, got {value!r}")):
            hardware_from_dict(raw)

    def test_bad_byte_bandwidth_rejected(self):
        raw = dict(self.BASE)
        del raw["ext_bandwidth_elems_per_s"]
        raw["ext_bandwidth_bytes_per_s"] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            hardware_from_dict(raw)

    @pytest.mark.parametrize("element_bytes", [2 ** 1100, 10 ** 400])
    def test_byte_bandwidth_past_float_range_rounds_to_zero(self, element_bytes):
        raw = dict(self.BASE, element_bytes=element_bytes)
        del raw["ext_bandwidth_elems_per_s"]
        raw["ext_bandwidth_bytes_per_s"] = 256e6
        with pytest.raises(ValueError, match="ext_bandwidth_elems_per_s must be strictly positive"):
            hardware_from_dict(raw)

    def test_integral_float_accepted_for_integer_field(self):
        hw = hardware_from_dict(dict(self.BASE, reuse_registers=36.0))
        assert hw.reuse_registers == 36 and isinstance(hw.reuse_registers, int)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(self.BASE))
        assert load_hardware(path).name == "dev"

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_hardware(path)

    def test_str_and_pathlike_paths_accepted(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(self.BASE))
        assert load_hardware(str(path)) == load_hardware(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(self.BASE)[:-1] + ', "reuse_registers": 12}')
        with pytest.raises(ValueError) as exc:
            load_hardware(path)
        assert str(exc.value) == f"{path}: duplicate JSON key 'reuse_registers'"

    def test_invalid_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "dev.json"
        text = json.dumps(dict(self.BASE, name="caf\u00e9"), ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError) as exc:
            load_hardware(path)
        assert str(exc.value).startswith(f"{path}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("key, literal", [
        ("reuse_registers", "3" * 5000),
        ("cores", "-" + "1" * 5000),
        ("peak_flops_per_core", "2" * 5000),
        ("notes", "[1, [" + "4" * 5000 + "]]"),
        ("registers", "5" * 5000),  # not a hardware key: named all the same
    ], ids=["integer", "negative", "number", "in-array", "unknown-key"])
    def test_integer_too_long_to_read_names_its_key(self, tmp_path, key, literal):
        # Python's bare int() message used to stand alone, naming no key.
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(dict(self.BASE, **{key: 0}))
                        .replace(f'"{key}": 0', f'"{key}": {literal}'))
        with pytest.raises(ValueError) as exc:
            load_hardware(path)
        assert str(exc.value) == (f"{path}: {key}: 5000 digits, "
                                  f"over the limit of {sys.get_int_max_str_digits()}")

    def test_integer_at_the_digit_limit_is_read(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(self.BASE).replace('"local_memory_elems": 4096',
                                                      f'"local_memory_elems": {"9" * limit}'))
        assert load_hardware(path).local_memory_elems == 10 ** limit - 1

    def test_no_digit_limit_rejects_no_integer(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(self.BASE).replace('"local_memory_elems": 4096',
                                                      f'"local_memory_elems": {"7" * 5000}'))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert load_hardware(path).local_memory_elems == int("7" * 5000)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_top_level_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(f"[{json.dumps(self.BASE)}]")
        with pytest.raises(ValueError) as exc:
            load_hardware(path)
        assert str(exc.value) == "hardware descriptor must be a JSON object"

    def test_deeply_nested_json_reported(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            load_hardware(path)


class TestBundledFixtures:
    def test_names(self):
        assert set(fixture_names()) == {"cortex-m4-fp32", "cortex-m4-q15", "cortex-a72"}

    def test_register_budgets(self):
        assert fixture_hardware("cortex-m4-fp32").reuse_registers == 36
        assert fixture_hardware("cortex-m4-q15").reuse_registers == 12
        a72 = fixture_hardware("cortex-a72")
        assert a72.cores == 4
        assert a72.reuse_registers == 128

    def test_q15_uses_two_byte_elements(self):
        assert fixture_hardware("cortex-m4-q15").element_bytes == 2

    def test_unknown_fixture(self):
        with pytest.raises(ValueError, match="unknown hardware fixture"):
            fixture_hardware("nonexistent")

    def test_resolve_prefers_files(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(TestDescriptorLoading.BASE))
        assert resolve_hardware(str(path)).name == "dev"
        assert resolve_hardware("cortex-a72").name == "cortex-a72"
