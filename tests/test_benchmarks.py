import csv
import io
import os

import pytest

import memtile.benchmarks
from memtile.benchmarks import BenchmarkFixture, BenchmarkLayer, benchmark_names, load_benchmark


def dictreader_layers(text: str) -> tuple[BenchmarkLayer, ...]:
    """Reference parse of a layer table with the csv module."""
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    return tuple(BenchmarkLayer(*(int(r[col]) for col in ("layer_id", "M", "K", "N")))
                 for r in csv.DictReader(io.StringIO("\n".join(lines))))


class TestBundledTables:
    def test_names(self):
        assert set(benchmark_names()) == {"mlperf-tiny", "dlmc"}

    def test_mlperf_tiny_layers(self):
        fixture = load_benchmark("mlperf-tiny")
        assert len(fixture.layers) == 20
        first = fixture.layers[0]
        assert (first.layer_id, first.M, first.K, first.N) == (1, 16, 27, 1024)
        assert fixture.layers[-1] == BenchmarkLayer(20, 256, 256, 9)

    def test_dlmc_layers(self):
        fixture = load_benchmark("dlmc")
        assert len(fixture.layers) == 12
        assert fixture.layers[0] == BenchmarkLayer(1, 512, 2048, 256)
        assert fixture.layers[-1] == BenchmarkLayer(12, 2048, 512, 2048)

    @pytest.mark.parametrize("name", ["mlperf-tiny", "dlmc"])
    def test_parse_matches_csv_module(self, name):
        path = os.path.join(os.path.dirname(memtile.benchmarks.__file__), "data", f"{name}.csv")
        with open(path, encoding="utf-8") as f:
            expected = dictreader_layers(f.read())
        assert load_benchmark(name).layers == expected
        assert load_benchmark(path) == BenchmarkFixture(name, expected)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown benchmark fixture"):
            load_benchmark("imagenet")


class TestValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BenchmarkFixture("x", (BenchmarkLayer(1, 2, 2, 2), BenchmarkLayer(1, 3, 3, 3)))

    def test_non_positive_dims_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            BenchmarkFixture("x", (BenchmarkLayer(1, 0, 2, 2),))

    def test_csv_from_path(self, tmp_path):
        path = tmp_path / "layers.csv"
        path.write_text("# custom table\nlayer_id,M,K,N\n1,4,5,6\n")
        fixture = load_benchmark(str(path))
        assert fixture.name == "layers"
        assert fixture.layers == (BenchmarkLayer(1, 4, 5, 6),)

    def test_str_and_pathlike_paths_accepted(self, tmp_path):
        path = tmp_path / "layers.csv"
        path.write_text("layer_id,M,K,N\n1,4,5,6\n")
        assert load_benchmark(path) == load_benchmark(str(path))

    def test_quoted_field_rejected(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('layer_id,M,K,N\n1,"40",40,40\n')
        with pytest.raises(ValueError) as exc:
            load_benchmark(str(path))
        assert str(exc.value) == ("benchmark 'quoted' layer row 1, column M: "
                                  """expected a whole number in ASCII digits, got '"40"'""")

    def test_invalid_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes("# caf\u00e9\nlayer_id,M,K,N\n1,4,5,6\n".encode("latin-1"))
        with pytest.raises(ValueError) as exc:
            load_benchmark(str(path))
        assert str(exc.value).startswith(f"{path}: 'utf-8' codec can't decode")

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,M,K,N\n1,4,5,6\n")
        with pytest.raises(ValueError, match="expected columns"):
            load_benchmark(str(path))

    @pytest.mark.parametrize("row, col, value", [
        (2, "M", "40.9"),
        (2, "K", "nan"),
        (2, "N", "true"),
        (2, "M", "4_0"),
        (2, "M", " 40"),
        (2, "N", "40 "),
        (2, "K", "-5"),
        (2, "M", "\u0664\u0660"),  # Arabic-Indic "40": int() accepts it
        (1, "layer_id", ""),
    ])
    def test_non_digit_field_rejected(self, tmp_path, row, col, value):
        rows = [{"layer_id": "1", "M": "4", "K": "5", "N": "6"},
                {"layer_id": "2", "M": "40", "K": "40", "N": "40"}]
        rows[row - 1][col] = value
        path = tmp_path / "bad.csv"
        path.write_text("layer_id,M,K,N\n" + "".join(
            ",".join(r.values()) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_benchmark(str(path))
        assert str(exc.value) == (f"benchmark 'bad' layer row {row}, column {col}: "
                                  f"expected a whole number in ASCII digits, got {value!r}")

    def test_long_row_rejected(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("layer_id,M,K,N\n1,4,5,6\n2,40,40,40,99\n")
        with pytest.raises(ValueError, match="'long' layer row 2: 4 fields expected, got 5"):
            load_benchmark(str(path))

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("layer_id,M,K,N\n1,4,5\n")
        with pytest.raises(ValueError, match="'short' layer row 1, column N: .* got None"):
            load_benchmark(str(path))
