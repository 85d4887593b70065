"""The CLI's observable output, pinned.

A fixed, seeded list of command lines runs through cli.main in-process. For
each, the exit code, stdout, stderr and every file it wrote are hashed
(SHA-256) and compared with pinned_output.json. In the command lines,
``{tmp}`` stands for a fresh directory (and is put back in place of it in
the output) and ``{B}`` for 10**4000, whose products are too long to print.

After an intended output change, regenerate the table with

    PYTHONPATH=src python tests/test_pinned_output.py

and name the cases that moved, and why, in the change.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from memtile.cli import main

TABLE = Path(__file__).with_name("pinned_output.json")
TMP, B = "{tmp}", "{B}"
LONG = str(10 ** 4000)
DEVICES = ("cortex-a72", "cortex-m4-fp32", "cortex-m4-q15")
FORMATS = ("csv", "json", "text")
ORDERS = ("MNK", "M->K->N", "KMN", "KNM", "NMK", "NKM", "MMK")


def sweep_cases(cells: list[tuple[str, str]]) -> list[list[str]]:
    """Each device x layer table cell, with and without --c-zero; the formats
    take turns."""
    cases = []
    for c_zero in (False, True):
        for hw, table in cells:
            i = len(cases)
            argv = ["sweep", "--hw", hw, "--fixture", table, "--format", FORMATS[i % 3]]
            argv += ["--c-zero"] * c_zero + ["--out", f"{TMP}/rows"] * (i % 4 == 0)
            cases.append(argv)
    return cases


def problem_cases(rng: random.Random, count: int) -> list[list[str]]:
    """Small derive/select/emit/simulate/roofline runs: divisible and ragged
    problems, both count policies, explicit tiles, forced orders, --out and
    --descriptor-out, and bad values that exit 1."""
    cases = []
    while len(cases) < count:
        command = rng.choice(["derive", "select", "emit", "simulate", "roofline"])
        hw = rng.choice(DEVICES if rng.random() < 0.95
                        else ("no-such-device", f"{TMP}/missing.json"))
        tile = [rng.randint(1, 6) for _ in range(3)]
        if rng.random() < 0.5:
            dims = [t * rng.randint(1, 6) for t in tile]
        else:
            dims = [rng.randint(1, 40) for _ in range(3)]
        if rng.random() < 0.08:
            (tile if rng.random() < 0.5 else dims)[rng.randrange(3)] = rng.choice([0, -3])
        dims, tile = [str(d) for d in dims], [str(t) for t in tile]
        if command == "roofline":
            argv = ["roofline", "--hw", hw, "-m", tile[0], "-n", tile[2]]
        elif command == "simulate":
            argv = ["simulate", *dims, "-m", tile[0], "-k", tile[1], "-n", tile[2],
                    "--order", rng.choice(ORDERS)]
        else:
            argv = [command, "--hw", hw, *dims]
            if command == "select" or (command == "emit" and rng.random() < 0.5):
                argv += ["-m", tile[0], "-k", tile[1], "-n", tile[2]]
            argv += rng.choice([[], ["--pad"], ["--simulate"]])
        if command == "emit":
            if rng.random() < 0.3:
                argv += ["--order", rng.choice(ORDERS)]
            argv += rng.choice([[], ["--out", f"{TMP}/kernel.c"],
                                ["--descriptor-out", f"{TMP}/d.json"],
                                ["--out", f"{TMP}/kernel.c", "--descriptor-out", f"{TMP}/d.json"]])
        else:
            if command != "roofline" and rng.random() < 0.3:
                argv.append("--c-zero")
            formats = FORMATS if command == "simulate" else FORMATS[1:]
            argv += ["--format", rng.choice(formats)]
            if rng.random() < 0.2:
                argv += ["--out", f"{TMP}/answer"]
        if argv not in cases:
            cases.append(argv)
    return cases


# Answers too long to print, and files that cannot be written as asked.
EDGE_CASES = [
    ["derive", "--hw", "cortex-m4-fp32", B, B, B, "--pad"],
    ["derive", "--hw", "cortex-m4-fp32", B, B, B, "--pad", "--format", "json"],
    ["select", "--hw", "cortex-m4-fp32", B, B, B, "-m", "1", "-k", "1", "-n", "1", "--pad"],
    ["select", "--hw", "cortex-m4-fp32", "1", "1", "1", "-m", B, "-k", "1", "-n", B,
     "--simulate"],
    ["emit", "--hw", "cortex-m4-fp32", B, B, B, "--pad", "--out", f"{TMP}/kernel.c"],
    ["emit", "--hw", "cortex-m4-fp32", B, B, B, "--pad"],
    ["simulate", B, B, B, "-m", B, "-k", B, "-n", B, "--order", "MNK"],
    ["emit", "--hw", "cortex-m4-fp32", "40", "40", "40", "--descriptor-out",
     f"{TMP}/missing/d.json"],
    ["emit", "--hw", "cortex-m4-fp32", "40", "40", "40", "--out", f"{TMP}/k.c",
     "--descriptor-out", f"{TMP}/k.c"],
    ["derive", "--hw", "cortex-m4-fp32", "40", "40", "40", "--out", f"{TMP}/missing/d.json"],
    ["sweep", "--hw", "cortex-a72", "--fixture", f"{TMP}/missing.csv"],
]

# The biggest cell, q15 x dlmc, is pinned last, so the cases before it keep their ids.
BIGGEST_CELL = ("cortex-m4-q15", "dlmc")
CASES = (sweep_cases([(hw, table) for hw in DEVICES for table in ("mlperf-tiny", "dlmc")
                      if (hw, table) != BIGGEST_CELL])
         + problem_cases(random.Random(29), 130) + EDGE_CASES + sweep_cases([BIGGEST_CELL]))


def run(argv: list[str], tmp: Path) -> dict:
    """Run one command line in the empty directory ``tmp``; its whole observable output."""
    real = [arg.replace(TMP, str(tmp)).replace(B, LONG) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(real)
    files = {path.name: path.read_text(encoding="utf-8")
             for path in sorted(tmp.iterdir()) if path.is_file()}
    return {"exit": code, "stdout": out.getvalue().replace(str(tmp), TMP),
            "stderr": err.getvalue().replace(str(tmp), TMP), "files": files}


def digest(result: dict) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_pins_every_case(pinned):
    assert list(pinned) == [" ".join(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=[f"{i:03d}-{a[0]}" for i, a in enumerate(CASES)])
def test_output_is_pinned(pinned, argv, tmp_path):
    result = run(argv, tmp_path)
    assert digest(result) == pinned.get(" ".join(argv)), json.dumps(result, indent=1)


if __name__ == "__main__":
    table = {}
    for argv in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            table[" ".join(argv)] = digest(run(argv, Path(tmp)))
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {len(table)} cases in {TABLE}", file=sys.stderr)
