"""Traced stand-in for ``python -m memtile.cli``: run as

    python -X importtime perfbench/cli_child.py SUMMARY_FILE [cli arguments...]

It installs the benchmark's span wrappers, runs ``memtile.cli.main`` on the
arguments, writes the span summary as JSON to SUMMARY_FILE and exits with
the command's exit code. ``src`` must be on PYTHONPATH.
"""

import json
import sys

import tracer

import memtile.cli


def main() -> int:
    summary_file, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    spans.install()
    try:
        return memtile.cli.main(argv)
    finally:
        spans.uninstall()
        with open(summary_file, "w", encoding="utf-8") as out:
            json.dump(spans.summary(), out)


if __name__ == "__main__":
    sys.exit(main())
