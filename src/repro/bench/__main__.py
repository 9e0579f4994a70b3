"""Command line for the experiment harness.

Usage::

    python -m repro.bench list
    python -m repro.bench run table3
    REPRO_SCALE=paper python -m repro.bench run all
"""

from __future__ import annotations

import argparse
import sys
import time

from .registry import EXPERIMENTS, list_experiments, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench",
                                     description="Reproduce the paper's tables and figures")
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, e.g. table3, figure7, all")
    arguments = parser.parse_args(argv)

    if arguments.command == "list":
        for name, description in list_experiments():
            print(f"{name:<10} {description}")
        return 0

    targets = list(EXPERIMENTS) if arguments.experiment == "all" else [arguments.experiment]
    for target in targets:
        start = time.perf_counter()
        result = run_experiment(target)
        elapsed = time.perf_counter() - start
        for part in ("text", "timing_text"):
            if part in result:
                print(result[part])
        print(f"[{target} finished in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
