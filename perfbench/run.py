"""The benchmark's one command.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
prints every metric of the run as ``workload metric value unit`` and, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  It exits non-zero
without a result when the program under test is missing, and non-zero after
the result when a correctness check failed.

One run is one workload in one fresh process (``peak_rss_mb`` is the
process's lifetime maximum, so workloads do not share an interpreter).
``--out FILE`` also writes the result with the host fingerprint as JSON (what
``perfbench/compare.py`` reads).  Nothing is written anywhere else.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

#: One BLAS/OpenMP thread per process: with OpenBLAS at its default a
#: ``ProcessFleet`` worker burns two cores' worth of CPU for one core's worth
#: of work, and two workers on two cores run slower than none.  Workers
#: inherit the environment.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
ROOT = Path(__file__).resolve().parent.parent


def pin_threads() -> None:
    """Pin the BLAS thread pools; refuse if numpy got in first unpinned."""
    unpinned = [name for name, value in PINNED.items()
                if os.environ.get(name) != value]
    if unpinned and "numpy" in sys.modules:
        raise SystemExit("perfbench: numpy was imported before "
                         f"{', '.join(unpinned)} were set to 1; start the "
                         "benchmark in a fresh interpreter")
    os.environ.update(PINNED)


def fingerprint(args: argparse.Namespace) -> dict:
    """Who measured what, where: stored with every result file."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "env": {name: os.environ.get(name) for name in PINNED},
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "trace": args.trace,
        "argv": sys.argv[1:],
    }


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="oneshot | serve_distinct | serve_repeat | open_loop")
    parser.add_argument("--seed", type=int, default=11,
                        help="workload seed: query literals, arrival gaps, "
                             "serving streams")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from a traced run")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke = tiny sizes for the package's own test")
    parser.add_argument("--out", default=None,
                        help="also write results + host fingerprint here (JSON)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    pin_threads()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    # Run as a script, sys.path[0] is this directory and its modules would
    # shadow the standard library's (``trace``); import them as a package.
    sys.path[:] = [entry for entry in sys.path
                   if Path(entry or ".").resolve() != ROOT / "perfbench"]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(workloads.RUN_SECONDS)
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END

    host = fingerprint(args)
    print("# host " + json.dumps(host, sort_keys=True))
    outcome = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.scale)
    for metric, value in outcome.metrics.items():
        print(f"{args.workload} {metric} {value!r} {units[metric]}")
    print("# notes " + json.dumps(outcome.notes, sort_keys=True))
    for failure in outcome.failures[:20]:
        print(f"# {args.workload} FAILED {failure}")
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in outcome.metrics.items()},
    }
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump({"host": host, "results": [
                {"workload": args.workload, "notes": outcome.notes, **result}]},
                handle, indent=1, sort_keys=True)
            handle.write("\n")
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
