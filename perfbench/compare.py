"""Compare two sets of benchmark runs: ``python3 perfbench/compare.py A/ B/``.

``A`` (the parent) and ``B`` (the change) are directories of result files
written by ``run.py --out``, or trajectory entries from ``perfbench/runs/``.
For every (workload, metric) the tool prints each side's median and
quartiles, the relative difference, the metric's bound from
``BENCHMARK.json`` and a verdict, following the choosing-metrics guide:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — B wins at least nine tenths of the run pairs (ties count
  for neither) and the medians differ by more than the distance between A's
  own quartiles;
* ``unresolved`` — the run-to-run spread is wider than the bound and the two
  sides overlap, so neither of the above can be told from noise;
* ``unchanged``  — none of these.

Per-layer metrics carry no bound: they get medians and the difference only.
Run ``A`` against a second set of runs of the same commit to see the noise
floor (every end-to-end row must read ``unchanged``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(source: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` of a set of runs, in file-name order.

    ``source`` is a directory of ``run.py --out`` files or one trajectory
    entry (``perfbench/runs/*.json``: its ``runs`` plus its ``traced`` run).
    """
    if source.is_dir():
        documents = []
        for path in sorted(source.glob("*.json")):
            with open(path) as handle:
                documents.append(json.load(handle))
    else:
        with open(source) as handle:
            entry = json.load(handle)
        documents = entry["runs"] + [entry["traced"]]
    values: dict[tuple[str, str], list[float]] = {}
    for document in documents:
        for result in document["results"]:
            for metric, entry in result["metrics"].items():
                values.setdefault((result["workload"], metric), []).append(
                    float(entry["value"]))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile (a lone value is all three)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(parent: list[float], change: list[float], *, better: str,
            bound: float) -> tuple[float, str]:
    """Signed relative worsening of ``change`` and the guide's verdict."""
    sign = 1.0 if better == "lower" else -1.0
    a_first, a_median, a_third = quartiles(parent)
    b_first, b_median, b_third = quartiles(change)
    scale = abs(a_median) or 1.0
    worse_by = sign * (b_median - a_median) / scale
    spread = max(a_third - a_first, b_third - b_first) / scale
    all_better = max(sign * value for value in change) < min(
        sign * value for value in parent)
    all_worse = min(sign * value for value in change) > max(
        sign * value for value in parent)
    if spread > bound and not (all_better or all_worse):
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "regressed"
    pairs = list(zip(parent, change))
    wins = sum(sign * b < sign * a for a, b in pairs)
    losses = sum(sign * b > sign * a for a, b in pairs)
    if (wins + losses and wins >= 0.9 * (wins + losses)
            and abs(b_median - a_median) > a_third - a_first):
        return worse_by, "improved"
    return worse_by, "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path,
                        help="directory of run.py --out files, or a runs/ entry")
    parser.add_argument("change", type=Path,
                        help="directory of run.py --out files, or a runs/ entry")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    bounded = {entry["name"]: entry for entry in contract["end_to_end"]}
    layered = {entry["name"]: entry for entry in contract["per_layer"]}

    parent, change = load_runs(args.parent), load_runs(args.change)
    verdicts: dict[str, int] = {}
    print(f"{'workload':15s} {'metric':28s} {'A q1/med/q3':>32s} "
          f"{'B q1/med/q3':>32s} {'worse by':>9s} {'bound':>6s} verdict")
    for key in sorted(parent.keys() & change.keys()):
        workload, metric = key
        a, b = quartiles(parent[key]), quartiles(change[key])
        cells = [f"{workload:15s} {metric:28s}"]
        cells += ["/".join(f"{value:.4g}" for value in side).rjust(32)
                  for side in (a, b)]
        if metric in bounded:
            entry = bounded[metric]
            worse_by, word = verdict(parent[key], change[key],
                                     better=entry["better"], bound=entry["bound"])
            verdicts[word] = verdicts.get(word, 0) + 1
            cells.append(f"{worse_by:+9.3f} {entry['bound']:6.2f} {word}")
        else:
            better = layered.get(metric, {}).get("better", "lower")
            sign = 1.0 if better == "lower" else -1.0
            worse_by = sign * (b[1] - a[1]) / (abs(a[1]) or 1.0)
            cells.append(f"{worse_by:+9.3f} {'-':>6s} -")
        print(" ".join(cells))
    print("# " + ", ".join(f"{count} {word}" for word, count in sorted(verdicts.items())))
    return 1 if verdicts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
