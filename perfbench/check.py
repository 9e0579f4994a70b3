"""Correctness checks built into every run.

Each function returns a list of failure messages (empty = correct).  The
runner counts them in ``failed`` and exits non-zero if there is any.
"""

from __future__ import annotations

import math

import numpy as np

from repro.serve import resolve_route, run_sequential

__all__ = ["estimates_in_range", "accuracy_sane", "served_blocks",
           "same_estimates", "against_sequential", "conservation"]

#: A median q-error above this means the estimator is broken, not inaccurate
#: (the trained models read 1.3-2.2 on every workload).
QERROR_CEILING = 10.0


def estimates_in_range(values, low: float, high: float) -> list[str]:
    """Every estimate finite and inside ``[low, high]``."""
    return [f"estimate {index} = {value!r} outside [{low}, {high}]"
            for index, value in enumerate(values)
            if not (math.isfinite(value) and low <= value <= high)]


def accuracy_sane(errors: list[float]) -> list[str]:
    """The median q-error against executor truth stays under the ceiling."""
    centre = float(np.median(errors))
    if not centre <= QERROR_CEILING:
        return [f"median q-error {centre:.3g} exceeds {QERROR_CEILING}"]
    return []


def served_blocks(reports: list, block: int) -> list[str]:
    """Every block answered all its queries with selectivities in [0, 1]."""
    failures = []
    for number, report in enumerate(reports):
        if len(report.results) != block or report.stats.shed:
            failures.append(f"block {number}: {len(report.results)} of {block} "
                            f"answered, {report.stats.shed} shed")
        failures += estimates_in_range(
            [result.selectivity for result in report.results], 0.0, 1.0)
    return failures


def same_estimates(report, expected, label: str) -> list[str]:
    """Two reports of the same scope agree bit for bit, index by index."""
    got = {result.index: result.selectivity for result in report.results}
    want = {result.index: result.selectivity for result in expected.results}
    if got.keys() != want.keys():
        return [f"{label}: answered indices differ"]
    return [f"{label}: index {index} {got[index]!r} != {want[index]!r}"
            for index in want if got[index] != want[index]]


def _sequential(registry, query, index: int, num_samples: int, seed: int) -> float:
    """The reference estimate at ``(seed, index, num_samples)``.

    One query through the unbatched, uncached, unfused path that
    ``run_fleet_sequential`` takes for every query of a workload.
    """
    route = resolve_route(registry, query)
    report = run_sequential(registry.estimator(route), [query],
                            num_samples=num_samples, seed=seed, indices=[index])
    return report.results[0].selectivity


def against_sequential(registry, served: list[tuple], *, num_samples: int,
                       seed: int, picks: int) -> list[str]:
    """Seeded picks among ``(query, index, selectivity)`` equal the reference."""
    rng = np.random.default_rng(seed)
    failures = []
    for pick in rng.choice(len(served), size=min(picks, len(served)),
                           replace=False):
        query, index, selectivity = served[int(pick)]
        want = _sequential(registry, query, index, num_samples, seed)
        if selectivity != want:
            failures.append(f"index {index}: served {selectivity!r}, "
                            f"sequential {want!r}")
    return failures


def conservation(sent: int, completed: int, shed: int) -> list[str]:
    """Every query sent was either answered or refused: none lost."""
    if completed + shed != sent:
        return [f"sent {sent} != completed {completed} + shed {shed}"]
    return []
