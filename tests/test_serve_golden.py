"""Golden-workload regression: frozen serving output must not drift.

The fixture files under ``tests/data/`` pin the exact estimates one small
end-to-end serving run produced when they were last regenerated.  Any change
that shifts them — training, sampling, routing, random-stream keying — fails
here loudly, with a regeneration hint for the cases where the shift is
intentional.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import golden_serve
from repro.serve import (
    FleetRouter,
    VirtualClock,
    load_workload,
    stream_workload,
)

_REGEN_HINT = (
    "Serving output drifted from the golden fixture under tests/data/. "
    "If this change is intentional (training, sampling or routing semantics "
    "deliberately changed), regenerate the fixture and commit the new files:"
    "\n\n    PYTHONPATH=src python tests/golden_serve.py\n")


def test_golden_workload_estimates_have_not_drifted(golden_serve_fixture):
    expected = golden_serve_fixture
    # The frozen knobs must match the recipe: a silent edit to one side
    # invalidates the comparison, so check it explicitly first.
    frozen_knobs = {key: tuple(value) if isinstance(value, list) else value
                    for key, value in expected["golden"].items()}
    assert frozen_knobs == golden_serve.GOLDEN, (
        "tests/data/golden_serve_estimates.json was generated with different "
        "knobs than tests/golden_serve.py declares. " + _REGEN_HINT)

    registry = golden_serve.build_fleet()
    workload = load_workload(golden_serve.WORKLOAD_PATH)
    assert len(workload) == len(expected["selectivities"])
    report = golden_serve.serve(registry, workload)

    assert [result.route for result in report.results] == expected["routes"], (
        "Routing of the golden workload changed. " + _REGEN_HINT)
    np.testing.assert_allclose(
        report.selectivities, np.asarray(expected["selectivities"]),
        rtol=1e-6, atol=1e-9,
        err_msg="Estimates for the golden workload drifted. " + _REGEN_HINT)


@pytest.mark.parametrize("batch_size", (1, 64))
def test_golden_workload_streaming_equals_batch(batch_size):
    """Streaming determinism, pinned on the golden workload: submitting the
    queries one at a time through the asyncio client, in a *shuffled* arrival
    order with pre-assigned indices, produces estimates identical to
    ``FleetRouter.run`` on the in-order list — at batch_size 1 and 64."""
    registry = golden_serve.build_fleet()
    workload = load_workload(golden_serve.WORKLOAD_PATH)
    batch = FleetRouter(registry, batch_size=batch_size,
                        num_samples=golden_serve.GOLDEN["num_samples"],
                        seed=golden_serve.GOLDEN["seed"]).run(workload)
    order = list(range(len(workload)))
    random.Random(batch_size).shuffle(order)
    router = FleetRouter(registry, batch_size=batch_size,
                         num_samples=golden_serve.GOLDEN["num_samples"],
                         seed=golden_serve.GOLDEN["seed"])
    streamed = stream_workload(router, workload, arrival_order=order)
    assert [result.index for result in streamed.results] == \
        list(range(len(workload)))
    np.testing.assert_allclose(streamed.selectivities, batch.selectivities,
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("batch_size", (1, 64))
def test_golden_workload_flush_timeout_preserves_estimates(batch_size):
    """The flush-timeout determinism contract, pinned on the golden
    workload: with the virtual-clock timer enabled (2 ms per arrival against
    a 5 ms deadline) timeout-triggered flushes rebatch the stream — yet the
    estimates equal ``FleetRouter.run`` on the in-order list exactly, at
    batch_size 1 and 64."""
    registry = golden_serve.build_fleet()
    workload = load_workload(golden_serve.WORKLOAD_PATH)
    batch = FleetRouter(registry, batch_size=batch_size,
                        num_samples=golden_serve.GOLDEN["num_samples"],
                        seed=golden_serve.GOLDEN["seed"]).run(workload)
    router = FleetRouter(registry, batch_size=batch_size,
                         num_samples=golden_serve.GOLDEN["num_samples"],
                         seed=golden_serve.GOLDEN["seed"],
                         flush_after_ms=5.0, clock=VirtualClock())
    timed = stream_workload(router, workload, advance_ms=2.0)
    if batch_size == 64:
        assert timed.stats.timeout_flushes > 0  # the deadline really fired
    np.testing.assert_allclose(timed.selectivities, batch.selectivities,
                               rtol=0.0, atol=1e-12)


def test_golden_workload_matches_generator(golden_serve_fixture):
    """The frozen workload file is the one the recipe generates today."""
    registry = golden_serve.build_fleet()
    regenerated = golden_serve.build_workload(registry)
    frozen = load_workload(golden_serve.WORKLOAD_PATH)
    assert len(frozen) == len(regenerated), _REGEN_HINT
    for left, right in zip(frozen, regenerated):
        assert left.table == right.table, _REGEN_HINT
        assert [(p.column, p.operator, p.value) for p in left] == \
            [(p.column, p.operator, p.value) for p in right], _REGEN_HINT
