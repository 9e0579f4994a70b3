"""The golden serving recipe: one frozen workload, one frozen set of answers.

This module pins every knob of a small end-to-end serving run — tables,
training config, workload, router shape — so the estimates it produces can be
frozen under ``tests/data/`` and compared against on every future change.  If
serving output drifts, the regression test fails loudly; if the drift is
*intentional* (a deliberate change to training, sampling or routing
semantics), regenerate the fixture and commit the diff::

    PYTHONPATH=src python tests/golden_serve.py

which prints how far the new estimates moved from the fixture it overwrites
(max absolute and max relative drift) — the one number a round-off change
quotes.

The recipe lives in one module (shared by the regeneration entry point, the
``golden_serve`` conftest fixture and the regression test) so the two sides
can never disagree about what "the golden run" is.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core import NaruConfig
from repro.data import JoinSpec, make_sessions, make_users
from repro.serve import (
    FleetRouter,
    ModelRegistry,
    generate_mixed_workload,
    load_workload,
    save_workload,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
WORKLOAD_PATH = os.path.join(DATA_DIR, "golden_serve_workload.json")
ESTIMATES_PATH = os.path.join(DATA_DIR, "golden_serve_estimates.json")

#: Every knob of the golden run.  Changing any of these is a semantic change
#: to the fixture — regenerate and commit both data files alongside it.
GOLDEN = {
    "users": 80,
    "sessions": 300,
    "users_seed": 4,
    "sessions_seed": 5,
    "epochs": 2,
    "hidden_sizes": (16, 16),
    "train_batch": 128,
    "num_queries": 10,
    "num_samples": 50,
    "batch_size": 3,
    "replicas": 2,
    "seed": 2,
}


def build_fleet() -> ModelRegistry:
    """Train the golden fleet: two base tables plus their join."""
    config = NaruConfig(epochs=GOLDEN["epochs"],
                        hidden_sizes=GOLDEN["hidden_sizes"],
                        batch_size=GOLDEN["train_batch"],
                        progressive_samples=GOLDEN["num_samples"], seed=0)
    registry = ModelRegistry(default_config=config)
    registry.register_table(make_users(num_users=GOLDEN["users"],
                                       seed=GOLDEN["users_seed"]))
    registry.register_table(
        make_sessions(num_rows=GOLDEN["sessions"], num_users=GOLDEN["users"],
                      seed=GOLDEN["sessions_seed"]),
        replicas=GOLDEN["replicas"])
    registry.register_join(JoinSpec("sessions", "users", "user_id", "user_id"))
    registry.fit_all()
    return registry


def build_workload(registry: ModelRegistry) -> list:
    """The golden mixed workload (deterministic given the registry)."""
    return generate_mixed_workload(
        {name: registry.relation(name) for name in registry.names},
        GOLDEN["num_queries"], min_filters=1, max_filters=3, seed=7)


def serve(registry: ModelRegistry, workload: list):
    """Serve the workload through the golden router shape."""
    router = FleetRouter(registry, batch_size=GOLDEN["batch_size"],
                         num_samples=GOLDEN["num_samples"],
                         seed=GOLDEN["seed"])
    return router.run(workload)


def drift(old: list[float], new: list[float]) -> tuple[float, float]:
    """Max absolute and max relative difference of two estimate lists
    (relative to the old value; an old zero counts only if it moved)."""
    old_values, new_values = np.asarray(old), np.asarray(new)
    if old_values.shape != new_values.shape:
        return float("inf"), float("inf")
    absolute = np.abs(new_values - old_values)
    relative = np.divide(absolute, np.abs(old_values),
                         out=np.where(absolute > 0, np.inf, 0.0),
                         where=old_values != 0)
    return (float(absolute.max(initial=0.0)),
            float(relative.max(initial=0.0)))


def regenerate() -> dict:
    """Rebuild both fixture files; returns the estimates document, with the
    drift from the file it overwrote under ``"drift"`` (``None`` if there was
    none)."""
    previous = None
    if os.path.exists(ESTIMATES_PATH):
        with open(ESTIMATES_PATH) as handle:
            previous = json.load(handle)["selectivities"]
    registry = build_fleet()
    workload = build_workload(registry)
    os.makedirs(DATA_DIR, exist_ok=True)
    save_workload(WORKLOAD_PATH, workload)
    report = serve(registry, load_workload(WORKLOAD_PATH))
    document = {
        "golden": {key: list(value) if isinstance(value, tuple) else value
                   for key, value in GOLDEN.items()},
        "routes": [result.route for result in report.results],
        "selectivities": [result.selectivity for result in report.results],
    }
    with open(ESTIMATES_PATH, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return {**document, "drift": None if previous is None
            else drift(previous, document["selectivities"])}


if __name__ == "__main__":
    frozen = regenerate()
    print(f"Wrote {WORKLOAD_PATH}")
    print(f"Wrote {ESTIMATES_PATH} ({len(frozen['selectivities'])} estimates)")
    if frozen["drift"] is None:
        print("No previous estimates to compare against")
    else:
        print("Drift from the previous estimates: max absolute {:.3g}, "
              "max relative {:.3g}".format(*frozen["drift"]))
