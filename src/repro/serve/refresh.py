"""Live refresh of a serving fleet: drift watching and atomic model swaps.

Everything below the registry proves its estimates are frozen-in-time
correct; this module owns the *time* axis.  A
:class:`~repro.serve.registry.ModelRegistry` stamps each relation with a
monotonic **data epoch** (bumped by :meth:`~repro.serve.registry
.ModelRegistry.ingest`) and records the epoch its serving model was fitted
at; the gap between the two is the relation's **staleness**.
:class:`RefreshController` turns those counters into an operating loop, the
protocol of the paper's data-shift study (§6.7.3 / Table 8):

1. **Ingest** — new rows are appended through the controller, which scores
   their *drift*: the cross-entropy (in bits) of the incoming tuples under
   the current model, minus the model's cross-entropy on the data it was
   trained on (:func:`repro.core.training.cross_entropy_bits`).  Rows the
   model already explains score near zero; a shifted partition scores high.
2. **Stale serving under a bound** — the fleet keeps answering from the
   stale model's selectivities, scaled by the grown relation's row count
   (the ingest sets it, as the paper's stale model knows today's row
   count).  Routers key their caches on the relation's version, which
   every ingest moves, so nothing *cached* before the ingest is ever served
   again.  The controller flags the relation ``refresh_due`` once its
   staleness exceeds ``max_staleness``; the drift score is reported
   alongside, for the operator to read.
3. **Refresh and atomic swap** — :meth:`RefreshController.refresh`
   fine-tunes a copy of the existing model on the grown relation
   (:meth:`repro.core.estimator.NaruEstimator.refresh`, with the *original*
   dictionaries via :func:`repro.data.shift.encode_with_dictionaries`) and
   registers the copy with ``replace=True`` — stamping the model epoch to
   the data epoch and moving the relation's version in one step, so routers
   pick the new version up atomically at their next scope boundary, with or
   without an ingest since the last fit.
   Values the old dictionaries cannot encode force a cold rebuild instead of
   a fine-tune.
"""

from __future__ import annotations

import copy

import numpy as np

from ..core.estimator import NaruEstimator
from ..core.training import cross_entropy_bits
from ..data.shift import encode_with_dictionaries
from ..data.table import Table
from ..estimators.base import CardinalityEstimator
from .registry import ModelRegistry

__all__ = ["RefreshController"]

#: Rows sampled (deterministically, from the controller's ``seed``) from the
#: rows a model last trained on, for its drift baseline.
_BASELINE_ROWS = 2048


class RefreshController:
    """Watches drift on a registry's relations and swaps refreshed models in.

    Parameters
    ----------
    registry:
        The fleet to manage; the controller never bypasses it — every swap
        goes through ``register_table(..., replace=True)`` so the
        relation's version and router invalidation stay correct.
    max_staleness:
        How many ingests a relation's model may fall behind before the
        controller flags it ``refresh_due`` (default 1: serve one stale
        epoch, refresh before the second).  ``0`` flags after every ingest.
    refresh_epochs:
        Fine-tuning passes over the grown relation per refresh.
    seed:
        Seed of the drift baseline's row sample (``_BASELINE_ROWS`` of the
        rows the model last trained on).
    """

    def __init__(self, registry: ModelRegistry, *, max_staleness: int = 1,
                 refresh_epochs: int = 1, seed: int = 0) -> None:
        if max_staleness < 0:
            raise ValueError(f"max_staleness must be non-negative, "
                             f"got {max_staleness}")
        if refresh_epochs < 1:
            raise ValueError(f"refresh_epochs must be at least 1, "
                             f"got {refresh_epochs}")
        self.registry = registry
        self.max_staleness = max_staleness
        self.refresh_epochs = refresh_epochs
        self.seed = seed
        #: Relation -> drift (bits) of its most recent ingest (``None`` when
        #: no model was built yet, or the estimator exposes no likelihood).
        self.last_drift_bits: dict[str, float | None] = {}
        #: Relation -> completed refresh count.
        self.refreshes: dict[str, int] = {}
        #: Relation -> (the serving model scored, its baseline bits).
        self._baselines: dict[str, tuple[NaruEstimator, float | None]] = {}

    # ------------------------------------------------------------------ #
    # Drift signals
    # ------------------------------------------------------------------ #
    def _baseline_bits(self, name: str, estimator: NaruEstimator) -> float | None:
        """Cross-entropy of (a sample of) the rows the model last trained on.

        Those rows are the relation as the model was registered, fitted or
        refreshed on, in the model's own codes — not ``estimator.table``,
        which only lends its dictionaries (Table 8's model has the full
        table's, but trained on one partition).  Taken when the controller
        first scores the model, which :meth:`ingest` does before it appends,
        and kept while that model serves: a stale model keeps its baseline
        across ingests, a refresh's copy takes its own.  ``None`` when the
        relation holds values the model's dictionaries lack (rows appended
        around the controller before it first scored the model).
        """
        cached = self._baselines.get(name)
        if cached is not None and cached[0] is estimator:
            return cached[1]
        codes = encode_with_dictionaries(estimator.table,
                                         self.registry.relation(name))
        bits = None
        if codes is not None:
            if _BASELINE_ROWS < codes.shape[0]:
                rng = np.random.default_rng(self.seed)
                codes = codes[rng.integers(0, codes.shape[0],
                                           size=_BASELINE_ROWS)]
            bits = cross_entropy_bits(estimator.model, codes)
        self._baselines[name] = (estimator, bits)
        return bits

    def drift_bits(self, name: str, rows: Table) -> float | None:
        """Excess bits per tuple the current model spends on ``rows``.

        ``cross_entropy(rows) - cross_entropy(training data)`` under the
        relation's serving model: near zero for rows the model already
        explains, large for a shifted partition, ``inf`` when the rows hold
        values outside the model's dictionaries (a fine-tune cannot absorb
        them — only a rebuild can).  ``None`` when the relation has no built
        likelihood model to score with, or no baseline (see
        :meth:`_baseline_bits`).
        """
        if not self.registry.is_fitted(name):
            return None
        estimator = self.registry.estimator(name, fit=False)
        if not isinstance(estimator, NaruEstimator):
            return None
        codes = encode_with_dictionaries(estimator.table, rows)
        if codes is None:
            return float("inf")
        baseline = self._baseline_bits(name, estimator)
        if baseline is None:
            return None
        return cross_entropy_bits(estimator.model, codes) - baseline

    # ------------------------------------------------------------------ #
    # The ingest -> stale-serve -> refresh loop
    # ------------------------------------------------------------------ #
    def ingest(self, name: str, rows: Table) -> dict:
        """Score, append and epoch-bump one batch of rows; returns a record.

        The drift score is computed *before* the append (it describes the
        incoming rows against the current model), then the rows are ingested
        through :meth:`~repro.serve.registry.ModelRegistry.ingest` — bumping
        the data epoch and the version, so every version-keyed cache entry
        for the relation is dead from this moment on.  The fleet then serves
        stale until the caller acts on ``refresh_due`` with :meth:`refresh`.

        Returns:
            ``{"relation", "data_epoch", "staleness", "drift_bits",
            "refresh_due"}``.
        """
        drift = self.drift_bits(name, rows)
        self.last_drift_bits[name] = drift
        epoch = self.registry.ingest(name, rows)
        return {
            "relation": name,
            "data_epoch": epoch,
            "staleness": self.registry.staleness(name),
            "drift_bits": drift,
            "refresh_due": self.refresh_due(name),
        }

    def refresh_due(self, name: str) -> bool:
        """Whether the relation's model has exceeded its stale-serving bound."""
        return self.registry.staleness(name) > self.max_staleness

    def due(self) -> list[str]:
        """Every registered relation currently flagged for a refresh."""
        return [name for name in self.registry.names if self.refresh_due(name)]

    def refresh(self, name: str) -> CardinalityEstimator:
        """Produce the relation's next model version and swap it in atomically.

        Fine-tunes a copy of the existing Naru estimator — its model and
        trainer, sharing the training :class:`~repro.data.table.Table` — on
        the grown relation encoded with its *original* dictionaries (the
        §6.7.3 protocol) for ``refresh_epochs`` passes, and registers the
        copy with ``replace=True``; the copy already scales by the grown
        relation's rows, which every ingest sets.  The estimator a live
        replica group serves is never touched, so the group keeps answering
        from the old version, with its conditional cache, until the scope
        boundary.  The
        registration stamps ``model_epoch = data_epoch`` and moves the
        relation's :meth:`~repro.serve.registry.ModelRegistry.version` (even
        with no ingest since the last fit), so routers rebuild the
        relation's replica group (with fresh conditional caches) at their
        next scope boundary and result-cache lookups move to the new
        version.  Falls back to a cold rebuild when the relation has no
        fine-tunable model or the grown data no longer fits the old
        dictionaries.  Returns the new serving estimator.
        """
        table = self.registry.relation(name)
        estimator = (self.registry.estimator(name, fit=False)
                     if self.registry.is_fitted(name) else None)
        codes = (encode_with_dictionaries(estimator.table, table)
                 if isinstance(estimator, NaruEstimator) else None)
        if codes is None:
            # Cold rebuild: drop the old model and let the registry build a
            # fresh one on the relation's current table and dictionaries.
            self.registry.register_table(table, name=name, replace=True)
            refreshed = self.registry.estimator(name)
        else:
            refreshed = copy.deepcopy(estimator,
                                      {id(estimator.table): estimator.table})
            refreshed.refresh(codes, epochs=self.refresh_epochs)
            self.registry.register_table(table, name=name, estimator=refreshed,
                                         replace=True)
        self.refreshes[name] = self.refreshes.get(name, 0) + 1
        return refreshed

    def __repr__(self) -> str:
        return (f"RefreshController({len(self.registry)} relations, "
                f"max_staleness={self.max_staleness})")
