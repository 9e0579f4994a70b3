"""Named fleet of estimators: one model per registered relation.

:class:`ModelRegistry` is the model-management half of multi-model serving.
It holds *named relations* — base tables and join results alike, following the
paper's §4.1 observation that a joined relation is served exactly like a base
table — and builds one estimator per relation on demand:

* :meth:`ModelRegistry.register_table` registers a base :class:`Table`;
  ``replicas=N`` marks the relation for replicated serving — the router
  materialises N engine replicas over the relation's one trained model, so a
  hot table stops bottlenecking the fleet (see
  :class:`repro.serve.router.ReplicaGroup`),
* :meth:`ModelRegistry.register_join` registers a
  :class:`repro.data.JoinSpec`, resolves its inputs against the already
  registered relations and materialises (or samples) the join result,
* :meth:`ModelRegistry.estimator` returns the relation's trained estimator,
  building and fitting it lazily on first use; :meth:`ModelRegistry.fit_all`
  trains every pending model eagerly (what a server does at startup so the
  first routed query does not pay the training cost),
* :meth:`ModelRegistry.size_bytes` / :meth:`ModelRegistry.size_report` roll
  the per-model storage budgets up to the fleet level, the quantity the
  paper's storage-budget comparisons cap per relation.

The registry is deliberately estimator-agnostic: pre-built, already trained
estimators (any :class:`repro.estimators.base.CardinalityEstimator`) can be
registered directly, and relations without one default to a :class:`repro.core
.NaruEstimator` built from the registry's default config and fitted by the
registry itself.  The routing half —
micro-batching queries per model and merging reports — lives in
:class:`repro.serve.router.FleetRouter`.
"""

from __future__ import annotations

from ..core.config import NaruConfig
from ..core.estimator import NaruEstimator
from ..data.joins import JoinSpec
from ..data.table import Table
from ..estimators.base import CardinalityEstimator
from ..query.predicates import DNFQuery, Query
from ..query.shapes import QueryShape, query_shape

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """Registry of named relations and the estimators that serve them.

    Parameters
    ----------
    default_config:
        :class:`~repro.core.config.NaruConfig` of every model the registry
        builds itself (relations registered without a pre-built estimator);
        ``None`` uses ``NaruConfig()``.
    """

    def __init__(self, *, default_config: NaruConfig | None = None) -> None:
        self.default_config = default_config or NaruConfig()
        self._relations: dict[str, Table] = {}
        self._estimators: dict[str, CardinalityEstimator] = {}
        #: Per-relation fallback estimators serving the query shapes the
        #: primary cannot (e.g. many-branch DNF beyond Naru's expansion
        #: budget); see :meth:`register_table` and :meth:`fallback`.
        self._fallbacks: dict[str, CardinalityEstimator] = {}
        self._fitted: set[str] = set()
        self._joins: dict[str, JoinSpec] = {}
        self._replicas: dict[str, int] = {}
        #: Monotonic data epoch per relation: bumped by every :meth:`ingest`.
        self._epochs: dict[str, int] = {}
        #: Data epoch each relation's serving model was (re)fitted at.
        self._model_epochs: dict[str, int] = {}
        #: Model swaps per relation: bumped by every ``replace=True``
        #: registration, so a refresh moves :meth:`serving_epoch` even when
        #: no ingest moved the data epoch.
        self._swaps: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register_table(self, table: Table, *, name: str | None = None,
                       estimator: CardinalityEstimator | None = None,
                       fallback: CardinalityEstimator | None = None,
                       replicas: int = 1, replace: bool = False) -> str:
        """Register a base table as a named relation and return its name.

        Parameters
        ----------
        table:
            The relation to serve.
        name:
            Registry name; defaults to ``table.name``.
        estimator:
            Pre-built estimator to serve this relation with instead of a
            lazily built Naru model (built from ``default_config``).  It
            must arrive ready to serve (already trained): the registry only
            manages the fit lifecycle of models it builds itself — it
            cannot know what arguments an arbitrary estimator's ``fit``
            needs (MSCN wants a training workload, the KDE variants want
            feedback, …).
        fallback:
            Optional second estimator serving the query shapes the primary
            cannot (see
            :meth:`repro.estimators.base.CardinalityEstimator.capabilities`) —
            typically a :class:`repro.estimators.SamplingEstimator`, whose
            row-level access unions DNF branches of any width.  Like
            ``estimator`` it must arrive trained and schema-matched; the
            router routes a query here only when the primary's
            ``can_serve`` refuses it.  Tune later with :meth:`set_fallback`.
        replicas:
            Number of serving-engine replicas the router materialises for
            this relation (default 1).  Replicas share the relation's one
            trained model — the estimate of a query depends only on
            ``(seed, global workload index)``, never on which replica served
            it — but each replica keeps its own micro-batch queue and its own
            slice of the fleet cache budget, so a hot relation stops
            head-of-line-blocking the fleet.  Tune later with
            :meth:`set_replicas`.
        replace:
            Allow re-registering an already registered name — the atomic
            model-swap half of a live refresh (see
            :class:`repro.serve.refresh.RefreshController`).  The relation's
            data epoch and replica count are preserved, and its swap count
            (part of :meth:`serving_epoch`) moves; when an ``estimator`` is
            supplied its model epoch is stamped to the current data epoch,
            marking the relation fresh again.  With the default ``False`` a
            duplicate name raises.
        """
        name = name or table.name
        replacing = name in self._relations
        if replacing and not replace:
            raise ValueError(f"relation {name!r} is already registered")
        if replicas < 1:
            raise ValueError(f"replicas must be at least 1, got {replicas}")
        if estimator is not None:
            self._validate_prebuilt(name, estimator, table, "estimator")
        if fallback is not None:
            self._validate_prebuilt(name, fallback, table, "fallback estimator")
        self._relations[name] = table
        if replacing:
            # A replacement swaps table + model only; the replica count (and
            # the data epoch) survive — tune replicas with set_replicas.
            self._swaps[name] = self._swaps.get(name, 0) + 1
        else:
            self._replicas[name] = replicas
        if estimator is not None:
            self._estimators[name] = estimator
            self._fitted.add(name)
            self._model_epochs[name] = self._epochs.get(name, 0)
        elif replacing:
            # The old model summarises the old table: drop it so the next
            # estimator() call rebuilds (and restamps) on the new data.
            self._estimators.pop(name, None)
            self._fitted.discard(name)
        if fallback is not None:
            self._fallbacks[name] = fallback
        # A replacement without an explicit fallback keeps the existing one,
        # mirroring how the replica count survives a model swap.
        return name

    @staticmethod
    def _validate_prebuilt(name: str, estimator: CardinalityEstimator,
                           table: Table, role: str) -> None:
        # Structural, not identity: a live refresh legitimately rebuilds
        # the relation as a new equal-schema Table (concat re-derives the
        # dictionaries) while the refreshed estimator still points at the
        # Table it was trained on.  What must match is the schema.
        if estimator.table.column_names != table.column_names:
            raise ValueError(
                f"{role} for {name!r} was built against table "
                f"{estimator.table.name!r}, whose schema does not match "
                "the registered relation")
        if not getattr(estimator, "_fitted", True):
            raise ValueError(
                f"{role} for {name!r} is not fitted; train it before "
                "registering (the registry only fits models it builds)")

    def register_join(self, spec: JoinSpec, *, replicas: int = 1) -> str:
        """Build a join relation from registered inputs and register it.

        The spec's ``left``/``right`` names are resolved against the
        relations registered so far; the resulting table (materialised or
        sampled, per ``spec.how``) becomes a first-class named relation that
        routes, budgets and replicates exactly like a base table.  Returns
        the relation name.
        """
        name = spec.relation_name
        if name in self._relations:
            raise ValueError(f"relation {name!r} is already registered")
        table = spec.build(self._relations)
        self.register_table(table, name=name, replicas=replicas)
        self._joins[name] = spec
        return name

    def set_replicas(self, name: str, replicas: int) -> None:
        """Change the replica count of an already registered relation.

        Routers built *after* the change pick up the new count; routers
        already serving keep the replica groups they materialised.  The
        relation's trained model is untouched — scaling a hot relation out
        (or back in) never retrains anything.
        """
        self.relation(name)  # raise uniformly for unknown names
        if replicas < 1:
            raise ValueError(f"replicas must be at least 1, got {replicas}")
        self._replicas[name] = replicas

    def set_fallback(self, name: str,
                     fallback: CardinalityEstimator | None) -> None:
        """Set (or clear, with ``None``) a relation's fallback estimator.

        The fallback serves queries whose shape the primary estimator
        refuses (see :meth:`can_serve`); it must arrive trained and
        schema-matched, exactly like a pre-built primary.  Routers pick the
        change up when they materialise the relation's serving group.
        """
        table = self.relation(name)
        if fallback is None:
            self._fallbacks.pop(name, None)
            return
        self._validate_prebuilt(name, fallback, table, "fallback estimator")
        self._fallbacks[name] = fallback

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self):
        return iter(self._relations)

    @property
    def names(self) -> list[str]:
        """Registered relation names, in registration order."""
        return list(self._relations)

    def relation(self, name: str) -> Table:
        """The table backing one registered relation."""
        try:
            return self._relations[name]
        except KeyError:
            known = ", ".join(self.names) or "none"
            raise KeyError(f"no relation named {name!r}; "
                           f"registered: {known}") from None

    def join_spec(self, name: str) -> JoinSpec | None:
        """The :class:`JoinSpec` a relation was built from (``None`` for base tables)."""
        self.relation(name)  # raise uniformly for unknown names
        return self._joins.get(name)

    def replicas(self, name: str) -> int:
        """Number of serving-engine replicas registered for one relation."""
        self.relation(name)
        return self._replicas.get(name, 1)

    def data_epoch(self, name: str) -> int:
        """The relation's monotonic data epoch (0 until the first ingest)."""
        self.relation(name)
        return self._epochs.get(name, 0)

    def model_epoch(self, name: str) -> int:
        """The data epoch the relation's serving model was (re)fitted at."""
        self.relation(name)
        return self._model_epochs.get(name, 0)

    def staleness(self, name: str) -> int:
        """How many ingests the serving model is behind the data (0 = fresh)."""
        return self.data_epoch(name) - self.model_epoch(name)

    def serving_epoch(self, name: str) -> tuple[int, int, int]:
        """The ``(data_epoch, model_epoch, swaps)`` triple caches are keyed on.

        A cached selectivity is valid only while *every* component stands
        still: an ingest changes the true answer, a model swap changes the
        served one.  The swap count moves on every ``replace=True``
        registration, so a refresh with no ingest since the last fit (which
        leaves both epochs where they were) still moves the triple.  Routers
        stamp :class:`repro.serve.cache.ResultCache` entries with it and
        rebuild replica groups when it moves, so any bump invalidates them.
        """
        return (self.data_epoch(name), self.model_epoch(name),
                self._swaps.get(name, 0))

    def ingest(self, name: str, rows: Table) -> int:
        """Append rows to a relation and bump its data epoch; returns the epoch.

        The relation's backing table is replaced by the concatenation (same
        schema required, see :meth:`repro.data.Table.concat`); the serving
        estimator is deliberately left untouched — it keeps serving *stale*
        estimates at the old row count until a refresh swaps in the next
        model version (:class:`repro.serve.refresh.RefreshController`).
        Epoch-keyed caches reject their now-stale entries on the next lookup.
        """
        table = self.relation(name)
        self._relations[name] = table.concat(rows, name=table.name)
        self._epochs[name] = self._epochs.get(name, 0) + 1
        return self._epochs[name]

    def serving_rows(self, name: str) -> int:
        """The row count estimates for one relation scale by.

        The built estimator's (possibly refreshed via ``set_row_count``)
        count when a model exists, falling back to the raw relation's —
        so cardinalities derived from cached selectivities agree with the
        model-served path even after data-shift updates.
        """
        estimator = self._estimators.get(name)
        if estimator is not None:
            return estimator.num_rows
        return self.relation(name).num_rows

    @property
    def total_replicas(self) -> int:
        """Fleet-wide engine count: the sum of every relation's replicas."""
        return sum(self._replicas.get(name, 1) for name in self._relations)

    def worker_assignments(self, workers: int) -> dict[tuple[str, int], int]:
        """Deterministic placement of every ``(relation, replica)`` engine.

        Round-robins the fleet's engines — relations in registration order,
        each with its registered replica count, replicas in index order —
        across ``workers`` slots, so the mapping depends only on the
        registry's contents and the worker count, never on process identity
        or timing.  This is the sharding half of the
        cross-process routing contract: :class:`repro.serve.procfleet
        .ProcessFleet` routes a query to its replica first (same crc32 hash
        as the in-process router), then looks the replica's worker up here —
        which is why ``workers=1`` and ``workers=N`` serve identical numbers.

        Args:
            workers: Number of worker slots (at least 1).

        Returns:
            ``{(relation, replica): worker_slot}`` covering every engine.
        """
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        assignment: dict[tuple[str, int], int] = {}
        slot = 0
        for name in self.names:
            for replica in range(self.replicas(name)):
                assignment[(name, replica)] = slot % workers
                slot += 1
        return assignment

    def is_fitted(self, name: str) -> bool:
        """Whether the relation's estimator has been built and trained."""
        self.relation(name)
        return name in self._fitted

    def fallback(self, name: str) -> CardinalityEstimator | None:
        """The relation's fallback estimator (``None`` when unset)."""
        self.relation(name)
        return self._fallbacks.get(name)

    def capabilities(self, name: str) -> frozenset[QueryShape]:
        """Query shapes the relation's *primary* estimator can answer.

        Reads the built estimator when one exists; a relation still pending
        its lazy Naru build reports Naru's capability set — the envelope is
        derivable from the config alone, so introspection never triggers a
        model build.
        """
        estimator = self._estimators.get(name)
        if estimator is not None:
            return estimator.capabilities()
        self.relation(name)
        return frozenset({QueryShape.CONJUNCTIVE, QueryShape.PREFIX,
                          QueryShape.DISJUNCTIVE})

    def can_serve(self, name: str, query: "Query | DNFQuery") -> bool:
        """Whether the relation's primary estimator can answer the query.

        Like :meth:`capabilities` this never builds a model: an unbuilt
        relation applies Naru's rules (all shapes, disjunctions bounded by
        the config's ``max_dnf_branches``) from the config alone, so routing
        decisions are cheap and identical before and after the lazy build.
        """
        estimator = self._estimators.get(name)
        if estimator is not None:
            return estimator.can_serve(query)
        if query_shape(query) not in self.capabilities(name):
            return False
        if isinstance(query, DNFQuery) and len(query.branches) > 1:
            return len(query.branches) <= self.default_config.max_dnf_branches
        return True

    # ------------------------------------------------------------------ #
    # Estimator lifecycle
    # ------------------------------------------------------------------ #
    def estimator(self, name: str, *, fit: bool = True) -> CardinalityEstimator:
        """The estimator serving one relation, built (and fitted) lazily.

        The first call builds the model; with ``fit=True`` (the default) it
        is also trained before being returned, so callers always receive a
        servable estimator.  Later calls return the same object.
        """
        table = self.relation(name)
        estimator = self._estimators.get(name)
        if estimator is None:
            estimator = NaruEstimator(table, self.default_config)
            self._estimators[name] = estimator
        if fit and name not in self._fitted:
            # Only registry-built Naru models reach this branch: pre-built
            # estimators are required to arrive fitted at registration.
            estimator.fit()
            self._fitted.add(name)
            self._model_epochs[name] = self._epochs.get(name, 0)
        return estimator

    def fit_all(self) -> dict[str, CardinalityEstimator]:
        """Build and train every registered model; returns ``name -> estimator``.

        Idempotent: already fitted models are returned as-is.
        """
        return {name: self.estimator(name) for name in self._relations}

    # ------------------------------------------------------------------ #
    # Budget accounting
    # ------------------------------------------------------------------ #
    def size_report(self) -> dict[str, dict]:
        """Per-relation budget accounting, rolled up by :meth:`size_bytes`.

        For each relation: the estimator's model size (0 until the model is
        built), the raw relation footprint, row/column counts, whether the
        model is trained, and whether the relation is a join.
        """
        report: dict[str, dict] = {}
        for name, table in self._relations.items():
            estimator = self._estimators.get(name)
            report[name] = {
                "model_bytes": estimator.size_bytes() if estimator is not None else 0,
                "relation_bytes": table.in_memory_bytes(),
                "num_rows": table.num_rows,
                "num_columns": table.num_columns,
                "fitted": name in self._fitted,
                "is_join": name in self._joins,
                "fallback": (self._fallbacks[name].name
                             if name in self._fallbacks else None),
                "fallback_bytes": (self._fallbacks[name].size_bytes()
                                   if name in self._fallbacks else 0),
                "replicas": self._replicas.get(name, 1),
            }
        return report

    def size_bytes(self) -> int:
        """Total model storage of the fleet (built models only)."""
        return sum(entry["model_bytes"] for entry in self.size_report().values())

    def __repr__(self) -> str:
        return (f"ModelRegistry({len(self)} relations: "
                f"{', '.join(self.names) or 'empty'})")
