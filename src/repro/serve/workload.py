"""Saving and replaying workload files.

A workload file is a small JSON document holding the queries produced by
:mod:`repro.query.generator` (or written by hand), so a serving run can be
replayed bit-for-bit later or on another machine.  Three versions are read;
only the newest is written:

* **Version 1** (single relation) stores each query as a bare predicate
  list; an optional document-level ``"table"`` records which relation the
  workload was generated against::

      {
        "version": 1,
        "table": "census",
        "queries": [
          [["age", "<=", 40], ["sex", "=", "sex_0"]],
          ...
        ]
      }

* **Version 2** (multi relation) stores each query as an object with an
  explicit ``"table"`` qualifier, so one file can mix queries against many
  registered relations (base tables *and* joins) and be replayed through a
  :class:`repro.serve.FleetRouter`::

      {
        "version": 2,
        "table": "census",            # optional default for unqualified queries
        "queries": [
          {"table": "dmv", "predicates": [["state", "=", "state_3"]]},
          {"predicates": [["age", "<=", 40]]},   # falls back to the default
          ...
        ]
      }

* **Version 3** (query shapes, the one :func:`save_workload` writes)
  extends the version-2 object form with disjunctive queries: a
  :class:`~repro.query.predicates.DNFQuery` serialises as an object with a
  ``"branches"`` list (one predicate list per conjunctive branch) instead of
  ``"predicates"``.  ``LIKE`` prefix predicates need no structural change —
  they are ordinary ``[column, "like", "prefix%"]`` triples::

      {
        "version": 3,
        "queries": [
          {"table": "dmv", "branches": [[["state", "=", "state_3"]],
                                        [["color", "like", "bl%"]]]},
          {"table": "census", "predicates": [["age", "<=", 40]]},
          ...
        ]
      }

:func:`save_workload` always writes the object form under version 3 (an
unqualified query simply omits ``"table"``); :func:`load_workload` reads all
three, so files written by older releases keep replaying.  Values are stored
as plain JSON scalars; ``IN`` predicates store a canonically sorted list of values (so
equal queries serialise byte-identically regardless of the set iteration
order they were built with) and ``BETWEEN`` predicates store a two-element
``[low, high]`` list.
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from ..data.table import Table
from ..query.generator import WorkloadGenerator
from ..query.predicates import (DNFQuery, Operator, Predicate, Query,
                                canonical_in_values)

__all__ = ["save_workload", "load_workload", "queries_to_specs",
           "specs_to_queries", "generate_mixed_workload",
           "generate_bursty_workload", "generate_shape_workload"]

#: The version :func:`save_workload` writes; :func:`load_workload` reads
#: every version up to it.
_CURRENT_VERSION = 3


def _json_value(value: object) -> object:
    """Convert numpy scalars (and containers of them) to JSON-native types."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple, set, frozenset, np.ndarray)):
        return [_json_value(item) for item in value]
    return value


def _predicate_specs(query: Query) -> list[list]:
    specs = []
    for predicate in query.predicates:
        value = predicate.value
        if predicate.operator is Operator.IN:
            # Canonical order: IN values are built from sets, whose
            # iteration order varies across processes — sorting here makes
            # equal queries serialise byte-identically on every run.
            value = canonical_in_values(value)
        specs.append([predicate.column, predicate.operator.value,
                      _json_value(value)])
    return specs


def queries_to_specs(queries: list["Query | DNFQuery"]) -> list:
    """Plain-data representation of a list of queries (the object form).

    Every query serialises to an object: ``"table"`` when it carries a
    qualifier, then ``"predicates"`` for a conjunction or ``"branches"``
    (one predicate list per branch) for a :class:`DNFQuery`.
    """
    specs = []
    for query in queries:
        spec = {} if query.table is None else {"table": query.table}
        if isinstance(query, DNFQuery):
            spec["branches"] = [_predicate_specs(branch)
                                for branch in query.branches]
        else:
            spec["predicates"] = _predicate_specs(query)
        specs.append(spec)
    return specs


def _parse_predicates(predicate_specs: list) -> list[Predicate]:
    predicates = []
    for column, operator, value in predicate_specs:
        operator = Operator(operator)
        if operator is Operator.BETWEEN:
            low, high = value
            value = (low, high)
        predicates.append(Predicate(column, operator, value))
    return predicates


def specs_to_queries(specs: list,
                     default_table: str | None = None) -> list["Query | DNFQuery"]:
    """Rebuild queries from their plain-data representation.

    Accepts all three spec forms: a bare predicate list (version 1), an
    object with ``"table"`` and ``"predicates"`` keys (version 2) and an
    object with a ``"branches"`` list of predicate lists (version 3, a
    :class:`DNFQuery`).  ``default_table`` qualifies the queries whose spec
    does not name a relation itself.
    """
    queries: list[Query | DNFQuery] = []
    for spec in specs:
        if isinstance(spec, dict):
            table = spec.get("table") or default_table
            if "branches" in spec:
                queries.append(DNFQuery(
                    [Query(_parse_predicates(branch))
                     for branch in spec["branches"]], table=table))
                continue
            predicate_specs = spec["predicates"]
        else:
            table = default_table
            predicate_specs = spec
        queries.append(Query(_parse_predicates(predicate_specs), table=table))
    return queries


def _apportion(num_queries: int, names: list[str],
               weights: Mapping[str, float] | None) -> list[int]:
    """Split ``num_queries`` across relations by weight (largest remainder).

    With no weights the split is as even as possible, the remainder going to
    the earliest relations — the historical behaviour.  With weights, each
    relation's share is proportional; fractional remainders are handed out
    largest-first (ties break in registration order), so the counts always
    sum to ``num_queries`` and no query is silently dropped.
    """
    if weights is None:
        base, remainder = divmod(num_queries, len(names))
        return [base + (1 if offset < remainder else 0)
                for offset in range(len(names))]
    unknown = sorted(set(weights) - set(names))
    if unknown:
        raise ValueError(
            f"workload weights name unknown relations: {', '.join(unknown)} "
            f"(known: {', '.join(names)})")
    total = 0.0
    shares = []
    for name in names:
        weight = float(weights.get(name, 0.0))
        if weight < 0.0:
            raise ValueError(f"negative workload weight for {name!r}: {weight}")
        shares.append(weight)
        total += weight
    if total <= 0.0:
        raise ValueError("workload weights must sum to a positive value")
    exact = [num_queries * share / total for share in shares]
    counts = [int(value) for value in exact]
    leftovers = sorted(range(len(names)),
                       key=lambda offset: (-(exact[offset] - counts[offset]),
                                           offset))
    for offset in leftovers[:num_queries - sum(counts)]:
        counts[offset] += 1
    return counts


def generate_mixed_workload(relations: Mapping[str, Table], num_queries: int, *,
                            min_filters: int = 2, max_filters: int = 5,
                            seed: int = 0,
                            weights: Mapping[str, float] | None = None) -> list[Query]:
    """Generate a table-qualified workload spread across many relations.

    ``num_queries`` is split over the relations — evenly by default, or
    proportionally to ``weights`` (relation name -> relative share; missing
    names get zero), which is how the ``serve_replicated`` benchmark builds
    hot-relation workloads — and the per-relation workloads are interleaved
    *proportionally*: each relation's queries are spread evenly over the whole
    workload by fractional position (plain round-robin when the shares are
    equal), so every micro-batch window of a fleet run mixes routes and a hot
    relation never arrives as one unbroken tail burst.  Each relation draws
    from its own deterministic generator seeded with ``seed`` plus its
    position, so adding or re-weighting relations never changes another
    relation's queries.  This is the one workload builder shared by the
    multi-model CLI, the serving benchmarks and the examples.
    """
    if num_queries < 0:
        raise ValueError("num_queries must be non-negative")
    names = list(relations)
    if not names:
        raise ValueError("at least one relation is required")
    counts = _apportion(num_queries, names, weights)
    per_relation = []
    for offset, name in enumerate(names):
        relation = relations[name]
        generator = WorkloadGenerator(
            relation, min_filters=min(min_filters, relation.num_columns),
            max_filters=min(max_filters, relation.num_columns),
            seed=seed + offset)
        per_relation.append([query.qualified(name)
                             for query in generator.generate(counts[offset])])
    # Merge by fractional position: query i of a bundle of n sits at
    # (i + 0.5) / n, ties breaking in registration order — which reduces to
    # exact round-robin for equal bundles and evenly dilutes a hot
    # relation's majority share through the whole workload otherwise.
    slots = sorted(
        ((position + 0.5) / len(bundle), offset, position)
        for offset, bundle in enumerate(per_relation)
        for position in range(len(bundle)))
    return [per_relation[offset][position] for _, offset, position in slots]


def generate_bursty_workload(relations: Mapping[str, Table], num_queries: int, *,
                             hot: str, burst_size: int = 8,
                             min_filters: int = 2, max_filters: int = 5,
                             seed: int = 0,
                             weights: Mapping[str, float] | None = None) -> list[Query]:
    """Generate a workload whose hot relation arrives in back-to-back bursts.

    The *queries* are exactly those of :func:`generate_mixed_workload` with
    the same ``relations``/``num_queries``/``weights``/``seed`` (each
    relation draws from its own deterministic generator, so the two builders
    produce the same multiset) — only the **arrival order** differs.  Where
    the mixed builder dilutes every relation evenly through the workload,
    this one clusters the hot relation's queries into uninterrupted runs of
    ``burst_size``, each burst followed by a thin trickle of the other
    relations: the adversarial arrival pattern for a fixed large micro-batch,
    which fills instantly during a burst and pays a full-batch dispatch
    latency on every one.  The ``serve_stream`` benchmark feeds this to a
    fixed-batch and an SLO-adaptive router and compares their p95 dispatch
    latencies.

    Args:
        relations: Name -> :class:`~repro.data.table.Table` of every
            relation, as for :func:`generate_mixed_workload`.
        num_queries: Total query count, split across relations evenly or by
            ``weights``.
        hot: Name of the bursting relation (must be in ``relations``).
        burst_size: Queries per uninterrupted hot-relation run (>= 1).
        min_filters / max_filters: Per-query predicate count bounds.
        seed: Base seed; relation ``i`` draws from ``seed + i`` exactly like
            the mixed builder.
        weights: Optional relation -> relative share of ``num_queries``;
            give the hot relation a majority share to make the bursts long.

    Returns:
        The table-qualified workload in arrival order.

    Raises:
        ValueError: Unknown ``hot`` relation or non-positive ``burst_size``.
    """
    if hot not in relations:
        raise ValueError(f"hot relation {hot!r} is not one of "
                         f"{', '.join(relations)}")
    if burst_size < 1:
        raise ValueError("burst_size must be at least 1")
    mixed = generate_mixed_workload(relations, num_queries,
                                    min_filters=min_filters,
                                    max_filters=max_filters, seed=seed,
                                    weights=weights)
    hot_queries = [query for query in mixed if query.table == hot]
    cold_queries = [query for query in mixed if query.table != hot]
    # Interleave bursts with a trickle: after each full burst of the hot
    # relation, emit a proportional slice of the cold queries so every
    # relation still finishes by the end of the workload.
    bursts = [hot_queries[start:start + burst_size]
              for start in range(0, len(hot_queries), burst_size)]
    arranged: list[Query] = []
    cold_cursor = 0
    for position, burst in enumerate(bursts):
        arranged.extend(burst)
        cold_until = round(len(cold_queries) * (position + 1) / len(bursts)) \
            if bursts else 0
        arranged.extend(cold_queries[cold_cursor:cold_until])
        cold_cursor = cold_until
    arranged.extend(cold_queries[cold_cursor:])
    return arranged


def generate_shape_workload(relations: Mapping[str, Table], num_queries: int, *,
                            dnf_fraction: float = 0.25,
                            like_fraction: float = 0.25,
                            dnf_branches: int | tuple[int, ...] = 2,
                            min_filters: int = 2, max_filters: int = 5,
                            seed: int = 0,
                            weights: Mapping[str, float] | None = None
                            ) -> list["Query | DNFQuery"]:
    """Generate a mixed-shape workload: conjunctions, disjunctions, prefixes.

    Starts from :func:`generate_mixed_workload` (same relations, counts,
    interleave and per-relation determinism) and rewrites deterministic,
    evenly spread positions into the widened query language:

    * a ``dnf_fraction`` share becomes :class:`DNFQuery` disjunctions — the
      original conjunction as the first branch plus extra branches drawn
      from an auxiliary per-relation generator, so the branch predicates
      are real domain values;
    * a ``like_fraction`` share becomes single-predicate ``LIKE 'x%'``
      prefix queries over a sampled categorical value of a string column
      (positions over relations without string columns keep their original
      conjunction — the share is a target, not a guarantee, and the
      ``serve_ensemble`` benchmark reports the realised mix).

    ``dnf_branches`` fixes the branch count, or, given a tuple, draws it
    per query — mixing counts on both sides of
    ``NaruConfig.max_dnf_branches`` is how the ensemble benchmark exercises
    inclusion–exclusion and fallback routing in one workload.  Everything is
    keyed off ``seed`` alone, so a workload is reproducible from its knobs.
    """
    for name, fraction in (("dnf_fraction", dnf_fraction),
                           ("like_fraction", like_fraction)):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {fraction}")
    if dnf_fraction + like_fraction > 1.0:
        raise ValueError("dnf_fraction + like_fraction must not exceed 1")
    branch_counts = ((dnf_branches,) if isinstance(dnf_branches, int)
                     else tuple(dnf_branches))
    if not branch_counts or min(branch_counts) < 2:
        raise ValueError(f"dnf_branches must be >= 2 (a one-branch DNF is a "
                         f"conjunction), got {dnf_branches!r}")
    base = generate_mixed_workload(relations, num_queries,
                                   min_filters=min_filters,
                                   max_filters=max_filters, seed=seed,
                                   weights=weights)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0x5AFE,)))
    positions = rng.permutation(len(base))
    num_dnf = round(len(base) * dnf_fraction)
    num_like = round(len(base) * like_fraction)
    dnf_positions = set(positions[:num_dnf].tolist())
    like_positions = set(positions[num_dnf:num_dnf + num_like].tolist())
    names = list(relations)
    # Extra DNF branches come from a second, independently seeded generator
    # per relation, so they never perturb the base workload's draws.
    aux_generators: dict[str, WorkloadGenerator] = {}

    def extra_branch(table_name: str) -> Query:
        generator = aux_generators.get(table_name)
        if generator is None:
            relation = relations[table_name]
            generator = WorkloadGenerator(
                relation, min_filters=1,
                max_filters=min(2, relation.num_columns),
                seed=seed + 7919 + names.index(table_name))
            aux_generators[table_name] = generator
        return generator.generate(1)[0]

    workload: list[Query | DNFQuery] = []
    for position, query in enumerate(base):
        if position in dnf_positions:
            count = int(rng.choice(branch_counts))
            branches = [Query(query.predicates)] + \
                [extra_branch(query.table) for _ in range(count - 1)]
            workload.append(DNFQuery(branches, table=query.table))
            continue
        if position in like_positions:
            relation = relations[query.table]
            string_columns = [column for column in relation.columns
                              if not column.is_numeric]
            if string_columns:
                column = string_columns[int(rng.integers(len(string_columns)))]
                value = str(column.domain[int(rng.integers(column.domain_size))])
                prefix = value[:int(rng.integers(1, len(value) + 1))]
                workload.append(Query(
                    [Predicate(column.name, Operator.LIKE, prefix + "%")],
                    table=query.table))
                continue
        workload.append(query)
    return workload


def save_workload(path: str, queries: list["Query | DNFQuery"],
                  table_name: str | None = None) -> None:
    """Write a workload file that :func:`load_workload` can replay.

    ``table_name`` records the default relation of the workload: on load it
    qualifies every query that carries no ``table`` of its own.
    """
    document = {
        "version": _CURRENT_VERSION,
        "table": table_name,
        "queries": queries_to_specs(queries),
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def load_workload(path: str, expected_table: str | None = None) -> list[Query]:
    """Read the queries of a workload file written by :func:`save_workload`.

    Parameters
    ----------
    path:
        The workload file.
    expected_table:
        When given and the file records the table it was generated against,
        a mismatch raises ``ValueError`` instead of letting the queries fail
        (or silently estimate) against the wrong relation.  Individual
        queries may still be qualified with other relations; the check covers
        the document-level default only.

    Returns
    -------
    list[Query]
        Queries qualified with their recorded table: the per-query
        qualifier where the spec carries one, falling back to the
        document-level ``"table"`` (``None`` when the file records no table
        at all), which lets a :class:`repro.serve.FleetRouter` replay any
        workload file against the right relation.
    """
    with open(path) as handle:
        document = json.load(handle)
    version = document.get("version")
    if version not in range(1, _CURRENT_VERSION + 1):
        raise ValueError(f"unsupported workload file version {version!r}")
    recorded = document.get("table")
    if expected_table is not None and recorded is not None \
            and recorded != expected_table:
        raise ValueError(
            f"workload file {path!r} was generated against table "
            f"{recorded!r}, not {expected_table!r}")
    return specs_to_queries(document["queries"], default_table=recorded)
