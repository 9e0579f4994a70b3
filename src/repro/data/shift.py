"""Partitioned ingest used by the data-shift robustness study (Table 8).

The paper partitions DMV by a date column into five parts, ingests them one by
one ("one new partition per day") and measures how a stale estimator degrades
versus one that is fine-tuned after every ingest.  :func:`partition_by_column`
cuts the partitions; :func:`encode_with_dictionaries` expresses ingested rows
in an already trained model's code space.  The protocol itself runs through a
serving registry (:class:`repro.serve.RefreshController`).
"""

from __future__ import annotations

import numpy as np

from .table import Table

__all__ = ["partition_by_column", "encode_with_dictionaries"]


def encode_with_dictionaries(base: Table, rows: Table) -> np.ndarray | None:
    """Encode ``rows`` with ``base``'s per-column dictionaries.

    The ingest/refresh path needs newly arrived tuples expressed in the code
    space of the *already trained* model — ``rows.encoded()`` would re-derive
    fresh dictionaries and silently renumber every code.  Returns an
    ``(num_rows, num_columns)`` int64 array, or ``None`` when any value is
    outside ``base``'s dictionaries (the caller must then rebuild the model
    from scratch instead of fine-tuning it).
    """
    if base.column_names != rows.column_names:
        raise ValueError("cannot encode rows with a different schema")
    encoded = []
    for name in base.column_names:
        domain = base.column(name).domain
        values = rows.column(name).values
        codes = np.clip(np.searchsorted(domain, values), 0, len(domain) - 1)
        if not np.array_equal(domain[codes], values):
            return None
        encoded.append(codes.astype(np.int64))
    return np.stack(encoded, axis=1)


def partition_by_column(table: Table, column_name: str,
                        num_partitions: int) -> list[Table]:
    """Split ``table`` into ``num_partitions`` ordered by ``column_name``.

    Rows are ordered by the partitioning column's value (ties broken by row
    position) and cut into contiguous, near-equal chunks, emulating date-range
    partitioning.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be at least 1")
    if num_partitions > table.num_rows:
        raise ValueError("more partitions than rows")
    order = np.argsort(table.column(column_name).codes, kind="stable")
    boundaries = np.linspace(0, table.num_rows, num_partitions + 1).astype(int)
    partitions = []
    for part in range(num_partitions):
        rows = order[boundaries[part]:boundaries[part + 1]]
        partitions.append(table.take_rows(rows, name=f"{table.name}_part{part}"))
    return partitions
