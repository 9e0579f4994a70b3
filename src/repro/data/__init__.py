"""Relational data substrate: tables, synthetic datasets, joins, CSV, shifts."""

from .csv_io import read_csv, write_csv
from .datasets import (
    ColumnSpec,
    make_census,
    make_conviva_a,
    make_conviva_b,
    make_correlated_table,
    make_dmv,
    make_independent_table,
    make_sessions,
    make_users,
)
from .joins import JoinSampler, JoinSpec, hash_join
from .shift import encode_with_dictionaries, partition_by_column
from .table import Column, Table

__all__ = [
    "Column",
    "Table",
    "ColumnSpec",
    "make_correlated_table",
    "make_independent_table",
    "make_dmv",
    "make_conviva_a",
    "make_conviva_b",
    "make_census",
    "make_users",
    "make_sessions",
    "read_csv",
    "write_csv",
    "hash_join",
    "JoinSampler",
    "JoinSpec",
    "partition_by_column",
    "encode_with_dictionaries",
]
