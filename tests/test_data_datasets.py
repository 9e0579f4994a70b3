"""Tests for the synthetic dataset generators, joins, CSV IO and data shifts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    ColumnSpec,
    JoinSampler,
    Table,
    hash_join,
    make_census,
    make_conviva_a,
    make_conviva_b,
    make_correlated_table,
    make_dmv,
    make_independent_table,
    partition_by_column,
    read_csv,
    write_csv,
)


class TestColumnSpec:
    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            ColumnSpec("x", 1)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            ColumnSpec("x", 5, kind="weird")

    def test_invalid_correlation(self):
        with pytest.raises(ValueError):
            ColumnSpec("x", 5, correlation=1.5)


class TestGenerators:
    def test_dmv_shape_and_schema(self):
        table = make_dmv(num_rows=2000)
        assert table.num_rows == 2000
        assert table.num_columns == 11
        assert "valid_date" in table.column_names
        assert table.column("record_type").domain_size <= 4

    def test_conviva_a_shape(self):
        table = make_conviva_a(num_rows=1500)
        assert table.num_columns == 15
        assert table.num_rows == 1500

    def test_conviva_b_shape(self):
        table = make_conviva_b(num_rows=300, num_columns=40)
        assert table.num_columns == 40
        assert table.num_rows == 300

    def test_census_shape(self):
        table = make_census(num_rows=500)
        assert table.num_columns == 11

    def test_determinism(self):
        first = make_dmv(num_rows=500, seed=7)
        second = make_dmv(num_rows=500, seed=7)
        np.testing.assert_array_equal(first.encoded(), second.encoded())

    def test_different_seeds_differ(self):
        first = make_dmv(num_rows=500, seed=1)
        second = make_dmv(num_rows=500, seed=2)
        assert not np.array_equal(first.encoded(), second.encoded())

    def test_generated_values_are_skewed(self):
        table = make_dmv(num_rows=5000)
        marginal = table.column("fuel_type").marginal()
        # Zipf-like skew: the most common value dominates the least common.
        assert marginal.max() > 10 * marginal.min()

    def test_correlated_table_has_dependent_columns(self):
        specs = [ColumnSpec("a", 10, correlation=0.95),
                 ColumnSpec("b", 10, correlation=0.95)]
        correlated = make_correlated_table(specs, 4000, seed=0)
        independent = make_independent_table(specs, 4000, seed=0)

        def mutual_information(table: Table) -> float:
            codes = table.encoded()
            joint = np.zeros((10, 10))
            np.add.at(joint, (codes[:, 0], codes[:, 1]), 1.0)
            joint /= joint.sum()
            pa = joint.sum(axis=1, keepdims=True)
            pb = joint.sum(axis=0, keepdims=True)
            nonzero = joint > 0
            return float((joint[nonzero] * np.log(joint[nonzero]
                                                  / (pa @ pb)[nonzero])).sum())

        assert mutual_information(correlated) > 5 * max(mutual_information(independent), 1e-6)

    def test_invalid_row_count(self):
        with pytest.raises(ValueError):
            make_correlated_table([ColumnSpec("a", 4)], 0)


class TestCsvIO:
    def test_roundtrip(self, tmp_path, tiny_table):
        path = tmp_path / "tiny.csv"
        write_csv(tiny_table, path)
        loaded = read_csv(path, name="tiny")
        assert loaded.num_rows == tiny_table.num_rows
        assert loaded.column_names == tiny_table.column_names
        np.testing.assert_array_equal(loaded.encoded(), tiny_table.encoded())

    def test_column_subset_and_max_rows(self, tmp_path, tiny_table):
        path = tmp_path / "tiny.csv"
        write_csv(tiny_table, path)
        loaded = read_csv(path, columns=["stars", "city"], max_rows=100)
        assert loaded.column_names == ["stars", "city"]
        assert loaded.num_rows == 100

    def test_missing_column_raises(self, tmp_path, tiny_table):
        path = tmp_path / "tiny.csv"
        write_csv(tiny_table, path)
        with pytest.raises(KeyError):
            read_csv(path, columns=["nope"])

    def test_numeric_coercion(self, tmp_path):
        path = tmp_path / "numbers.csv"
        path.write_text("a,b\n1,x\n2,y\n")
        loaded = read_csv(path)
        assert loaded.column("a").is_numeric
        assert not loaded.column("b").is_numeric


class TestJoins:
    @pytest.fixture()
    def orders_and_customers(self):
        customers = Table.from_dict({
            "customer_id": [1, 2, 3],
            "segment": ["gold", "silver", "gold"],
        }, name="customers")
        orders = Table.from_dict({
            "order_id": [10, 11, 12, 13],
            "customer_id": [1, 1, 2, 9],
            "amount": [100, 150, 80, 10],
        }, name="orders")
        return orders, customers

    def test_hash_join_row_count_and_schema(self, orders_and_customers):
        orders, customers = orders_and_customers
        joined = hash_join(orders, customers, "customer_id", "customer_id")
        assert joined.num_rows == 3  # order 13 has no matching customer
        assert "segment" in joined.column_names

    def test_hash_join_empty_result_raises(self):
        left = Table.from_dict({"k": [1], "v": [2]})
        right = Table.from_dict({"k": [9], "w": [3]})
        with pytest.raises(ValueError):
            hash_join(left, right, "k", "k")

    def test_join_sampler_produces_valid_tuples(self, orders_and_customers):
        orders, customers = orders_and_customers
        sampler = JoinSampler(orders, customers, "customer_id", "customer_id", seed=3)
        sample = sampler.sample_table(30)
        assert sample.num_rows == 30
        assert set(sample.column("customer_id").domain) <= {1, 2}

    def test_join_sampler_no_matches_raises(self):
        left = Table.from_dict({"k": [1], "v": [2]})
        right = Table.from_dict({"k": [9], "w": [3]})
        with pytest.raises(ValueError):
            JoinSampler(left, right, "k", "k")


class TestPartitionedIngest:
    def test_partition_sizes_cover_all_rows(self, tiny_table):
        partitions = partition_by_column(tiny_table, "year", 5)
        assert sum(part.num_rows for part in partitions) == tiny_table.num_rows

    def test_partitions_ordered_by_column(self, tiny_table):
        partitions = partition_by_column(tiny_table, "year", 4)
        maxima = [part.column("year").values.max() for part in partitions[:-1]]
        minima = [part.column("year").values.min() for part in partitions[1:]]
        assert all(low <= high for low, high in zip(maxima, minima))

    def test_invalid_partition_count(self, tiny_table):
        with pytest.raises(ValueError):
            partition_by_column(tiny_table, "year", 0)
