"""Tests for the widened query language: LIKE prefixes, DNF, shapes, files.

The paper's language is purely conjunctive; this module guards the widening
(``LIKE 'x%'`` string prefixes, disjunctions of conjunctive branches), the
shape classifier driving the serving ensemble, the inclusion–exclusion
expansion, and the version-3 workload file format — including the degenerate
corners (empty IN lists, absent literals, single-branch disjunctions,
zero-match prefixes) where off-by-one mask logic would hide.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Table
from repro.query import (
    Operator,
    Predicate,
    Query,
    qualifying_rows,
    true_cardinality,
    true_selectivity,
)
from repro.query.predicates import DNFQuery, canonical_in_values, dnf_expansion
from repro.query.shapes import QueryShape, query_shape
from repro.serve import load_workload, save_workload


@pytest.fixture()
def shape_table() -> Table:
    return Table.from_dict({
        "city": ["SF", "SF", "San Jose", "Portland", "Austin", "Austin",
                 "Sacramento", "Seattle"],
        "year": [2015, 2016, 2016, 2017, 2018, 2018, 2019, 2020],
        "stars": [3, 4, 5, 4, 2, 5, 1, 3],
    }, name="checkins")


class TestLikePrefix:
    def test_prefix_matches_startswith(self, shape_table):
        query = Query([Predicate("city", Operator.LIKE, "S%")])
        expected = sum(value.startswith("S")
                       for value in shape_table.column("city").values)
        assert true_cardinality(shape_table, query) == expected

    def test_longer_prefix(self, shape_table):
        query = Query([Predicate("city", Operator.LIKE, "San%")])
        assert true_cardinality(shape_table, query) == 1

    def test_zero_match_prefix(self, shape_table):
        query = Query([Predicate("city", Operator.LIKE, "Tokyo%")])
        assert true_cardinality(shape_table, query) == 0
        assert true_selectivity(shape_table, query) == 0.0

    def test_underscore_is_literal(self, shape_table):
        # The repo's label domains are 'name_index' strings; '_' must match
        # itself, not "any one character" as in SQL.
        mask = Predicate("city", Operator.LIKE, "S_%").valid_codes(
            shape_table.column("city"))
        assert mask.sum() == 0

    def test_non_prefix_pattern_rejected(self):
        with pytest.raises(ValueError, match="prefix"):
            Predicate("city", Operator.LIKE, "%SF")
        with pytest.raises(ValueError, match="trailing"):
            Predicate("city", Operator.LIKE, "S%F%")

    def test_numeric_column_rejected(self, shape_table):
        predicate = Predicate("year", Operator.LIKE, "20%")
        with pytest.raises(ValueError, match="string columns"):
            predicate.valid_codes(shape_table.column("year"))


class TestDegeneratePredicates:
    def test_empty_in_list_selects_nothing(self, shape_table):
        query = Query([Predicate("city", Operator.IN, [])])
        assert true_cardinality(shape_table, query) == 0

    def test_neq_absent_literal_selects_everything(self, shape_table):
        query = Query([Predicate("city", Operator.NEQ, "Tokyo")])
        assert true_cardinality(shape_table, query) == shape_table.num_rows

    def test_canonical_in_values_sorts_deterministically(self):
        assert canonical_in_values({"b", "a", "c"}) == ["a", "b", "c"]
        assert canonical_in_values([3, 1, 2]) == [1, 2, 3]
        # Iteration order of the input must not leak into the output.
        assert (canonical_in_values(iter(["z", "a"]))
                == canonical_in_values(iter(["a", "z"])))


class TestQueryShape:
    def test_conjunctive(self, shape_table):
        query = Query([Predicate("year", Operator.GE, 2017)])
        assert query_shape(query) is QueryShape.CONJUNCTIVE

    def test_prefix(self):
        query = Query([Predicate("city", Operator.LIKE, "S%"),
                       Predicate("year", Operator.GE, 2017)])
        assert query_shape(query) is QueryShape.PREFIX

    def test_disjunctive(self):
        query = DNFQuery.from_tuples([[("year", ">=", 2018)],
                                      [("city", "=", "SF")]])
        assert query_shape(query) is QueryShape.DISJUNCTIVE

    def test_single_branch_dnf_classifies_as_its_branch(self):
        # A single-branch disjunction is semantically a plain conjunction,
        # so it routes (and estimates) exactly like one — including when the
        # lone branch is itself a prefix query.
        plain = DNFQuery([Query([Predicate("year", Operator.GE, 2018)])])
        assert query_shape(plain) is QueryShape.CONJUNCTIVE
        prefix = DNFQuery([Query([Predicate("city", Operator.LIKE, "S%")])])
        assert query_shape(prefix) is QueryShape.PREFIX


class TestDNFQuery:
    def test_union_semantics(self, shape_table):
        branches = [Query([Predicate("year", Operator.GE, 2018)]),
                    Query([Predicate("city", Operator.EQ, "SF")])]
        union = DNFQuery(branches)
        expected = (qualifying_rows(shape_table, branches[0])
                    | qualifying_rows(shape_table, branches[1]))
        assert np.array_equal(qualifying_rows(shape_table, union), expected)

    def test_single_branch_equals_plain_query(self, shape_table):
        branch = Query([Predicate("stars", Operator.BETWEEN, (3, 5))])
        single = DNFQuery([branch])
        assert true_cardinality(shape_table, single) == \
            true_cardinality(shape_table, branch)

    def test_empty_branches_rejected(self):
        with pytest.raises(ValueError, match="at least one branch"):
            DNFQuery([])

    def test_mismatched_branch_tables_rejected(self):
        with pytest.raises(ValueError, match="different relations"):
            DNFQuery([Query([Predicate("a", Operator.EQ, 1)], table="x"),
                      Query([Predicate("a", Operator.EQ, 1)], table="y")])

    def test_expansion_term_count_and_signs(self):
        branches = [Query([Predicate("a", Operator.EQ, index)])
                    for index in range(3)]
        terms = dnf_expansion(DNFQuery(branches))
        assert len(terms) == 2 ** 3 - 1
        # Subsets ordered by size: 3 singletons (+), 3 pairs (−), 1 triple (+).
        assert [sign for sign, _ in terms] == [1, 1, 1, -1, -1, -1, 1]
        pair_term = terms[3][1]
        assert pair_term.num_filters == 2

    def test_expansion_is_exact_on_a_table(self, shape_table):
        union = DNFQuery.from_tuples([[("year", ">=", 2018)],
                                      [("city", "=", "SF")],
                                      [("stars", "=", 5)]])
        exact = true_selectivity(shape_table, union)
        expanded = sum(sign * true_selectivity(shape_table, term)
                       for sign, term in dnf_expansion(union))
        assert expanded == pytest.approx(exact, abs=1e-12)


class TestShapedWorkloadFiles:
    def _roundtrip(self, tmp_path, queries):
        path = tmp_path / "workload.json"
        save_workload(path, queries)
        return path, load_workload(path)

    def test_like_roundtrip(self, tmp_path):
        queries = [Query([Predicate("city", Operator.LIKE, "S%")])]
        path, loaded = self._roundtrip(tmp_path, queries)
        assert '"version": 3' in path.read_text()
        assert loaded[0].predicates[0].operator is Operator.LIKE
        assert loaded[0].predicates[0].value == "S%"

    def test_dnf_roundtrip(self, tmp_path):
        queries = [DNFQuery.from_tuples([[("year", ">=", 2018)],
                                         [("city", "=", "SF")]],
                                        table="checkins")]
        path, loaded = self._roundtrip(tmp_path, queries)
        assert '"version": 3' in path.read_text()
        assert isinstance(loaded[0], DNFQuery)
        assert loaded[0].table == "checkins"
        assert len(loaded[0].branches) == 2
        assert str(loaded[0]) == str(queries[0])

    def test_single_branch_dnf_stays_dnf(self, tmp_path):
        queries = [DNFQuery.from_tuples([[("year", ">=", 2018)]])]
        _, loaded = self._roundtrip(tmp_path, queries)
        assert isinstance(loaded[0], DNFQuery)
        assert len(loaded[0].branches) == 1

    def test_in_serialization_is_iteration_order_independent(self, tmp_path):
        first = [Query([Predicate("city", Operator.IN, ["SF", "Austin"])])]
        second = [Query([Predicate("city", Operator.IN, ["Austin", "SF"])])]
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_workload(path_a, first)
        save_workload(path_b, second)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_save_load_save_is_byte_stable(self, tmp_path):
        queries = [
            Query([Predicate("city", Operator.IN, {"SF", "Austin"}),
                   Predicate("year", Operator.BETWEEN, (2016, 2018))]),
            Query([Predicate("city", Operator.LIKE, "S%")]),
            DNFQuery.from_tuples([[("year", ">=", 2018)],
                                  [("stars", "=", 5)]]),
        ]
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_workload(path_a, queries)
        save_workload(path_b, load_workload(path_a))
        assert path_a.read_bytes() == path_b.read_bytes()
