"""Tests for the serving layer: cache, engine, workload files and CLI."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import NaruConfig, NaruEstimator, OracleModel, ProgressiveSampler
from repro.data import ColumnSpec, make_correlated_table
from repro.estimators import SamplingEstimator
from repro.query import Operator, Predicate, Query, WorkloadGenerator
from repro.serve import (
    CachedConditionalModel,
    EstimationEngine,
    load_workload,
    run_sequential,
    save_workload,
)
from repro.serve.__main__ import main as serve_main


@pytest.fixture(scope="module")
def serve_table():
    specs = [
        ColumnSpec("a", 10, "ordinal", skew=1.4),
        ColumnSpec("b", 6, "categorical", skew=1.3),
        ColumnSpec("c", 12, "ordinal", skew=1.5),
        ColumnSpec("d", 4, "categorical", skew=1.2),
    ]
    return make_correlated_table(specs, num_rows=900, seed=3, name="serve")


@pytest.fixture(scope="module")
def oracle(serve_table):
    return OracleModel(serve_table)


@pytest.fixture(scope="module")
def workload(serve_table):
    generator = WorkloadGenerator(serve_table, min_filters=1, max_filters=4, seed=9)
    return generator.generate(12)


@pytest.fixture(scope="module")
def naru(serve_table):
    estimator = NaruEstimator(serve_table, NaruConfig(
        epochs=3, hidden_sizes=(32, 32), batch_size=128,
        progressive_samples=150, seed=0))
    estimator.fit()
    return estimator


class TestCachedConditionalModel:
    def test_matches_uncached_model(self, serve_table, oracle, rng):
        """The wrapper answers the model's CDFs, bit for bit."""
        cached = CachedConditionalModel(oracle)
        codes = serve_table.encoded()[rng.integers(0, serve_table.num_rows, size=64)]
        for column in range(serve_table.num_columns):
            assert np.array_equal(
                cached.conditional_probs(column, codes),
                np.cumsum(oracle.conditional_probs(column, codes), axis=1))

    def test_repeat_batches_hit_memory(self, serve_table, oracle):
        cached = CachedConditionalModel(oracle)
        codes = serve_table.encoded()[:32]
        cached.conditional_probs(2, codes)
        misses_before = cached.stats.misses
        cached.conditional_probs(2, codes)
        assert cached.stats.misses == misses_before  # all prefixes known
        assert cached.stats.hits > 0

    def test_empty_batch(self, serve_table, oracle):
        cached = CachedConditionalModel(oracle)
        probs = cached.conditional_probs(1, np.empty((0, serve_table.num_columns),
                                                     dtype=np.int64))
        assert probs.shape == (0, serve_table.domain_sizes[1])

    def test_repeated_prefixes_return_the_models_values(self, serve_table,
                                                        oracle):
        """Rows are expected one per distinct prefix, but nothing enforces
        it: repeats must come back as the model's own CDF bits, cold and
        warm."""
        cached = CachedConditionalModel(oracle)
        codes = np.repeat(serve_table.encoded()[:4], 8, axis=0)
        for column in range(serve_table.num_columns):
            expected = np.cumsum(oracle.conditional_probs(column, codes), axis=1)
            assert np.array_equal(cached.conditional_probs(column, codes),
                                  expected)  # cold: every repeat evaluated
            evaluated = cached.rows_evaluated
            assert np.array_equal(cached.conditional_probs(column, codes),
                                  expected)  # warm: every repeat a hit
            assert cached.rows_evaluated == evaluated


class TestEstimationEngine:
    def test_batched_equals_sequential(self, naru, workload):
        engine = EstimationEngine(naru, batch_size=5, num_samples=120, seed=11)
        report = engine.run(workload)
        baseline = run_sequential(naru, workload, num_samples=120, seed=11)
        np.testing.assert_allclose(report.selectivities, baseline.selectivities,
                                   rtol=1e-9, atol=1e-12)

    def test_estimates_independent_of_batch_size(self, naru, workload):
        runs = [EstimationEngine(naru, batch_size=size, num_samples=100,
                                 seed=4).run(workload).selectivities
                for size in (1, 5, 32)]
        np.testing.assert_allclose(runs[0], runs[1], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(runs[0], runs[2], rtol=1e-9, atol=1e-12)

    def test_empty_member_does_not_poison_neighbours(self, naru, workload):
        empty = Query([Predicate("b", Operator.EQ, "no_such_value")])
        mixed = [workload[0], empty, workload[1]]
        engine = EstimationEngine(naru, batch_size=3, num_samples=100, seed=2)
        report = engine.run(mixed)
        assert report.selectivities[1] == 0.0
        # Neighbours keep their per-query streams, so their estimates are the
        # same numbers the engine returns for a batch without the empty query.
        alone = EstimationEngine(naru, batch_size=3, num_samples=100,
                                 seed=2).run([workload[0], workload[1], workload[1]])
        np.testing.assert_allclose(report.selectivities[0], alone.selectivities[0],
                                   rtol=1e-9, atol=1e-12)

    def test_mixed_predicates_agree_cached_uncached_and_sequential(self, naru):
        """Equalities (one-code runs, drawn without a search), ranges, IN
        lists (several runs) and an empty predicate in one micro-batch: the
        CDF store, cold and warm, the uncached engine and the unbatched
        reference walk give the same bits."""
        queries = [
            Query([Predicate("a", Operator.EQ, 9), Predicate("c", Operator.EQ, 6)]),
            Query([Predicate("a", Operator.BETWEEN, (20, 36)),
                   Predicate("d", Operator.EQ, "d_2")]),
            Query([Predicate("b", Operator.IN, ["b_0", "b_2", "b_4"]),
                   Predicate("c", Operator.LE, 11)]),
            Query([Predicate("b", Operator.EQ, "no_such_value"),
                   Predicate("a", Operator.GE, 20)]),
            Query([Predicate("a", Operator.EQ, 47),
                   Predicate("b", Operator.IN, ["b_1", "b_3"]),
                   Predicate("c", Operator.BETWEEN, (6, 14)),
                   Predicate("d", Operator.EQ, "d_0")]),
        ]

        def engine(**options):
            return EstimationEngine(naru, batch_size=len(queries),
                                    num_samples=150, seed=5, **options)

        cached = engine()
        cold = cached.run(queries).selectivities
        warm = cached.run(queries).selectivities
        assert cached.cache_stats["rows_served_from_cache"] > 0
        uncached = engine(use_cache=False).run(queries).selectivities
        sequential = run_sequential(naru, queries, num_samples=150,
                                    seed=5).selectivities
        for other in (warm, uncached, sequential):
            assert np.array_equal(cold, other)
        assert cold[3] == 0.0 and (np.delete(cold, 3) > 0.0).all()

    def test_warm_pass_evaluates_nothing_and_equals_sequential(self, naru,
                                                               workload):
        """One engine, its conditional cache kept across two passes: the cold
        pass evaluates fewer rows than the unfused reference walk (prefix
        dedup and the cache), the warm pass none at all — and both return
        the reference walk's very bits."""
        engine = EstimationEngine(naru, batch_size=5, num_samples=120, seed=0)
        sequential = run_sequential(naru, workload, num_samples=120, seed=0)
        cold, warm = engine.run(workload), engine.run(workload)
        assert np.array_equal(cold.selectivities, sequential.selectivities)
        assert np.array_equal(warm.selectivities, sequential.selectivities)
        assert cold.stats.rows_evaluated < sequential.stats.rows_evaluated
        assert warm.stats.rows_evaluated == 0

    def test_cache_accounting_surfaces_in_stats(self, naru, workload):
        engine = EstimationEngine(naru, batch_size=4, num_samples=100, seed=0)
        stats = engine.run(workload).stats
        cache = stats.cache
        assert cache is not None
        assert cache["hits"] + cache["misses"] > 0
        assert 0.0 <= cache["hit_rate"] <= 1.0
        assert cache["rows_evaluated"] > 0
        assert cache["rows_served_from_cache"] > 0
        assert stats.queries_per_second > 0
        # A repeated run through the warm engine hits the shared cache harder
        # and, being a fresh workload scope, reproduces the same estimates.
        first = engine.run(workload)
        hits_before = engine.cache_stats["hits"]
        second = engine.run(workload)
        assert engine.cache_stats["hits"] > hits_before
        assert second.stats.num_queries == len(workload)
        np.testing.assert_array_equal(first.selectivities, second.selectivities)

    def test_cache_can_be_disabled(self, naru, workload):
        engine = EstimationEngine(naru, batch_size=4, num_samples=80,
                                  use_cache=False, seed=0)
        report = engine.run(workload[:4])
        assert report.stats.cache is None
        assert len(report.results) == 4

    def test_submit_flush_matches_run(self, naru, workload):
        whole = EstimationEngine(naru, batch_size=4, num_samples=90, seed=6)
        expected = whole.run(workload).selectivities

        incremental = EstimationEngine(naru, batch_size=4, num_samples=90, seed=6)
        for query in workload:
            incremental.submit(query)
        incremental.flush()
        report = incremental.report()
        assert [result.index for result in report.results] == list(range(len(workload)))
        np.testing.assert_allclose(report.selectivities, expected,
                                   rtol=1e-9, atol=1e-12)

    def test_non_batchable_estimator_falls_back(self, serve_table, workload):
        sampler = SamplingEstimator(serve_table, sample_size=200, seed=1)
        engine = EstimationEngine(sampler, batch_size=4)
        report = engine.run(workload[:6])
        assert report.stats.cache is None
        expected = [sampler.estimate_selectivity(query) for query in workload[:6]]
        np.testing.assert_allclose(report.selectivities, expected)

    def test_unfitted_estimator_rejected(self, serve_table, workload):
        unfitted = NaruEstimator(serve_table, NaruConfig(epochs=1,
                                                         hidden_sizes=(16,)))
        engine = EstimationEngine(unfitted, batch_size=2, num_samples=20)
        with pytest.raises(RuntimeError):
            engine.run(workload[:2])

    def test_invalid_batch_size_rejected(self, naru):
        with pytest.raises(ValueError):
            EstimationEngine(naru, batch_size=0)

    @pytest.mark.parametrize("num_samples", [0, -3])
    def test_degenerate_sample_budget_rejected(self, naru, workload, num_samples):
        """A typed error at construction, never a NaN estimate later."""
        with pytest.raises(ValueError, match="num_samples must be a positive"):
            EstimationEngine(naru, batch_size=2, num_samples=num_samples)
        with pytest.raises(ValueError, match="num_samples must be a positive"):
            run_sequential(naru, workload[:2], num_samples=num_samples)

    def test_run_refuses_pending_streaming_queries(self, naru, workload):
        engine = EstimationEngine(naru, batch_size=8, num_samples=50)
        engine.submit(workload[0])
        with pytest.raises(RuntimeError, match="pending"):
            engine.run(workload[:2])
        engine.flush()                      # finish the streaming scope...
        report = engine.run(workload[:2])   # ...then run() works again
        assert report.stats.num_queries == 2

    def test_naru_batch_api_matches_engine_paths(self, naru, workload):
        """NaruEstimator.estimate_selectivity_batch is the same machinery."""
        batch = naru.estimate_selectivity_batch(workload[:4], num_samples=80)
        assert batch.shape == (4,)
        assert np.all((batch >= 0.0) & (batch <= 1.0))
        # A batch of one equals the sequential estimate under the same stream.
        alone = ProgressiveSampler(naru.model, seed=31).estimate_selectivity(
            workload[0].column_masks(naru.table), num_samples=80)
        again = ProgressiveSampler(naru.model, seed=31).estimate_selectivity_batch(
            [workload[0].column_masks(naru.table)], num_samples=80)[0]
        assert alone == pytest.approx(again, rel=1e-12, abs=1e-15)


class TestWorkloadFiles:
    def test_roundtrip(self, serve_table, workload, tmp_path):
        path = os.path.join(tmp_path, "workload.json")
        rich = workload[:3] + [Query([
            Predicate("a", Operator.BETWEEN, (2, 9)),
            Predicate("b", Operator.IN, ["b_0", "b_2"]),
            Predicate("c", Operator.NEQ, 5),
        ])]
        save_workload(path, rich, table_name=serve_table.name)
        loaded = load_workload(path)
        assert len(loaded) == len(rich)
        for original, restored in zip(rich, loaded):
            for left, right in zip(original, restored):
                assert left.column == right.column
                assert left.operator == right.operator
            original_masks = original.column_masks(serve_table)
            restored_masks = restored.column_masks(serve_table)
            for left, right in zip(original_masks, restored_masks):
                if left is None:
                    assert right is None
                else:
                    np.testing.assert_array_equal(left, right)

    def test_table_mismatch_rejected(self, serve_table, workload, tmp_path):
        path = os.path.join(tmp_path, "workload.json")
        save_workload(path, workload[:2], table_name=serve_table.name)
        with pytest.raises(ValueError, match="generated against table"):
            load_workload(path, expected_table="another_table")
        # Matching (or unspecified) table names load fine.
        assert len(load_workload(path, expected_table=serve_table.name)) == 2
        assert len(load_workload(path)) == 2

    def test_unknown_version_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.json")
        with open(path, "w") as handle:
            json.dump({"version": 99, "queries": []}, handle)
        with pytest.raises(ValueError):
            load_workload(path)

    def test_reads_legacy_versions_writes_current(self, workload, tmp_path):
        """Nothing writes versions 1 and 2 any more, so literal fixtures pin
        that files written by older releases keep replaying."""
        path = os.path.join(tmp_path, "legacy.json")
        v1 = {"version": 1, "table": "serve", "queries": [
            [["a", "<=", 4], ["b", "=", "b_0"]],
            [["a", "between", [2, 9]], ["b", "in", ["b_0", "b_2"]]]]}
        with open(path, "w") as handle:
            json.dump(v1, handle)
        loaded = load_workload(path)
        # The recorded table becomes each query's qualifier on load, so a
        # fleet router can replay single-relation files against the right route.
        assert [query.table for query in loaded] == ["serve", "serve"]
        assert [(p.column, p.operator, p.value) for p in loaded[1]] == [
            ("a", Operator.BETWEEN, (2, 9)), ("b", Operator.IN, ["b_0", "b_2"])]
        with open(path, "w") as handle:
            json.dump({**v1, "table": None}, handle)
        assert all(query.table is None for query in load_workload(path))
        v2 = {"version": 2, "table": "serve", "queries": [
            {"table": "other_relation", "predicates": [["a", "<=", 4]]},
            {"predicates": [["c", "!=", 5]]}]}  # falls back to the default
        with open(path, "w") as handle:
            json.dump(v2, handle)
        loaded = load_workload(path)
        assert [query.table for query in loaded] == ["other_relation", "serve"]
        assert loaded[1].predicates[0].operator is Operator.NEQ
        # The writer emits one form: objects, under the current version.
        save_workload(path, workload[:3], table_name="serve")
        with open(path) as handle:
            document = json.load(handle)
        assert document["version"] == 3
        assert all(set(spec) == {"predicates"} for spec in document["queries"])
        assert all(query.table == "serve" for query in load_workload(path))

    def test_qualified_roundtrip_preserves_tables(self, workload, tmp_path):
        path = os.path.join(tmp_path, "mixed.json")
        mixed = [workload[0].qualified("serve"),
                 workload[1],                       # unqualified among qualified
                 Query([Predicate("a", Operator.BETWEEN, (2, 9)),
                        Predicate("b", Operator.IN, ["b_0", "b_2"])],
                       table="other_relation")]
        save_workload(path, mixed, table_name="serve")
        with open(path) as handle:
            document = json.load(handle)
        assert document["version"] == 3
        loaded = load_workload(path)
        assert loaded[0].table == "serve"
        # The unqualified query inherits the document-level default table.
        assert loaded[1].table == "serve"
        assert loaded[2].table == "other_relation"
        for original, restored in zip(mixed, loaded):
            assert [(p.column, p.operator) for p in original] == \
                [(p.column, p.operator) for p in restored]

    def test_qualified_roundtrip_without_default_table(self, workload, tmp_path):
        path = os.path.join(tmp_path, "mixed.json")
        mixed = [workload[0].qualified("serve"), workload[1]]
        save_workload(path, mixed)
        loaded = load_workload(path)
        assert loaded[0].table == "serve"
        assert loaded[1].table is None

    def test_expected_table_checks_default_of_qualified_file(self, workload,
                                                             tmp_path):
        path = os.path.join(tmp_path, "mixed.json")
        save_workload(path, [workload[0].qualified("serve")], table_name="serve")
        with pytest.raises(ValueError, match="generated against table"):
            load_workload(path, expected_table="another_table")
        assert len(load_workload(path, expected_table="serve")) == 1


class TestServeCLI:
    def test_end_to_end_with_replay(self, tmp_path):
        workload_path = os.path.join(tmp_path, "workload.json")
        report_path = os.path.join(tmp_path, "report.json")
        exit_code = serve_main([
            "--rows", "400", "--num-queries", "6", "--epochs", "1",
            "--samples", "40", "--batch-size", "4", "--seed", "5",
            "--save-workload", workload_path, "--json", report_path,
            "--q-errors",
        ])
        assert exit_code == 0
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["fleet"]["num_queries"] == 6
        assert report["routes"] == ["census"] * 6
        assert len(report["estimates"]) == 6
        assert len(report["q_errors"]) == 6

        replay_code = serve_main([
            "--rows", "400", "--workload", workload_path, "--epochs", "1",
            "--samples", "40", "--no-cache", "--compare-sequential",
            "--json", report_path, "--seed", "5",
        ])
        assert replay_code == 0
        with open(report_path) as handle:
            replay = json.load(handle)
        assert replay["fleet"]["routes"]["census"]["cache"] is None
        assert replay["max_estimate_drift"] <= 1e-9
        # Replay determinism: cache and batch size changed, estimates did not.
        assert replay["estimates"] == report["estimates"]

    def test_multi_model_end_to_end_with_replay(self, tmp_path):
        workload_path = os.path.join(tmp_path, "mixed.json")
        report_path = os.path.join(tmp_path, "fleet.json")
        exit_code = serve_main([
            "--tables", "users", "sessions",
            "--join", "sessions:users:user_id:user_id",
            "--rows", "400", "--num-queries", "9", "--epochs", "1",
            "--samples", "40", "--batch-size", "3", "--seed", "5",
            "--save-workload", workload_path, "--json", report_path,
            "--compare-sequential", "--q-errors",
        ])
        assert exit_code == 0
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["fleet"]["num_queries"] == 9
        assert report["fleet"]["num_models"] == 3
        assert set(report["routes"]) == {"users", "sessions",
                                         "sessions_join_users"}
        assert len(report["estimates"]) == 9
        assert len(report["q_errors"]) == 9
        assert report["max_estimate_drift"] <= 1e-9

        replay_code = serve_main([
            "--tables", "users", "sessions",
            "--join", "sessions:users:user_id:user_id",
            "--rows", "400", "--workload", workload_path, "--epochs", "1",
            "--samples", "40", "--seed", "5", "--json", report_path,
        ])
        assert replay_code == 0
        with open(report_path) as handle:
            replay = json.load(handle)
        assert replay["estimates"] == report["estimates"]
        assert replay["routes"] == report["routes"]

    def test_join_over_unregistered_relation_rejected(self):
        with pytest.raises(SystemExit, match="cannot register join 'a:b:k:k'.*"
                                             "'a' is not registered"):
            serve_main(["--rows", "200", "--join", "a:b:k:k"])

    def test_replicated_end_to_end(self, tmp_path):
        report_path = os.path.join(tmp_path, "replicated.json")
        exit_code = serve_main([
            "--tables", "users", "sessions",
            "--rows", "400", "--num-queries", "8", "--epochs", "1",
            "--samples", "40", "--batch-size", "3", "--seed", "5",
            "--replicas", "2", "--max-pending", "8", "--result-cache",
            "--json", report_path,
        ])
        assert exit_code == 0
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["fleet"]["num_queries"] == 8
        assert report["fleet"]["shed"] == 0
        assert report["fleet"]["result_cache"]["misses"] == 8
        for route_stats in report["fleet"]["routes"].values():
            assert route_stats["num_replicas"] == 2
            assert len(route_stats["replicas"]) == 2

    def test_shed_overflow_reported(self, tmp_path, capsys):
        report_path = os.path.join(tmp_path, "shed.json")
        exit_code = serve_main([
            "--tables", "users", "sessions",
            "--rows", "400", "--num-queries", "8", "--epochs", "1",
            "--samples", "40", "--batch-size", "6", "--seed", "5",
            "--max-pending", "1", "--overflow", "shed",
            "--compare-sequential", "--json", report_path,
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "shed" in output
        assert "Skipping --compare-sequential" in output
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["fleet"]["shed"] > 0
        assert "speedup" not in report

    def test_fleet_flags_validated(self):
        with pytest.raises(SystemExit, match="at least 1"):
            serve_main(["--tables", "users", "--replicas", "0"])
        with pytest.raises(SystemExit, match="non-negative"):
            serve_main(["--tables", "users", "--max-pending", "-1"])
        with pytest.raises(SystemExit, match="shed requires --max-pending"):
            serve_main(["--tables", "users", "--overflow", "shed"])

    def test_latency_knobs_validated(self):
        """--slo-ms and --flush-after-ms fail fast with a clear one-line
        error instead of being accepted and misbehaving downstream."""
        with pytest.raises(SystemExit, match="--slo-ms must be positive"):
            serve_main(["--tables", "users", "--slo-ms", "-5"])
        with pytest.raises(SystemExit, match="--slo-ms must be positive"):
            serve_main(["--tables", "users", "--slo-ms", "0"])
        with pytest.raises(SystemExit,
                           match="--flush-after-ms must be positive"):
            serve_main(["--tables", "users", "--flush-after-ms", "0"])
        with pytest.raises(SystemExit,
                           match="--flush-after-ms must be positive"):
            serve_main(["--tables", "users", "--flush-after-ms", "-2"])

    @pytest.mark.parametrize("flags,message", [
        (["--num-queries", "0", "--arrivals", "poisson", "--offered-qps", "50",
          "--scenario", "slow_replica"], "--arrivals needs at least one query"),
        (["--num-queries", "-3"], "--num-queries must be at least 0, got -3"),
        (["--samples", "0"], "--samples must be at least 1, got 0"),
        (["--batch-size", "0"], "--batch-size must be at least 1, got 0"),
        (["--min-filters", "9", "--max-filters", "2"],
         r"--max-filters \(2\) must not be below --min-filters \(9\)"),
    ], ids=["no-queries-open-loop", "negative-queries", "no-samples",
            "no-batch", "filters-crossed"])
    def test_bad_numeric_flags_exit_in_one_line(self, flags, message):
        """Each of these used to escape as an IndexError/ValueError traceback
        (``--batch-size 0`` was caught only by the deleted --min-batch check)."""
        with pytest.raises(SystemExit, match=message):
            serve_main(["--tables", "users", "--rows", "200", "--epochs", "1",
                        *flags])

    def test_unservable_replayed_workloads_exit_in_one_line(self, tmp_path):
        """A workload that is empty (under --arrivals), was recorded for
        another table, or filters on columns its relation lacks."""
        path = os.path.join(tmp_path, "workload.json")
        base = ["--tables", "users", "--rows", "200", "--epochs", "1",
                "--workload", path]

        def replay(document, *flags):
            with open(path, "w") as handle:
                json.dump({"version": 3, **document}, handle)
            serve_main([*base, *flags])

        for flags in (["--arrivals", "poisson", "--offered-qps", "50"],
                      ["--arrivals", "poisson", "--offered-qps", "50",
                       "--compare-sequential"]):
            with pytest.raises(SystemExit,
                               match="--arrivals needs at least one query"):
                replay({"table": None, "queries": []}, *flags)
        with pytest.raises(SystemExit, match="targets relations not in this "
                                             "registry: census"):
            replay({"table": "census",
                    "queries": [{"predicates": [["age", "<=", 40]]}]})
        with pytest.raises(SystemExit, match="references columns missing from "
                                             "their relation: users.nope"):
            replay({"table": None,
                    "queries": [{"predicates": [["nope", "=", 1]]}]})

    def test_stream_adaptive_end_to_end(self, tmp_path, capsys):
        """--stream --slo-ms serves the workload through the asyncio client
        with SLO-steered batch sizes and reports latency percentiles plus the
        per-route batch trace."""
        report_path = os.path.join(tmp_path, "stream.json")
        exit_code = serve_main([
            "--tables", "users", "sessions",
            "--rows", "400", "--num-queries", "8", "--epochs", "1",
            "--samples", "40", "--batch-size", "4", "--seed", "5",
            "--stream", "--slo-ms", "0.01",
            "--json", report_path,
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Adaptive batching on" in output
        assert "dispatch latency p50/p95/p99" in output
        assert "batch size" in output
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["fleet"]["num_queries"] == 8
        assert set(report["fleet"]["latency_ms"]) == {"p50", "p95", "p99"}
        for route_stats in report["fleet"]["routes"].values():
            trace = route_stats["batch_trace"]
            assert trace[0] == 4
            # The impossibly tight SLO forces every controller to shrink.
            assert min(trace) < 4

    def test_flush_timeout_and_slo_end_to_end(self, tmp_path, capsys):
        """--flush-after-ms / --slo-ms flow through to the router, and the
        report carries the queueing-delay and end-to-end percentiles
        alongside the dispatch ones."""
        report_path = os.path.join(tmp_path, "e2e.json")
        exit_code = serve_main([
            "--tables", "users", "sessions",
            "--rows", "400", "--num-queries", "8", "--epochs", "1",
            "--samples", "40", "--batch-size", "4", "--seed", "5",
            "--stream", "--slo-ms", "500", "--flush-after-ms", "30",
            "--json", report_path,
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "p95 e2e SLO" in output
        assert "Flush timeout on" in output
        assert "queue wait p50/p95/p99" in output
        assert "end-to-end p50/p95/p99" in output
        with open(report_path) as handle:
            report = json.load(handle)
        fleet = report["fleet"]
        assert {"p50", "p95", "p99"} == set(fleet["queue_wait_ms"])
        assert {"p50", "p95", "p99"} == set(fleet["e2e_ms"])
        assert fleet["timeout_flushes"] >= 0
        for route_stats in fleet["routes"].values():
            assert {"p50", "p95", "p99"} == set(route_stats["queue_wait_ms"])
            assert {"p50", "p95", "p99"} == set(route_stats["e2e_ms"])
            assert route_stats["e2e_ms"]["p95"] >= \
                route_stats["latency_ms"]["p95"] - 1e-9

    def test_slo_across_workers_matches_in_process_run(self, tmp_path):
        """--slo-ms combines with --workers (it used to be refused there):
        worker replies steer the batch size in the parent, and the estimates
        are the in-process run's."""
        estimates = {}
        for workers in ("0", "2"):
            path = os.path.join(tmp_path, f"workers{workers}.json")
            assert serve_main([
                "--tables", "users", "--rows", "400", "--num-queries", "8",
                "--epochs", "1", "--samples", "40", "--batch-size", "4",
                "--seed", "5", "--workers", workers, "--slo-ms", "50",
                "--json", path]) == 0
            with open(path) as handle:
                report = json.load(handle)
            estimates[workers] = report["estimates"]
            assert report["fleet"]["routes"]["users"]["batch_trace"][0] == 4
        assert estimates["2"] == estimates["0"]

    def test_stream_without_adaptive_matches_batched_run(self, tmp_path):
        """--stream alone changes the submission path, never the estimates."""
        batch_path = os.path.join(tmp_path, "batch.json")
        stream_path = os.path.join(tmp_path, "stream.json")
        base = ["--tables", "users", "sessions", "--rows", "400",
                "--num-queries", "8", "--epochs", "1", "--samples", "40",
                "--batch-size", "3", "--seed", "5"]
        assert serve_main(base + ["--json", batch_path]) == 0
        assert serve_main(base + ["--stream", "--json", stream_path]) == 0
        with open(batch_path) as handle:
            batch = json.load(handle)
        with open(stream_path) as handle:
            stream = json.load(handle)
        assert stream["estimates"] == batch["estimates"]
        assert stream["routes"] == batch["routes"]


class TestOpenLoopCLI:
    """CLI surface of the open-loop load generator: the full fail-fast
    validation matrix plus the generate -> save-trace -> replay-with-chaos
    round trip and the kill_worker drill."""

    def test_open_loop_flag_combinations_validated(self):
        base = ["--tables", "users"]
        # What --workers still refuses: the asyncio client and open-loop
        # pacing.  (Result cache, admission, fallback, shaped workloads and
        # SLO-adaptive batching work across processes now.)
        for flags in (["--arrivals", "poisson", "--offered-qps", "10"],
                      ["--stream"]):
            with pytest.raises(SystemExit,
                               match=f"{flags[0]} and --workers are mutually "
                                     "exclusive"):
                serve_main(base + ["--workers", "2"] + flags)
        with pytest.raises(SystemExit,
                           match="--arrivals and --stream are mutually"):
            serve_main(base + ["--stream", "--arrivals", "poisson",
                               "--offered-qps", "10"])
        with pytest.raises(SystemExit,
                           match="--offered-qps must be positive, got 0"):
            serve_main(base + ["--arrivals", "poisson",
                               "--offered-qps", "0"])
        with pytest.raises(SystemExit,
                           match="--offered-qps must be positive, got -5"):
            serve_main(base + ["--arrivals", "poisson",
                               "--offered-qps", "-5"])
        with pytest.raises(SystemExit,
                           match="--duration-s must be positive, got -1"):
            serve_main(base + ["--arrivals", "poisson",
                               "--offered-qps", "10", "--duration-s", "-1"])
        with pytest.raises(SystemExit,
                           match="--arrivals poisson requires --offered-qps"):
            serve_main(base + ["--arrivals", "poisson"])
        with pytest.raises(SystemExit,
                           match="--arrivals trace requires --trace-file"):
            serve_main(base + ["--arrivals", "trace"])
        # A replayed trace fixes the arrival sequence: the generator's
        # knobs must be refused, not silently ignored.
        with pytest.raises(SystemExit, match="replayed trace fixes"):
            serve_main(base + ["--arrivals", "trace", "--trace-file",
                               "t.json", "--offered-qps", "10"])
        with pytest.raises(SystemExit, match="replayed trace fixes"):
            serve_main(base + ["--arrivals", "trace", "--trace-file",
                               "t.json", "--save-trace", "out.json"])
        with pytest.raises(SystemExit,
                           match="--offered-qps requires --arrivals"):
            serve_main(base + ["--offered-qps", "10"])
        with pytest.raises(SystemExit,
                           match="--duration-s requires --arrivals"):
            serve_main(base + ["--duration-s", "1"])
        with pytest.raises(SystemExit,
                           match="--save-trace requires --arrivals"):
            serve_main(base + ["--save-trace", "t.json"])
        with pytest.raises(SystemExit,
                           match="--trace-file requires --arrivals trace"):
            serve_main(base + ["--trace-file", "t.json"])
        with pytest.raises(SystemExit,
                           match="kill_worker requires --workers"):
            serve_main(base + ["--scenario", "kill_worker"])
        with pytest.raises(SystemExit,
                           match="--scenario slow_replica requires "
                                 "--arrivals"):
            serve_main(base + ["--scenario", "slow_replica"])

    def test_malformed_trace_file_fails_fast(self, tmp_path):
        """A broken trace is a one-line SystemExit naming the file — after
        the models are built (the load sits on the serving path), but
        before any query is offered."""
        bad = os.path.join(tmp_path, "bad.json")
        with open(bad, "w") as handle:
            handle.write("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            serve_main(["--tables", "users", "--rows", "300",
                        "--num-queries", "4", "--epochs", "1",
                        "--samples", "40", "--seed", "5",
                        "--arrivals", "trace", "--trace-file", bad])
        missing = os.path.join(tmp_path, "nowhere.json")
        with pytest.raises(SystemExit, match="nowhere.json"):
            serve_main(["--tables", "users", "--rows", "300",
                        "--num-queries", "4", "--epochs", "1",
                        "--samples", "40", "--seed", "5",
                        "--arrivals", "trace", "--trace-file", missing])

    def test_generate_save_trace_then_replay_with_chaos(self, tmp_path,
                                                        capsys):
        """Generate Poisson arrivals (reporting the flush driver's idle
        flushes), save the trace, then replay it with a slow_replica
        scenario: same estimates both runs, drift 0 versus the sequential
        baseline, chaos event reported."""
        trace_path = os.path.join(tmp_path, "arrivals.json")
        generate_path = os.path.join(tmp_path, "generate.json")
        replay_path = os.path.join(tmp_path, "replay.json")
        base = ["--tables", "users", "--rows", "300", "--num-queries", "6",
                "--epochs", "1", "--samples", "40", "--batch-size", "4",
                "--seed", "5"]
        exit_code = serve_main(base + [
            "--arrivals", "poisson", "--offered-qps", "200",
            "--duration-s", "0.2", "--save-trace", trace_path,
            "--flush-after-ms", "1000", "--json", generate_path,
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Arrival trace written" in output
        # ~5 ms gaps against a 1 s deadline: the flush driver sends the
        # partial batches when the loop idles between arrivals.
        assert "dispatched when the event loop went idle" in output
        with open(generate_path) as handle:
            generated = json.load(handle)
        open_loop = generated["open_loop"]
        assert open_loop["submitted"] + open_loop["shed"] >= 1
        assert open_loop["completed"] == open_loop["submitted"]
        assert open_loop["shed"] == 0
        assert open_loop["events"] == []

        replay_code = serve_main(base + [
            "--arrivals", "trace", "--trace-file", trace_path,
            "--scenario", "slow_replica", "--compare-sequential",
            "--json", replay_path,
        ])
        assert replay_code == 0
        output = capsys.readouterr().out
        assert "Chaos scenario armed: slow_replica" in output
        with open(replay_path) as handle:
            replay = json.load(handle)
        # Chaos and pacing never move a completed estimate: the replay
        # matches both the paced generate run and the sequential baseline.
        assert replay["estimates"] == generated["estimates"]
        assert replay["max_estimate_drift"] <= 1e-9
        assert replay["open_loop"]["submitted"] == open_loop["submitted"]
        assert any("slow_replica" in event
                   for event in replay["open_loop"]["events"])

    def test_kill_worker_drill_end_to_end(self, tmp_path, capsys):
        report_path = os.path.join(tmp_path, "drill.json")
        exit_code = serve_main([
            "--tables", "users", "--rows", "300", "--num-queries", "12",
            "--epochs", "1", "--samples", "40", "--batch-size", "4",
            "--seed", "5", "--workers", "2", "--scenario", "kill_worker",
            "--json", report_path,
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "kill_worker drill" in output
        assert "degraded, not collapsed" in output
        with open(report_path) as handle:
            drill = json.load(handle)["kill_worker_drill"]
        assert drill["typed_error"]
        assert drill["error_type"] == "WorkerError"
        assert drill["error_exit_code"] == -9
        # Submission keeps going after the kill (open loop), but a filled
        # micro-batch may surface the typed error mid-submit — anywhere
        # from the kill point to the full workload is a pass.
        assert drill["kill_after"] == 6
        assert 6 <= drill["submitted"] <= 12
