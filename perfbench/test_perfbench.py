"""Fast checks of the benchmark package itself (collected by the tier-1 run).

The workloads run at ``--scale smoke`` in fresh interpreters — the runner
pins the BLAS threads before numpy is imported, which an in-process call from
a pytest session cannot do.  Nothing here asserts a timing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import compare
from perfbench.stats import tail_percentile
from perfbench.trace import Tracer, summarise
from perfbench.workloads import (END_TO_END, LOW_QPS, PER_LAYER, RUN_SECONDS,
                                 SIZES, WORKLOADS, Block, HostSpeed)

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _git_status() -> str | None:
    try:
        done = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Every workload, traced and untraced, at smoke scale: name -> process."""
    out = tmp_path_factory.mktemp("perfbench")
    before = _git_status()
    started = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            started[workload, trace] = subprocess.Popen(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "12", "--seconds", "0.3", "--trace", str(trace),
                 "--scale", "smoke", "--out", str(out / f"{workload}-{trace}.json")],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    finished = {}
    for key, process in started.items():
        stdout, stderr = process.communicate(timeout=120)
        finished[key] = (process.returncode, stdout, stderr)
    return finished, before, _git_status()


def test_contract_names_are_well_formed():
    contract = _contract()
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in contract[section]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [entry["name"] for entry in contract["workloads"]] == list(WORKLOADS)
    assert {entry["name"]: entry["unit"]
            for entry in contract["end_to_end"]} == END_TO_END
    assert {entry["name"]: entry["unit"]
            for entry in contract["per_layer"]} == PER_LAYER
    assert contract["run_seconds"] == RUN_SECONDS
    assert "setup_s" in END_TO_END
    assert all(0 < entry["bound"] <= 0.25 for entry in contract["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_the_contract(smoke_runs, workload, trace):
    finished, _, _ = smoke_runs
    code, stdout, stderr = finished[workload, trace]
    assert code == 0, stderr + stdout
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == expected
    printed = {}
    for line in lines[:-1]:
        if line.startswith("#"):
            continue
        name, metric, value, unit = line.split(" ")
        assert name == workload
        printed[metric] = (float(value), unit)
    assert {metric: unit for metric, (_, unit) in printed.items()} == expected
    for metric, (value, _) in printed.items():
        assert value == result["metrics"][metric]["value"]
    if not trace:
        assert all(value > 0 for value, _ in printed.values())


def test_traced_sanity_readings(smoke_runs):
    finished, _, _ = smoke_runs

    def metrics(workload):
        return {name: entry["value"] for name, entry in json.loads(
            finished[workload, 1][1].strip().splitlines()[-1])["metrics"].items()}

    repeat, distinct, oneshot = (metrics(name) for name in
                                 ("serve_repeat", "serve_distinct", "oneshot"))
    assert repeat["made.rows"] == 0 and repeat["cache.hit_rate"] == 1.0
    assert distinct["made.rows"] > 0 and distinct["cache.misses"] > 0
    assert distinct["procfleet.qps"] > 0
    assert oneshot["cache.hits"] == 0 and oneshot["engine.batches"] == 0
    for workload in WORKLOADS:
        assert metrics(workload)["trace.unattributed_share"] < 0.10


def test_runs_leave_the_tree_untouched(smoke_runs):
    _, before, after = smoke_runs
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_percentile_rule():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(39) is None
    # Every ``latency_p90_ms`` at full scale rests on enough samples.
    full = SIZES["full"]
    for samples in (full["oneshot_queries"], full["block"],
                    int(LOW_QPS * 0.6 * RUN_SECONDS)):
        assert tail_percentile(samples) >= 90.0


def test_host_speed_divides_block_times():
    speed = HostSpeed()
    factor = speed.read()
    assert 0.1 < factor < 100 and speed.readings == [factor]
    assert Block(False, 3.0, None, 1.5).steady_s == 2.0


def test_span_self_time_arithmetic():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 4.5, 5.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(lambda rows: None, "leaf", lambda args: len(args[0]))
    middle = tracer.wrap(lambda: (leaf([1, 2, 3]), leaf([4])), "middle")
    root = tracer.wrap(lambda: middle(), "root")
    root()
    # root 0-10, middle 1-7, leaves 2-4 and 4.5-5.
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1]
    totals = summarise(tracer.spans)
    assert totals["root"] == {"calls": 1, "busy_s": 10.0, "self_s": 4.0, "units": 1}
    assert totals["middle"]["self_s"] == 6.0 - 2.5
    assert totals["leaf"] == {"calls": 2, "busy_s": 2.5, "self_s": 2.5, "units": 4}
    assert sum(entry["self_s"] for entry in totals.values()) == 10.0


def test_tracer_restores_what_it_patches():
    from repro.core.made import MADEModel

    original = MADEModel.__dict__["conditional_probs"]
    tracer = Tracer()
    tracer.install()
    assert MADEModel.__dict__["conditional_probs"] is not original
    tracer.uninstall()
    assert MADEModel.__dict__["conditional_probs"] is original


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def judge(change, better="lower", bound=0.1):
        return compare.verdict(steady, change, better=better, bound=bound)[1]

    assert judge(steady) == "unchanged"
    assert judge([value * 1.2 for value in steady]) == "regressed"
    assert judge([value * 0.8 for value in steady]) == "improved"
    assert judge([value * 0.8 for value in steady], better="higher") == "regressed"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert judge([value * 1.15 for value in noisy]) == "unresolved"
