"""Smoke tests keeping the runnable examples in sync with the API.

Examples are documentation that executes; these tests run the cheap ones at a
shrunken scale so an API change that breaks them fails tier-1 instead of
rotting silently.  The heavyweight examples are exercised end-to-end by the
one ``slow``-marked test below and the docs-examples job instead.
"""

from __future__ import annotations

import importlib.util
import os
import re

import pytest

_EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def _load_example(name: str):
    """Import one example file as a throwaway module."""
    path = os.path.join(_EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_streaming_slo_example_smoke(capsys):
    """The streaming/SLO example runs end to end at smoke scale and reports
    an honest zero-drift line (streaming ≡ batch)."""
    example = _load_example("streaming_slo")
    example.main(num_users=60, num_rows=240, epochs=1, num_queries=16,
                 samples=60, max_batch=6, burst_size=4)
    output = capsys.readouterr().out
    assert "p95 SLO" in output
    assert "Adaptive stream" in output
    assert "Steady-state stream" in output
    # The multi-producer backpressure demo served everything without shedding.
    assert re.search(r"Backpressure: 16 queries from 4 producers, 0 shed",
                     output)
    # Same tolerance as the invariance suite: differently shaped micro-batch
    # GEMMs may round the last bit differently, so demand "tiny", not "0".
    drift = float(re.search(r"drift: ([0-9.]+e[+-]\d+)", output).group(1))
    assert drift <= 1e-12


def test_multi_model_serving_example_importable():
    """The multi-model example must at least import against the current API
    (its full run is minutes-scale; the CLI and benches cover the behaviour)."""
    example = _load_example("multi_model_serving")
    assert callable(example.main)


@pytest.mark.slow
def test_multi_model_serving_example_runs():
    """Full end-to-end run of the multi-model example (slow-marked)."""
    _load_example("multi_model_serving").main()
