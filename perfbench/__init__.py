"""perfbench: the repository's performance benchmark (see README.md).

Four named workloads drive the Naru estimator and its serving stack through
public calls only, report end-to-end metrics with tracing off and — in a
separate ``--trace 1`` run — per-layer metrics measured from outside, by
wrapping each layer's public functions (``perfbench/trace.py``).
``BENCHMARK.json`` at the repository root is the contract this package
implements; ``python3 perfbench/run.py`` is the one command.
"""
