"""Outside-in span tracing: wrappers around each layer's public functions.

The program carries no instrumentation of its own yet (ROADMAP item 1 adds
``repro.obs`` later), so the benchmark records spans from its own files: a
:class:`Tracer` replaces the public functions listed in :data:`TARGETS` with
timing wrappers while it is installed and puts the originals back when it is
uninstalled.  A span is ``(name, start, end, parent, units)``; spans nest on
one stack (the program is single-threaded and the wrapped functions are all
synchronous), a span's *self time* is its duration minus the part its child
spans cover, and everything stays in memory until the run ends.

End-to-end metrics are never measured with a tracer installed.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable

__all__ = ["TARGETS", "Span", "Tracer", "summarise"]

#: One recorded span; ``parent`` indexes :attr:`Tracer.spans` (-1 = root) and
#: ``units`` is the layer's unit of work for the call (rows for the model,
#: the cache and the sampler, 1 otherwise).
Span = tuple[str, float, float, int, int]


def _rows_of_codes(args: tuple) -> int:
    """Rows of a ``(self, column_index, codes)`` or ``(self, codes)`` call."""
    return len(args[-1])


def _rows_of_packed(args: tuple) -> int:
    """Keys of a ``bulk_get/bulk_put(self, column, packed, ...)`` call."""
    return int(args[2].size)


def _rows_submitted(args: tuple) -> int:
    """The sampler's public lifetime row counter; read before and after a call."""
    return args[0].stats.rows_submitted


#: ``(module, class, function, span name, units reader or None)``.  The span
#: name's prefix up to the first dot is the layer (= module) name.  A reader
#: in :data:`CUMULATIVE` is a lifetime counter: the call's units are its
#: growth across the call.
TARGETS: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("repro.core.estimator", "NaruEstimator", "fit", "training.fit", None),
    ("repro.core.made", "AutoregressiveModel", "nll", "nn.forward", None),
    ("repro.nn.autograd", "Tensor", "backward", "nn.backward", None),
    ("repro.nn.optim", "Adam", "step", "nn.step", None),
    ("repro.nn.optim", "Optimizer", "zero_grad", "nn.step", None),
    ("repro.estimators.base", "CardinalityEstimator", "estimate_cardinality",
     "estimator.estimate", None),
    ("repro.core.progressive", "ProgressiveSampler",
     "estimate_selectivity_batch", "progressive.sample", _rows_submitted),
    ("repro.core.made", "MADEModel", "conditional_probs", "made.forward",
     _rows_of_codes),
    ("repro.core.made", "AutoregressiveModel", "log_prob", "made.forward",
     _rows_of_codes),
    ("repro.serve.cache", "CachedConditionalModel", "conditional_probs",
     "cache.lookup", _rows_of_codes),
    ("repro.serve.cache", "PackedConditionalCache", "bulk_get", "cache.get",
     _rows_of_packed),
    ("repro.serve.cache", "PackedConditionalCache", "bulk_put", "cache.put",
     _rows_of_packed),
    ("repro.serve.router", "FleetRouter", "run", "router.run", None),
    ("repro.serve.router", "FleetRouter", "submit", "router.submit", None),
    ("repro.serve.router", "FleetRouter", "flush", "router.flush", None),
    ("repro.serve.router", "FleetRouter", "tick", "router.tick", None),
    ("repro.serve.router", "FleetRouter", "report", "router.report", None),
    ("repro.serve.stream", "AsyncFleetClient", "submit", "stream.submit", None),
)
CUMULATIVE = frozenset({_rows_submitted})


class Tracer:
    """Span recorder that patches :data:`TARGETS` in and out.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds (``time.perf_counter`` by
        default); injectable so the self-time arithmetic can be unit-tested
        on a scripted timeline.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._originals: list[tuple[type, str, Callable]] = []

    # ------------------------------------------------------------------ #
    def wrap(self, function: Callable, name: str,
             units_of: Callable | None = None) -> Callable:
        """A wrapper recording one span per call of ``function``."""
        spans, stack, clock = self.spans, self._stack, self.clock
        cumulative = units_of in CUMULATIVE

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            base = units_of(args) if cumulative else 0
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                units = units_of(args) - base if units_of is not None else 1
                spans[index] = (name, start, end, parent, units)

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        """Patch every target's public function with its timing wrapper."""
        if self._originals:
            return
        for module_name, class_name, attribute, name, units_of in TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, name, units_of))

    def uninstall(self) -> None:
        """Put every original function back (idempotent)."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)


def summarise(spans: list[Span | None]) -> dict[str, dict[str, float]]:
    """Per-name totals: ``name -> {"calls", "busy_s", "self_s", "units"}``.

    Self time is a span's duration minus the summed duration of its direct
    children (children of a span never overlap: one stack, synchronous
    calls).  Spans still open (``None``) are skipped.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    totals: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, begin, end, _, units = span
        entry = totals.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "units": 0})
        entry["calls"] += 1
        entry["busy_s"] += end - begin
        entry["self_s"] += (end - begin) - child_time.get(index, 0.0)
        entry["units"] += units
    return totals
