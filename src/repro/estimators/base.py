"""Common interface implemented by every selectivity estimator in the package.

All estimators — Naru itself and the baselines from Table 2 of the paper —
answer the same question: given a conjunctive range/equality query, what
fraction (selectivity) or number (cardinality) of the relation's tuples
satisfies it?  The shared interface lets the benchmark harness treat them
uniformly and enforce per-dataset storage budgets.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from ..data.table import Table
from ..query.predicates import DNFQuery, Query, dnf_expansion
from ..query.shapes import QueryShape, query_shape

__all__ = ["CardinalityEstimator"]


class CardinalityEstimator(ABC):
    """Base class for selectivity/cardinality estimators.

    Subclasses are constructed (and, for learned estimators, trained) against
    a specific :class:`~repro.data.table.Table` and afterwards answer queries
    without touching the raw data again (except for the sampling baselines
    that explicitly keep a sample).
    """

    #: Human-readable estimator name used in reports (e.g. ``"Naru-2000"``).
    name: str = "estimator"
    #: Inclusion–exclusion sums that fell outside ``[0, 1]`` and were clipped.
    inclusion_exclusion_clips: int = 0

    def __init__(self, table: Table) -> None:
        self.table = table
        self.num_rows = table.num_rows

    # ------------------------------------------------------------------ #
    def capabilities(self) -> frozenset[QueryShape]:
        """Query shapes this estimator can answer.

        The default is the paper's language — plain conjunctions.  Estimators
        that consume per-column valid-code masks also serve ``PREFIX``
        (``LIKE 'x%'`` reduces to a mask like any comparison), and estimators
        with a union strategy (native row-mask unions, or the
        inclusion–exclusion expansion) additionally serve ``DISJUNCTIVE``.
        The serving router matches :func:`repro.query.shapes.query_shape`
        against this set when picking an estimator for a query.
        """
        return frozenset({QueryShape.CONJUNCTIVE})

    def can_serve(self, query: "Query | DNFQuery") -> bool:
        """Whether this estimator can answer the query's shape.

        Subclasses may refine this beyond the pure shape check — e.g. the
        Naru estimator bounds the branch count of disjunctions it is willing
        to expand.
        """
        return query_shape(query) in self.capabilities()

    # ------------------------------------------------------------------ #
    @abstractmethod
    def estimate_selectivity(self, query: Query) -> float:
        """Estimated fraction of tuples satisfying ``query`` (in ``[0, 1]``)."""

    def estimate_cardinality(self, query: "Query | DNFQuery") -> float:
        """Estimated number of tuples satisfying ``query``."""
        return self.estimate_selectivity(query) * self.num_rows

    def _inclusion_exclusion(self, query: DNFQuery,
                             estimate: Callable[[Query], float]) -> float:
        """Selectivity of a DNF query by inclusion–exclusion over conjunctions.

        Every expansion term is a plain conjunctive :class:`Query` (branch
        intersections concatenate predicate lists), so any
        conjunctive-capable subclass can serve disjunctions by passing its
        own conjunctive estimator here.  The signed sum is clipped to
        ``[0, 1]`` to absorb estimation noise in the cross terms, and every
        clip is counted in :attr:`inclusion_exclusion_clips`.
        """
        total = sum(sign * estimate(term) for sign, term in dnf_expansion(query))
        clipped = min(max(total, 0.0), 1.0)
        if clipped != total:
            self.inclusion_exclusion_clips += 1
        return float(clipped)

    def size_bytes(self) -> int:
        """Approximate storage footprint of the estimator's summary/model."""
        return 0

    # ------------------------------------------------------------------ #
    def set_row_count(self, num_rows: int) -> None:
        """Update the relation cardinality used to scale selectivities.

        Needed by the data-shift study (Table 8), where new partitions grow
        the relation while a *stale* estimator keeps its old model.
        """
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        self.num_rows = num_rows

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
