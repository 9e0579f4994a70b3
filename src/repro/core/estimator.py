"""The Naru estimator: a deep likelihood model plus progressive sampling.

This is the package's headline public API.  ``NaruEstimator`` wires together
the pieces described in the paper:

* an autoregressive density model over the dictionary-encoded relation
  (masked MLP by default, per-column networks optionally — §3.2/§4.3),
* column encoding/decoding strategies (§4.2),
* unsupervised maximum-likelihood training (§4.1),
* query answering by exact enumeration for small regions and progressive
  sampling for everything else (§5).
"""

from __future__ import annotations

import numpy as np

from ..data.table import Table
from ..estimators.base import CardinalityEstimator
from ..query.predicates import DNFQuery, Query
from ..query.shapes import QueryShape, query_shape
from .column_nets import ColumnNetworkModel
from .config import NaruConfig
from .made import MADEModel
from .progressive import ProgressiveSampler, UniformRegionSampler, enumerate_region
from .training import Trainer, TrainingHistory

__all__ = ["NaruEstimator"]


class NaruEstimator(CardinalityEstimator):
    """Deep unsupervised cardinality estimator (Naru).

    Parameters
    ----------
    table:
        The relation to summarise.  Only its tuples are read; no queries or
        feedback are needed.
    config:
        Hyper-parameters; see :class:`repro.core.config.NaruConfig`.

    Examples
    --------
    >>> from repro.data import make_census
    >>> from repro.core import NaruEstimator, NaruConfig
    >>> from repro.query import Query
    >>> table = make_census(num_rows=2000)
    >>> naru = NaruEstimator(table, NaruConfig(epochs=1, hidden_sizes=(32, 32)))
    >>> _ = naru.fit()
    >>> query = Query.from_tuples([("sex", "=", "sex_0"), ("age", "<=", 40)])
    >>> 0.0 <= naru.estimate_selectivity(query) <= 1.0
    True
    """

    def __init__(self, table: Table, config: NaruConfig | None = None) -> None:
        super().__init__(table)
        self.config = config or NaruConfig()
        self.name = f"Naru-{self.config.progressive_samples}"
        order = list(self.config.column_order) if self.config.column_order else None

        if self.config.architecture == "made":
            self.model = MADEModel(
                table,
                hidden_sizes=self.config.hidden_sizes,
                embedding_threshold=self.config.embedding_threshold,
                embedding_dim=self.config.embedding_dim,
                order=order,
                seed=self.config.seed,
            )
        else:
            self.model = ColumnNetworkModel(
                table,
                hidden_sizes=self.config.hidden_sizes,
                embedding_threshold=self.config.embedding_threshold,
                embedding_dim=self.config.embedding_dim,
                order=order,
                seed=self.config.seed,
            )

        self.trainer = Trainer(self.model, table,
                               batch_size=self.config.batch_size,
                               learning_rate=self.config.learning_rate,
                               seed=self.config.seed)
        self._sampler = ProgressiveSampler(self.model, seed=self.config.seed)
        self._uniform_sampler = UniformRegionSampler(self.model, seed=self.config.seed)
        self._fitted = False

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, epochs: int | None = None,
            track_entropy_gap: bool = False) -> TrainingHistory:
        """Train the likelihood model with maximum likelihood (Equation 2).

        Parameters
        ----------
        epochs:
            Number of passes over the data; defaults to ``config.epochs``.
        track_entropy_gap:
            Record the entropy gap after each epoch (slower; used by the
            Figure 5 reproduction).
        """
        history = self.trainer.train(epochs if epochs is not None else self.config.epochs,
                                     track_entropy_gap=track_entropy_gap)
        self._fitted = True
        return history

    def refresh(self, codes: np.ndarray, epochs: int = 1) -> TrainingHistory:
        """Fine-tune the existing model on (new) dictionary-encoded tuples.

        Used after data ingests (§6.7.3): the model keeps its weights and
        receives additional gradient updates on samples from the updated
        relation.  ``codes`` must be encoded with the same dictionaries the
        estimator was built with.  A model that has seen at least one epoch
        this way is fitted — an estimator may be trained by ``refresh``
        alone — while ``epochs=0`` changes nothing.
        """
        history = self.trainer.train(epochs, codes=np.asarray(codes, dtype=np.int64))
        if epochs > 0:
            self._fitted = True
        return history

    def entropy_gap_bits(self, sample_rows: int | None = 4096) -> float:
        """Goodness-of-fit: KL divergence from the data in bits (§3.3)."""
        return self.trainer.entropy_gap_bits(sample_rows=sample_rows)

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def capabilities(self) -> frozenset[QueryShape]:
        """Shapes Naru serves: conjunctions, prefixes, bounded disjunctions.

        ``LIKE 'x%'`` reduces to a valid-code mask, so prefixes ride the
        ordinary conjunctive machinery.  Disjunctions are answered by
        inclusion–exclusion over conjunctive terms, bounded by
        ``config.max_dnf_branches`` (see :meth:`can_serve`).
        """
        return frozenset({QueryShape.CONJUNCTIVE, QueryShape.PREFIX,
                          QueryShape.DISJUNCTIVE})

    def can_serve(self, query: "Query | DNFQuery") -> bool:
        """Shape capability plus the inclusion–exclusion branch budget.

        The expansion of a ``k``-branch disjunction has ``2^k − 1``
        conjunctive terms; disjunctions wider than
        ``config.max_dnf_branches`` are refused so the serving layer routes
        them to a fallback estimator instead of paying an exponential
        expansion.
        """
        if not super().can_serve(query):
            return False
        if isinstance(query, DNFQuery):
            return len(query.branches) <= self.config.max_dnf_branches
        return True

    def estimate_selectivity(self, query: "Query | DNFQuery",
                             num_samples: int | None = None,
                             method: str = "auto") -> float:
        """Estimate the selectivity of a query.

        Parameters
        ----------
        query:
            The query; unfiltered columns are treated as wildcards.  A
            :class:`~repro.query.predicates.DNFQuery` is answered by
            inclusion–exclusion: each signed expansion term is a plain
            conjunction estimated with the same ``num_samples``/``method``.
        num_samples:
            Progressive-sampling paths; defaults to ``config.progressive_samples``.
        method:
            ``"auto"`` (enumerate small regions, sample otherwise),
            ``"progressive"``, ``"enumerate"`` or ``"uniform"`` (the naive
            region sampler, kept for ablations).
        """
        if isinstance(query, DNFQuery):
            if len(query.branches) == 1:
                return self.estimate_selectivity(query.branches[0],
                                                 num_samples, method)
            return self._inclusion_exclusion(
                query, lambda term: self.estimate_selectivity(
                    term, num_samples, method))
        if not self._fitted:
            raise RuntimeError("call fit() before estimating queries")
        masks = query.column_masks(self.table)
        samples = num_samples or self.config.progressive_samples

        if method == "auto":
            region = query.region_size(self.table)
            method = ("enumerate" if region <= self.config.enumeration_threshold
                      else "progressive")
        if method == "enumerate":
            estimate = enumerate_region(self.model, masks,
                                        max_points=max(self.config.enumeration_threshold,
                                                       2048))
        elif method == "progressive":
            estimate = self._sampler.estimate_selectivity(masks, num_samples=samples)
        elif method == "uniform":
            estimate = self._uniform_sampler.estimate_selectivity(masks,
                                                                  num_samples=samples)
        else:
            raise ValueError(f"unknown estimation method {method!r}")
        return float(min(max(estimate, 0.0), 1.0))

    def estimate_selectivity_batch(self, queries: list[Query],
                                   num_samples: int | None = None,
                                   rngs: list[np.random.Generator] | None = None
                                   ) -> np.ndarray:
        """Estimate many queries with shared progressive-sampling passes.

        All queries are packed into one batched sampler run (see
        :meth:`repro.core.progressive.ProgressiveSampler.estimate_selectivity_batch`),
        so the whole batch costs at most ``num_columns`` model forward rounds.
        A batch of one is exactly the sequential progressive path.  For
        workload-scale serving with micro-batching and conditional caching use
        :class:`repro.serve.EstimationEngine`, which feeds this same machinery.

        Parameters
        ----------
        queries:
            The queries to estimate (always via progressive sampling).
        num_samples:
            Sample paths per query; defaults to ``config.progressive_samples``.
        rngs:
            Optional per-query random generators (used by the serving engine
            to make estimates independent of micro-batch boundaries).

        Returns
        -------
        numpy.ndarray
            One selectivity in ``[0, 1]`` per query, in input order.
        """
        if not self._fitted:
            raise RuntimeError("call fit() before estimating queries")
        masks_batch = [query.column_masks(self.table) for query in queries]
        samples = num_samples or self.config.progressive_samples
        estimates = self._sampler.estimate_selectivity_batch(
            masks_batch, num_samples=samples, rngs=rngs)
        return np.clip(estimates, 0.0, 1.0)

    def point_likelihood(self, values: dict[str, object]) -> float:
        """Probability of one fully specified tuple (equality on every column).

        This is the straightforward point-density use of the likelihood model
        (§5, "Equality Predicates"): a single forward pass.
        """
        known = set(self.table.column_names)
        unknown = sorted(set(values) - known)
        if unknown:
            raise ValueError(
                f"point query names columns not in table "
                f"{self.table.name!r}: {unknown}")
        missing = sorted(known - set(values))
        if missing:
            raise ValueError(f"point queries must specify every column; missing {missing}")
        codes = np.zeros((1, self.table.num_columns), dtype=np.int64)
        for name, value in values.items():
            column = self.table.column(name)
            codes[0, self.table.column_index(name)] = column.value_to_code(value)
        return float(np.exp(self.model.log_prob(codes))[0])

    # ------------------------------------------------------------------ #
    def size_bytes(self) -> int:
        """Model size (float32 weights), the quantity the storage budget caps."""
        return self.model.size_bytes()
