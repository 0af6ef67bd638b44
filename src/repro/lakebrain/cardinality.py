"""Cardinality estimators: SPN vs the sampling/scanning baselines.

Section VI-B: "we can either directly compute the cardinality, or sample
for estimation, which is time-consuming or not accurate enough.  Hence,
we can use AI-driven cardinality estimation methods to estimate the
cardinality accurately and efficiently."

Three estimators behind one interface so the ablation bench can compare
them on accuracy (q-error) and estimation cost:

* :class:`ScanEstimator` — exact: scans every row per estimate (the
  "directly compute" option; cost linear in table size);
* :class:`SamplingEstimator` — scans a uniform sample per estimate
  (cheaper, but selective predicates often hit zero sample rows);
* :class:`SPNEstimator` — the learned sum-product network (near-constant
  cost per estimate, smooth on selective predicates).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import UnknownEstimatorColumnError
from repro.lakebrain.spn import SPN
from repro.table.expr import Expression

#: CPU to evaluate one predicate against one row (the scan/sample cost).
ROW_EVAL_S = 0.4e-6
#: CPU per SPN node visit; trees are small so estimates are ~constant.
SPN_NODE_S = 0.3e-6


class CardinalityEstimator(ABC):
    """Common interface: estimated matching rows + simulated cost."""

    #: cumulative simulated estimation time
    total_cost_s: float = 0.0

    @abstractmethod
    def cardinality(self, expression: Expression) -> float:
        """Estimated number of matching rows in the full table."""


class ScanEstimator(CardinalityEstimator):
    """Exact answer by scanning all rows — the expensive ground truth."""

    def __init__(self, rows: list[dict[str, object]]) -> None:
        self._rows = rows
        self.total_cost_s = 0.0

    def cardinality(self, expression: Expression) -> float:
        self.total_cost_s += len(self._rows) * ROW_EVAL_S
        return float(sum(1 for row in self._rows if expression.matches(row)))


class SamplingEstimator(CardinalityEstimator):
    """Estimate from a uniform sample, scaled to the table size."""

    def __init__(self, rows: list[dict[str, object]],
                 sample_fraction: float = 0.01, seed: int = 0) -> None:
        if not 0 < sample_fraction <= 1:
            raise ValueError("sample_fraction must be in (0, 1]")
        rng = np.random.default_rng(seed)
        size = max(1, int(len(rows) * sample_fraction))
        indices = rng.choice(len(rows), size=size, replace=False)
        self._sample = [rows[i] for i in indices]
        self._total_rows = len(rows)
        self.sample_fraction = sample_fraction
        self.total_cost_s = 0.0

    def cardinality(self, expression: Expression) -> float:
        self.total_cost_s += len(self._sample) * ROW_EVAL_S
        hits = sum(1 for row in self._sample if expression.matches(row))
        return hits * self._total_rows / len(self._sample)


@dataclass(frozen=True)
class CardinalityEstimate:
    """An estimate plus its provenance: how fresh is the model behind it?

    ``stale`` is True when the table has committed past the snapshot the
    estimator trained on; ``snapshots_behind`` counts how far.  The
    cost-based planner still *uses* stale estimates (join ordering
    survives moderate drift) but surfaces the staleness in its plan
    report so operators know to retrain.
    """

    rows: float
    trained_snapshot_id: int | None = None
    current_snapshot_id: int | None = None

    @property
    def stale(self) -> bool:
        if self.trained_snapshot_id is None or self.current_snapshot_id is None:
            return False
        return self.current_snapshot_id > self.trained_snapshot_id

    @property
    def snapshots_behind(self) -> int:
        if not self.stale:
            return 0
        return self.current_snapshot_id - self.trained_snapshot_id  # type: ignore[operator]


class SPNEstimator(CardinalityEstimator):
    """The learned estimator: train once, estimate in near-constant time."""

    def __init__(self, rows: Sequence[dict[str, object]], columns: list[str],
                 sample_fraction: float = 0.01, seed: int = 0,
                 trained_snapshot_id: int | None = None) -> None:
        """``rows`` is indexed only at the sampled positions, so it may
        be a lazy sequence (the planner's statistics pass one)."""
        rng = np.random.default_rng(seed)
        size = max(64, int(len(rows) * sample_fraction))
        size = min(size, len(rows))
        indices = rng.choice(len(rows), size=size, replace=False)
        sample = [rows[i] for i in indices]
        self._spn = SPN.learn(sample, columns, seed=seed)
        self._spn.row_count = len(rows)
        #: columns the SPN was trained over — the learned schema; an
        #: estimate over anything else is a typed error, not a KeyError
        self.columns = list(columns)
        #: table snapshot the training sample was drawn at (staleness
        #: tracking; None = unknown, never reported stale)
        self.trained_snapshot_id = trained_snapshot_id
        #: one-time training cost (structure learning over the sample)
        self.training_cost_s = size * len(columns) * ROW_EVAL_S * 4
        self.total_cost_s = 0.0
        self._node_count = self._count_nodes()

    def _count_nodes(self) -> int:
        count = 0
        stack = [self._spn._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(getattr(node, "children", []))
        return count

    def _check_columns(self, expression: Expression) -> None:
        missing = sorted(expression.columns() - set(self.columns))
        if missing:
            raise UnknownEstimatorColumnError(
                f"SPN was not trained over column(s) {missing}; "
                f"learned schema is {self.columns}",
                missing=missing, known=self.columns,
            )

    def cardinality(self, expression: Expression) -> float:
        self._check_columns(expression)
        self.total_cost_s += self._node_count * SPN_NODE_S
        return self._spn.cardinality(expression)

    def estimate(self, expression: Expression,
                 current_snapshot_id: int | None = None
                 ) -> CardinalityEstimate:
        """A cardinality with staleness provenance attached.

        ``current_snapshot_id`` is the table's snapshot id *now*; when it
        has advanced past :attr:`trained_snapshot_id`, the estimate is
        flagged stale and reports how many snapshots behind it is.
        """
        return CardinalityEstimate(
            rows=self.cardinality(expression),
            trained_snapshot_id=self.trained_snapshot_id,
            current_snapshot_id=current_snapshot_id,
        )


def q_error(estimate: float, truth: float) -> float:
    """Standard cardinality-estimation error: max(e/t, t/e), floored at 1."""
    estimate = max(estimate, 1.0)
    truth = max(truth, 1.0)
    return max(estimate / truth, truth / estimate)
