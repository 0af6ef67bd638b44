"""Cost-based join planning over SPN cardinality estimates.

The paper's LakeBrain layer learns models over the lake and feeds them
back into the data path (Section VI); this module closes that loop for
multi-table queries: join *order* is chosen by a cost model whose
cardinalities come from per-table sum-product networks
(:class:`~repro.lakebrain.cardinality.SPNEstimator`), and per-table scan
decisions (push the predicate into the scan vs materialize-then-filter,
footer-prunable scans first) are recorded in the plan.

Planning pipeline:

1. :class:`StatisticsCache` holds per-``(table, snapshot)`` statistics —
   row count, per-column distinct counts, and an SPN trained over the
   table's columns.  Training charges its simulated cost once; the model
   is then reused until refreshed, so estimates can go *stale* as the
   table commits past the training snapshot — the plan reports how far
   (:attr:`JoinPlan.stale`) instead of silently mispredicting.
2. :func:`plan_join` estimates each relation's post-predicate
   cardinality with the SPN, then enumerates left-deep join orders over
   the (≤ :data:`MAX_PLANNED_RELATIONS`) relations, costing each with
   per-row build/probe/output constants and the classic
   ``|L⋈R| ≈ |L|·|R| / max(ndv(L.k), ndv(R.k))`` estimate.  Every
   enumerated order and its cost is kept (:attr:`JoinPlan.alternatives`)
   so benches can show chosen-vs-worst.
3. :func:`execute_plan` runs the chosen plan on the vectorized join
   kernel (:func:`~repro.table.join.hash_join`), scanning each table
   into a :class:`~repro.table.join.ColumnSet` (footer-prunable scans
   first), folding joins as row-index composition — late
   materialization end to end — and charging the modeled CPU to the
   simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Mapping

import numpy as np

from repro.common.stats import join_stats
from repro.errors import PlanningError
from repro.lakebrain.cardinality import CardinalityEstimate, SPNEstimator
from repro.table.expr import Expression
from repro.table.join import (
    JOIN_TYPES,
    ColumnSet,
    JoinResult,
    gather_with_nulls,
    hash_join,
)
from repro.table.table import Lakehouse, QueryStats, TableObject
from repro.table.vector import ColumnVector, NumericVector

#: Left-deep enumeration is exhaustive up to this many relations (4! = 24
#: orders); beyond it the factorial blows up and a DP planner would be
#: needed — the simulation keeps the paper's ≤4-way workloads exact.
MAX_PLANNED_RELATIONS = 4

#: Cost-model constants, simulated seconds per row.  Scanning decodes
#: and filters; a join builds its hash side, probes, and emits output.
SCAN_ROW_S = 20e-9
BUILD_ROW_S = 60e-9
PROBE_ROW_S = 40e-9
OUTPUT_ROW_S = 25e-9

#: Push the predicate into the scan unless it keeps nearly every row —
#: an unselective filter prunes nothing and just defeats whole-vector
#: decode, so the planner materializes first and filters after.
PUSHDOWN_SELECTIVITY = 0.9

#: Fraction of a table sampled when training planner statistics.
STATS_SAMPLE_FRACTION = 0.1


@dataclass(frozen=True)
class TableRef:
    """One relation in a query: catalog name plus its query alias."""

    name: str
    alias: str


@dataclass(frozen=True)
class JoinCondition:
    """An equi-join edge ``left_alias.left_column = right_alias.right_column``."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def aliases(self) -> frozenset[str]:
        return frozenset((self.left_alias, self.right_alias))

    def column_for(self, alias: str) -> str:
        if alias == self.left_alias:
            return self.left_column
        if alias == self.right_alias:
            return self.right_column
        raise KeyError(alias)

    def __str__(self) -> str:
        return (f"{self.left_alias}.{self.left_column} = "
                f"{self.right_alias}.{self.right_column}")


@dataclass(frozen=True)
class JoinQuery:
    """A bound multi-table query: relations, join edges, local filters.

    ``predicates`` carries per-alias conjuncts with **unqualified**
    column names (ready to push into that table's scan); ``hows`` gives
    the join type for each table after the first (the SQL join order) —
    any non-``inner`` entry pins the plan to the written order, since
    reordering an outer join changes its meaning.
    """

    tables: tuple[TableRef, ...]
    conditions: tuple[JoinCondition, ...]
    predicates: tuple[tuple[str, Expression], ...] = ()
    hows: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        hows = self.hows if self.hows else tuple(
            "inner" for _ in self.tables[1:]
        )
        object.__setattr__(self, "hows", hows)
        if len(hows) != max(len(self.tables) - 1, 0):
            raise PlanningError(
                f"{len(self.tables)} relations need {len(self.tables) - 1} "
                f"join types, got {len(hows)}"
            )
        for how in hows:
            if how not in JOIN_TYPES:
                raise PlanningError(
                    f"unsupported join type {how!r}; use {JOIN_TYPES}"
                )

    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(ref.alias for ref in self.tables)

    def predicate_for(self, alias: str) -> Expression | None:
        for owner, predicate in self.predicates:
            if owner == alias:
                return predicate
        return None


@dataclass
class TableStatistics:
    """Planner statistics for one table at one snapshot."""

    table_name: str
    snapshot_id: int
    row_count: int
    #: distinct non-null values per column (join-key fan-out)
    ndv: dict[str, int]
    #: SPN over the table's columns; None for an empty table
    estimator: SPNEstimator | None


def _distinct_count(data: "ColumnVector | list[object]") -> int:
    """Distinct non-null values of one column's data."""
    if isinstance(data, NumericVector):
        return len(np.unique(data.values[data.valid()]))
    return len(set(data) - {None})


class _ColumnRows:
    """A table's rows as a sequence over its column data.

    A row dict is built when it is indexed, so the estimator pays for
    the rows it samples while ``len`` — what the sample is drawn over —
    is the whole table.
    """

    def __init__(self, columns: "dict[str, ColumnVector | list[object]]",
                 num_rows: int) -> None:
        self._columns = columns
        self._num_rows = num_rows

    def __len__(self) -> int:
        return self._num_rows

    def __getitem__(self, index: int) -> dict[str, object]:
        row: dict[str, object] = {}
        for name, data in self._columns.items():
            if not isinstance(data, NumericVector):
                row[name] = data[index]
            elif data.valid()[index]:
                row[name] = data.values[index].item()
            else:
                row[name] = None
        return row


class StatisticsCache:
    """Per-table planner statistics with explicit staleness.

    Statistics are kept per table *name* and reused across commits —
    retraining an SPN on every insert would defeat its near-constant
    estimate cost — so a cached model can be **stale**.  The staleness
    is surfaced, not hidden: estimates carry the trained vs current
    snapshot ids and the plan lists every stale alias.  Call
    :meth:`refresh` (or set ``max_snapshots_behind``) to retrain.
    """

    def __init__(self, sample_fraction: float = STATS_SAMPLE_FRACTION,
                 seed: int = 0,
                 max_snapshots_behind: int | None = None) -> None:
        self.sample_fraction = sample_fraction
        self.seed = seed
        self.max_snapshots_behind = max_snapshots_behind
        self._entries: dict[str, TableStatistics] = {}

    def stats_for(self, table: TableObject) -> TableStatistics:
        entry = self._entries.get(table.name)
        current = table.current_snapshot_id()
        if entry is not None:
            behind = current - entry.snapshot_id
            if (self.max_snapshots_behind is None
                    or behind <= self.max_snapshots_behind):
                return entry
        return self.refresh(table)

    def refresh(self, table: TableObject) -> TableStatistics:
        """(Re)train statistics at the table's current snapshot.

        Charges the SPN's one-time training cost to the table's clock —
        collecting statistics is modeled work, not free lookahead.
        """
        columns, row_count = table.read_columns()
        ndv = {name: _distinct_count(data) for name, data in columns.items()}
        estimator: SPNEstimator | None = None
        if row_count:
            estimator = SPNEstimator(
                _ColumnRows(columns, row_count), table.schema.names,
                sample_fraction=self.sample_fraction, seed=self.seed,
                trained_snapshot_id=table.current_snapshot_id(),
            )
            table.clock.advance(estimator.training_cost_s)
        entry = TableStatistics(
            table_name=table.name,
            snapshot_id=table.current_snapshot_id(),
            row_count=row_count,
            ndv=ndv,
            estimator=estimator,
        )
        self._entries[table.name] = entry
        return entry

    def forget(self, table_name: str) -> None:
        self._entries.pop(table_name, None)


def planner_statistics(lakehouse: Lakehouse) -> StatisticsCache:
    """The lakehouse's statistics cache (created lazily, shared across
    queries so training costs amortize like the paper's learned models)."""
    cache = getattr(lakehouse, "_planner_statistics", None)
    if cache is None:
        cache = StatisticsCache()
        lakehouse._planner_statistics = cache  # type: ignore[attr-defined]
    return cache


@dataclass(frozen=True)
class ScanChoice:
    """The planner's per-table decisions for one base relation."""

    alias: str
    table: str
    predicate: Expression | None
    #: filter during the scan (prunes files/row groups) vs materialize
    #: the whole relation and filter the decoded vectors after
    pushdown: bool
    #: the predicate can prune whole files/row groups from min/max
    #: statistics, so this scan runs before unprunable ones
    footer_prunable: bool
    base_rows: int
    estimated_rows: float
    estimate: CardinalityEstimate | None


@dataclass(frozen=True)
class JoinStep:
    """One join in the chosen left-deep order: fold ``alias`` in."""

    alias: str
    how: str
    conditions: tuple[JoinCondition, ...]
    estimated_rows: float


@dataclass
class JoinPlan:
    """A costed, executable multi-table plan."""

    query: JoinQuery
    order: tuple[str, ...]
    scans: dict[str, ScanChoice]
    #: base-table scan order: footer-prunable scans first, then by
    #: estimated size — prunable scans warm the footer tier cheaply
    scan_order: tuple[str, ...]
    steps: list[JoinStep]
    cost_s: float
    #: every enumerated (order, modeled cost) — chosen-vs-worst evidence
    alternatives: tuple[tuple[tuple[str, ...], float], ...]
    #: aliases whose cardinality model is stale → snapshots behind
    stale: dict[str, int]

    @property
    def worst_cost_s(self) -> float:
        return max(cost for _, cost in self.alternatives)

    def explain(self) -> str:
        """A human-readable plan summary (bench/docs output)."""
        lines = [f"join order: {' ⋈ '.join(self.order)}  "
                 f"(cost {self.cost_s * 1e6:.1f}us, worst enumerated "
                 f"{self.worst_cost_s * 1e6:.1f}us, "
                 f"{len(self.alternatives)} orders considered)"]
        for alias in self.scan_order:
            choice = self.scans[alias]
            mode = "pushdown" if choice.pushdown else "materialize+filter"
            prune = "prunable" if choice.footer_prunable else "full"
            lines.append(
                f"  scan {alias} ({choice.table}): {prune}, {mode}, "
                f"~{choice.estimated_rows:.0f}/{choice.base_rows} rows"
            )
        for alias, behind in sorted(self.stale.items()):
            lines.append(f"  stale estimate for {alias}: "
                         f"{behind} snapshot(s) behind")
        return "\n".join(lines)


def _connecting(conditions: tuple[JoinCondition, ...], joined: set[str],
                alias: str) -> list[JoinCondition]:
    return [
        condition for condition in conditions
        if alias in condition.aliases()
        and (condition.aliases() - {alias}) <= joined
    ]


def plan_join(lakehouse: Lakehouse, query: JoinQuery,
              statistics: StatisticsCache | None = None,
              as_of: float | None = None,
              stats: QueryStats | None = None) -> JoinPlan:
    """Choose a join order and per-table scan decisions for ``query``."""
    if len(query.tables) < 2:
        raise PlanningError("a join query needs at least two relations")
    if len(query.tables) > MAX_PLANNED_RELATIONS:
        raise PlanningError(
            f"cannot plan {len(query.tables)} relations; the enumerator "
            f"handles at most {MAX_PLANNED_RELATIONS}"
        )
    aliases = list(query.aliases)
    if len(set(aliases)) != len(aliases):
        raise PlanningError(f"duplicate aliases in {aliases}")
    known = set(aliases)
    for condition in query.conditions:
        missing = condition.aliases() - known
        if missing:
            raise PlanningError(
                f"join condition {condition} references unknown "
                f"alias(es) {sorted(missing)}"
            )
        if condition.left_alias == condition.right_alias:
            raise PlanningError(
                f"join condition {condition} joins an alias to itself"
            )
    statistics = (
        statistics if statistics is not None
        else planner_statistics(lakehouse)
    )
    stats = stats if stats is not None else QueryStats()

    table_stats: dict[str, TableStatistics] = {}
    scans: dict[str, ScanChoice] = {}
    est_rows: dict[str, float] = {}
    stale: dict[str, int] = {}
    for ref in query.tables:
        table = lakehouse.table(ref.name)
        tstats = table_stats[ref.alias] = statistics.stats_for(table)
        predicate = query.predicate_for(ref.alias)
        estimate: CardinalityEstimate | None = None
        rows_estimate = float(tstats.row_count)
        if predicate is not None and tstats.estimator is not None:
            cost_before = tstats.estimator.total_cost_s
            estimate = tstats.estimator.estimate(
                predicate,
                current_snapshot_id=table.current_snapshot_id(),
            )
            estimate_cost = tstats.estimator.total_cost_s - cost_before
            stats.metadata_cost_s += estimate_cost
            table.clock.advance(estimate_cost)
            rows_estimate = max(estimate.rows, 0.0)
            if estimate.stale:
                stale[ref.alias] = estimate.snapshots_behind
        selectivity = (
            rows_estimate / tstats.row_count if tstats.row_count else 1.0
        )
        scans[ref.alias] = ScanChoice(
            alias=ref.alias,
            table=ref.name,
            predicate=predicate,
            pushdown=predicate is None or selectivity <= PUSHDOWN_SELECTIVITY,
            footer_prunable=predicate is not None,
            base_rows=tstats.row_count,
            estimated_rows=rows_estimate,
            estimate=estimate,
        )
        est_rows[ref.alias] = rows_estimate

    def order_cost(order: tuple[str, ...]
                   ) -> tuple[float, list[JoinStep]] | None:
        cost = sum(scans[alias].base_rows * SCAN_ROW_S for alias in order)
        current = est_rows[order[0]]
        joined = {order[0]}
        steps: list[JoinStep] = []
        for position, alias in enumerate(order[1:], start=1):
            connecting = _connecting(query.conditions, joined, alias)
            if not connecting:
                return None  # a cross product: never enumerate it
            how = (
                "inner" if reorderable else query.hows[position - 1]
            )
            build = est_rows[alias]
            cost += build * BUILD_ROW_S + current * PROBE_ROW_S
            output = current * build
            for condition in connecting:
                other = next(iter(condition.aliases() - {alias}))
                fanout = max(
                    table_stats[other].ndv.get(
                        condition.column_for(other), 1
                    ),
                    table_stats[alias].ndv.get(
                        condition.column_for(alias), 1
                    ),
                    1,
                )
                output /= fanout
            if how == "left":
                output = max(output, current)  # left preserves probe rows
            cost += output * OUTPUT_ROW_S
            steps.append(JoinStep(alias, how, tuple(connecting), output))
            current = output
            joined.add(alias)
        return cost, steps

    reorderable = all(how == "inner" for how in query.hows)
    candidate_orders = (
        permutations(aliases) if reorderable else [tuple(aliases)]
    )
    alternatives: list[tuple[tuple[str, ...], float]] = []
    costed: dict[tuple[str, ...], tuple[float, list[JoinStep]]] = {}
    for order in candidate_orders:
        result = order_cost(tuple(order))
        if result is None:
            continue
        costed[tuple(order)] = result
        alternatives.append((tuple(order), result[0]))
    if not alternatives:
        raise PlanningError(
            "no connected join order exists — cross joins without an "
            "equi-join condition are not supported"
        )
    counters = join_stats()
    counters.queries_planned += 1
    counters.plans_considered += len(alternatives)
    chosen_order, chosen_cost = min(
        alternatives, key=lambda entry: (entry[1], entry[0])
    )
    scan_order = tuple(sorted(
        aliases,
        key=lambda alias: (
            not scans[alias].footer_prunable,
            scans[alias].estimated_rows,
            alias,
        ),
    ))
    return JoinPlan(
        query=query,
        order=chosen_order,
        scans=scans,
        scan_order=scan_order,
        steps=costed[chosen_order][1],
        cost_s=chosen_cost,
        alternatives=tuple(alternatives),
        stale=stale,
    )


def _gather(vector: ColumnVector, indices: np.ndarray) -> ColumnVector:
    """Vector gather where ``-1`` (outer-join padding) yields NULLs."""
    if len(indices) and int(indices.min()) < 0:
        return gather_with_nulls(vector, indices)
    return vector.gather(indices)


JoinKernel = Callable[..., JoinResult]


def execute_plan(lakehouse: Lakehouse, plan: JoinPlan,
                 columns: Mapping[str, list[str]],
                 as_of: float | None = None,
                 stats: QueryStats | None = None,
                 read_parallelism: int = 1,
                 join_kernel: JoinKernel | None = None) -> ColumnSet:
    """Run a plan; returns a :class:`ColumnSet` of ``alias.column`` vectors.

    ``columns`` names the per-alias columns the caller needs downstream
    (projection, GROUP BY, aggregates); join keys and post-filter
    predicate columns are added internally.  Joins stay index-composed
    until this final gather — no Python row exists anywhere in between.
    ``join_kernel`` swaps the serial :func:`hash_join` for the sharded
    one (:func:`repro.parallel.query.sharded_hash_join` partially
    applied) without the planner importing the parallel layer.
    """
    kernel = join_kernel if join_kernel is not None else hash_join
    stats = stats if stats is not None else QueryStats()
    query = plan.query

    needed: dict[str, list[str]] = {}
    for ref in query.tables:
        wanted = set(columns.get(ref.alias, []))
        for condition in query.conditions:
            if ref.alias in condition.aliases():
                wanted.add(condition.column_for(ref.alias))
        choice = plan.scans[ref.alias]
        if choice.predicate is not None and not choice.pushdown:
            wanted |= choice.predicate.columns()
        needed[ref.alias] = sorted(wanted)

    base: dict[str, ColumnSet] = {}
    for alias in plan.scan_order:
        choice = plan.scans[alias]
        table = lakehouse.table(choice.table)
        relation = table.column_set(
            choice.predicate if choice.pushdown else None,
            needed[alias], as_of=as_of,
            read_parallelism=read_parallelism, stats=stats,
        )
        if choice.predicate is not None and not choice.pushdown:
            mask = choice.predicate.mask(relation.columns, relation.num_rows)
            relation = relation.gather(
                np.flatnonzero(mask).astype(np.intp)
            )
        base[alias] = relation

    first = plan.order[0]
    indices: dict[str, np.ndarray] = {
        first: np.arange(base[first].num_rows, dtype=np.intp)
    }
    join_cpu_s = 0.0
    for step in plan.steps:
        build = base[step.alias]
        probe_columns: dict[str, ColumnVector] = {}
        probe_keys: list[str] = []
        build_keys: list[str] = []
        for position, condition in enumerate(step.conditions):
            probe_alias = next(iter(condition.aliases() - {step.alias}))
            key_name = f"__key{position}"
            probe_columns[key_name] = _gather(
                base[probe_alias].columns[condition.column_for(probe_alias)],
                indices[probe_alias],
            )
            probe_keys.append(key_name)
            build_keys.append(condition.column_for(step.alias))
        probe_rows = len(next(iter(indices.values())))
        probe_set = ColumnSet(probe_columns, probe_rows)
        result = kernel(probe_set, build, probe_keys, build_keys, step.how)
        for alias in list(indices):
            indices[alias] = indices[alias][result.left_indices]
        indices[step.alias] = result.right_indices
        join_cpu_s += (
            build.num_rows * BUILD_ROW_S
            + probe_rows * PROBE_ROW_S
            + result.num_rows * OUTPUT_ROW_S
        )

    clock = lakehouse.table(query.tables[0].name).clock
    clock.advance(join_cpu_s)
    stats.data_cost_s += join_cpu_s

    output: dict[str, ColumnVector] = {}
    for ref in query.tables:
        for name in columns.get(ref.alias, []):
            output[f"{ref.alias}.{name}"] = _gather(
                base[ref.alias].columns[name], indices[ref.alias]
            )
    num_rows = int(len(indices[first]))
    stats.rows_returned = num_rows
    return ColumnSet(output, num_rows)
