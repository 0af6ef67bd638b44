"""Workloads ``query_cold`` and ``query_warm``: the read plane.

Both load the same TPC-H ``lineitem``/``orders``/``supplier`` tables
(``lineitem`` in ship-date order, one commit per batch, so date ranges
prune files and ``as_of`` has history to travel to), train the planner's
statistics in set-up and draw statements from the same six templates.

* ``query_cold`` — every cache tier is configured to 1/8 of the measured
  working set and cleared before timing, and no statement repeats:
  ``storage.fetch``, EC decode and ``table`` decode/agg/join dominate.
* ``query_warm`` — default capacities (the working set fits), one
  untimed warm-up pass, then 80% Zipf(1.1) repeats from a pool of 32
  statements and 20% fresh literals: the result and chunk tiers, SQL
  parsing and per-query planner overhead dominate and the pool sees no
  extent reads.  It is the workload on which a ``query_cold``
  optimisation predicts *no change*.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.common.context import ExecutionContext, use_context
from repro.parallel import ShardPool, sharded_select
from repro.table.planner import planner_statistics
from repro.table.pushdown import AggregateSpec
from repro.table.sql import parse_select

import inputs
from querying import QueryLog
from reference import SqlOracle, matches
from stack import (
    PassResult,
    Stack,
    build_stack,
    counters,
    load_table,
    stack_facts,
    state_digest,
)

TABLES = ("lineitem", "orders", "supplier")
CACHE_SHARE = 8  # query_cold tiers hold 1/8 of the working set


class _QueryWorkload:
    name = ""
    #: statements per round; a round holds the exact template shares
    round_queries = 20

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.sizes = {
            "lineitem_rows": max(4_000, int(60_000 * scale)),
            "suppliers": max(200, int(2_000 * scale)),
            "load_batch_rows": max(1_000, int(10_000 * scale)),
        }

    # --- inputs -------------------------------------------------------------

    def _tables(self) -> dict:
        rng = np.random.default_rng([self.seed, 31])
        tables = inputs.tpch_tables(rng, self.sizes["lineitem_rows"],
                                    self.sizes["suppliers"])
        schema, lineitem = tables["lineitem"]
        order = np.argsort(np.asarray(lineitem["l_shipdate"]),
                           kind="stable").tolist()
        tables["lineitem"] = (schema, {
            name: [values[index] for index in order]
            for name, values in lineitem.items()
        })
        return tables

    def _statements(self, rng, factory) -> dict:
        """``{"statements": [...]}`` plus whatever set-up needs."""
        raise NotImplementedError

    def make_inputs(self) -> dict:
        tables = self._tables()
        rng = np.random.default_rng([self.seed, 32])
        factory = inputs.TpchQueries(rng, self.sizes["suppliers"])
        data = {"tables": tables, "oracle": None,
                "raw_bytes": _raw_bytes(tables)}
        data.update(self._statements(rng, factory))
        data["sha256"] = inputs.digest(
            [repr(values) for _, columns in tables.values()
             for values in columns.values()],
            [q.sql for q in data["statements"]],
        )
        return data

    # --- set-up -------------------------------------------------------------

    def _load(self, data: dict, context: ExecutionContext) -> dict:
        stack = build_stack(context)
        batch = self.sizes["load_batch_rows"]
        committed = {
            name: load_table(stack, name, schema, columns, batch)
            for name, (schema, columns) in data["tables"].items()
        }
        return {"stack": stack, "lineitem_at": committed["lineitem"]}

    def _train(self, state: dict) -> None:
        started = time.perf_counter()
        statistics = planner_statistics(state["stack"].lakehouse)
        for name in TABLES:
            statistics.refresh(state["stack"].lakehouse.table(name))
        state["train_host_s"] = time.perf_counter() - started

    # --- the measured pass --------------------------------------------------

    def _run(self, lakehouse, log: QueryLog, lineitem_at: list[float],
             query: inputs.Query) -> None:
        last = len(lineitem_at) - 1
        back = min(query.as_of_back, last)
        log.run(lakehouse, query, last - back,
                lineitem_at[last - back] if back else None)

    def run_pass(self, data: dict, state: dict, tracer) -> PassResult:
        stack: Stack = state["stack"]
        lakehouse = stack.lakehouse
        log = QueryLog()
        round_host: list[float] = []
        statements = data["statements"]
        before = counters(stack.context)
        reads_before = stack.pool.stats.extents_read
        origin = stack.clock.now
        pass_started = time.perf_counter()
        with tracer.span("driver"), tracer.span("driver.query"):
            for start in range(0, len(statements), self.round_queries):
                round_started = time.perf_counter()
                for query in statements[start:start + self.round_queries]:
                    self._run(lakehouse, log, state["lineitem_at"], query)
                round_host.append(time.perf_counter() - round_started)
        pass_host = time.perf_counter() - pass_started

        facts = {
            "user_bytes": data["raw_bytes"],
            "file_bytes": sum(stack.lakehouse.table(name).total_bytes()
                              for name in TABLES),
            "pass_sim_s": stack.clock.now - origin,
            **log.facts(),
            "pool_reads": stack.pool.stats.extents_read - reads_before,
            "files_live_end": sum(
                stack.lakehouse.table(name).live_file_count()
                for name in TABLES),
            **{f"cache_capacity_{tier}": size
               for tier, size in state.get("capacities", {}).items()},
            **stack_facts(stack, before),
        }
        return PassResult(
            round_host_s=round_host,
            pass_host_s=pass_host,
            attempted=len(log.queries),
            failed=len(log.raised),
            facts=facts,
            host={
                "query_host_s": sum(log.host_s),
                "query_per_s": len(log.queries) / sum(log.host_s),
            },
            state_sha256=state_digest(stack, TABLES),
            problems=list(log.raised),
            pending=log,
        )

    # --- correctness --------------------------------------------------------

    def verify(self, data: dict, state: dict, result: PassResult
               ) -> list[str]:
        """Every result against sqlite loaded with the same rows."""
        log: QueryLog = result.pending
        if data["oracle"] is None:
            oracle = data["oracle"] = SqlOracle()
            batch = self.sizes["load_batch_rows"]
            indexes = {"lineitem": ("l_suppkey", "l_shipdate"),
                       "orders": ("o_orderkey",),
                       "supplier": ("s_suppkey",)}
            for name, (schema, columns) in data["tables"].items():
                column = inputs.TpchQueries.batch_column[name]
                oracle.create(name, schema, column, indexes[name])
                total = len(next(iter(columns.values())))
                for number, start in enumerate(range(0, total, batch)):
                    oracle.insert(
                        name,
                        {key: values[start:start + batch]
                         for key, values in columns.items()},
                        number)
            oracle.execute(inputs.TpchQueries.reference_join)
        oracle = data["oracle"]
        return [
            f"wrong result: {query.sql}"
            for query, batch, rows in zip(log.queries, log.batches,
                                          log.results)
            if rows is not None
            and not matches(query, rows, oracle.answer(query, batch))
        ]


def _raw_bytes(tables: dict) -> int:
    """User payload of the loaded tables: 8 bytes per number, the text's
    length per string."""
    total = 0
    for _, columns in tables.values():
        for values in columns.values():
            if isinstance(values[0], str):
                total += sum(map(len, values))
            else:
                total += 8 * len(values)
    return total


class QueryCold(_QueryWorkload):
    name = "query_cold"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.sizes["queries"] = max(20, int(160 * scale) // 20 * 20)

    def _statements(self, rng, factory) -> dict:
        return {"statements": inputs.mixed_batch(
            factory, rng, self.sizes["queries"] // 20)}

    def make_inputs(self) -> dict:
        data = super().make_inputs()
        # the working set, measured once per run under default (ample)
        # capacities: every column of every table decoded once
        with use_context(ExecutionContext(name="sizing")) as context:
            stack = self._load(data, context)["stack"]
            for name in TABLES:
                stack.lakehouse.table(name).column_set()
            hierarchy = stack.lakehouse.cache_hierarchy
            data["working_set"] = {
                "chunk": stack.lakehouse.chunk_cache.used_bytes,
                "block": hierarchy.blocks.used_bytes,
                "footer": hierarchy.footers.used_bytes,
            }
        return data

    def setup(self, data: dict, context: ExecutionContext) -> dict:
        capacities = {tier: max(1, size // CACHE_SHARE)
                      for tier, size in data["working_set"].items()}
        context.configure_caches(
            chunk_capacity_bytes=capacities["chunk"],
            block_capacity_bytes=capacities["block"],
            footer_capacity_bytes=capacities["footer"],
            # sized like the block tier; nothing repeats, so it only
            # ever fills and evicts
            result_capacity_bytes=capacities["block"],
        )
        state = self._load(data, context)
        self._train(state)
        # training scanned every table: start the timed region cold
        state["stack"].lakehouse.cache_hierarchy.clear()
        state["stack"].lakehouse.chunk_cache.clear()
        state["capacities"] = capacities
        return state


    def parallel_probe(self, data: dict, state: dict) -> dict[str, float]:
        """The single-table statements of the mix once more through
        ``sharded_select``, serial pool then thread pool, width = nproc.

        Run untraced (the tracer's one stack cannot follow threads).  The
        *scheduled* figure is the sum over scans of the slowest shard's
        measured wall: what perfect overlap would cost — a model, stated
        beside the thread pool's real wall and never in its place.
        """
        width = os.cpu_count() or 1
        table = state["stack"].lakehouse.table("lineitem")
        scans = []
        for query in data["statements"]:
            if query.template not in ("q_point", "q_groupby"):
                continue
            statement = parse_select(query.sql)
            aggregates = [item.aggregate for item in statement.items
                          if item.aggregate]
            scans.append({
                "predicate": statement.predicate,
                "columns": None if aggregates else [
                    item.column for item in statement.items],
                "aggregate": [
                    AggregateSpec(function, column,
                                  group_by=statement.group_by)
                    for function, column in aggregates] or None,
            })
        walls = {}
        scheduled = 0.0
        skews = []
        for mode in ("serial", "thread"):
            state["stack"].lakehouse.cache_hierarchy.clear()
            state["stack"].lakehouse.chunk_cache.clear()
            started = time.perf_counter()
            with ShardPool(width, mode) as pool:
                for scan in scans:
                    result = sharded_select(table, num_workers=width,
                                            pool=pool, **scan)
                    if mode == "serial" and result.shard_walls:
                        scheduled += max(result.shard_walls)
                        mean = sum(result.files_per_worker) / width
                        skews.append(max(result.files_per_worker) / mean)
            walls[mode] = time.perf_counter() - started
        return {
            "scan_shard_skew": sum(skews) / len(skews) if skews else 0.0,
            "scan_scheduled_host_s": scheduled,
            "thread_vs_serial_host_ratio": walls["thread"] / walls["serial"],
        }


class QueryWarm(_QueryWorkload):
    name = "query_warm"
    round_queries = 200

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.sizes.update({
            "queries": max(200, int(2_000 * scale) // 200 * 200),
            "statement_pool": 32,
            "repeat_share": 0.8,
            "zipf_exponent": 1.1,
        })

    def _statements(self, rng, factory) -> dict:
        """The statement sequence, stratified so every seed does the same
        amount of work: the pool's ranks hold templates in a fixed order,
        each rank repeats its exact Zipf share of the time, and every
        round carries the same number of fresh statements in the exact
        template shares — the seed only picks literals and positions."""
        sizes = self.sizes
        names = [name for name, count in inputs.TEMPLATE_MIX
                 for _ in range(count)]
        # interleave templates, so a rank's popularity and its template
        # are unrelated
        names = [names[index * 7 % len(names)] for index in range(len(names))]
        pool = [factory.make(names[rank % len(names)])
                for rank in range(sizes["statement_pool"])]
        per_round = self.round_queries
        fresh_per_round = round(per_round * (1 - sizes["repeat_share"]))
        repeats = sizes["queries"] - fresh_per_round * (
            sizes["queries"] // per_round)
        weights = 1.0 / np.arange(1, len(pool) + 1) ** sizes["zipf_exponent"]
        shares = weights / weights.sum() * repeats
        counts = np.floor(shares).astype(int)
        for rank in np.argsort(counts - shares)[: repeats - counts.sum()]:
            counts[rank] += 1  # largest remainders take what is left over
        repeated = [pool[rank] for rank, count in enumerate(counts.tolist())
                    for _ in range(count)]
        repeated = [repeated[index] for index in rng.permutation(repeats)]
        statements: list[inputs.Query] = []
        for _ in range(sizes["queries"] // per_round):
            fresh = [factory.make(names[index % len(names)])
                     for index in range(fresh_per_round)]
            take = per_round - fresh_per_round
            batch = fresh + [repeated.pop() for _ in range(take)]
            statements += [batch[index]
                           for index in rng.permutation(per_round)]
        warmup = pool + inputs.mixed_batch(factory, rng, 1)
        return {"statements": statements, "warmup": warmup}

    def setup(self, data: dict, context: ExecutionContext) -> dict:
        state = self._load(data, context)
        self._train(state)
        warmup = QueryLog()
        for query in data["warmup"]:
            self._run(state["stack"].lakehouse, warmup, state["lineitem_at"],
                      query)
        return state
