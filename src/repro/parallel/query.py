"""Sharded scan + aggregation over a worker pool.

:func:`sharded_select` is ``table.select`` with a shard fan-out: the
table's one read path (:meth:`repro.table.table.TableObject.select`)
plans, prunes and fetches every file on the driver, and the fan-out
decides only *where* each file's read runs.  Files bucket over workers
by ``shard_of(file path)`` (:mod:`repro.parallel.partition`) and each
bucket runs on a :class:`~repro.parallel.executor.ShardPool` inside a
**forked execution context** — its own counters, cache tiers, RNG and
clock — so nothing is shared hot.  The per-file pieces come back to
the driver, which merges them in scan-plan order exactly as the inline
scan does, and each shard's counters fold back into the parent
context, so rows and merged counters are value-identical to the inline
``table.select`` run.

Simulated time follows the shard assignment, not the wall clock: each
worker's read costs sum serially, the wave costs the slowest worker
(the fixed-assignment makespan — shard routing pins files to workers,
so there is no LPT rebalancing within a query), and the result transfer
is charged once on the driver.  At one worker this is the serial sum.
Footer-answerable aggregates never fan out: the driver answers them
from the footer tier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cache.hierarchy import CHUNK_CACHE_NAME, default_hierarchy
from repro.common.context import ExecutionContext, current_context, use_context
from repro.parallel.executor import ShardPool
from repro.parallel.partition import WorkPartitioner
from repro.table.columnar import ColumnarFile
from repro.table.expr import Expression
from repro.table.pushdown import AggregateSpec
from repro.table.table import FileWork, QueryStats, TableObject

__all__ = ["ShardedQueryResult", "sharded_select"]


@dataclass
class ShardedQueryResult:
    """A sharded query's rows plus the evidence of how it ran."""

    rows: list[dict[str, object]]
    stats: QueryStats
    num_workers: int
    mode: str
    #: wall seconds each shard task actually took (empty buckets omitted)
    shard_walls: list[float] = field(default_factory=list)
    #: files assigned per worker (including empty buckets)
    files_per_worker: list[int] = field(default_factory=list)


def _run_shard(task: tuple[ExecutionContext, FileWork, list[ColumnarFile]]
               ) -> tuple[list[tuple[object, int]], ExecutionContext, float]:
    """Read one worker's files inside its forked context.

    Module-level (not a closure) so process pools can pickle it.  The
    context travels back for its counters; its decoded chunks do not.
    """
    context, work, files = task
    started = time.perf_counter()
    with use_context(context):
        chunks = default_hierarchy(context).chunks
        results = [work(data_file, chunks) for data_file in files]
    context.cache_hierarchy = None
    return results, context, time.perf_counter() - started


def sharded_select(
    table: TableObject,
    predicate: Expression | None = None,
    columns: list[str] | None = None,
    aggregate: AggregateSpec | list[AggregateSpec] | None = None,
    as_of: float | None = None,
    num_workers: int = 1,
    mode: str = "thread",
    pool: ShardPool | None = None,
    stats: QueryStats | None = None,
    context: ExecutionContext | None = None,
) -> ShardedQueryResult:
    """SELECT over ``table`` with its file reads fanned out over shards.

    Runs ``table.select(..., fan_out=...)`` inside ``context`` (default
    the ambient context), so ``rows`` and the counter side effects equal
    the inline ``table.select`` run's.  ``pool`` reuses an existing
    :class:`ShardPool` across queries; otherwise one is built for this
    call and closed.
    """
    context = context if context is not None else current_context()
    stats = stats if stats is not None else QueryStats()
    owned_pool = pool is None
    if pool is None:
        pool = ShardPool(num_workers, mode)
    shard_walls: list[float] = []
    files_per_worker = [0] * num_workers

    def fan_out(paths: list[str], files: list[ColumnarFile],
                read_costs: list[float], work: FileWork
                ) -> tuple[list[tuple[object, int]], float]:
        buckets = WorkPartitioner(num_workers).partition(paths)
        files_per_worker[:] = [len(bucket) for bucket in buckets]
        busy = [
            (worker, bucket) for worker, bucket in enumerate(buckets)
            if bucket
        ]
        tasks = [
            (context.fork(f"shard-{worker}",
                          seed=context.rng.randrange(2 ** 63)),
             work, [files[position] for position in bucket])
            for worker, bucket in busy
        ]
        by_position: dict[int, tuple[object, int]] = {}
        for (_, bucket), (results, shard, wall_s) in zip(
            busy, pool.map(_run_shard, tasks)
        ):
            by_position.update(zip(bucket, results))
            context.merge(shard)
            chunk = shard.cache_stats(CHUNK_CACHE_NAME)
            stats.count_lookups("chunk", chunk.hits, chunk.misses)
            shard_walls.append(wall_s)
        # each worker reads its files serially; the wave costs the slowest
        wave_s = max(
            sum(read_costs[position] for position in bucket)
            for bucket in buckets
        )
        ordered = [by_position[position] for position in range(len(files))]
        return ordered, wave_s

    try:
        with use_context(context):
            rows = table.select(
                predicate, columns, aggregate, as_of=as_of, stats=stats,
                fan_out=fan_out,
            )
    finally:
        if owned_pool:
            pool.close()
    return ShardedQueryResult(
        rows=rows,
        stats=stats,
        num_workers=num_workers,
        mode=pool.mode,
        shard_walls=shard_walls,
        files_per_worker=files_per_worker,
    )

