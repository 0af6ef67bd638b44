"""Shard-parallel execution: separation of work, reunion of results.

The data plane's singletons became per-context state
(:mod:`repro.common.context`) precisely so this package can exist:
work partitions over the same 4096-shard rendezvous namespace that
places data slices, every read, join and conversion shard runs under a
forked execution context on a real ``concurrent.futures`` pool, and the
driver merges partial aggregates, online stats and cache counters back
into one answer that is value-identical to the single-shard oracle.
Write waves (:mod:`repro.parallel.ingest`) fork nothing: their
partitions write only lock-guarded counters, straight into the
caller's context.
"""

from repro.common.clock import lpt_makespan
from repro.parallel.convert import ConversionWave, run_conversion_wave
from repro.parallel.executor import ShardPool
from repro.parallel.ingest import IngestWave, sharded_append_batch
from repro.parallel.partition import WorkPartitioner, worker_names
from repro.parallel.query import (
    JoinShardResult,
    JoinShardTask,
    ShardedQueryResult,
    sharded_hash_join,
    sharded_join_kernel,
    sharded_select,
)

__all__ = [
    "ConversionWave",
    "IngestWave",
    "JoinShardResult",
    "JoinShardTask",
    "ShardPool",
    "ShardedQueryResult",
    "WorkPartitioner",
    "lpt_makespan",
    "run_conversion_wave",
    "sharded_append_batch",
    "sharded_hash_join",
    "sharded_join_kernel",
    "sharded_select",
    "worker_names",
]
