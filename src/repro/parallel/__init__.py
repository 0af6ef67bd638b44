"""Shard-parallel execution: separation of work, reunion of results.

The data plane's singletons became per-context state
(:mod:`repro.common.context`) precisely so this package can exist:
work partitions over the same 4096-shard rendezvous namespace that
places data slices.  Two waves use it:

* a sharded scan (:mod:`repro.parallel.query`) runs each worker's file
  reads under a forked execution context on a real
  ``concurrent.futures`` pool, and the driver merges the per-file
  pieces, cache counters and online stats back into one answer that is
  value-identical to the inline ``table.select``;
* a write wave (:mod:`repro.parallel.ingest`) forks nothing: its
  partitions write only lock-guarded counters, straight into the
  caller's context.
"""

from repro.common.clock import lpt_makespan
from repro.parallel.executor import ShardPool
from repro.parallel.ingest import IngestWave, sharded_append_batch
from repro.parallel.partition import WorkPartitioner, worker_names
from repro.parallel.query import ShardedQueryResult, sharded_select

__all__ = [
    "IngestWave",
    "ShardPool",
    "ShardedQueryResult",
    "WorkPartitioner",
    "lpt_makespan",
    "sharded_append_batch",
    "sharded_select",
    "worker_names",
]
