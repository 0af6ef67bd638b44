"""Build one StreamLake stack through public constructors only.

One simulated cluster per pass: an EC(4+2) pool of eight NVMe disks, one
data bus, the PLog manager, the streaming service, the lakehouse and
(when tenants are given) the serving front end — the same wiring the
legacy ``benchmarks/bench_*.py`` files use, under one fresh
:class:`~repro.common.context.ExecutionContext` so every counter family
starts at zero and no cache tier outlives the pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.clock import SimClock
from repro.common.context import ExecutionContext
from repro.serving import ServingFrontend, TenantQuota, TenantRegistry
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.stream.config import TopicConfig
from repro.stream.service import MessageStreamingService
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.schema import ColumnType, Schema
from repro.table.table import Lakehouse
from repro.table.vector import NumericVector

#: group commits fan this wide, in ``mode="serial"``: the box has two
#: shared cores, and serial pools keep every sim figure reproducible
WRITE_PARALLELISM = 4
STREAM_WORKERS = 4

#: counters measured in host seconds; everything else in a context
#: snapshot is a count or a sim figure and must repeat exactly
HOST_COUNTERS = {"validation_s"}


@dataclass
class Stack:
    context: ExecutionContext
    clock: SimClock
    pool: StoragePool
    plogs: PLogManager
    service: MessageStreamingService
    lakehouse: Lakehouse
    frontend: ServingFrontend | None = None


@dataclass
class PassResult:
    """What one fixed-size pass measured.

    ``facts`` holds counts and sim-currency figures only: they are a pure
    function of the seed, so two passes of one run (and a traced and an
    untraced pass) must agree on every entry.  ``host`` holds host-second
    figures, which never repeat.
    """

    round_host_s: list[float]
    pass_host_s: float
    #: requests + queries whose failure would be the system's fault
    attempted: int
    failed: int
    #: host seconds of the pass's pieces that are not rounds, in order
    #: (a final flush; update, compaction and closing queries)
    tail_host_s: list[float] = field(default_factory=list)
    facts: dict[str, float] = field(default_factory=dict)
    host: dict[str, float] = field(default_factory=dict)
    state_sha256: str = ""
    #: request id -> label, for per-request span attribution
    request_labels: dict[int, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: what the workload's ``verify`` needs (results to check against the
    #: reference); dropped once verified
    pending: object = None


def build_stack(context: ExecutionContext,
                quotas: dict[str, TenantQuota] | None = None,
                max_queue_delay_s: float = 1.0) -> Stack:
    """A fresh cluster; the caller has ``context`` active already."""
    clock = SimClock()
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    bus = DataBus(clock)
    plogs = PLogManager(pool, clock)
    service = MessageStreamingService(plogs, bus, clock,
                                      num_workers=STREAM_WORKERS)
    lakehouse = Lakehouse(
        pool, bus, clock,
        meta_store=AcceleratedMetadataStore(KVEngine("meta", clock), pool,
                                            clock),
        context=context,
    )
    stack = Stack(context, clock, pool, plogs, service, lakehouse)
    if quotas is not None:
        registry = TenantRegistry()
        for tenant_id, quota in quotas.items():
            registry.register(tenant_id, quota)
        stack.frontend = ServingFrontend(
            service, registry, max_queue_delay_s=max_queue_delay_s)
        stack.frontend.configure_write_parallelism(WRITE_PARALLELISM,
                                                   mode="serial")
    return stack


def create_topic(stack: Stack, topic: str, streams: int,
                 config: TopicConfig | None = None) -> list[str]:
    config = config if config is not None else TopicConfig()
    config.stream_num = streams
    # the per-stream worker quota is not under test: tenants are metered
    # by the front end, so the stream-level bucket is opened wide
    config.quota_msgs_per_s = 10**12
    return stack.service.create_topic(topic, config)


_NUMPY_TYPES = {
    ColumnType.INT64: np.int64,
    ColumnType.TIMESTAMP: np.int64,
    ColumnType.FLOAT64: np.float64,
    ColumnType.BOOL: np.bool_,
}


def load_table(stack: Stack, name: str, schema: Schema,
               columns: dict[str, list], batch_rows: int) -> list[float]:
    """CREATE TABLE + one ``insert_columns`` commit per ``batch_rows``.

    Returns the sim instant after each commit: ``as_of`` one of them
    sees exactly the batches loaded up to it.
    """
    table = stack.lakehouse.create_table(name, schema)
    total = len(next(iter(columns.values())))
    committed_at = []
    for start in range(0, total, batch_rows):
        stop = min(total, start + batch_rows)
        batch = {}
        for column in schema.columns:
            values = columns[column.name][start:stop]
            dtype = _NUMPY_TYPES.get(column.type)
            batch[column.name] = values if dtype is None else NumericVector(
                np.asarray(values, dtype=dtype),
                np.ones(stop - start, dtype=bool))
        table.insert_columns(batch, stop - start)
        committed_at.append(stack.clock.now)
    return committed_at


def counters(context: ExecutionContext) -> dict[str, dict[str, float]]:
    """The context snapshot without its host-seconds counters."""
    return {
        family: {name: value for name, value in values.items()
                 if name not in HOST_COUNTERS}
        for family, values in context.snapshot().items()
    }


def counter_delta(after: dict, before: dict) -> dict[str, dict[str, float]]:
    return {
        family: {name: value - before.get(family, {}).get(name, 0)
                 for name, value in values.items()}
        for family, values in after.items()
    }


def stack_facts(stack: Stack, before: dict) -> dict[str, float]:
    """The facts every workload reports: what the pool holds, and every
    counter's movement since ``before`` as ``"family.counter"``."""
    delta = counter_delta(counters(stack.context), before)
    return {
        "pool_used_bytes": stack.pool.used_bytes,
        "pool_logical_bytes": stack.pool.logical_bytes,
        "extents_written": stack.pool.stats.extents_written,
        "degraded_reads": stack.pool.stats.degraded_reads,
        **{f"{family}.{name}": value
           for family, values in delta.items()
           for name, value in values.items()},
    }


def state_digest(stack: Stack, tables: tuple[str, ...] = ()) -> str:
    """sha256 over what the run left behind: the PLog index, every
    table's snapshot id and live files, and all deterministic counters."""
    sha = hashlib.sha256()
    for key, extent in stack.plogs.index.scan("addr/"):
        sha.update(f"{key}={extent};".encode())
    for name in tables:
        table = stack.lakehouse.table(name)
        sha.update(
            f"{name}@{table.current_snapshot_id()}:"
            f"{table.live_file_count()}:{table.total_bytes()};".encode()
        )
    sha.update(repr(sorted(
        (family, sorted(values.items()))
        for family, values in counters(stack.context).items()
    )).encode())
    sha.update(repr((stack.clock.now, stack.pool.used_bytes,
                     stack.pool.stats.extents_written,
                     stack.pool.stats.extents_read)).encode())
    return sha.hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (exact order statistic; 0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]
