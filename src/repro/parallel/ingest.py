"""Sharded ingest: every PLog group commit is one write wave.

The paper's write path (Fig 4) distributes slices across 4096 logical
shards by DHT hash precisely so appends land in parallel on independent
PLog units.  :func:`sharded_append_batch` is the only group commit
(:meth:`~repro.storage.plog.PLogManager.append_batch` always calls it);
at any width, one slice or many, it runs the same four steps:

1. **Reserve** — PLog addresses are reserved on the driver, in input
   order (:meth:`~repro.storage.plog.PLogManager._reserve`), so every
   width assigns bit-identical addresses.
2. **Partition** — keys bucket by PLog shard ownership via
   :class:`~repro.parallel.partition.WorkPartitioner` (rendezvous-hashed
   :meth:`~repro.storage.dht.ShardMap.owner_index_of_key`), the same
   placement scheme that buckets a sharded scan's files.  Width 1 is
   one partition holding the whole group.
3. **Encode + place** — each non-empty partition runs on a
   :class:`~repro.parallel.executor.ShardPool` worker inside the
   caller's own execution context (thread workers do not inherit the
   ``ContextVar``): the Reed-Solomon ``fragment_batch`` runs
   concurrently (NumPy releases the GIL) with ``counted=False``, then
   placement goes through one
   :meth:`~repro.storage.pool.StoragePool.store_batch` per partition
   under a lock — pool/disk metadata is shared mutable state, and disks
   already model fragment-level parallelism internally.  The only
   counter a partition writes is ``torn_commits``, under that lock, so
   no context is forked.
4. **Reconcile** — the driver charges the encode counters once
   (``count_fragment_batch``: one counted encode for the whole group),
   indexes the acked keys in input order through ``_index_acked``, and
   reports the **LPT makespan** of per-partition costs
   (:func:`repro.common.clock.lpt_makespan`) as the wave's simulated
   seconds; at width 1 that is the back-to-back sum.

Cost-model note: the wave does *not* advance any clock — sim time
propagates by return value, and disks charge their busy meters against
the pool's own clock during placement (additive and order-independent,
so meter totals do not depend on the width).

Acked-write semantics under tears: each partition is its own
``store_batch``, so a :class:`~repro.errors.TornWriteError` in partition
*k* leaves exactly *k*'s durable prefix acked while other partitions
commit (or tear) independently.  The global acked set is the union of
per-partition durable prefixes — never a cross-partition false ack —
and the raised ``TornWriteError`` names acked and lost keys in input
order; at width 1 that is the group's durable prefix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.clock import lpt_makespan
from repro.common.context import current_context, use_context
from repro.errors import TornWriteError
from repro.parallel.executor import ShardPool
from repro.parallel.partition import WorkPartitioner
from repro.storage.plog import validate_write_wave

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.plog import PLogAddress, PLogManager

__all__ = ["IngestWave", "sharded_append_batch"]

#: Partitioners are cached per worker count: building one hashes the
#: whole 4096-shard namespace, which would otherwise dominate small
#: group commits.
_PARTITIONERS: dict[int, WorkPartitioner] = {}
_PARTITIONERS_LOCK = threading.Lock()


def _partitioner(num_workers: int) -> WorkPartitioner:
    with _PARTITIONERS_LOCK:
        partitioner = _PARTITIONERS.get(num_workers)
        if partitioner is None:
            partitioner = _PARTITIONERS[num_workers] = WorkPartitioner(
                num_workers
            )
        return partitioner


@dataclass
class IngestWave:
    """Outcome of one group commit."""

    #: PLog addresses in input order (identical at every width)
    addresses: list["PLogAddress"]
    #: sim seconds of the wave: LPT makespan of per-partition costs
    sim_elapsed_s: float
    #: back-to-back sum of the per-extent costs, in input order
    sim_serial_s: float
    #: summed per-extent costs of each non-empty partition
    partition_costs: list[float]


def sharded_append_batch(
    plogs: "PLogManager",
    items: list[tuple[str, bytes]],
    num_workers: int,
    mode: str = "thread",
) -> IngestWave:
    """Group-commit ``items`` as one write wave ``num_workers`` wide.

    Addresses, index contents, acked keys and counters do not depend on
    ``num_workers``; only the simulated cost does — the LPT makespan of
    the per-partition costs over ``num_workers``.

    On a tear anywhere in the group, indexes the union of per-partition
    durable prefixes and raises :class:`TornWriteError` naming acked and
    lost keys (input order).  ``mode`` is a
    :class:`~repro.parallel.executor.ShardPool` mode other than
    ``process``: partitions mutate the live pool/PLog object graph in
    place.  Width and mode are checked before any address is reserved.
    """
    validate_write_wave(num_workers, mode)
    context = current_context()
    placements = plogs._reserve(items)
    buckets = _partitioner(num_workers).partition([key for key, _ in items])
    work = [positions for positions in buckets if positions]
    storage = plogs.pool
    place_lock = threading.Lock()

    def _run(positions: list[int]) -> list[float]:
        """One partition's write wave: encode, then place under the lock.

        Returns the sim cost of each durable extent, in partition order.
        A torn partition reports its durable prefix instead of raising —
        the driver reconciles the global acked set and raises once.
        """
        part = [placements[position] for position in positions]
        batch = [(address.extent_id(), payload)
                 for _, payload, address in part]
        with use_context(context):
            fragments = storage.policy.fragment_batch(
                [payload for _, payload in batch], counted=False
            )
            with place_lock:
                try:
                    storage.store_batch(batch, fragments_per=fragments)
                except TornWriteError:
                    pass  # last_batch_costs holds the durable prefix
                # read under the lock: another partition's wave rebinds it
                return storage.last_batch_costs

    with ShardPool(min(num_workers, len(work)) or 1, mode) as pool:
        durable_costs = pool.map(_run, work)
    # one counted encode for the whole group
    storage.policy.count_fragment_batch(len(items))

    extent_costs = {
        position: cost
        for positions, costs in zip(work, durable_costs)
        for position, cost in zip(positions, costs)
    }
    acked_positions = sorted(extent_costs)
    acked = [placements[position] for position in acked_positions]
    plogs._index_acked(acked)

    if len(acked) < len(items):
        raise TornWriteError(
            f"PLog group commit torn: {len(acked)} of "
            f"{len(items)} appends durable",
            durable=[key for key, _, __ in acked],
            lost=[key for position, (key, _) in enumerate(items)
                  if position not in extent_costs],
        )
    partition_costs = [sum(costs) for costs in durable_costs]
    return IngestWave(
        addresses=[address for *_, address in placements],
        sim_elapsed_s=lpt_makespan(partition_costs, num_workers),
        sim_serial_s=sum(extent_costs[position]
                         for position in acked_positions),
        partition_costs=partition_costs,
    )
