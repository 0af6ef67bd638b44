"""Persistence logs (PLogs): the append-only units behind every shard.

Fig 4(e,f): each of the 4096 logical shards has its storage space managed by
a PLog unit controlling a fixed amount of space (128 MB of addresses per
shard).  Appended payloads are redundantly persisted by the backing
:class:`~repro.storage.pool.StoragePool`, and a key-value index maps
logical keys to PLog addresses for fast record lookup.

When a PLog's 128 MB address space fills, the shard seals it and opens the
next generation — mirroring how OceanStor rotates PLog extents.

Appends arrive as group commits (:meth:`PLogManager.append_batch`), and
every group is one write wave of :mod:`repro.parallel.ingest`: addresses
are reserved here in input order, the wave encodes and places the
extents per shard-owner partition, and the acked keys are indexed here.
A width of 1 is a one-partition wave.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import stats
from repro.common.clock import SimClock
from repro.common.units import MiB
from repro.errors import ObjectNotFoundError
from repro.storage.dht import NUM_SHARDS, shard_of
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool

#: Address space per PLog unit (paper: "128 MB of addresses per shard").
PLOG_ADDRESS_SPACE = 128 * MiB


@dataclass(frozen=True)
class PLogAddress:
    """Stable address of an appended payload: (shard, generation, offset)."""

    shard: int
    generation: int
    offset: int

    def extent_id(self) -> str:
        return f"plog/{self.shard}/{self.generation}/{self.offset}"


class PLogUnit:
    """One generation of a shard's persistence log."""

    def __init__(self, shard: int, generation: int,
                 address_space: int = PLOG_ADDRESS_SPACE) -> None:
        self.shard = shard
        self.generation = generation
        self.address_space = address_space
        self.used = 0
        self.sealed = False

    @property
    def free(self) -> int:
        return self.address_space - self.used

    def reserve(self, size: int) -> int | None:
        """Reserve ``size`` bytes; returns the offset, or None if full."""
        if self.sealed or size > self.free:
            return None
        offset = self.used
        self.used += size
        return offset

    def seal(self) -> None:
        self.sealed = True


#: ShardPool modes a write wave may run in: its partitions mutate the live
#: pool and PLog index in place, so process pools are out.
WRITE_MODES = ("serial", "thread")


def validate_write_wave(workers: int, mode: str) -> None:
    """Raise ValueError unless ``workers``/``mode`` can run a write wave."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if mode not in WRITE_MODES:
        raise ValueError(
            f"write waves run in one of {WRITE_MODES}, got {mode!r}"
        )


class PLogManager:
    """Routes appends to per-shard PLogs over a redundant storage pool."""

    def __init__(self, pool: StoragePool, clock: SimClock,
                 num_shards: int = NUM_SHARDS,
                 address_space: int = PLOG_ADDRESS_SPACE,
                 index: KVEngine | None = None) -> None:
        self.pool = pool
        self._clock = clock
        self.num_shards = num_shards
        self.address_space = address_space
        self.index = index if index is not None else KVEngine("plog-index", clock)
        self._active: dict[int, PLogUnit] = {}
        self.appends = 0
        self.bytes_appended = 0
        #: group commits run as write waves this many workers wide
        self.write_parallelism = 1
        #: ShardPool mode of the write waves (one of :data:`WRITE_MODES`)
        self.write_mode = "thread"

    def configure_write_parallelism(self, workers: int,
                                    mode: str = "thread") -> None:
        """Run every group commit as a write wave ``workers`` wide, its
        partitions on a ``mode`` :class:`~repro.parallel.executor.ShardPool`
        (see :func:`repro.parallel.ingest.sharded_append_batch`)."""
        validate_write_wave(workers, mode)
        self.write_parallelism = workers
        self.write_mode = mode

    def _unit_for(self, shard: int, size: int) -> tuple[PLogUnit, int]:
        """Reserve ``size`` bytes (at most the address space) on ``shard``,
        sealing its active unit and opening the next generation when the
        payload does not fit."""
        unit = self._active.get(shard)
        if unit is not None:
            offset = unit.reserve(size)
            if offset is not None:
                return unit, offset
            unit.seal()
        unit = PLogUnit(shard, unit.generation + 1 if unit else 0,
                        self.address_space)
        self._active[shard] = unit
        return unit, unit.reserve(size)

    def _reserve(
        self, items: list[tuple[str, bytes]]
    ) -> list[tuple[str, bytes, PLogAddress]]:
        """Reserve an address per item, in input order.

        Reservation happens on the driver in input order, so addresses
        depend only on arrival order, never on the write wave's width.
        Every member is checked against the address space first: a
        rejected group reserves nothing and seals no unit.
        """
        for key, payload in items:
            if len(payload) > self.address_space:
                raise ValueError(
                    f"payload of {len(payload)} bytes for {key!r} exceeds "
                    f"PLog address space {self.address_space}"
                )
        placements: list[tuple[str, bytes, PLogAddress]] = []
        for key, payload in items:
            shard = shard_of(key, self.num_shards)
            unit, offset = self._unit_for(shard, len(payload))
            placements.append(
                (key, payload, PLogAddress(shard, unit.generation, offset))
            )
        return placements

    def _index_acked(
        self, placements: list[tuple[str, bytes, PLogAddress]]
    ) -> None:
        """Index acknowledged appends and charge the append counters."""
        ingest = stats.ingest_stats()
        index_put = self.index.put
        for key, payload, address in placements:
            index_put(f"addr/{key}", address.extent_id())
            self.bytes_appended += len(payload)
            ingest.plog_bytes_acked += len(payload)
        self.appends += len(placements)
        ingest.plog_appends_acked += len(placements)

    def append_batch(
        self, items: list[tuple[str, bytes]]
    ) -> tuple[list[PLogAddress], float]:
        """Group-commit payloads; returns (addresses in input order,
        simulated seconds).

        Each key's shard is chosen by its DHT hash so slices distribute
        evenly (Fig 4(d)), and the index records key -> address.  Every
        group, one slice or many, is one write wave
        (:func:`repro.parallel.ingest.sharded_append_batch`) at
        :attr:`write_parallelism`: the LPT makespan of its per-partition
        costs is the charge, which at width 1 is the back-to-back sum.

        Acked-write semantics: a group that tears (see
        :meth:`StoragePool.store_batch`) indexes only the durable
        members and raises :class:`TornWriteError` naming the acked and
        the lost keys; lost reservations become dead holes in their PLog
        units.
        """
        if not items:
            return [], 0.0
        # resolved per call: repro.parallel sits above the storage layer, and
        # code that wraps the module global sees every group commit
        from repro.parallel.ingest import sharded_append_batch

        wave = sharded_append_batch(
            self, items,
            num_workers=self.write_parallelism,
            mode=self.write_mode,
        )
        return wave.addresses, wave.sim_elapsed_s

    def read(self, address: PLogAddress) -> tuple[bytes, float]:
        """Read a payload back by address."""
        return self.pool.fetch(address.extent_id())

    def read_key(self, key: str) -> tuple[bytes, float]:
        """Index-assisted lookup: key -> address -> payload."""
        extent_id = self.index.get(f"addr/{key}")
        if extent_id is None:
            raise ObjectNotFoundError(f"no PLog entry for key {key!r}")
        return self.pool.fetch(extent_id)

    def delete_key(self, key: str) -> None:
        extent_id = self.index.get(f"addr/{key}")
        if extent_id is None:
            raise ObjectNotFoundError(f"no PLog entry for key {key!r}")
        self.pool.delete(extent_id)
        self.index.delete(f"addr/{key}")

    def shard_utilization(self) -> dict[int, float]:
        """Fraction of address space used per active shard (load balance)."""
        return {
            shard: unit.used / unit.address_space
            for shard, unit in self._active.items()
        }
