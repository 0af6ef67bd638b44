"""StreamLake reproduction: data lake storage at Huawei (ICDE 2024).

A from-scratch Python simulation of StreamLake — stream/table storage
objects over a disaggregated store layer, lakehouse operations with
metadata acceleration, and the LakeBrain storage-side optimizer — plus the
Kafka/HDFS baselines and every workload the paper's evaluation uses.

Quickstart::

    from repro import build_streamlake

    lake = build_streamlake()
    lake.streaming.create_topic("events")
    producer = lake.producer()
    producer.send("events", b"hello world")
    producer.flush()

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
paper's tables and figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import SimClock
from repro.storage.bus import DataBus, TransportKind
from repro.storage.disk import HDD_PROFILE, NVME_SSD_PROFILE, DiskProfile
from repro.storage.kv import KVEngine
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.storage.scm import SCMCache
from repro.storage.tiering import TieringService
from repro.stream.consumer import Consumer
from repro.stream.producer import Producer
from repro.stream.service import MessageStreamingService
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.table import Lakehouse

__version__ = "1.0.0"


@dataclass
class StreamLake:
    """A fully wired StreamLake instance (Fig 2's three layers)."""

    clock: SimClock
    ssd_pool: StoragePool
    hdd_pool: StoragePool
    bus: DataBus
    plogs: PLogManager
    streaming: MessageStreamingService
    lakehouse: Lakehouse
    tiering: TieringService

    def producer(self, batch_size: int = 100) -> Producer:
        """A Kafka-compatible-style producer bound to this instance."""
        return Producer(self.streaming, batch_size=batch_size)

    def consumer(self) -> Consumer:
        """A consumer bound to this instance."""
        return Consumer(self.streaming)


def build_streamlake(ssd_disks: int = 6, hdd_disks: int = 6,
                     num_workers: int = 3,
                     data_shards: int = 4, parity_shards: int = 2,
                     scm_cache_bytes: int | None = None,
                     ssd_profile: DiskProfile = NVME_SSD_PROFILE,
                     hdd_profile: DiskProfile = HDD_PROFILE) -> StreamLake:
    """Assemble a StreamLake cluster on simulated hardware.

    Defaults mirror the paper's three-node evaluation cluster: NVMe SSD
    hot tier, SAS HDD capacity tier, RS(4+2) erasure coding, three stream
    workers, RDMA data bus.
    """
    clock = SimClock()
    ssd_pool = StoragePool(
        "ssd", clock, policy=erasure_coding_policy(data_shards, parity_shards)
    )
    ssd_pool.add_disks(ssd_profile, ssd_disks)
    hdd_pool = StoragePool(
        "hdd", clock, policy=erasure_coding_policy(data_shards, parity_shards)
    )
    hdd_pool.add_disks(hdd_profile, hdd_disks)
    bus = DataBus(clock, transport=TransportKind.RDMA)
    plogs = PLogManager(ssd_pool, clock)
    scm = SCMCache(clock, scm_cache_bytes) if scm_cache_bytes else None
    streaming = MessageStreamingService(
        plogs, bus, clock, num_workers=num_workers, scm_cache=scm,
        archive_pool=hdd_pool,
    )
    lakehouse = Lakehouse(
        hdd_pool, bus, clock,
        meta_store=AcceleratedMetadataStore(
            KVEngine("meta-cache", clock), hdd_pool, clock
        ),
    )
    tiering = TieringService(ssd_pool, hdd_pool, bus, clock)
    return StreamLake(
        clock=clock,
        ssd_pool=ssd_pool,
        hdd_pool=hdd_pool,
        bus=bus,
        plogs=plogs,
        streaming=streaming,
        lakehouse=lakehouse,
        tiering=tiering,
    )


__all__ = ["StreamLake", "build_streamlake", "__version__"]
