"""Chaos harness: durability invariants under randomized fault plans.

Two drivers share the same invariants:

* a hypothesis stateful machine that interleaves acked writes (including
  torn group commits) with safe-bounded faults and continuously asserts
  every acknowledged payload reads back byte-identical;
* a seeded ingest → reunion → scan pipeline run under a generated
  :class:`FaultPlan`, pinned in CI on three fixed seeds.

"Safe-bounded" means no extent ever loses more fragments than the
policy tolerates — exactly the regime in which the paper's EC layer
promises zero data loss — so any read mismatch here is a real bug, not
an over-aggressive plan.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.common import stats
from repro.common.clock import SimClock
from repro.common.units import MiB
from repro.errors import TornWriteError
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.rebuild import RebuildQueue
from repro.storage.redundancy import erasure_coding_policy
from repro.stream.config import ConvertToTableConfig, TopicConfig
from repro.stream.producer import Producer
from repro.table.conversion import StreamTableConverter
from repro.table.pushdown import AggregateSpec
from repro.table.schema import PartitionSpec, Schema


def _safe_crash_candidates(pool: StoragePool) -> list[str]:
    alive = [d for d in pool.disks if not d.failed]
    if len(alive) - 1 < pool.policy.width:  # keep writes placeable
        return []
    tolerance = pool.policy.fault_tolerance
    missing = pool.missing_fragments()
    locations = pool.fragment_locations()
    out = []
    for disk in sorted(alive, key=lambda d: d.disk_id):
        ok = True
        for extent_id, disk_ids in locations.items():
            if disk.disk_id in disk_ids:
                lost = set(missing.get(extent_id, ()))
                lost.add(disk_ids.index(disk.disk_id))
                if len(lost) > tolerance:
                    ok = False
                    break
        if ok:
            out.append(disk.disk_id)
    return out


def _safe_fragment_targets(pool: StoragePool) -> list[tuple[str, int]]:
    tolerance = pool.policy.fault_tolerance
    missing = pool.missing_fragments()
    out = []
    for extent_id, disk_ids in pool.fragment_locations().items():
        lost = set(missing.get(extent_id, ()))
        if len(lost) + 1 > tolerance:
            continue
        for index in range(len(disk_ids)):
            if index not in lost:
                out.append((extent_id, index))
    return out


class DurabilityMachine(RuleBasedStateMachine):
    """No acked byte is ever lost while erasures stay within tolerance."""

    @initialize()
    def setup(self):
        stats.fault_stats().reset()
        self.clock = SimClock()
        self.pool = StoragePool(
            "chaos", self.clock, policy=erasure_coding_policy(3, 2))
        self.pool.add_disks(NVME_SSD_PROFILE, 7)
        self.bus = DataBus(self.clock, aggregate_small_io=False)
        self.rebuilder = RebuildQueue(
            self.pool, self.bus, self.clock, op_timeout_s=60.0)
        #: sharded group commits go through the same pool: four write
        #: waves per commit, serial pool mode for determinism
        self.plogs = PLogManager(
            self.pool, self.clock, num_shards=64, address_space=1 * MiB,
        )
        self.plogs.configure_write_parallelism(4, mode="serial")
        #: the model: extent -> payload for every ACKED write
        self.acked: dict[str, bytes] = {}
        self.injected = 0
        self._next_id = 0

    def _new_id(self) -> str:
        self._next_id += 1
        return f"x{self._next_id}"

    @rule(seed=st.integers(0, 255), size=st.integers(16, 2048))
    def store(self, seed, size):
        extent_id = self._new_id()
        payload = bytes([(seed + i) % 251 for i in range(size)])
        self.pool.store(extent_id, payload)
        self.acked[extent_id] = payload

    @rule(seed=st.integers(0, 255), tear_after=st.integers(0, 3))
    def torn_group_commit(self, seed, tear_after):
        items = [
            (self._new_id(), bytes([(seed + i) % 251]) * (64 + i))
            for i in range(3)
        ]
        self.pool.arm_torn_commit(tear_after)
        try:
            self.pool.store_batch(items)
        except TornWriteError as exc:
            self.injected += 1
            for extent_id, payload in items:
                if extent_id in exc.durable:
                    self.acked[extent_id] = payload
        else:
            self.acked.update(dict(items))

    @rule(seed=st.integers(0, 255),
          tears=st.lists(st.integers(0, 2), max_size=2))
    def sharded_group_commit(self, seed, tears):
        """A write_parallelism=4 PLog group commit under armed tears.

        Each armed tear hits whichever partition write wave pops it
        (FIFO); the commit must ack exactly the union of per-partition
        durable prefixes — an acked key always reads back, a lost key is
        never indexed.
        """
        items = [
            (self._new_id(), bytes([(seed + i) % 251]) * (48 + 7 * i))
            for i in range(6)
        ]
        for tear_after in tears:
            self.pool.arm_torn_commit(tear_after)
        try:
            addresses, _ = self.plogs.append_batch(items)
        except TornWriteError as exc:
            self.injected += 1
            durable = set(exc.durable)
            for key, payload in items:
                extent_id = self.plogs.index.get(f"addr/{key}")
                if key in durable:
                    assert extent_id is not None
                    self.acked[extent_id] = payload
                else:
                    assert extent_id is None, "lost key was indexed"
        else:
            for (key, payload), address in zip(items, addresses):
                self.acked[address.extent_id()] = payload
        # a commit with fewer waves than armings leaves leftovers; drop
        # them so they never tear an unrelated later rule's commit
        self.pool.disarm_torn_commits()

    @rule(pick=st.integers(0, 1 << 16))
    def crash_disk(self, pick):
        candidates = _safe_crash_candidates(self.pool)
        if not candidates:
            return
        disk_id = candidates[pick % len(candidates)]
        next(d for d in self.pool.disks if d.disk_id == disk_id).fail()
        stats.fault_stats().disk_crashes += 1
        self.injected += 1

    @rule(pick=st.integers(0, 1 << 16))
    def erase_fragment(self, pick):
        targets = _safe_fragment_targets(self.pool)
        if not targets:
            return
        extent_id, index = targets[pick % len(targets)]
        self.pool.erase_fragment(extent_id, index)
        self.injected += 1

    @rule(pick=st.integers(0, 1 << 16))
    def sector_error(self, pick):
        targets = _safe_fragment_targets(self.pool)
        if not targets:
            return
        extent_id, index = targets[pick % len(targets)]
        self.pool.corrupt_fragment(extent_id, index)
        self.injected += 1

    @rule()
    def heal_one_disk(self):
        failed = sorted(d.disk_id for d in self.pool.disks if d.failed)
        if failed:
            self.pool.repair_disk(failed[0])

    @rule()
    def background_rebuild(self):
        self.rebuilder.scan_and_enqueue()
        self.rebuilder.run(max_ops=4)

    @invariant()
    def acked_data_is_never_lost(self):
        if not hasattr(self, "acked"):
            return  # before @initialize
        for extent_id, expected in self.acked.items():
            data, _ = self.pool.fetch(extent_id)
            assert data == expected, f"acked extent {extent_id} corrupted"

    def teardown(self):
        if not hasattr(self, "acked"):
            return
        # heal everything, then the cluster must converge to full
        # redundancy and still serve every acked byte
        for disk in self.pool.disks:
            if disk.failed:
                self.pool.repair_disk(disk.disk_id)
        self.rebuilder.scan_and_enqueue()
        report = self.rebuilder.run()
        assert not report.gave_up and not report.unrecoverable
        assert self.pool.fully_redundant
        for extent_id, expected in self.acked.items():
            data, _ = self.pool.fetch(extent_id)
            assert data == expected
        if self.injected:
            snapshot = stats.fault_stats().snapshot()
            assert sum(snapshot.values()) > 0


DurabilityMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None)
TestDurability = DurabilityMachine.TestCase


# --- seeded end-to-end: ingest -> reunion -> scan under a fault plan --------


#: Storage-layer faults only: the stream/table write paths treat bus and
#: torn-commit failures as producer-visible errors (covered by the state
#: machine and the recovery tests); here every publish must be acked so
#: the end-to-end record count is exact.
_E2E_RATES = {
    FaultKind.TORN_COMMIT: 0.0,
    FaultKind.DROP_TRANSFERS: 0.0,
    FaultKind.SLOW_LINK: 0.0,
    FaultKind.PARTITION: 0.0,
    FaultKind.CRASH_DISK: 0.05,
    FaultKind.ERASE_FRAGMENT: 0.8,
    FaultKind.SECTOR_ERROR: 0.8,
}

SCHEMA_DICT = {"user": "string", "value": "int64", "ts": "timestamp"}


def run_chaos(seed: int, lakehouse, service, ec_pool, bus, clock) -> dict:
    """Publish -> convert -> scan with a seeded fault plan firing between
    steps; returns the run's summary for seed-pinning assertions."""
    stats.fault_stats().reset()
    config = TopicConfig(
        stream_num=2,
        convert_2_table=ConvertToTableConfig(
            enabled=True, table_schema=SCHEMA_DICT,
            table_path="tables/events", split_offset=50, split_time_s=1e9,
        ),
    )
    service.create_topic("events", config)
    table = lakehouse.create_table(
        "events", Schema.from_dict(SCHEMA_DICT), PartitionSpec(),
        path="tables/events",
    )
    converter = StreamTableConverter(service, "events", table, clock)
    plan = FaultPlan.generate(seed, duration_s=8.0, rates=_E2E_RATES)
    injector = FaultInjector(plan, clock, ec_pool, bus)
    rebuilder = RebuildQueue(ec_pool, bus, clock, op_timeout_s=60.0)

    producer = Producer(service, batch_size=10)
    published = 0
    for wave in range(8):
        for index in range(40):
            payload = json.dumps({
                "user": f"u{index % 3}", "value": published, "ts": published,
            }).encode()
            producer.send("events", payload, key=str(published))
            published += 1
        producer.flush()
        # seal open slices so the wave's records are durably in the pool
        # (and therefore exposed to the fault plan) before time advances
        service.flush_all()
        clock.advance(1.0)
        injector.tick()

    report = converter.run_cycle(force=True)
    assert report.converted == published

    counted = table.select(aggregate=AggregateSpec("COUNT"))
    assert counted == [{"COUNT": published}]

    # converge: fire remaining (healing) events, then rebuild to full
    injector.drain()
    rebuilder.scan_and_enqueue()
    rebuild_report = rebuilder.run()
    assert not rebuild_report.gave_up and not rebuild_report.unrecoverable
    assert ec_pool.fully_redundant
    assert table.select(aggregate=AggregateSpec("COUNT")) == counted

    snapshot = stats.fault_stats().snapshot()
    return {"trace": list(injector.trace), "stats": snapshot,
            "published": published}


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_chaos_pipeline_seeded(seed, lakehouse, service, ec_pool, bus, clock):
    summary = run_chaos(seed, lakehouse, service, ec_pool, bus, clock)
    assert summary["published"] == 320
    assert len(summary["trace"]) > 0
    # the plan injected real faults and the system recovered from them
    injected = (summary["stats"]["fragments_erased"]
                + summary["stats"]["sector_errors_injected"]
                + summary["stats"]["disk_crashes"])
    assert injected > 0
