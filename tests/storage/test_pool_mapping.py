"""The pool's name -> physical-record mapping under clones, snapshots,
deletes, name reuse, GC and fragment faults.

A hypothesis state machine drives a small pool against a plain model:
``live`` maps each name to a *blob* (one stored payload instance; a
clone shares its source's blob) and every snapshot is a frozen copy of
``live``.  Three properties hold after every step:

* every live name fetches its blob's bytes, as long as erasures stay
  within the policy's tolerance;
* after GC the disks hold exactly the fragment bytes of the blobs that
  the live mapping or some snapshot references (minus fragments erased
  and not yet rebuilt);
* a second GC frees nothing.

Names come from a four-name alphabet, so deleting a name and storing it
again — while a clone or a snapshot still holds the old payload, or
before GC — happens all the time.  Fragment faults and rebuilds pick
among every record the pool's redundancy oracles report, a record only
a snapshot holds (keyed ``name@snapshot``) included.  Three named
examples replay the name-reuse faults a flag-per-name pool had; the
last one follows a snapshot-held record through a disk failure.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.common import stats
from repro.common.clock import SimClock
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.pool import StoragePool
from repro.storage.rebuild import RebuildQueue
from repro.storage.redundancy import erasure_coding_policy
from repro.storage.replication import Replication

NAMES = st.sampled_from(["a", "b", "c", "d"])
PICK = st.integers(0, 1 << 16)


class PoolMappingMachine(RuleBasedStateMachine):
    """Clones share, snapshots freeze, GC frees exactly the unreferenced."""

    def make_pool(self) -> StoragePool:
        # RS(2+1) on five disks: tolerance 1, and a reused name's new
        # fragments land partly on other disks than its old ones
        pool = StoragePool("map", SimClock(), policy=erasure_coding_policy(2, 1))
        pool.add_disks(NVME_SSD_PROFILE, 5)
        return pool

    @initialize()
    def setup(self):
        stats.fault_stats().reset()
        self.pool = self.make_pool()
        #: blob id -> (payload, fragment lengths by index)
        self.blobs: dict[int, tuple[bytes, list[int]]] = {}
        self.live: dict[str, int] = {}
        self.deleted: set[str] = set()
        self.snaps: dict[str, dict[str, int]] = {}
        #: blob id -> fragment indices erased and not rebuilt since
        self.erased: dict[int, set[int]] = {}

    # --- mapping rules -----------------------------------------------------

    def _store(self, name: str, seed: int, size: int) -> None:
        payload = bytes((seed + 7 * i) % 251 for i in range(size))
        self.pool.store(name, payload)
        blob = len(self.blobs)
        sizes = [len(f) for f in self.pool.policy.fragment(payload)]
        self.blobs[blob] = (payload, sizes)
        self.erased[blob] = set()
        self.live[name] = blob
        self.deleted.discard(name)

    @rule(name=NAMES, seed=st.integers(0, 250), size=st.integers(1, 300))
    def store(self, name, seed, size):
        if name in self.live:
            try:
                self.pool.store(name, b"dup")
            except ValueError:
                return
            raise AssertionError(f"live name {name!r} stored twice")
        self._store(name, seed, size)

    @precondition(lambda self: self.deleted)
    @rule(pick=PICK, seed=st.integers(0, 250), size=st.integers(1, 300))
    def store_deleted_name_again(self, pick, seed, size):
        self._store(sorted(self.deleted)[pick % len(self.deleted)], seed, size)

    @precondition(lambda self: self.live)
    @rule(pick=PICK, clone_name=NAMES)
    def clone(self, pick, clone_name):
        source = sorted(self.live)[pick % len(self.live)]
        if clone_name in self.live:
            return
        self.pool.clone(source, clone_name)
        self.live[clone_name] = self.live[source]
        self.deleted.discard(clone_name)

    @precondition(lambda self: self.live)
    @rule(pick=PICK)
    def delete(self, pick):
        name = sorted(self.live)[pick % len(self.live)]
        self.pool.delete(name)
        del self.live[name]
        self.deleted.add(name)

    @rule()
    def snapshot(self):
        name = f"s{len(self.snaps)}"
        while name in self.snaps:
            name += "'"
        self.pool.snapshot(name)
        self.snaps[name] = dict(self.live)
        assert self.pool.snapshot_extents(name) == set(self.live)

    @precondition(lambda self: self.snaps)
    @rule(pick=PICK)
    def drop_snapshot(self, pick):
        name = sorted(self.snaps)[pick % len(self.snaps)]
        self.pool.drop_snapshot(name)
        del self.snaps[name]

    @rule()
    def garbage_collect(self):
        self.pool.garbage_collect()
        referenced = set(self.live.values())
        for frozen in self.snaps.values():
            referenced |= set(frozen.values())
        expected = sum(
            size
            for blob in referenced
            for index, size in enumerate(self.blobs[blob][1])
            if index not in self.erased[blob]
        )
        assert self.pool.used_bytes == expected
        assert self.pool.garbage_collect() == 0

    # --- fragment faults and repair -------------------------------------------

    def _blob(self, key: str) -> int:
        """The blob under a pool oracle key: a live name, or
        ``name@snapshot`` for a record only snapshots hold."""
        if key in self.live:
            return self.live[key]
        name, _, snapshot = key.rpartition("@")
        return self.snaps[snapshot][name]

    def _safe_targets(self) -> list[tuple[str, int]]:
        """(name, index) pairs whose loss keeps the record recoverable."""
        tolerance = self.pool.policy.fault_tolerance
        missing = self.pool.missing_fragments()
        out = []
        for name, disk_ids in self.pool.fragment_locations().items():
            lost = set(missing.get(name, ()))
            if len(lost) < tolerance:
                out += [(name, i) for i in range(len(disk_ids)) if i not in lost]
        return out

    @rule(pick=PICK)
    def erase(self, pick):
        targets = self._safe_targets()
        if targets:
            name, index = targets[pick % len(targets)]
            self.pool.erase_fragment(name, index)
            self.erased[self._blob(name)].add(index)

    @rule(pick=PICK)
    def corrupt(self, pick):
        targets = self._safe_targets()
        if targets:
            name, index = targets[pick % len(targets)]
            self.pool.corrupt_fragment(name, index)

    @rule(pick=PICK)
    def rebuild(self, pick):
        keys = sorted(self.pool.fragment_locations())
        if keys:
            name = keys[pick % len(keys)]
            self.pool.rebuild_extent(name)
            self.erased[self._blob(name)].clear()
            assert name not in self.pool.missing_fragments()

    # --- invariants ------------------------------------------------------------

    @invariant()
    def live_names_read_their_payloads(self):
        if not hasattr(self, "live"):
            return  # before @initialize
        assert set(self.pool.extent_ids()) == set(self.live)
        for name, blob in self.live.items():
            assert self.pool.fetch(name)[0] == self.blobs[blob][0], name


PoolMappingMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
TestPoolMapping = PoolMappingMachine.TestCase


class ReplicatedPoolMappingMachine(PoolMappingMachine):
    """The same model under 2-way replication (the one-replica read)."""

    def make_pool(self) -> StoragePool:
        pool = StoragePool("map", SimClock(), policy=Replication(2))
        pool.add_disks(NVME_SSD_PROFILE, 4)
        return pool


ReplicatedPoolMappingMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None)
TestReplicatedPoolMapping = ReplicatedPoolMappingMachine.TestCase


# --- the name-reuse faults, as named examples ---------------------------------


def _machine() -> PoolMappingMachine:
    machine = PoolMappingMachine()
    machine.setup()
    return machine


def test_name_stored_again_before_gc_leaks_nothing():
    """Delete "a" and store it again before GC: the old payload's
    fragments must be collected, not orphaned under the reused name."""
    machine = _machine()
    machine.store("a", seed=1, size=300)
    machine.delete(pick=0)
    machine.store_deleted_name_again(pick=0, seed=2, size=300)
    machine.garbage_collect()
    machine.live_names_read_their_payloads()


def test_clone_keeps_its_payload_when_the_source_name_is_reused():
    """Clone "a" to "c", delete "a", store "a" again: "c" still reads
    the payload it was cloned from."""
    machine = _machine()
    machine.store("a", seed=1, size=120)
    machine.clone(pick=0, clone_name="c")
    machine.delete(pick=0)
    machine.store_deleted_name_again(pick=0, seed=2, size=120)
    machine.live_names_read_their_payloads()
    machine.garbage_collect()
    machine.live_names_read_their_payloads()


def test_snapshot_keeps_the_payload_it_froze():
    """Snapshot, delete "a", store "a" again: GC keeps both payloads, and
    dropping the snapshot frees the old one."""
    machine = _machine()
    machine.store("a", seed=1, size=200)
    machine.snapshot()
    machine.delete(pick=0)
    machine.store_deleted_name_again(pick=0, seed=2, size=200)
    machine.garbage_collect()
    machine.drop_snapshot(pick=0)
    machine.garbage_collect()
    machine.live_names_read_their_payloads()


def test_a_record_only_a_snapshot_holds_is_seen_and_rebuilt():
    """Store "a", snapshot it, delete "a", fail a disk holding it: every
    redundancy oracle sees the snapshot's record, keyed ``a@s``, the
    rebuild queue rebuilds it, and once it is beyond repair the queue
    reports it unrecoverable under that key."""
    clock = SimClock()
    pool = StoragePool("map", clock, policy=erasure_coding_policy(2, 1))
    pool.add_disks(NVME_SSD_PROFILE, 4)
    disks = {disk.disk_id: disk for disk in pool.disks}
    pool.store("a", bytes(range(200)))
    pool.snapshot("s")
    pool.delete("a")
    holders = pool.fragment_locations()["a@s"]
    assert pool.fully_redundant and len(holders) == 3
    disks[holders[0]].fail()
    assert not pool.fully_redundant
    assert pool.missing_fragments() == pool.scrub() == {"a@s": [0]}
    queue = RebuildQueue(pool, DataBus(clock), clock)
    assert queue.scan_and_enqueue() == 1
    report = queue.run()
    assert (report.rebuilt_extents, report.unrecoverable) == (1, [])
    assert pool.fully_redundant
    assert holders[0] not in pool.fragment_locations()["a@s"]
    for disk_id in pool.fragment_locations()["a@s"][:2]:
        disks[disk_id].fail()
    assert queue.scan_and_enqueue() == 1
    assert queue.run().unrecoverable == ["a@s"]
    pool.drop_snapshot("s")
    pool.garbage_collect()
    assert pool.fragment_locations() == pool.missing_fragments() == {}
