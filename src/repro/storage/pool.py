"""Storage pools: redundant extent storage over groups of disks.

Section III (store layer): physical space is divided into slices organized
as logical units *across disks in various servers* for redundancy and load
balance.  A :class:`StoragePool` owns a set of same-tier disks and stores
extents under a :class:`~repro.storage.redundancy.RedundancyPolicy`,
placing each fragment on a distinct disk, emptiest first.

The pool-level features the paper lists (garbage collection,
reconstruction after disk failure, snapshots, clones, thin provisioning)
rest on one mapping from extent names to physical records, one record
(:class:`_Extent`) per stored payload.  A **clone** binds a second name
to the same record.  A **snapshot** is a frozen copy of the mapping, so
it keeps the payloads it saw whatever later happens to their names.
**Delete** unbinds a name (a WORM name refuses); a name stored again
before its old record is collected gets fresh fragment keys.  **Garbage
collection** frees, exactly once, every record that neither the active
mapping nor any snapshot references.  **Repair** and fault injection act
on a record's fragments once, however many names share it, and every
name bound to a record sees a re-homed fragment.  The redundancy
oracles (:meth:`StoragePool.missing_fragments`, ``scrub``,
``fragment_locations``) walk every referenced record, so a payload only
a snapshot still holds is checked and rebuilt too, under the key
``name@snapshot``.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.common import stats
from repro.common.clock import SimClock
from repro.errors import (
    CapacityError,
    CorruptionError,
    ObjectNotFoundError,
    StorageError,
    TornWriteError,
)
from repro.storage.disk import Disk, DiskProfile
from repro.storage.redundancy import RedundancyPolicy
from repro.storage.replication import Replication


@dataclass(eq=False)
class _Extent:
    """One stored payload, shared by every name and snapshot bound to it
    (compared by identity).  Fragment ``i`` lives on ``disk_ids[i]``
    under ``keys[i]``; ``stem`` is the key prefix, unique among
    uncollected records."""

    length: int
    disk_ids: list[str]
    keys: list[str]
    stem: str


@dataclass
class PoolStats:
    """Counters surfaced to benches and tests."""

    extents_written: int = 0
    extents_read: int = 0
    gc_reclaimed_bytes: int = 0
    repairs: int = 0
    repair_bytes: int = 0
    degraded_reads: int = 0
    rebuilds: int = 0
    rebuilt_fragments: int = 0


class StoragePool:
    """A named tier ("ssd"/"hdd") of disks with redundant extent storage."""

    def __init__(self, name: str, clock: SimClock,
                 policy: RedundancyPolicy | None = None) -> None:
        self.name = name
        self._clock = clock
        self.policy = policy if policy is not None else Replication(3)
        self._disks: dict[str, Disk] = {}
        #: the active mapping: extent name -> physical record
        self._names: dict[str, _Extent] = {}
        #: every uncollected record by its key stem, in placement order
        self._placed: dict[str, _Extent] = {}
        self._snapshots: dict[str, Mapping[str, _Extent]] = {}
        self._worm: set[str] = set()
        self._provisioned: dict[str, int] = {}
        self._torn_armings: list[int] = []
        #: per-extent simulated seconds of the most recent
        #: :meth:`store_batch`; only the durable prefix when it tore, since
        #: a torn commit raises instead of returning the sum
        self.last_batch_costs: list[float] = []
        self.stats = PoolStats()

    # --- membership -------------------------------------------------------

    def add_disk(self, disk: Disk) -> None:
        if disk.disk_id in self._disks:
            raise ValueError(f"disk {disk.disk_id!r} already in pool {self.name!r}")
        self._disks[disk.disk_id] = disk

    def add_disks(self, profile: DiskProfile, count: int,
                  prefix: str | None = None) -> list[Disk]:
        """Convenience: create and add ``count`` identical disks."""
        prefix = prefix if prefix is not None else f"{self.name}-{profile.name}"
        created = []
        start = len(self._disks)
        for index in range(count):
            disk = Disk(f"{prefix}-{start + index}", profile, self._clock)
            self.add_disk(disk)
            created.append(disk)
        return created

    @property
    def disks(self) -> list[Disk]:
        return list(self._disks.values())

    def _alive_disks(self) -> list[Disk]:
        return [d for d in self._disks.values() if not d.failed]

    def _emptiest(self, count: int, exclude: Collection[str] = ()) -> list[Disk]:
        """The ``count`` alive disks outside ``exclude`` with the fewest
        used bytes (ties in pool order); CapacityError when too few."""
        candidates = sorted(
            (d for d in self._alive_disks() if d.disk_id not in exclude),
            key=lambda d: d.used_bytes,
        )
        if len(candidates) < count:
            raise CapacityError(
                f"pool {self.name!r}: needs {count} healthy disks, "
                f"{len(candidates)} available"
            )
        return candidates[:count]

    # --- capacity accounting ----------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return sum(d.profile.capacity_bytes for d in self._alive_disks())

    @property
    def used_bytes(self) -> int:
        return sum(d.used_bytes for d in self._alive_disks())

    @property
    def logical_bytes(self) -> int:
        """User bytes stored (pre-redundancy) under live names."""
        return sum(extent.length for extent in self._names.values())

    # --- extent I/O ---------------------------------------------------------

    def store(self, extent_id: str, payload: bytes) -> float:
        """Write an extent under the pool's redundancy policy.

        Fragments land on distinct disks (fewest-used-bytes first).  Returns
        the simulated seconds of the slowest fragment write (fragments are
        written in parallel on different devices).
        """
        return self._place(extent_id, payload, self.policy.fragment(payload))

    def store_batch(self, items: list[tuple[str, bytes]],
                    fragments_per: list[list[bytes]] | None = None) -> float:
        """Group-commit several extents: one policy ``fragment_batch`` call
        (amortizing EC matrix setup), then per-extent placement.

        Returns the summed simulated seconds — the *serial* cost model,
        where extents land back-to-back on the device queue.  The
        per-extent costs behind that sum are exposed in
        :attr:`last_batch_costs`, so a caller still knows what a torn
        commit's durable prefix cost (the write wave in
        :mod:`repro.parallel.ingest` charges that for a torn partition).

        ``fragments_per`` lets callers pass in fragments they already
        encoded (e.g. per partition of a write wave); when omitted
        the policy encodes here.

        Acked-write semantics: when the commit tears mid-batch — a storage
        failure while placing member *i*, or an armed
        :meth:`arm_torn_commit` injection — the already-placed prefix
        stays durable and a :class:`TornWriteError` names both sides of
        the tear, so callers never mistake lost-in-flight extents for
        acknowledged ones.  The tearing member itself is rolled back by
        :meth:`_place` (all-or-nothing per extent), so no partial extent
        ever survives.  :attr:`last_batch_costs` then holds the durable
        prefix's costs.
        """
        if fragments_per is None:
            fragments_per = self.policy.fragment_batch(
                [payload for _, payload in items]
            )
        torn_after = self._torn_armings.pop(0) if self._torn_armings else None
        extent_costs: list[float] = []
        self.last_batch_costs = extent_costs
        for index, ((extent_id, payload), fragments) in enumerate(
            zip(items, fragments_per)
        ):
            if torn_after is not None and index >= torn_after:
                stats.fault_stats().torn_commits += 1
                raise TornWriteError(
                    f"pool {self.name!r}: group commit torn after "
                    f"{index} of {len(items)} extents",
                    durable=[eid for eid, _ in items[:index]],
                    lost=[eid for eid, _ in items[index:]],
                )
            try:
                extent_costs.append(self._place(extent_id, payload, fragments))
            except StorageError as exc:
                raise TornWriteError(
                    f"pool {self.name!r}: group commit member "
                    f"{extent_id!r} failed after {index} durable "
                    f"extents: {exc}",
                    durable=[eid for eid, _ in items[:index]],
                    lost=[eid for eid, _ in items[index:]],
                ) from exc
        return sum(extent_costs)

    def arm_torn_commit(self, after_extents: int) -> None:
        """Fault injection: tear an upcoming group commit.

        Armings queue FIFO: each :meth:`store_batch` call consumes one —
        persisting its first ``after_extents`` members, then failing with
        a :class:`TornWriteError` — whether or not the batch was long
        enough to tear.  Repeated arming targets successive commits,
        which is how tests tear a *specific partition* of a sharded
        group commit (each per-partition write wave is one
        ``store_batch`` call; see :mod:`repro.parallel.ingest`).
        """
        if after_extents < 0:
            raise ValueError(f"negative tear point {after_extents!r}")
        self._torn_armings.append(after_extents)

    def disarm_torn_commits(self) -> int:
        """Drop queued tear armings; returns how many were pending.

        Test harnesses disarm between scenarios so an arming meant for a
        short commit never leaks into an unrelated later one.
        """
        pending = len(self._torn_armings)
        self._torn_armings.clear()
        return pending

    def _place(self, extent_id: str, payload: bytes,
               fragments: list[bytes]) -> float:
        if extent_id in self._names:
            raise ValueError(f"extent {extent_id!r} already stored")
        chosen = self._emptiest(len(fragments))
        # a name stored again must not overwrite its uncollected record
        stem, generation = extent_id, 0
        while stem in self._placed:
            generation += 1
            stem = f"{extent_id}~{generation}"
        keys = [f"{stem}#{disk.disk_id}" for disk in chosen]
        slowest = 0.0
        written: list[Disk] = []
        try:
            for disk, key, fragment in zip(chosen, keys, fragments):
                slowest = max(slowest, disk.write(key, fragment))
                written.append(disk)
        except StorageError:
            # all-or-nothing: roll back fragments already written so a
            # failed store never leaks partial extents.  Only typed store
            # errors (disk failure, capacity) are swallowed into the
            # rollback; a logic error propagates untouched.
            for disk, key in zip(written, keys):
                disk.delete(key)
            raise
        extent = _Extent(len(payload), [d.disk_id for d in chosen], keys, stem)
        self._names[extent_id] = extent
        self._placed[stem] = extent
        self.stats.extents_written += 1
        return slowest

    def _read_fragments(self, extent: _Extent, first: bool = False
                        ) -> tuple[list[bytes | None], list[int], float]:
        """Read a record's fragments in order: (fragments, lost indices,
        slowest read's seconds).  A crashed disk, an erased fragment or a
        latent sector error (counted as detected here) reads as None and
        is lost.  ``first`` stops at the first healthy fragment (one
        replica suffices); the unread rest stay None, not lost."""
        fragments: list[bytes | None] = [None] * len(extent.keys)
        lost: list[int] = []
        slowest = 0.0
        for index, (disk_id, key) in enumerate(zip(extent.disk_ids, extent.keys)):
            disk = self._disks[disk_id]
            if disk.has_extent(key):
                try:
                    fragments[index], cost = disk.read(key)
                except CorruptionError:
                    stats.fault_stats().sector_errors_detected += 1
                else:
                    slowest = max(slowest, cost)
                    if first:
                        break
                    continue
            lost.append(index)
        return fragments, lost, slowest

    def fetch(self, extent_id: str) -> tuple[bytes, float]:
        """Read an extent back, reconstructing through the policy if disks
        failed.  Returns (payload, simulated seconds).

        Crashed disks, erased fragments and latent sector errors
        (:class:`SectorError` surfacing mid-read) all count as erasures;
        as long as no more than the policy's fault tolerance are gone the
        read degrades — reconstructs and returns byte-identical data —
        instead of failing, and the degradation is counted in
        :class:`PoolStats` and the global fault counters.
        """
        extent = self._lookup(extent_id)
        replicated = isinstance(self.policy, Replication)
        fragments, lost, slowest = self._read_fragments(extent, replicated)
        self.stats.extents_read += 1
        if lost:
            faults = stats.fault_stats()
            self.stats.degraded_reads += 1
            faults.degraded_reads += 1
        payload = self.policy.assemble(fragments, extent.length)
        if lost and not replicated:
            # the EC decode just reconstructed the erased fragments
            faults.fragments_reconstructed += len(lost)
            faults.reconstructed_bytes += extent.length
        return payload, slowest

    def delete(self, extent_id: str) -> None:
        """Remove a name from the active mapping; its record's space is
        reclaimed by :meth:`garbage_collect` once nothing references it."""
        self._lookup(extent_id)
        if extent_id in self._worm:
            raise PermissionError(
                f"extent {extent_id!r} is write-once-read-many"
            )
        del self._names[extent_id]

    # --- clones / WORM / thin provisioning ----------------------------------

    def clone(self, source_id: str, clone_id: str) -> None:
        """Copy-on-write clone: a second name bound to the source's
        physical record (Section III: the pools implement clone).

        Zero extra physical bytes; the shared fragments survive until
        *every* name and snapshot referencing them is gone and collected.
        """
        source = self._lookup(source_id)
        if clone_id in self._names:
            raise ValueError(f"extent {clone_id!r} already stored")
        self._names[clone_id] = source

    def mark_worm(self, extent_id: str) -> None:
        """Write-once-read-many: further deletes of this extent raise."""
        self._lookup(extent_id)
        self._worm.add(extent_id)

    def provision(self, volume_id: str, size_bytes: int) -> None:
        """Thin provisioning: reserve logical capacity without physical
        allocation.  Overcommit is allowed (that is the point); callers
        watch :meth:`overcommit_ratio`."""
        if size_bytes < 0:
            raise ValueError(f"negative provision size {size_bytes!r}")
        self._provisioned[volume_id] = size_bytes

    def unprovision(self, volume_id: str) -> None:
        self._provisioned.pop(volume_id, None)

    @property
    def provisioned_bytes(self) -> int:
        return sum(self._provisioned.values())

    @property
    def overcommit_ratio(self) -> float:
        """Provisioned / physical capacity (>1 means overcommitted)."""
        capacity = self.capacity_bytes
        return self.provisioned_bytes / capacity if capacity else 0.0

    def _lookup(self, extent_id: str) -> _Extent:
        extent = self._names.get(extent_id)
        if extent is None:
            raise ObjectNotFoundError(
                f"pool {self.name!r}: no extent {extent_id!r}"
            )
        return extent

    def has_extent(self, extent_id: str) -> bool:
        return extent_id in self._names

    def extent_ids(self) -> list[str]:
        return list(self._names)

    # --- snapshots ----------------------------------------------------------

    def snapshot(self, name: str) -> None:
        """Freeze the active mapping; the records it references survive
        GC, whatever later happens to their names."""
        if name in self._snapshots:
            raise ValueError(f"snapshot {name!r} already exists")
        self._snapshots[name] = MappingProxyType(dict(self._names))

    def drop_snapshot(self, name: str) -> None:
        if name not in self._snapshots:
            raise KeyError(f"no snapshot {name!r}")
        del self._snapshots[name]

    def snapshot_extents(self, name: str) -> set[str]:
        return set(self._snapshots[name])

    def _referenced(self) -> dict[_Extent, str]:
        """Each record the active mapping or a snapshot references, once,
        with the key the redundancy oracles report it under: its smallest
        live name, or, for a record only snapshots hold, ``name@snapshot``
        with the smallest snapshot and then the smallest name binding it."""
        keys: dict[_Extent, str] = {}
        for name in sorted(self._names):
            keys.setdefault(self._names[name], name)
        for snapshot, mapping in sorted(self._snapshots.items()):
            for name in sorted(mapping):
                keys.setdefault(mapping[name], f"{name}@{snapshot}")
        return keys

    def _record(self, key: str) -> _Extent:
        """The record under an oracle key: a live name or ``name@snapshot``."""
        extent = self._names.get(key)
        if extent is None:
            name, _, snapshot = key.rpartition("@")
            extent = self._snapshots.get(snapshot, {}).get(name)
        if extent is None:
            raise ObjectNotFoundError(f"pool {self.name!r}: no extent {key!r}")
        return extent

    # --- maintenance --------------------------------------------------------

    def garbage_collect(self) -> int:
        """Free every record that no name and no snapshot references;
        returns the bytes of physical space freed."""
        referenced = {extent for mapping in (self._names, *self._snapshots.values())
                      for extent in mapping.values()}
        freed = 0
        for stem, extent in list(self._placed.items()):
            if extent in referenced:
                continue
            for disk_id, key in zip(extent.disk_ids, extent.keys):
                disk = self._disks[disk_id]
                if not disk.failed:
                    freed += disk.delete(key)
            del self._placed[stem]
        self.stats.gc_reclaimed_bytes += freed
        return freed

    def repair_disk(self, disk_id: str) -> int:
        """Reconstruct every fragment the failed disk held onto healthy disks.

        The disk is recovered (replaced) first.  Returns fragments rebuilt.
        Raises UnrecoverableDataError when an extent lost more fragments
        than the policy tolerates.
        """
        disk = self._disks.get(disk_id)
        if disk is None:
            raise KeyError(f"pool {self.name!r}: unknown disk {disk_id!r}")
        if not disk.failed:
            raise ValueError(f"disk {disk_id!r} has not failed")
        disk.recover()
        rebuilt = 0
        for extent in self._referenced():
            if disk_id not in extent.disk_ids:
                continue
            index = extent.disk_ids.index(disk_id)
            fragments, _, _ = self._read_fragments(extent)
            fragment = self.policy.repair(fragments, index, extent.length)
            disk.write(extent.keys[index], fragment)
            rebuilt += 1
            self.stats.repair_bytes += len(fragment)
        self.stats.repairs += 1
        stats.fault_stats().disks_repaired += 1
        return rebuilt

    # --- fault injection -----------------------------------------------------

    def _fragment(self, extent_id: str, index: int) -> tuple[Disk, str]:
        """The disk and key of fragment ``index % width`` of the record
        under an oracle key (a live name or ``name@snapshot``)."""
        extent = self._record(extent_id)
        index %= len(extent.keys)
        return self._disks[extent.disk_ids[index]], extent.keys[index]

    def erase_fragment(self, extent_id: str, index: int) -> str:
        """Fault injection: silently destroy one stored fragment.

        Models an undetected shard erasure (bit rot, lost write): the
        fragment vanishes from its disk without any error being raised
        until a read or scrub notices.  Returns the disk id that lost it.
        """
        disk, key = self._fragment(extent_id, index)
        if not disk.failed:
            disk.delete(key)
        stats.fault_stats().fragments_erased += 1
        return disk.disk_id

    def corrupt_fragment(self, extent_id: str, index: int) -> str:
        """Fault injection: plant a latent sector error under one fragment.

        The fragment stays "present" until read (see
        :meth:`Disk.corrupt_extent`).  Returns the disk id affected.
        """
        disk, key = self._fragment(extent_id, index)
        if disk.corrupt_extent(key):
            stats.fault_stats().sector_errors_injected += 1
        return disk.disk_id

    # --- redundancy oracles (metadata-only, charge no simulated time) --------

    def fragment_locations(self) -> dict[str, list[str]]:
        """Disk ids holding each referenced record's fragments, one entry
        per physical record under its oracle key (see :meth:`_referenced`:
        clones collapse onto one name, and a record only a snapshot holds
        is ``name@snapshot``)."""
        return {key: list(extent.disk_ids)
                for extent, key in self._referenced().items()}

    def missing_fragments(self) -> dict[str, list[int]]:
        """Fragment indices currently lost per referenced record.

        Counts crashed disks, erased fragments and *flagged* latent
        sector errors (the oracle sees the flag; real readers only find
        out via :meth:`scrub` or a degraded read).  Records with a full
        fragment set are omitted; keys are :meth:`fragment_locations`'.
        """
        out: dict[str, list[int]] = {}
        for extent, extent_id in self._referenced().items():
            missing = []
            for index, (disk_id, key) in enumerate(zip(extent.disk_ids, extent.keys)):
                disk = self._disks[disk_id]
                if not disk.has_extent(key) or disk.is_corrupt(key):
                    missing.append(index)
            if missing:
                out[extent_id] = missing
        return out

    def redundancy_deficit(self) -> int:
        """Total fragments that must be rebuilt to restore full redundancy."""
        return sum(len(lost) for lost in self.missing_fragments().values())

    @property
    def fully_redundant(self) -> bool:
        """True when every referenced record — live or held only by a
        snapshot — has its full fragment set healthy."""
        return not self.missing_fragments()

    def scrub(self) -> dict[str, list[int]]:
        """Read every referenced fragment to surface latent errors
        (charging the read time), returning the same mapping
        :meth:`missing_fragments` would — but discovered by I/O rather
        than by oracle."""
        out: dict[str, list[int]] = {}
        for extent, extent_id in self._referenced().items():
            _, lost, _ = self._read_fragments(extent)
            if lost:
                out[extent_id] = lost
        return out

    def extent_length(self, extent_id: str) -> int:
        """Logical byte length of the record under an oracle key (for
        rebuild sizing)."""
        return self._record(extent_id).length

    def rebuild_extent(self, extent_id: str) -> int:
        """Reconstruct one extent's lost/corrupt fragments onto healthy disks.

        Unlike :meth:`repair_disk` (whole-disk replacement), this targets a
        single record, under any key :meth:`missing_fragments` reports
        (so a record only a snapshot holds rebuilds too): each lost fragment is rebuilt through the policy
        and re-placed — in place when its disk is alive (rewriting clears
        a latent error), otherwise onto the emptiest alive disk holding no
        fragment of this extent, in the shared record, so every name and
        snapshot bound to it sees the move.  Returns fragments rebuilt (0
        when healthy).  Raises :class:`UnrecoverableDataError` beyond the
        policy's tolerance, :class:`CapacityError` when no disk can take
        a re-placed fragment.
        """
        extent = self._record(extent_id)
        fragments, lost, _ = self._read_fragments(extent)
        if not lost:
            return 0
        faults = stats.fault_stats()
        for index in lost:
            fragment = self.policy.repair(fragments, index, extent.length)
            target = self._disks[extent.disk_ids[index]]
            if target.failed:
                target = self._emptiest(1, exclude=extent.disk_ids)[0]
            key = f"{extent.stem}#{target.disk_id}"
            target.write(key, fragment)
            extent.disk_ids[index] = target.disk_id
            extent.keys[index] = key
            fragments[index] = fragment
            self.stats.rebuilt_fragments += 1
            self.stats.repair_bytes += len(fragment)
            faults.fragments_reconstructed += 1
            faults.reconstructed_bytes += len(fragment)
        self.stats.rebuilds += 1
        return len(lost)
