"""Metadata acceleration (Section V-B INSERT (b), Fig 9).

Metadata updates are mostly small I/O.  The accelerated path aggregates
them in a KV write cache:

* (b-1) each added data file produces a commit record written to the write
  cache as a key-value pair;
* (b-2) the latest snapshot is read into / updated in the cache;
* (b-3) the snapshot description in the catalog is overwritten;
* (c)  when the buffer fills, the **MetaFresher** asynchronously
  transforms the cached commits/snapshots into files in the
  ``table/metadata`` directory.

Two :class:`MetadataStore` implementations expose the *cost* difference
Fig 15(a) measures.  Logic is shared; what differs is where the small I/O
lands:

* :class:`FileMetadataStore` — every commit/snapshot is its own small file
  in the storage pool; reading table state must list and read each commit
  file, so latency grows linearly with partition/file count.
* :class:`AcceleratedMetadataStore` — commit records go to the KV cache
  (constant RDMA cost), flushed in large merged files by the MetaFresher;
  reads are constant-cost KV lookups plus at most a few merged files.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.common.clock import SimClock
from repro.common.stats import cache_stats
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.table.commit import CommitFile
from repro.table.snapshot import Snapshot

#: Default number of cached commit records before MetaFresher flushes.
FLUSH_THRESHOLD = 256


class MetadataStore(ABC):
    """Persistence + cost model for table metadata."""

    @abstractmethod
    def record_commit(self, table_path: str, commit: CommitFile,
                      snapshot: Snapshot) -> float:
        """Persist a commit + snapshot; returns simulated seconds."""

    @abstractmethod
    def read_state_cost(self, table_path: str, num_commits: int,
                        num_live_files: int) -> float:
        """Simulated seconds to assemble the current table state
        (snapshot list + commit manifests) before planning a query."""

    @abstractmethod
    def drop(self, table_path: str) -> float:
        """Remove all metadata for a table; returns simulated seconds."""


class FileMetadataStore(MetadataStore):
    """Baseline: file-based catalog, one small file per commit/snapshot."""

    def __init__(self, pool: StoragePool, clock: SimClock) -> None:
        self._pool = pool
        self._clock = clock
        self._commit_counts: dict[str, int] = {}

    def record_commit(self, table_path: str, commit: CommitFile,
                      snapshot: Snapshot) -> float:
        payload = commit.encode()
        cost = self._pool.store(
            f"{table_path}/metadata/commit-{commit.commit_id}", payload
        )
        # snapshot index file rewrite (grows with history)
        snapshot_blob = b"s" * (64 + 16 * len(snapshot.commit_ids))
        cost += self._pool.store(
            f"{table_path}/metadata/snapshot-{snapshot.snapshot_id}",
            snapshot_blob,
        )
        self._commit_counts[table_path] = (
            self._commit_counts.get(table_path, 0) + 1
        )
        self._clock.advance(cost)
        return cost

    def read_state_cost(self, table_path: str, num_commits: int,
                        num_live_files: int) -> float:
        # list + read the snapshot file, then every commit manifest: the
        # linear-in-partitions curve of Fig 15(a)
        per_file = self._pool.disks[0].profile.read_cost(4096)
        cost = per_file * (1 + num_commits)
        self._clock.advance(cost)
        return cost

    def drop(self, table_path: str) -> float:
        for extent_id in self._pool.extent_ids():
            if extent_id.startswith(f"{table_path}/metadata/"):
                self._pool.delete(extent_id)
        self._commit_counts.pop(table_path, None)
        return 0.0


class AcceleratedMetadataStore(MetadataStore):
    """StreamLake's metadata acceleration: KV write cache + MetaFresher."""

    def __init__(self, kv: KVEngine, pool: StoragePool, clock: SimClock,
                 flush_threshold: int = FLUSH_THRESHOLD) -> None:
        if flush_threshold < 1:
            raise ValueError("flush_threshold must be >= 1")
        self._kv = kv
        self._pool = pool
        self._clock = clock
        self.flush_threshold = flush_threshold
        self._pending: dict[str, list[CommitFile]] = {}
        self.flushes = 0
        self.flushed_commits = 0
        #: commit manifests served from the KV write cache (hits) vs from
        #: MetaFresher merged files on disk (misses) — counted in the
        #: current execution context, beside the chunk tier's
        self.read_stats = cache_stats("table.meta_cache")

    def record_commit(self, table_path: str, commit: CommitFile,
                      snapshot: Snapshot) -> float:
        cost = 0.0
        # (b-1) commit records become KV pairs in the write cache
        for meta in commit.added:
            cost += self._kv.put(
                f"meta/{table_path}/commit/{commit.commit_id}/{meta.path}",
                meta,
            )
        if not commit.added:
            cost += self._kv.put(
                f"meta/{table_path}/commit/{commit.commit_id}/_", commit
            )
        # (b-2) latest snapshot updated in the cache
        cost += self._kv.put(f"meta/{table_path}/snapshot", snapshot)
        # (b-3) catalog snapshot description overwritten
        cost += self._kv.put(
            f"meta/{table_path}/snapshot_desc", snapshot.summary
        )
        self._pending.setdefault(table_path, []).append(commit)
        if len(self._pending[table_path]) >= self.flush_threshold:
            cost += self.flush(table_path)
        self._clock.advance(cost)
        return cost

    def flush(self, table_path: str) -> float:
        """MetaFresher: turn cached commits into one merged metadata file."""
        pending = self._pending.pop(table_path, [])
        if not pending:
            return 0.0
        payload = b"".join(commit.encode() for commit in pending)
        first = pending[0].commit_id
        cost = self._pool.store(
            f"{table_path}/metadata/merged-{first}", payload
        )
        for commit in pending:
            self._kv.clear_prefix(f"meta/{table_path}/commit/{commit.commit_id}/")
        self.flushes += 1
        self.flushed_commits += len(pending)
        return cost

    def pending_commits(self, table_path: str) -> int:
        return len(self._pending.get(table_path, []))

    def read_state_cost(self, table_path: str, num_commits: int,
                        num_live_files: int) -> float:
        # catalog + snapshot from KV (constant), cached commits from KV
        # (constant per cached entry), merged files amortized: the flat
        # curve of Fig 15(a)
        kv_cost = 3 * 8e-6
        cached = min(num_commits, self.pending_commits(table_path))
        merged_files = max(0, num_commits - self.pending_commits(table_path))
        merged_reads = -(-merged_files // self.flush_threshold) if merged_files else 0
        self.read_stats.record_hit(cached)
        self.read_stats.record_miss(merged_files)
        # each merged file holds ~flush_threshold commit manifests
        merged_bytes = max(4096, 512 * self.flush_threshold)
        per_file = self._pool.disks[0].profile.read_cost(merged_bytes)
        cost = kv_cost + merged_reads * per_file
        self._clock.advance(cost)
        return cost

    def drop(self, table_path: str) -> float:
        """Drop table hard: clear cache first, then disk (Section V-B)."""
        self._kv.clear_prefix(f"meta/{table_path}/")
        self._pending.pop(table_path, None)
        for extent_id in self._pool.extent_ids():
            if extent_id.startswith(f"{table_path}/metadata/"):
                self._pool.delete(extent_id)
        return 0.0
