"""Snapshots: indexes over valid commits (Fig 5(c)).

Snapshots provide snapshot-level isolation for optimistic concurrency
control ("multiple readers and one writer ... without locks"), monitor
commit expiration, and power time travel: a timestamp looks up the latest
snapshot at or before it, whose commit list reconstructs the table state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.frozen import FrozenDict
from repro.errors import SnapshotNotFoundError
from repro.table.commit import CommitFile, DataFileMeta


@dataclass(frozen=True)
class Snapshot:
    """Immutable view: the commit ids valid at a point in time."""

    snapshot_id: int
    timestamp: float
    commit_ids: tuple[int, ...]
    #: operation log summary (added/removed files and rows), read-only
    summary: FrozenDict = field(default_factory=FrozenDict)


class SnapshotLog:
    """Ordered history of snapshots plus the commits they reference."""

    def __init__(self) -> None:
        self._snapshots: list[Snapshot] = []
        self._commits: dict[int, CommitFile] = {}
        self._reclaimed: set[str] = set()
        self._next_snapshot_id = 0
        self._next_commit_id = 0

    # --- write side ---------------------------------------------------------

    def new_commit_id(self) -> int:
        commit_id = self._next_commit_id
        self._next_commit_id += 1
        return commit_id

    def record(self, commit: CommitFile) -> Snapshot:
        """Append a commit and produce the snapshot that includes it."""
        if commit.commit_id in self._commits:
            raise ValueError(f"commit {commit.commit_id} already recorded")
        self._commits[commit.commit_id] = commit
        previous = self._snapshots[-1].commit_ids if self._snapshots else ()
        snapshot = Snapshot(
            snapshot_id=self._next_snapshot_id,
            timestamp=commit.timestamp,
            commit_ids=previous + (commit.commit_id,),
            summary=FrozenDict({
                "added_files": len(commit.added),
                "removed_files": len(commit.removed),
                "added_rows": commit.added_records,
                "total_commits": len(previous) + 1,
            }),
        )
        self._next_snapshot_id += 1
        self._snapshots.append(snapshot)
        return snapshot

    # --- read side ------------------------------------------------------------

    @property
    def current(self) -> Snapshot | None:
        return self._snapshots[-1] if self._snapshots else None

    @property
    def current_version(self) -> int:
        return self._snapshots[-1].snapshot_id if self._snapshots else -1

    def snapshot_at(self, timestamp: float) -> Snapshot:
        """Time travel: the latest snapshot with ts <= ``timestamp``."""
        candidate: Snapshot | None = None
        for snapshot in self._snapshots:
            if snapshot.timestamp <= timestamp:
                candidate = snapshot
            else:
                break
        if candidate is None:
            raise SnapshotNotFoundError(
                f"no snapshot at or before timestamp {timestamp}"
            )
        return candidate

    def snapshot_by_id(self, snapshot_id: int) -> Snapshot:
        for snapshot in self._snapshots:
            if snapshot.snapshot_id == snapshot_id:
                return snapshot
        raise SnapshotNotFoundError(f"no snapshot with id {snapshot_id}")

    def commit(self, commit_id: int) -> CommitFile:
        return self._commits[commit_id]

    def live_files(self, snapshot: Snapshot | None = None) -> list[DataFileMeta]:
        """Data files visible in ``snapshot`` (default: current).

        Replays the commit list: files added then later removed are dead.
        """
        snapshot = snapshot if snapshot is not None else self.current
        if snapshot is None:
            return []
        alive: dict[str, DataFileMeta] = {}
        for commit_id in snapshot.commit_ids:
            commit = self._commits[commit_id]
            for path in commit.removed:
                alive.pop(path, None)
            for meta in commit.added:
                alive[meta.path] = meta
        return list(alive.values())

    def snapshots(self) -> list[Snapshot]:
        return list(self._snapshots)

    def referenced_paths(self) -> list[str]:
        """Data file paths live in any retained snapshot, each once."""
        paths: dict[str, None] = {}
        for snapshot in self._snapshots:
            paths.update(dict.fromkeys(m.path for m in self.live_files(snapshot)))
        return list(paths)

    # --- expiration ---------------------------------------------------------------

    def expire(self, older_than: float) -> tuple[int, list[str]]:
        """Drop snapshots older than ``older_than`` (keeping the newest one
        at or before it so time travel to ``older_than`` still works).

        Returns (snapshots dropped, data file paths now unreferenced):
        files that are not live in *any* retained snapshot.  The caller
        garbage-collects those files from storage; each path is reported
        at most once across repeated expirations.
        """
        if not self._snapshots:
            return 0, []
        keep_from = 0
        for index, snapshot in enumerate(self._snapshots):
            if snapshot.timestamp <= older_than:
                keep_from = index
        dropped = self._snapshots[:keep_from]
        self._snapshots = self._snapshots[keep_from:]
        retained_live = set(self.referenced_paths())
        all_added = {
            meta.path
            for commit in self._commits.values()
            for meta in commit.added
        }
        reclaimable = all_added - retained_live - self._reclaimed
        self._reclaimed |= reclaimable
        return len(dropped), sorted(reclaimable)
