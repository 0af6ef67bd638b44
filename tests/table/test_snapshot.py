"""Unit tests for commits, snapshots, isolation and time travel."""

import pytest

from repro.errors import SnapshotNotFoundError
from repro.table.commit import CommitFile, DataFileMeta
from repro.table.snapshot import SnapshotLog


def meta(path, partition="p0", records=10, size=1000):
    return DataFileMeta(
        path=path, partition=partition, record_count=records,
        size_bytes=size, value_ranges={"x": (0, 9)},
    )


def commit_of(log, timestamp, operation="insert", added=(), removed=()):
    commit = CommitFile(
        commit_id=log.new_commit_id(),
        timestamp=timestamp,
        operation=operation,
        added=tuple(added),
        removed=tuple(removed),
    )
    return commit, log.record(commit)


def test_commit_encode_decode_roundtrip():
    commit = CommitFile(
        commit_id=3, timestamp=12.5, operation="insert",
        added=(meta("f1"), meta("f2", partition="p1")),
        removed=("old1",),
    )
    restored = CommitFile.decode(commit.encode())
    assert restored == commit


def test_commit_aggregates():
    commit = CommitFile(
        commit_id=0, timestamp=0, operation="insert",
        added=(meta("a", records=5, size=100), meta("b", records=7, size=200)),
    )
    assert commit.added_records == 12
    assert commit.added_bytes == 300


def test_snapshot_includes_history():
    log = SnapshotLog()
    _, first = commit_of(log, 1.0, added=[meta("f1")])
    _, second = commit_of(log, 2.0, added=[meta("f2")])
    assert first.commit_ids == (0,)
    assert second.commit_ids == (0, 1)
    assert second.summary["total_commits"] == 2


def test_live_files_replays_removals():
    log = SnapshotLog()
    commit_of(log, 1.0, added=[meta("f1"), meta("f2")])
    commit_of(log, 2.0, operation="delete", removed=["f1"])
    commit_of(log, 3.0, added=[meta("f3")])
    assert {m.path for m in log.live_files()} == {"f2", "f3"}


def test_snapshot_isolation_old_view_stable():
    """A reader holding an old snapshot sees a frozen file set."""
    log = SnapshotLog()
    _, old_snapshot = commit_of(log, 1.0, added=[meta("f1")])
    commit_of(log, 2.0, operation="delete", removed=["f1"])
    commit_of(log, 3.0, added=[meta("f2")])
    assert {m.path for m in log.live_files(old_snapshot)} == {"f1"}
    assert {m.path for m in log.live_files()} == {"f2"}


def test_time_travel_lookup():
    log = SnapshotLog()
    commit_of(log, 1.0, added=[meta("f1")])
    commit_of(log, 5.0, added=[meta("f2")])
    snapshot = log.snapshot_at(3.0)
    assert {m.path for m in log.live_files(snapshot)} == {"f1"}
    snapshot = log.snapshot_at(5.0)
    assert {m.path for m in log.live_files(snapshot)} == {"f1", "f2"}


def test_time_travel_before_first_raises():
    log = SnapshotLog()
    commit_of(log, 10.0, added=[meta("f1")])
    with pytest.raises(SnapshotNotFoundError):
        log.snapshot_at(5.0)


def test_snapshot_by_id():
    log = SnapshotLog()
    _, snapshot = commit_of(log, 1.0, added=[meta("f1")])
    assert log.snapshot_by_id(snapshot.snapshot_id) is snapshot
    with pytest.raises(SnapshotNotFoundError):
        log.snapshot_by_id(99)


def test_current_version_monotonic():
    log = SnapshotLog()
    assert log.current_version == -1
    commit_of(log, 1.0, added=[meta("f1")])
    assert log.current_version == 0
    commit_of(log, 2.0, added=[meta("f2")])
    assert log.current_version == 1


def test_duplicate_commit_id_raises():
    log = SnapshotLog()
    commit = CommitFile(commit_id=0, timestamp=0, operation="insert")
    log.record(commit)
    with pytest.raises(ValueError):
        log.record(commit)


def test_expire_drops_old_snapshots_and_reports_dead_files():
    log = SnapshotLog()
    commit_of(log, 1.0, added=[meta("f1")])
    commit_of(log, 2.0, operation="update", added=[meta("f1v2")],
              removed=["f1"])
    commit_of(log, 3.0, added=[meta("f2")])
    dropped, unreferenced = log.expire(older_than=2.5)
    assert dropped == 1
    # f1 was replaced and no retained snapshot references it... but its
    # commit is still referenced by the kept snapshots' history
    assert "f1v2" not in unreferenced
    assert {m.path for m in log.live_files()} == {"f1v2", "f2"}


def test_expire_keeps_time_travel_to_boundary():
    log = SnapshotLog()
    commit_of(log, 1.0, added=[meta("f1")])
    commit_of(log, 5.0, added=[meta("f2")])
    log.expire(older_than=5.0)
    snapshot = log.snapshot_at(5.0)
    assert {m.path for m in log.live_files(snapshot)} == {"f1", "f2"}


def test_empty_log_expire():
    log = SnapshotLog()
    assert log.expire(10.0) == (0, [])


def test_snapshots_listing_ordered():
    log = SnapshotLog()
    commit_of(log, 1.0, added=[meta("a")])
    commit_of(log, 2.0, added=[meta("b")])
    snapshots = log.snapshots()
    assert [s.snapshot_id for s in snapshots] == [0, 1]


def test_snapshot_summary_is_read_only():
    log = SnapshotLog()
    _, snapshot = commit_of(log, 1.0, added=[meta("a")])
    with pytest.raises(TypeError):
        snapshot.summary["added_files"] = 99
    with pytest.raises(TypeError):
        snapshot.summary.update(added_rows=0)
    assert snapshot.summary == {
        "added_files": 1, "removed_files": 0,
        "added_rows": 10, "total_commits": 1,
    }
    # a mutable copy is the caller's own
    copied = dict(snapshot.summary)
    copied["added_files"] = 99
    assert log.current.summary["added_files"] == 1
