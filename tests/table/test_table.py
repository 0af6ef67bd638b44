"""Unit tests for TableObject / Lakehouse: the full lakehouse operations."""

import pytest

from repro.errors import (
    CommitConflictError,
    OutOfMemoryError,
    SchemaError,
    TableNotFoundError,
)
from repro.table.expr import And, Predicate
from repro.table.pushdown import AggregateSpec
from repro.table.schema import Column, ColumnType, PartitionSpec, Schema
from repro.table.table import QueryStats
from rowwise import select_rows


SCHEMA = Schema([
    Column("city", ColumnType.STRING),
    Column("day", ColumnType.INT64),
    Column("value", ColumnType.INT64),
])


def rows_for(count, cities=("bj", "sh"), days=(1, 2)):
    return [
        {
            "city": cities[index % len(cities)],
            "day": days[index % len(days)],
            "value": index,
        }
        for index in range(count)
    ]


@pytest.fixture
def table(lakehouse):
    return lakehouse.create_table("events", SCHEMA, PartitionSpec.by("city"))


def test_create_registers_catalog(lakehouse, table):
    assert lakehouse.catalog.exists("events")
    assert lakehouse.table("events") is table


def test_insert_select_roundtrip(table):
    rows = rows_for(20)
    table.insert(rows)
    out = table.select()
    assert sorted(r["value"] for r in out) == list(range(20))


def test_insert_empty_raises(table):
    with pytest.raises(ValueError):
        table.insert([])


def test_insert_validates_schema(table):
    with pytest.raises(SchemaError):
        table.insert([{"city": "bj", "day": "not-int", "value": 1}])


def test_partitioned_layout(table):
    table.insert(rows_for(10))
    partitions = table.partitions()
    assert set(partitions) == {"city=bj", "city=sh"}


def test_select_with_predicate_and_stats(table):
    table.insert(rows_for(40))
    stats = QueryStats()
    out = table.select(Predicate("city", "=", "bj"), stats=stats)
    assert all(r["city"] == "bj" for r in out)
    assert stats.files_skipped >= 1  # the sh partition pruned by file stats
    assert stats.rows_returned == len(out)


def test_select_aggregate_pushdown(table):
    table.insert(rows_for(40))
    out = table.select(
        aggregate=AggregateSpec("COUNT", group_by=("city",))
    )
    assert out == [{"city": "bj", "COUNT": 20}, {"city": "sh", "COUNT": 20}]


def test_select_projection(table):
    table.insert(rows_for(4))
    out = table.select(columns=["value"])
    assert all(set(r) == {"value"} for r in out)


def test_time_travel(table, clock):
    table.insert(rows_for(10))
    before = clock.now
    clock.advance(10)
    table.insert(rows_for(5))
    assert len(table.select()) == 15
    assert len(table.select(as_of=before)) == 10


def test_time_travel_after_delete_still_sees_old_rows(table, clock):
    table.insert(rows_for(10))
    before = clock.now
    clock.advance(1)
    table.delete(Predicate("city", "=", "bj"))
    assert len(table.select(as_of=before)) == 10  # old files retained
    assert len(table.select()) == 5


def test_delete_metadata_only_for_full_partitions(table):
    table.insert(rows_for(20))
    files_before = table.live_file_count()
    table.delete(Predicate("city", "=", "bj"))
    out = table.select()
    assert all(r["city"] == "sh" for r in out)
    # no rewritten files: partition fully covered -> pure metadata delete
    assert table.live_file_count() == files_before - 1
    last = table.snapshots.commit(table.snapshots.current.commit_ids[-1])
    assert last.operation == "delete"
    assert last.added == ()


def test_delete_partial_rewrites_survivors(table):
    table.insert(rows_for(20))
    table.delete(And(Predicate("city", "=", "bj"), Predicate("value", "<", 10)))
    out = table.select(Predicate("city", "=", "bj"))
    assert all(r["value"] >= 10 for r in out)


def test_delete_nothing_matches_no_commit(table):
    table.insert(rows_for(10))
    version = table.snapshots.current_version
    table.delete(Predicate("value", "=", 999))
    assert table.snapshots.current_version == version


def test_update_rows(table):
    table.insert(rows_for(10))
    table.update(Predicate("city", "=", "bj"), {"value": -1})
    for row in table.select(Predicate("city", "=", "bj")):
        assert row["value"] == -1
    for row in table.select(Predicate("city", "=", "sh")):
        assert row["value"] >= 0


def test_update_can_move_partitions(table):
    table.insert(rows_for(10))
    table.update(Predicate("city", "=", "bj"), {"city": "gz"})
    assert "city=gz" in table.partitions()
    assert table.select(Predicate("city", "=", "bj")) == []


def test_update_unknown_column_raises(table):
    table.insert(rows_for(4))
    with pytest.raises(SchemaError):
        table.update(Predicate("city", "=", "bj"), {"ghost": 1})


def test_occ_conflict_detected(table):
    """A commit based on a stale snapshot that removes replaced files
    raises CommitConflictError (the compaction-vs-writer conflict of
    Section VI-A)."""
    table.insert(rows_for(20))
    table.insert(rows_for(20))  # two small files in city=bj
    stale_version = table.begin()
    # concurrent writer replaces the bj files before compaction commits
    table.update(Predicate("city", "=", "bj"), {"value": 0})
    with pytest.raises(CommitConflictError):
        table.compact("city=bj", target_file_bytes=10**9,
                      expected_version=stale_version)


def test_compact_merges_small_files(table):
    for batch in range(5):
        table.insert(rows_for(4))
    bj_files = len(table.partitions()["city=bj"])
    assert bj_files == 5
    table.compact("city=bj", target_file_bytes=10**9)
    assert len(table.partitions()["city=bj"]) == 1
    assert len(table.select(Predicate("city", "=", "bj"))) == 10


def test_compact_single_file_noop(table):
    table.insert(rows_for(4))
    assert table.compact("city=bj", target_file_bytes=10**9) == 0.0


def test_expire_snapshots_reclaims_files(table, clock, ec_pool):
    table.insert(rows_for(10))
    clock.advance(10)
    table.update(Predicate("city", "=", "bj"), {"value": 1})
    clock.advance(10)
    dead_paths = [
        meta.path
        for meta in table.snapshots.live_files(
            table.snapshots.snapshot_by_id(0)
        )
    ]
    table.expire_snapshots(older_than=clock.now)
    live_paths = {m.path for m in table.snapshots.live_files()}
    for path in dead_paths:
        if path not in live_paths:
            assert not ec_pool.has_extent(path)


def test_memory_budget_oom_file_store(clock, ec_pool, bus):
    from repro.table.metacache import FileMetadataStore
    from repro.table.table import Lakehouse

    lake = Lakehouse(
        ec_pool, bus, clock, meta_store=FileMetadataStore(ec_pool, clock)
    )
    table = lake.create_table("t", SCHEMA, PartitionSpec.by("city"))
    for _ in range(20):
        table.insert(rows_for(4))
    with pytest.raises(OutOfMemoryError):
        table.select(memory_budget_bytes=1000)
    assert table.select(memory_budget_bytes=10**8) is not None


def test_memory_budget_accelerated_never_ooms(table):
    for _ in range(20):
        table.insert(rows_for(4))
    out = table.select(memory_budget_bytes=1000)
    assert len(out) == 80


def test_drop_soft_and_restore(lakehouse, table):
    table.insert(rows_for(6))
    lakehouse.drop_table_soft("events")
    with pytest.raises(TableNotFoundError):
        lakehouse.table("events")
    restored = lakehouse.restore_table("events", "events_v2")
    assert len(restored.select()) == 6


def test_drop_hard_removes_data(lakehouse, table, ec_pool):
    table.insert(rows_for(6))
    paths = [m.path for m in table.snapshots.live_files()]
    lakehouse.drop_table_hard("events")
    with pytest.raises(TableNotFoundError):
        lakehouse.table("events")
    for path in paths:
        assert not ec_pool.has_extent(path)


def test_drop_hard_removes_files_superseded_by_update(lakehouse, table, ec_pool):
    """A hard drop deletes every file a retained snapshot references —
    not only the current ones — so a table recreated under the same name
    writes its first files at the same paths and reads them fresh."""
    table.insert(rows_for(6))
    table.select()  # the first files now sit in the block/footer tiers
    table.update(Predicate("city", "=", "bj"), {"value": -1})
    lakehouse.drop_table_hard("events")
    assert not [e for e in ec_pool.extent_ids() if e.startswith("tables/events/")]
    again = lakehouse.create_table("events", SCHEMA, PartitionSpec.by("city"))
    again.insert(rows_for(4, days=(7,)))
    assert sorted(row["value"] for row in again.select()) == [0, 1, 2, 3]
    assert {row["day"] for row in again.select()} == {7}


def test_drop_hard_unknown_raises(lakehouse):
    with pytest.raises(TableNotFoundError):
        lakehouse.drop_table_hard("ghost")


def test_commit_protocol_cost_applied(clock, ec_pool, bus):
    from repro.table.table import Lakehouse

    lake = Lakehouse(ec_pool, bus, clock, commit_protocol_s=0.5)
    table = lake.create_table("t", SCHEMA)
    before = clock.now
    table.insert(rows_for(2))
    assert clock.now - before >= 0.5


def test_unpartitioned_table(lakehouse):
    table = lakehouse.create_table("flat", SCHEMA)
    table.insert(rows_for(10))
    assert set(table.partitions()) == {"all"}
    assert len(table.select(Predicate("value", ">=", 5))) == 5


def test_count_star_fast_path_matches_general_aggregate(table):
    table.insert(rows_for(40))
    predicate = Predicate("value", ">=", 10)
    fast = table.select(predicate=predicate, aggregate=AggregateSpec("COUNT"))
    # grouped COUNT goes through the general pushdown path; summing its
    # groups must agree with the vectorized count
    grouped = table.select(
        predicate=predicate,
        aggregate=AggregateSpec("COUNT", group_by=("city",)),
    )
    assert fast == [{"COUNT": 30}]
    assert sum(row["COUNT"] for row in grouped) == 30
    empty = table.select(
        predicate=Predicate("value", ">", 10_000),
        aggregate=AggregateSpec("COUNT"),
    )
    assert empty == [{"COUNT": 0}]


def test_query_stats_report_chunk_cache_traffic(lakehouse):
    # isolate from the process-wide tiers: chunk keys are content-
    # addressed, so identical rows another test inserted would already hit
    lakehouse.cache_hierarchy.clear()
    table = lakehouse.create_table(
        "events_cached", SCHEMA, PartitionSpec.by("city")
    )
    table.insert(rows_for(40))
    predicate = Predicate("value", ">=", 0)
    first = QueryStats()
    table.select(predicate=predicate, stats=first)
    assert first.chunk_cache_misses > 0
    second = QueryStats()
    table.select(predicate=predicate, stats=second)
    assert second.chunk_cache_misses == 0
    assert second.chunk_cache_hits > 0


# --- column_set: the same scan, stopped before rows ----------------------

COLUMN_SET_COUNTERS = (
    "files_total", "files_scanned", "files_skipped", "bytes_scanned",
    "bytes_skipped", "row_groups_skipped", "rows_scanned",
    "chunk_cache_hits", "chunk_cache_misses",
    "block_cache_hits", "block_cache_misses",
    "footer_cache_hits", "footer_cache_misses", "data_cost_s",
)


@pytest.fixture
def small_groups(clock, ec_pool, bus):
    """Ten-row groups and private caches, so pruning and every tier
    counter are exercised and no other test's entries can hit."""
    from repro.cache.hierarchy import CacheHierarchy
    from repro.table.table import Lakehouse

    lake = Lakehouse(
        ec_pool, bus, clock, row_group_size=10,
        cache_hierarchy=CacheHierarchy(),
    )
    table = lake.create_table("groups", SCHEMA, PartitionSpec.by("city"))
    table.insert(rows_for(60))
    table.insert(rows_for(40, days=(3,)))
    return table


def _cold(table):
    table.cache_hierarchy.clear()


def test_column_set_vectors_equal_select_rows(small_groups):
    predicate = Predicate("value", ">=", 25)
    columns = ["city", "value"]
    rows = small_groups.select(predicate, columns)
    relation = small_groups.column_set(predicate, columns)
    assert relation.num_rows == len(rows) > 0
    for name in columns:
        assert relation.columns[name].to_list() == [row[name] for row in rows]


def test_column_set_counters_equal_select(small_groups):
    predicate = Predicate("value", ">=", 25)
    # a projection disjoint from the predicate: a row scan looks a
    # predicate column up again when it also projects it, while the
    # vector kernels reuse the decoded mask column
    columns = ["city", "day"]
    _cold(small_groups)
    selected = QueryStats()
    small_groups.select(predicate, columns, stats=selected)
    _cold(small_groups)
    scanned = QueryStats()
    small_groups.column_set(predicate, columns, stats=scanned)
    assert selected.row_groups_skipped > 0
    assert selected.chunk_cache_misses > 0
    # the result is small I/O, buffered on the bus at no charge, so
    # select's data cost is the read wave alone — like column_set's
    assert selected.bytes_transferred > 0
    for counter in COLUMN_SET_COUNTERS:
        assert getattr(scanned, counter) == getattr(selected, counter), counter
    assert scanned.rows_returned == selected.rows_returned


def test_column_set_on_empty_table_is_typed_and_empty(lakehouse):
    from repro.table.join import ColumnSet
    from repro.table.vector import ColumnVector

    table = lakehouse.create_table("nothing", SCHEMA)
    stats = QueryStats()
    relation = table.column_set(columns=["city", "value"], stats=stats)
    assert isinstance(relation, ColumnSet)
    assert relation.num_rows == 0
    assert list(relation.columns) == ["city", "value"]
    for vector in relation.columns.values():
        assert isinstance(vector, ColumnVector) and len(vector) == 0
    assert stats.files_scanned == 0 and stats.data_cost_s == 0.0


# --- vectorized aggregation through SELECT -------------------------------


def test_select_multi_aggregate(table):
    table.insert(rows_for(40))
    rows = table.select(aggregate=[
        AggregateSpec("COUNT", group_by=("city",)),
        AggregateSpec("SUM", "value", group_by=("city",)),
        AggregateSpec("AVG", "value", group_by=("city",)),
    ])
    assert [row["city"] for row in rows] == ["bj", "sh"]
    for row in rows:
        assert row["COUNT(*)"] == 20
        assert row["AVG(value)"] == pytest.approx(row["SUM(value)"] / 20)
    assert sum(row["SUM(value)"] for row in rows) == sum(range(40))


def test_select_aggregate_matches_select_rows_oracle(table):
    table.insert(rows_for(60))
    table.insert(rows_for(30, days=(3,)))
    predicate = Predicate("value", ">=", 5)
    for aggregate in [
        AggregateSpec("COUNT"),
        AggregateSpec("SUM", "value", group_by=("city", "day")),
        AggregateSpec("MIN", "city"),
        [AggregateSpec("COUNT", group_by=("day",)),
         AggregateSpec("MAX", "value", group_by=("day",))],
    ]:
        assert table.select(predicate=predicate, aggregate=aggregate) == (
            select_rows(table, predicate=predicate, aggregate=aggregate)
        )


def test_select_rows_oracle_matches_plain_select(table):
    table.insert(rows_for(25))
    predicate = Predicate("city", "=", "bj")
    assert sorted(
        table.select(predicate=predicate), key=lambda r: r["value"]
    ) == sorted(
        select_rows(table, predicate=predicate), key=lambda r: r["value"]
    )


def test_aggregate_memory_working_set_is_per_group(clock, ec_pool, bus):
    """Grouped aggregates hold partials, not rows, on the compute side."""
    from repro.table.metacache import FileMetadataStore
    from repro.table.table import Lakehouse

    lake = Lakehouse(
        ec_pool, bus, clock, meta_store=FileMetadataStore(ec_pool, clock)
    )
    table = lake.create_table("t_agg", SCHEMA, PartitionSpec.by("city"))
    table.insert(rows_for(100))
    # 100 rows would need 6400 bytes; 2 groups need only 128
    with pytest.raises(OutOfMemoryError):
        table.select(memory_budget_bytes=2000)
    rows = table.select(
        aggregate=AggregateSpec("SUM", "value", group_by=("city",)),
        memory_budget_bytes=2000,
    )
    assert sum(row["SUM"] for row in rows) == sum(range(100))


def test_unpredicated_count_decodes_no_chunks(lakehouse):
    lakehouse.cache_hierarchy.clear()
    table = lakehouse.create_table(
        "events_footer", SCHEMA, PartitionSpec.by("city")
    )
    table.insert(rows_for(40))
    stats = QueryStats()
    out = table.select(
        aggregate=[AggregateSpec("COUNT"), AggregateSpec("MIN", "value"),
                   AggregateSpec("MAX", "value")],
        stats=stats,
    )
    assert out == [{"COUNT(*)": 40, "MIN(value)": 0, "MAX(value)": 39}]
    assert stats.chunk_cache_misses == 0 and stats.chunk_cache_hits == 0
