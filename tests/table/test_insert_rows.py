"""``TableObject.insert(rows)`` is a row-to-columns step in front of
``insert_columns``.

:func:`~repro.table.colbuild.columns_from_rows` validates every row with
``Schema.validate_row`` and builds the typed columns that
``insert_columns`` writes through the one file builder.  Twin tables —
one fed row dicts, one fed those columns — must agree on every file's
path, partition, footer and body bytes, on the rows they scan back and
on the simulated cost.  A row ``validate_row`` rejects fails the whole
INSERT with the same error before any file is written.

The one change against the row-built files this replaced: an ``int`` in
a FLOAT64 column is a float from the moment it becomes column data, so
its footer statistic reads ``5.0`` and an identity partition on it is
``x=5.0`` (row-built files wrote ``5`` and ``x=5``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.common.clock import SimClock
from repro.errors import SchemaError
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.table.colbuild import columns_from_rows
from repro.table.columnar import FileFooter
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.schema import Column, ColumnType, PartitionSpec, Schema
from repro.table.table import Lakehouse

SCHEMA = Schema([
    Column("k", ColumnType.INT64),
    Column("i", ColumnType.INT64, nullable=True),
    Column("x", ColumnType.FLOAT64, nullable=True),
    Column("s", ColumnType.STRING, nullable=True),
    Column("b", ColumnType.BOOL, nullable=True),
    Column("ts", ColumnType.TIMESTAMP),
])

PARTITIONINGS = {
    "none": PartitionSpec(),
    "identity": PartitionSpec.by("s"),
    "day": PartitionSpec.by("day(ts)"),
    "hour": PartitionSpec.by("hour(ts)"),
    "two_fields": PartitionSpec.by("b", "day(ts)"),
    "identity_float": PartitionSpec.by("x"),
}


def make_table(partitioning: str, row_group_size: int = 10_000):
    """A table on its own clock, pool and caches."""
    clock = SimClock()
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    lake = Lakehouse(
        pool, DataBus(clock), clock,
        meta_store=AcceleratedMetadataStore(KVEngine("meta", clock), pool,
                                            clock),
        row_group_size=row_group_size,
        cache_hierarchy=CacheHierarchy(),
    )
    return lake.create_table("t", SCHEMA, PARTITIONINGS[partitioning])


def files(table) -> list[tuple]:
    """Per live file: path, partition, statistics, footer and body bytes."""
    out = []
    for meta in table.snapshots.live_files():
        payload, _ = table.pool.fetch(meta.path)
        footer = FileFooter.parse(payload)
        out.append((meta.path, meta.partition, meta.record_count,
                    meta.value_ranges, payload[:footer.footer_end],
                    payload[footer.footer_end:]))
    return out


_row = st.fixed_dictionaries(
    {
        "k": st.integers(-2**62, 2**62),
        "ts": st.integers(0, 3 * 86_400),
    },
    # a key left out is NULL, like an explicit None
    optional={
        "i": st.none() | st.integers(-3, 3),
        "x": st.none() | st.integers(-3, 3) | st.sampled_from([0.0, -0.0])
        | st.floats(allow_nan=False),
        "s": st.none() | st.text(alphabet='abé"', max_size=2),
        "b": st.none() | st.booleans(),
    },
)


@settings(max_examples=80, deadline=None)
@given(
    partitioning=st.sampled_from(sorted(PARTITIONINGS)),
    row_group_size=st.sampled_from([1, 3, 10_000]),
    batches=st.lists(st.lists(_row, min_size=1, max_size=12),
                     min_size=1, max_size=3),
)
def test_insert_rows_equals_insert_of_their_columns(partitioning,
                                                    row_group_size, batches):
    rows_table = make_table(partitioning, row_group_size)
    columns_table = make_table(partitioning, row_group_size)
    for rows in batches:
        got = rows_table.insert(rows)
        want = columns_table.insert_columns(*columns_from_rows(SCHEMA, rows))
        assert got == want
        assert rows_table.clock.now == columns_table.clock.now
    assert files(rows_table) == files(columns_table)
    assert sorted(rows_table.partitions()) == sorted(
        columns_table.partitions())
    assert rows_table.select() == columns_table.select()


GOOD = {"k": 1, "i": None, "x": 2.5, "s": "a", "b": True, "ts": 0}


@pytest.mark.parametrize("bad", [
    {**GOOD, "ghost": 1},                        # unknown column
    {key: GOOD[key] for key in GOOD if key != "k"},  # missing non-nullable
    {**GOOD, "ts": None},                        # None in a non-nullable
    {**GOOD, "i": True},                         # bool in a numeric column
    {**GOOD, "x": "2.5"},                        # str in a numeric column
    {**GOOD, "b": 1},                            # a non-bool in a BOOL
], ids=["unknown_column", "missing_non_nullable", "none_in_non_nullable",
        "bool_in_numeric", "str_in_numeric", "wrong_bool"])
@pytest.mark.parametrize("partitioning", ["none", "two_fields"])
def test_insert_raises_what_validate_row_raises(bad, partitioning):
    with pytest.raises(SchemaError) as want:
        SCHEMA.validate_row(bad)
    table = make_table(partitioning)
    other_day = {**GOOD, "b": False, "ts": 2 * 86_400}
    with pytest.raises(type(want.value)) as got:
        table.insert([GOOD, other_day, bad, GOOD])
    assert str(got.value) == str(want.value)
    assert table.pool.stats.extents_written == 0
    assert table.pool.used_bytes == 0
    assert table.snapshots.current_version == -1


def test_empty_insert_raises():
    table = make_table("none")
    with pytest.raises(ValueError, match="at least one row"):
        table.insert([])


def test_int_on_float_column_is_the_only_change():
    table = make_table("identity_float")
    table.insert([{**GOOD, "x": 5}, {**GOOD, "x": 2.5}, {**GOOD, "x": None}])
    assert sorted(table.partitions()) == [
        "x=2.5", "x=5.0", "x=__null__"]
    footers = [footer for *_, footer, _ in files(table)]
    assert any(b'"x":[5.0,5.0]' in footer for footer in footers)
    assert table.select() == [
        {**GOOD, "x": 2.5}, {**GOOD, "x": 5.0}, {**GOOD, "x": None}]
