"""DELETE and UPDATE on decoded columns, pinned to the row-wise oracle.

:meth:`TableObject.delete` / ``update`` decode each overlapping file to
typed vectors, pick rows with the predicate's mask and rewrite through
``ColumnarFile.from_columns``.  :mod:`rowwise` keeps the row loops they
replaced.  Twin tables — one per path, each on its own clock, pool and
caches — run the same inserts and mutations, and must agree on every
snapshot's rows, file paths, partitions, footer statistics and payload
bytes, on the chunk tier's hits and misses, and on the simulated cost.

Both paths write through the one file builder, so nothing is exempt:
signed zeros and an ``int`` SET on a FLOAT64 column (a float from the
moment it becomes column data, footer ``5.0``) give the same bytes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.common.clock import SimClock
from repro.common.context import ExecutionContext
from repro.errors import SchemaError
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.table.columnar import ColumnarFile, FileFooter
from repro.table.expr import And, Or, Predicate
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.schema import Column, ColumnType, PartitionSpec, Schema
from repro.table.table import Lakehouse
from rowwise import delete_rows, scan_rows, update_rows

SCHEMA = Schema([
    Column("k", ColumnType.INT64),
    Column("i", ColumnType.INT64, nullable=True),
    Column("x", ColumnType.FLOAT64, nullable=True),
    Column("s", ColumnType.STRING, nullable=True),
    Column("b", ColumnType.BOOL, nullable=True),
    Column("ts", ColumnType.TIMESTAMP),
])

PARTITIONINGS = {
    "unpartitioned": PartitionSpec(),
    "identity_string": PartitionSpec.by("s"),
    "identity_bool_hour": PartitionSpec.by("b", "hour(ts)"),
    "hour": PartitionSpec.by("hour(ts)"),
}


def make_table(partitioning: str, row_group_size: int):
    """A table on its own clock, pool and caches (no shared counters)."""
    clock = SimClock()
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    lake = Lakehouse(
        pool, DataBus(clock), clock,
        meta_store=AcceleratedMetadataStore(KVEngine("meta", clock), pool,
                                            clock),
        row_group_size=row_group_size,
        cache_hierarchy=CacheHierarchy(context=ExecutionContext("private")),
    )
    return lake.create_table("t", SCHEMA, PARTITIONINGS[partitioning])


def snapshot_files(table) -> list[list[tuple]]:
    """Per snapshot, per live file: path, partition, record count, file
    and row-group statistics, footer and body bytes, scanned rows."""
    out = []
    for snapshot in table.snapshots.snapshots():
        files = []
        for meta in table.snapshots.live_files(snapshot):
            payload, _ = table.pool.fetch(meta.path)
            footer = FileFooter.parse(payload)
            files.append((
                meta.path, meta.partition, meta.record_count,
                meta.value_ranges, footer.group_summaries(),
                payload[:footer.footer_end], payload[footer.footer_end:],
                scan_rows(ColumnarFile.from_bytes(payload)),
            ))
        out.append(files)
    return out


FILE_FIELDS = ("path", "partition", "record count", "file statistics",
               "row-group statistics", "footer bytes", "body bytes", "rows")


def assert_same_files(got: list[list[tuple]],
                      want: list[list[tuple]]) -> None:
    """Field-by-field equality with a short message: a failing example
    is re-run many times while hypothesis shrinks it, and a full nested
    diff of every payload on each run is far too slow."""
    assert len(got) == len(want), "snapshot count"
    for snapshot, (got_files, want_files) in enumerate(zip(got, want)):
        assert len(got_files) == len(want_files), f"snapshot {snapshot}"
        for got_file, want_file in zip(got_files, want_files):
            for field, got_value, want_value in zip(FILE_FIELDS, got_file,
                                                    want_file):
                if got_value != want_value:
                    raise AssertionError(
                        f"snapshot {snapshot}, {want_file[0]}, {field}: "
                        f"{got_value!r:.300} != {want_value!r:.300}"
                    )


def outcome(run):
    """``(cost, None)``, or ``(None, exception type)`` for the
    incomparable-literal ``TypeError`` both paths raise."""
    try:
        return run(), None
    except TypeError as exc:
        return None, type(exc)


# --- strategies -----------------------------------------------------------

_floats = st.one_of(
    st.integers(-40, 40).map(lambda v: v / 4),
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e9, 1e9, allow_nan=False),
)

VALUES = {
    "k": st.integers(-5, 5),
    "i": st.integers(-3, 3) | st.integers(-2**62, 2**62),
    "x": _floats,
    # a small alphabet keeps strings low-cardinality (dictionary chunks,
    # several rows per identity partition) with a non-ASCII and a quote
    "s": st.text(alphabet='ab\u00e9"', max_size=2),
    "b": st.booleans(),
    "ts": st.integers(0, 3 * 3_600 - 1),
}
NULLABLE = {column.name for column in SCHEMA.columns if column.nullable}


def _value(name: str, *, null: bool = True, int_float: bool = False):
    strategy = VALUES[name]
    if int_float and name == "x":
        strategy = strategy | st.integers(-3, 3)
    if null and name in NULLABLE:
        strategy = st.none() | strategy
    return strategy


_row = st.fixed_dictionaries({name: _value(name) for name in SCHEMA.names})

_ORDERS = ["<", "<=", ">", ">="]
# ordering atoms come first and twice: they match part of a file, which
# is where rows are both kept and rewritten
_comparable = st.sampled_from(SCHEMA.names).flatmap(lambda name: st.one_of(
    st.builds(Predicate, st.just(name), st.sampled_from(_ORDERS),
              _value(name, null=False)),
    st.builds(Predicate, st.just(name), st.sampled_from(_ORDERS),
              _value(name, null=False)),
    st.builds(Predicate, st.just(name), st.just("="),
              _value(name, null=False)),
    st.builds(lambda values: Predicate(name, "IN", tuple(values)),
              st.lists(_value(name, null=False), min_size=1, max_size=3)),
    st.just(Predicate(name, "=", None)),
))

# ordering against a literal of another type: the vector compare raises,
# Predicate.mask falls back to row-wise matches(), which raises exactly
# where the oracle does (and not on all-NULL chunks)
_incomparable = st.one_of(
    st.builds(Predicate, st.sampled_from(["k", "i", "x", "ts", "b"]),
              st.sampled_from(["<", ">="]), st.text(max_size=2)),
    st.builds(Predicate, st.just("s"), st.sampled_from(["<", ">="]),
              st.integers(-3, 3)),
    st.builds(Predicate, st.sampled_from(SCHEMA.names),
              st.sampled_from(["<", ">="]), st.none()),
)

# only comparable atoms combine: AND/OR masks evaluate every child, so
# an incomparable child may raise where row-wise short-circuiting hides it
_predicate = st.one_of(
    _comparable,
    _comparable,
    st.builds(And, _comparable, _comparable),
    st.builds(Or, _comparable, _comparable),
    _incomparable,
)

def _set_values(names) -> st.SearchStrategy:
    return st.fixed_dictionaries(
        {name: _value(name, int_float=True) for name in sorted(names)}
    )


def _mutation(partitioning: str) -> st.SearchStrategy:
    """A DELETE or an UPDATE; half the UPDATEs SET the partition
    columns, so matched rows move partitions and files split."""
    keys = {field_.column
            for field_ in PARTITIONINGS[partitioning].fields}
    set_values = st.sets(
        st.sampled_from(SCHEMA.names), min_size=1, max_size=2
    ).flatmap(_set_values)
    if keys:
        set_values = set_values | _set_values(keys)
    return st.one_of(
        st.tuples(st.just("delete"), _predicate, st.just(None)),
        st.tuples(st.just("update"), _predicate, set_values),
    )


@settings(max_examples=150, deadline=None)
@given(
    partitioning=st.sampled_from(sorted(PARTITIONINGS)),
    row_group_size=st.sampled_from([1, 3, 10_000]),
    batches=st.lists(st.lists(_row, min_size=1, max_size=16),
                     min_size=1, max_size=3),
    data=st.data(),
)
def test_vector_mutations_match_rowwise_oracle(partitioning, row_group_size,
                                               batches, data):
    mutations = data.draw(
        st.lists(_mutation(partitioning), min_size=1, max_size=3)
    )
    vector = make_table(partitioning, row_group_size)
    oracle = make_table(partitioning, row_group_size)
    for rows in batches:
        vector.insert(rows)
        oracle.insert(rows)
    for operation, predicate, set_values in mutations:
        if operation == "delete":
            got = outcome(lambda: vector.delete(predicate))
            want = outcome(lambda: delete_rows(oracle, predicate))
        else:
            got = outcome(lambda: vector.update(predicate, set_values))
            want = outcome(lambda: update_rows(oracle, predicate, set_values))
        assert got == want
        vector_chunks = vector.cache_hierarchy.chunks.stats
        oracle_chunks = oracle.cache_hierarchy.chunks.stats
        assert vector_chunks is not oracle_chunks
        assert (vector_chunks.hits, vector_chunks.misses
                ) == (oracle_chunks.hits, oracle_chunks.misses)
        assert vector.clock.now == oracle.clock.now
        assert_same_files(snapshot_files(vector), snapshot_files(oracle))


@pytest.mark.parametrize("partitioning", ["hour", "identity_bool_hour"])
def test_update_splitting_a_file_matches_oracle(partitioning):
    """One file's rows fan out to partitions on both sides of its own
    key, its first row staying put: files must come out in key order,
    each keeping the rows' original order."""
    vector = make_table(partitioning, 2)
    oracle = make_table(partitioning, 2)
    rows = [{"k": k, "i": k, "x": k / 2, "s": "ab"[k % 2], "b": True,
             "ts": 3_600 + k} for k in range(9)]
    for table in (vector, oracle):
        table.insert(rows)
    for predicate, set_values in [
        (Predicate("k", "IN", (2, 5, 7)), {"ts": 10}),
        (Predicate("k", ">=", 4), {"ts": 2 * 3_600, "b": None}),
    ]:
        assert vector.update(predicate, set_values) == update_rows(
            oracle, predicate, set_values)
    assert sorted(vector.partitions()) == sorted(oracle.partitions())
    assert len(vector.partitions()) == 3
    assert_same_files(snapshot_files(vector), snapshot_files(oracle))


def test_int_set_on_float_column_is_the_named_difference():
    """An ``int`` on a FLOAT64 column is a float in every footer: the
    SET twins agree, and ``insert`` of such a row writes ``5.0`` too
    (a row-built file once wrote ``5``; no other byte changed)."""
    vector = make_table("unpartitioned", 10_000)
    oracle = make_table("unpartitioned", 10_000)
    rows = [{"k": k, "i": None, "x": 1.5, "s": "a", "b": True, "ts": 0}
            for k in range(4)]
    for table in (vector, oracle):
        table.insert(rows)
    vector.update(Predicate("k", "=", 1), {"x": 5})
    update_rows(oracle, Predicate("k", "=", 1), {"x": 5})
    assert_same_files(snapshot_files(vector), snapshot_files(oracle))
    (*_, footer, _, _), = snapshot_files(vector)[-1]
    assert b'"x":[1.5,5.0]' in footer
    inserted = make_table("unpartitioned", 10_000)
    inserted.insert([{**row, "x": 5 if row["k"] == 1 else 1.5}
                     for row in rows])
    (_, *want), = snapshot_files(vector)[-1]
    (_, *got), = snapshot_files(inserted)[-1]
    assert got == want  # all but the path: f0 here, f1 after the UPDATE


def test_string_update_never_writes_the_cached_vector():
    """A one-group file's decoded vectors are the chunk tier's own,
    read-only arrays, and UPDATE takes them as they are: a SET of a
    string new to the dictionary (which moves the NULL code up one) and
    a SET NULL build new vectors, and the twins agree row for row."""
    vector = make_table("unpartitioned", 10_000)
    oracle = make_table("unpartitioned", 10_000)
    rows = [{"k": k, "i": None, "x": None,
             "s": None if k % 3 == 0 else "ab"[k % 2], "b": None, "ts": k}
            for k in range(12)]
    for table in (vector, oracle):
        table.insert(rows)
        table.select()  # the chunk tier now holds the file's vectors
    (meta,) = vector.snapshots.live_files()
    data_file, _ = vector.cache_hierarchy.load_file(vector.pool, meta.path)
    ((cached, _, _),) = data_file.select_vectors(
        ["s"], cache=vector.cache_hierarchy.chunks)
    strings = cached["s"]
    before = (list(strings.dictionary), strings.codes.tobytes())
    assert not strings.codes.flags.writeable
    for predicate, set_values in [
        (Predicate("k", "<", 5), {"s": "new"}),
        (Predicate("s", "=", "a"), {"s": None}),
        (Predicate("k", ">=", 9), {"s": "b"}),
    ]:
        assert vector.update(predicate, set_values) == update_rows(
            oracle, predicate, set_values)
    assert (list(strings.dictionary), strings.codes.tobytes()) == before
    assert_same_files(snapshot_files(vector), snapshot_files(oracle))
    assert [row["s"] for row in sorted(vector.select(),
                                       key=lambda row: row["k"])] == [
        "new", "new", "new", "new", "new", "b", None, "b", None, "b",
        "b", "b",
    ]


# --- checks before any read ------------------------------------------------


@pytest.fixture
def loaded():
    table = make_table("identity_string", 10_000)
    table.insert([{"k": k, "i": k, "x": None, "s": "ab"[k % 2], "b": None,
                   "ts": 0} for k in range(6)])
    return table


def reads(table) -> tuple[int, int, int, int]:
    blocks = table.cache_hierarchy.blocks.stats
    chunks = table.cache_hierarchy.chunks.stats
    return (table.pool.stats.extents_read, blocks.hits + blocks.misses,
            chunks.hits + chunks.misses, table.snapshots.current_version)


@pytest.mark.parametrize("mutate", [
    lambda table: table.delete(Predicate("ghost", "=", 1)),
    lambda table: table.update(Predicate("ghost", "=", 1), {"k": 1}),
    lambda table: table.update(
        And(Predicate("k", ">=", 0), Predicate("ghost", "<", 2)), {"k": 1}),
])
def test_unknown_predicate_column_raises_like_select(loaded, mutate):
    with pytest.raises(SchemaError) as selected:
        loaded.select(Predicate("ghost", "=", 1))
    before = reads(loaded)
    with pytest.raises(SchemaError) as mutated:
        mutate(loaded)
    assert str(mutated.value) == str(selected.value)
    assert reads(loaded) == before


@pytest.mark.parametrize("literal", [999, 1])  # no row matches / one does
@pytest.mark.parametrize("set_values", [
    {"i": "x"}, {"k": None}, {"b": 1}, {"x": True}, {"k": 1, "s": 7},
])
def test_set_values_are_checked_before_any_read(loaded, literal, set_values):
    before = reads(loaded)
    with pytest.raises(SchemaError):
        loaded.update(Predicate("i", "=", literal), set_values)
    assert reads(loaded) == before


def test_empty_set_raises_and_commits_nothing(loaded):
    before = reads(loaded)
    with pytest.raises(ValueError):
        loaded.update(Predicate("k", ">=", 0), {})
    assert reads(loaded) == before


def test_mutations_never_build_rows(loaded, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("DELETE/UPDATE must not scan to row dicts")

    monkeypatch.setattr(ColumnarFile, "scan", refuse)
    loaded.update(Predicate("k", "<", 3), {"s": "c", "x": 2.5})
    loaded.delete(Predicate("k", "=", 4))
    monkeypatch.undo()
    rows = sorted(loaded.select(), key=lambda row: row["k"])
    assert [(row["k"], row["s"], row["x"]) for row in rows] == [
        (0, "c", 2.5), (1, "c", 2.5), (2, "c", 2.5), (3, "b", None),
        (5, "b", None),
    ]
    assert sorted(loaded.partitions()) == ["s=b", "s=c"]
