"""Vectorized scan engine: equivalence with the row-wise oracle + cache.

The load-bearing property: on randomized schemas, rows and predicate
trees, ``ColumnarFile.scan`` (NumPy masks + late materialization) returns
results identical — same objects, same Python types, same order — to
``rowwise.scan_rows`` (the seed's row-at-a-time path), and
``count`` equals the oracle's matching-row count.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import default_hierarchy
from repro.cache.tier import CacheTier
from repro.common.context import ExecutionContext, use_context
from repro.common.stats import cache_stats
from repro.common.units import MiB
from repro.table.columnar import ColumnarFile
from repro.table.expr import And, Or, Predicate
from repro.table.schema import Column, ColumnType, Schema
from rowwise import file_from_rows, scan_rows



def chunk_tier(capacity: int = 128 * MiB) -> CacheTier:
    """A private chunk tier, so no other test's entries can hit."""
    return CacheTier("table.chunk_cache", capacity)


COLUMN_POOL = [
    Column("i", ColumnType.INT64, nullable=True),
    Column("f", ColumnType.FLOAT64, nullable=True),
    Column("s", ColumnType.STRING, nullable=True),
    Column("b", ColumnType.BOOL, nullable=True),
    Column("t", ColumnType.TIMESTAMP, nullable=True),
    # one column per numeric chunk layout the codec can pick: whole days
    # from a large base (strided planes) and two-decimal prices (decimal
    # planes); "f" above draws arbitrary doubles, i.e. the raw layout
    Column("d", ColumnType.TIMESTAMP, nullable=True),
    Column("p", ColumnType.FLOAT64, nullable=True),
]

_DAY = 86_400
_EPOCH = 1_700_000_000 - 1_700_000_000 % _DAY

_VALUE_STRATEGIES = {
    "i": st.one_of(st.none(), st.integers(-1000, 1000)),
    "f": st.one_of(
        st.none(),
        st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    ),
    "s": st.one_of(st.none(), st.sampled_from(["ab", "cd", "ef", "and", "x <= y"])),
    "b": st.one_of(st.none(), st.booleans()),
    "t": st.one_of(st.none(), st.integers(0, 10_000)),
    "d": st.one_of(
        st.none(), st.integers(0, 400).map(lambda n: _EPOCH + n * _DAY)
    ),
    "p": st.one_of(
        st.none(), st.integers(-20_000, 20_000).map(lambda n: n / 100)
    ),
}

# literals matched to each column's type, plus = / IN against wrong types
# (equality never raises, so the fallback stays deterministic)
_TYPED_LITERALS = {
    "i": st.integers(-1000, 1000),
    "f": st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    "s": st.sampled_from(["ab", "cd", "zz", ""]),
    "b": st.booleans(),
    "t": st.integers(0, 10_000),
    "d": st.integers(-1, 401).map(lambda n: _EPOCH + n * _DAY),
    "p": st.integers(-20_001, 20_001).map(lambda n: n / 100),
}


@st.composite
def _atoms(draw, names):
    column = draw(st.sampled_from(names))
    op = draw(st.sampled_from(["<=", ">=", "<", ">", "=", "IN"]))
    if op in ("=", "IN"):
        # sometimes a literal of the wrong type: exercises the
        # incomparable-equality path (always False, never raising)
        literal_strategy = st.one_of(
            _TYPED_LITERALS[column], st.sampled_from(["mismatch", 123456])
        )
    else:
        literal_strategy = _TYPED_LITERALS[column]
    if op == "IN":
        literal = tuple(draw(st.lists(literal_strategy, min_size=0, max_size=4)))
    else:
        literal = draw(literal_strategy)
    return Predicate(column, op, literal)


def _expressions(names):
    return st.recursive(
        _atoms(names),
        lambda children: st.one_of(
            st.lists(children, min_size=0, max_size=3).map(lambda c: And(*c)),
            st.lists(children, min_size=0, max_size=3).map(lambda c: Or(*c)),
        ),
        max_leaves=6,
    )


@st.composite
def _tables(draw):
    columns = draw(
        st.lists(st.sampled_from(COLUMN_POOL), min_size=1, max_size=7,
                 unique_by=lambda c: c.name)
    )
    schema = Schema(columns)
    rows = draw(
        st.lists(
            st.fixed_dictionaries(
                {c.name: _VALUE_STRATEGIES[c.name] for c in columns}
            ),
            min_size=0,
            max_size=60,
        )
    )
    group_size = draw(st.integers(1, 20))
    return schema, rows, group_size


@settings(max_examples=150, deadline=None)
@given(table=_tables(), data=st.data())
def test_scan_matches_row_wise_oracle(table, data):
    schema, rows, group_size = table
    data_file = file_from_rows(schema, rows, row_group_size=group_size)
    predicate = data.draw(_expressions(schema.names))
    projection = data.draw(
        st.lists(st.sampled_from(schema.names), max_size=len(schema.names),
                 unique=True)
    )
    cache = chunk_tier(8)
    expected = scan_rows(data_file, predicate, projection)
    actual = data_file.scan(predicate, projection, cache=cache)
    # repr-compare too: catches NumPy scalars leaking instead of int/float
    assert actual == expected
    assert repr(actual) == repr(expected)


@settings(max_examples=60, deadline=None)
@given(table=_tables())
def test_full_scan_without_predicate(table):
    schema, rows, group_size = table
    data_file = file_from_rows(schema, rows, row_group_size=group_size)
    assert data_file.scan(cache=chunk_tier()) == scan_rows(data_file)


def _int_string_file():
    schema = Schema([
        Column("k", ColumnType.INT64),
        Column("s", ColumnType.STRING, nullable=True),
    ])
    rows = [
        {"k": index, "s": None if index % 3 == 0 else f"v{index % 4}"}
        for index in range(40)
    ]
    return file_from_rows(schema, rows, row_group_size=10), rows


def test_incomparable_ordering_raises_like_oracle():
    data_file, _ = _int_string_file()
    predicate = Predicate("k", "<", "not-an-int")
    with pytest.raises(TypeError):
        scan_rows(data_file, predicate)
    with pytest.raises(TypeError):
        data_file.scan(predicate, cache=chunk_tier())
    predicate = Predicate("s", ">", 7)  # string column vs int literal
    with pytest.raises(TypeError):
        scan_rows(data_file, predicate)
    with pytest.raises(TypeError):
        data_file.scan(predicate, cache=chunk_tier())


def test_all_null_chunk_ordered_against_string_is_empty_not_error():
    schema = Schema([Column("i", ColumnType.INT64, nullable=True)])
    data_file = file_from_rows(schema, [{"i": None}] * 5)
    predicate = Predicate("i", "<", "zz")
    assert scan_rows(data_file, predicate) == []
    assert data_file.scan(predicate, cache=chunk_tier()) == []


def test_in_against_mixed_type_tuple():
    data_file, rows = _int_string_file()
    predicate = Predicate("k", "IN", (3, "v1", 7.0, None))
    cache = chunk_tier()
    assert data_file.scan(predicate, cache=cache) == scan_rows(data_file, predicate)


# --- decoded-chunk cache ------------------------------------------------


def test_chunk_cache_hits_on_repeated_scans():
    data_file, _ = _int_string_file()
    cache = chunk_tier()
    predicate = Predicate("k", ">=", 20)
    data_file.scan(predicate, cache=cache)
    assert cache.stats.misses > 0
    misses_after_first = cache.stats.misses
    hits_after_first = cache.stats.hits
    data_file.scan(predicate, cache=cache)
    assert cache.stats.misses == misses_after_first  # fully served from cache
    assert cache.stats.hits > hits_after_first


def test_chunk_cache_survives_serialization_roundtrip():
    data_file, _ = _int_string_file()
    cache = chunk_tier()
    data_file.scan(cache=cache)
    misses = cache.stats.misses
    # same bytes, fresh object: content-addressed keys still hit
    restored = ColumnarFile.from_bytes(data_file.to_bytes())
    restored.scan(cache=cache)
    assert cache.stats.misses == misses


def test_cached_vectors_are_read_only():
    data_file, rows = _int_string_file()
    cache = chunk_tier()
    vectors, _, _ = next(data_file.select_vectors(["k", "s"], cache=cache))
    numbers, strings = vectors["k"], vectors["s"]
    with pytest.raises(ValueError):
        numbers.values[0] = -1
    with pytest.raises(ValueError):
        numbers.valid()[0] = False
    with pytest.raises(ValueError):
        strings.codes[0] = 0
    # the refused writes left the shared chunks as they were
    assert data_file.scan(cache=cache) == rows
    assert cache.stats.hits > 0


def test_chunk_cache_is_bounded_by_bytes():
    data_file, _ = _int_string_file()  # 4 groups x 2 columns = 8 chunks
    probe = chunk_tier()
    data_file.scan(cache=probe)
    working_set = probe.used_bytes
    assert working_set > 0 and len(probe) == 8
    # half the working set: the scan must evict, never exceed capacity
    cache = chunk_tier(working_set // 2)
    data_file.scan(cache=cache)
    assert 0 < cache.used_bytes <= cache.capacity_bytes
    assert len(cache) < 8
    assert cache.stats.evictions > 0


def test_chunk_cache_rejects_oversized_entries():
    data_file, _ = _int_string_file()
    # 1-byte budget: every decoded vector is bigger, so each put is
    # rejected outright instead of churning the (empty) working set
    cache = chunk_tier(1)
    data_file.scan(cache=cache)
    assert len(cache) == 0
    assert cache.used_bytes == 0
    assert cache.stats.evictions == 0
    assert cache.stats.rejections == cache.stats.misses > 0


def test_chunk_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        chunk_tier(0)


def test_configure_default_cache_registers_stats():
    context = ExecutionContext(name="cache-config")
    with use_context(context):
        context.configure_caches(chunk_capacity_bytes=64 * MiB)
        cache = default_hierarchy().chunks
        assert cache.capacity_bytes == 64 * MiB
        assert cache_stats("table.chunk_cache") is cache.stats
