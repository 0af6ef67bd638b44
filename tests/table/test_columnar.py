"""Unit and property tests for the columnar file format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptionError, SchemaError
from repro.table.columnar import (
    ColumnarFile,
    _decode_strings,
    _encode_strings,
    _strings_to_vector,
)
from repro.table.expr import Predicate
from repro.table.schema import Column, ColumnType, Schema

SCHEMA = Schema([
    Column("id", ColumnType.INT64),
    Column("price", ColumnType.FLOAT64, nullable=True),
    Column("city", ColumnType.STRING),
    Column("flag", ColumnType.BOOL, nullable=True),
    Column("ts", ColumnType.TIMESTAMP),
])


def make_rows(count):
    return [
        {
            "id": index,
            "price": None if index % 7 == 0 else index * 1.5,
            "city": f"city-{index % 5}",
            "flag": None if index % 11 == 0 else index % 2 == 0,
            "ts": 1_000_000 + index * 60,
        }
        for index in range(count)
    ]


def test_from_rows_and_scan_all():
    rows = make_rows(100)
    data_file = ColumnarFile.from_rows(SCHEMA, rows)
    assert data_file.num_rows == 100
    assert data_file.scan() == rows


def test_row_group_partitioning():
    data_file = ColumnarFile.from_rows(SCHEMA, make_rows(25), row_group_size=10)
    assert data_file.num_row_groups == 3


def test_bad_row_group_size_raises():
    with pytest.raises(ValueError):
        ColumnarFile.from_rows(SCHEMA, make_rows(2), row_group_size=0)


def test_invalid_row_rejected():
    with pytest.raises(SchemaError):
        ColumnarFile.from_rows(SCHEMA, [{"id": "not-an-int", "price": 1.0,
                                         "city": "x", "flag": True, "ts": 0}])


def test_serialization_roundtrip():
    rows = make_rows(50)
    data_file = ColumnarFile.from_rows(SCHEMA, rows, row_group_size=16)
    restored = ColumnarFile.from_bytes(data_file.to_bytes())
    assert restored.num_rows == 50
    assert restored.scan() == rows


def test_truncated_bytes_raise():
    blob = ColumnarFile.from_rows(SCHEMA, make_rows(10)).to_bytes()
    with pytest.raises(CorruptionError):
        ColumnarFile.from_bytes(blob[: len(blob) - 5])


def test_scan_with_projection():
    data_file = ColumnarFile.from_rows(SCHEMA, make_rows(10))
    out = data_file.scan(columns=["id", "city"])
    assert out[0] == {"id": 0, "city": "city-0"}


def test_scan_unknown_column_raises():
    data_file = ColumnarFile.from_rows(SCHEMA, make_rows(5))
    with pytest.raises(SchemaError):
        data_file.scan(columns=["ghost"])


def test_scan_with_predicate():
    data_file = ColumnarFile.from_rows(SCHEMA, make_rows(100))
    out = data_file.scan(Predicate("city", "=", "city-3"))
    assert len(out) == 20
    assert all(row["city"] == "city-3" for row in out)


def test_predicate_on_unprojected_column():
    data_file = ColumnarFile.from_rows(SCHEMA, make_rows(20))
    out = data_file.scan(Predicate("id", "<", 5), columns=["city"])
    assert len(out) == 5
    assert set(out[0]) == {"city"}


def test_row_group_skipping():
    # ids are sorted, so tight row groups prune well
    data_file = ColumnarFile.from_rows(SCHEMA, make_rows(100), row_group_size=10)
    predicate = Predicate("id", "=", 55)
    assert data_file.skipped_row_groups(predicate) == 9
    assert len(data_file.scan(predicate)) == 1


def test_count_pushdown():
    data_file = ColumnarFile.from_rows(SCHEMA, make_rows(60), row_group_size=10)
    assert data_file.count() == 60
    assert data_file.count(Predicate("id", ">=", 50)) == 10


def test_file_stats_cover_all_values():
    data_file = ColumnarFile.from_rows(SCHEMA, make_rows(30))
    stats = data_file.file_stats()
    assert stats["id"] == (0, 29)
    assert stats["ts"] == (1_000_000, 1_000_000 + 29 * 60)


def test_nulls_roundtrip():
    rows = [
        {"id": 1, "price": None, "city": "a", "flag": None, "ts": 0},
        {"id": 2, "price": 5.5, "city": "b", "flag": True, "ts": 1},
    ]
    restored = ColumnarFile.from_bytes(
        ColumnarFile.from_rows(SCHEMA, rows).to_bytes()
    )
    assert restored.scan() == rows


def test_all_null_column_stats():
    schema = Schema([Column("v", ColumnType.INT64, nullable=True)])
    data_file = ColumnarFile.from_rows(schema, [{"v": None}, {"v": None}])
    assert data_file.file_stats()["v"] == (None, None)
    # conservative: a predicate on an all-null column cannot skip... but
    # no rows can match either
    assert data_file.scan(Predicate("v", "=", 1)) == []


def test_compression_effective_on_repetitive_data():
    rows = [{"id": 1, "price": 2.0, "city": "same", "flag": True, "ts": 9}
            for _ in range(1000)]
    data_file = ColumnarFile.from_rows(SCHEMA, rows)
    # ~45 bytes/row raw; zlib should crush repetition
    assert data_file.size_bytes < 1000 * 10


def test_empty_file():
    data_file = ColumnarFile.from_rows(SCHEMA, [])
    assert data_file.num_rows == 0
    assert data_file.scan() == []
    restored = ColumnarFile.from_bytes(data_file.to_bytes())
    assert restored.num_rows == 0


row_strategy = st.fixed_dictionaries({
    "id": st.integers(min_value=-2**40, max_value=2**40),
    "price": st.none() | st.floats(min_value=-1e6, max_value=1e6,
                                   allow_nan=False),
    "city": st.text(max_size=15),
    "flag": st.none() | st.booleans(),
    "ts": st.integers(min_value=0, max_value=2**40),
})


@settings(max_examples=30, deadline=None)
@given(st.lists(row_strategy, max_size=60),
       st.integers(min_value=1, max_value=20))
def test_roundtrip_property(rows, row_group_size):
    data_file = ColumnarFile.from_rows(SCHEMA, rows, row_group_size)
    restored = ColumnarFile.from_bytes(data_file.to_bytes())
    assert restored.scan() == rows


@settings(max_examples=30, deadline=None)
@given(
    st.lists(row_strategy, min_size=1, max_size=60),
    st.integers(min_value=-2**40, max_value=2**40),
    st.sampled_from(["<", "<=", "=", ">", ">="]),
)
def test_stats_skipping_never_loses_rows(rows, literal, op):
    """Row-group skipping returns exactly what a full scan filter would."""
    data_file = ColumnarFile.from_rows(SCHEMA, rows, row_group_size=7)
    predicate = Predicate("id", op, literal)
    expected = [row for row in rows if predicate.matches(row)]
    assert data_file.scan(predicate) == expected


def test_dictionary_encoding_shrinks_low_cardinality_strings():
    """Low-cardinality string columns dictionary-encode (Fig 14(d)'s
    EC+Col-store lever)."""
    import random

    rng = random.Random(1)
    provinces = [f"province_{i:02d}" for i in range(8)]
    rows = [
        {"id": i, "price": 1.0, "city": rng.choice(provinces),
         "flag": True, "ts": i}
        for i in range(5000)
    ]
    # shuffle so zlib alone cannot exploit run-length structure
    dictionary_file = ColumnarFile.from_rows(SCHEMA, rows)
    restored = ColumnarFile.from_bytes(dictionary_file.to_bytes())
    assert restored.scan() == rows
    # the city column should cost ~4 bytes/row (codes), far below json
    json_cost = sum(len(r["city"]) + 3 for r in rows)
    assert dictionary_file.size_bytes < json_cost


def test_high_cardinality_strings_stay_plain():
    rows = [
        {"id": i, "price": 1.0, "city": f"unique-city-{i}",
         "flag": True, "ts": i}
        for i in range(500)
    ]
    data_file = ColumnarFile.from_rows(SCHEMA, rows)
    assert ColumnarFile.from_bytes(data_file.to_bytes()).scan() == rows


def test_dictionary_encoding_with_nulls():
    schema = Schema([Column("s", ColumnType.STRING, nullable=True)])
    rows = [{"s": None if i % 3 == 0 else f"v{i % 2}"} for i in range(300)]
    data_file = ColumnarFile.from_rows(schema, rows)
    assert ColumnarFile.from_bytes(data_file.to_bytes()).scan() == rows


# --- edge cases: encodings, nulls, truncation ---------------------------


def test_all_none_string_column_roundtrip():
    """All-null string chunk: the empty-dictionary encoding path."""
    schema = Schema([Column("s", ColumnType.STRING, nullable=True)])
    rows = [{"s": None}] * 25
    data_file = ColumnarFile.from_rows(schema, rows, row_group_size=10)
    restored = ColumnarFile.from_bytes(data_file.to_bytes())
    assert restored.scan() == rows
    assert restored.scan_rows() == rows
    assert restored.count(Predicate("s", "=", "anything")) == 0


def test_mixed_cardinality_selects_encoding_per_chunk():
    """Per-chunk encoding choice: one low-cardinality group dictionary-
    encodes while a high-cardinality group of the same column stays
    plain — and both scan identically."""
    schema = Schema([
        Column("k", ColumnType.INT64),
        Column("s", ColumnType.STRING, nullable=True),
    ])
    low = [{"k": i, "s": f"v{i % 2}"} for i in range(50)]
    high = [{"k": 50 + i, "s": f"unique-string-value-{i}"} for i in range(50)]
    rows = low + high
    data_file = ColumnarFile.from_rows(schema, rows, row_group_size=50)
    restored = ColumnarFile.from_bytes(data_file.to_bytes())
    assert restored.scan() == rows
    predicate = Predicate("s", "IN", ("v1", "unique-string-value-7"))
    assert restored.scan(predicate) == restored.scan_rows(predicate)
    assert restored.count(predicate) == 25 + 1


def test_roundtrip_with_nulls_in_every_column_type():
    schema = Schema([
        Column("i", ColumnType.INT64, nullable=True),
        Column("f", ColumnType.FLOAT64, nullable=True),
        Column("s", ColumnType.STRING, nullable=True),
        Column("b", ColumnType.BOOL, nullable=True),
        Column("t", ColumnType.TIMESTAMP, nullable=True),
    ])
    rows = [
        {"i": None, "f": None, "s": None, "b": None, "t": None},
        {"i": -5, "f": 2.5, "s": "x", "b": True, "t": 99},
        {"i": 0, "f": None, "s": None, "b": False, "t": None},
        {"i": None, "f": -0.5, "s": "", "b": None, "t": 0},
    ] * 6
    data_file = ColumnarFile.from_rows(schema, rows, row_group_size=5)
    restored = ColumnarFile.from_bytes(data_file.to_bytes())
    assert restored.scan() == rows
    assert restored.scan_rows() == rows


def test_truncated_footer_raises():
    blob = ColumnarFile.from_rows(SCHEMA, make_rows(10)).to_bytes()
    with pytest.raises(CorruptionError):
        ColumnarFile.from_bytes(blob[:2])  # shorter than the length header


def test_truncated_mid_chunk_raises():
    data_file = ColumnarFile.from_rows(SCHEMA, make_rows(30), row_group_size=10)
    blob = data_file.to_bytes()
    for cut in (len(blob) - 1, len(blob) // 2 + 8):
        with pytest.raises(CorruptionError):
            ColumnarFile.from_bytes(blob[:cut])


# --- from_columns / to_columns (the vectorized write path) --------------------


def columns_of(rows):
    """Column data in the shape from_columns accepts, built from rows."""
    import numpy as np

    from repro.table.vector import NumericVector

    def numeric(name, dtype):
        values = [row[name] for row in rows]
        return NumericVector(
            np.array([0 if v is None else v for v in values], dtype=dtype),
            np.array([v is not None for v in values], dtype=bool),
        )

    return {
        "id": numeric("id", "int64"),
        "price": numeric("price", "float64"),
        "city": [row["city"] for row in rows],
        "flag": numeric("flag", "bool"),
        "ts": numeric("ts", "int64"),
    }


def test_from_columns_matches_from_rows():
    rows = make_rows(100)
    from_cols = ColumnarFile.from_columns(SCHEMA, columns_of(rows), len(rows))
    from_rows = ColumnarFile.from_rows(SCHEMA, rows)
    assert from_cols.scan() == from_rows.scan() == rows
    assert from_cols.group_stats() == from_rows.group_stats()
    assert from_cols.file_stats() == from_rows.file_stats()
    # the two builders produce the identical serialized file
    assert from_cols.to_bytes() == from_rows.to_bytes()


def test_from_columns_row_group_split():
    rows = make_rows(25)
    data_file = ColumnarFile.from_columns(
        SCHEMA, columns_of(rows), 25, row_group_size=10
    )
    assert data_file.num_row_groups == 3
    assert data_file.scan() == rows


def test_from_columns_missing_column_raises():
    columns = columns_of(make_rows(5))
    del columns["city"]
    with pytest.raises(SchemaError):
        ColumnarFile.from_columns(SCHEMA, columns, 5)


def test_from_columns_length_mismatch_raises():
    columns = columns_of(make_rows(5))
    columns["city"] = columns["city"][:3]
    with pytest.raises(SchemaError):
        ColumnarFile.from_columns(SCHEMA, columns, 5)


def test_to_columns_roundtrip():
    rows = make_rows(40)
    original = ColumnarFile.from_rows(SCHEMA, rows, row_group_size=15)
    rebuilt = ColumnarFile.from_columns(
        SCHEMA, original.to_columns(), original.num_rows
    )
    assert rebuilt.scan() == rows
    assert rebuilt.file_stats() == original.file_stats()


def test_to_columns_empty_file():
    empty = ColumnarFile.from_rows(SCHEMA, [])
    columns = empty.to_columns()
    assert all(len(data) == 0 for data in columns.values())
    rebuilt = ColumnarFile.from_columns(SCHEMA, columns, 0)
    assert rebuilt.scan() == []


@settings(max_examples=80, deadline=None)
@given(values=st.one_of(
    st.lists(st.one_of(st.none(), st.sampled_from(["A", "N", "R", ""])),
             max_size=40),
    st.lists(st.one_of(st.none(), st.text(max_size=6)), max_size=40),
    st.lists(st.text(max_size=6), max_size=40, unique=True),
))
def test_strings_to_vector_matches_row_decoder(values):
    """Plain and dictionary chunks: the vector decoder materializes what
    the row-wise decoder returns, distinct values in first-seen order."""
    raw = _encode_strings(values)
    vector = _strings_to_vector(raw, len(values))
    assert vector.to_list() == _decode_strings(raw, len(values)) == values
    assert vector.codes.dtype == np.uint32
    if raw[0] == 0:  # plain JSON: factorized at decode time
        assert vector.dictionary == list(
            dict.fromkeys(value for value in values if value is not None)
        )


@pytest.mark.parametrize("values", [
    [None, "a", "b", "a"],          # None first
    [None, None, None],             # None only
    ["a", "b", "c", "d"],           # all distinct
    ["x", "x", "x", "x"],           # all equal
    ["a", None, "b", None, "a"],    # None between first sightings
    [],
])
def test_plain_string_chunk_factorization_edges(values):
    # framed as plain JSON whatever the encoder would have picked
    raw = bytes([0]) + json.dumps(values, separators=(",", ":")).encode()
    vector = _strings_to_vector(raw, len(values))
    assert vector.to_list() == _decode_strings(raw, len(values)) == values
    assert None not in vector.dictionary
    assert len(set(vector.dictionary)) == len(vector.dictionary)

