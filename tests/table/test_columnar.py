"""Unit and property tests for the columnar file format."""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptionError, SchemaError
from repro.table.columnar import (
    _HEADER,
    ColumnarFile,
    _decode_column,
    _decode_strings,
    _decode_vector,
    _encode_column,
    _encode_strings,
    _encode_vector,
    _read_planes,
    _strings_to_vector,
)
from repro.table.expr import Predicate
from repro.table.schema import Column, ColumnType, Schema
from repro.table.sql import query
from repro.table.vector import NumericVector

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



# --- string chunks ---------------------------------------------------------------

_STRING_LISTS = st.one_of(
    st.lists(st.one_of(st.none(), st.sampled_from(["A", "N", "R", ""])),
             max_size=40),
    st.lists(st.one_of(st.none(), st.text(max_size=6)), max_size=40),
    st.lists(st.text(max_size=6), max_size=40, unique=True),
)


@settings(max_examples=80, deadline=None)
@given(values=_STRING_LISTS)
def test_strings_to_vector_matches_row_decoder(values):
    """Plain and dictionary chunks: the vector decoder materializes what
    the row-wise decoder returns, distinct values in first-seen order."""
    raw, _ = _encode_strings(values)
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
    plain = json.dumps(values, separators=(",", ":")).encode()
    raw = bytes([0]) + zlib.compress(plain)
    vector = _strings_to_vector(raw, len(values))
    assert vector.to_list() == _decode_strings(raw, len(values)) == values
    assert None not in vector.dictionary
    assert len(set(vector.dictionary)) == len(vector.dictionary)


def _oracle_frames(planes):
    """Plane frames written out from the module docstring, apart from the
    codec: the raw plane unless zlib makes it strictly smaller."""
    frames = []
    for plane in planes:
        deflated = zlib.compress(plane, 6)
        frames.append(deflated if len(deflated) < len(plane) else plane)
    lengths = b"".join(struct.pack("<I", len(frame)) for frame in frames)
    return lengths + b"".join(frames)


def _straightforward_strings(values):
    """The string encoder written the obvious way: plain JSON always
    serialized, distinct values from a set, statistics from a second
    pass over the values."""
    plain = json.dumps(values, separators=(",", ":")).encode()
    present = [value for value in values if value is not None]
    nulls = len(values) - len(present)
    stats = (min(present), max(present), nulls) if present else \
        (None, None, nulls)
    distinct = sorted(set(present))
    if values and len(distinct) <= max(1, len(values) // 2):
        dictionary = json.dumps(distinct, separators=(",", ":")).encode()
        width = next(w for w in (1, 2, 4, 8) if len(distinct) >> (8 * w) == 0)
        if 1 + 4 + len(dictionary) + width * len(values) < 1 + len(plain):
            code = {value: index for index, value in enumerate(distinct)}
            words = np.array(
                [len(distinct) if value is None else code[value]
                 for value in values],
                dtype=f"<u{width}",
            ).view(np.uint8)
            stream = zlib.compress(dictionary, 6)
            planes = [words[index::width].tobytes() for index in range(width)]
            chunk = (bytes([1]) + struct.pack("<I", len(stream)) + stream
                     + _oracle_frames(planes))
            return chunk, stats
    return bytes([0]) + zlib.compress(plain, 6), stats


@settings(max_examples=150, deadline=None)
@given(values=st.one_of(
    _STRING_LISTS,
    # two short values: the dictionary and plain JSON tie in size
    st.lists(st.one_of(st.none(), st.sampled_from(["a", "b"])), max_size=9),
    st.lists(st.text(st.characters(), max_size=4), max_size=30),
    # more than 255 distinct values: two-byte codes
    st.lists(st.integers(0, 299).map(lambda index: f"v{index}"),
             min_size=600, max_size=640),
))
def test_string_encoder_matches_straightforward_oracle(values):
    """One counting pass picks the same encoding, writes the same bytes
    and reports the same footer statistics as the obvious encoder."""
    assert _encode_strings(values) == _straightforward_strings(values)


# --- the typed chunk codec ----------------------------------------------------

_I64 = np.iinfo(np.int64)
_OLD_SENTINEL = -(2**62)

# one strategy per width class of the integer layout
_INT_CLASSES = {
    "constant": st.integers(_I64.min, _I64.max).map(lambda v: st.just(v)),
    "strided": st.integers(-2**40, 2**40).map(
        lambda base: st.integers(0, 70_000).map(lambda n: base + n * 86_400)
    ),
    "one_byte": st.just(st.integers(-100, 150)),
    "two_bytes": st.just(st.integers(0, 60_000)),
    "four_bytes": st.just(st.integers(-2**30, 2**30)),
    "full_range": st.just(st.one_of(
        st.sampled_from([_I64.min, _I64.max, _OLD_SENTINEL, 0, -1]),
        st.integers(_I64.min, _I64.max),
    )),
}

_NULL_PATTERNS = {
    "none": lambda n, draw: [True] * n,
    "some": lambda n, draw: draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    "all": lambda n, draw: [False] * n,
}


def _frames(blob, offset, planes, count):
    """``(plane, deflated)`` per frame of a chunk body, each frame checked
    against the stored rule: raw iff deflate could not make it smaller."""
    lengths = struct.unpack_from(f"<{planes}I", blob, offset)
    cursor = offset + 4 * planes
    assert cursor + sum(lengths) == len(blob)
    out = []
    for length in lengths:
        frame = blob[cursor : cursor + length]
        cursor += length
        if length == count:
            assert len(zlib.compress(frame, 6)) >= count
            out.append((frame, False))
        else:
            plane = zlib.decompress(frame)
            assert len(plane) == count > length
            assert zlib.compress(plane, 6) == frame
            out.append((plane, True))
    return out


def _numeric_frames(blob, count):
    tag, width, nulls = blob[:3]
    planes = 8 if tag == 0 else width + (nulls == 2)
    return _frames(blob, _HEADER.size, planes, count)


def _roundtrip_ints(values, valid, type_):
    """Both entry points agree on the bytes and give the values back."""
    array = np.array(values, dtype=np.int64)
    mask = np.array(valid, dtype=bool)
    blob = _encode_vector(NumericVector(array, mask), type_)
    _numeric_frames(blob, len(values))
    vector = _decode_vector(blob, type_, len(values))
    assert vector.values.dtype == np.int64
    assert vector.valid().tolist() == valid
    expected = [v if ok else None for v, ok in zip(values, valid)]
    assert vector.to_list() == expected
    assert _encode_column(expected, type_)[0] == blob
    assert _decode_column(blob, type_, len(values)) == expected
    return blob


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       type_=st.sampled_from([ColumnType.INT64, ColumnType.TIMESTAMP]),
       width_class=st.sampled_from(sorted(_INT_CLASSES)),
       nulls=st.sampled_from(sorted(_NULL_PATTERNS)),
       size=st.sampled_from([0, 1, 2, 7, 40]))
def test_integer_chunk_roundtrip_property(data, type_, width_class, nulls,
                                          size):
    element = data.draw(_INT_CLASSES[width_class])
    values = data.draw(st.lists(element, min_size=size, max_size=size))
    valid = _NULL_PATTERNS[nulls](size, data.draw)
    _roundtrip_ints(values, valid, type_)


@pytest.mark.parametrize("valid", [
    [True, True, True], [True, False, True], [False, True, True],
])
def test_full_int64_range_in_one_chunk(valid):
    """INT64_MIN and INT64_MAX together leave no spare code for NULL:
    the chunk spells validity out instead."""
    blob = _roundtrip_ints([_I64.min, _I64.max, -1], valid, ColumnType.INT64)
    header = _HEADER.unpack_from(blob)
    # both extremes present at stride 1 -> 8-byte codes, mask iff NULLs
    if valid[0] and valid[1]:
        assert header[1] == 8 and header[2] == (0 if all(valid) else 2)
        frames = _numeric_frames(blob, 3)
        assert len(frames) == 8 + (not all(valid))
        if not all(valid):  # the validity plane follows the code planes
            assert list(frames[-1][0]) == [int(ok) for ok in valid]


def test_integer_chunk_header_fields():
    days = [1_700_006_400 + n * 86_400 for n in (0, 3, 249, 9)]
    blob, _ = _encode_column(days + [None], ColumnType.TIMESTAMP)
    tag, width, nulls, exponent, count, base, stride, top = \
        _HEADER.unpack_from(blob)
    assert (tag, width, nulls, exponent, count) == (1, 1, 1, 0, 5)
    assert (base, stride, top) == (1_700_006_400, 86_400 * 3, 83)
    # the header is not compressed; one plane of five codes follows, too
    # short for deflate to shrink, so stored; NULL is the code past the top
    assert blob[_HEADER.size:] == struct.pack("<I", 5) + bytes(
        [0, 1, top, 3, top + 1]
    )


# (type, code width, null mode); "raw" is a FLOAT64 chunk in the raw
# layout, whose 8 planes are the IEEE-754 bits
_FRAME_CASES = (
    [(type_, width, nulls)
     for type_ in (ColumnType.INT64, ColumnType.TIMESTAMP)
     for width in (1, 2, 4, 8) for nulls in (0, 1)]
    + [(ColumnType.INT64, 8, 2), (ColumnType.TIMESTAMP, 8, 2)]
    + [(ColumnType.FLOAT64, width, nulls)
       for width in (1, 2, 4) for nulls in (0, 1)]
    + [("raw", 8, 0), ("raw", 8, 1)]
)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_FRAME_CASES), data=st.data(),
       size=st.integers(48, 160), seed=st.integers(0, 2**32 - 1))
def test_plane_frame_roundtrip_property(case, data, size, seed):
    """Each plane is framed on its own: a plane of random bytes is
    stored, a constant one deflated, and every value comes back bit for
    bit whichever mix of the two a chunk holds."""
    kind, width, nulls = case
    random_planes = data.draw(
        st.lists(st.booleans(), min_size=width, max_size=width)
    )
    rng = np.random.default_rng(seed)
    planes = np.empty((width, size), dtype=np.uint8)
    for index, is_random in enumerate(random_planes):
        # the top plane leaves room for the NULL code
        high = 0xFE if index == width - 1 and nulls == 1 else 0xFF
        planes[index] = (rng.integers(0, high + 1, size) if is_random
                         else rng.integers(1, high + 1))
    planes[:, :2] = 0
    planes[0, 1] = 1        # codes 0 and 1: base at row 0, stride 1
    planes[-1, 2] = 0x80    # and ``width`` bytes wide
    if nulls == 2:          # INT64_MIN and INT64_MAX: no spare code
        planes[:, 2] = 0xFF
    codes = np.ascontiguousarray(planes.T).view(f"<u{width}")
    codes = codes.reshape(size).astype(np.uint64)
    valid = np.ones(size, dtype=bool)
    if nulls:
        valid[3:] = rng.random(size - 3) < 0.8
        valid[3] = False
    if kind == "raw":  # row 1 is the smallest subnormal: never decimal
        type_, values = ColumnType.FLOAT64, codes.view(np.float64)
    elif width == 8:
        type_, values = kind, (codes ^ np.uint64(2**63)).view(np.int64)
    else:
        base = int(rng.integers(-2**40, 2**40))
        values = codes.astype(np.int64) + base
        type_ = kind
        if kind is ColumnType.FLOAT64:
            values = values.astype(np.float64)
    blob = _encode_vector(NumericVector(values, valid), type_)
    header = _HEADER.unpack_from(blob)
    assert header[:3] == ((0, 8, 0) if kind == "raw" else (1, width, nulls))
    frames = _numeric_frames(blob, size)
    deflated = [flag for _, flag in frames[:width]]
    if nulls == 0:
        assert deflated == [not is_random for is_random in random_planes]
    else:  # NULL rows rewrite some bytes; a constant plane still deflates
        assert all(flag for flag, is_random in zip(deflated, random_planes)
                   if not is_random)
    vector = _decode_vector(blob, type_, size)
    expect_valid = valid & ~np.isnan(values) if kind == "raw" else valid
    assert vector.valid().tolist() == expect_valid.tolist()
    assert vector.values.dtype == values.dtype
    assert _bits(vector.values[expect_valid]) == _bits(values[expect_valid])
    rows = [v if ok else None for v, ok in zip(values.tolist(), valid)]
    assert _encode_column(rows, type_)[0] == blob


def test_random_plane_is_stored_and_constant_plane_deflated():
    rng = np.random.default_rng(3)
    values = (256 + rng.integers(0, 256, 4_000)).tolist()
    values[0] = 0  # codes 0 and 256..511: two planes
    blob, _ = _encode_column(values, ColumnType.INT64)
    low, high = struct.unpack_from("<2I", blob, _HEADER.size)
    assert low == 4_000   # random low bytes: stored
    assert high < 40      # all ones but one: deflated
    planes = _read_planes(blob, _HEADER.size, 2, 4_000)
    assert planes[0].base is blob  # a stored plane is read in place
    assert _decode_column(blob, ColumnType.INT64, 4_000) == values


def _with_frames(blob, offset, frames):
    lengths = struct.pack(f"<{len(frames)}I", *map(len, frames))
    return blob[:offset] + lengths + b"".join(frames)


def test_corrupt_plane_frames_raise_corruption_error():
    count = 4_000
    values = (256 + np.random.default_rng(3).integers(0, 256, count)).tolist()
    values[0] = 0  # a stored low plane, a deflated high plane
    blob, _ = _encode_column(values, ColumnType.INT64)
    (low, _), (high, _) = _numeric_frames(blob, count)
    stored = blob[_HEADER.size + 8 : _HEADER.size + 8 + count]
    deflated = blob[_HEADER.size + 8 + count :]
    assert stored == low and zlib.decompress(deflated) == high
    lengths_end = _HEADER.size + 8
    broken = [
        # a plane length past the row count
        blob[:_HEADER.size] + struct.pack("<2I", count + 1, len(deflated))
        + stored + b"\x00" + deflated,
        blob[: lengths_end - 3],                       # length table cut
        blob[:_HEADER.size],                           # no length table
        blob + b"\x00",                                # trailing bytes
        blob[:-1],                                     # frames cut
        # deflated planes that inflate to the wrong size
        _with_frames(blob, _HEADER.size,
                     [stored, zlib.compress(bytes(count - 1))]),
        _with_frames(blob, _HEADER.size,
                     [stored, zlib.compress(bytes(count + 1))]),
        # bad zlib streams: garbage, a stream cut short, one with a
        # trailer past its end
        _with_frames(blob, _HEADER.size, [stored, b"not a zlib stream"]),
        _with_frames(blob, _HEADER.size, [stored, deflated[:-3]]),
        _with_frames(blob, _HEADER.size, [stored, deflated + b"\x00"]),
    ]
    for chunk in broken:
        with pytest.raises(CorruptionError):
            _decode_vector(chunk, ColumnType.INT64, count)
        with pytest.raises(CorruptionError):
            _decode_column(chunk, ColumnType.INT64, count)
    assert _decode_column(blob, ColumnType.INT64, count) == values


def test_bool_chunk_is_one_plane():
    rng = np.random.default_rng(5)
    rows = [None if draw == 2 else bool(draw)
            for draw in rng.integers(0, 3, 500).tolist()]
    blob, stats = _encode_column(rows, ColumnType.BOOL)
    ((plane, deflated),) = _frames(blob, 0, 1, 500)
    assert deflated  # three symbols a byte
    assert list(plane) == [0 if v is None else 1 + v for v in rows]
    assert stats == (False, True, rows.count(None))
    assert _decode_column(blob, ColumnType.BOOL, 500) == rows
    short, _ = _encode_column([True, None, False], ColumnType.BOOL)
    assert short == struct.pack("<I", 3) + bytes([2, 0, 1])  # stored
    for chunk in (blob[:-1], blob + b"\x00", blob[:3], b""):
        with pytest.raises(CorruptionError):
            _decode_vector(chunk, ColumnType.BOOL, 500)
    with pytest.raises(CorruptionError):
        _decode_vector(short, ColumnType.BOOL, 4)


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


def _roundtrip_floats(values, valid):
    """Bit-exact round trip; returns the chunk's layout tag."""
    array = np.array(values, dtype=np.float64)
    mask = np.array(valid, dtype=bool)
    blob = _encode_vector(NumericVector(array, mask), ColumnType.FLOAT64)
    _numeric_frames(blob, len(values))
    vector = _decode_vector(blob, ColumnType.FLOAT64, len(values))
    assert vector.values.dtype == np.float64
    # a valid NaN reads back as NULL, as it always has
    expect_valid = [ok and v == v for v, ok in zip(values, valid)]
    assert vector.valid().tolist() == expect_valid
    kept = np.flatnonzero(expect_valid)
    assert _bits(vector.values[kept]) == _bits(array[kept])
    assert np.isnan(vector.values[~np.array(expect_valid, dtype=bool)]).all()
    rows = [v if ok else None for v, ok in zip(values, valid)]
    assert _encode_column(rows, ColumnType.FLOAT64)[0] == blob
    decoded = _decode_column(blob, ColumnType.FLOAT64, len(values))
    assert [v is not None for v in decoded] == expect_valid
    assert _bits([decoded[i] for i in kept]) == _bits(array[kept])
    return blob[0]


_DECIMALS = st.integers(0, 5).flatmap(
    lambda k: st.integers(-10**7, 10**7).map(lambda n: round(n / 10**k, k))
)
_ODD_FLOATS = st.sampled_from([
    -0.0, 5e-324, -2.2e-308, float("nan"), float("inf"), float("-inf"),
    2.0**53, -2.0**53, 2.0**53 / 10, 2.0**53 / 100, -(2.0**53) / 1000,
    2.0**53 / 10_000, (2.0**53 - 1) / 100, 1e300, 0.1 + 0.2,
])


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       kind=st.sampled_from(["decimal", "odd", "mixed", "any"]),
       nulls=st.sampled_from(sorted(_NULL_PATTERNS)),
       size=st.sampled_from([0, 1, 2, 7, 40]))
def test_float_chunk_roundtrip_property(data, kind, nulls, size):
    element = {
        "decimal": _DECIMALS,
        "odd": _ODD_FLOATS,
        "mixed": st.one_of(_DECIMALS, _ODD_FLOATS, st.floats()),
        "any": st.floats(),
    }[kind]
    values = data.draw(st.lists(element, min_size=size, max_size=size))
    valid = _NULL_PATTERNS[nulls](size, data.draw)
    _roundtrip_floats(values, valid)


@pytest.mark.parametrize("values, tag, exponent", [
    ([1.0, 50.0, 7.0], 1, 0),
    ([0.1, 0.25, 7.0], 1, 2),
    ([0.0001, 12.5], 1, 4),
    ([0.00001, 12.5], 0, None),            # five decimals: too many digits
    ([0.0, 1.5, -0.0], 0, None),           # -0.0 is not 0 / 10**k
    ([1.5, float("nan")], 0, None),
    ([1.5, float("inf")], 0, None),
    ([1.5, 5e-324], 0, None),
    ([2.0**53, 1.0], 0, None),             # |integer| must stay below 2**53
    ([2.0**53 - 1, 1.0], 1, 0),
    ([0.1 + 0.2, 0.3], 0, None),           # 0.30000000000000004
])
def test_float_layout_choice(values, tag, exponent):
    assert _roundtrip_floats(values, [True] * len(values)) == tag
    blob, _ = _encode_column(values, ColumnType.FLOAT64)
    if tag == 1:
        assert _HEADER.unpack_from(blob)[3] == exponent
    else:  # 8 planes of two or three bytes: each stored
        assert len(blob) == _HEADER.size + 8 * (4 + len(values))


def test_old_null_sentinel_is_an_ordinary_value(lakehouse):
    """-(2**62) used to be written as a value and read back as NULL,
    while the footer said nulls = 0."""
    schema = Schema([Column("a", ColumnType.INT64, nullable=True)])
    rows = [{"a": _OLD_SENTINEL}, {"a": 5}, {"a": None}]
    column = NumericVector(
        np.array([_OLD_SENTINEL, 5, 0], dtype=np.int64),
        np.array([True, True, False]),
    )
    for data_file in (
        ColumnarFile.from_rows(schema, rows),
        ColumnarFile.from_columns(schema, {"a": column}, 3),
    ):
        restored = ColumnarFile.from_bytes(data_file.to_bytes())
        for candidate in (data_file, restored):
            assert candidate.scan() == rows
            assert candidate.scan_rows() == rows
            ((vectors, mask, num_rows),) = candidate.select_vectors(["a"])
            assert vectors["a"].to_list() == [_OLD_SENTINEL, 5, None]
            (_, stats, nulls), = candidate.group_summaries()
            assert nulls == {"a": 1}
            assert stats["a"] == (_OLD_SENTINEL, 5)
    table = lakehouse.create_table("sentinel", schema)
    table.insert(rows)
    # COUNT(a) is answered from the footer, the WHERE scan decodes
    counted = query(lakehouse, "SELECT COUNT(a) AS n FROM sentinel")
    everything = query(lakehouse, "SELECT COUNT(*) AS n FROM sentinel")
    assert (counted, everything) == ([{"n": 2}], [{"n": 3}])
    assert query(lakehouse, "SELECT a FROM sentinel WHERE a < 0") == \
        [{"a": _OLD_SENTINEL}]


@pytest.mark.parametrize("distinct", [1, 255, 256, 65_536])
def test_dictionary_code_width(distinct):
    """Codes are as wide as ``len(dictionary)`` — the NULL code — needs."""
    words = [f"w{index:05d}" for index in range(distinct)]
    values = (words + [None]) * 2
    raw, stats = _encode_strings(values)
    assert raw[0] == 1  # dictionary
    assert stats == (words[0], words[-1], 2)
    (stream_len,) = struct.unpack_from("<I", raw, 1)
    start = 1 + 4 + stream_len
    assert json.loads(zlib.decompress(raw[5:start])) == words
    width = {1: 1, 255: 1, 256: 2, 65_536: 4}[distinct]
    frames = _frames(raw, start, width, len(values))
    codes = np.zeros(len(values), dtype=np.uint64)
    for index, (plane, _) in enumerate(frames):
        codes |= np.frombuffer(plane, np.uint8).astype(np.uint64) << \
            np.uint64(8 * index)
    assert codes.tolist() == list(range(distinct + 1)) * 2
    vector = _strings_to_vector(raw, len(values))
    assert vector.codes.dtype == np.uint32
    assert vector.to_list() == _decode_strings(raw, len(values)) == values


def _corrupt(raw, **fields):
    """A numeric chunk with header fields overwritten."""
    names = ("tag", "width", "nulls", "exponent", "count", "base", "stride",
             "top")
    header = dict(zip(names, _HEADER.unpack_from(raw)))
    header.update(fields)
    return _HEADER.pack(*header.values()) + raw[_HEADER.size:]


@pytest.mark.parametrize("type_, values", [
    (ColumnType.INT64, [3, 1_000, None, 70_000]),
    (ColumnType.TIMESTAMP, [86_400, 172_800, 0, 0]),
    (ColumnType.FLOAT64, [0.5, 0.25, None, 9.75]),
    (ColumnType.FLOAT64, [0.1 + 0.2, -0.0, None, 1.0]),   # raw layout
])
def test_corrupt_numeric_chunks_raise_corruption_error(type_, values):
    count = len(values)
    raw, _ = _encode_column(values, type_)
    broken = [
        raw[:-1],                                    # truncated planes
        raw + b"\x00",                               # trailing bytes
        raw[: _HEADER.size - 1],                     # truncated header
        raw[: _HEADER.size + 2],                     # truncated lengths
        b"",
        _corrupt(raw, tag=7),                        # unknown layout
        _corrupt(raw, count=count + 1),              # disagrees with footer
    ]
    if raw[0] == 1:
        broken += [
            _corrupt(raw, width=3), _corrupt(raw, width=0),
            _corrupt(raw, width=16), _corrupt(raw, nulls=3),
            _corrupt(raw, exponent=5), _corrupt(raw, top=2**64 - 1),
        ]
    else:  # the raw layout is always 8 planes
        broken += [_corrupt(raw, width=4), _corrupt(raw, width=0)]
    for blob in broken:
        with pytest.raises(CorruptionError):
            _decode_vector(blob, type_, count)
        with pytest.raises(CorruptionError):
            _decode_column(blob, type_, count)
    # a chunk cannot claim fewer rows than the footer either
    with pytest.raises(CorruptionError):
        _decode_vector(raw, type_, count - 1)


def test_raw_layout_is_only_for_floats():
    raw, _ = _encode_column([0.1 + 0.2], ColumnType.FLOAT64)
    assert raw[0] == 0
    with pytest.raises(CorruptionError):
        _decode_vector(raw, ColumnType.INT64, 1)


def test_corrupt_dictionary_codes_raise_corruption_error():
    values = ["a", "b", None, "a"] * 5
    raw, _ = _encode_strings(values)
    assert raw[0] == 1
    (stream_len,) = struct.unpack_from("<I", raw, 1)
    codes_at = 5 + stream_len
    broken = [
        raw[:-1], raw + b"\x00", raw[:3], b"", bytes([7]) + raw[1:],
        # a dictionary stream that does not inflate
        raw[:5] + b"\xff" * stream_len + raw[codes_at:],
        raw[:5] + raw[5 : codes_at - 2] + raw[codes_at:],
        # a stream length past the end of the chunk
        raw[:1] + struct.pack("<I", len(raw)) + raw[5:],
        # a code plane that claims more bytes than rows
        raw[:codes_at] + struct.pack("<I", len(values) + 1)
        + raw[codes_at + 4 :],
    ]
    for chunk in broken:
        with pytest.raises(CorruptionError):
            _strings_to_vector(chunk, len(values))
        with pytest.raises(CorruptionError):
            _decode_strings(chunk, len(values))
    with pytest.raises(CorruptionError):
        _strings_to_vector(raw, len(values) + 1)
    plain = json.dumps(values).encode()
    for chunk, count in (
        (bytes([0]) + b"not a zlib stream", len(values)),
        (bytes([0]) + zlib.compress(plain)[:-2], len(values)),
        (bytes([0]) + zlib.compress(b"{not json"), len(values)),
        (bytes([0]) + zlib.compress(plain), len(values) - 1),
    ):
        with pytest.raises(CorruptionError):
            _strings_to_vector(chunk, count)
        with pytest.raises(CorruptionError):
            _decode_strings(chunk, count)


# --- encoded size is a count: pinned per benchmark value domain ----------------

_PIN_ROWS = 10_000
_SHIPMODES = ("AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR")
_PIN_DOMAINS = ("l_orderkey", "l_partkey", "l_quantity", "l_shipdate",
                "l_extendedprice", "l_discount", "user_id", "bytes_up",
                "l_shipmode")


def _pinned_domain(name):
    """One seeded chunk drawn the way ``benchmarks/e2e/inputs.py`` draws
    the column (``lineitem`` at 60k rows, the DPI packets)."""
    rng = np.random.default_rng(22)
    if name == "l_shipmode":
        picks = rng.integers(0, len(_SHIPMODES), _PIN_ROWS).tolist()
        return ColumnType.STRING, [_SHIPMODES[i] for i in picks]
    type_, values = {
        "l_orderkey": lambda: (
            ColumnType.INT64, rng.integers(1, 15_001, _PIN_ROWS)),
        "l_partkey": lambda: (
            ColumnType.INT64, rng.integers(1, 200_000, _PIN_ROWS)),
        "l_quantity": lambda: (
            ColumnType.INT64, rng.integers(1, 51, _PIN_ROWS)),
        "l_shipdate": lambda: (
            ColumnType.TIMESTAMP,
            694_224_000 + rng.integers(0, 2_526, _PIN_ROWS) * 86_400),
        "l_extendedprice": lambda: (
            ColumnType.FLOAT64,
            np.round(rng.uniform(900.0, 105_000.0, _PIN_ROWS), 2)),
        "l_discount": lambda: (
            ColumnType.FLOAT64, rng.integers(0, 11, _PIN_ROWS) / 100.0),
        "user_id": lambda: (
            ColumnType.INT64, rng.integers(0, 1_000_000, _PIN_ROWS)),
        "bytes_up": lambda: (
            ColumnType.INT64, rng.integers(100, 100_000, _PIN_ROWS)),
    }[name]()
    return type_, values.tolist()


# bytes per 10,000-row chunk as written with each byte plane framed on
# its own, beside the figure of the layout it replaced (the same typed
# planes as one zlib stream, the header inside it), which the test id
# keeps.  The two width-1 domains grow by the uncompressed header and
# length table (l_quantity +18 B, l_discount +17 B): their one plane
# deflates either way.  No domain may grow by more than 20 B.
_PINS = {
    "l_orderkey": (17_495, 18_648),
    "l_partkey": (22_788, 23_448),
    "l_quantity": (7_266, 7_248),
    "l_shipdate": (15_117, 16_404),
    "l_extendedprice": (29_317, 29_762),
    "l_discount": (5_283, 5_266),
    "user_id": (25_831, 26_766),
    "bytes_up": (21_698, 22_153),
    "l_shipmode": (4_421, 4_438),
}


@pytest.mark.parametrize("name, recorded, before", [
    pytest.param(name, *_PINS[name], id=f"{name}-{_PINS[name][1]}")
    for name in _PIN_DOMAINS
])
def test_encoded_chunk_size_does_not_grow(name, recorded, before):
    """A format change that fattens a chunk fails here, as an exact
    count, rather than in a noisy timing."""
    type_, values = _pinned_domain(name)
    blob, _ = _encode_column(values, type_)
    assert _decode_column(blob, type_, _PIN_ROWS) == values
    assert len(blob) <= recorded <= before + 20


def test_encoded_pinned_domains_shrink_in_total():
    """Nine domains: 154,133 B in the single-stream layout."""
    total = 0
    for name in _PIN_DOMAINS:
        type_, values = _pinned_domain(name)
        total += len(_encode_column(values, type_)[0])
    assert total <= 150_000
