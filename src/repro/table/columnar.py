"""Parquet-like columnar data files (Fig 5 "data directory").

A :class:`ColumnarFile` stores rows as row groups of column chunks with a
footer of per-column min/max/null statistics — the statistics "support
data skipping within the file".  The binary layout is::

    [u32 footer_len][footer json][rowgroup 0 blocks...][rowgroup 1 ...]

Compression is real (zlib level 6), so the EC+Col-store space numbers of
Fig 14(d) come from measured bytes, not a fudge factor.  What zlib is
handed is typed, so that it never has to squeeze out bytes the value
domain already rules out, and it is handed one byte plane at a time, so
a plane of random low bytes never shares a Huffman block with a plane
of near-constant high bytes.

**Plane frames.**  Every fixed-width chunk body is a list of byte
planes of ``count`` bytes each (``count`` = the footer's row count for
the group), written as one little-endian ``u32`` length per plane
followed by the planes' frames, end to end::

    u32 length[0] .. u32 length[k-1] | frame[0] .. frame[k-1]

A frame whose length equals ``count`` is the plane's raw bytes
(*stored*); a shorter frame is the plane as its own zlib stream
(*deflated*), which must inflate to exactly ``count`` bytes.  The
writer deflates a plane only when that is strictly smaller, so a plane
of random bytes is stored and read back as a view, and a near-constant
plane costs a few dozen bytes.  The lengths must add up to the rest of
the chunk; the reader checks every length before it inflates anything.
One framing serves every body below.

**Numeric chunks** (INT64, TIMESTAMP, FLOAT64) open with one 32-byte
little-endian header, written uncompressed, then their plane frames::

    u8 tag | u8 width | u8 nulls | u8 exponent | u32 count
    i64 base | u64 stride | u64 top

``count`` must equal the footer's row count for the group.  ``tag`` 1
is the *planes* layout: every valid value is ``base + code * stride``
with ``base`` the chunk minimum, ``stride`` the gcd of the distances
to it (1 for a constant chunk) and ``top`` the largest code.  Codes
are unsigned words of ``width`` in {1, 2, 4, 8} bytes — the smallest
that holds ``top``, or ``top + 1`` when the chunk has NULLs — framed as
``width`` byte planes, least significant plane first.  ``nulls`` is 0
for a chunk without NULLs, 1 when NULL is the code ``top + 1`` (no
in-band sentinel: every int64 round-trips) and 2 in the one case with
no code to spare (``top`` = 2**64 - 1, i.e. ``INT64_MIN`` and
``INT64_MAX`` at stride 1), where one more plane follows the code
planes: a validity byte per row (0 NULL, 1 valid).  Arithmetic is
modulo 2**64, which is exact because every result is an int64.

A FLOAT64 chunk takes the planes layout when every valid value is
*bit for bit* ``integer / 10**exponent`` for one ``exponent`` in 0..4
and ``|integer| < 2**53`` — checked on the whole chunk by dividing the
rounded integers back — and then stores those integers.  ``-0.0``, a
NaN, an infinity, a subnormal or any value with more digits fails the
check, and the chunk takes ``tag`` 0, the raw layout: the header with
``width`` 8 (the other fields unused) and the IEEE-754 bits of the
``count`` values as 8 byte planes, NULL written as NaN.  A valid NaN
therefore still reads back as NULL, as it always has; the footer
statistics are computed from the values and order NaN arbitrarily, so
that is out of scope here.  INT64/TIMESTAMP chunks never use the raw
layout.

**BOOL chunks** are one plane, one byte per row: 0 NULL, 1 false,
2 true.

**String chunks** open with one uncompressed tag byte and pick per
chunk, by size before compression, between plain JSON (tag 0: the JSON
list of values as one zlib stream) and dictionary encoding (tag 1:
``u32`` length of the dictionary stream, the JSON list of sorted
distinct values as its own zlib stream, then one code per row as plane
frames at the smallest width holding ``len(dictionary)``, which is the
NULL code) — the classic columnar trick that makes low-cardinality log
fields (provinces, URLs, flags) tiny.

Scanning evaluates an :class:`~repro.table.expr.Expression` with row-group
skipping first (footer stats), then a vectorized filter: chunks decode to
typed :mod:`~repro.table.vector` column vectors (cached in a bounded LRU,
see :mod:`~repro.table.chunkcache`), the predicate evaluates as NumPy
masks, and only the surviving row indices materialize Python objects
(late materialization).  :meth:`ColumnarFile.scan_rows` keeps the
original row-at-a-time loop as an equivalence oracle for tests; it
shares the chunk codec, which has one encoder and one decoder.
"""

from __future__ import annotations

import json
import struct
import zlib
from json.encoder import encode_basestring_ascii

import numpy as np

from repro.errors import CorruptionError, SchemaError
from repro.table.chunkcache import ChunkCache, default_chunk_cache
from repro.table.expr import Expression
from repro.table.schema import ColumnType, Schema
from repro.table.vector import ColumnVector, DictStringVector, NumericVector

#: Default rows per row group.
ROW_GROUP_SIZE = 10_000

_LEN = struct.Struct("<I")

#: chunk encoding tags (first byte of every string-column chunk)
_ENC_PLAIN = 0
_ENC_DICT = 1

#: numeric chunk header: tag, width, nulls, exponent, count, base, stride, top
_HEADER = struct.Struct("<BBBBIqQQ")
_NUM_RAW = 0
_NUM_PLANES = 1
_NULLS_NONE = 0
_NULLS_CODE = 1
_NULLS_MASK = 2
_WIDTHS = (1, 2, 4, 8)
_MAX_EXPONENT = 4
_U64 = 2**64
_ZLIB_LEVEL = 6

_DTYPES = {
    ColumnType.INT64: np.int64,
    ColumnType.TIMESTAMP: np.int64,
    ColumnType.FLOAT64: np.float64,
    ColumnType.BOOL: np.bool_,
}


def _width_for(limit: int) -> int:
    """Bytes per code, the smallest of 1/2/4/8 that holds ``limit``."""
    return next(width for width in _WIDTHS if limit >> (8 * width) == 0)


def _word_planes(codes: np.ndarray, width: int) -> list[memoryview]:
    """Codes as ``width``-byte words, cut into byte planes (least
    significant first) from one transposed buffer."""
    count = len(codes)
    words = np.ascontiguousarray(codes, dtype=f"<u{width}")
    buffer = memoryview(words.view(np.uint8).reshape(count, width).T.tobytes())
    return [buffer[index * count : (index + 1) * count]
            for index in range(width)]


def _frame_planes(planes: list) -> bytes:
    """Length table + one frame per plane: deflated iff that is smaller."""
    frames = []
    for plane in planes:
        deflated = zlib.compress(plane, _ZLIB_LEVEL)
        frames.append(deflated if len(deflated) < len(plane) else plane)
    lengths = struct.pack(f"<{len(frames)}I", *map(len, frames))
    return lengths + b"".join(frames)


def _inflate(stream, size: int | None = None) -> bytes:
    """One whole zlib stream, inflated to exactly ``size`` bytes if given."""
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(stream, size or 0)
    except zlib.error as exc:
        raise CorruptionError(f"chunk stream does not inflate: {exc}") from None
    whole = inflater.eof and not (inflater.unused_data
                                  or inflater.unconsumed_tail)
    if not whole or size not in (None, len(out)):
        raise CorruptionError(
            f"chunk stream inflates to {len(out)} bytes, expected "
            f"{'one whole stream' if size is None else size}"
        )
    return out


def _read_planes(blob: bytes, offset: int, planes: int,
                 count: int) -> list[np.ndarray]:
    """Inverse of :func:`_frame_planes`: ``planes`` uint8 arrays of
    ``count`` bytes, stored planes as views of ``blob``."""
    table_end = offset + _LEN.size * planes
    if len(blob) < table_end:
        raise CorruptionError(
            f"plane length table truncated: {len(blob) - offset} bytes "
            f"for {planes} planes"
        )
    lengths = struct.unpack_from(f"<{planes}I", blob, offset)
    if max(lengths, default=0) > count:
        raise CorruptionError(
            f"plane frame of {max(lengths)} bytes exceeds {count} rows"
        )
    if table_end + sum(lengths) != len(blob):
        raise CorruptionError(
            f"plane frames hold {len(blob) - table_end} bytes, "
            f"length table says {sum(lengths)}"
        )
    view = memoryview(blob)
    out = []
    cursor = table_end
    for length in lengths:
        if length == count:
            out.append(np.frombuffer(blob, np.uint8, count, cursor))
        else:
            plane = _inflate(view[cursor : cursor + length], count)
            out.append(np.frombuffer(plane, np.uint8))
        cursor += length
    return out


def _join_planes(planes: list[np.ndarray], dtype) -> np.ndarray:
    """Words of ``dtype`` from little-endian byte planes, least
    significant first (a width-1 chunk is one widening copy)."""
    if len(planes) == 1:
        return planes[0].astype(dtype)
    size = np.dtype(dtype).itemsize
    words = np.zeros((len(planes[0]), size), dtype=np.uint8)
    for index, plane in enumerate(planes):
        words[:, index] = plane
    return words.view(f"<u{size}").reshape(-1).astype(dtype, copy=False)


def _load_json(raw: bytes) -> object:
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise CorruptionError(f"string chunk is not JSON: {exc}") from None


def _encode_strings(values: list[object]
                    ) -> tuple[bytes, tuple[object, object, int]]:
    """The chunk and footer statistics ``(min, max, nulls)`` of a string
    column, plain JSON or dictionary encoding, whichever is smaller.

    Dictionary encoding pays off exactly when the column is
    low-cardinality (provinces, URLs, status flags): distinct values are
    stored once and rows become small integer codes.  The sorted
    dictionary gives the codes; the codes' counts give the plain-JSON
    size the choice is made against; the dictionary's ends and the NULL
    count are the statistics; plain JSON is serialized only when chosen.
    """
    present = set(values)
    present.discard(None)
    if not values or len(present) > max(1, len(values) // 2):
        nulls = values.count(None)
        stats = (min(present), max(present), nulls) if present else \
            (None, None, nulls)
        return _plain_strings(values), stats
    distinct = sorted(present)
    mapping = dict(zip(distinct, range(len(distinct))))
    mapping[None] = len(distinct)
    codes = np.fromiter(
        map(mapping.__getitem__, values), dtype=np.uint32, count=len(values)
    )
    *counts, nulls = np.bincount(codes, minlength=len(distinct) + 1).tolist()
    stats = (distinct[0], distinct[-1], nulls) if distinct else \
        (None, None, nulls)
    items = list(map(encode_basestring_ascii, distinct))
    dictionary = f"[{','.join(items)}]".encode()
    width = _width_for(len(distinct))
    # "[" + values joined by "," + "]", NULL spelled "null"
    plain_size = len(values) + 1 + 4 * nulls + sum(
        map(int.__mul__, map(len, items), counts)
    )
    if _LEN.size + len(dictionary) + width * len(values) >= plain_size:
        return _plain_strings(values), stats
    stream = zlib.compress(dictionary, _ZLIB_LEVEL)
    chunk = (
        bytes([_ENC_DICT]) + _LEN.pack(len(stream)) + stream
        + _frame_planes(_word_planes(codes, width))
    )
    return chunk, stats


def _plain_strings(values: list[object]) -> bytes:
    plain = json.dumps(values, separators=(",", ":")).encode()
    return bytes([_ENC_PLAIN]) + zlib.compress(plain, _ZLIB_LEVEL)


def _split_dictionary(blob: bytes, count: int
                      ) -> tuple[list[object], np.ndarray]:
    """Dictionary and uint32 codes of a dictionary-encoded chunk."""
    if len(blob) < 1 + _LEN.size:
        raise CorruptionError("dictionary chunk shorter than its header")
    (stream_len,) = _LEN.unpack_from(blob, 1)
    start = 1 + _LEN.size + stream_len
    if start > len(blob):
        raise CorruptionError(
            f"dictionary stream of {stream_len} bytes overruns the chunk"
        )
    dictionary = _load_json(_inflate(memoryview(blob)[1 + _LEN.size : start]))
    if not isinstance(dictionary, list):
        raise CorruptionError("string dictionary is not a JSON list")
    width = _width_for(len(dictionary))
    codes = _join_planes(_read_planes(blob, start, width, count), np.uint32)
    return dictionary, codes


def _plain_values(blob: bytes, count: int) -> list[object]:
    values = _load_json(_inflate(memoryview(blob)[1:]))
    if not isinstance(values, list) or len(values) != count:
        raise CorruptionError(
            f"plain string chunk is not a list of {count} values"
        )
    return values


def _string_tag(blob: bytes) -> int:
    if not blob:
        raise CorruptionError("empty string chunk")
    if blob[0] not in (_ENC_PLAIN, _ENC_DICT):
        raise CorruptionError(f"unknown string chunk encoding {blob[0]}")
    return blob[0]


def _decode_strings(blob: bytes, count: int) -> list[object]:
    if _string_tag(blob) == _ENC_PLAIN:
        return _plain_values(blob, count)
    dictionary, codes = _split_dictionary(blob, count)
    null_code = len(dictionary)
    return [None if c == null_code else dictionary[c] for c in codes.tolist()]


def _encode_integers(values: np.ndarray, valid: np.ndarray,
                     exponent: int = 0) -> bytes:
    """The planes layout of an int64 array (see the module docstring)."""
    all_valid = bool(valid.all())
    present = values if all_valid else values[valid]
    base = high = 0
    if present.size:
        base, high = int(present.min()), int(present.max())
    # distances to the minimum need 64 unsigned bits, not 63
    codes = values.view(np.uint64) - np.uint64(base % _U64)
    stride = int(np.gcd.reduce(codes if all_valid else codes[valid])) or 1
    if stride > 1:
        codes //= np.uint64(stride)
    top = (high - base) // stride
    nulls, limit = _NULLS_NONE, top
    if not all_valid and top + 1 < _U64:
        nulls, limit = _NULLS_CODE, top + 1
        codes[~valid] = limit
    elif not all_valid:  # every code is a value: spell validity out
        nulls = _NULLS_MASK
        codes[~valid] = 0
    width = _width_for(limit)
    header = _HEADER.pack(
        _NUM_PLANES, width, nulls, exponent, len(values), base, stride, top
    )
    planes = _word_planes(codes, width)
    if nulls == _NULLS_MASK:
        planes.append(valid.tobytes())
    return header + _frame_planes(planes)


def _decimal_integers(present: np.ndarray) -> tuple[np.ndarray, int] | None:
    """``(integers, k)`` with ``integers / 10**k`` equal to ``present``
    bit for bit, for the smallest k that has one; else None."""
    bits = present.view(np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for exponent in range(_MAX_EXPONENT + 1):
            scale = 10.0 ** exponent
            scaled = present * scale
            if not (np.abs(scaled) < 2.0**53).all():  # NaN and inf land here
                return None
            integers = np.rint(scaled).astype(np.int64)
            if ((integers / scale).view(np.int64) == bits).all():
                return integers, exponent
    return None


def _encode_floats(values: np.ndarray, valid: np.ndarray) -> bytes:
    all_valid = bool(valid.all())
    decimal = _decimal_integers(values if all_valid else values[valid])
    if decimal is None:
        header = _HEADER.pack(_NUM_RAW, 8, 0, 0, len(values), 0, 1, 0)
        words = values if all_valid else np.where(valid, values, np.nan)
        bits = words.astype("<f8", copy=False).view("<u8")
        return header + _frame_planes(_word_planes(bits, 8))
    integers, exponent = decimal
    if not all_valid:
        spread = np.zeros(len(values), dtype=np.int64)
        spread[valid] = integers
        integers = spread
    return _encode_integers(integers, valid, exponent)


def _decode_numeric(blob: bytes, type_: ColumnType,
                    count: int) -> NumericVector:
    """Inverse of :func:`_encode_integers` / :func:`_encode_floats`."""
    if len(blob) < _HEADER.size:
        raise CorruptionError("numeric chunk shorter than its header")
    tag, width, nulls, exponent, stored, base, stride, top = \
        _HEADER.unpack_from(blob)
    if stored != count:
        raise CorruptionError(f"numeric chunk holds {stored} rows != {count}")
    is_float = type_ is ColumnType.FLOAT64
    if tag == _NUM_RAW and is_float:
        if width != 8:
            raise CorruptionError(f"raw float chunk has width {width} != 8")
        bits = _join_planes(_read_planes(blob, _HEADER.size, 8, count),
                            np.uint64)
        array = bits.view(np.float64)
        return NumericVector(array, ~np.isnan(array))
    if tag != _NUM_PLANES:
        raise CorruptionError(f"unknown numeric chunk layout {tag}")
    if (width not in _WIDTHS or nulls > _NULLS_MASK
            or exponent > (_MAX_EXPONENT if is_float else 0)
            or (top + (nulls == _NULLS_CODE)) >> (8 * width)):
        raise CorruptionError(
            f"numeric chunk header out of range: width {width}, "
            f"nulls {nulls}, exponent {exponent}, top {top}"
        )
    planes = _read_planes(
        blob, _HEADER.size, width + (nulls == _NULLS_MASK), count
    )
    words = _join_planes(planes[:width], np.uint64)
    if nulls == _NULLS_NONE:
        valid = np.ones(count, dtype=bool)
    elif nulls == _NULLS_CODE:
        valid = words != top + 1
    else:
        valid = planes[width] != 0
    if stride != 1:
        words *= np.uint64(stride)
    words += np.uint64(base % _U64)
    values = words.view(np.int64)
    if is_float:
        values = values / 10.0 ** exponent
    if nulls:
        values[~valid] = np.nan if is_float else 0
    return NumericVector(values, valid)


def _numeric_vector(values: list[object], type_: ColumnType) -> NumericVector:
    """Python values (None = NULL) as the typed vector the codec takes."""
    return NumericVector(
        np.array([0 if v is None else v for v in values], _DTYPES[type_]),
        np.array([v is not None for v in values], dtype=bool),
    )


def _encode_column(values: list[object], type_: ColumnType
                   ) -> tuple[bytes, tuple[object, object, int]]:
    """Chunk + footer statistics ``(min, max, nulls)`` of Python values."""
    if type_ is ColumnType.STRING:
        return _encode_strings(values)
    chunk = _encode_vector(_numeric_vector(values, type_), type_)
    return chunk, _column_stats(values)


def _decode_column(blob: bytes, type_: ColumnType, count: int) -> list[object]:
    if type_ is ColumnType.STRING:
        return _decode_strings(blob, count)
    return _decode_vector(blob, type_, count).to_list()


def _strings_to_vector(blob: bytes, count: int) -> DictStringVector:
    """Decode a string chunk to dictionary form without a row-dict detour.

    Dictionary-encoded chunks map straight through; plain-JSON chunks are
    factorized (distinct values + codes) so both representations share
    the vectorized compare/take path.
    """
    if _string_tag(blob) == _ENC_DICT:
        return DictStringVector(*_split_dictionary(blob, count))
    values = _plain_values(blob, count)
    # distinct values in first-seen order; NULL takes the code past them
    distinct = dict.fromkeys(values)
    distinct.pop(None, None)
    dictionary = list(distinct)
    mapping = dict(zip(dictionary, range(len(dictionary))))
    mapping[None] = len(dictionary)
    codes = np.fromiter(
        map(mapping.__getitem__, values), dtype=np.uint32, count=count
    )
    return DictStringVector(dictionary, codes)


def _decode_vector(blob: bytes, type_: ColumnType, count: int) -> ColumnVector:
    """Decode one chunk to its typed vector form."""
    if type_ is ColumnType.STRING:
        return _strings_to_vector(blob, count)
    if type_ is ColumnType.BOOL:
        (codes,) = _read_planes(blob, 0, 1, count)
        return NumericVector(codes == 2, codes != 0)
    return _decode_numeric(blob, type_, count)


def _column_stats(values: list[object]) -> tuple[object, object, int]:
    present = [v for v in values if v is not None]
    nulls = len(values) - len(present)
    if not present:
        return None, None, nulls
    return min(present), max(present), nulls


def _encode_vector(vector: NumericVector, type_: ColumnType) -> bytes:
    """Encode a typed vector to its chunk — no Python rows."""
    valid = vector.valid()
    if type_ in (ColumnType.INT64, ColumnType.TIMESTAMP):
        return _encode_integers(
            vector.values.astype(np.int64, copy=False), valid
        )
    if type_ is ColumnType.FLOAT64:
        return _encode_floats(
            vector.values.astype(np.float64, copy=False), valid
        )
    if type_ is ColumnType.BOOL:
        codes = np.where(
            valid, vector.values.astype(np.uint8, copy=False) + 1, 0
        ).astype(np.uint8)
        return _frame_planes([codes.tobytes()])
    raise SchemaError("string column cannot encode from a NumericVector")


def _vector_stats(vector: NumericVector,
                  type_: ColumnType) -> tuple[object, object, int]:
    """min/max/null-count of a typed vector via NumPy reductions."""
    valid = vector.valid()
    nulls = int(len(vector) - valid.sum())
    if nulls == len(vector):
        return None, None, nulls
    present = vector.values[valid]
    low, high = present.min(), present.max()
    if type_ in (ColumnType.INT64, ColumnType.TIMESTAMP):
        return int(low), int(high), nulls
    if type_ is ColumnType.BOOL:
        return bool(low), bool(high), nulls
    return float(low), float(high), nulls


def concat_columns(schema: Schema,
                   parts: "list[dict[str, ColumnVector | list[object]]]"
                   ) -> "dict[str, ColumnVector | list[object]]":
    """Several files' :meth:`ColumnarFile.to_columns` data, end to end."""
    out: dict[str, ColumnVector | list[object]] = {}
    for column in schema.columns:
        pieces = [part[column.name] for part in parts]
        if column.type is ColumnType.STRING:
            out[column.name] = [value for piece in pieces for value in piece]
            continue
        # the typed empty lead keeps zero files a typed empty column
        values = [np.empty(0, dtype=_DTYPES[column.type])]
        valid = [np.empty(0, dtype=bool)]
        for piece in pieces:
            values.append(piece.values)
            valid.append(piece.valid())
        out[column.name] = NumericVector(
            np.concatenate(values), np.concatenate(valid)
        )
    return out


def gather_column(data: "ColumnVector | list[object]",
                  indices: np.ndarray) -> "ColumnVector | list[object]":
    """Row-subset of one column's data (partition split / filtering)."""
    if isinstance(data, NumericVector):
        return NumericVector(data.values[indices], data.valid()[indices])
    if isinstance(data, ColumnVector):
        return data.take(indices)
    return [data[i] for i in indices.tolist()]


class _RowGroup:
    """Column chunks + statistics for one horizontal stripe of rows."""

    def __init__(self, schema: Schema, rows: list[dict[str, object]]) -> None:
        self.num_rows = len(rows)
        self.chunks: dict[str, bytes] = {}
        self.stats: dict[str, tuple[object, object]] = {}
        self.null_counts: dict[str, int] = {}
        for column in schema.columns:
            values = [row.get(column.name) for row in rows]
            self.chunks[column.name], (low, high, nulls) = _encode_column(
                values, column.type
            )
            self.stats[column.name] = (low, high)
            self.null_counts[column.name] = nulls

    @classmethod
    def from_columns(cls, schema: Schema,
                     columns: "dict[str, ColumnVector | list[object]]",
                     start: int, stop: int) -> "_RowGroup":
        """Build one row group straight from column data (no row dicts).

        ``NumericVector`` columns encode and compute statistics through
        NumPy slices; list columns (strings) go through the row-path
        encoders, which need Python values anyway for JSON/dictionary
        encoding.
        """
        group = cls.__new__(cls)
        group.num_rows = stop - start
        group.chunks = {}
        group.stats = {}
        group.null_counts = {}
        for column in schema.columns:
            data = columns[column.name]
            if isinstance(data, NumericVector):
                part = NumericVector(
                    data.values[start:stop], data.valid()[start:stop]
                )
                group.chunks[column.name] = _encode_vector(part, column.type)
                low, high, nulls = _vector_stats(part, column.type)
            else:
                values = (
                    data[start:stop] if isinstance(data, list)
                    else data.take(np.arange(start, stop))
                )
                group.chunks[column.name], (low, high, nulls) = \
                    _encode_column(values, column.type)
            group.stats[column.name] = (low, high)
            group.null_counts[column.name] = nulls
        return group

    @property
    def compressed_bytes(self) -> int:
        return sum(len(chunk) for chunk in self.chunks.values())


class FileFooter:
    """A parsed columnar-file footer: schema + row-group metadata.

    Parsing the JSON footer is the metadata half of ``from_bytes``; the
    footer cache tier (:mod:`repro.cache.hierarchy`) keeps these parsed
    objects so repeated pruning, the aggregation fast path and
    re-opening a cached payload all skip the JSON decode.  Chunk
    positions are stored as **absolute offsets** into the serialized
    file, so :meth:`ColumnarFile.from_footer` can slice a payload
    without re-reading the footer.

    Footers are immutable once parsed — the cache shares one instance
    across queries.
    """

    __slots__ = ("schema", "groups", "footer_end", "encoded_bytes")

    def __init__(self, schema: Schema,
                 groups: list[_RowGroup],
                 chunk_spans: list[list[tuple[str, int, int]]],
                 footer_end: int, encoded_bytes: int) -> None:
        self.schema = schema
        #: per row group: [(column name, absolute offset, chunk length)]
        self.groups = list(zip(groups, chunk_spans))
        self.footer_end = footer_end
        #: serialized footer size — what the footer cache tier charges
        self.encoded_bytes = encoded_bytes

    @classmethod
    def parse(cls, data: bytes) -> "FileFooter":
        """Parse the footer region of a serialized columnar file."""
        if len(data) < _LEN.size:
            raise CorruptionError("columnar file shorter than its header")
        (footer_len,) = _LEN.unpack_from(data)
        if len(data) < _LEN.size + footer_len:
            raise CorruptionError("columnar file footer truncated")
        footer = json.loads(data[_LEN.size : _LEN.size + footer_len])
        schema = Schema.from_dict(footer["schema"])
        cursor = _LEN.size + footer_len
        groups: list[_RowGroup] = []
        chunk_spans: list[list[tuple[str, int, int]]] = []
        for meta in footer["groups"]:
            group = _RowGroup.__new__(_RowGroup)
            group.num_rows = meta["rows"]
            group.stats = {
                name: tuple(bounds) for name, bounds in meta["stats"].items()
            }
            group.null_counts = meta["nulls"]
            group.chunks = {}  # filled per payload by from_footer
            spans = []
            for name, chunk_len in meta["chunks"]:
                spans.append((name, cursor, chunk_len))
                cursor += chunk_len
            groups.append(group)
            chunk_spans.append(spans)
        return cls(
            schema, groups, chunk_spans,
            footer_end=_LEN.size + footer_len,
            encoded_bytes=_LEN.size + footer_len,
        )

    @property
    def num_rows(self) -> int:
        return sum(group.num_rows for group, _ in self.groups)

    @property
    def num_row_groups(self) -> int:
        return len(self.groups)

    def group_summaries(self) -> list[
        tuple[int, dict[str, tuple[object, object]], dict[str, int]]
    ]:
        """Per-row-group ``(num_rows, stats, null_counts)`` — the same
        shape :meth:`ColumnarFile.group_summaries` returns, so the
        aggregation footer fast path runs from the cached footer with
        zero payload bytes touched."""
        return [
            (group.num_rows, dict(group.stats), dict(group.null_counts))
            for group, _ in self.groups
        ]

    def file_stats(self) -> dict[str, tuple[object, object]]:
        """File-level min/max per column (union of row-group stats)."""
        merged: dict[str, tuple[object, object]] = {}
        for group, _ in self.groups:
            for name, (low, high) in group.stats.items():
                if low is None:
                    continue
                if name not in merged or merged[name][0] is None:
                    merged[name] = (low, high)
                else:
                    merged[name] = (
                        min(merged[name][0], low),  # type: ignore[type-var]
                        max(merged[name][1], high),  # type: ignore[type-var]
                    )
        for column in self.schema.columns:
            merged.setdefault(column.name, (None, None))
        return merged


class ColumnarFile:
    """An immutable columnar data file with footer statistics."""

    def __init__(self, schema: Schema, groups: list[_RowGroup]) -> None:
        self.schema = schema
        self._groups = groups

    # --- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: list[dict[str, object]],
                  row_group_size: int = ROW_GROUP_SIZE,
                  pre_validated: bool = False) -> "ColumnarFile":
        """Build from row dicts; ``pre_validated`` skips re-validation.

        Writers that already ran :meth:`Schema.validate_row` per row (the
        table INSERT/UPDATE paths) pass ``pre_validated=True`` so rows are
        not validated twice.
        """
        if row_group_size < 1:
            raise ValueError("row_group_size must be >= 1")
        if not pre_validated:
            for row in rows:
                schema.validate_row(row)
        groups = [
            _RowGroup(schema, rows[start : start + row_group_size])
            for start in range(0, len(rows), row_group_size)
        ]
        return cls(schema, groups)

    @classmethod
    def from_columns(cls, schema: Schema,
                     columns: "dict[str, ColumnVector | list[object]]",
                     num_rows: int,
                     row_group_size: int = ROW_GROUP_SIZE) -> "ColumnarFile":
        """Build row groups directly from column data — the vectorized
        write path used by stream->table conversion and compaction.

        ``columns`` maps every schema column to a :class:`NumericVector`
        (typed values + validity mask) or a plain Python value list
        (strings).  Values are trusted — callers validate during column
        construction (vectorized), not per row here.
        """
        if row_group_size < 1:
            raise ValueError("row_group_size must be >= 1")
        missing = set(schema.names) - set(columns)
        if missing:
            raise SchemaError(f"missing columns {sorted(missing)}")
        for name, data in columns.items():
            if len(data) != num_rows:
                raise SchemaError(
                    f"column {name!r} has {len(data)} values, "
                    f"expected {num_rows}"
                )
        groups = [
            _RowGroup.from_columns(
                schema, columns, start, min(start + row_group_size, num_rows)
            )
            for start in range(0, num_rows, row_group_size)
        ]
        return cls(schema, groups)

    # --- metadata -------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return sum(group.num_rows for group in self._groups)

    @property
    def num_row_groups(self) -> int:
        return len(self._groups)

    @property
    def size_bytes(self) -> int:
        """Compressed data size plus a footer estimate."""
        return sum(group.compressed_bytes for group in self._groups) + 256

    def file_stats(self) -> dict[str, tuple[object, object]]:
        """File-level min/max per column (union of row-group stats)."""
        merged: dict[str, tuple[object, object]] = {}
        for group in self._groups:
            for name, (low, high) in group.stats.items():
                if low is None:
                    continue
                if name not in merged or merged[name][0] is None:
                    merged[name] = (low, high)
                else:
                    merged[name] = (
                        min(merged[name][0], low),  # type: ignore[type-var]
                        max(merged[name][1], high),  # type: ignore[type-var]
                    )
        for column in self.schema.columns:
            merged.setdefault(column.name, (None, None))
        return merged

    # --- scan --------------------------------------------------------------------

    def _validate_projection(self, predicate: Expression | None,
                             columns: list[str] | None
                             ) -> tuple[list[str], set[str]]:
        projection = columns if columns is not None else self.schema.names
        needed = set(projection)
        if predicate is not None:
            needed |= predicate.columns()
        unknown = needed - set(self.schema.names)
        if unknown:
            raise SchemaError(f"scan references unknown columns {sorted(unknown)}")
        return projection, needed

    def _vector(self, group: _RowGroup, name: str,
                cache: ChunkCache) -> ColumnVector:
        """Decoded vector for one chunk, via the bounded LRU cache.

        The key is content-addressed (type, row count, compressed blob)
        so it stays valid across ``from_bytes`` round trips of the same
        data and can never alias a different chunk.
        """
        type_ = self.schema.column(name).type
        blob = group.chunks[name]
        key = (type_.value, group.num_rows, blob)
        vector = cache.get(key)
        if vector is None:
            vector = _decode_vector(blob, type_, group.num_rows)
            cache.put(key, vector)
        return vector

    def scan(self, predicate: Expression | None = None,
             columns: list[str] | None = None,
             cache: ChunkCache | None = None) -> list[dict[str, object]]:
        """Return matching rows, projecting to ``columns`` when given.

        Row groups whose footer statistics rule out the predicate are
        skipped without decompression.  Within a surviving group only the
        predicate's columns decode up front; the projected columns
        materialize Python objects solely at the matching row indices
        (late materialization).
        """
        projection, _ = self._validate_projection(predicate, columns)
        cache = cache if cache is not None else default_chunk_cache()
        out: list[dict[str, object]] = []
        for group in self._groups:
            if predicate is not None and not predicate.possibly_matches(group.stats):
                continue
            if predicate is not None:
                vectors = {
                    name: self._vector(group, name, cache)
                    for name in predicate.columns()
                }
                mask = predicate.mask(vectors, group.num_rows)
                indices = np.flatnonzero(mask)
                if indices.size == 0:
                    continue
                matched = int(indices.size)
            else:
                indices = None  # every row matches
                matched = group.num_rows
            if not projection:
                out.extend({} for _ in range(matched))
                continue
            materialized = []
            for name in projection:
                vector = self._vector(group, name, cache)
                materialized.append(
                    vector.to_list() if indices is None else vector.take(indices)
                )
            out.extend(
                dict(zip(projection, values))
                for values in zip(*materialized)
            )
        return out

    def select_vectors(self, columns: list[str],
                       predicate: Expression | None = None,
                       cache: ChunkCache | None = None):
        """Vectorized column access: per surviving row group, yield
        ``(vectors, mask, num_rows)`` without building a single row.

        ``vectors`` maps each requested column to its decoded typed
        vector (values + validity mask, through the shared chunk cache);
        ``mask`` is the predicate's boolean match mask over the group
        (``None`` when unpredicated).  Row groups pruned by footer
        statistics or whose mask is all-False are skipped before the
        requested columns decode.  This is the decode layer under the
        aggregation engine (:mod:`repro.table.agg`).
        """
        self._validate_projection(predicate, columns)
        cache = cache if cache is not None else default_chunk_cache()
        for group in self._groups:
            if predicate is not None and not predicate.possibly_matches(
                group.stats
            ):
                continue
            mask = None
            decoded: dict[str, ColumnVector] = {}
            if predicate is not None:
                for name in predicate.columns():
                    decoded[name] = self._vector(group, name, cache)
                mask = predicate.mask(decoded, group.num_rows)
                if not mask.any():
                    continue
            vectors = {}
            for name in columns:
                vector = decoded.get(name)
                if vector is None:
                    vector = self._vector(group, name, cache)
                vectors[name] = vector
            yield vectors, mask, group.num_rows

    def group_summaries(self) -> list[
        tuple[int, dict[str, tuple[object, object]], dict[str, int]]
    ]:
        """Per-row-group ``(num_rows, stats, null_counts)`` straight from
        the footer — the aggregation engine's MIN/MAX/COUNT fast path
        reads these without decompressing any data chunk."""
        return [
            (group.num_rows, dict(group.stats), dict(group.null_counts))
            for group in self._groups
        ]

    def scan_rows(self, predicate: Expression | None = None,
                  columns: list[str] | None = None) -> list[dict[str, object]]:
        """Row-at-a-time scan (the pre-vectorization path).

        Kept as the equivalence oracle: tests assert ``scan`` returns
        exactly what this returns on randomized schemas and predicates.
        """
        projection, needed = self._validate_projection(predicate, columns)
        out: list[dict[str, object]] = []
        for group in self._groups:
            if predicate is not None and not predicate.possibly_matches(group.stats):
                continue
            decoded = {
                name: _decode_column(
                    group.chunks[name],
                    self.schema.column(name).type,
                    group.num_rows,
                )
                for name in needed
            }
            for index in range(group.num_rows):
                row = {name: decoded[name][index] for name in decoded}
                if predicate is None or predicate.matches(row):
                    out.append({name: row[name] for name in projection})
        return out

    def count(self, predicate: Expression | None = None,
              cache: ChunkCache | None = None) -> int:
        """Pushed-down COUNT(*): mask sums only, no row dicts are built."""
        if predicate is None:
            return self.num_rows
        cache = cache if cache is not None else default_chunk_cache()
        total = 0
        for group in self._groups:
            if not predicate.possibly_matches(group.stats):
                continue
            vectors = {
                name: self._vector(group, name, cache)
                for name in predicate.columns()
            }
            total += int(predicate.mask(vectors, group.num_rows).sum())
        return total

    def skipped_row_groups(self, predicate: Expression) -> int:
        """How many row groups the footer statistics prune for a predicate."""
        return sum(
            1 for group in self._groups
            if not predicate.possibly_matches(group.stats)
        )

    def group_stats(self) -> list[dict[str, tuple[object, object]]]:
        return [dict(group.stats) for group in self._groups]

    def to_columns(self, cache: ChunkCache | None = None
                   ) -> "dict[str, ColumnVector | list[object]]":
        """Decode the whole file to per-column data (compaction path).

        Numeric/bool/timestamp columns come back as one concatenated
        :class:`NumericVector` per column; string columns materialize to
        Python lists (their re-encoding needs the values regardless).
        Chunk decodes go through the shared LRU ``cache``, so files that
        were recently scanned merge without re-decompressing anything.
        The result feeds :meth:`from_columns` without ever building a row.
        """
        cache = cache if cache is not None else default_chunk_cache()
        out: dict[str, ColumnVector | list[object]] = {}
        for column in self.schema.columns:
            if column.type is ColumnType.STRING:
                values: list[object] = []
                for group in self._groups:
                    values.extend(
                        self._vector(group, column.name, cache).to_list()
                    )
                out[column.name] = values
                continue
            vectors = [
                self._vector(group, column.name, cache)
                for group in self._groups
            ]
            if not vectors:
                dtype = _DTYPES[column.type]
                out[column.name] = NumericVector(
                    np.empty(0, dtype=dtype), np.empty(0, dtype=bool)
                )
                continue
            out[column.name] = NumericVector(
                np.concatenate([v.values for v in vectors]),
                np.concatenate([v.valid() for v in vectors]),
            )
        return out

    # --- serialization --------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize footer + column chunks."""
        footer = {
            "schema": self.schema.to_dict(),
            "groups": [
                {
                    "rows": group.num_rows,
                    "stats": {
                        name: list(bounds) for name, bounds in group.stats.items()
                    },
                    "nulls": group.null_counts,
                    "chunks": [
                        [name, len(group.chunks[name])]
                        for name in self.schema.names
                    ],
                }
                for group in self._groups
            ],
        }
        footer_blob = json.dumps(footer, separators=(",", ":")).encode()
        body = b"".join(
            group.chunks[name]
            for group in self._groups
            for name in self.schema.names
        )
        return _LEN.pack(len(footer_blob)) + footer_blob + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "ColumnarFile":
        return cls.from_footer(FileFooter.parse(data), data)

    @classmethod
    def from_footer(cls, footer: FileFooter, data: bytes) -> "ColumnarFile":
        """Open a payload through an already-parsed footer.

        The footer-cache fast path: when the hierarchy holds the parsed
        :class:`FileFooter` for a payload, re-opening it skips the JSON
        footer decode and only slices chunk blobs.  Row-group statistics
        dicts are *shared* with the footer (treated as immutable);
        chunk slices are taken fresh from ``data``.
        """
        groups: list[_RowGroup] = []
        for proto, spans in footer.groups:
            group = _RowGroup.__new__(_RowGroup)
            group.num_rows = proto.num_rows
            group.stats = proto.stats
            group.null_counts = proto.null_counts
            group.chunks = {}
            for name, offset, chunk_len in spans:
                blob = data[offset : offset + chunk_len]
                if len(blob) != chunk_len:
                    raise CorruptionError("columnar file truncated")
                group.chunks[name] = blob
            groups.append(group)
        return cls(footer.schema, groups)
