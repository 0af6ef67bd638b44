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

**Writes take vectors.**  Row groups encode from slices of a
:class:`NumericVector` or :class:`DictStringVector` per column; a value
list becomes one only at the write edge (:func:`edge_vectors`).  A
string chunk depends on its slice's values alone, not on the vector's
dictionary order or unused entries.

Scanning evaluates an :class:`~repro.table.expr.Expression` with row-group
skipping first (footer stats), then a vectorized filter: chunks decode to
typed :mod:`~repro.table.vector` column vectors (cached in the chunk
tier, see :mod:`~repro.cache.hierarchy`), the predicate evaluates as NumPy
masks, and only the surviving row indices materialize Python objects
(late materialization).  The chunk codec has one encoder and one
decoder; the row-at-a-time scan that the vector path is tested against
lives with the tests (``tests/table/rowwise.py``).
"""

from __future__ import annotations

import json
import struct
import zlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from repro.cache.hierarchy import admit_chunk, default_hierarchy
from repro.cache.tier import CacheTier
from repro.errors import CorruptionError, SchemaError
from repro.table.expr import Expression
from repro.table.schema import ColumnType, Schema
from repro.table.vector import (
    ColumnVector,
    DictStringVector,
    NumericVector,
    concat_vectors,
)

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


def _encode_strings(vector: DictStringVector
                    ) -> tuple[bytes, tuple[object, object, int]]:
    """The chunk and footer statistics ``(min, max, nulls)`` of a string
    column slice, plain JSON or dictionary encoding, whichever is smaller.

    Dictionary encoding pays off exactly when the column is
    low-cardinality (provinces, URLs, status flags): distinct values are
    stored once and rows become small integer codes.  One ``bincount``
    over the slice's codes finds the entries it uses and how often; only
    those are sorted, and their ranks are the chunk's codes.  The counts
    give the plain-JSON size the choice is made against; the sorted ends
    and the NULL count are the statistics; plain JSON is serialized only
    when chosen.
    """
    codes = vector.codes
    count = len(codes)
    counts = np.bincount(codes, minlength=len(vector.dictionary) + 1)
    nulls = int(counts[-1])
    used = np.flatnonzero(counts[:-1])
    present = [vector.dictionary[code] for code in used.tolist()]
    if not count or len(present) > max(1, count // 2):
        stats = (min(present), max(present), nulls) if present else \
            (None, None, nulls)
        return _plain_strings(vector.to_list()), stats
    order = sorted(range(len(present)), key=present.__getitem__)
    distinct = [present[index] for index in order]
    stats = (distinct[0], distinct[-1], nulls) if distinct else \
        (None, None, nulls)
    items = list(map(encode_basestring_ascii, distinct))
    dictionary = f"[{','.join(items)}]".encode()
    width = _width_for(len(distinct))
    # "[" + values joined by "," + "]", NULL spelled "null"
    plain_size = count + 1 + 4 * nulls + sum(
        map(int.__mul__, map(len, items), counts[used[order]].tolist())
    )
    if _LEN.size + len(dictionary) + width * count >= plain_size:
        return _plain_strings(vector.to_list()), stats
    # old code -> rank in the sorted dictionary; unused codes and NULL
    # map to the NULL code, len(distinct)
    remap = np.full(len(vector.dictionary) + 1, len(distinct), np.uint32)
    remap[used[order]] = np.arange(len(distinct), dtype=np.uint32)
    stream = zlib.compress(dictionary, _ZLIB_LEVEL)
    chunk = (
        bytes([_ENC_DICT]) + _LEN.pack(len(stream)) + stream
        + _frame_planes(_word_planes(remap[codes], width))
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
    # vectors rely on distinct entries (ndv, re-encoding); writers sort
    if any(type(value) is not str for value in dictionary) or any(
            map(str.__ge__, dictionary, dictionary[1:])):
        raise CorruptionError("string dictionary is not sorted and distinct")
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


def numeric_vector(values: list[object], type_: ColumnType) -> NumericVector:
    """Python values (None = NULL) as the typed vector the codec takes."""
    return NumericVector(
        np.array([0 if v is None else v for v in values], _DTYPES[type_]),
        np.array([v is not None for v in values], dtype=bool),
    )


def edge_vectors(schema: Schema, columns: "Mapping[str, object]",
                 num_rows: int) -> dict[str, ColumnVector]:
    """The write edge: every schema column of ``columns`` as a vector.

    The one place a table write turns a Python value list (``None`` =
    NULL) into a vector: a STRING list is factorized once
    (:meth:`DictStringVector.from_values`), any other becomes a
    :class:`NumericVector` (an ``int`` in a FLOAT64 column is a float
    from here on); a vector passes through.  Raises :class:`SchemaError`
    for a missing column or a length other than ``num_rows``.
    """
    missing = set(schema.names) - set(columns)
    if missing:
        raise SchemaError(f"missing columns {sorted(missing)}")
    out: dict[str, ColumnVector] = {}
    for column in schema.columns:
        data = columns[column.name]
        if len(data) != num_rows:
            raise SchemaError(
                f"column {column.name!r} has {len(data)} values, "
                f"expected {num_rows}"
            )
        if isinstance(data, ColumnVector):
            out[column.name] = data
        elif column.type is ColumnType.STRING:
            out[column.name] = DictStringVector.from_values(data)
        else:
            out[column.name] = numeric_vector(data, column.type)
    return out


def _strings_to_vector(blob: bytes, count: int) -> DictStringVector:
    """Decode a string chunk to dictionary form without a row-dict detour.

    Dictionary-encoded chunks map straight through; plain-JSON chunks are
    factorized (distinct values + codes) so both representations share
    the vectorized compare/take path.
    """
    if _string_tag(blob) == _ENC_DICT:
        return DictStringVector(*_split_dictionary(blob, count))
    return DictStringVector.from_values(_plain_values(blob, count))


def _decode_vector(blob: bytes, type_: ColumnType, count: int) -> ColumnVector:
    """Decode one chunk to its typed vector form."""
    if type_ is ColumnType.STRING:
        return _strings_to_vector(blob, count)
    if type_ is ColumnType.BOOL:
        (codes,) = _read_planes(blob, 0, 1, count)
        return NumericVector(codes == 2, codes != 0)
    return _decode_numeric(blob, type_, count)


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


def decode_columns(schema: Schema, files: "Iterable[ColumnarFile]",
                   cache: CacheTier | None = None) -> dict[str, ColumnVector]:
    """Every row of ``files`` (iterated once), in order, as one vector per
    column.

    Chunks decode through the chunk tier ``cache`` (file by file, column
    by column, group by group), so files that were recently scanned
    merge without re-decompressing anything, and each column's chunks
    concatenate once (:func:`~repro.table.vector.concat_vectors`).  The
    result feeds :meth:`ColumnarFile.from_columns` without ever building
    a row; zero row groups give empty columns.
    """
    cache = cache if cache is not None else default_hierarchy().chunks
    parts: dict[str, list[ColumnVector]] = {name: [] for name in schema.names}
    for data_file in files:
        for name, chunks in parts.items():
            chunks.extend(data_file._vector(group, name, cache)
                          for group in data_file._groups)
    if not all(parts.values()):
        return edge_vectors(schema, dict.fromkeys(schema.names, []), 0)
    # each column's chunks go as soon as it is concatenated, so all the
    # chunks and all the columns are never held at once
    return {name: concat_vectors(parts.pop(name)) for name in list(parts)}


@dataclass
class _RowGroup:
    """Column chunks + footer statistics for one horizontal stripe of rows."""

    num_rows: int
    stats: dict[str, tuple[object, object]]
    null_counts: dict[str, int]
    #: column name -> chunk bytes (empty in a parsed footer's groups)
    chunks: dict[str, bytes]

    @classmethod
    def from_columns(cls, schema: Schema, columns: dict[str, ColumnVector],
                     start: int, stop: int) -> "_RowGroup":
        """Encode rows ``start:stop`` of column vectors into one row group.

        Each column's slice is a view: a :class:`NumericVector` encodes
        and takes its statistics through NumPy reductions
        (:func:`_vector_stats`), a :class:`DictStringVector` through
        :func:`_encode_strings`, which works on its codes.
        """
        group = cls(stop - start, {}, {}, {})
        for column in schema.columns:
            part = columns[column.name].gather(slice(start, stop))
            if isinstance(part, DictStringVector):
                chunk, (low, high, nulls) = _encode_strings(part)
            else:
                assert isinstance(part, NumericVector)
                chunk = _encode_vector(part, column.type)
                low, high, nulls = _vector_stats(part, column.type)
            group.chunks[column.name] = chunk
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
    objects so repeated pruning and the aggregation fast path skip the
    JSON decode, and a file opened through one keeps it as
    :attr:`ColumnarFile.footer`.  Chunk positions are stored as
    **absolute offsets** into the serialized file, so
    :meth:`ColumnarFile.from_footer` can slice a payload without
    re-reading the footer.

    Footers are immutable once parsed — the footer tier and every
    resident opened file share one instance across queries.
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
        """Parse the footer region of a serialized columnar file.

        A short, truncated or malformed footer (bad JSON, a missing key,
        a value of the wrong shape) raises :class:`CorruptionError`.
        """
        if len(data) < _LEN.size:
            raise CorruptionError("columnar file shorter than its header")
        (footer_len,) = _LEN.unpack_from(data)
        footer_end = _LEN.size + footer_len
        if len(data) < footer_end:
            raise CorruptionError("columnar file footer truncated")
        groups: list[_RowGroup] = []
        chunk_spans: list[list[tuple[str, int, int]]] = []
        try:
            footer = json.loads(data[_LEN.size : footer_end])
            schema = Schema.from_dict(footer["schema"])
            cursor = footer_end
            for meta in footer["groups"]:
                group = _RowGroup(
                    meta["rows"],
                    {name: tuple(bounds)
                     for name, bounds in meta["stats"].items()},
                    meta["nulls"],
                    {},  # a footer holds no chunk bytes
                )
                spans = []
                for name, chunk_len in meta["chunks"]:
                    spans.append((name, cursor, chunk_len))
                    cursor += chunk_len
                groups.append(group)
                chunk_spans.append(spans)
        except (AttributeError, KeyError, SchemaError, TypeError,
                ValueError) as error:
            raise CorruptionError(
                f"columnar file footer malformed: {error!r}"
            ) from error
        return cls(schema, groups, chunk_spans, footer_end=footer_end,
                   encoded_bytes=footer_end)

    @property
    def num_rows(self) -> int:
        return sum(group.num_rows for group, _ in self.groups)

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


class ColumnarFile:
    """An immutable columnar data file with footer statistics."""

    def __init__(self, schema: Schema, groups: list[_RowGroup],
                 footer: FileFooter | None = None) -> None:
        self.schema = schema
        self._groups = groups
        #: the parsed footer a serialized file was opened through
        self.footer = footer

    # --- construction -------------------------------------------------------

    @classmethod
    def from_columns(cls, schema: Schema, columns: "Mapping[str, object]",
                     num_rows: int,
                     row_group_size: int = ROW_GROUP_SIZE) -> "ColumnarFile":
        """Build row groups from column data — the one file builder.

        ``columns`` maps every schema column to a
        :class:`~repro.table.vector.ColumnVector` — a
        :class:`NumericVector` (typed values + validity mask) or, for
        strings, a :class:`DictStringVector` — or to a Python value list,
        which :func:`edge_vectors` turns into one first.  Row groups are
        slices of those vectors, so every footer statistic comes from
        the vectors and no row is built.  Values are trusted: callers
        validate while building the columns (:mod:`repro.table.colbuild`),
        not per row here.
        """
        if row_group_size < 1:
            raise ValueError("row_group_size must be >= 1")
        columns = edge_vectors(schema, columns, num_rows)
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
        self.schema.check_columns(needed)
        return projection, needed

    def _vector(self, group: _RowGroup, name: str,
                cache: CacheTier) -> ColumnVector:
        """Decoded vector for one chunk, via the chunk tier ``cache``.

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
            admit_chunk(cache, key, vector)
        return vector

    def scan(self, predicate: Expression | None = None,
             columns: list[str] | None = None,
             cache: CacheTier | None = None) -> list[dict[str, object]]:
        """Return matching rows, projecting to ``columns`` when given.

        Row groups whose footer statistics rule out the predicate are
        skipped without decompression.  Within a surviving group only the
        predicate's columns decode up front; the projected columns
        materialize Python objects solely at the matching row indices
        (late materialization).
        """
        projection, _ = self._validate_projection(predicate, columns)
        cache = cache if cache is not None else default_hierarchy().chunks
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
                       cache: CacheTier | None = None):
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
        cache = cache if cache is not None else default_hierarchy().chunks
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

    def skipped_row_groups(self, predicate: Expression) -> int:
        """How many row groups the footer statistics prune for a predicate."""
        return sum(
            1 for group in self._groups
            if not predicate.possibly_matches(group.stats)
        )

    def group_stats(self) -> list[dict[str, tuple[object, object]]]:
        return [dict(group.stats) for group in self._groups]

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

        Skips the JSON footer decode and only slices chunk blobs out of
        ``data``.  Row-group statistics dicts are *shared* with the
        footer and the file keeps the footer itself, so neither may be
        mutated.  The block cache tier keeps the opened file, so a
        resident file hands the chunk cache the same blob objects (and
        their cached hashes) on every query.
        """
        groups: list[_RowGroup] = []
        for proto, spans in footer.groups:
            group = _RowGroup(proto.num_rows, proto.stats, proto.null_counts,
                              {})
            for name, offset, chunk_len in spans:
                blob = data[offset : offset + chunk_len]
                if len(blob) != chunk_len:
                    raise CorruptionError("columnar file truncated")
                group.chunks[name] = blob
            groups.append(group)
        return cls(footer.schema, groups, footer)
