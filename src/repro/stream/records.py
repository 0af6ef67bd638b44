"""Message records and their one wire format, the planar batch.

A record is a key-value pair published to a topic (Fig 4(a-c)): records are
assigned to stream-object slices based on topic, key and offset.  Each slice
holds up to 256 records (Section IV-A).

A whole batch of ``n`` records is one buffer::

    [ 12-byte batch header | 44 * n header-plane bytes | varlen blob ]

* The batch header is ``magic "SLP1", u32 n, u32 crc32``, the CRC
  covering every byte after the header.  Every reader rejects a buffer
  without the magic with :class:`~repro.errors.CorruptionError`.
* Each record has a 44-byte fixed-width header: ``offset i64, timestamp
  f64, sequence i64`` then the ``u32`` lengths of its varlen topic, key,
  producer_id, txn_id and value regions (``txn_len == 0xFFFFFFFF`` means
  ``txn_id is None``, distinct from ``""``).  The ``(n, 44)`` block of
  those headers is stored *transposed*: 44 byte planes of ``n`` bytes,
  plane ``j`` holding byte ``j`` of every header.  Constant fields become
  constant planes and the high bytes of offsets, sequences and lengths
  become near-constant ones, which deflate far better than the
  interleaved rows.
* The varlen blob holds each record's topic, key, producer_id, txn_id and
  value bytes back-to-back, record after record.

No offset index is stored: record ``i`` starts at the exclusive cumsum of
the five lengths of records ``0..i-1``, computed in one NumPy pass, so a
reader still seeks straight to record ``i``.  Decoders check that the
lengths sum exactly to the blob before slicing anything.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import CorruptionError

#: Paper, Section IV-A: "Each slice contains up to 256 records."
RECORDS_PER_SLICE = 256

#: Magic prefix of the planar batch layout ("StreamLake Planar v1").
PACKED_MAGIC = b"SLP1"

#: magic, record count, crc32(header planes + varlen blob)
_BATCH_HEADER = struct.Struct("<4sII")
#: one fixed-width header per record: offset:i64, timestamp:f64,
#: sequence:i64, then u32 lengths of the varlen topic/key/producer_id/
#: txn_id/value regions.  Stored as byte planes (see the module doc).
_HEADER_DTYPE = np.dtype([
    ("offset", "<i8"), ("timestamp", "<f8"), ("sequence", "<i8"),
    ("topic_len", "<u4"), ("key_len", "<u4"), ("pid_len", "<u4"),
    ("txn_len", "<u4"), ("value_len", "<u4"),
])
#: txn_id length sentinel distinguishing ``None`` from an empty string.
_NO_TXN = 0xFFFFFFFF
#: first of the 20 planes holding the five u32 varlen lengths
_LENGTH_PLANES = _HEADER_DTYPE.fields["topic_len"][1]
#: the txn_id and value lengths among those five
_TXN_COLUMN, _VALUE_COLUMN = 3, 4


@dataclass(frozen=True)
class MessageRecord:
    """One key-value message within a stream.

    ``offset`` is assigned by the stream object at append time (-1 before).
    ``producer_id``/``sequence`` implement idempotent writes: a stream
    object ignores a (producer, sequence) pair it has already applied.
    ``txn_id`` marks the record as part of an open transaction; such
    records stay invisible to consumers until the transaction commits.
    """

    topic: str
    key: str
    value: bytes
    offset: int = -1
    timestamp: float = 0.0
    producer_id: str = ""
    sequence: int = -1
    txn_id: str | None = None

    def with_offset(self, offset: int) -> "MessageRecord":
        # hot path: a plain __dict__ copy skips dataclass __init__ and
        # carries the cached size_bytes along (it does not depend on offset)
        clone = object.__new__(MessageRecord)
        clone.__dict__.update(self.__dict__)
        clone.__dict__["offset"] = offset
        return clone

    @cached_property
    def size_bytes(self) -> int:
        """Approximate wire size (key + value + fixed header)."""
        return len(self.key.encode()) + len(self.value) + 48


def _store(planes: np.ndarray, name: str, column) -> None:
    """Write ``column`` (one value, or one per record) into the byte planes
    of header field ``name``: plane ``at + b`` takes byte ``b`` of every
    record's field, so each store is one strided copy."""
    dtype, at = _HEADER_DTYPE.fields[name][:2]
    raw = np.asarray(column, dtype=dtype).reshape(-1, 1).view(np.uint8)
    planes[at:at + dtype.itemsize] = raw.T


def _seal(planes: np.ndarray, body: bytes) -> bytes:
    """Prefix ``planes`` + ``body`` with the batch header and its CRC."""
    crc = zlib.crc32(body, zlib.crc32(planes))
    return b"".join(
        (_BATCH_HEADER.pack(PACKED_MAGIC, planes.shape[1], crc), planes, body)
    )


def _planes(data: bytes) -> tuple[np.ndarray, int]:
    """(``(44, count)`` byte planes, varlen blob start) of a planar buffer."""
    if data[:len(PACKED_MAGIC)] != PACKED_MAGIC:
        raise CorruptionError(
            f"buffer of {len(data)} bytes lacks the planar batch magic "
            f"{PACKED_MAGIC!r}"
        )
    if len(data) < _BATCH_HEADER.size:
        raise CorruptionError("planar batch shorter than its header")
    count = _BATCH_HEADER.unpack_from(data)[1]
    blob_start = _BATCH_HEADER.size + _HEADER_DTYPE.itemsize * count
    if len(data) < blob_start:
        raise CorruptionError("planar batch truncated in its header planes")
    planes = np.frombuffer(
        data, dtype=np.uint8, count=_HEADER_DTYPE.itemsize * count,
        offset=_BATCH_HEADER.size,
    ).reshape(_HEADER_DTYPE.itemsize, count)
    return planes, blob_start


def _bounds(lengths: np.ndarray, blob_start: int, size: int) -> np.ndarray:
    """Record bounds of a planar buffer of ``size`` bytes, from its
    ``(count, 5)`` varlen lengths.

    Record ``i`` spans ``data[bounds[i]:bounds[i + 1]]`` and its value is
    the last ``value_len`` bytes of that span.  The bounds are the
    exclusive cumsum of the five varlen lengths, so they are checked to
    end exactly at the end of the buffer before anything is sliced.
    """
    spans = lengths.astype(np.int64)
    txn = spans[:, _TXN_COLUMN]
    txn[txn == _NO_TXN] = 0
    # one flat cumsum over the (count, 5) region lengths: record i's last
    # region ends at flat entry 5i + 4 (a per-row sum first is slower)
    bounds = np.empty(len(spans) + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[1:] = spans.cumsum()[4::5]
    bounds += blob_start
    if bounds[-1] != size:
        raise CorruptionError(
            f"planar batch lengths cover {bounds[-1] - blob_start} varlen "
            f"bytes, the blob holds {size - blob_start}"
        )
    return bounds


def _layout(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(byte planes, ``(count, 5)`` varlen lengths, record bounds) of a
    planar buffer, transposing only the 20 length planes."""
    planes, blob_start = _planes(data)
    lengths = np.ascontiguousarray(planes[_LENGTH_PLANES:].T).view("<u4")
    return planes, lengths, _bounds(lengths, blob_start, len(data))


def _check_crc(data: bytes) -> None:
    crc = _BATCH_HEADER.unpack_from(data)[2]
    if zlib.crc32(memoryview(data)[_BATCH_HEADER.size:]) != crc:
        raise CorruptionError("planar batch checksum mismatch")


def _verified_headers(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(header records, record bounds) of a CRC-checked planar buffer.

    All 44 planes transpose back to rows once; the bounds come from the
    length fields of those rows.
    """
    planes, blob_start = _planes(data)
    rows = np.ascontiguousarray(planes.T)
    bounds = _bounds(rows[:, _LENGTH_PLANES:].view("<u4"), blob_start,
                     len(data))
    _check_crc(data)
    return rows.view(_HEADER_DTYPE)[:, 0], bounds


def _encode_packed(records: list[MessageRecord],
                   base_offset: int | None = None) -> bytes:
    n = len(records)
    # (topic, key, producer_id, txn_id) tuples repeat heavily within a
    # slice; each distinct tuple is encoded once into a concatenated
    # varlen prefix, and the per-record loop only looks it up.  The
    # fixed-width lengths live in small per-tuple LUTs expanded to
    # per-record columns with one fancy index each.
    memo: dict[tuple[str, str, str, str | None], tuple[int, bytes]] = {}
    topic_lens: list[int] = []
    key_lens: list[int] = []
    pid_lens: list[int] = []
    txn_lens: list[int] = []
    mids: list[int] = []
    value_lens: list[int] = []
    timestamps: list[float] = []
    sequences: list[int] = []
    offsets: list[int] | None = [] if base_offset is None else None
    parts: list[bytes] = []
    parts_append = parts.append
    for record in records:
        d = record.__dict__
        value = d["value"]
        meta_key = (d["topic"], d["key"], d["producer_id"], d["txn_id"])
        meta = memo.get(meta_key)
        if meta is None:
            topic_b = meta_key[0].encode()
            key_b = meta_key[1].encode()
            pid_b = meta_key[2].encode()
            txn_b = b"" if meta_key[3] is None else meta_key[3].encode()
            meta = memo[meta_key] = (len(memo),
                                     topic_b + key_b + pid_b + txn_b)
            topic_lens.append(len(topic_b))
            key_lens.append(len(key_b))
            pid_lens.append(len(pid_b))
            txn_lens.append(_NO_TXN if meta_key[3] is None else len(txn_b))
        mids.append(meta[0])
        value_lens.append(len(value))
        timestamps.append(d["timestamp"])
        sequences.append(d["sequence"])
        if offsets is not None:
            offsets.append(d["offset"])
        parts_append(meta[1])
        parts_append(value)
    mid = np.asarray(mids, dtype=np.intp)
    planes = np.empty((_HEADER_DTYPE.itemsize, n), dtype=np.uint8)
    _store(planes, "offset",
           np.arange(base_offset, base_offset + n, dtype=np.int64)
           if offsets is None else offsets)
    _store(planes, "timestamp", timestamps)
    _store(planes, "sequence", sequences)
    _store(planes, "topic_len", np.asarray(topic_lens, dtype=np.int64)[mid])
    _store(planes, "key_len", np.asarray(key_lens, dtype=np.int64)[mid])
    _store(planes, "pid_len", np.asarray(pid_lens, dtype=np.int64)[mid])
    _store(planes, "txn_len", np.asarray(txn_lens, dtype=np.uint32)[mid])
    _store(planes, "value_len", value_lens)
    return _seal(planes, b"".join(parts))


def _decode_packed(data: bytes, start: int = 0) -> list[MessageRecord]:
    headers, bounds = _verified_headers(data)
    return _records_from(data, headers, bounds, start)


def _records_from(data: bytes, headers: np.ndarray, bounds: np.ndarray,
                  start: int) -> list[MessageRecord]:
    # the whole header block converts to plain python columns in a few
    # vectorized passes; only string slicing remains per record
    offsets = headers["offset"].tolist()
    timestamps = headers["timestamp"].tolist()
    sequences = headers["sequence"].tolist()
    topic_lens = headers["topic_len"].tolist()
    key_lens = headers["key_len"].tolist()
    txn_lens = headers["txn_len"].tolist()
    value_lens = headers["value_len"].tolist()
    positions = bounds.tolist()
    # distinct (prefix bytes, lengths) tuples decode to strings once
    memo: dict[tuple[bytes, int, int, int], tuple[str, str, str, str | None]] = {}
    out: list[MessageRecord] = []
    append = out.append
    new = object.__new__
    for i in range(start, len(value_lens)):
        value_len = value_lens[i]
        value_end = positions[i + 1]
        value_start = value_end - value_len
        praw = data[positions[i]:value_start]
        topic_len = topic_lens[i]
        key_len = key_lens[i]
        txn_len = txn_lens[i]
        mkey = (praw, topic_len, key_len, txn_len)
        meta = memo.get(mkey)
        if meta is None:
            key_end = topic_len + key_len
            pid_end = len(praw) if txn_len == _NO_TXN else len(praw) - txn_len
            meta = memo[mkey] = (
                praw[:topic_len].decode(),
                praw[topic_len:key_end].decode(),
                praw[key_end:pid_end].decode(),
                None if txn_len == _NO_TXN else praw[pid_end:].decode(),
            )
        # hot path: fill the instance dict directly instead of running the
        # dataclass __init__; pre-seat the cached size_bytes for free
        record = new(MessageRecord)
        d = record.__dict__
        d["topic"] = meta[0]
        d["key"] = meta[1]
        d["value"] = data[value_start:value_end]
        d["offset"] = offsets[i]
        d["timestamp"] = timestamps[i]
        d["producer_id"] = meta[2]
        d["sequence"] = sequences[i]
        d["txn_id"] = meta[3]
        d["size_bytes"] = key_len + value_len + 48
        append(record)
    return out


class PackedRecordBatch:
    """A producer-side pre-encoded run of records bound for one stream.

    The producer serializes one stream's share of a ``send_batch`` request
    straight into the planar wire format (``pack_values``) — all records
    share topic, producer and transaction and carry their own keys, so
    the varlen prefix is built once per distinct key and the header
    planes are filled by vectorized NumPy field stores.
    The stream object then splits/merges these buffers into slices with
    :func:`repack_slices` instead of re-encoding record objects, so the
    hot ingest path never runs per-record Python at all.

    ``base_sequence``..``base_sequence + count - 1`` are the (consecutive)
    producer sequences inside; the stream object uses them for batch-level
    idempotence checks.
    """

    __slots__ = ("data", "count", "producer_id", "base_sequence", "txn_id",
                 "wire_bytes")

    def __init__(self, data: bytes, count: int, producer_id: str,
                 base_sequence: int, txn_id: str | None,
                 wire_bytes: int) -> None:
        self.data = data
        self.count = count
        self.producer_id = producer_id
        self.base_sequence = base_sequence
        self.txn_id = txn_id
        self.wire_bytes = wire_bytes

    def __len__(self) -> int:
        return self.count

    def records(self) -> list[MessageRecord]:
        """Materialize the batch (the slow path: dedupe conflicts only)."""
        return _decode_packed(self.data)


def pack_values(topic: str, values: list[bytes], keys: str | list[str],
                timestamp: float, producer_id: str, base_sequence: int,
                txn_id: str | None) -> PackedRecordBatch:
    """Encode ``values`` as one planar batch bound for one stream.

    ``keys`` is one key shared by every record, or one key per record;
    equal keys give the same bytes either way.  Offsets are left at -1;
    the stream object stamps them during :func:`repack_slices` when the
    records are assigned to a slice.
    """
    n = len(values)
    topic_b = topic.encode()
    pid_b = producer_id.encode()
    txn_b = b"" if txn_id is None else txn_id.encode()
    tail = pid_b + txn_b
    if isinstance(keys, str):
        distinct = {keys}
    else:
        if len(keys) != n:
            raise ValueError(f"got {n} values but {len(keys)} keys")
        distinct = set(keys)
    # each distinct key is encoded into its varlen prefix once
    prefix_of = {key: topic_b + key.encode() + tail for key in distinct}
    if len(distinct) == 1:
        (prefix,) = prefix_of.values()
        prefixes = [prefix] * n
        key_lens = np.full(n, len(prefix), dtype=np.int64)
    else:
        prefixes = [prefix_of[key] for key in keys]
        key_lens = np.fromiter(map(len, prefixes), dtype=np.int64, count=n)
    key_lens -= len(topic_b) + len(tail)
    value_lens = np.fromiter(map(len, values), dtype=np.int64, count=n)
    # the producer writes the planes directly: constant fields broadcast
    # their bytes across a plane, per-record ones are one strided store
    planes = np.empty((_HEADER_DTYPE.itemsize, n), dtype=np.uint8)
    _store(planes, "offset", -1)
    _store(planes, "timestamp", timestamp)
    _store(planes, "sequence",
           np.arange(base_sequence, base_sequence + n, dtype=np.int64))
    _store(planes, "topic_len", len(topic_b))
    _store(planes, "key_len", key_lens)
    _store(planes, "pid_len", len(pid_b))
    _store(planes, "txn_len", _NO_TXN if txn_id is None else len(txn_b))
    _store(planes, "value_len", value_lens)
    # interleave prefix/value pairs without a per-record loop
    parts: list[bytes] = prefixes * 2
    parts[0::2] = prefixes
    parts[1::2] = values
    data = _seal(planes, b"".join(parts))
    wire_bytes = 48 * n + int(key_lens.sum() + value_lens.sum())
    return PackedRecordBatch(data, n, producer_id, base_sequence, txn_id,
                             wire_bytes)


def repack_slices(pieces: list[tuple[bytes, int, int]],
                  base_offset: int) -> bytes:
    """Merge record ranges of planar buffers into one planar slice.

    ``pieces`` are (planar buffer, start record, stop record) ranges; the
    result holds their records back-to-back with offsets stamped to the
    consecutive run ``base_offset + i``.  The pieces' plane columns are
    concatenated along the record axis and the offset planes restamped
    from one ``arange`` — no records are materialized.
    """
    plane_views: list[np.ndarray] = []
    blobs: list[bytes] = []
    for data, start, stop in pieces:
        planes, blob_start = _planes(data)
        if start == 0 and stop == planes.shape[1]:
            # a whole buffer (most pieces) needs no record bounds
            plane_views.append(planes)
            blobs.append(data[blob_start:])
            continue
        planes, _, bounds = _layout(data)
        plane_views.append(planes[:, start:stop])
        blobs.append(data[bounds[start]:bounds[stop]])
    planes = np.concatenate(plane_views, axis=1)
    n = planes.shape[1]
    _store(planes, "offset",
           np.arange(base_offset, base_offset + n, dtype=np.int64))
    return _seal(planes, b"".join(blobs))


def encode_slice(records: list[MessageRecord],
                 base_offset: int | None = None) -> bytes:
    """Serialize a slice (<= RECORDS_PER_SLICE records) to packed bytes.

    ``base_offset`` overrides the records' own offsets with the consecutive
    run ``base_offset + i`` — the stream object's seal path uses this to
    stamp offsets into the wire format without cloning every record first.
    """
    if len(records) > RECORDS_PER_SLICE:
        raise ValueError(
            f"slice holds at most {RECORDS_PER_SLICE} records, got {len(records)}"
        )
    return _encode_packed(records, base_offset)


def decode_slice(data: bytes, start: int = 0) -> list[MessageRecord]:
    """Inverse of :func:`encode_slice`, from record index ``start`` onward.

    Seeks straight to ``start`` through the record bounds derived from
    the length planes.
    """
    return _decode_packed(data, start)


def decode_slice_full(
    data: bytes, start: int = 0
) -> tuple[list[MessageRecord], int, bool]:
    """Like :func:`decode_slice`, plus (total size_bytes, any txn record).

    Both extras come from vectorized passes over the header records, so
    readers taking a whole slice (the common case) can skip per-record
    size/transaction bookkeeping entirely.
    """
    headers, bounds = _verified_headers(data)
    tail = headers[start:]
    size = int(tail["key_len"].sum() + tail["value_len"].sum()) \
        + 48 * tail.shape[0]
    has_txn = bool((tail["txn_len"] != _NO_TXN).any())
    return _records_from(data, headers, bounds, start), size, has_txn


def slice_values(data: bytes, start: int = 0) -> tuple[list[bytes], bool]:
    """Extract just the record *values* of a slice, plus an any-txn flag.

    The stream->table conversion fast path: converting a slice needs only
    the message payloads, so no :class:`MessageRecord` objects are built.
    Each value is the last ``value_len`` bytes of its record's span,
    sliced straight out of the buffer; the txn flag (computed the same
    way) tells the caller whether it must fall back to record-level
    visibility classification instead of using the returned values.
    """
    _, lengths, bounds = _layout(data)
    _check_crc(data)
    tail = lengths[start:]
    has_txn = bool((tail[:, _TXN_COLUMN] != _NO_TXN).any())
    ends = bounds[start + 1:]
    starts = ends - tail[:, _VALUE_COLUMN]
    return [
        data[lo:hi] for lo, hi in zip(starts.tolist(), ends.tolist())
    ], has_txn


def encode_records(records: list[MessageRecord]) -> bytes:
    """Serialize an arbitrary-length batch (no slice-size limit)."""
    return _encode_packed(records)


def decode_records(data: bytes) -> list[MessageRecord]:
    """Inverse of :func:`encode_records`."""
    return _decode_packed(data)
