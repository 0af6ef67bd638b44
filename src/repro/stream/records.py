"""Message records and their binary codec.

A record is a key-value pair published to a topic (Fig 4(a-c)): records are
assigned to stream-object slices based on topic, key and offset.  Each slice
holds up to 256 records (Section IV-A).

Two wire formats exist:

* **Packed** (current): the whole batch is one buffer — a magic-prefixed
  header, a block of fixed-width per-record struct headers
  (offset/timestamp/sequence plus the five varlen-region lengths), a
  ``u32`` per-record offset index into the varlen blob (so a reader can
  seek straight to record *i* without touching records ``0..i-1``), then
  the varlen topic/key/producer/txn/value regions back-to-back.  The
  header block and index are contiguous so both encode and decode handle
  them as single NumPy arrays; one CRC32 covers the entire batch instead
  of three nested per-record frames.
* **Legacy** (seed): each record is JSON metadata + value wrapped in three
  nested length+CRC frames, concatenated per slice.  Decoders dispatch on
  the magic bytes, so slices persisted before the packed codec still read
  (:func:`decode_legacy`).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.common import stats
from repro.common.codec import frame, frames, unframe
from repro.errors import CorruptionError

#: Paper, Section IV-A: "Each slice contains up to 256 records."
RECORDS_PER_SLICE = 256

#: Magic prefix of the packed batch layout ("StreamLake Binary v1").  A
#: legacy slice starts with the little-endian length of its first record
#: frame, which would have to be ~0.8 GB to collide with these bytes.
PACKED_MAGIC = b"SLB1"

#: magic, record count, crc32(header block + index + varlen blob)
_BATCH_HEADER = struct.Struct("<4sII")
#: one fixed-width header per record: offset:i64, timestamp:f64,
#: sequence:i64, then u32 lengths of the varlen topic/key/producer_id/
#: txn_id/value regions.  Headers are stored as one contiguous block so
#: the whole batch encodes/decodes through a single NumPy record array.
_HEADER_DTYPE = np.dtype([
    ("offset", "<i8"), ("timestamp", "<f8"), ("sequence", "<i8"),
    ("topic_len", "<u4"), ("key_len", "<u4"), ("pid_len", "<u4"),
    ("txn_len", "<u4"), ("value_len", "<u4"),
])
#: one header as an opaque fixed-width item (see :func:`repack_slices`)
_HEADER_BLOCK = np.dtype((np.void, _HEADER_DTYPE.itemsize))
#: txn_id length sentinel distinguishing ``None`` from an empty string.
_NO_TXN = 0xFFFFFFFF


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

    def encode(self) -> bytes:
        """Serialize to a framed byte string (the legacy record codec)."""
        header = json.dumps(
            {
                "t": self.topic,
                "k": self.key,
                "o": self.offset,
                "ts": self.timestamp,
                "p": self.producer_id,
                "s": self.sequence,
                "x": self.txn_id,
            },
            separators=(",", ":"),
        ).encode()
        return frame(frame(header) + frame(self.value))

    @classmethod
    def decode(cls, data: bytes) -> "MessageRecord":
        parts = frames(unframe(data))
        if len(parts) != 2:
            raise ValueError(f"malformed record: {len(parts)} frames")
        meta = json.loads(parts[0])
        return cls(
            topic=meta["t"],
            key=meta["k"],
            value=parts[1],
            offset=meta["o"],
            timestamp=meta["ts"],
            producer_id=meta["p"],
            sequence=meta["s"],
            txn_id=meta["x"],
        )


def is_packed(data: bytes) -> bool:
    """Does ``data`` carry the packed batch layout (vs legacy frames)?"""
    return len(data) >= _BATCH_HEADER.size and data[:4] == PACKED_MAGIC


def _encode_packed(records: list[MessageRecord],
                   base_offset: int | None = None) -> bytes:
    n = len(records)
    # (topic, key, producer_id, txn_id) tuples repeat heavily within a
    # slice; each distinct tuple is encoded once into a concatenated
    # varlen prefix, and the per-record loop only looks it up.  The
    # fixed-width lengths live in small per-tuple LUTs expanded to
    # per-record columns with one fancy index each.
    memo: dict[tuple[str, str, str, str | None], tuple[int, bytes]] = {}
    prefixes_len: list[int] = []
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
            prefix = topic_b + key_b + pid_b + txn_b
            meta = memo[meta_key] = (len(memo), prefix)
            prefixes_len.append(len(prefix))
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
    vl = np.asarray(value_lens, dtype=np.int64)
    headers = np.empty(n, dtype=_HEADER_DTYPE)
    if offsets is None:
        headers["offset"] = np.arange(base_offset, base_offset + n,
                                      dtype=np.int64)
    else:
        headers["offset"] = offsets
    headers["timestamp"] = timestamps
    headers["sequence"] = sequences
    headers["topic_len"] = np.asarray(topic_lens, dtype=np.int64)[mid]
    headers["key_len"] = np.asarray(key_lens, dtype=np.int64)[mid]
    headers["pid_len"] = np.asarray(pid_lens, dtype=np.int64)[mid]
    headers["txn_len"] = np.asarray(txn_lens, dtype=np.uint32)[mid]
    headers["value_len"] = vl
    sizes = np.asarray(prefixes_len, dtype=np.int64)[mid] + vl
    starts = np.zeros(n, dtype=np.int64)
    if n > 1:
        np.cumsum(sizes[:-1], out=starts[1:])
    header_bytes = headers.tobytes()
    index_bytes = starts.astype("<u4").tobytes()
    body = b"".join(parts)
    crc = zlib.crc32(body, zlib.crc32(index_bytes, zlib.crc32(header_bytes)))
    return (_BATCH_HEADER.pack(PACKED_MAGIC, n, crc)
            + header_bytes + index_bytes + body)


def _decode_packed(data: bytes, start: int = 0) -> list[MessageRecord]:
    magic, count, crc = _BATCH_HEADER.unpack_from(data)
    if magic != PACKED_MAGIC:
        raise CorruptionError("packed batch magic mismatch")
    # one CRC over header block + index + varlen blob; it also catches
    # truncation, so the per-record loop needs no bounds checks
    if zlib.crc32(memoryview(data)[_BATCH_HEADER.size:]) != crc:
        raise CorruptionError("packed batch checksum mismatch")
    hdr_start = _BATCH_HEADER.size
    expected = hdr_start + (_HEADER_DTYPE.itemsize + 4) * count
    if len(data) < expected:
        raise CorruptionError("packed batch truncated")
    headers = np.frombuffer(data, dtype=_HEADER_DTYPE, count=count,
                            offset=hdr_start)
    index = np.frombuffer(data, dtype="<u4", count=count,
                          offset=hdr_start + _HEADER_DTYPE.itemsize * count)
    blob_start = expected
    # the whole header block converts to plain python columns in a few
    # vectorized passes; only string slicing remains per record
    offsets = headers["offset"].tolist()
    timestamps = headers["timestamp"].tolist()
    sequences = headers["sequence"].tolist()
    topic_lens = headers["topic_len"].tolist()
    key_lens = headers["key_len"].tolist()
    txn_lens = headers["txn_len"].tolist()
    value_lens = headers["value_len"].tolist()
    txn_real = np.where(headers["txn_len"] == _NO_TXN, 0,
                        headers["txn_len"])
    prefix_lens = (headers["topic_len"].astype(np.int64)
                   + headers["key_len"] + headers["pid_len"]
                   + txn_real).tolist()
    starts = (index.astype(np.int64) + blob_start).tolist()
    # distinct (prefix bytes, lengths) tuples decode to strings once
    memo: dict[tuple[bytes, int, int, int], tuple[str, str, str, str | None]] = {}
    out: list[MessageRecord] = []
    append = out.append
    new = object.__new__
    for i in range(start, count):
        position = starts[i]
        prefix_len = prefix_lens[i]
        praw = data[position:position + prefix_len]
        topic_len = topic_lens[i]
        key_len = key_lens[i]
        txn_len = txn_lens[i]
        mkey = (praw, topic_len, key_len, txn_len)
        meta = memo.get(mkey)
        if meta is None:
            key_end = topic_len + key_len
            pid_end = prefix_len if txn_len == _NO_TXN else prefix_len - txn_len
            meta = memo[mkey] = (
                praw[:topic_len].decode(),
                praw[topic_len:key_end].decode(),
                praw[key_end:pid_end].decode(),
                None if txn_len == _NO_TXN else praw[pid_end:].decode(),
            )
        value_len = value_lens[i]
        value_start = position + prefix_len
        # hot path: fill the instance dict directly instead of running the
        # dataclass __init__; pre-seat the cached size_bytes for free
        record = new(MessageRecord)
        d = record.__dict__
        d["topic"] = meta[0]
        d["key"] = meta[1]
        d["value"] = data[value_start:value_start + value_len]
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
    straight into the packed wire format (``pack_values``) — all records
    share topic, producer and transaction and carry their own keys, so
    the varlen prefix is built once per distinct key and the fixed-width
    header block is filled by vectorized NumPy column stores.
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
    """Encode ``values`` as one packed batch bound for one stream.

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
    headers = np.empty(n, dtype=_HEADER_DTYPE)
    headers["offset"] = -1
    headers["timestamp"] = timestamp
    headers["sequence"] = np.arange(base_sequence, base_sequence + n,
                                    dtype=np.int64)
    headers["topic_len"] = len(topic_b)
    headers["key_len"] = key_lens
    headers["pid_len"] = len(pid_b)
    headers["txn_len"] = _NO_TXN if txn_id is None else len(txn_b)
    headers["value_len"] = value_lens
    payload_lens = key_lens + value_lens
    starts = np.zeros(n, dtype=np.int64)
    if n > 1:
        np.cumsum(payload_lens[:-1] + (len(topic_b) + len(tail)),
                  out=starts[1:])
    # interleave prefix/value pairs without a per-record loop
    parts: list[bytes] = prefixes * 2
    parts[0::2] = prefixes
    parts[1::2] = values
    header_bytes = headers.tobytes()
    index_bytes = starts.astype("<u4").tobytes()
    body = b"".join(parts)
    crc = zlib.crc32(body, zlib.crc32(index_bytes, zlib.crc32(header_bytes)))
    data = (_BATCH_HEADER.pack(PACKED_MAGIC, n, crc)
            + header_bytes + index_bytes + body)
    wire_bytes = 48 * n + int(payload_lens.sum())
    return PackedRecordBatch(data, n, producer_id, base_sequence, txn_id,
                             wire_bytes)


def _packed_parts(data: bytes) -> tuple[int, np.ndarray, np.ndarray, int]:
    """(count, header array, index array, varlen-blob start) of a buffer."""
    count = _BATCH_HEADER.unpack_from(data)[1]
    headers = np.frombuffer(data, dtype=_HEADER_DTYPE, count=count,
                            offset=_BATCH_HEADER.size)
    index = np.frombuffer(
        data, dtype="<u4", count=count,
        offset=_BATCH_HEADER.size + _HEADER_DTYPE.itemsize * count,
    )
    blob_start = _BATCH_HEADER.size + (_HEADER_DTYPE.itemsize + 4) * count
    return count, headers, index, blob_start


def repack_slices(pieces: list[tuple[bytes, int, int]],
                  base_offset: int) -> bytes:
    """Merge record ranges of packed buffers into one packed slice.

    ``pieces`` are (packed buffer, start record, stop record) ranges; the
    result holds their records back-to-back with offsets stamped to the
    consecutive run ``base_offset + i``.  Everything is NumPy column work
    and bytes copies — no records are materialized.
    """
    head_arrays: list[np.ndarray] = []
    index_arrays: list[np.ndarray] = []
    blobs: list[bytes] = []
    blob_total = 0
    for data, start, stop in pieces:
        count, headers, index, blob_start = _packed_parts(data)
        first = int(index[start]) if start < count else 0
        last = (int(index[stop]) if stop < count
                else len(data) - blob_start)
        head_arrays.append(headers[start:stop])
        index_arrays.append(index[start:stop].astype(np.int64)
                            - first + blob_total)
        blobs.append(data[blob_start + first:blob_start + last])
        blob_total += last - first
    n = sum(a.shape[0] for a in head_arrays)
    # joined as opaque fixed-width items: concatenating record arrays
    # re-derives the common field layout once per piece
    headers = np.concatenate(
        [a.view(_HEADER_BLOCK) for a in head_arrays]).view(_HEADER_DTYPE)
    headers["offset"] = np.arange(base_offset, base_offset + n,
                                  dtype=np.int64)
    header_bytes = headers.tobytes()
    index_bytes = np.concatenate(index_arrays).astype("<u4").tobytes()
    body = b"".join(blobs)
    crc = zlib.crc32(body, zlib.crc32(index_bytes, zlib.crc32(header_bytes)))
    return (_BATCH_HEADER.pack(PACKED_MAGIC, n, crc)
            + header_bytes + index_bytes + body)


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

    Packed slices seek straight to ``start`` via the offset index; legacy
    slices (no magic) fall back to :func:`decode_legacy`.
    """
    if is_packed(data):
        return _decode_packed(data, start)
    return decode_legacy(data)[start:]


def decode_slice_full(
    data: bytes, start: int = 0
) -> tuple[list[MessageRecord], int, bool]:
    """Like :func:`decode_slice`, plus (total size_bytes, any txn record).

    Both extras come from vectorized passes over the packed header block,
    so readers taking a whole slice (the common case) can skip per-record
    size/transaction bookkeeping entirely.
    """
    if is_packed(data):
        _, headers, _, _ = _packed_parts(data)
        tail = headers[start:]
        size = int(tail["key_len"].sum() + tail["value_len"].sum()) \
            + 48 * tail.shape[0]
        has_txn = bool((tail["txn_len"] != _NO_TXN).any())
        return _decode_packed(data, start), size, has_txn
    records = decode_legacy(data)[start:]
    size = sum(record.size_bytes for record in records)
    has_txn = any(record.txn_id is not None for record in records)
    return records, size, has_txn


def slice_values(data: bytes, start: int = 0) -> tuple[list[bytes], bool]:
    """Extract just the record *values* of a slice, plus an any-txn flag.

    The stream->table conversion fast path: converting a slice needs only
    the message payloads, so no :class:`MessageRecord` objects are built.
    For packed slices the value byte ranges come from vectorized passes
    over the header block and are sliced straight out of the buffer; the
    txn flag (computed the same way) tells the caller whether it must fall
    back to record-level visibility classification instead of using the
    returned values.  Legacy slices decode through :func:`decode_legacy`.
    """
    if not is_packed(data):
        records = decode_legacy(data)[start:]
        has_txn = any(record.txn_id is not None for record in records)
        return [record.value for record in records], has_txn
    count, headers, index, blob_start = _packed_parts(data)
    crc = _BATCH_HEADER.unpack_from(data)[2]
    if zlib.crc32(memoryview(data)[_BATCH_HEADER.size:]) != crc:
        raise CorruptionError("packed batch checksum mismatch")
    tail = headers[start:]
    has_txn = bool((tail["txn_len"] != _NO_TXN).any())
    txn_real = np.where(tail["txn_len"] == _NO_TXN, 0, tail["txn_len"])
    starts = (
        index[start:].astype(np.int64) + blob_start
        + tail["topic_len"] + tail["key_len"] + tail["pid_len"] + txn_real
    ).astype(np.int64)
    ends = starts + tail["value_len"]
    return [
        data[lo:hi] for lo, hi in zip(starts.tolist(), ends.tolist())
    ], has_txn


def encode_slice_legacy(records: list[MessageRecord]) -> bytes:
    """The seed's slice codec: per-record JSON in three nested frames."""
    if len(records) > RECORDS_PER_SLICE:
        raise ValueError(
            f"slice holds at most {RECORDS_PER_SLICE} records, got {len(records)}"
        )
    return b"".join(frame(record.encode()) for record in records)


def decode_legacy(data: bytes) -> list[MessageRecord]:
    """Decode a legacy (pre-packed-codec) frame concatenation."""
    stats.ingest_stats().legacy_slices_decoded += 1
    return [MessageRecord.decode(payload) for payload in frames(data)]


def encode_records(records: list[MessageRecord]) -> bytes:
    """Serialize an arbitrary-length batch (no slice-size limit)."""
    return _encode_packed(records)


def decode_records(data: bytes) -> list[MessageRecord]:
    """Inverse of :func:`encode_records` (legacy batches auto-detected)."""
    if is_packed(data):
        return _decode_packed(data)
    return decode_legacy(data)
