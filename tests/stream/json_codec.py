"""The JSON-framed slice codec: the oracle for the planar batch layout.

This is the seed's wire format, kept beside the tests that compare the
planar codec (:mod:`repro.stream.records`) against it.  Production code
neither writes nor reads it: every slice reader rejects these bytes,
which lack the ``SLP1`` magic.

A record is its JSON metadata and its value, each in a
``[u32 length][u32 crc32][payload]`` frame, both wrapped in one more
frame; a slice is the concatenation of its records' frames, each framed
once more.  Every frame's CRC is checked on the way back.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.errors import CorruptionError
from repro.stream.records import RECORDS_PER_SLICE, MessageRecord

_HEADER = struct.Struct("<II")


def frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length+crc32 frame."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def unframe(data: bytes) -> bytes:
    """Validate and strip one frame; :class:`CorruptionError` on any
    mismatch."""
    if len(data) < _HEADER.size:
        raise CorruptionError(f"frame shorter than header: {len(data)} bytes")
    length, crc = _HEADER.unpack_from(data)
    payload = data[_HEADER.size : _HEADER.size + length]
    if len(payload) != length:
        raise CorruptionError(
            f"frame truncated: header says {length} bytes, got {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise CorruptionError("frame checksum mismatch")
    return payload


def frames(data: bytes) -> list[bytes]:
    """Split a concatenation of frames back into their payloads."""
    payloads = []
    cursor = 0
    while cursor < len(data):
        if cursor + _HEADER.size > len(data):
            raise CorruptionError("trailing bytes shorter than a frame header")
        length, _ = _HEADER.unpack_from(data, cursor)
        end = cursor + _HEADER.size + length
        payloads.append(unframe(data[cursor:end]))
        cursor = end
    return payloads


def encode_record(record: MessageRecord) -> bytes:
    """One record as a frame of its metadata frame and its value frame."""
    header = json.dumps(
        {
            "t": record.topic,
            "k": record.key,
            "o": record.offset,
            "ts": record.timestamp,
            "p": record.producer_id,
            "s": record.sequence,
            "x": record.txn_id,
        },
        separators=(",", ":"),
    ).encode()
    return frame(frame(header) + frame(record.value))


def decode_record(data: bytes) -> MessageRecord:
    """Inverse of :func:`encode_record`."""
    parts = frames(unframe(data))
    if len(parts) != 2:
        raise ValueError(f"malformed record: {len(parts)} frames")
    meta = json.loads(parts[0])
    return MessageRecord(
        topic=meta["t"],
        key=meta["k"],
        value=parts[1],
        offset=meta["o"],
        timestamp=meta["ts"],
        producer_id=meta["p"],
        sequence=meta["s"],
        txn_id=meta["x"],
    )


def encode_slice_json(records: list[MessageRecord]) -> bytes:
    """A slice (<= RECORDS_PER_SLICE records) as framed JSON records."""
    if len(records) > RECORDS_PER_SLICE:
        raise ValueError(
            f"slice holds at most {RECORDS_PER_SLICE} records, got {len(records)}"
        )
    return b"".join(frame(encode_record(record)) for record in records)


def decode_slice_json(data: bytes, start: int = 0) -> list[MessageRecord]:
    """Inverse of :func:`encode_slice_json`, from record ``start`` on."""
    return [decode_record(payload) for payload in frames(data)][start:]
