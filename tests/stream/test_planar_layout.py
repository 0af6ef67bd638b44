"""The planar record-batch layout: round trips, size, and corruption.

A planar buffer is ``[12-byte batch header | 44 byte planes of n bytes |
varlen blob]`` with no per-record offset index (see the module doc of
:mod:`repro.stream.records`).  These tests pin that every reader —
``decode_slice``, ``decode_slice_full`` and ``slice_values`` — returns
the records a buffer stands for from every ``start``, through producer
packing and ``repack_slices`` piece merging, in agreement with the JSON
codec oracle (:mod:`json_codec`); that the buffer holds exactly the
planes and the blob; that the planes deflate smaller than the row-major
``SLB1`` block plus index they replaced; and that every malformed buffer
— including any without the ``SLP1`` magic — raises
:class:`CorruptionError` from every reader.
"""

import json
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from json_codec import decode_slice_json, encode_slice_json
from repro.errors import CorruptionError
from repro.stream.records import (
    RECORDS_PER_SLICE,
    decode_records,
    decode_slice,
    decode_slice_full,
    encode_slice,
    pack_values,
    repack_slices,
    slice_values,
)
from repro.workloads.packets import PacketConfig, PacketGenerator

#: fixed-width header bytes per record: i64 offset, f64 timestamp,
#: i64 sequence and five u32 varlen lengths
HEADER_BYTES = 44
#: the row-major header dtype of the replaced ``SLB1`` layout
SLB1_HEADER = np.dtype([
    ("offset", "<i8"), ("timestamp", "<f8"), ("sequence", "<i8"),
    ("topic_len", "<u4"), ("key_len", "<u4"), ("pid_len", "<u4"),
    ("txn_len", "<u4"), ("value_len", "<u4"),
])

routing_keys = st.sampled_from(["", "k", "user-7", "ключ-✓", "☃"])
#: 0-byte and small values; a batch may also hold one 256 KiB value
value_sizes = st.sampled_from([0, 0, 1, 37, 300])
LARGE_VALUE = 256 * 1024


def _varlen(record) -> int:
    return sum(len(part.encode()) for part in (
        record.topic, record.key, record.producer_id, record.txn_id or ""
    )) + len(record.value)


def _json_oracle(records) -> list:
    """``records`` through the JSON codec oracle, slice by slice."""
    return [
        record
        for at in range(0, len(records), RECORDS_PER_SLICE)
        for record in decode_slice_json(
            encode_slice_json(records[at:at + RECORDS_PER_SLICE]))
    ]


@st.composite
def planar_batches(draw):
    """(planar buffer, the records it stands for) — a producer batch of
    1-600 records cut into random pieces and merged by repack_slices."""
    n = draw(st.integers(min_value=1, max_value=600))
    if draw(st.booleans()):
        keys = draw(routing_keys)
    else:
        keys = draw(st.lists(routing_keys, min_size=n, max_size=n))
    sizes = draw(st.lists(value_sizes, min_size=n, max_size=n))
    if draw(st.booleans()):
        sizes[draw(st.integers(min_value=0, max_value=n - 1))] = LARGE_VALUE
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    values = [rng.randbytes(size) for size in sizes]
    txn_id = draw(st.sampled_from([None, "", "тx-☃"]))
    batch = pack_values("тема", values, keys, 1.5, "p-σ", 7, txn_id)
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1),
                               max_size=6)) if n > 1 else set())
    bounds = [0, *cuts, n]
    pieces = [(batch.data, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    base_offset = draw(st.integers(min_value=0, max_value=2**40))
    records = [record.with_offset(base_offset + i)
               for i, record in enumerate(batch.records())]
    return repack_slices(pieces, base_offset), records


@settings(max_examples=15, deadline=None)
@given(planar_batches())
def test_every_reader_from_every_start_equals_the_records(case):
    data, records = case
    assert _json_oracle(records) == records
    values = [record.value for record in records]
    for start in range(len(records) + 1):
        tail = records[start:]
        has_txn = any(record.txn_id is not None for record in tail)
        assert decode_slice(data, start) == tail
        assert decode_slice_full(data, start) == (
            tail, sum(record.size_bytes for record in tail), has_txn)
        assert slice_values(data, start) == (values[start:], has_txn)


@settings(max_examples=60, deadline=None)
@given(planar_batches())
def test_buffer_is_header_planes_and_blob_only(case):
    """No index: 12 + 44 per record + the varlen bytes, nothing else."""
    data, records = case
    assert len(data) == 12 + HEADER_BYTES * len(records) + sum(
        map(_varlen, records))


def test_header_block_is_stored_as_byte_planes():
    """Plane j holds byte j of every header: the (n, 44) block transposed."""
    records = pack_values("t", [b"a", b"bb", b""], ["x", "yy", "z"], 2.5,
                          "p", 9, None).records()
    data = encode_slice(records, base_offset=100)
    rows = np.zeros(3, dtype=SLB1_HEADER)
    rows["offset"] = [100, 101, 102]
    rows["timestamp"] = 2.5
    rows["sequence"] = [9, 10, 11]
    rows["topic_len"] = rows["pid_len"] = 1
    rows["key_len"] = [1, 2, 1]
    rows["txn_len"] = 0xFFFFFFFF
    rows["value_len"] = [1, 2, 0]
    block = rows.view(np.uint8).reshape(3, HEADER_BYTES)
    assert data[12:12 + 3 * HEADER_BYTES] == block.T.tobytes()
    assert data[12 + 3 * HEADER_BYTES:] == b"txpa" + b"tyypbb" + b"tzp"


def _slb1(data: bytes) -> bytes:
    """The same records in the replaced ``SLB1`` layout: row-major header
    block, ``u32`` offset index, then the unchanged varlen blob."""
    records = decode_slice(data)
    rows = np.zeros(len(records), dtype=SLB1_HEADER)
    blob = data[12 + HEADER_BYTES * len(records):]
    lengths = np.array([_varlen(record) for record in records])
    index = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype("<u4")
    for i, record in enumerate(records):
        rows[i] = (record.offset, record.timestamp, record.sequence,
                   len(record.topic.encode()), len(record.key.encode()),
                   len(record.producer_id.encode()),
                   0xFFFFFFFF if record.txn_id is None
                   else len(record.txn_id.encode()),
                   len(record.value))
    body = rows.tobytes() + index.tobytes() + blob
    return struct.pack("<4sII", b"SLB1", len(records),
                       zlib.crc32(body)) + body


def _dpi_slice() -> bytes:
    """A sealed 256-record slice of DPI packets keyed by user id."""
    rows = PacketGenerator(PacketConfig(RECORDS_PER_SLICE, seed=5,
                                        tenants=12)).rows()
    values = [json.dumps(row, separators=(",", ":")).encode() for row in rows]
    keys = [json.loads(value)["user_id"] for value in values]
    batch = pack_values("dpi_raw", values, [str(key) for key in keys],
                        1_656_806_400.25, "tenant_03-p", 4096, None)
    return repack_slices([(batch.data, 0, len(batch))], 70_000)


DPI_SLICE = _dpi_slice()
DPI_SLB1 = _slb1(DPI_SLICE)
DEFLATED = (len(zlib.compress(DPI_SLICE, 1)), len(zlib.compress(DPI_SLB1, 1)))


@pytest.mark.parametrize(
    "planar, slb1", [DEFLATED],
    ids=[f"planar_{DEFLATED[0]}B-slb1_{DEFLATED[1]}B"])
def test_dpi_slice_deflates_below_slb1(planar, slb1):
    assert len(DPI_SLB1) - len(DPI_SLICE) == 4 * RECORDS_PER_SLICE
    assert planar <= 0.85 * slb1


def _reseal(planes: np.ndarray, blob: bytes, count: int) -> bytes:
    """``planes`` + ``blob`` under a planar batch header with a valid CRC
    for a claimed record ``count``."""
    body = planes.tobytes() + blob
    return struct.pack("<4sII", DPI_SLICE[:4], count,
                       zlib.crc32(body)) + body


def _corruptions() -> dict[str, bytes]:
    n = RECORDS_PER_SLICE
    planes_end = 12 + HEADER_BYTES * n
    planes = np.frombuffer(DPI_SLICE, dtype=np.uint8, count=planes_end - 12,
                           offset=12).reshape(HEADER_BYTES, n)
    blob = DPI_SLICE[planes_end:]

    def last_value_len(delta: int) -> np.ndarray:
        rows = np.ascontiguousarray(planes.T).view(SLB1_HEADER)[:, 0]
        rows["value_len"][-1] = int(rows["value_len"][-1]) + delta
        return rows.view(np.uint8).reshape(n, HEADER_BYTES).T

    return {
        "truncated_planes": DPI_SLICE[:planes_end - 5],
        "lengths_past_blob": _reseal(last_value_len(+1), blob, n),
        "lengths_short_of_blob": _reseal(last_value_len(-1), blob, n),
        "wrong_count": _reseal(planes, blob, n - 1),
        "count_past_buffer": _reseal(planes, blob, 10 * n),
        "crc_mismatch": DPI_SLICE[:-1] + bytes([DPI_SLICE[-1] ^ 1]),
        "slb1_buffer": DPI_SLB1,
    }


@pytest.mark.parametrize("name", sorted(_corruptions()))
@pytest.mark.parametrize("reader", [decode_slice, decode_slice_full,
                                    slice_values])
def test_corruption_raises_corruption_error(name, reader):
    data = _corruptions()[name]
    with pytest.raises(CorruptionError):
        reader(data)


@pytest.mark.parametrize("name", ["truncated_planes", "lengths_past_blob",
                                  "lengths_short_of_blob", "wrong_count"])
def test_repack_rejects_inconsistent_lengths(name):
    data = _corruptions()[name]
    with pytest.raises(CorruptionError):
        repack_slices([(data, 0, 1)], 0)


READERS = [decode_slice, decode_slice_full, slice_values, decode_records]


def _magicless() -> dict[str, bytes]:
    """Buffers without the ``SLP1`` magic: empty, short, and every
    single-bit flip of a sealed slice's magic."""
    data = encode_slice(decode_slice(DPI_SLICE)[:3], base_offset=0)
    cases = {"empty": b"", "short_SLP": b"SLP"}
    for bit in range(32):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        cases[f"magic_bit_{bit}"] = bytes(flipped)
    return cases


@pytest.mark.parametrize("name", sorted(_magicless()))
@pytest.mark.parametrize("reader", READERS)
def test_readers_reject_buffers_without_the_magic(name, reader):
    with pytest.raises(CorruptionError, match="magic"):
        reader(_magicless()[name])
