"""Property tests: packed slice codec vs the seed's legacy JSON framing.

The packed ``SLB1`` columnar format replaced the legacy JSON-in-triple-
frame slice codec on the ingest path.  These tests pin that the two
codecs agree record-for-record on arbitrary inputs (unicode topics and
keys, empty and ``None`` transaction ids, 0-byte and multi-MB values),
that legacy bytes still decode through the ``decode_slice`` dispatch,
and that partial reads through the slice offset index equal suffixes of
a full decode.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.stream.records import (
    MessageRecord,
    decode_slice,
    decode_slice_full,
    encode_records,
    encode_slice,
    encode_slice_legacy,
    is_packed,
    pack_values,
    repack_slices,
)

unicode_text = st.text(max_size=24)

records = st.builds(
    MessageRecord,
    topic=unicode_text,
    key=unicode_text,
    value=st.binary(max_size=300),
    offset=st.integers(min_value=-1, max_value=2**40),
    timestamp=st.floats(min_value=0, max_value=1e10, allow_nan=False),
    producer_id=st.text(max_size=16),
    sequence=st.integers(min_value=-1, max_value=2**31),
    txn_id=st.none() | st.text(max_size=16),
)

slices = st.lists(records, max_size=32)

#: a small alphabet so requests repeat keys; empty and unicode included
routing_keys = st.sampled_from(["", "k", "kk", "ключ-✓", "user-7", "☃"])
#: one key per record — drawn freely, or all equal
keyed_values = st.lists(
    st.tuples(routing_keys, st.binary(max_size=200)), max_size=32,
) | st.builds(
    lambda key, values: [(key, value) for value in values],
    routing_keys, st.lists(st.binary(max_size=200), max_size=32),
)


@settings(max_examples=100, deadline=None)
@given(batch=slices)
def test_codecs_roundtrip_identically(batch):
    """Both codecs invert to the exact same records on arbitrary input."""
    packed = encode_slice(batch)
    legacy = encode_slice_legacy(batch)
    assert is_packed(packed)
    assert not is_packed(legacy)
    assert decode_slice(packed) == batch
    assert decode_slice(legacy) == batch  # legacy fallback dispatch


@settings(max_examples=100, deadline=None)
@given(batch=slices, start=st.integers(min_value=0, max_value=40))
def test_partial_read_equals_full_decode_suffix(batch, start):
    """Seeking via the offset index == slicing a full decode, both codecs."""
    for data in (encode_slice(batch), encode_slice_legacy(batch)):
        assert decode_slice(data, start=start) == batch[start:]


@settings(max_examples=60, deadline=None)
@given(batch=slices, start=st.integers(min_value=0, max_value=40))
def test_decode_slice_full_matches_per_record_accounting(batch, start):
    """The vectorized size/txn summary equals the per-record reduction."""
    for data in (encode_slice(batch), encode_slice_legacy(batch)):
        decoded, size, has_txn = decode_slice_full(data, start=start)
        expected = batch[start:]
        assert decoded == expected
        assert size == sum(record.size_bytes for record in expected)
        assert has_txn == any(r.txn_id is not None for r in expected)


def test_extreme_records_roundtrip_both_codecs():
    """0-byte and multi-MB values, unicode metadata, txn None vs ''."""
    batch = [
        MessageRecord("тема-σ☃", "ключ-✓", b"", offset=0, timestamp=1.25,
                      producer_id="производитель", sequence=0, txn_id=None),
        MessageRecord("тема-σ☃", "", b"\x00" * (2 * 1024 * 1024), offset=1,
                      timestamp=2.5, producer_id="p", sequence=1, txn_id=""),
        MessageRecord("", "k", b"v" * 1024, offset=2, timestamp=3.75,
                      producer_id="", sequence=2, txn_id="тx-☃"),
    ]
    for data in (encode_slice(batch), encode_slice_legacy(batch)):
        decoded = decode_slice(data)
        assert decoded == batch
        # the empty-string txn must survive distinctly from None
        assert decoded[0].txn_id is None
        assert decoded[1].txn_id == ""


@settings(max_examples=60, deadline=None)
@given(
    topic=unicode_text,
    key=unicode_text,
    values=st.lists(st.binary(max_size=200), min_size=1, max_size=32),
    timestamp=st.floats(min_value=0, max_value=1e10, allow_nan=False),
    producer_id=st.text(max_size=16),
    base_sequence=st.integers(min_value=0, max_value=2**31),
    txn_id=st.none() | st.text(max_size=16),
)
def test_pack_values_equals_record_construction(topic, key, values, timestamp,
                                                producer_id, base_sequence,
                                                txn_id):
    """A producer-packed batch materializes to the records it stands for."""
    batch = pack_values(topic, values, key, timestamp, producer_id,
                        base_sequence, txn_id)
    expected = [
        MessageRecord(topic, key, value, offset=-1, timestamp=timestamp,
                      producer_id=producer_id, sequence=base_sequence + i,
                      txn_id=txn_id)
        for i, value in enumerate(values)
    ]
    assert len(batch) == len(values)
    assert batch.records() == expected
    assert batch.wire_bytes == sum(r.size_bytes for r in expected)


@settings(max_examples=100, deadline=None)
@given(
    topic=unicode_text,
    pairs=keyed_values,
    timestamp=st.floats(min_value=0, max_value=1e10, allow_nan=False),
    producer_id=st.text(max_size=16),
    base_sequence=st.integers(min_value=0, max_value=2**31),
    txn_id=st.none() | st.text(max_size=16),
)
def test_pack_values_per_record_keys(topic, pairs, timestamp, producer_id,
                                     base_sequence, txn_id):
    """Every record comes back with its own key, and the bytes are the
    record codec's — so a batch whose keys are all equal is byte for byte
    the single-key batch the packer produced before it took key lists."""
    keys = [key for key, _ in pairs]
    values = [value for _, value in pairs]
    batch = pack_values(topic, values, keys, timestamp, producer_id,
                        base_sequence, txn_id)
    expected = [
        MessageRecord(topic, key, value, offset=-1, timestamp=timestamp,
                      producer_id=producer_id, sequence=base_sequence + i,
                      txn_id=txn_id)
        for i, (key, value) in enumerate(pairs)
    ]
    assert len(batch) == len(pairs)
    assert batch.records() == expected
    assert batch.wire_bytes == sum(
        len(key.encode()) + len(value) + 48 for key, value in pairs)
    assert batch.data == encode_records(expected)
    if len(set(keys)) == 1:
        shared = pack_values(topic, values, keys[0], timestamp, producer_id,
                             base_sequence, txn_id)
        assert shared.data == batch.data
        assert shared.wire_bytes == batch.wire_bytes


def test_pack_values_rejects_mismatched_key_count():
    with pytest.raises(ValueError):
        pack_values("t", [b"a", b"b"], ["k"], 0.0, "p", 0, None)


@settings(max_examples=60, deadline=None)
@given(
    shared=st.lists(st.binary(max_size=64), min_size=1, max_size=16),
    keyed=st.lists(st.tuples(routing_keys, st.binary(max_size=64)),
                   min_size=1, max_size=16),
    base_offset=st.integers(min_value=0, max_value=2**40),
    cut=st.data(),
)
def test_repack_slices_mixes_single_and_multi_key_pieces(shared, keyed,
                                                         base_offset, cut):
    """Single-key and per-record-key buffers merge into one slice that
    decodes to the concatenation of the chosen record ranges."""
    a = pack_values("t", shared, "k", 1.0, "pa", 0, "txn")
    b = pack_values("t", [value for _, value in keyed],
                    [key for key, _ in keyed], 2.0, "pb", 100, None)
    pieces, expected = [], []
    for batch in (b, a, b):
        start = cut.draw(st.integers(min_value=0, max_value=len(batch) - 1))
        stop = cut.draw(st.integers(min_value=start + 1,
                                    max_value=len(batch)))
        pieces.append((batch.data, start, stop))
        expected += batch.records()[start:stop]
    merged = repack_slices(pieces, base_offset)
    assert decode_slice(merged) == [
        record.with_offset(base_offset + i)
        for i, record in enumerate(expected)
    ]


@settings(max_examples=60, deadline=None)
@given(
    left=st.lists(st.binary(max_size=64), min_size=1, max_size=16),
    right=st.lists(st.binary(max_size=64), min_size=1, max_size=16),
    base_offset=st.integers(min_value=0, max_value=2**40),
    cut=st.data(),
)
def test_repack_slices_equals_materialized_encode(left, right, base_offset,
                                                  cut):
    """Byte-range merging == decode + re-encode of the same record ranges."""
    a = pack_values("t", left, "k", 1.0, "pa", 0, None)
    b = pack_values("t", right, "", 2.0, "pb", 100, "txn")
    a_start = cut.draw(st.integers(min_value=0, max_value=len(left) - 1))
    a_stop = cut.draw(st.integers(min_value=a_start + 1, max_value=len(left)))
    b_stop = cut.draw(st.integers(min_value=1, max_value=len(right)))
    merged = repack_slices(
        [(a.data, a_start, a_stop), (b.data, 0, b_stop)], base_offset
    )
    expected = a.records()[a_start:a_stop] + b.records()[:b_stop]
    expected = [
        record.with_offset(base_offset + i)
        for i, record in enumerate(expected)
    ]
    assert decode_slice(merged) == expected
