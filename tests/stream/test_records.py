"""Unit and property tests for message records and the slice codec."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CorruptionError
from repro.stream.records import (
    RECORDS_PER_SLICE,
    MessageRecord,
    decode_records,
    decode_slice,
    encode_records,
    encode_slice,
)

safe_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=1000), max_size=40
)

records = st.builds(
    MessageRecord,
    topic=safe_text,
    key=safe_text,
    value=st.binary(max_size=200),
    offset=st.integers(min_value=-1, max_value=2**40),
    timestamp=st.floats(min_value=0, max_value=1e10, allow_nan=False),
    producer_id=safe_text,
    sequence=st.integers(min_value=-1, max_value=2**31),
    txn_id=st.none() | safe_text,
)


def test_slice_capacity_is_256():
    assert RECORDS_PER_SLICE == 256  # the paper, Section IV-A


def test_encode_decode_roundtrip():
    record = MessageRecord("t", "k", b"hello", offset=7, timestamp=1.5,
                           producer_id="p", sequence=3, txn_id="txn-1")
    assert decode_records(encode_records([record])) == [record]


@given(records)
def test_roundtrip_property(record):
    assert decode_records(encode_records([record])) == [record]


def test_with_offset_preserves_everything_else():
    record = MessageRecord("t", "k", b"v", producer_id="p", sequence=9)
    stamped = record.with_offset(42)
    assert stamped.offset == 42
    assert stamped.key == "k"
    assert stamped.producer_id == "p"
    assert stamped.sequence == 9


def test_size_bytes_accounts_key_value_header():
    record = MessageRecord("t", "abcd", b"123456")
    assert record.size_bytes == 4 + 6 + 48


@given(st.lists(records, max_size=30))
def test_slice_roundtrip(batch):
    assert decode_slice(encode_slice(batch)) == batch


def test_slice_rejects_oversize():
    batch = [MessageRecord("t", "k", b"")] * (RECORDS_PER_SLICE + 1)
    with pytest.raises(ValueError):
        encode_slice(batch)


@given(st.lists(records, max_size=40))
def test_unbounded_records_roundtrip(batch):
    assert decode_records(encode_records(batch)) == batch


def test_malformed_record_raises():
    with pytest.raises(CorruptionError, match="magic"):
        decode_records(b"not a frame")
