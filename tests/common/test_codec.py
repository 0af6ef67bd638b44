"""Unit and property tests for the length+CRC frames of the JSON slice
oracle (``tests/stream/json_codec.py``), which the planar codec's tests
compare against."""

import pytest
from hypothesis import given, strategies as st

from tests.stream.json_codec import frame, frames, unframe
from repro.errors import CorruptionError


def test_roundtrip():
    assert unframe(frame(b"hello")) == b"hello"


def test_empty_payload():
    assert unframe(frame(b"")) == b""


@given(st.binary(max_size=4096))
def test_roundtrip_property(payload):
    assert unframe(frame(payload)) == payload


@given(st.lists(st.binary(max_size=256), max_size=20))
def test_frames_roundtrip(payloads):
    blob = b"".join(frame(p) for p in payloads)
    assert frames(blob) == payloads


def test_truncated_header_raises():
    with pytest.raises(CorruptionError):
        unframe(b"\x01\x00")


def test_truncated_payload_raises():
    framed = frame(b"hello world")
    with pytest.raises(CorruptionError):
        unframe(framed[:-3])


def test_bitflip_detected():
    framed = bytearray(frame(b"hello world"))
    framed[-1] ^= 0xFF
    with pytest.raises(CorruptionError):
        unframe(bytes(framed))


def test_frames_trailing_garbage_raises():
    blob = frame(b"ok") + b"\x01"
    with pytest.raises(CorruptionError):
        frames(blob)
