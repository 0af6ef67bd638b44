"""Unit and property tests for GF(2^8) arithmetic and Reed-Solomon."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnrecoverableDataError
from repro.storage.ec import ReedSolomon, _matmul, gf_inv, gf_mul, gf_pow

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


# --- field axioms ----------------------------------------------------------

@given(elements, elements)
def test_mul_commutative(a, b):
    assert gf_mul(a, b) == gf_mul(b, a)


@given(elements, elements, elements)
def test_mul_associative(a, b, c):
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


@given(elements)
def test_mul_identity(a):
    assert gf_mul(a, 1) == a


@given(elements)
def test_mul_zero(a):
    assert gf_mul(a, 0) == 0


@given(nonzero)
def test_inverse(a):
    assert gf_mul(a, gf_inv(a)) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


@given(elements, elements, elements)
def test_distributive(a, b, c):
    # addition in GF(2^8) is XOR
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


@given(nonzero, st.integers(min_value=0, max_value=10))
def test_pow_matches_repeated_mul(a, n):
    expected = 1
    for _ in range(n):
        expected = gf_mul(expected, a)
    assert gf_pow(a, n) == expected


# --- matrix product ----------------------------------------------------------

#: coefficients biased toward the kernel's special cases: 0 is skipped,
#: 1 is a plain XOR, everything else a table gather
coefficients = st.sampled_from([0, 0, 1, 1, 2, 29, 142, 255]) | elements


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=0, max_value=4),
    k=st.integers(min_value=1, max_value=5),
    length=st.integers(min_value=0, max_value=40),
    data=st.data(),
)
def test_matmul_equals_gf_mul_double_loop(rows, k, length, data):
    """The per-coefficient gather kernel == the scalar definition, zero
    and identity coefficients, all-zero rows and empty shards included."""
    matrix = np.array(
        data.draw(st.lists(st.lists(coefficients, min_size=k, max_size=k),
                           min_size=rows, max_size=rows)),
        dtype=np.uint8).reshape(rows, k)
    shards = np.array(
        data.draw(st.lists(st.lists(elements, min_size=length,
                                    max_size=length),
                           min_size=k, max_size=k)),
        dtype=np.uint8).reshape(k, length)
    expected = np.zeros((rows, length), dtype=np.uint8)
    for row in range(rows):
        for position in range(length):
            total = 0
            for col in range(k):
                total ^= gf_mul(int(matrix[row, col]),
                                int(shards[col, position]))
            expected[row, position] = total
    before = shards.copy()
    product = _matmul(matrix, shards)
    assert product.dtype == np.uint8
    assert np.array_equal(product, expected)
    assert np.array_equal(shards, before)  # operands are not written


def test_matmul_zero_row_and_identity():
    shards = np.arange(12, dtype=np.uint8).reshape(3, 4)
    zero_row = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 1]], dtype=np.uint8)
    product = _matmul(zero_row, shards)
    assert product[0].tolist() == [0, 0, 0, 0]
    assert product[1].tolist() == shards[0].tolist()
    assert product[2].tolist() == (shards[0] ^ shards[1] ^ shards[2]).tolist()
    assert np.array_equal(_matmul(np.eye(3, dtype=np.uint8), shards), shards)


# --- codec construction -----------------------------------------------------

def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ReedSolomon(0, 2)
    with pytest.raises(ValueError):
        ReedSolomon(200, 60)


def test_storage_overhead():
    assert ReedSolomon(4, 2).storage_overhead == 1.5
    assert ReedSolomon(8, 1).storage_overhead == 1.125


def test_shard_count_and_systematic_prefix():
    codec = ReedSolomon(4, 2)
    data = bytes(range(200))
    shards = codec.encode(data)
    assert len(shards) == 6
    # systematic: concatenated data shards start with the original payload
    assert b"".join(shards[:4])[: len(data)] == data


# --- decode under erasures ----------------------------------------------------

def test_decode_intact():
    codec = ReedSolomon(4, 2)
    data = b"streamlake" * 50
    shards = codec.encode(data)
    assert codec.decode(list(shards), len(data)) == data


def test_decode_with_max_erasures():
    codec = ReedSolomon(4, 2)
    data = b"abcdefgh" * 33
    shards = list(codec.encode(data))
    shards[1] = None
    shards[4] = None
    assert codec.decode(shards, len(data)) == data


def test_decode_too_many_erasures_raises():
    codec = ReedSolomon(4, 2)
    shards = list(codec.encode(b"x" * 64))
    shards[0] = shards[1] = shards[2] = None
    with pytest.raises(UnrecoverableDataError):
        codec.decode(shards, 64)


def test_decode_wrong_slot_count_raises():
    codec = ReedSolomon(4, 2)
    with pytest.raises(ValueError):
        codec.decode([b"x"] * 5, 4)


def test_reconstruct_data_shard():
    codec = ReedSolomon(5, 3)
    data = bytes(range(256)) * 3
    shards = list(codec.encode(data))
    lost = shards[2]
    shards[2] = None
    assert codec.reconstruct_shard(shards, 2, len(data)) == lost


def test_reconstruct_parity_shard():
    codec = ReedSolomon(3, 2)
    data = b"parity-please" * 9
    shards = list(codec.encode(data))
    lost = shards[4]
    shards[4] = None
    assert codec.reconstruct_shard(shards, 4, len(data)) == lost


@settings(max_examples=30, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=2000),
    k=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=0, max_value=4),
    erase_seed=st.integers(min_value=0, max_value=2**31),
)
def test_roundtrip_under_arbitrary_erasures(data, k, m, erase_seed):
    """Any m erasures of an RS(k+m) codeword decode to the original."""
    import random

    codec = ReedSolomon(k, m)
    shards = list(codec.encode(data))
    rng = random.Random(erase_seed)
    for index in rng.sample(range(k + m), m):
        shards[index] = None
    assert codec.decode(shards, len(data)) == data


@settings(max_examples=25, deadline=None)
@given(
    data=st.binary(min_size=0, max_size=3000),
    geometry=st.sampled_from([(4, 2), (10, 4)]),
    erasures=st.integers(min_value=0, max_value=4),
    erase_seed=st.integers(min_value=0, max_value=2**31),
)
def test_production_geometries_roundtrip(data, geometry, erasures, erase_seed):
    """RS(4+2) and RS(10+4): encode -> erase up to m shards -> decode, and
    the batched encode emits the same shards as the one-payload encode."""
    import random

    k, m = geometry
    codec = ReedSolomon(k, m)
    shards = codec.encode(data)
    assert codec.encode_batch([data, data[::-1]])[0] == shards
    survivors: list[bytes | None] = list(shards)
    rng = random.Random(erase_seed)
    for index in rng.sample(range(k + m), min(erasures, m)):
        survivors[index] = None
    assert codec.decode(survivors, len(data)) == data


def test_empty_parity_configuration():
    codec = ReedSolomon(4, 0)
    data = b"no-parity" * 10
    assert codec.decode(list(codec.encode(data)), len(data)) == data


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=1, max_value=3),
    erase_seed=st.integers(min_value=0, max_value=2**31),
)
def test_beyond_m_erasures_names_lost_shards(k, m, extra, erase_seed):
    """Losing more than m shards raises and the error lists exactly which."""
    import random

    codec = ReedSolomon(k, m)
    shards = list(codec.encode(b"\x5a" * 32 * k))
    rng = random.Random(erase_seed)
    lost = sorted(rng.sample(range(k + m), min(m + extra, k + m)))
    for index in lost:
        shards[index] = None
    with pytest.raises(UnrecoverableDataError) as excinfo:
        codec.decode(shards, 32 * k)
    assert f"lost shards {lost}" in str(excinfo.value)
