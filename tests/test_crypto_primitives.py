"""Tests for keyed hashing, pads, and XOR helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.primitives import (
    BLOCK_SIZE,
    HASH_SIZE,
    int_bytes,
    keyed_hash,
    one_time_pad,
    xor_bytes,
)


def test_keyed_hash_deterministic():
    a = keyed_hash(b"k", b"data")
    b = keyed_hash(b"k", b"data")
    assert a == b
    assert len(a) == HASH_SIZE


def test_keyed_hash_key_separation():
    assert keyed_hash(b"k1", b"data") != keyed_hash(b"k2", b"data")


def test_keyed_hash_length_prefixing_prevents_ambiguity():
    # ("ab", "c") must differ from ("a", "bc") even though the raw
    # concatenations are identical.
    assert keyed_hash(b"k", b"ab", b"c") != keyed_hash(b"k", b"a", b"bc")


def test_keyed_hash_digest_size():
    assert len(keyed_hash(b"k", b"x", digest_size=32)) == 32


def test_int_bytes_roundtrip():
    assert int.from_bytes(int_bytes(123456789), "little") == 123456789
    assert int_bytes(7, width=1) == b"\x07"
    with pytest.raises(ValueError):
        int_bytes(-1)


def test_one_time_pad_length_and_determinism():
    pad = one_time_pad(b"k", 0x1000, b"seed", BLOCK_SIZE)
    assert len(pad) == BLOCK_SIZE
    assert pad == one_time_pad(b"k", 0x1000, b"seed", BLOCK_SIZE)


def test_one_time_pad_spatial_uniqueness():
    a = one_time_pad(b"k", 0x1000, b"seed", BLOCK_SIZE)
    b = one_time_pad(b"k", 0x1040, b"seed", BLOCK_SIZE)
    assert a != b


def test_one_time_pad_temporal_uniqueness():
    a = one_time_pad(b"k", 0x1000, b"seed1", BLOCK_SIZE)
    b = one_time_pad(b"k", 0x1000, b"seed2", BLOCK_SIZE)
    assert a != b


def test_one_time_pad_long_output():
    pad = one_time_pad(b"k", 0, b"s", 100)
    assert len(pad) == 100
    # Prefix property: a shorter request is a prefix of a longer one.
    assert one_time_pad(b"k", 0, b"s", 32) == pad[:32]


def test_xor_bytes_involution():
    a = bytes(range(64))
    pad = one_time_pad(b"k", 0, b"s", 64)
    assert xor_bytes(xor_bytes(a, pad), pad) == a


def test_xor_bytes_length_mismatch():
    with pytest.raises(ValueError):
        xor_bytes(b"ab", b"a")


@given(st.data())
def test_xor_bytes_matches_the_bytewise_loop(data):
    """Same bytes as XORing pair by pair, leading/trailing zeros and the
    empty string included."""
    a = data.draw(st.binary(max_size=130))
    b = data.draw(st.binary(min_size=len(a), max_size=len(a)))
    out = xor_bytes(a, b)
    assert type(out) is bytes
    assert out == bytes(x ^ y for x, y in zip(a, b))
    assert xor_bytes(bytearray(a), b) == out
