"""Byte helpers for protocol values: XOR, field splits, single-bit flips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfpop.errors import LengthMismatch
from rfpop.primitives.bitstring import flip_bit, split, xor


def test_msb_first_ordering():
    data = b"\x80\x00"
    assert flip_bit(data, 0) == bytes(2)
    assert flip_bit(bytes(2), 7) == b"\x01\x00"
    assert flip_bit(bytes(2), 15) == b"\x00\x01"


def test_flip_bit_out_of_range_raises():
    with pytest.raises(LengthMismatch):
        flip_bit(bytes(2), 16)
    with pytest.raises(LengthMismatch):
        flip_bit(bytes(2), -1)
    with pytest.raises(LengthMismatch):
        flip_bit(b"", 0)


@given(st.binary(max_size=32), st.binary(max_size=32))
def test_concat_preserves_content(a, b):
    assert split(a + b, len(a), len(b)) == (a, b)


@given(st.binary(max_size=32))
def test_xor_self_is_zero(a):
    assert xor(a, a) == bytes(len(a))
    assert xor(a, bytes(len(a))) == a


@given(st.binary(min_size=1, max_size=32), st.binary(min_size=1, max_size=32))
def test_xor_is_bytewise(a, b):
    a, b = a[: len(b)], b[: len(a)]
    assert xor(a, b) == bytes(x ^ y for x, y in zip(a, b))


def test_xor_length_mismatch():
    with pytest.raises(LengthMismatch):
        xor(b"\x01", b"\x00\x01")


@given(st.binary(min_size=1, max_size=8), st.data())
def test_flip_bit_is_involution(a, data):
    pos = data.draw(st.integers(min_value=0, max_value=8 * len(a) - 1))
    flipped = flip_bit(a, pos)
    assert flipped != a
    assert len(flipped) == len(a)
    assert flip_bit(flipped, pos) == a


@given(st.binary(min_size=3, max_size=12))
def test_split_inverts_concat(a):
    w1 = w2 = len(a) // 3
    parts = split(a, w1, w2, len(a) - w1 - w2)
    assert [len(p) for p in parts] == [w1, w2, len(a) - w1 - w2]
    assert b"".join(parts) == a


def test_split_must_cover_exactly():
    with pytest.raises(LengthMismatch):
        split(bytes(2), 1)
    with pytest.raises(LengthMismatch):
        split(bytes(2), 2, 1)
