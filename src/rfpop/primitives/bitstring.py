"""Byte helpers for protocol values.

Every protocol value (challenge, nonce, index, key, sid, PRF output, mask) is
`bytes`: every length the protocols use is a whole number of bytes, and the
boundaries where data enters (message slots, wire and file decoding, setup,
`prf_eval`) check those lengths. Concatenation is `+`; this module holds the
rest: XOR of equal-length values, splitting into fixed-width fields, and
single-bit flips for tamper experiments. Bit 0 is the most significant bit
of byte 0.
"""

from __future__ import annotations

from rfpop.errors import LengthMismatch


def xor(a: bytes, b: bytes) -> bytes:
    """Bitwise XOR of two values of the same length."""
    if len(a) != len(b):
        raise LengthMismatch(f"xor of {len(a)}-byte and {len(b)}-byte values")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def split(data: bytes, *widths: int) -> tuple[bytes, ...]:
    """Split into consecutive fields of the given byte widths, which must sum
    to the length of `data`."""
    if sum(widths) != len(data):
        raise LengthMismatch(f"split widths sum to {sum(widths)}, value has {len(data)} bytes")
    parts = []
    at = 0
    for width in widths:
        parts.append(data[at : at + width])
        at += width
    return tuple(parts)


def flip_bit(data: bytes, pos: int) -> bytes:
    """Return a copy with bit `pos` flipped (0 = most significant)."""
    if not 0 <= pos < 8 * len(data):
        raise LengthMismatch(f"bit {pos} out of range for {8 * len(data)} bits")
    out = bytearray(data)
    out[pos // 8] ^= 0x80 >> (pos % 8)
    return bytes(out)


class BitString:
    """Stub kept only so that `bench/tracing.py` can wrap `__post_init__`
    to count objects. Nothing in the package constructs it, so that count
    reads 0."""

    def __post_init__(self):
        pass
