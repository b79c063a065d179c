"""Keyed pseudorandom functions and hashing.

The protocols are written against length-typed function families, not a named
algorithm. A PrfDescriptor pins the key length, the input length (None for
variable-length input), and the default output length, in bits that make
whole bytes. Keys, inputs and outputs are `bytes`, and evaluation checks
their lengths against the descriptor. The backend is keyed BLAKE2b, whose
parameter block includes the digest size, so different output lengths give
independent functions by construction.

Every evaluation counts as one hash operation for cost accounting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from rfpop.errors import LengthMismatch
from rfpop.primitives.counters import count_hash

_MAX_DIGEST = 64  # BLAKE2b ceiling; all protocol outputs fit


@dataclass(frozen=True)
class PrfDescriptor:
    """Length contract for one keyed function family.

    in_bits None means the family accepts variable-length input (used for the
    credential-masking family, whose inputs are transcript digests and
    signatures of differing lengths).
    """

    name: str
    key_bits: int
    in_bits: Optional[int]
    out_bits: int

    def __post_init__(self):
        for label, bits in (("key", self.key_bits), ("out", self.out_bits)):
            if bits <= 0 or bits % 8:
                raise LengthMismatch(f"{self.name}: {label}_bits must be a positive multiple of 8")
        if self.in_bits is not None and (self.in_bits <= 0 or self.in_bits % 8):
            raise LengthMismatch(f"{self.name}: in_bits must be a positive multiple of 8")
        if self.out_bits > 8 * _MAX_DIGEST:
            raise LengthMismatch(f"{self.name}: out_bits above backend maximum")


def prf_eval(
    desc: PrfDescriptor,
    key: bytes,
    data: bytes,
    out_bits: Optional[int] = None,
) -> bytes:
    """Evaluate the keyed family described by `desc`.

    out_bits overrides the descriptor's default output length (the masking
    family is evaluated at several output lengths; each length is an
    independent function).
    """
    if 8 * len(key) != desc.key_bits:
        raise LengthMismatch(
            f"{desc.name}: key is {8 * len(key)} bits, descriptor says {desc.key_bits}"
        )
    if desc.in_bits is not None and 8 * len(data) != desc.in_bits:
        raise LengthMismatch(
            f"{desc.name}: input is {8 * len(data)} bits, descriptor says {desc.in_bits}"
        )
    width = out_bits if out_bits is not None else desc.out_bits
    if width <= 0 or width % 8 or width > 8 * _MAX_DIGEST:
        raise LengthMismatch(f"{desc.name}: unsupported output length {width}")
    count_hash()
    return hashlib.blake2b(data, key=key, digest_size=width // 8).digest()


def hash_digest(data: bytes, out_bits: int = 256) -> bytes:
    """Unkeyed hash at the requested output length."""
    if out_bits <= 0 or out_bits % 8 or out_bits > 8 * _MAX_DIGEST:
        raise LengthMismatch(f"unsupported hash output length {out_bits}")
    count_hash()
    return hashlib.blake2b(data, digest_size=out_bits // 8).digest()
