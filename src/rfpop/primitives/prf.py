"""Keyed pseudorandom functions and hashing.

The protocols are written against length-typed function families, not a named
algorithm. A PrfDescriptor pins the key length, the input length (None for
variable-length input), and the default output length, in bits that make
whole bytes. Keys, inputs and outputs are `bytes`, and evaluation checks
their lengths against the descriptor. The backend is keyed BLAKE2b, whose
parameter block includes the digest size, so different output lengths give
independent functions by construction.

Every evaluation counts as one hash operation for cost accounting.
`prf_eval` is the one evaluation entry: it runs six times per honest `ma`
session, so it checks its arguments in one pass, and it counts the hash
itself rather than through `count_hash`.

A caller that evaluates many inputs under one key can key a BLAKE2b state
once (`prf_state`) and evaluate on copies of it. The reader's Step-2 scan
does this for every record, and counts its evaluations itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Optional

from rfpop.errors import LengthMismatch
from rfpop.primitives.counters import _stack, count_hash

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


def _check_key(desc: PrfDescriptor, key: bytes):
    if 8 * len(key) != desc.key_bits:
        raise LengthMismatch(
            f"{desc.name}: key is {8 * len(key)} bits, descriptor says {desc.key_bits}"
        )


def check_input(desc: PrfDescriptor, data: bytes):
    """Raise LengthMismatch unless `data` is an input the family accepts."""
    if desc.in_bits is not None and 8 * len(data) != desc.in_bits:
        raise LengthMismatch(
            f"{desc.name}: input is {8 * len(data)} bits, descriptor says {desc.in_bits}"
        )


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

    The key and input lengths are tested inline, in one pass, and the
    checkers are called only to raise; the width is re-checked only when
    `out_bits` is passed, since the descriptor validated its own.
    """
    if 8 * len(key) != desc.key_bits:
        _check_key(desc, key)
    if desc.in_bits is not None and 8 * len(data) != desc.in_bits:
        check_input(desc, data)
    if out_bits is None:
        width = desc.out_bits
    elif out_bits <= 0 or out_bits % 8 or out_bits > 8 * _MAX_DIGEST:
        raise LengthMismatch(f"{desc.name}: unsupported output length {out_bits}")
    else:
        width = out_bits
    if _stack:
        _stack[-1].hashes += 1
    return blake2b(data, key=key, digest_size=width // 8).digest()


def prf_state(desc: PrfDescriptor, key: bytes):
    """A BLAKE2b state keyed with `key` at the descriptor's output length.

    F_key(x) is the digest of a copy of the state fed x, the same value
    prf_eval(desc, key, x) returns. Building the state checks the key length
    and counts no hash."""
    _check_key(desc, key)
    return blake2b(key=key, digest_size=desc.out_bits // 8)


def hash_digest(data: bytes, out_bits: int = 256) -> bytes:
    """Unkeyed hash at the requested output length."""
    if out_bits <= 0 or out_bits % 8 or out_bits > 8 * _MAX_DIGEST:
        raise LengthMismatch(f"unsupported hash output length {out_bits}")
    count_hash()
    return blake2b(data, digest_size=out_bits // 8).digest()
