"""Deterministic randomness with labeled substreams.

Experiments must be replayable from a single master seed, and parallel trials
must not share state. Rng is a counter-mode DRBG over keyed BLAKE2b; `spawn`
derives an independent child stream from a label, so per-trial and per-party
streams are stable regardless of evaluation order.
"""

from __future__ import annotations

import hashlib

from rfpop.errors import LengthMismatch

_SEED_LEN = 32
_BLOCK_LEN = 64


def _as_seed(seed) -> bytes:
    """Accept bytes, int, or str master seeds and normalize to 32 bytes."""
    if isinstance(seed, bytes):
        raw = seed
    elif isinstance(seed, int):
        raw = seed.to_bytes((max(seed.bit_length(), 1) + 7) // 8, "big")
    elif isinstance(seed, str):
        raw = seed.encode()
    else:
        raise TypeError(f"unsupported seed type {type(seed).__name__}")
    return hashlib.blake2b(raw, digest_size=_SEED_LEN, person=b"rfpop-seed").digest()


class Rng:
    """Deterministic byte stream seeded from 32 bytes."""

    def __init__(self, seed):
        self._seed = _as_seed(seed)
        self._counter = 0
        self._buf = b""

    @property
    def seed_hex(self) -> str:
        return self._seed.hex()

    def _refill(self):
        block = hashlib.blake2b(
            self._counter.to_bytes(8, "big"),
            key=self._seed,
            digest_size=_BLOCK_LEN,
        ).digest()
        self._counter += 1
        self._buf += block

    def take_bytes(self, n: int) -> bytes:
        while len(self._buf) < n:
            self._refill()
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def take_bits(self, nbits: int) -> bytes:
        """A protocol value of `nbits` bits, a whole number of bytes."""
        if nbits % 8:
            raise LengthMismatch(f"{nbits} bits is not a whole number of bytes")
        return self.take_bytes(nbits // 8)

    def _take_int(self, nbits: int) -> int:
        """The top `nbits` bits of the next ceil(nbits / 8) bytes."""
        nbytes = (nbits + 7) // 8
        return int.from_bytes(self.take_bytes(nbytes), "big") >> (8 * nbytes - nbits)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        nbits = (n - 1).bit_length() or 1
        while True:
            v = self._take_int(nbits)
            if v < n:
                return v

    def coin(self) -> int:
        return self._take_int(1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def spawn(self, label: str) -> "Rng":
        """Derive an independent child stream keyed by `label`."""
        child_seed = hashlib.blake2b(
            label.encode(),
            key=self._seed,
            digest_size=_SEED_LEN,
            person=b"rfpop-spwn",
        ).digest()
        return Rng(child_seed)
