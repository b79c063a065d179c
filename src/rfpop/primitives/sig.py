"""Signature schemes for the proof-of-possession layer.

Two instantiations:

* Full-time: Ed25519 (via the cryptography package). 32-byte verifying keys,
  64-byte deterministic signatures, unlimited signings. Optionally the signer
  models a precomputed-pair pool: signing then skips the online point
  multiplication (it was done offline) and the pool depletes by one per
  signature.

* K-time: a Schnorr variant over secp256k1 in which the per-signature nonce
  points are fixed at key generation and published in the verifying key. Keys
  sign at most K times; signatures are 32 bytes; verification recomputes
  s*G + e*Y once and accepts iff it equals one of the K published points, so
  it needs no signing index.

Cost accounting: the K-time scheme's hash and group operations are counted
for real by the primitives it calls. Ed25519's internals are not
instrumentable, so its signer/verifier report the scheme's declared unit
costs (sign: 1 point-mul + 1 hash + 1 scalar-mul, pool-backed sign: 1 hash +
1 scalar-mul, verify: 2 point-muls + 1 hash).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from rfpop.errors import KTimeExhausted, PairPoolExhausted
from rfpop.primitives import ec
from rfpop.primitives.counters import count_hash, count_point_mul, count_scalar_mul
from rfpop.primitives.prf import hash_digest
from rfpop.primitives.rng import Rng

FULLTIME = "ed25519"
KTIME = "ktime-secp256k1"

SIG_LEN = {FULLTIME: 64, KTIME: 32}


@dataclass(frozen=True)
class VerifyKey:
    """A scheme-tagged public key with a uniform verify interface."""

    scheme: str
    data: bytes

    @property
    def sig_len(self) -> int:
        return SIG_LEN[self.scheme]

    def verify(self, msg: bytes, sig: bytes) -> bool:
        """True iff sig is valid; malformed inputs are invalid, not errors."""
        try:
            if self.scheme == FULLTIME:
                return _ed25519_verify(self.data, msg, sig)
            if self.scheme == KTIME:
                return _ktime_verify(self.data, msg, sig)
        except (ValueError, OverflowError):
            return False
        raise ValueError(f"unknown signature scheme {self.scheme!r}")


class FullTimeSigner:
    """Ed25519 signer, optionally backed by a precomputed-pair pool."""

    scheme = FULLTIME

    def __init__(self, seed: bytes, pool_remaining: Optional[int] = None):
        if len(seed) != 32:
            raise ValueError("ed25519 seed must be 32 bytes")
        self._seed = seed
        self._key = Ed25519PrivateKey.from_private_bytes(seed)
        self.pool_remaining = pool_remaining

    def verify_key(self) -> VerifyKey:
        from cryptography.hazmat.primitives.serialization import (
            Encoding,
            PublicFormat,
        )

        raw = self._key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        return VerifyKey(FULLTIME, raw)

    def sign(self, msg: bytes) -> bytes:
        if self.pool_remaining is not None:
            if self.pool_remaining <= 0:
                raise PairPoolExhausted("precomputed signing pairs used up")
            self.pool_remaining -= 1
            count_hash()
            count_scalar_mul()
        else:
            count_point_mul()
            count_hash()
            count_scalar_mul()
        return self._key.sign(msg)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "seed": self._seed.hex(),
            "pool_remaining": self.pool_remaining,
        }


def _ed25519_verify(vk: bytes, msg: bytes, sig: bytes) -> bool:
    count_point_mul(2)
    count_hash()
    if len(sig) != 64:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(vk).verify(sig, msg)
        return True
    except (InvalidSignature, ValueError):
        return False


def _ktime_secret_scalar(seed: bytes) -> int:
    return int.from_bytes(hash_digest(seed + b"ktime-y", 256), "big") % ec.N or 1


def _ktime_nonce_scalar(seed: bytes, index: int) -> int:
    # Two hash calls: per-index secret, then nonce scalar.
    u = hash_digest(seed + index.to_bytes(4, "big"), 256)
    return int.from_bytes(hash_digest(u + b"ktime-r", 256), "big") % ec.N or 1


def _ktime_challenge(msg: bytes) -> int:
    return int.from_bytes(hash_digest(msg, 256), "big") % ec.N


class KTimeSigner:
    """Signs at most `k` times; raises KTimeExhausted afterwards."""

    scheme = KTIME

    def __init__(self, seed: bytes, k: int, used: int = 0):
        if len(seed) != 32:
            raise ValueError("k-time seed must be 32 bytes")
        if k < 1:
            raise ValueError("k must be at least 1")
        self._seed = seed
        self.k = k
        self.used = used
        self._y = _ktime_secret_scalar(seed)

    def verify_key(self) -> VerifyKey:
        y_point = ec.point_mul(ec.G, self._y)
        points = []
        for j in range(1, self.k + 1):
            points.append(ec.point_encode(ec.point_mul(ec.G, _ktime_nonce_scalar(self._seed, j))))
        data = ec.point_encode(y_point) + self.k.to_bytes(4, "big") + b"".join(points)
        return VerifyKey(KTIME, data)

    def sign_at(self, index: int, msg: bytes) -> bytes:
        """Signature for a specific one-time index (1-based); stateless."""
        if not 1 <= index <= self.k:
            raise KTimeExhausted(f"index {index} outside 1..{self.k}")
        r = _ktime_nonce_scalar(self._seed, index)
        e = _ktime_challenge(msg)
        count_scalar_mul()
        s = (r - e * self._y) % ec.N
        return s.to_bytes(32, "big")

    def sign(self, msg: bytes) -> bytes:
        if self.used >= self.k:
            raise KTimeExhausted(f"all {self.k} signing indices consumed")
        self.used += 1
        return self.sign_at(self.used, msg)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "seed": self._seed.hex(),
            "k": self.k,
            "used": self.used,
        }


def _ktime_verify(vk: bytes, msg: bytes, sig: bytes) -> bool:
    if len(vk) < 68 or len(sig) != 32:
        return False
    y_point = ec.point_decode(vk[:64])
    k = int.from_bytes(vk[64:68], "big")
    body = vk[68:]
    if len(body) != 64 * k:
        return False
    s = int.from_bytes(sig, "big")
    if s >= ec.N:
        return False
    e = _ktime_challenge(msg)
    target = ec.point_add(ec.point_mul(ec.G, s), ec.point_mul(y_point, e))
    if target is None:
        return False
    encoded = ec.point_encode(target)
    return any(body[64 * j : 64 * (j + 1)] == encoded for j in range(k))


def ktime_pk_size(k: int) -> int:
    """Verifying-key size in bytes for a K-time key: 64 + 4 + 64*K."""
    return 68 + 64 * k


def fulltime_keygen(rng: Rng, pool_size: Optional[int] = None):
    signer = FullTimeSigner(rng.take_bytes(32), pool_remaining=pool_size)
    return signer, signer.verify_key()


def ktime_keygen(rng: Rng, k: int):
    signer = KTimeSigner(rng.take_bytes(32), k)
    return signer, signer.verify_key()


def _natural(d: dict, name: str, default=None) -> int:
    value = d.get(name, default)
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} is {value!r}, not a non-negative integer")
    return value


def signer_from_dict(d):
    """The signer a `to_dict()` block describes.  Every field is checked, and
    a damaged one raises ValueError naming it."""
    scheme = d.get("scheme") if isinstance(d, dict) else None
    if scheme not in (FULLTIME, KTIME):
        raise ValueError(f"signer scheme {scheme!r} is unknown")
    try:
        seed = bytes.fromhex(d.get("seed"))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"seed is not hex: {exc}") from exc
    if len(seed) != 32:
        raise ValueError(f"seed is {len(seed)} bytes, not 32")
    if scheme == FULLTIME:
        pool = None if d.get("pool_remaining") is None else _natural(d, "pool_remaining")
        return FullTimeSigner(seed, pool)
    k = d.get("k")
    if type(k) is not int or k < 1:
        raise ValueError(f"k is {k!r}, not a positive integer")
    used = _natural(d, "used", 0)
    if used > k:
        raise ValueError(f"used is {used}, above k = {k}")
    return KTimeSigner(seed, k, used)
