"""Signature schemes for the proof-of-possession layer.

Two instantiations:

* Full-time: Ed25519 (libsodium, through `primitives.ed25519`). 32-byte
  verifying keys, 64-byte deterministic signatures, unlimited signings.
  Optionally the signer models a precomputed-pair pool: signing then skips
  the online point multiplication (it was done offline) and the pool
  depletes by one per signature. Keys and signatures are byte-identical to
  OpenSSL's (RFC 8032), and so are verdicts, with one intended difference:
  libsodium's check is stricter, and rejects a verifying key or a signature
  R of small order before it checks the equation. Under a small-order key
  anyone can forge: the identity key `01 00..00` with R = B, S = 1
  satisfies [S]B = R + [k]A for every message, and OpenSSL accepts it, but
  it verifies nothing here.

* K-time: a Schnorr variant over secp256k1 in which the per-signature nonce
  points are fixed at key generation and published in the verifying key. Keys
  sign at most K times; signatures are 32 bytes; verification recomputes
  s*G + e*Y once and accepts iff it equals one of the K published points, so
  it needs no signing index. Both products run in one interleaved walk
  (`ec.point_mul_add`) of 32 shared doublings. A `VerifyKey` decodes itself
  on its first K-time verify and keeps the result as long as the key object
  lives: Y (checked to be on the curve), K, the set of published points and
  Y's width-5 tables (`ec.point_tables`, about one walk's work to build). A
  malformed key decodes to None and every verify under it fails. The reader's
  records and the key directory share one `VerifyKey` per tag, in a live
  system and in a loaded database file, so a tag's key is decoded once, not
  twice per session.

A `FullTimeSigner` keeps its 32-byte seed and derives the Ed25519 key pair
from it when the pair is first needed: at its first signing, or at the first
verify or the first read of `data` of a `VerifyKey` it made. The signer, its
copies (`copy.copy`, `copy.deepcopy`) and its verifying keys share that one
derivation. Such a `VerifyKey` is the value `VerifyKey(scheme, data)`: it
derives `data` when it is first read, and equality, hashing and repr read
it. A security-game trial builds a key pair for the reader and for each tag,
and most trials sign or verify with only some of them. K-time keys are
still built at key generation, which keeps the K+1 point multiplications of
the verifying key in set-up and out of the first session. Those are products
with G, so each walks G's 13-bit comb (`ec.base_muls`): 12 doublings, not
the 32 of a verify, and the K+1 results share one inversion.

The shared key pair also remembers the last (msg, sig) pair it signed. A
signing of that same message returns the remembered signature, so the
reader's `cred_gen`, which signs the nonce its session's round 2 signed,
runs no second Ed25519 signing. A `VerifyKey` that a signer made answers
that exact pair True without running the check: the genuine private key
made the signature for that message, and such a signature always verifies
(RFC 8032). In process, the reader's round-3 check of the tag's possession
signature and `cred_veri`'s check of the reader's issuer signature are
answered this way. The memory holds only what the key pair itself signed,
and unpickling a signer empties it. A key decoded from bytes, as a key file
or a credential check in another process loads it, has no pair and runs
the full check.

An Ed25519 `VerifyKey`'s `data` is the public key libsodium reads, so it has
no decode step. A `VerifyKey` of either scheme remembers the last (msg, sig)
pair that verified under it, as bytes copies outside its dataclass fields. An
exact repeat of that pair returns True without running the check again;
every other pair, and every pair that failed, runs the full check. So a
credential's possession signature, which the reader verified in the session's
last round under the same key object, is not checked a second time by
`cred_veri`, which checks it before the issuer signature. Pickling a key
keeps only its scheme and its data, derived first if it was unread: the
signer's pair, which holds the private seed, and what the key decoded and
remembered are dropped, so an unpickled key is `VerifyKey(scheme, data)`.
A copy (`copy.copy`, `copy.deepcopy`) stays in the process and keeps the
pair, so copying a key derives nothing.

`primitives.ed25519`, which loads `ctypes` and libsodium, is imported on
first use, by the function that first derives a full-time key pair, signs
or runs a full Ed25519 check; where libsodium is missing, that first use
raises its ImportError. MA and cex sign nothing, so an MA or cex process,
and a MAPoP process that has not yet signed or verified with Ed25519, never
loads it.
Loading and first using it adds about 0.7 MB: importing the CLI and running
one impl1 session peaks at 21.5 MB max RSS, against 27.7 MB through the
`cryptography` package's OpenSSL binding, and importing the CLI alone at
20.8 MB (CPython 3.11.7, libsodium 1.0.18, `cryptography` 48.0.0).

Cost accounting: the K-time scheme's hash and group operations are counted
for real by the primitives it calls. Ed25519's internals are not
instrumentable, so its signer/verifier report the scheme's declared unit
costs (sign: 1 point-mul + 1 hash + 1 scalar-mul, pool-backed sign: 1 hash +
1 scalar-mul, verify: 2 point-muls + 1 hash). A sign or verify answered from
memory counts its declared cost too, so operation counts do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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
        """True iff sig is valid; malformed inputs are invalid, not errors.

        An exact repeat of the last pair that verified under this key, or of
        the last pair its signer's key pair signed, is answered from memory,
        and counts the same declared cost."""
        pair = self.__dict__.get("_pair")
        if (msg, sig) == self.__dict__.get("_accepted") or (
            pair is not None and (msg, sig) == pair.signed
        ):
            count_point_mul(2)
            count_hash()
            return True
        if self.scheme == FULLTIME:
            valid = _ed25519_verify(self.data, msg, sig)
        elif self.scheme == KTIME:
            valid = _ktime_verify(self._ktime_key, msg, sig)
        else:
            raise ValueError(f"unknown signature scheme {self.scheme!r}")
        if valid:
            self.__dict__["_accepted"] = (bytes(msg), bytes(sig))
        return valid

    def __getstate__(self):
        """Pickle only the key's value, deriving `data` if it is unread: the
        signer's pair holds its private seed."""
        return {"scheme": self.scheme, "data": self.data}

    def __copy__(self):
        """A copy keeps the signer's pair, so copying derives nothing; like
        pickling, it drops what the key decoded and remembered."""
        key = object.__new__(VerifyKey)
        kept = ("scheme", "data", "_pair")
        key.__dict__.update((k, v) for k, v in self.__dict__.items() if k in kept)
        return key

    def __deepcopy__(self, memo):
        return self.__copy__()

    @cached_property
    def _ktime_key(self) -> Optional[_KTimeKey]:
        """A K-time key decoded on its first verify and kept for the key's
        lifetime, None if it is malformed."""
        return _ktime_decode(self.data)


class _DerivedOnRead:
    """`VerifyKey.data` of a key that a `FullTimeSigner` made before deriving
    its pair. An instance's own `data` hides this descriptor, so only such a
    key reaches it: the first read derives the pair and keeps the public key
    as the instance's `data`, which equality, hashing and repr then read."""

    def __get__(self, key, owner=None):
        if key is None:
            return self
        data = key.__dict__["data"] = key.__dict__["_pair"].derived()[1]
        return data


VerifyKey.data = _DerivedOnRead()


class _Signer:
    """Signers are equal when they save alike (`to_dict`)."""

    def __eq__(self, other):
        return type(other) is type(self) and other.to_dict() == self.to_dict()


class FullTimeSigner(_Signer):
    """Ed25519 signer, optionally backed by a precomputed-pair pool."""

    scheme = FULLTIME

    def __init__(self, seed: bytes, pool_remaining: Optional[int] = None):
        if len(seed) != 32:
            raise ValueError("ed25519 seed must be 32 bytes")
        self._pair = _Ed25519Pair(seed)
        self.pool_remaining = pool_remaining

    def verify_key(self) -> VerifyKey:
        """The verifying key, its `data` derived when it is first read."""
        key = object.__new__(VerifyKey)
        key.__dict__.update(scheme=FULLTIME, _pair=self._pair)
        return key

    def sign(self, msg: bytes) -> bytes:
        """Ed25519 is deterministic (RFC 8032), so an exact repeat of the
        last message returns the signature made for it; it still counts the
        declared cost and spends a pair."""
        if self.pool_remaining is None:
            count_point_mul()  # a pool-backed signing did it offline
        elif self.pool_remaining <= 0:
            raise PairPoolExhausted("precomputed signing pairs used up")
        else:
            self.pool_remaining -= 1
        count_hash()
        count_scalar_mul()
        pair = self._pair
        if pair.signed is None or pair.signed[0] != msg:
            from rfpop.primitives.ed25519 import sign

            pair.signed = (bytes(msg), sign(pair.derived()[0], msg))
        return pair.signed[1]

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "seed": self._pair.seed.hex(),
            "pool_remaining": self.pool_remaining,
        }


class _Ed25519Pair:
    """An Ed25519 key pair kept as its seed until it is first used, and the
    last (msg, sig) pair it signed. A signer, its copies and its verifying
    keys share one, so they derive it once and share that memory."""

    __slots__ = ("seed", "_derived", "signed")

    def __init__(self, seed: bytes):
        self.seed = seed
        self._derived = None
        self.signed = None

    def derived(self) -> tuple[bytes, bytes]:
        """The secret key and the public key, derived on the first call."""
        if self._derived is None:
            self._derived = _ed25519_derive(self.seed)
        return self._derived

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return _Ed25519Pair, (self.seed,)


def _ed25519_derive(seed: bytes) -> tuple[bytes, bytes]:
    from rfpop.primitives.ed25519 import keypair

    return keypair(seed)


def _ed25519_verify(pk: bytes, msg: bytes, sig: bytes) -> bool:
    from rfpop.primitives.ed25519 import verify

    count_point_mul(2)
    count_hash()
    return verify(pk, msg, sig)


def _ktime_secret_scalar(seed: bytes) -> int:
    return int.from_bytes(hash_digest(seed + b"ktime-y", 256), "big") % ec.N or 1


def _ktime_nonce_scalar(seed: bytes, index: int) -> int:
    # Two hash calls: per-index secret, then nonce scalar.
    u = hash_digest(seed + index.to_bytes(4, "big"), 256)
    return int.from_bytes(hash_digest(u + b"ktime-r", 256), "big") % ec.N or 1


def _ktime_challenge(msg: bytes) -> int:
    return int.from_bytes(hash_digest(msg, 256), "big") % ec.N


class KTimeSigner(_Signer):
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
        """Y and the K nonce points, K+1 products with G made affine with
        one shared inversion."""
        scalars = [_ktime_nonce_scalar(self._seed, j) for j in range(1, self.k + 1)]
        y_point, *points = ec.base_muls([self._y, *scalars])
        return VerifyKey(KTIME, ec.point_encode(y_point) + self.k.to_bytes(4, "big")
                         + b"".join(map(ec.point_encode, points)))

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


@dataclass(frozen=True)
class _KTimeKey:
    """A K-time verifying key, decoded: Y, the signing budget K, the K
    published nonce points, and Y's digit tables for `ec.point_mul_add`."""

    y: tuple[int, int]
    k: int
    points: frozenset
    y_tables: tuple


def _ktime_decode(vk: bytes) -> Optional[_KTimeKey]:
    """The decoded key, or None if vk is malformed: too short, Y off the
    curve, or a body that is not K points long."""
    if len(vk) < 68:
        return None
    try:
        y_point = ec.point_decode(vk[:64])
    except ValueError:
        return None
    k = int.from_bytes(vk[64:68], "big")
    body = vk[68:]
    if len(body) != 64 * k:
        return None
    points = frozenset(
        (int.from_bytes(body[j : j + 32], "big"), int.from_bytes(body[j + 32 : j + 64], "big"))
        for j in range(0, len(body), 64)
    )
    return _KTimeKey(y_point, k, points, ec.point_tables(y_point, 5))


def _ktime_verify(key: Optional[_KTimeKey], msg: bytes, sig: bytes) -> bool:
    if key is None or len(sig) != 32:
        return False
    s = int.from_bytes(sig, "big")
    if s >= ec.N:
        return False
    e = _ktime_challenge(msg)
    target = ec.point_mul_add(s, key.y, e, key.y_tables)
    return target is not None and target in key.points


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
