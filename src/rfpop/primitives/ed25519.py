"""Ed25519 (RFC 8032) through libsodium, called with `ctypes`.

Three libsodium calls do the work: `crypto_sign_ed25519_seed_keypair`,
`crypto_sign_ed25519_detached` and `crypto_sign_ed25519_verify_detached`.
The names follow the `cryptography` package's, so `primitives/sig.py` reads
`Ed25519PrivateKey.from_private_bytes(seed)`, `.public_key()
.public_bytes_raw()` and `.sign(msg)`, `Ed25519PublicKey.from_public_bytes`
and `.verify(sig, msg)`, which raises `InvalidSignature`. A key is plain
bytes, the 64-byte secret key (seed, then public key) or the 32-byte public
key, so no native handle needs freeing. Every buffer's length is checked here
before libsodium reads it.

libsodium's verify also rejects a public key or an R of small order, which
OpenSSL's accepts (see `primitives/sig.py`). Importing this module loads
libsodium (1.0.18 or later) and raises ImportError if it is not installed.
"""

from __future__ import annotations

import ctypes

_SONAMES = ("libsodium.so.26", "libsodium.so.23")
_P, _LEN = ctypes.c_char_p, ctypes.c_ulonglong


def _load() -> ctypes.CDLL | None:
    """libsodium by soname; `find_library`, which runs `ldconfig`, last."""
    for name in _SONAMES:
        try:
            return ctypes.CDLL(name)
        except OSError:
            pass
    from ctypes.util import find_library

    name = find_library("sodium")
    try:
        return ctypes.CDLL(name) if name else None
    except OSError:
        return None


_lib = _load()
if _lib is None:
    raise ImportError("Ed25519 needs libsodium >= 1.0.18 (the system library "
                      "libsodium, e.g. Debian's libsodium23), and it was not found")
_lib.sodium_init.argtypes, _lib.sodium_init.restype = (), ctypes.c_int
if _lib.sodium_init() < 0:
    raise ImportError("libsodium >= 1.0.18 was found but failed to initialise")
_keypair = _lib.crypto_sign_ed25519_seed_keypair
_keypair.argtypes, _keypair.restype = (_P, _P, _P), ctypes.c_int
_sign = _lib.crypto_sign_ed25519_detached
_sign.argtypes, _sign.restype = (_P, ctypes.c_void_p, _P, _LEN, _P), ctypes.c_int
_verify = _lib.crypto_sign_ed25519_verify_detached
_verify.argtypes, _verify.restype = (_P, _P, _LEN, _P), ctypes.c_int


class InvalidSignature(Exception):
    """A signature that does not verify under the key."""


def _sized(data, size: int, what: str) -> bytes:
    data = bytes(data)
    if len(data) != size:
        raise ValueError(f"ed25519 {what} must be {size} bytes, not {len(data)}")
    return data


class Ed25519PublicKey:
    __slots__ = ("_pk",)

    def __init__(self, pk: bytes):
        self._pk = _sized(pk, 32, "public key")

    @classmethod
    def from_public_bytes(cls, data: bytes) -> Ed25519PublicKey:
        return cls(data)

    def public_bytes_raw(self) -> bytes:
        return self._pk

    def verify(self, signature: bytes, data: bytes) -> None:
        """Returns None if `signature` is valid on `data`, else raises
        InvalidSignature, without calling libsodium if it is not 64 bytes."""
        signature, data = bytes(signature), bytes(data)
        if len(signature) != 64 or _verify(signature, data, len(data), self._pk) != 0:
            raise InvalidSignature


class Ed25519PrivateKey:
    __slots__ = ("_sk",)

    def __init__(self, sk: bytes):
        self._sk = _sized(sk, 64, "secret key")

    @classmethod
    def from_private_bytes(cls, seed: bytes) -> Ed25519PrivateKey:
        seed = _sized(seed, 32, "seed")
        pk, sk = ctypes.create_string_buffer(32), ctypes.create_string_buffer(64)
        _keypair(pk, sk, seed)
        return cls(sk.raw)

    def public_key(self) -> Ed25519PublicKey:
        return Ed25519PublicKey(self._sk[32:])

    def sign(self, data: bytes) -> bytes:
        data, sig = bytes(data), ctypes.create_string_buffer(64)
        _sign(sig, None, data, len(data), self._sk)
        return sig.raw
