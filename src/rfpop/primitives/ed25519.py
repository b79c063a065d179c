"""Ed25519 (RFC 8032) through libsodium, called with `ctypes`.

Three functions on bytes, one libsodium call each: `keypair(seed)` returns
the 64-byte secret key (seed, then public key) and the 32-byte public key
(`crypto_sign_ed25519_seed_keypair`), `sign(sk, msg)` the 64-byte signature
(`crypto_sign_ed25519_detached`) and `verify(pk, msg, sig)` the verdict
(`crypto_sign_ed25519_verify_detached`). No native handle needs freeing.
Every buffer's length is checked here before libsodium reads it: a wrong
seed or secret key raises ValueError, and a wrong public key or signature
verifies False.

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


def _sized(data, size: int, what: str) -> bytes:
    data = bytes(data)
    if len(data) != size:
        raise ValueError(f"ed25519 {what} must be {size} bytes, not {len(data)}")
    return data


def keypair(seed: bytes) -> tuple[bytes, bytes]:
    """The secret key and the public key that `seed` derives."""
    seed = _sized(seed, 32, "seed")
    pk, sk = ctypes.create_string_buffer(32), ctypes.create_string_buffer(64)
    _keypair(pk, sk, seed)
    return sk.raw, pk.raw


def sign(sk: bytes, msg: bytes) -> bytes:
    """The signature of `msg` under the secret key `sk`."""
    sk, msg, sig = _sized(sk, 64, "secret key"), bytes(msg), ctypes.create_string_buffer(64)
    _sign(sig, None, msg, len(msg), sk)
    return sig.raw


def verify(pk: bytes, msg: bytes, sig: bytes) -> bool:
    """True iff `sig` is valid on `msg` under `pk`; libsodium is not called
    if either is the wrong length."""
    pk, msg, sig = bytes(pk), bytes(msg), bytes(sig)
    return len(pk) == 32 and len(sig) == 64 and _verify(sig, msg, len(msg), pk) == 0
