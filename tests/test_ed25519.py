"""The libsodium Ed25519 binding: byte-identical keys and signatures and the
same verdicts as OpenSSL's (through the `cryptography` package), length
checks before every C call, and a process without libsodium."""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519 as openssl_ed25519

from rfpop.primitives import ed25519
from rfpop.primitives.sig import FULLTIME, VerifyKey

SRC = Path(__file__).resolve().parent.parent / "src"
L = (1 << 252) + 27742317777372353535851937790883648493
# The base point B, and the identity point, a public key of small order.
B = bytes.fromhex("58" + "66" * 31)
IDENTITY = b"\x01" + bytes(31)


def openssl_verify(pk: bytes, msg: bytes, sig: bytes) -> bool:
    """The reference verdict; a malformed key or signature is invalid."""
    try:
        openssl_ed25519.Ed25519PublicKey.from_public_bytes(pk).verify(sig, msg)
    except (ValueError, InvalidSignature):
        return False
    return True


def flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_rfc8032_test_1():
    seed = bytes.fromhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
    sk, pk = ed25519.keypair(seed)
    assert pk.hex() == "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
    assert sk == seed + pk
    sig = ed25519.sign(sk, b"")
    assert sig.hex() == (
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555f"
        "b8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b")
    assert ed25519.verify(pk, b"", sig)


def test_keys_signatures_and_verdicts_match_openssl():
    """256 seeded (seed, message) pairs: the same public key and signature,
    and the same verdict on the honest signature and on each damaged one."""
    rng = random.Random("ed25519-differential")
    cases = 0
    for i in range(256):
        seed = rng.randbytes(32)
        msg = rng.randbytes((0, 1024, 1, 32, 64)[i] if i < 5 else rng.choice([0, 1024, rng.randrange(2, 200)]))
        sk, pk = ed25519.keypair(seed)
        reference = openssl_ed25519.Ed25519PrivateKey.from_private_bytes(seed)
        sig = ed25519.sign(sk, msg)
        assert pk == reference.public_key().public_bytes_raw()
        assert sig == reference.sign(msg)
        s = int.from_bytes(sig[32:], "little")
        checks = {
            "honest": (pk, sig, msg),
            "sig bit": (pk, flip(sig, rng.randrange(512)), msg),
            "msg bit": (pk, sig, flip(msg, rng.randrange(8 * len(msg))) if msg else b"\x00"),
            "key bit": (flip(pk, rng.randrange(256)), sig, msg),
            "S + L": (pk, sig[:32] + (s + L).to_bytes(32, "little"), msg),
            "random sig": (pk, rng.randbytes(64), msg),
            "short sig": (pk, sig[:63], msg),
            "long sig": (pk, sig + b"\x00", msg),
            "short key": (pk[:31], sig, msg),
            "long key": (pk + b"\x00", sig, msg),
        }
        for name, (k, sg, m) in checks.items():
            ours = ed25519.verify(k, m, sg)
            assert ours == openssl_verify(k, m, sg), (name, seed.hex(), len(msg))
            assert ours == (name == "honest"), (name, seed.hex())
            cases += 1
    assert cases == 2560


def test_a_small_order_key_verifies_nothing_that_openssl_accepts():
    """The one intended difference: R = B, S = 1 under the identity key
    passes the cofactorless equation for every message, so OpenSSL accepts
    it; libsodium rejects the small-order key before the equation."""
    sig = B + (1).to_bytes(32, "little")
    for msg in (b"", b"m", bytes(1024)):
        assert openssl_verify(IDENTITY, msg, sig)
        assert not ed25519.verify(IDENTITY, msg, sig)


def test_wrong_lengths_never_reach_libsodium(monkeypatch):
    """Every buffer is checked before a C call: a wrong-length seed or
    secret key raises ValueError, a wrong-length public key or signature is
    invalid, and libsodium is never called."""
    def unreachable(*args):
        pytest.fail("libsodium was called")

    for name in ("_keypair", "_sign", "_verify"):
        monkeypatch.setattr(ed25519, name, unreachable)
    for seed in (b"", bytes(31), bytes(33), bytes(64)):
        with pytest.raises(ValueError, match="seed must be 32 bytes"):
            ed25519.keypair(seed)
    for sk in (bytes(32), bytes(63), bytes(65)):
        with pytest.raises(ValueError, match="secret key must be 64 bytes"):
            ed25519.sign(sk, b"m")
    for pk in (b"", bytes(31), bytes(33), bytes(64)):
        assert not ed25519.verify(pk, b"m", bytes(64))
    for sig in (b"", bytes(63), bytes(65), bytes(128)):
        assert not ed25519.verify(bytes(32), b"m", sig)
    # The same inputs through the signature layer read as invalid.
    for data in (bytes(31), bytes(33)):
        assert not VerifyKey(FULLTIME, data).verify(b"m", bytes(64))
    assert not VerifyKey(FULLTIME, bytes(32)).verify(b"m", bytes(63))


def test_a_process_without_libsodium_fails_at_its_first_ed25519_use():
    """With no libsodium to load, the first Ed25519 use raises ImportError
    naming it, every later use raises it again, and MA sessions in the same
    process still run; `find_library` is asked only after the sonames."""
    code = textwrap.dedent("""
        import ctypes, ctypes.util, json
        tried = []

        def no_library(name, *args, **kwargs):
            tried.append(name)
            raise OSError(f"{name}: cannot open shared object file")

        ctypes.CDLL = no_library
        ctypes.util.find_library = lambda name: tried.append(f"find {name}")
        from rfpop.app.config import Config
        from rfpop.primitives import sig
        from rfpop.primitives.rng import Rng

        signer, vk = sig.fulltime_keygen(Rng("no-libsodium"))
        errors = []
        for use in (lambda: signer.sign(b"m"), lambda: vk.verify(b"m", bytes(64))):
            try:
                use()
            except ImportError as exc:
                errors.append(str(exc))
        assert Config(mode="ma").build_system().run_honest().o_reader == 1
        print(json.dumps([tried, errors]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    tried, errors = json.loads(out.stdout)
    assert tried == ["libsodium.so.26", "libsodium.so.23", "find sodium"] * 2
    assert len(errors) == 2 and all("libsodium >= 1.0.18" in e for e in errors)
