"""Signature schemes: round trips, budget exhaustion, declared costs, the
verify memo, Ed25519 key pairs derived on first use, and the memory of the
last pair a key pair signed."""

import copy
import dataclasses
import os
import pickle
import pydoc
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from rfpop.errors import KTimeExhausted, PairPoolExhausted
from rfpop.primitives import ec, ed25519
from rfpop.primitives import sig as sig_mod
from rfpop.primitives.counters import OpCounters, counting
from rfpop.primitives.rng import Rng
from rfpop.primitives.sig import (
    FULLTIME,
    KTIME,
    VerifyKey,
    fulltime_keygen,
    ktime_keygen,
    ktime_pk_size,
    signer_from_dict,
)


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def rng():
    return Rng("sig-tests")


def test_fulltime_round_trip(rng):
    signer, vk = fulltime_keygen(rng)
    sig = signer.sign(b"message")
    assert vk.scheme == FULLTIME
    assert len(sig) == vk.sig_len == 64
    assert vk.verify(b"message", sig)
    assert not vk.verify(b"other", sig)
    assert not vk.verify(b"message", bytes(64))
    assert not vk.verify(b"message", b"short")


def test_fulltime_deterministic_per_key(rng):
    signer, _ = fulltime_keygen(rng)
    assert signer.sign(b"m") == signer.sign(b"m")


def test_pool_exhaustion(rng):
    signer, vk = fulltime_keygen(rng, pool_size=2)
    assert vk.verify(b"a", signer.sign(b"a"))
    assert vk.verify(b"b", signer.sign(b"b"))
    with pytest.raises(PairPoolExhausted):
        signer.sign(b"c")


@pytest.mark.parametrize("pool", [None, 4], ids=["unpooled", "pooled"])
def test_a_repeated_message_is_signed_once(pool, rng, ed25519_signs):
    """A repeat of the last message returns the signature made for it, and
    counts the declared cost and spends a pair like any other signing."""
    signer, vk = fulltime_keygen(rng, pool_size=pool)
    sigs = []
    for msg in (b"m", b"m", b"n", b"m"):
        ops = OpCounters()
        with counting(ops):
            sigs.append(signer.sign(msg))
        assert (ops.hashes, ops.point_muls, ops.scalar_muls) == (1, 0 if pool else 1, 1)
    assert sigs[0] == sigs[1] == sigs[3] != sigs[2]
    assert vk.verify(b"n", sigs[2]) and vk.verify(b"m", sigs[3])
    assert ed25519_signs == [b"m", b"n", b"m"]
    if pool:
        assert signer.pool_remaining == 0
        with pytest.raises(PairPoolExhausted):
            signer.sign(b"m")


def test_ktime_round_trip_and_budget(rng):
    signer, vk = ktime_keygen(rng, 3)
    assert vk.scheme == KTIME
    sigs = [signer.sign(f"m{i}".encode()) for i in range(3)]
    for i, sig in enumerate(sigs):
        assert len(sig) == vk.sig_len == 32
        assert vk.verify(f"m{i}".encode(), sig)
    with pytest.raises(KTimeExhausted):
        signer.sign(b"one too many")


def test_ktime_rejects_tampering(rng):
    signer, vk = ktime_keygen(rng, 2)
    sig = signer.sign(b"m")
    assert not vk.verify(b"m2", sig)
    bad = bytes([sig[0] ^ 1]) + sig[1:]
    assert not vk.verify(b"m", bad)
    assert not vk.verify(b"m", b"short")


def test_ktime_verification_is_index_free(rng):
    signer, vk = ktime_keygen(rng, 4)
    sig = signer.sign_at(3, b"m")
    assert vk.verify(b"m", sig)
    assert vk.verify(b"m", signer.sign_at(1, b"m"))


def test_ktime_malformed_keys_fail_on_every_call(rng):
    """A key decodes once and is kept; a malformed one must stay rejected."""
    signer, vk = ktime_keygen(rng, 2)
    sig = signer.sign(b"m")
    wrong_k = VerifyKey(KTIME, vk.data[:64] + (3).to_bytes(4, "big") + vk.data[68:])
    short_k = VerifyKey(KTIME, vk.data[:64] + (1).to_bytes(4, "big") + vk.data[68:])
    for bad in (wrong_k, short_k):
        assert [bad.verify(b"m", sig) for _ in range(3)] == [False] * 3
    assert vk.verify(b"m", sig)


def test_ktime_key_with_y_off_the_curve_fails_on_every_call(rng):
    # Y' is off the curve and the one published point is e*Y' as the same
    # formulas compute it, so s = 0 would pass without the curve check.
    _, vk = ktime_keygen(rng, 2)
    x, y = ec.point_decode(vk.data[:64])
    y_off = (x, (y + 1) % ec.P)
    target = ec.point_mul(y_off, sig_mod._ktime_challenge(b"m"))
    key = VerifyKey(KTIME, ec.point_encode(y_off) + (1).to_bytes(4, "big") + ec.point_encode(target))
    assert [key.verify(b"m", bytes(32)) for _ in range(3)] == [False] * 3


def test_fulltime_key_that_does_not_decode_fails_on_every_call(rng):
    signer, vk = fulltime_keygen(rng)
    sig = signer.sign(b"m")
    for data in (vk.data[:31], vk.data + b"\x00", b""):
        key = VerifyKey(FULLTIME, data)
        assert [key.verify(b"m", sig) for _ in range(3)] == [False] * 3
    assert vk.verify(b"m", sig)


def test_ktime_s_at_or_above_n_fails_on_every_call(rng):
    # A key whose one published point is e*Y: s = 0 is its valid signature on
    # b"m", and s = N would pass too if it were reduced instead of rejected.
    _, vk = ktime_keygen(rng, 2)
    y_point = ec.point_decode(vk.data[:64])
    target = ec.point_mul(y_point, sig_mod._ktime_challenge(b"m"))
    key = VerifyKey(KTIME, vk.data[:64] + (1).to_bytes(4, "big") + ec.point_encode(target))
    for s in (ec.N, ec.N + 1, (1 << 256) - 1):
        assert [key.verify(b"m", s.to_bytes(32, "big")) for _ in range(2)] == [False, False]
    assert key.verify(b"m", bytes(32))
    assert [key.verify(b"m", ec.N.to_bytes(32, "big")) for _ in range(2)] == [False, False]


def test_ktime_valid_signature_verifies_after_a_rejected_one(rng):
    signer, vk = ktime_keygen(rng, 2)
    sig = signer.sign(b"m")
    assert not vk.verify(b"m", ec.N.to_bytes(32, "big"))
    assert not vk.verify(b"other", sig)
    assert not vk.verify(b"m", b"short")
    assert vk.verify(b"m", sig)
    assert vk.verify(b"m", sig)


def test_ktime_sign_at_bounds(rng):
    signer, _ = ktime_keygen(rng, 2)
    with pytest.raises(KTimeExhausted):
        signer.sign_at(3, b"m")
    with pytest.raises(KTimeExhausted):
        signer.sign_at(0, b"m")


def test_ktime_pk_size_formula(rng):
    for k in (1, 2, 8):
        _, vk = ktime_keygen(Rng(f"pk-{k}"), k)
        assert len(vk.data) == ktime_pk_size(k) == 68 + 64 * k


def test_declared_costs(rng):
    signer, vk = fulltime_keygen(rng)
    ops = OpCounters()
    with counting(ops):
        sig = signer.sign(b"m")
    assert (ops.hashes, ops.point_muls, ops.scalar_muls) == (1, 1, 1)

    ops = OpCounters()
    with counting(ops):
        vk.verify(b"m", sig)
    assert (ops.hashes, ops.point_muls, ops.scalar_muls) == (1, 2, 0)

    pooled, _ = fulltime_keygen(rng, pool_size=4)
    ops = OpCounters()
    with counting(ops):
        pooled.sign(b"m")
    assert (ops.hashes, ops.point_muls, ops.scalar_muls) == (1, 0, 1)

    ksigner, kvk = ktime_keygen(rng, 2)
    ops = OpCounters()
    with counting(ops):
        ksig = ksigner.sign(b"m")
    assert (ops.hashes, ops.point_muls, ops.scalar_muls) == (3, 0, 1)

    # A K-time verify hashes the message once and computes s*G + e*Y, which
    # counts as two point multiplications however it is evaluated.
    for _ in range(2):
        ops = OpCounters()
        with counting(ops):
            assert kvk.verify(b"m", ksig)
        assert (ops.hashes, ops.point_muls, ops.scalar_muls) == (1, 2, 0)


def test_signer_serialization_round_trip(rng):
    pooled, vk = fulltime_keygen(rng, pool_size=3)
    pooled.sign(b"m")
    restored = signer_from_dict(pooled.to_dict())
    assert restored.pool_remaining == 2
    assert vk.verify(b"x", restored.sign(b"x"))

    ksigner, kvk = ktime_keygen(rng, 3)
    ksigner.sign(b"m")
    restored = signer_from_dict(ksigner.to_dict())
    assert restored.used == 1
    assert kvk.verify(b"x", restored.sign(b"x"))
    with pytest.raises(ValueError):
        signer_from_dict({"scheme": "unknown"})


def _keypair(scheme, rng):
    """A signer and its key decoded from bytes. An Ed25519 key its signer
    made would answer the signer's last pair from the shared key pair, so
    these tests of the verify memo read the bytes alone."""
    signer, vk = fulltime_keygen(rng) if scheme == FULLTIME else ktime_keygen(rng, 4)
    return signer, VerifyKey(scheme, vk.data)


@pytest.mark.parametrize("scheme", [FULLTIME, KTIME])
def test_a_repeated_pair_counts_the_declared_cost_without_a_second_check(
    scheme, rng, sig_checks
):
    signer, vk = _keypair(scheme, rng)
    sig = signer.sign(b"m")
    for _ in range(3):
        ops = OpCounters()
        with counting(ops):
            assert vk.verify(b"m", sig)
        assert (ops.hashes, ops.point_muls, ops.scalar_muls) == (1, 2, 0)
    assert [(m, s) for _, m, s in sig_checks] == [(b"m", sig)]


@pytest.mark.parametrize("scheme", [FULLTIME, KTIME])
def test_the_memo_accepts_only_the_exact_pair(scheme, rng, sig_checks):
    signer, vk = _keypair(scheme, rng)
    sig = signer.sign(b"m")
    other_sig = bytes([sig[0] ^ 1]) + sig[1:]

    def checked():
        return [(m, s) for _, m, s in sig_checks]

    assert vk.verify(b"m", sig)
    assert not vk.verify(b"m", other_sig)
    assert not vk.verify(b"m2", sig)
    assert not vk.verify(b"m", sig[:-1])
    # A failed pair is not remembered: asking again runs the check again.
    assert not vk.verify(b"m", other_sig)
    assert checked() == [
        (b"m", sig), (b"m", other_sig), (b"m2", sig), (b"m", sig[:-1]), (b"m", other_sig)
    ]
    # The failures left the accepted pair in place.
    assert vk.verify(b"m", sig)
    assert len(checked()) == 5
    # A new accepted pair replaces it: the memo holds one pair.
    sig2 = signer.sign(b"m2")
    assert vk.verify(b"m2", sig2)
    assert vk.verify(b"m", sig)
    assert checked()[5:] == [(b"m2", sig2), (b"m", sig)]


@pytest.mark.parametrize("scheme", [FULLTIME, KTIME])
def test_mutating_an_accepted_message_cannot_pass_another(scheme, rng):
    signer, vk = _keypair(scheme, rng)
    msg = bytearray(b"message")
    sig = bytearray(signer.sign(bytes(msg)))
    assert vk.verify(msg, sig)
    msg[0] ^= 1
    assert not vk.verify(msg, sig)
    assert not vk.verify(bytes(msg), bytes(sig))
    msg[0] ^= 1
    sig[0] ^= 1
    assert not vk.verify(msg, sig)
    sig[0] ^= 1
    assert vk.verify(b"message", bytes(sig))


@pytest.mark.parametrize("scheme", [FULLTIME, KTIME])
def test_the_memo_leaves_the_key_value_alone(scheme, rng):
    assert [f.name for f in dataclasses.fields(VerifyKey)] == ["scheme", "data"]
    signer, vk = _keypair(scheme, rng)
    twin = VerifyKey(vk.scheme, vk.data)
    assert vk.verify(b"m", signer.sign(b"m"))
    assert vk == twin and hash(vk) == hash(twin)
    assert repr(vk) == repr(twin)
    assert {vk: 1}[twin] == 1


def test_a_signer_and_its_copies_derive_once(rng, ed25519_derivations):
    signer, vk = fulltime_keygen(rng)
    copies = [copy.copy(signer), copy.deepcopy(signer), copy.deepcopy(vk)]
    assert ed25519_derivations == []
    sigs = [signer.sign(b"m"), copies[0].sign(b"n"), copies[1].sign(b"o")]
    for key in (vk, copies[2], signer.verify_key()):
        assert [key.verify(msg, s) for msg, s in zip((b"m", b"n", b"o"), sigs)] == [True] * 3
    assert copies[0] == copies[1] == signer
    assert ed25519_derivations == [bytes.fromhex(signer.to_dict()["seed"])]


@pytest.mark.parametrize("use", ["sign", "verify", "data"])
def test_a_key_pair_is_derived_on_its_first_use(use, rng, ed25519_derivations):
    signer, vk = fulltime_keygen(rng, pool_size=2)
    assert ed25519_derivations == []
    first = {"sign": lambda: signer.sign(b"m"),
             "verify": lambda: vk.verify(b"m", bytes(64)),
             "data": lambda: vk.data}[use]
    first()
    assert len(ed25519_derivations) == 1
    assert vk.verify(b"x", signer.sign(b"x")) and len(vk.data) == 32
    assert len(ed25519_derivations) == 1
    assert signer.pool_remaining == (0 if use == "sign" else 1)


def test_a_deferred_verify_key_is_the_value_it_derives(rng):
    signer, vk = fulltime_keygen(rng)
    seed = bytes.fromhex(signer.to_dict()["seed"])
    data = ed25519.keypair(seed)[1]
    eager = VerifyKey(FULLTIME, data)
    # Each of these reads the deferred key first: nothing has derived it.
    assert hash(signer.verify_key()) == hash(eager)
    assert repr(signer.verify_key()) == repr(eager)
    assert signer.verify_key() == eager and eager == signer.verify_key()
    assert dataclasses.replace(signer.verify_key()) == eager
    assert pickle.loads(pickle.dumps(signer.verify_key())) == eager
    assert dataclasses.astuple(vk) == (FULLTIME, data)
    assert type(vk) is VerifyKey and vk.data == data


ED25519_L = (1 << 252) + 27742317777372353535851937790883648493


def test_edge_signatures_are_rejected_without_an_error(rng):
    """Neither check raises on a signature of the right length: an Ed25519 s
    at or above the group order, an R that is no point, and a K-time s*G + e*Y
    at infinity all verify False."""
    signer, vk = fulltime_keygen(rng)
    sig = signer.sign(b"m")
    s = int.from_bytes(sig[32:], "little")
    for bad in (
        sig[:32] + (s + ED25519_L).to_bytes(32, "little"),
        sig[:32] + ED25519_L.to_bytes(32, "little"),
        b"\xff" * 64,
        bytes(32) + sig[32:],
    ):
        assert [vk.verify(b"m", bad) for _ in range(2)] == [False, False]
    y = 5
    key = VerifyKey(KTIME, ec.point_encode(ec.point_mul(ec.G, y)) + (1).to_bytes(4, "big")
                    + ec.point_encode(ec.G))
    e = sig_mod._ktime_challenge(b"m")
    at_infinity = (-e * y % ec.N).to_bytes(32, "big")
    assert ec.point_mul_add(int.from_bytes(at_infinity, "big"), ec.point_mul(ec.G, y), e) is None
    assert [key.verify(b"m", at_infinity) for _ in range(2)] == [False, False]


def test_a_small_order_key_verifies_nothing():
    """Under the identity key `01 00..00`, R = B and S = 1 satisfy the
    cofactorless equation [S]B = R + [k]A for any message, so a check that
    takes that key accepts a forgery; the key is rejected for its small
    order instead."""
    identity = VerifyKey(FULLTIME, b"\x01" + bytes(31))
    forged = bytes.fromhex("58" + "66" * 31) + (1).to_bytes(32, "little")
    for msg in (b"", b"m", bytes(1024)):
        assert [identity.verify(msg, forged) for _ in range(2)] == [False, False]


def test_a_verified_key_pickles_as_its_value(rng):
    """A key that has verified pickles its scheme, its data and its signer's
    pair, not its decoded key or its memo, and the copy still verifies."""
    signer, made = fulltime_keygen(rng)
    eager = VerifyKey(FULLTIME, made.data)
    ksigner, kvk = ktime_keygen(rng, 2)
    for key, sign in ((eager, signer.sign), (made, signer.sign), (kvk, ksigner.sign)):
        sig = sign(b"m")
        assert key.verify(b"m", sig)
        restored = pickle.loads(pickle.dumps(key))
        assert restored == key and hash(restored) == hash(key)
        assert set(vars(restored)) <= {"scheme", "data", "_pair"}
        assert restored.verify(b"m", sig) and not restored.verify(b"n", sig)


def test_a_pickled_key_holds_no_private_seed(rng):
    """A key its signer made pickles as its value whether it is deferred,
    derived or has verified; the signer's seed stays out of the bytes."""
    signer, _ = fulltime_keygen(rng)
    seed = bytes.fromhex(signer.to_dict()["seed"])
    deferred = signer.verify_key()
    derived = signer.verify_key()
    data = derived.data
    verified = signer.verify_key()
    assert verified.verify(b"m", signer.sign(b"m"))
    for key in (deferred, derived, verified):
        dumped = pickle.dumps(key)
        assert seed not in dumped
        restored = pickle.loads(dumped)
        assert vars(restored) == {"scheme": FULLTIME, "data": data}
        assert restored == VerifyKey(FULLTIME, data)


def test_the_signers_memory_passes_only_the_exact_pair(rng, sig_checks):
    """A key its signer made answers the signer's last pair from memory;
    every near miss runs the full check and fails."""
    signer, vk = fulltime_keygen(rng)
    other, _ = fulltime_keygen(rng)
    sig = signer.sign(b"m")
    flipped = bytes([sig[0] ^ 1]) + sig[1:]
    near_misses = [(b"m", flipped), (b"n", sig), (b"m", sig[:-1]), (b"m", other.sign(b"m"))]
    assert vk.verify(b"m", sig) and sig_checks == []
    for msg, bad in near_misses:
        assert not vk.verify(msg, bad)
    assert [(m, s) for _, m, s in sig_checks] == near_misses


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
def test_a_copy_of_the_signer_fills_the_memory_of_the_originals_key(copier, rng, sig_checks):
    signer, vk = fulltime_keygen(rng)
    twin = copier(signer)
    assert vk.verify(b"m", twin.sign(b"m"))
    assert copy.copy(signer._pair) is signer._pair is twin._pair
    assert sig_checks == []


def test_an_unpickled_signer_remembers_nothing(rng, sig_checks, ed25519_signs):
    signer, vk = fulltime_keygen(rng)
    sig = signer.sign(b"m")
    restored = pickle.loads(pickle.dumps(signer))
    assert restored == signer and restored._pair.signed is None
    assert restored.verify_key().verify(b"m", sig)
    assert [(m, s) for _, m, s in sig_checks] == [(b"m", sig)]
    # The copy signs the message again, where the original would not.
    assert restored.sign(b"m") == sig
    assert ed25519_signs == [b"m", b"m"]


def test_the_deferred_data_descriptor_reads_on_the_class(rng):
    """`VerifyKey.data` on the class is the descriptor itself, so help() and
    introspection of the class work."""
    assert isinstance(VerifyKey.data, sig_mod._DerivedOnRead)
    assert "class VerifyKey" in pydoc.render_doc(VerifyKey)


def test_only_a_full_time_key_pair_loads_the_backend():
    """MA and cex sign nothing, so importing the CLI, running their sessions
    and `report-ops --impl ma` leave the libsodium binding unloaded; a MAPoP
    impl1 session loads it at its first signing."""
    code = textwrap.dedent("""
        import contextlib, io, sys
        from rfpop.app import cli
        from rfpop.app.config import Config
        from rfpop.app.reports import config_for_impl

        def loaded():
            return "rfpop.primitives.ed25519" in sys.modules

        seen = [("import", loaded())]
        for mode in ("ma", "cex"):
            assert Config(mode=mode).build_system().run_honest().o_reader == 1
            seen.append((mode, loaded()))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["report-ops", "--impl", "ma"]) == 0
        seen.append(("report-ops", loaded()))
        assert config_for_impl("1").build_system().run_honest().o_reader == 1
        seen.append(("mapop", loaded()))
        print(seen)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == repr([("import", False), ("ma", False), ("cex", False),
                                       ("report-ops", False), ("mapop", True)])
