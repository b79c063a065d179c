"""Signature schemes: round trips, budget exhaustion, declared costs."""

import pytest

from rfpop.errors import KTimeExhausted, PairPoolExhausted
from rfpop.primitives import ec
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
