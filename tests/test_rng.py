"""Deterministic randomness: replay, substreams, frozen vectors."""

from collections import Counter

import pytest

from rfpop.errors import LengthMismatch
from rfpop.primitives.rng import Rng

# Frozen against a direct keyed-BLAKE2b computation of the stream layout.
VECTOR_SEED_HEX = "04258e1d8cf2e13bbd3b969d63269b009f27f79d3b961f7a150d10b7ea7c11c5"
VECTOR_FIRST_16 = "cc65f30b4228e5809738ce668adfc9e2"
VECTOR_CHILD_SEED = "880ad6f0a89644820e1185c1c9a3ef2fb30fa61287a154a3e13f2bbcbcb2a451"


def test_frozen_stream_vector():
    r = Rng("vector")
    assert r.seed_hex == VECTOR_SEED_HEX
    assert r.take_bytes(16).hex() == VECTOR_FIRST_16


def test_frozen_spawn_vector():
    child = Rng("vector").spawn("kid")
    assert child.seed_hex == VECTOR_CHILD_SEED


def test_same_seed_same_stream():
    a, b = Rng("replay"), Rng("replay")
    assert [a.take_bytes(7) for _ in range(5)] == [b.take_bytes(7) for _ in range(5)]


def test_seed_types_normalize():
    assert Rng(b"x").seed_hex != Rng("x").seed_hex or True  # both accepted
    with pytest.raises(TypeError):
        Rng(1.5)


def test_spawn_is_order_independent():
    base = Rng("parent")
    base.take_bytes(100)
    late = base.spawn("child")
    early = Rng("parent").spawn("child")
    assert late.take_bytes(32) == early.take_bytes(32)


def test_spawn_labels_are_independent():
    a = Rng("parent").spawn("a").take_bytes(32)
    b = Rng("parent").spawn("b").take_bytes(32)
    assert a != b


def test_take_bits_width():
    r = Rng("bits")
    for width in (8, 128, 256):
        assert len(r.take_bits(width)) == width // 8
    for width in (1, 3, 13):
        with pytest.raises(LengthMismatch):
            r.take_bits(width)


def test_take_bits_reads_the_byte_stream():
    a, b = Rng("bits"), Rng("bits")
    assert a.take_bits(128) + a.take_bits(256) == b.take_bytes(48)


def test_draw_order_is_frozen():
    # Seeded experiments replay only if coin and randrange keep their shift
    # and the number of bytes each draw reads.
    r = Rng("draw-order")
    assert [r.coin() for _ in range(16)] == [1, 0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0]
    assert [r.randrange(1000) for _ in range(8)] == [907, 267, 884, 332, 430, 269, 524, 331]
    assert r.randrange(6) == 4
    assert r.take_bytes(4).hex() == "1e46a927"


def test_randrange_bounds_and_coverage():
    r = Rng("range")
    seen = Counter(r.randrange(6) for _ in range(600))
    assert set(seen) == set(range(6))
    with pytest.raises(ValueError):
        r.randrange(0)


def test_coin_is_roughly_fair():
    r = Rng("coin")
    heads = sum(r.coin() for _ in range(2000))
    assert 850 < heads < 1150


def test_choice_draws_members():
    r = Rng("choice")
    seq = ["a", "b", "c"]
    assert all(r.choice(seq) in seq for _ in range(20))
