"""Keyed function families: length contracts, frozen vectors, counting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfpop.errors import LengthMismatch
from rfpop.primitives.bitstring import flip_bit
from rfpop.primitives.counters import OpCounters, counting
from rfpop.primitives.prf import PrfDescriptor, hash_digest, prf_eval

MA_DESC = PrfDescriptor("ma-f", 256, 768, 256)
VAR_DESC = PrfDescriptor("pop-g", 256, None, 256)

KEY = bytes(range(32))
DATA = bytes(range(32, 32 + 96))

# Frozen against direct keyed-BLAKE2b calls with the same key/data/digest size.
VECTOR_OUT256 = "299f5bfbd131dd11dfb870817a68bb85df2963e87fbd2ec37f0dbd2e22380147"
VECTOR_EMPTY = "4e51e7a913fc80137da52880fecca175bf81e117d5c68126dc2774033517ea0d"
VECTOR_OUT128 = "f2651eda257688286bf95590d0dfd318"
VECTOR_HASH = "84e8d667d504e7d0c9347ef4f51f1d307c292753b5502955a4d73327427cba83"


def test_frozen_vector_default_width():
    assert prf_eval(MA_DESC, KEY, DATA).hex() == VECTOR_OUT256


def test_frozen_vector_variable_input():
    assert prf_eval(VAR_DESC, KEY, b"").hex() == VECTOR_EMPTY


def test_frozen_vector_override_width():
    assert prf_eval(VAR_DESC, KEY, DATA, out_bits=128).hex() == VECTOR_OUT128


def test_frozen_vector_unkeyed_hash():
    assert hash_digest(b"credential").hex() == VECTOR_HASH


def test_output_lengths_are_independent_functions():
    long = prf_eval(VAR_DESC, KEY, DATA, out_bits=512)
    short = prf_eval(VAR_DESC, KEY, DATA, out_bits=256)
    assert long[:32] != short


def test_length_contracts_enforced():
    with pytest.raises(LengthMismatch):
        prf_eval(MA_DESC, bytes(16), DATA)
    with pytest.raises(LengthMismatch):
        prf_eval(MA_DESC, KEY, bytes(1))
    with pytest.raises(LengthMismatch):
        prf_eval(VAR_DESC, KEY, DATA, out_bits=12)
    with pytest.raises(LengthMismatch):
        prf_eval(VAR_DESC, KEY, DATA, out_bits=1024)


def test_descriptor_validation():
    with pytest.raises(LengthMismatch):
        PrfDescriptor("bad", 0, None, 256)
    with pytest.raises(LengthMismatch):
        PrfDescriptor("bad", 256, 12, 256)
    with pytest.raises(LengthMismatch):
        PrfDescriptor("bad", 256, None, 1024)


def test_each_eval_counts_one_hash():
    ops = OpCounters()
    with counting(ops):
        prf_eval(MA_DESC, KEY, DATA)
        prf_eval(VAR_DESC, KEY, DATA, out_bits=128)
        hash_digest(b"x")
    assert ops.hashes == 3
    assert ops.point_muls == 0 and ops.scalar_muls == 0


@given(st.binary(min_size=32, max_size=32), st.binary(min_size=96, max_size=96))
def test_deterministic_and_key_sensitive(key, data):
    out1 = prf_eval(MA_DESC, key, data)
    out2 = prf_eval(MA_DESC, key, data)
    assert out1 == out2
    assert len(out1) == 32
    flipped = prf_eval(MA_DESC, flip_bit(key, 0), data)
    assert flipped != out1


@pytest.mark.parametrize(
    "desc, key, data, out_bits, message",
    [
        (MA_DESC, bytes(16), DATA, None, "ma-f: key is 128 bits, descriptor says 256"),
        (MA_DESC, KEY, bytes(1), None, "ma-f: input is 8 bits, descriptor says 768"),
        (MA_DESC, bytes(16), bytes(1), None, "ma-f: key is 128 bits, descriptor says 256"),
        (VAR_DESC, KEY, DATA, 12, "pop-g: unsupported output length 12"),
        (VAR_DESC, KEY, DATA, 0, "pop-g: unsupported output length 0"),
        (VAR_DESC, KEY, DATA, 1024, "pop-g: unsupported output length 1024"),
    ],
)
def test_length_errors_name_the_lengths_and_count_nothing(desc, key, data, out_bits, message):
    ops = OpCounters()
    with counting(ops), pytest.raises(LengthMismatch) as err:
        prf_eval(desc, key, data, out_bits)
    assert str(err.value) == message
    assert ops.hashes == 0
