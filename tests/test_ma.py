"""Mutual authentication: formula vectors, two-step lookup, desync recovery."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpop.errors import CounterOverflow, LengthMismatch
from rfpop.ma import (
    MaParams,
    MaTagReply,
    MaTagState,
    confirm_value,
    counter_bytes,
    counter_mask,
    index_for,
    ma_reader_auth,
    ma_setup,
    ma_tag_respond,
    ma_tag_verify,
    parse_tag_reply,
)
from rfpop.model.database import ReaderDatabase
from rfpop.primitives.bitstring import flip_bit, xor
from rfpop.primitives.counters import OpCounters, counting
from rfpop.primitives.rng import Rng

PARAMS = MaParams()

# Known-answer vectors computed with hashlib.blake2b directly:
#   key   = blake2b(b"test-key", 32), ctr = 5, pad = 64 zero bytes
#   chal  = blake2b(b"test-chal", 32), nonce = blake2b(b"test-nonce", 32)
KAT_KEY = hashlib.blake2b(b"test-key", digest_size=32).digest()
KAT_CHAL = hashlib.blake2b(b"test-chal", digest_size=32).digest()
KAT_NONCE = hashlib.blake2b(b"test-nonce", digest_size=32).digest()
KAT_CTR = 5
KAT_INDEX = "d9d74793ba8bfac3ba533fe926ec5832de82b1ae8db854040538ea91fde1af01"
KAT_MASK = "d12e026e2b613fbace754901aa78d4f7bad2da8ce625776cec26552bcb25b28d"
KAT_MASKED_CTR = "d12e026e2b613fbace754901aa78d4f7bad2da8ce625776cec26552bcb25b288"
KAT_CONFIRM = "45eed1262deb68675aa913a6e1807681cf2d047335eb731865171dd0a2d6eb05"


def fresh_setup(tag_count=3, seed="ma-test"):
    tags, records = ma_setup(PARAMS, tag_count, Rng(seed))
    return tags, ReaderDatabase(records)


def test_index_known_answer():
    assert index_for(PARAMS, KAT_KEY, KAT_CTR).hex() == KAT_INDEX


def test_counter_mask_known_answer():
    index = bytes.fromhex(KAT_INDEX)
    mask = counter_mask(PARAMS, KAT_KEY, KAT_CHAL, index, KAT_NONCE)
    assert mask.hex() == KAT_MASK
    assert xor(mask, counter_bytes(PARAMS, KAT_CTR)).hex() == KAT_MASKED_CTR


def test_confirm_known_answer():
    assert confirm_value(PARAMS, KAT_KEY, KAT_CHAL, KAT_CTR, KAT_NONCE).hex() == KAT_CONFIRM


def test_tag_respond_matches_formulas():
    state = MaTagState(tag_id=bytes(32), key=KAT_KEY, ctr=KAT_CTR)
    rng = Rng("respond-vector")
    reply, scratch = ma_tag_respond(PARAMS, state, KAT_CHAL, rng)
    assert reply.index.hex() == KAT_INDEX
    expected_mask = counter_mask(PARAMS, KAT_KEY, KAT_CHAL, reply.index, reply.nonce)
    assert reply.masked_ctr == xor(expected_mask, counter_bytes(PARAMS, KAT_CTR))
    assert state.ctr == KAT_CTR + 1
    assert scratch.expect_ctr == KAT_CTR + 1
    assert scratch.challenge == KAT_CHAL
    assert scratch.nonce == reply.nonce


def test_parse_tag_reply_inverts_bits():
    reply = MaTagReply(
        index=(1).to_bytes(32, "big"),
        nonce=(2).to_bytes(32, "big"),
        masked_ctr=(3).to_bytes(32, "big"),
    )
    parsed = parse_tag_reply(PARAMS, reply.payload())
    assert parsed == reply


def test_synchronized_auth_uses_step_one():
    tags, db = fresh_setup()
    state = tags[1]
    rng = Rng("sync")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, scratch = ma_tag_respond(PARAMS, state, challenge, rng)
    result = ma_reader_auth(PARAMS, db, challenge, reply)
    assert result.accepted
    assert result.via_step == 1
    assert result.tag_id == state.tag_id
    assert result.new_ctr == state.ctr
    rec = db.get(state.tag_id)
    assert rec.ctr == state.ctr
    assert rec.index == index_for(PARAMS, state.key, state.ctr)
    assert ma_tag_verify(PARAMS, state, scratch, result.confirm)


def test_tag_rejects_tampered_confirm():
    tags, db = fresh_setup()
    state = tags[0]
    rng = Rng("confirm-tamper")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, scratch = ma_tag_respond(PARAMS, state, challenge, rng)
    result = ma_reader_auth(PARAMS, db, challenge, reply)
    assert not ma_tag_verify(PARAMS, state, scratch, flip_bit(result.confirm, 0))


def test_desync_recovers_via_step_two_then_step_one():
    tags, db = fresh_setup()
    state = tags[2]
    rng = Rng("desync")
    for drops in range(1, 6):
        # Lose `drops` tag replies: the tag advances, the reader does not.
        for _ in range(drops):
            ma_tag_respond(PARAMS, state, rng.take_bits(PARAMS.challenge_bits), rng)
        challenge = rng.take_bits(PARAMS.challenge_bits)
        reply, scratch = ma_tag_respond(PARAMS, state, challenge, rng)
        result = ma_reader_auth(PARAMS, db, challenge, reply)
        assert result.accepted and result.via_step == 2
        assert result.tag_id == state.tag_id
        assert ma_tag_verify(PARAMS, state, scratch, result.confirm)
        # Resynchronized: the very next session takes the fast path.
        challenge = rng.take_bits(PARAMS.challenge_bits)
        reply, scratch = ma_tag_respond(PARAMS, state, challenge, rng)
        result = ma_reader_auth(PARAMS, db, challenge, reply)
        assert result.accepted and result.via_step == 1
        assert ma_tag_verify(PARAMS, state, scratch, result.confirm)


def test_lost_confirm_does_not_desynchronize():
    tags, db = fresh_setup()
    state = tags[0]
    rng = Rng("lost-confirm")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, _ = ma_tag_respond(PARAMS, state, challenge, rng)
    ma_reader_auth(PARAMS, db, challenge, reply)  # confirm never delivered
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, _ = ma_tag_respond(PARAMS, state, challenge, rng)
    result = ma_reader_auth(PARAMS, db, challenge, reply)
    assert result.accepted and result.via_step == 1


def test_random_reply_rejected():
    _, db = fresh_setup()
    rng = Rng("garbage")
    reply = parse_tag_reply(PARAMS, rng.take_bits(PARAMS.reply_bits))
    result = ma_reader_auth(PARAMS, db, rng.take_bits(PARAMS.challenge_bits), reply)
    assert not result.accepted
    assert result.tag_id is None and result.via_step == 0


def test_scan_prefers_lowest_tag_id_on_ties():
    # Two records share a key and counter, so a desynchronized reply matches
    # both; the scan must settle on the smaller tag id.
    key = Rng("tie").take_bits(256)
    ids = [bytes(31) + bytes([i]) for i in (7, 3)]
    records = [
        type(obj)(tag_id=tid, key=key, ctr=1, index=index_for(PARAMS, key, 1))
        for obj, tid in zip(ma_setup(PARAMS, 2, Rng("tie-base"))[1], ids)
    ]
    db = ReaderDatabase(records)
    state = MaTagState(tag_id=ids[0], key=key, ctr=1)
    rng = Rng("tie-run")
    ma_tag_respond(PARAMS, state, rng.take_bits(PARAMS.challenge_bits), rng)  # desync
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, _ = ma_tag_respond(PARAMS, state, challenge, rng)
    result = ma_reader_auth(PARAMS, db, challenge, reply)
    assert result.accepted and result.via_step == 2
    assert result.tag_id == ids[1]


def test_counter_bounds():
    with pytest.raises(CounterOverflow):
        counter_bytes(PARAMS, -1)
    with pytest.raises(CounterOverflow):
        counter_bytes(PARAMS, PARAMS.max_counter + 1)
    state = MaTagState(
        tag_id=bytes(32), key=KAT_KEY, ctr=PARAMS.max_counter
    )
    with pytest.raises(CounterOverflow):
        ma_tag_respond(PARAMS, state, KAT_CHAL, Rng("overflow"))


def test_challenge_length_checked():
    state = MaTagState(tag_id=bytes(32), key=KAT_KEY, ctr=1)
    with pytest.raises(LengthMismatch):
        ma_tag_respond(PARAMS, state, bytes(1), Rng("short"))


def test_params_reject_unaligned_lengths():
    with pytest.raises(LengthMismatch):
        MaParams(out_bits=12)
    with pytest.raises(LengthMismatch):
        MaParams(key_bits=0)


def test_declared_operation_counts():
    tags, db = fresh_setup()
    state = tags[0]
    rng = Rng("ops")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    tag_ops = OpCounters()
    with counting(tag_ops):
        reply, scratch = ma_tag_respond(PARAMS, state, challenge, rng)
    assert tag_ops.hashes == 2  # index and counter mask
    reader_ops = OpCounters()
    with counting(reader_ops):
        result = ma_reader_auth(PARAMS, db, challenge, reply)
    assert reader_ops.hashes == 3  # mask check, index refresh, confirmation
    with counting(tag_ops):
        ma_tag_verify(PARAMS, state, scratch, result.confirm)
    assert tag_ops.hashes == 3  # one more for the confirmation check


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**64), st.binary(min_size=0, max_size=16))
def test_session_accepts_for_arbitrary_counters(ctr, salt):
    # Counter recovery is exact for any in-range counter value.
    key = hashlib.blake2b(salt, digest_size=32).digest()
    tag_id = bytes(32)
    state = MaTagState(tag_id=tag_id, key=key, ctr=ctr)
    from rfpop.ma import MaReaderRecord

    db = ReaderDatabase(
        [MaReaderRecord(tag_id=tag_id, key=key, ctr=ctr, index=index_for(PARAMS, key, ctr))]
    )
    rng = Rng(salt + b"|run")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, scratch = ma_tag_respond(PARAMS, state, challenge, rng)
    result = ma_reader_auth(PARAMS, db, challenge, reply)
    assert result.accepted and result.via_step == 1
    assert result.new_ctr == ctr + 1
    assert ma_tag_verify(PARAMS, state, scratch, result.confirm)
