"""Mutual authentication: formula vectors, two-step lookup, desync recovery."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpop.errors import CounterOverflow, LengthMismatch
from rfpop.ma import (
    MaAuthResult,
    MaParams,
    MaReaderRecord,
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
    reply, scratch, advanced = ma_tag_respond(PARAMS, state, KAT_CHAL, rng)
    assert reply.index.hex() == KAT_INDEX
    expected_mask = counter_mask(PARAMS, KAT_KEY, KAT_CHAL, reply.index, reply.nonce)
    assert reply.masked_ctr == xor(expected_mask, counter_bytes(PARAMS, KAT_CTR))
    assert advanced == dataclasses.replace(state, ctr=KAT_CTR + 1)
    assert state.ctr == KAT_CTR
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
    reply, scratch, state = ma_tag_respond(PARAMS, state, challenge, rng)
    result = ma_reader_auth(PARAMS, db, challenge, reply)
    assert result.accepted
    assert result.via_step == 1
    assert result.tag_id == state.tag_id
    rec = db.get(state.tag_id)
    assert rec.ctr == state.ctr
    assert rec.index == index_for(PARAMS, state.key, state.ctr)
    assert ma_tag_verify(PARAMS, state, scratch, result.confirm)


def test_tag_rejects_tampered_confirm():
    tags, db = fresh_setup()
    state = tags[0]
    rng = Rng("confirm-tamper")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, scratch, state = ma_tag_respond(PARAMS, state, challenge, rng)
    result = ma_reader_auth(PARAMS, db, challenge, reply)
    assert not ma_tag_verify(PARAMS, state, scratch, flip_bit(result.confirm, 0))


def test_desync_recovers_via_step_two_then_step_one():
    tags, db = fresh_setup()
    state = tags[2]
    rng = Rng("desync")
    for drops in range(1, 6):
        # Lose `drops` tag replies: the tag advances, the reader does not.
        for _ in range(drops):
            _, _, state = ma_tag_respond(PARAMS, state, rng.take_bits(PARAMS.challenge_bits), rng)
        challenge = rng.take_bits(PARAMS.challenge_bits)
        reply, scratch, state = ma_tag_respond(PARAMS, state, challenge, rng)
        result = ma_reader_auth(PARAMS, db, challenge, reply)
        assert result.accepted and result.via_step == 2
        assert result.tag_id == state.tag_id
        assert ma_tag_verify(PARAMS, state, scratch, result.confirm)
        # Resynchronized: the very next session takes the fast path.
        challenge = rng.take_bits(PARAMS.challenge_bits)
        reply, scratch, state = ma_tag_respond(PARAMS, state, challenge, rng)
        result = ma_reader_auth(PARAMS, db, challenge, reply)
        assert result.accepted and result.via_step == 1
        assert ma_tag_verify(PARAMS, state, scratch, result.confirm)


def test_lost_confirm_does_not_desynchronize():
    tags, db = fresh_setup()
    state = tags[0]
    rng = Rng("lost-confirm")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, _, state = ma_tag_respond(PARAMS, state, challenge, rng)
    ma_reader_auth(PARAMS, db, challenge, reply)  # confirm never delivered
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, _, state = ma_tag_respond(PARAMS, state, challenge, rng)
    result = ma_reader_auth(PARAMS, db, challenge, reply)
    assert result.accepted and result.via_step == 1


def test_random_reply_rejected():
    _, db = fresh_setup()
    rng = Rng("garbage")
    reply = parse_tag_reply(PARAMS, rng.take_bits(PARAMS.reply_bits))
    result = ma_reader_auth(PARAMS, db, rng.take_bits(PARAMS.challenge_bits), reply)
    assert not result.accepted
    assert result.tag_id is None and result.via_step == 0


def test_index_collisions_come_back_in_ascending_tag_id_order():
    # Two hand-built records take the same index, put in descending tag-id
    # order; Step 1 must still see them in ascending order.
    ids = [bytes(31) + bytes([i]) for i in (1, 5, 9)]
    keys = [Rng(f"collide-{i}").take_bits(256) for i in range(3)]
    db = ReaderDatabase(
        [MaReaderRecord(tid, key, 1, index_for(PARAMS, key, 1)) for tid, key in zip(ids, keys)]
    )
    shared = bytes(32)
    for tid, key in sorted(zip(ids[1:], keys[1:]), reverse=True):
        db.put(MaReaderRecord(tid, key, 2, shared))
    assert [rec.tag_id for rec in db.candidates_for_index(shared)] == ids[1:]
    db.put(MaReaderRecord(ids[0], keys[0], 2, shared))
    assert [rec.tag_id for rec in db.candidates_for_index(shared)] == ids
    # Moving the middle id off the bucket keeps the others in order.
    moved = bytes([1]) * 32
    db.put(MaReaderRecord(ids[1], keys[1], 3, moved))
    assert [rec.tag_id for rec in db.candidates_for_index(shared)] == [ids[0], ids[2]]
    assert [rec.tag_id for rec in db.candidates_for_index(moved)] == [ids[1]]


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
    _, _, state = ma_tag_respond(PARAMS, state, rng.take_bits(PARAMS.challenge_bits), rng)  # desync
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, _, state = ma_tag_respond(PARAMS, state, challenge, rng)
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
        reply, scratch, state = ma_tag_respond(PARAMS, state, challenge, rng)
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
    db = ReaderDatabase(
        [MaReaderRecord(tag_id=tag_id, key=key, ctr=ctr, index=index_for(PARAMS, key, ctr))]
    )
    rng = Rng(salt + b"|run")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, scratch, state = ma_tag_respond(PARAMS, state, challenge, rng)
    result = ma_reader_auth(PARAMS, db, challenge, reply)
    assert result.accepted and result.via_step == 1
    assert db.get(tag_id).ctr == ctr + 1
    assert ma_tag_verify(PARAMS, state, scratch, result.confirm)


# -- the Step-2 scan kernel against a scan on prf_eval ----------------------


def reference_auth(params, db, challenge, reply):
    """ma_reader_auth as it reads in the module docstring, every PRF call on
    prf_eval: Step 1 over the index map, then a scan in ascending tag-id order."""
    masked = int.from_bytes(reply.masked_ctr, "big")

    def accept(rec, recovered, via_step):
        ctr = recovered + 1
        rec = dataclasses.replace(rec, ctr=ctr, index=index_for(params, rec.key, ctr))
        db.put(rec)
        confirm = confirm_value(params, rec.key, challenge, rec.ctr, reply.nonce)
        return MaAuthResult(True, rec.tag_id, confirm, via_step)

    for rec in db.candidates_for_index(reply.index):
        mask = counter_mask(params, rec.key, challenge, reply.index, reply.nonce)
        recovered = int.from_bytes(mask, "big") ^ masked
        if recovered == rec.ctr and recovered + 1 <= params.max_counter:
            return accept(rec, recovered, 1)
    for rec in sorted(db.records_ascending(), key=lambda r: r.tag_id):
        mask = counter_mask(params, rec.key, challenge, reply.index, reply.nonce)
        recovered = int.from_bytes(mask, "big") ^ masked
        if recovered + 1 > params.max_counter:
            continue
        if index_for(params, rec.key, recovered) == reply.index:
            return accept(rec, recovered, 2)
    return MaAuthResult(False)


def crafted_reply(key, ctr, challenge, nonce):
    """The reply a tag holding (key, ctr) sends, for any ctr up to the bound."""
    index = index_for(PARAMS, key, ctr)
    mask = counter_mask(PARAMS, key, challenge, index, nonce)
    return MaTagReply(index, nonce, xor(mask, counter_bytes(PARAMS, ctr)))


def record_states(db):
    return [dataclasses.astuple(rec) for rec in db.records_ascending()]


TOP = PARAMS.max_counter
SCAN_KEYS = [hashlib.blake2b(bytes([i]), digest_size=32).digest() for i in range(3)]
SCAN_CTRS = st.sampled_from([1, 2, 3, 5, TOP - 2, TOP - 1, TOP])


@st.composite
def scan_cases(draw):
    """A database over a few shared keys (so indexes collide), counters near
    zero and at the bound, and a run of replies: desynchronized tags (ahead
    of their record), stale ones (behind it) and garbage."""
    ids = draw(st.lists(st.integers(0, 255), min_size=1, max_size=6, unique=True))
    records = []
    for i in ids:
        key = SCAN_KEYS[draw(st.integers(0, len(SCAN_KEYS) - 1))]
        ctr = draw(SCAN_CTRS)
        records.append(MaReaderRecord(bytes(31) + bytes([i]), key, ctr, index_for(PARAMS, key, ctr)))
    replies = []
    for n in range(draw(st.integers(1, 4))):
        challenge = hashlib.blake2b(b"c%d" % n, digest_size=32).digest()
        nonce = hashlib.blake2b(b"n%d" % n, digest_size=32).digest()
        kind = draw(st.sampled_from(["record", "record", "garbage"]))
        if kind == "garbage":
            reply = MaTagReply(nonce, challenge, hashlib.blake2b(nonce, digest_size=32).digest())
        else:
            rec = records[draw(st.integers(0, len(records) - 1))]
            drift = draw(st.integers(-2, 3))
            ctr = min(max(rec.ctr + drift, 0), TOP)
            reply = crafted_reply(rec.key, ctr, challenge, nonce)
        replies.append((challenge, reply))
    return records, replies


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_scan_kernel_matches_reference_scan(case):
    records, replies = case
    dbs = [ReaderDatabase([dataclasses.replace(r) for r in records]) for _ in range(2)]
    for challenge, reply in replies:
        outcomes = []
        for auth, db in zip((reference_auth, ma_reader_auth), dbs):
            ops = OpCounters()
            with counting(ops):
                result = auth(PARAMS, db, challenge, reply)
            outcomes.append((result, ops.hashes, record_states(db)))
        assert outcomes[0] == outcomes[1]


WIDE = 300  # records in the wide-database scan test


def test_scan_kernel_matches_reference_scan_over_a_wide_database():
    """Hits at the first, a middle and the last of 300 records, a miss, and
    a key reassigned beyond where the previous scan stopped, each against
    the reference on result, hash count and record states. The Hypothesis
    cases hold at most 6 records, too few to show a state list out of line
    with the records."""
    tags, records = ma_setup(PARAMS, WIDE, Rng("wide-scan"))
    dbs = [ReaderDatabase(records) for _ in range(2)]
    rng = Rng("wide-scan-replies")

    def scan(reply_for, expect_at):
        challenge, nonce = rng.take_bits(256), rng.take_bits(256)
        reply = reply_for(challenge, nonce)
        outcomes = []
        for auth, db in zip((reference_auth, ma_reader_auth), dbs):
            ops = OpCounters()
            with counting(ops):
                result = auth(PARAMS, db, challenge, reply)
            outcomes.append((result, ops.hashes, record_states(db)))
        assert outcomes[0] == outcomes[1]
        result = outcomes[1][0]
        if expect_at is None:
            assert not result.accepted
        else:
            assert result.via_step == 2 and result.tag_id == tags[expect_at].tag_id
        return outcomes[1][1]

    def ahead(i):
        """A reply from tag i two counter steps ahead of its record."""
        rec = dbs[0].get(tags[i].tag_id)
        return lambda challenge, nonce: crafted_reply(rec.key, rec.ctr + 2, challenge, nonce)

    def garbage(challenge, nonce):
        return MaTagReply(nonce, challenge, hashlib.blake2b(nonce, digest_size=32).digest())

    assert scan(ahead(0), 0) == 2 + 2  # one record scanned, then _accept
    scan(ahead(WIDE // 2), WIDE // 2)
    scan(ahead(WIDE - 1), WIDE - 1)
    assert scan(garbage, None) == 2 * WIDE
    scan(ahead(40), 40)
    key = rng.take_bits(PARAMS.key_bits)
    for db in dbs:
        rec = db.get(tags[220].tag_id)
        db.put(dataclasses.replace(rec, key=key, index=index_for(PARAMS, key, rec.ctr)))
    scan(ahead(220), 220)
    scan(ahead(260), 260)
    scan(ahead(40), 40)


def desync_reply(state, rng):
    """Drop one challenge to the tag, then return a fresh (challenge, reply)."""
    _, _, state = ma_tag_respond(PARAMS, state, rng.take_bits(PARAMS.challenge_bits), rng)
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, _, _ = ma_tag_respond(PARAMS, state, challenge, rng)
    return challenge, reply


def test_scan_raises_on_a_record_key_of_the_wrong_length():
    tags, db = fresh_setup()
    db.put(dataclasses.replace(db.get(tags[1].tag_id), key=bytes(31)))
    challenge, reply = desync_reply(tags[2], Rng("short-key"))
    with pytest.raises(LengthMismatch, match="key is 248 bits"):
        ma_reader_auth(PARAMS, db, challenge, reply)


def test_scan_uses_a_reassigned_record_key():
    tags, db = fresh_setup()
    rng = Rng("rekey")
    # The first scan reaches the last record and keys a state for it.
    result = ma_reader_auth(PARAMS, db, *desync_reply(tags[2], rng))
    assert result.via_step == 2 and db.keyed_states
    rec = db.get(tags[2].tag_id)
    key = rng.take_bits(PARAMS.key_bits)
    db.put(dataclasses.replace(rec, key=key, index=index_for(PARAMS, key, rec.ctr)))
    # The tag carries on from the counter the first scan stored.
    state = dataclasses.replace(tags[2], key=key, ctr=rec.ctr)
    result = ma_reader_auth(PARAMS, db, *desync_reply(state, rng))
    assert result.accepted and result.via_step == 2
    assert result.tag_id == tags[2].tag_id


def test_database_without_step_two_holds_no_keyed_states():
    tags, db = fresh_setup()
    rng = Rng("sync-only")
    for i in range(2 * len(tags)):
        challenge = rng.take_bits(PARAMS.challenge_bits)
        reply, _, tags[i % len(tags)] = ma_tag_respond(PARAMS, tags[i % len(tags)], challenge, rng)
        assert ma_reader_auth(PARAMS, db, challenge, reply).via_step == 1
    assert db.keyed_states == {}
