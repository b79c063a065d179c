"""Deliberately flawed counter protocol used as the traceability control."""

import dataclasses
import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from rfpop.counterexample import (
    CexParams,
    CexProtocol,
    CexReaderRecord,
    CexTagState,
    _branch_value,
    cex_reader_respond,
    cex_setup,
    cex_tag_respond,
)
from rfpop.ma import MaProtocol, MaTagState, confirm_value, counter_bytes
from rfpop.model.database import ReaderDatabase
from rfpop.model.types import Msg
from rfpop.primitives.bitstring import flip_bit, split, xor
from rfpop.primitives.counters import OpCounters, counting
from rfpop.primitives.rng import Rng
from rfpop.system import build_cex_system

PARAMS = CexParams()


def fresh_setup(tag_count=2, seed="cex-test"):
    tags, records = cex_setup(PARAMS, tag_count, Rng(seed))
    return tags, ReaderDatabase(records)


def split_reply(payload):
    return split(payload, PARAMS.out_bits // 8, PARAMS.nonce_bits // 8)


def run_session(state, db, rng, tamper_nonce=False):
    """One session; returns both verdicts, the accepted tag and the tag's
    state after the session."""
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, scratch, state = cex_tag_respond(PARAMS, state, challenge, rng)
    r1, nonce = split_reply(reply)
    if tamper_nonce:
        nonce = flip_bit(nonce, 0)
    accepted, tag_id, f = cex_reader_respond(PARAMS, db, challenge, r1, nonce, rng)
    action, state = CexProtocol(PARAMS).tag_on_message(state, scratch, Msg(2, f), rng)
    return accepted, tag_id, action.output, state


def test_honest_session_accepts_and_clears_state():
    tags, db = fresh_setup()
    state = tags[0]
    rng = Rng("honest")
    assert state.st == 0
    accepted, tag_id, ok, state = run_session(state, db, rng)
    assert accepted and ok
    assert tag_id == state.tag_id
    assert state.st == 0
    assert state.ctr == db.get(tag_id).ctr == 2


def test_interrupted_session_sets_resume_branch():
    tags, db = fresh_setup()
    state = tags[0]
    rng = Rng("interrupt")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    _, _, state = cex_tag_respond(PARAMS, state, challenge, rng)  # reply lost, no finish
    assert state.st == 1
    # No desync recovery: the counters now disagree and sessions fail...
    accepted, _, ok, state = run_session(state, db, rng)
    assert not accepted and not ok
    assert state.st == 1


def test_tampered_nonce_accepted_exactly_when_state_clean():
    # The clean branch ignores r2, so a tampered nonce still authenticates;
    # the resume branch binds r2 and rejects the same tampering.
    tags, db = fresh_setup()
    state = tags[0]
    rng = Rng("tamper")
    assert state.st == 0
    accepted, _, ok, state = run_session(state, db, rng, tamper_nonce=True)
    assert accepted  # flaw: reader accepted a modified session
    assert not ok  # tag's finish check fails (nonce mismatch), st stays 1
    assert state.st == 1
    # Re-align counters manually, then tamper on the resume branch.
    db.put(dataclasses.replace(db.get(state.tag_id), ctr=state.ctr))
    accepted, _, ok, state = run_session(state, db, rng, tamper_nonce=True)
    assert not accepted and not ok


def test_third_message_sent_even_on_reject():
    _, db = fresh_setup()
    rng = Rng("reject")
    r1 = rng.take_bits(PARAMS.out_bits)
    nonce = rng.take_bits(PARAMS.nonce_bits)
    accepted, tag_id, f = cex_reader_respond(
        PARAMS, db, rng.take_bits(PARAMS.challenge_bits), r1, nonce, rng
    )
    assert not accepted and tag_id is None
    assert 8 * len(f) == PARAMS.out_bits


def test_tag_rejects_random_finish():
    tags, db = fresh_setup()
    state = tags[0]
    rng = Rng("bad-finish")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    _, scratch, state = cex_tag_respond(PARAMS, state, challenge, rng)
    finish = Msg(2, rng.take_bits(PARAMS.out_bits))
    action, state = CexProtocol(PARAMS).tag_on_message(state, scratch, finish, rng)
    assert not action.output
    assert state.st == 1


def test_same_challenge_twice_leaks_counter_pattern():
    # Two clean-state replies to one challenge XOR to ctr ^ (ctr + 1), a run of
    # trailing one bits. That pattern is what the tracing distinguisher keys on.
    state = CexTagState(
        tag_id=bytes(32), key=Rng("leak-key").take_bits(256), ctr=6
    )
    rng = Rng("leak")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply1, _, state = cex_tag_respond(PARAMS, state, challenge, rng)
    state = dataclasses.replace(state, st=0)  # as after a cleanly finished session
    reply2, _, _ = cex_tag_respond(PARAMS, state, challenge, rng)
    r1_first, _ = split_reply(reply1)
    r1_second, _ = split_reply(reply2)
    delta = int.from_bytes(xor(r1_first, r1_second), "big")
    assert delta == 6 ^ 7
    assert delta != 0 and delta & (delta + 1) == 0


def test_cex_extends_ma():
    """Cex replaces only round 1: the round-0 and round-2 slots, round 0 and
    the confirmation check are MA's, and a valid confirmation clears st."""
    assert issubclass(CexProtocol, MaProtocol) and issubclass(CexTagState, MaTagState)
    cex, ma = CexProtocol(PARAMS).slots(), MaProtocol(PARAMS).slots()
    assert (cex[0], cex[2]) == (ma[0], ma[2])
    assert cex[1] == (PARAMS.out_bits + PARAMS.nonce_bits) // 8
    tags, db = fresh_setup()
    state = dataclasses.replace(tags[0], st=1)
    rng = Rng("cex-extends-ma")
    accepted, _, ok, state = run_session(state, db, rng)
    assert accepted and ok == 1
    assert state.st == 0


def test_full_protocol_round_trip():
    system = build_cex_system(Rng("cex-system"), tag_count=3)
    tag_id = system.first_tag_id()
    for _ in range(2):
        trs = system.run_honest(tag_id)
        assert trs.o_reader == 1 and trs.o_tag == 1
        assert len(trs.messages) == 3
    assert system.reader.history.session(2).tag_id == tag_id


# -- the Step-2 scan kernel against a scan on prf_eval ----------------------


def reference_respond(params, db, challenge, r1, nonce, rng):
    """cex_reader_respond with every PRF call on prf_eval: both branches of
    every record in ascending tag-id order, skipping counters at the bound."""
    masked = int.from_bytes(r1, "big")
    for rec in sorted(db.records_ascending(), key=lambda r: r.tag_id):
        if rec.ctr + 1 > params.max_counter:
            continue
        hit = False
        for branch_nonce in (None, nonce):
            branch = _branch_value(params, rec.key, challenge, branch_nonce)
            if int.from_bytes(branch, "big") ^ masked == rec.ctr:
                hit = True
                break
        if hit:
            rec = dataclasses.replace(rec, ctr=rec.ctr + 1)
            db.put(rec)
            return True, rec.tag_id, confirm_value(params, rec.key, challenge, rec.ctr, nonce)
    return False, None, rng.take_bits(params.out_bits)


TOP = PARAMS.max_counter
SCAN_KEYS = [hashlib.blake2b(bytes([i]), digest_size=32).digest() for i in range(3)]


@st.composite
def scan_cases(draw):
    """A database over a few shared keys, counters near zero and at the
    bound, and a run of r1 values from either branch of some record's key at
    a counter near the record's, or garbage."""
    ids = draw(st.lists(st.integers(0, 255), min_size=1, max_size=6, unique=True))
    records = [
        CexReaderRecord(
            bytes(31) + bytes([i]),
            SCAN_KEYS[draw(st.integers(0, len(SCAN_KEYS) - 1))],
            draw(st.sampled_from([1, 2, 4, TOP - 1, TOP])),
        )
        for i in ids
    ]
    replies = []
    for n in range(draw(st.integers(1, 4))):
        challenge = hashlib.blake2b(b"c%d" % n, digest_size=32).digest()
        nonce = hashlib.blake2b(b"n%d" % n, digest_size=32).digest()
        if draw(st.booleans()):
            rec = records[draw(st.integers(0, len(records) - 1))]
            ctr = min(max(rec.ctr + draw(st.integers(-1, 2)), 0), TOP)
            branch_nonce = nonce if draw(st.booleans()) else None
            branch = _branch_value(PARAMS, rec.key, challenge, branch_nonce)
            r1 = xor(branch, counter_bytes(PARAMS, ctr))
        else:
            r1 = hashlib.blake2b(challenge, digest_size=32).digest()
        replies.append((challenge, r1, nonce))
    return records, replies


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_scan_kernel_matches_reference_scan(case):
    records, replies = case
    dbs = [ReaderDatabase([dataclasses.replace(r) for r in records]) for _ in range(2)]
    for n, (challenge, r1, nonce) in enumerate(replies):
        outcomes = []
        for respond, db in zip((reference_respond, cex_reader_respond), dbs):
            ops = OpCounters()
            with counting(ops):
                verdict = respond(PARAMS, db, challenge, r1, nonce, Rng(b"reject-%d" % n))
            states = [dataclasses.astuple(rec) for rec in db.records_ascending()]
            outcomes.append((verdict, ops.hashes, states))
        assert outcomes[0] == outcomes[1]
