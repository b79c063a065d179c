"""Deliberately flawed counter protocol used as the traceability control."""

from rfpop.counterexample import (
    CexParams,
    CexTagState,
    cex_reader_respond,
    cex_setup,
    cex_tag_finish,
    cex_tag_respond,
)
from rfpop.model.database import ReaderDatabase
from rfpop.primitives.bitstring import flip_bit, split, xor
from rfpop.primitives.rng import Rng
from rfpop.system import build_cex_system

PARAMS = CexParams()


def fresh_setup(tag_count=2, seed="cex-test"):
    tags, records = cex_setup(PARAMS, tag_count, Rng(seed))
    return tags, ReaderDatabase(records)


def split_reply(payload):
    return split(payload, PARAMS.out_bits // 8, PARAMS.nonce_bits // 8)


def run_session(state, db, rng, tamper_nonce=False):
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply, scratch = cex_tag_respond(PARAMS, state, challenge, rng)
    r1, nonce = split_reply(reply)
    if tamper_nonce:
        nonce = flip_bit(nonce, 0)
    accepted, tag_id, f = cex_reader_respond(PARAMS, db, challenge, r1, nonce, rng)
    ok = cex_tag_finish(PARAMS, state, scratch, f)
    return accepted, tag_id, ok


def test_honest_session_accepts_and_clears_state():
    tags, db = fresh_setup()
    state = tags[0]
    rng = Rng("honest")
    assert state.st == 0
    accepted, tag_id, ok = run_session(state, db, rng)
    assert accepted and ok
    assert tag_id == state.tag_id
    assert state.st == 0
    assert state.ctr == db.get(tag_id).ctr == 2


def test_interrupted_session_sets_resume_branch():
    tags, db = fresh_setup()
    state = tags[0]
    rng = Rng("interrupt")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    cex_tag_respond(PARAMS, state, challenge, rng)  # reply lost, no finish
    assert state.st == 1
    # No desync recovery: the counters now disagree and sessions fail...
    accepted, _, ok = run_session(state, db, rng)
    assert not accepted and not ok
    assert state.st == 1


def test_tampered_nonce_accepted_exactly_when_state_clean():
    # The clean branch ignores r2, so a tampered nonce still authenticates;
    # the resume branch binds r2 and rejects the same tampering.
    tags, db = fresh_setup()
    state = tags[0]
    rng = Rng("tamper")
    assert state.st == 0
    accepted, _, ok = run_session(state, db, rng, tamper_nonce=True)
    assert accepted  # flaw: reader accepted a modified session
    assert not ok  # tag's finish check fails (nonce mismatch), st stays 1
    assert state.st == 1
    # Re-align counters manually, then tamper on the resume branch.
    db.get(state.tag_id).ctr = state.ctr
    accepted, _, ok = run_session(state, db, rng, tamper_nonce=True)
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
    _, scratch = cex_tag_respond(PARAMS, state, challenge, rng)
    assert not cex_tag_finish(PARAMS, state, scratch, rng.take_bits(PARAMS.out_bits))
    assert state.st == 1


def test_same_challenge_twice_leaks_counter_pattern():
    # Two clean-state replies to one challenge XOR to ctr ^ (ctr + 1), a run of
    # trailing one bits. That pattern is what the tracing distinguisher keys on.
    state = CexTagState(
        tag_id=bytes(32), key=Rng("leak-key").take_bits(256), ctr=6
    )
    rng = Rng("leak")
    challenge = rng.take_bits(PARAMS.challenge_bits)
    reply1, _ = cex_tag_respond(PARAMS, state, challenge, rng)
    state.st = 0  # as after a cleanly finished session
    reply2, _ = cex_tag_respond(PARAMS, state, challenge, rng)
    r1_first, _ = split_reply(reply1)
    r1_second, _ = split_reply(reply2)
    delta = int.from_bytes(xor(r1_first, r1_second), "big")
    assert delta == 6 ^ 7
    assert delta != 0 and delta & (delta + 1) == 0


def test_full_protocol_round_trip():
    system = build_cex_system(Rng("cex-system"), tag_count=3)
    tag_id = system.first_tag_id()
    for _ in range(2):
        trs = system.run_honest(tag_id)
        assert trs.o_reader == 1 and trs.o_tag == 1
        assert len(trs.messages) == 3
    assert system.reader.history.session(2).tag_id == tag_id
