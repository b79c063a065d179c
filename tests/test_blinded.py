"""Guess-stage worlds: the b=0 session machines on the ledger, and pure-random
answers."""

import pytest

from rfpop.errors import NoOpenSession
from rfpop.harness.blinded import PureRandomWorld, blinded_world
from rfpop.model.types import Msg
from rfpop.primitives.bitstring import flip_bit
from rfpop.primitives.rng import Rng
from rfpop.system import build_cex_system, build_ma_system, build_pop_system

MA = build_ma_system(Rng("bw-ma"))
POP = build_pop_system(Rng("bw-pop"))
CEX = build_cex_system(Rng("bw-cex"))
MA_SLOTS = MA.protocol.slots()


def make_world(system=MA, seed="blinded"):
    """The b=0 world over `system`, and the id of its first tag."""
    return blinded_world(system, Rng(seed)), system.first_tag_id()


def test_reader_session_registration():
    world, _ = make_world()
    sid, challenge = world.o1()
    assert len(sid) == 16
    assert challenge.round == 0
    assert len(challenge.payload) == MA_SLOTS[0].byte_len
    assert world.reader.session.sid == sid
    assert world.reader.session.messages == [challenge]


def test_faithful_relay_three_rounds():
    world, tag = make_world()
    sid, challenge = world.o1()
    t1 = world.o2(tag, sid, challenge)
    assert t1.kind == "reply" and t1.msg.round == 1
    r1 = world.o3(sid, t1.msg)
    assert r1.kind == "reply_output" and r1.output == 1
    assert r1.msg.round == 2
    t2 = world.o2(tag, sid, r1.msg)
    assert t2.kind == "output" and t2.output == 1
    assert world.reader.history.session(1).o_reader == 1
    assert world.tags[tag].key_version == 1


def test_faithful_relay_four_rounds():
    world, tag = make_world(POP)
    sid, challenge = world.o1()
    t1 = world.o2(tag, sid, challenge)
    r1 = world.o3(sid, t1.msg)
    assert r1.kind == "reply" and r1.output is None  # reader output deferred
    t2 = world.o2(tag, sid, r1.msg)
    assert t2.kind == "reply_output" and t2.output == 1
    assert t2.msg.round == 3
    r2 = world.o3(sid, t2.msg)
    assert r2.kind == "output" and r2.output == 1


def test_modified_challenge_poisons_reader_side():
    world, tag = make_world()
    sid, challenge = world.o1()
    other = Msg(0, flip_bit(challenge.payload, 3))
    t1 = world.o2(tag, sid, other)
    assert t1.kind == "reply"  # the tag still answers a fresh challenge
    r1 = world.o3(sid, t1.msg)
    assert r1.kind == "output" and r1.output == 0
    # The reader has closed its session, so a second delivery finds none.
    with pytest.raises(NoOpenSession):
        world.o3(sid, t1.msg)


def test_modified_tag_reply_rejected_by_reader():
    world, tag = make_world()
    sid, challenge = world.o1()
    t1 = world.o2(tag, sid, challenge)
    r1 = world.o3(sid, Msg(1, flip_bit(t1.msg.payload, 0)))
    assert r1.kind == "output" and r1.output == 0
    # Session closed on the reader side; further deliveries find none.
    with pytest.raises(NoOpenSession):
        world.o3(sid, t1.msg)


def test_modified_confirmation_fails_tag():
    world, tag = make_world()
    sid, challenge = world.o1()
    t1 = world.o2(tag, sid, challenge)
    r1 = world.o3(sid, t1.msg)
    t2 = world.o2(tag, sid, Msg(2, flip_bit(r1.msg.payload, 5)))
    assert t2.kind == "output" and t2.output == 0
    assert world.o2(tag, sid, r1.msg).kind == "ignore"  # tag side done


def test_out_of_turn_delivery_to_the_reader_rejects():
    world, tag = make_world()
    sid, challenge = world.o1()
    # Reader just sent; a delivery to it is out of turn, and the real reader
    # rejects any message that is not of the round it awaits.
    out = world.o3(sid, challenge)
    assert out.kind == "output" and out.output == 0
    assert world.reader.history.session(1).o_reader == 0
    # The tag side carries on; the reader side is closed.
    t1 = world.o2(tag, sid, challenge)
    assert t1.kind == "reply"
    with pytest.raises(NoOpenSession):
        world.o3(sid, t1.msg)


def test_out_of_turn_delivery_to_the_reader_awaiting_round_3_rejects():
    world, tag = make_world(POP)
    sid, challenge = world.o1()
    t1 = world.o2(tag, sid, challenge)
    r1 = world.o3(sid, t1.msg)
    out = world.o3(sid, r1.msg)
    assert out.kind == "output" and out.output == 0


def test_out_of_turn_deliveries_ignored():
    """Only the tag ignores a delivery out of its turn; the reader rejects
    one (see the two tests above)."""
    world, tag = make_world()
    sid, challenge = world.o1()
    t1 = world.o2(tag, sid, challenge)
    # Tag just sent; delivering its own reply back to it is out of turn.
    assert world.o2(tag, sid, t1.msg).kind == "ignore"


def test_adversarial_tag_only_session():
    world, tag = make_world()
    sid = Rng("adv-sid").take_bits(128)
    challenge = Msg(0, Rng("adv-chal").take_bytes(MA_SLOTS[0].byte_len))
    t1 = world.o2(tag, sid, challenge)
    assert t1.kind == "reply" and t1.msg.round == 1
    # The reader never opened a session.
    with pytest.raises(NoOpenSession):
        world.o3(sid, t1.msg)
    # No reader sent a confirmation for this conversation: the tag fails.
    follow = world.o2(tag, sid, Msg(2, Rng("m3").take_bits(256)))
    assert follow.kind == "output" and follow.output == 0
    # A challenge starts a new session, which the tag answers.
    assert world.o2(tag, sid, challenge).kind == "reply"


def test_unknown_sid_out_of_space_ignored():
    world, tag = make_world()
    world.o1()
    sid = bytes(16)
    assert world.o2(tag, sid, Msg(0, bytes(1))).kind == "ignore"
    assert world.o2(tag, sid, Msg(2, bytes(32))).kind == "ignore"
    assert world.o3(sid, Msg(1, bytes(96))).kind == "ignore"


def test_draws_are_deterministic_per_seed():
    runs = []
    for _ in range(2):
        world, tag = make_world(seed="det")
        sid, challenge = world.o1()
        t1 = world.o2(tag, sid, challenge)
        runs.append((sid, challenge.payload, t1.msg.payload))
    assert runs[0] == runs[1]


def test_cex_slots_follow_same_ledger_rules():
    world, tag = make_world(CEX)
    sid, challenge = world.o1()
    t1 = world.o2(tag, sid, challenge)
    r1 = world.o3(sid, t1.msg)
    assert r1.kind == "reply_output" and r1.output == 1
    assert world.o2(tag, sid, r1.msg).output == 1


def test_pure_random_world_answers_in_space_queries():
    world = PureRandomWorld(MA, Rng("pure"))
    tag = MA.first_tag_id()
    sid, challenge = world.o1()
    assert challenge.round == 0
    t1 = world.o2(tag, sid, challenge)
    assert t1.kind == "reply" and t1.msg.round == 1
    # No bookkeeping: the same query answers again with a fresh draw.
    t2 = world.o2(tag, sid, challenge)
    assert t2.kind == "reply" and t2.msg.payload != t1.msg.payload
    r1 = world.o3(sid, t1.msg)
    assert r1.kind == "reply" and r1.msg.round == 2
    assert r1.output is None
    assert world.timeout() is None


def test_pure_random_world_ignores_mismatched_queries():
    world = PureRandomWorld(MA, Rng("pure-ignore"))
    tag = MA.first_tag_id()
    sid = bytes(16)
    # Next slot belongs to the other party, the round is terminal, or the
    # message is out of space: all ignored.
    assert world.o2(tag, sid, Msg(1, bytes(96))).kind == "ignore"
    assert world.o3(sid, Msg(0, bytes(32))).kind == "ignore"
    assert world.o2(tag, sid, Msg(2, bytes(32))).kind == "ignore"
    assert world.o2(tag, sid, Msg(0, bytes(1))).kind == "ignore"
    assert world.o3(sid, Msg(5, bytes(32))).kind == "ignore"


def test_pure_random_world_never_reports_outputs():
    world = PureRandomWorld(POP, Rng("pure-pop"))
    tag = POP.first_tag_id()
    sid, challenge = world.o1()
    reply = world.o2(tag, sid, challenge)
    m3 = world.o3(sid, reply.msg)
    m4 = world.o2(tag, sid, m3.msg)
    final = world.o3(sid, m4.msg)
    for outcome in (reply, m3, m4):
        assert outcome.output is None
    # The round-3 reply has no successor slot, so the last delivery is ignored.
    assert final.kind == "ignore"


def test_blinded_tags_hold_their_id_lifetime_and_key_version_only():
    system = build_pop_system(Rng("bw-stand-in"), lifetime=3)
    tag = system.first_tag_id()
    system.run_honest(tag)
    world, _ = make_world(system)
    for tag_id, real in system.tags.items():
        twin = world.tags[tag_id]
        assert vars(twin.state) == {"tag_id": tag_id}
        assert (twin.lifetime, twin.key_version) == (real.lifetime, real.key_version)
    assert world.tags[tag].key_version == 1
    assert len(world.reader.db) == 0
