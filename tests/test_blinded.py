"""Blinded guess-stage worlds: ledger bookkeeping and pure-random answers."""

from rfpop.counterexample import CexParams, CexProtocol
from rfpop.harness.blinded import BlindedWorld, PureRandomWorld
from rfpop.ma import MaParams, MaProtocol
from rfpop.model.types import Msg
from rfpop.pop import PopParams, PopProtocol
from rfpop.primitives.bitstring import flip_bit
from rfpop.primitives.rng import Rng
from rfpop.primitives.sig import fulltime_keygen

MA_SLOTS = MaProtocol(MaParams()).slots()
POP_SLOTS = PopProtocol(PopParams(), fulltime_keygen(Rng("bw-signer"))[0]).slots()
CEX_SLOTS = CexProtocol(CexParams()).slots()


def make_world(slots=MA_SLOTS, seed="blinded"):
    return BlindedWorld(slots, Rng(seed))


def test_reader_session_registration():
    world = make_world()
    sid, challenge = world.o1_init_reader()
    assert len(sid) == 16
    assert challenge.round == 0
    assert len(challenge.payload) == MA_SLOTS[0].byte_len
    led = world.ledgers[sid]
    assert led.kind == "reader" and led.msgs == [challenge]


def test_faithful_relay_three_rounds():
    world = make_world()
    sid, challenge = world.o1_init_reader()
    t1 = world.o2_send_tag(sid, challenge)
    assert t1.kind == "reply" and t1.msg.round == 1
    r1 = world.o3_send_reader(sid, t1.msg)
    assert r1.kind == "reply_output" and r1.output == 1
    assert r1.msg.round == 2
    t2 = world.o2_send_tag(sid, r1.msg)
    assert t2.kind == "output" and t2.output == 1
    led = world.ledgers[sid]
    assert led.o_reader == 1 and led.o_tag == 1


def test_faithful_relay_four_rounds():
    world = make_world(slots=POP_SLOTS)
    sid, challenge = world.o1_init_reader()
    t1 = world.o2_send_tag(sid, challenge)
    r1 = world.o3_send_reader(sid, t1.msg)
    assert r1.kind == "reply" and r1.output is None  # reader output deferred
    t2 = world.o2_send_tag(sid, r1.msg)
    assert t2.kind == "reply_output" and t2.output == 1
    assert t2.msg.round == 3
    r2 = world.o3_send_reader(sid, t2.msg)
    assert r2.kind == "output" and r2.output == 1


def test_modified_challenge_poisons_reader_side():
    world = make_world()
    sid, challenge = world.o1_init_reader()
    other = Msg(0, flip_bit(challenge.payload, 3))
    t1 = world.o2_send_tag(sid, other)
    assert t1.kind == "reply"  # the tag still answers a fresh challenge
    r1 = world.o3_send_reader(sid, t1.msg)
    assert r1.kind == "output" and r1.output == 0
    # Poisoning is idempotent.
    assert world.o3_send_reader(sid, t1.msg).output == 0


def test_modified_tag_reply_rejected_by_reader():
    world = make_world()
    sid, challenge = world.o1_init_reader()
    t1 = world.o2_send_tag(sid, challenge)
    r1 = world.o3_send_reader(sid, Msg(1, flip_bit(t1.msg.payload, 0)))
    assert r1.kind == "output" and r1.output == 0
    # Session closed on the reader side; further deliveries are ignored.
    assert world.o3_send_reader(sid, t1.msg).kind == "ignore"


def test_modified_confirmation_fails_tag():
    world = make_world()
    sid, challenge = world.o1_init_reader()
    t1 = world.o2_send_tag(sid, challenge)
    r1 = world.o3_send_reader(sid, t1.msg)
    t2 = world.o2_send_tag(sid, Msg(2, flip_bit(r1.msg.payload, 5)))
    assert t2.kind == "output" and t2.output == 0
    assert world.o2_send_tag(sid, r1.msg).kind == "ignore"  # tag side done


def test_out_of_turn_delivery_to_the_reader_rejects():
    world = make_world()
    sid, challenge = world.o1_init_reader()
    # Reader just sent; a delivery to it is out of turn, and the real reader
    # rejects any message that is not of the round it awaits.
    out = world.o3_send_reader(sid, challenge)
    assert out.kind == "output" and out.output == 0
    led = world.ledgers[sid]
    assert led.o_reader == 0 and led.reader_done
    # The tag side carries on; the reader side is closed.
    t1 = world.o2_send_tag(sid, challenge)
    assert t1.kind == "reply"
    assert world.o3_send_reader(sid, t1.msg).kind == "ignore"


def test_out_of_turn_delivery_to_the_reader_awaiting_round_3_rejects():
    world = make_world(slots=POP_SLOTS)
    sid, challenge = world.o1_init_reader()
    t1 = world.o2_send_tag(sid, challenge)
    r1 = world.o3_send_reader(sid, t1.msg)
    out = world.o3_send_reader(sid, r1.msg)
    assert out.kind == "output" and out.output == 0


def test_out_of_turn_deliveries_ignored():
    """Only the tag ignores a delivery out of its turn; the reader rejects
    one (see the two tests above)."""
    world = make_world()
    sid, challenge = world.o1_init_reader()
    t1 = world.o2_send_tag(sid, challenge)
    # Tag just sent; delivering its own reply back to it is out of turn.
    assert world.o2_send_tag(sid, t1.msg).kind == "ignore"


def test_adversarial_tag_only_session():
    world = make_world()
    sid = Rng("adv-sid").take_bits(128)
    challenge = Msg(0, Rng("adv-chal").take_bytes(MA_SLOTS[0].byte_len))
    t1 = world.o2_send_tag(sid, challenge)
    assert t1.kind == "reply" and t1.msg.round == 1
    assert world.ledgers[sid].kind == "adv"
    # The reader oracle knows nothing about adversarial sessions.
    assert world.o3_send_reader(sid, t1.msg).kind == "ignore"
    # A second delivery always fails the tag.
    follow = world.o2_send_tag(sid, Msg(2, Rng("m3").take_bits(256)))
    assert follow.kind == "output" and follow.output == 0
    assert world.o2_send_tag(sid, challenge).kind == "ignore"


def test_unknown_sid_out_of_space_ignored():
    world = make_world()
    sid = bytes(16)
    assert world.o2_send_tag(sid, Msg(0, bytes(1))).kind == "ignore"
    assert world.o2_send_tag(sid, Msg(2, bytes(32))).kind == "ignore"
    assert world.o3_send_reader(sid, Msg(1, bytes(96))).kind == "ignore"


def test_draws_are_deterministic_per_seed():
    runs = []
    for _ in range(2):
        world = make_world(seed="det")
        sid, challenge = world.o1_init_reader()
        t1 = world.o2_send_tag(sid, challenge)
        runs.append((sid, challenge.payload, t1.msg.payload))
    assert runs[0] == runs[1]


def test_cex_slots_follow_same_ledger_rules():
    world = make_world(slots=CEX_SLOTS)
    sid, challenge = world.o1_init_reader()
    t1 = world.o2_send_tag(sid, challenge)
    r1 = world.o3_send_reader(sid, t1.msg)
    assert r1.kind == "reply_output" and r1.output == 1
    assert world.o2_send_tag(sid, r1.msg).output == 1


def test_pure_random_world_answers_in_space_queries():
    world = PureRandomWorld(MA_SLOTS, Rng("pure"))
    sid, challenge = world.o1_init_reader()
    assert challenge.round == 0
    t1 = world.o2_send_tag(sid, challenge)
    assert t1.kind == "reply" and t1.msg.round == 1
    # No bookkeeping: the same query answers again with a fresh draw.
    t2 = world.o2_send_tag(sid, challenge)
    assert t2.kind == "reply" and t2.msg.payload != t1.msg.payload
    r1 = world.o3_send_reader(sid, t1.msg)
    assert r1.kind == "reply" and r1.msg.round == 2
    assert r1.output is None


def test_pure_random_world_ignores_mismatched_queries():
    world = PureRandomWorld(MA_SLOTS, Rng("pure-ignore"))
    sid = bytes(16)
    # Next slot belongs to the other party, the round is terminal, or the
    # message is out of space: all ignored.
    assert world.o2_send_tag(sid, Msg(1, bytes(96))).kind == "ignore"
    assert world.o3_send_reader(sid, Msg(0, bytes(32))).kind == "ignore"
    assert world.o2_send_tag(sid, Msg(2, bytes(32))).kind == "ignore"
    assert world.o2_send_tag(sid, Msg(0, bytes(1))).kind == "ignore"
    assert world.o3_send_reader(sid, Msg(5, bytes(32))).kind == "ignore"


def test_pure_random_world_never_reports_outputs():
    world = PureRandomWorld(POP_SLOTS, Rng("pure-pop"))
    sid, challenge = world.o1_init_reader()
    reply = world.o2_send_tag(sid, challenge)
    m3 = world.o3_send_reader(sid, reply.msg)
    m4 = world.o2_send_tag(sid, m3.msg)
    final = world.o3_send_reader(sid, m4.msg)
    for outcome in (reply, m3, m4):
        assert outcome.output is None
    # The round-3 reply has no successor slot, so the last delivery is ignored.
    assert final.kind == "ignore"
