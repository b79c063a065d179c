"""The ledger simulator answers guess-stage deliveries as the real system does.

`BlindedWorld`, the b=0 world of unp-sharp, is sound only if every delivery
reads the same in both worlds: whether it returns a message, and each o_T and
o_R. This test drives a real `OracleHub` and one routed to a `BlindedWorld`
through the same schedule and compares the two patterns, for `ma` and `mapop`
(`cex` differs on purpose; see criterion 7).

Each schedule ferries one session and changes the delivery at one position
(1 = the round-0 challenge):

- faithful: nothing changes;
- flip: one bit of the message is flipped;
- length: the message is cut or zero-padded to a length from 0 to the longest
  slot plus 1;
- replay: the message of the same round from a session finished in the
  learning stage takes its place (round 1 or later);
- echo: the message is first delivered back to the party that sent it, out
  of turn: the tag ignores it, the reader rejects.

A changed delivery that returns no message is followed by the faithful one.

In the guess stage the schedules open one reader session, send every message
under its sid, and start at most one session per tag. Two known divergences
lie outside them, and `CHANGES.md` records each as a FOUND line: a round-0
challenge delivered to a tag whose session is open (a restart), and a message
relayed under another sid than its session's.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfpop.app.config import Config
from rfpop.harness.adversaries import relay_session
from rfpop.harness.blinded import BlindedWorld
from rfpop.harness.oracles import OracleHub
from rfpop.model.types import Msg
from rfpop.primitives.bitstring import flip_bit
from rfpop.primitives.rng import Rng

ROUNDS = {"ma": 3, "mapop": 4}
KINDS = ("faithful", "flip", "length", "replay", "echo")


def guess_stage(mode: str, blinded: bool):
    """A fresh system after one faithful learning-stage session, in the guess
    stage of the real (b=1) or the blinded (b=0) world."""
    rng = Rng(f"conformance-{mode}")
    system = Config(mode=mode, tags=2).build_system(rng)
    hub = OracleHub(system)
    learned = relay_session(hub, system.first_tag_id())
    assert learned.completed
    world = BlindedWorld(system.protocol.slots(), rng.spawn("blinded")) if blinded else None
    hub.enter_guess_stage(world)
    return hub, learned


def changed(kind: str, msg: Msg, arg: int, learned) -> Msg:
    if kind == "flip":
        return Msg(msg.round, flip_bit(msg.payload, arg % (8 * len(msg.payload))))
    if kind == "length":
        longest = max(len(m.payload) for m in learned.messages)
        size = arg % (longest + 2)
        return Msg(msg.round, msg.payload[:size].ljust(size, b"\0"))
    return learned.messages[msg.round]  # replay


def play(hub: OracleHub, learned, kind: str, at: int, arg: int) -> list:
    """Run one schedule; (message returned?, output) for every delivery."""
    tag_id = hub.system.first_tag_id()
    start = hub.o1_init_reader()
    sid, msg = start.sid, start.msg
    pattern = []

    def send(to_tag: bool, m: Msg):
        res = hub.o2_send_tag(tag_id, sid, m) if to_tag else hub.o3_send_reader(sid, m)
        pattern.append((res.msg is not None, res.output))
        return res

    for position in range(1, 2 * len(learned.messages)):
        to_tag = position % 2 == 1
        res = None
        if position == at and kind == "echo":
            send(not to_tag, msg)
        elif position == at and kind != "faithful":
            res = send(to_tag, changed(kind, msg, arg, learned))
        if res is None or res.msg is None:
            res = send(to_tag, msg)
        if res.msg is None:
            return pattern
        msg = res.msg
    raise AssertionError(f"the session did not end: {pattern}")


@st.composite
def schedules(draw):
    mode = draw(st.sampled_from(sorted(ROUNDS)))
    kind = draw(st.sampled_from(KINDS))
    rounds = ROUNDS[mode]
    at = draw(st.integers(2 if kind == "replay" else 1, rounds))
    return mode, kind, at, draw(st.integers(0, 1 << 12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(schedules())
@example(("mapop", "length", 3, 32))  # the finalize cut to an MA confirmation
@example(("ma", "length", 3, 1))  # a 1-byte round-2 message
@example(("ma", "length", 1, 31))  # a challenge one byte short
@example(("mapop", "echo", 2, 0))  # the tag's reply handed back to it
@example(("mapop", "echo", 1, 0))  # the challenge handed back to the reader
@example(("mapop", "echo", 3, 0))  # the finalize handed back to the reader
@example(("mapop", "replay", 3, 0))  # a finalize from the finished session
def test_real_and_blinded_worlds_read_the_same(schedule):
    mode, kind, at, arg = schedule
    real = play(*guess_stage(mode, blinded=False), kind, at, arg)
    simulated = play(*guess_stage(mode, blinded=True), kind, at, arg)
    assert real == simulated


def test_faithful_schedule_completes_in_both_worlds():
    for mode, rounds in ROUNDS.items():
        for blinded in (False, True):
            pattern = play(*guess_stage(mode, blinded), "faithful", 0, 0)
            assert len(pattern) == rounds
            assert pattern[-1][1] == 1
