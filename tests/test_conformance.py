"""The b=0 world of unp-sharp answers guess-stage queries as the real system does.

The b=0 world is sound only if every oracle answer reads the same in both
worlds: whether it returns a message, each o_T and o_R, whether it was
ignored, and its note. This test drives a real `OracleHub` and one in the
b=0 world through the same schedule and compares the two patterns, for `ma`
and `mapop` (`cex` differs on purpose; see criterion 7).

Each schedule ferries one session and changes it at one position
(1 = the round-0 challenge):

- faithful: nothing changes;
- flip: one bit of the message is flipped;
- length: the message is cut or zero-padded to a length from 0 to the longest
  slot plus 1;
- replay: the message of the same round from a session finished in the
  learning stage takes its place (round 1 or later);
- cross-sid: the message is delivered under another sid;
- echo: the message is first delivered back to the party that sent it, out
  of turn: the tag ignores it, the reader rejects;
- restart: the session's round-0 challenge is first delivered to the tag
  again, which voids its open session and answers afresh;
- abandon: a second `o1` first opens a new reader session, which times out
  the one being ferried;
- clock: `advance_time` first times out the reader's open session;
- no-session: before the first `o1`, the learning-stage session's message of
  that position is sent to the reader, which has no open session.

A changed delivery that returns no message is followed by the faithful one.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfpop.app.config import Config
from rfpop.harness.adversaries import relay_session
from rfpop.harness.blinded import blinded_world
from rfpop.harness.oracles import OracleHub
from rfpop.model.types import Msg
from rfpop.primitives.bitstring import flip_bit
from rfpop.primitives.rng import Rng

ROUNDS = {"ma": 3, "mapop": 4}
KINDS = (
    "faithful", "flip", "length", "replay", "cross-sid",
    "echo", "restart", "abandon", "clock", "no-session",
)


def guess_stage(mode: str, blinded: bool):
    """A fresh system after one faithful learning-stage session, in the guess
    stage of the real (b=1) or the blinded (b=0) world."""
    rng = Rng(f"conformance-{mode}")
    system = Config(mode=mode, tags=2).build_system(rng)
    hub = OracleHub(system)
    learned = relay_session(hub, system.first_tag_id())
    assert learned.completed
    hub.enter_guess_stage(blinded_world(system, rng.spawn("blinded")) if blinded else None)
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
    """Run one schedule; (message returned?, output, ignored, note) for
    every oracle answer, and None for a clock tick that times nothing out."""
    tag_id = hub.system.first_tag_id()
    pattern = []

    def shown(res):
        if res is None:
            pattern.append(None)
        else:
            pattern.append((res.msg is not None, res.output, res.ignored, res.note))
        return res

    if kind == "no-session":
        shown(hub.o3_send_reader(learned.sid, learned.messages[at - 1]))
    start = hub.o1_init_reader()
    sid, msg = start.sid, start.msg

    def send(to_tag: bool, m: Msg, to_sid: bytes = sid):
        if to_tag:
            return shown(hub.o2_send_tag(tag_id, to_sid, m))
        return shown(hub.o3_send_reader(to_sid, m))

    for position in range(1, 2 * len(learned.messages)):
        to_tag = position % 2 == 1
        res = None
        if position == at:
            if kind == "echo":
                send(not to_tag, msg)
            elif kind == "restart":
                send(True, start.msg)
            elif kind == "abandon":
                shown(hub.o1_init_reader())
            elif kind == "clock":
                shown(hub.advance_time())
            elif kind == "cross-sid":
                res = send(to_tag, msg, flip_bit(sid, arg % (8 * len(sid))))
            elif kind in ("flip", "length", "replay"):
                res = send(to_tag, changed(kind, msg, arg, learned))
        if res is None or res.msg is None:
            res = send(to_tag, msg)
        if res.msg is None:
            return pattern
        msg = res.msg
    raise AssertionError(f"the session did not end: {pattern}")


def positions(kind: str, rounds: int) -> range:
    return range(2 if kind == "replay" else 1, rounds + 1)


@st.composite
def schedules(draw):
    mode = draw(st.sampled_from(sorted(ROUNDS)))
    kind = draw(st.sampled_from(KINDS))
    rounds = ROUNDS[mode]
    at = draw(st.sampled_from(positions(kind, rounds)))
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


@pytest.mark.parametrize(
    "mode,kind,at",
    [
        (mode, kind, at)
        for mode, rounds in sorted(ROUNDS.items())
        for kind in KINDS[1:]
        for at in positions(kind, rounds)
    ],
)
def test_every_change_at_every_position_reads_the_same(mode, kind, at):
    real = play(*guess_stage(mode, blinded=False), kind, at, 0)
    simulated = play(*guess_stage(mode, blinded=True), kind, at, 0)
    assert real == simulated


def test_faithful_schedule_completes_in_both_worlds():
    for mode, rounds in ROUNDS.items():
        for blinded in (False, True):
            pattern = play(*guess_stage(mode, blinded), "faithful", 0, 0)
            assert len(pattern) == rounds
            assert pattern[-1][1] == 1
