"""Blinded (b=0) worlds for the privacy experiments.

BlindedWorld implements the bookkeeping tree of the current privacy notion:
per-sid ledgers record what the adversary has relayed so far, faithful relays
extend a session with fresh uniform draws, and tampered deliveries produce
the outputs a real execution would produce (without ever touching real key
material). PureRandomWorld implements the predecessor notion's guess stage:
uniform draws from the reply spaces with no bookkeeping and no execution
results at all.

Draws come from a dedicated RNG stream so that real and blinded guess stages
consume the system's own randomness identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from rfpop.model.types import IGNORE, MessageSlot, Msg, Output, Reply, ReplyWithOutput, SID_BITS, StepOutcome
from rfpop.primitives.rng import Rng


@dataclass
class _Ledger:
    kind: str  # "reader" for reader-opened sessions, "adv" for tag-only ones
    msgs: list[Msg] = field(default_factory=list)
    o_reader: Optional[int] = None
    o_tag: Optional[int] = None
    preset_reject: bool = False  # modified first-round challenge was answered
    tag_done: bool = False
    reader_done: bool = False


def _sender(round: int) -> str:
    return "reader" if round % 2 == 0 else "tag"


class BlindedWorld:
    """Ledger-driven simulator for the guess stage with b=0."""

    def __init__(self, slots: tuple[MessageSlot, ...], draw_rng: Rng):
        self.slots = slots
        self.draw = draw_rng
        self.ledgers: dict[bytes, _Ledger] = {}
        # Which party sends last decides where the terminal outputs attach.
        self.tag_final = slots[-1].sender == "tag"
        self.final_reader_round = max(
            i for i, s in enumerate(slots) if s.sender == "reader"
        )

    def _draw_msg(self, round: int) -> Msg:
        return Msg(round, self.draw.take_bytes(self.slots[round].byte_lengths[0]))

    def _in_challenge_space(self, msg: Msg) -> bool:
        return msg.round == 0 and self.slots[0].allows(msg.payload)

    def o1_init_reader(self):
        sid = self.draw.take_bits(SID_BITS)
        challenge = self._draw_msg(0)
        # First registration wins on (negligible) sid collisions.
        self.ledgers.setdefault(sid, _Ledger("reader", [challenge]))
        return sid, challenge

    def o2_send_tag(self, sid, msg: Msg) -> StepOutcome:
        led = self.ledgers.get(sid)
        if led is None:
            if self._in_challenge_space(msg):
                adv = _Ledger("adv", [msg])
                reply = self._draw_msg(1)
                adv.msgs.append(reply)
                self.ledgers[sid] = adv
                return Reply(sid, reply)
            return IGNORE
        if led.kind == "adv":
            if led.tag_done:
                return IGNORE
            # Second message on an adversarial session always fails the tag.
            led.o_tag = 0
            led.tag_done = True
            return Output(sid, 0)
        if led.tag_done:
            return IGNORE
        last = led.msgs[-1]
        if _sender(last.round) != "reader":
            return IGNORE  # out of turn for the tag oracle
        if msg == last:
            if last.round == self.final_reader_round and not self.tag_final:
                led.o_tag = 1
                led.tag_done = True
                return Output(sid, 1)
            reply = self._draw_msg(last.round + 1)
            led.msgs.append(reply)
            if self.tag_final and last.round + 1 == len(self.slots) - 1:
                led.o_tag = 1
                led.tag_done = True
                return ReplyWithOutput(sid, reply, 1)
            return Reply(sid, reply)
        if last.round == 0 and self._in_challenge_space(msg):
            # Modified session-start challenge: the tag-side answer is drawn,
            # and the reader side is poisoned to reject.
            reply = self._draw_msg(1)
            led.msgs.append(reply)
            led.preset_reject = True
            return Reply(sid, reply)
        led.o_tag = 0
        led.tag_done = True
        return Output(sid, 0)

    def o3_send_reader(self, sid, msg: Msg) -> StepOutcome:
        led = self.ledgers.get(sid)
        if led is None or led.kind == "adv":
            return IGNORE
        if led.preset_reject:
            # Poisoned session: the pre-set rejection, idempotently.
            led.o_reader = 0
            led.reader_done = True
            return Output(sid, 0)
        if led.reader_done:
            return IGNORE
        last = led.msgs[-1]
        if _sender(last.round) != "tag":
            return IGNORE  # out of turn for the reader oracle
        if msg == last:
            if self.tag_final and last.round == len(self.slots) - 1:
                led.o_reader = 1
                led.reader_done = True
                return Output(sid, 1)
            nxt = self._draw_msg(last.round + 1)
            led.msgs.append(nxt)
            if not self.tag_final and nxt.round == self.final_reader_round:
                led.o_reader = 1
                led.reader_done = True
                return ReplyWithOutput(sid, nxt, 1)
            return Reply(sid, nxt)
        led.o_reader = 0
        led.reader_done = True
        return Output(sid, 0)


class PureRandomWorld:
    """Guess-stage world for the predecessor privacy notion: every in-space
    query is answered with a fresh uniform draw from the responding party's
    next message space; nothing is recorded and no outputs are returned."""

    def __init__(self, slots: tuple[MessageSlot, ...], draw_rng: Rng):
        self.slots = slots
        self.draw = draw_rng

    def _valid(self, msg: Msg) -> bool:
        return msg.round < len(self.slots) and self.slots[msg.round].allows(msg.payload)

    def _draw_msg(self, round: int) -> Msg:
        return Msg(round, self.draw.take_bytes(self.slots[round].byte_lengths[0]))

    def o1_init_reader(self):
        return self.draw.take_bits(SID_BITS), self._draw_msg(0)

    def o2_send_tag(self, sid, msg: Msg) -> StepOutcome:
        nxt = msg.round + 1
        if self._valid(msg) and nxt < len(self.slots) and self.slots[nxt].sender == "tag":
            return Reply(sid, self._draw_msg(nxt))
        return IGNORE

    def o3_send_reader(self, sid, msg: Msg) -> StepOutcome:
        nxt = msg.round + 1
        if self._valid(msg) and nxt < len(self.slots) and self.slots[nxt].sender == "reader":
            return Reply(sid, self._draw_msg(nxt))
        return IGNORE
