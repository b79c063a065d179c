"""Guess-stage worlds for the privacy experiments.

A SessionWorld is a reader and its tags as the first three oracles drive
them. The real system is one; the b=0 world of unp-sharp is another, built by
`blinded_world` from the same `Reader` and `Tag` session machines running the
`_Ledger` plug-in instead of the protocol. Both worlds therefore handle sids,
rounds, restarts, abandoned sessions and timeouts with the same code. The
ledger sends fresh uniform draws only, and a party accepts a delivery iff its
partner sent the conversation that the delivery extends: the matching
conversations of Bellare and Rogaway ("Entity Authentication and Key
Distribution", CRYPTO 1993). The b=0 tags hold their tag id and nothing else,
so no key material is reachable from that world.

PureRandomWorld implements the predecessor notion's guess stage: uniform
draws from the reply spaces with no bookkeeping and no execution results at
all.

Draws come from a dedicated RNG stream so that real and blinded guess stages
consume the system's own randomness identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from rfpop.model.database import ReaderDatabase
from rfpop.model.session import Action, Reader, Tag
from rfpop.model.types import IGNORE, Msg, SID_BITS, StepOutcome
from rfpop.primitives.rng import Rng
from rfpop.system import System


class SessionWorld:
    """A reader and its tags behind the first three oracles. `o1` times out
    an open reader session before it starts the next one; `o3` raises
    NoOpenSession when the reader has none; `end_stage` times out every open
    session."""

    def __init__(self, reader: Reader, tags: dict[bytes, Tag], rng: Rng):
        self.reader = reader
        self.tags = tags
        self.rng = rng

    def o1(self) -> tuple[bytes, Msg]:
        if self.reader.session is not None:
            # An abandoned session times out when the reader is re-invoked.
            self.reader.timeout()
        return self.reader.start(self.rng)

    def o2(self, tag_id: bytes, sid: bytes, msg: Msg) -> StepOutcome:
        return self.tags[tag_id].step(sid, msg, self.rng)

    def o3(self, sid: bytes, msg: Msg) -> StepOutcome:
        return self.reader.step(sid, msg, self.rng)

    def timeout(self) -> Optional[StepOutcome]:
        if self.reader.session is None:
            return None
        return self.reader.timeout()

    def end_stage(self):
        """Time out the reader's and every tag's open session, as the game
        does when the learning stage ends."""
        self.timeout()
        for tag in self.tags.values():
            if tag.session is not None:
                tag.timeout()


class _Ledger:
    """Protocol plug-in of the b=0 world. Every message it sends is a fresh
    draw from its slot, and `sent` holds each conversation that a sent
    message ends. A delivery extends the receiving party's conversation; the
    party accepts iff its partner sent the extended conversation, and
    outputs 1 once no slot is left for it to receive.

    A conversation is the tuple of its payloads: the session machines only
    pass on a message of the round that comes next, so its round is its
    position. The reader's conversation is its open session's `messages`,
    which already holds payloads by round. A tag's is its scratch, the
    challenge and its reply: the round-2 delivery that extends it is the
    last the tag receives, so nothing extends the scratch itself."""

    def __init__(self, slots: tuple[int, ...]):
        self._slots = slots
        self.sent: set[tuple[bytes, ...]] = set()

    def slots(self) -> tuple[int, ...]:
        return self._slots

    def _send(self, heard: tuple[bytes, ...], rng: Rng) -> bytes:
        payload = rng.take_bytes(self._slots[len(heard)])
        self.sent.add(heard + (payload,))
        return payload

    def _answer(self, heard: tuple[bytes, ...], rng: Rng) -> Action:
        if heard not in self.sent:
            return Action(output=0)
        last = len(self._slots) - 1
        round = len(heard) - 1
        reply = self._send(heard, rng) if round < last else None
        return Action(reply, 1 if round + 1 >= last else None)

    def reader_open(self, rng: Rng) -> bytes:
        return self._send((), rng)

    def reader_on_message(self, db, session, msg: Msg, rng: Rng) -> Action:
        return self._answer((*session.messages, msg.payload), rng)

    def tag_respond(self, state, challenge: bytes, rng: Rng):
        reply = self._send((challenge,), rng)
        return reply, (challenge, reply), state

    def tag_on_message(self, state, scratch: tuple[bytes, bytes], msg: Msg, rng: Rng):
        return self._answer((*scratch, msg.payload), rng), state

    def tag_terminal(self, state):
        return state


@dataclass(frozen=True)
class _StandIn:
    """A b=0 tag's state: its id, and no key material."""

    tag_id: bytes


def blinded_world(system: System, draw_rng: Rng) -> SessionWorld:
    """The b=0 world of unp-sharp: a reader with an empty database and a tag
    per real tag, with its lifetime and key version, all on one ledger."""
    ledger = _Ledger(system.protocol.slots())
    tags = {}
    for tag_id, real in system.tags.items():
        tags[tag_id] = Tag(ledger, _StandIn(tag_id), real.lifetime, real.key_version)
    return SessionWorld(Reader(ledger, ReaderDatabase([])), tags, draw_rng)


class PureRandomWorld:
    """Guess-stage world for the predecessor privacy notion: every in-space
    query is answered with a fresh uniform draw from the responding party's
    next message space; nothing is recorded and no outputs are returned."""

    def __init__(self, system: System, draw_rng: Rng):
        self.slots = system.protocol.slots()
        self.draw = draw_rng

    def _valid(self, msg: Msg) -> bool:
        return msg.round < len(self.slots) and len(msg.payload) == self.slots[msg.round]

    def _draw_msg(self, round: int) -> Msg:
        return Msg(round, self.draw.take_bytes(self.slots[round]))

    def _answer(self, sid, msg: Msg, parity: int) -> StepOutcome:
        """Answer with the next round if the answering party sends it: the
        reader sends the even rounds (`parity` 0), the tag the odd ones (1)."""
        nxt = msg.round + 1
        if self._valid(msg) and nxt < len(self.slots) and nxt % 2 == parity:
            return StepOutcome(sid, self._draw_msg(nxt))
        return IGNORE

    def o1(self) -> tuple[bytes, Msg]:
        return self.draw.take_bits(SID_BITS), self._draw_msg(0)

    def o2(self, tag_id: bytes, sid: bytes, msg: Msg) -> StepOutcome:
        return self._answer(sid, msg, 1)

    def o3(self, sid: bytes, msg: Msg) -> StepOutcome:
        return self._answer(sid, msg, 0)

    def timeout(self) -> None:
        return None
