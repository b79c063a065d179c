"""Message and outcome types for the session model.

Messages carry an explicit round marker. The default parameter sizes make a
session-start challenge and a final confirmation the same bit length, so
"does this message open a session?" cannot be decided from length alone; the
marker is structural framing (the wire format encodes it as the frame type),
not secret data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from rfpop.primitives.bitstring import BitString

SID_BITS = 128


@dataclass(frozen=True)
class Msg:
    """One protocol message: round index (0 = session-start challenge) plus
    payload bits."""

    round: int
    bits: BitString

    def __post_init__(self):
        if self.round < 0:
            raise ValueError("round index must be non-negative")


@dataclass(frozen=True)
class MessageSlot:
    """Shape of one round: who sends it and which payload bit lengths are
    legal. Most rounds admit one length; a dual-mode round lists several."""

    sender: str  # "reader" or "tag"
    bit_lengths: tuple[int, ...]

    def allows(self, nbits: int) -> bool:
        return nbits in self.bit_lengths


@dataclass
class Transcript:
    """Messages exchanged in one session, with the two terminal outputs."""

    sid: BitString
    messages: list[Msg] = field(default_factory=list)
    o_reader: Optional[int] = None
    o_tag: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.o_reader == 1 and self.o_tag == 1

    def message_bits(self, round: int) -> BitString:
        for m in self.messages:
            if m.round == round:
                return m.bits
        raise KeyError(f"no round-{round} message in transcript")


@dataclass(frozen=True)
class StepOutcome:
    """Result of delivering one message to a party.

    kind is one of:
      reply         - a message to forward, session continues
      reply_output  - a message plus the party's terminal output bit
      output        - terminal output bit only
      ignore        - the message was dropped without state change
    """

    kind: str
    sid: Optional[BitString] = None
    msg: Optional[Msg] = None
    output: Optional[int] = None

    @property
    def is_terminal(self) -> bool:
        return self.output is not None


def Reply(sid: BitString, msg: Msg) -> StepOutcome:
    return StepOutcome("reply", sid=sid, msg=msg)


def ReplyWithOutput(sid: BitString, msg: Msg, output: int) -> StepOutcome:
    return StepOutcome("reply_output", sid=sid, msg=msg, output=output)


def Output(sid: Optional[BitString], output: int) -> StepOutcome:
    return StepOutcome("output", sid=sid, output=output)


IGNORE = StepOutcome("ignore")
