"""Message and outcome types for the session model.

Every protocol value a message carries, and every sid, is `bytes`; the
message slots say which payload lengths (in bytes) each round admits, and the
session machines check a payload against them before a protocol sees it.

Messages carry an explicit round marker. The default parameter sizes make a
session-start challenge and a final confirmation the same length, so "does
this message open a session?" cannot be decided from length alone; the
marker is structural framing (the wire format encodes it as the frame type),
not secret data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

SID_BITS = 128


@dataclass(frozen=True)
class Msg:
    """One protocol message: round index (0 = session-start challenge) plus
    payload bytes."""

    round: int
    payload: bytes

    def __post_init__(self):
        if self.round < 0:
            raise ValueError("round index must be non-negative")


@dataclass(frozen=True)
class MessageSlot:
    """Shape of one round: who sends it and which payload lengths, in bytes,
    are legal. Most rounds admit one length; a dual-mode round lists several."""

    sender: str  # "reader" or "tag"
    byte_lengths: tuple[int, ...]

    def allows(self, payload: bytes) -> bool:
        return len(payload) in self.byte_lengths


@dataclass
class Transcript:
    """Messages exchanged in one session, with the two terminal outputs."""

    sid: bytes
    messages: list[Msg] = field(default_factory=list)
    o_reader: Optional[int] = None
    o_tag: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.o_reader == 1 and self.o_tag == 1


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
    sid: Optional[bytes] = None
    msg: Optional[Msg] = None
    output: Optional[int] = None

    @property
    def is_terminal(self) -> bool:
        return self.output is not None


def Reply(sid: bytes, msg: Msg) -> StepOutcome:
    return StepOutcome("reply", sid=sid, msg=msg)


def ReplyWithOutput(sid: bytes, msg: Msg, output: int) -> StepOutcome:
    return StepOutcome("reply_output", sid=sid, msg=msg, output=output)


def Output(sid: Optional[bytes], output: int) -> StepOutcome:
    return StepOutcome("output", sid=sid, output=output)


IGNORE = StepOutcome("ignore")
