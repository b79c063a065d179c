"""Message and outcome types for the session model.

Every protocol value a message carries, and every sid, is `bytes`; a
protocol's slots are the one payload length (in bytes) each round admits, and
the session machines check a payload against them before a protocol sees it.

Messages carry an explicit round marker. The default parameter sizes make a
session-start challenge and a final confirmation the same length, so "does
this message open a session?" cannot be decided from length alone; the
marker is structural framing (the wire format encodes it as the frame type),
not secret data.

A `Msg` (frozen, slotted) is held by transcripts; the journal keeps payloads,
packed into one `bytes` per session (`SessionRecord.messages`). A
`StepOutcome` lives only until its caller has read it, so it is a
`NamedTuple`: immutable as well, and built at C speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

SID_BITS = 128


@dataclass(frozen=True, slots=True)
class Msg:
    """One protocol message: round index (0 = session-start challenge) plus
    payload bytes."""

    round: int
    payload: bytes

    def __post_init__(self):
        if self.round < 0:
            raise ValueError("round index must be non-negative")


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


class StepOutcome(NamedTuple):
    """Result of delivering one message to a party: the message it sends
    next, if any, and its terminal output bit, if it ended. Neither set means
    the message was dropped without a state change.

    `kind` names the four shapes: reply (message only), reply_output
    (message and output), output (output only) and ignore (neither).
    """

    sid: Optional[bytes] = None
    msg: Optional[Msg] = None
    output: Optional[int] = None

    @property
    def kind(self) -> str:
        if self.msg is None:
            return "ignore" if self.output is None else "output"
        return "reply" if self.output is None else "reply_output"


IGNORE = StepOutcome()


def evolve(value, **changes):
    """`dataclasses.replace` for a frozen dataclass with no `__post_init__`,
    without its checks and keyword call: it runs per session on each side."""
    new = object.__new__(type(value))
    for name in value.__dataclass_fields__:
        object.__setattr__(new, name, changes[name] if name in changes else getattr(value, name))
    return new
