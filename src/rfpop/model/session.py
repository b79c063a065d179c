"""Generic reader and tag session machines.

The machines own the session-model bookkeeping that is common to every
protocol: session scratch state, round sequencing, terminal outputs, database
snapshot deltas, tag key-version bumps, and lifetime limits. A protocol
object plugs in the cryptographic content via a small duck-typed interface:

    name                   protocol label
    slots()                tuple[MessageSlot, ...], round 0 first; the same
                           object on every call
    default_mode()         mode label for new sessions
    reader_open(db, session, rng)            -> round-0 payload
    reader_on_message(db, session, msg, rng) -> ReaderAction
    tag_respond(state, sid, challenge, rng)  -> (reply payload, scratch)
    tag_on_message(state, scratch, msg, rng) -> TagAction
    tag_terminal(state)                      key-update hook at terminal output

Dispatch rules follow the session model: a tag checks "is this a session
start?" before anything else, restarting (and voiding the current session)
if one is already open; a reader ignores wrong-sid messages and treats any
other non-valid delivery as a failed session. Every terminal output bumps
the tag's key version and resets its scratch; every reader termination
appends a snapshot record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from rfpop.errors import LifetimeExceeded, NoOpenSession, SessionInProgress
from rfpop.model.database import History, ReaderDatabase, SessionRecord
from rfpop.model.types import (
    IGNORE,
    Msg,
    Output,
    Reply,
    ReplyWithOutput,
    SID_BITS,
    StepOutcome,
    Transcript,
)
from rfpop.primitives.rng import Rng


@dataclass(frozen=True)
class ReaderAction:
    """Protocol verdict on a message delivered to the reader.

    kind: reply | accept_send | accept | reject | reject_send
    (the *_send kinds carry an outgoing payload).
    """

    kind: str
    payload: Optional[bytes] = None
    tag_id: Optional[bytes] = None
    via_step: Optional[int] = None
    note: str = ""


@dataclass(frozen=True)
class TagAction:
    """Protocol verdict on a mid-session message delivered to the tag.

    kind: reply | reply_output | output | ignore
    """

    kind: str
    payload: Optional[bytes] = None
    output: Optional[int] = None
    note: str = ""


@dataclass
class OpenReaderSession:
    sid: bytes
    mode: str
    messages: list[Msg] = field(default_factory=list)
    coins: dict[str, bytes] = field(default_factory=dict)
    awaiting_round: int = 1
    scratch: dict = field(default_factory=dict)

    @property
    def challenge(self) -> bytes:
        return self.messages[0].payload


@dataclass
class OpenTagSession:
    sid: bytes
    awaiting_round: int
    scratch: object


class Reader:
    """Single-session reader with a snapshot history. A reader restarted
    from a database file carries on the file's history and its numbering."""

    def __init__(self, protocol, db: ReaderDatabase, reader_id: bytes = b"R",
                 history: Optional[History] = None):
        self.protocol = protocol
        self.db = db
        self.reader_id = reader_id
        self.history = History(initial=db.clone_records()) if history is None else history
        self.session: Optional[OpenReaderSession] = None

    @property
    def next_j(self) -> int:
        return len(self.history.sessions) + 1

    def start(self, rng: Rng, mode: Optional[str] = None) -> tuple[bytes, Msg]:
        """Open a session: draw a sid and the round-0 challenge."""
        if self.session is not None:
            raise SessionInProgress("reader already has an open session")
        sid = rng.take_bits(SID_BITS)
        ses = OpenReaderSession(sid=sid, mode=mode or self.protocol.default_mode())
        msg = Msg(0, self.protocol.reader_open(self.db, ses, rng))
        ses.messages.append(msg)
        self.session = ses
        return sid, msg

    def step(self, sid: bytes, msg: Msg, rng: Rng) -> StepOutcome:
        """Deliver a message; wrong sids are ignored, anything else that is
        not a valid expected-round message fails the session."""
        ses = self.session
        if ses is None:
            raise NoOpenSession("reader has no open session")
        if sid != ses.sid:
            return IGNORE
        slots = self.protocol.slots()
        in_space = (
            msg.round == ses.awaiting_round
            and msg.round < len(slots)
            and slots[msg.round].allows(msg.payload)
        )
        if not in_space:
            return self._finalize(0, None, None, "message outside expected round space")
        action = self.protocol.reader_on_message(self.db, ses, msg, rng)
        if action.kind == "reply":
            ses.messages.append(msg)
            reply = Msg(msg.round + 1, action.payload)
            ses.messages.append(reply)
            ses.awaiting_round = msg.round + 2
            return Reply(sid, reply)
        if action.kind == "accept_send":
            ses.messages.append(msg)
            reply = Msg(msg.round + 1, action.payload)
            ses.messages.append(reply)
            out = self._finalize(1, action.tag_id, action.via_step, action.note)
            return ReplyWithOutput(sid, reply, out.output)
        if action.kind == "reject_send":
            ses.messages.append(msg)
            reply = Msg(msg.round + 1, action.payload)
            ses.messages.append(reply)
            out = self._finalize(0, None, action.via_step, action.note)
            return ReplyWithOutput(sid, reply, out.output)
        if action.kind == "accept":
            ses.messages.append(msg)
            return self._finalize(1, action.tag_id, action.via_step, action.note)
        if action.kind == "reject":
            ses.messages.append(msg)
            return self._finalize(0, None, action.via_step, action.note)
        raise ValueError(f"unknown reader action {action.kind!r}")

    def timeout(self) -> StepOutcome:
        """Close the open session with output 0."""
        if self.session is None:
            raise NoOpenSession("reader has no open session to time out")
        return self._finalize(0, None, None, "timeout")

    def _finalize(self, o_reader: int, tag_id, via_step, note) -> StepOutcome:
        ses = self.session
        record = SessionRecord(
            j=self.next_j,
            sid=ses.sid,
            o_reader=o_reader,
            tag_id=tag_id,
            mode=ses.mode,
            messages=list(ses.messages),
            coins=dict(ses.coins),
            delta=self.db.take_delta(),
            via_step=via_step,
            note=note,
        )
        self.history.append(record)
        self.session = None
        return Output(ses.sid, o_reader)


class Tag:
    """Single-session tag with key versioning and a lifetime bound."""

    def __init__(self, protocol, state, lifetime: int):
        self.protocol = protocol
        self.state = state
        self.lifetime = lifetime
        self.key_version = 0
        self.session: Optional[OpenTagSession] = None

    @property
    def tag_id(self) -> bytes:
        return self.state.tag_id

    def step(self, sid: bytes, msg: Msg, rng: Rng) -> StepOutcome:
        slots = self.protocol.slots()
        if msg.round == 0 and slots[0].allows(msg.payload):
            # Session start, checked before anything else: an open session is
            # voided (output 0, key update) and a fresh one replaces it.
            restarted = self.session is not None
            if restarted:
                self._terminal()
            if self.key_version >= self.lifetime:
                raise LifetimeExceeded(
                    f"tag exhausted its {self.lifetime}-session lifetime"
                )
            payload, scratch = self.protocol.tag_respond(self.state, sid, msg.payload, rng)
            self.session = OpenTagSession(sid=sid, awaiting_round=2, scratch=scratch)
            reply = Msg(1, payload)
            if restarted:
                return ReplyWithOutput(sid, reply, 0)
            return Reply(sid, reply)
        ses = self.session
        if (
            ses is not None
            and sid == ses.sid
            and msg.round == ses.awaiting_round
            and msg.round < len(slots)
            and slots[msg.round].allows(msg.payload)
        ):
            action = self.protocol.tag_on_message(self.state, ses.scratch, msg, rng)
            if action.kind == "reply":
                ses.awaiting_round = msg.round + 2
                return Reply(sid, Msg(msg.round + 1, action.payload))
            if action.kind == "reply_output":
                self._terminal()
                return ReplyWithOutput(sid, Msg(msg.round + 1, action.payload), action.output)
            if action.kind == "output":
                self._terminal()
                return Output(sid, action.output)
            if action.kind == "ignore":
                return IGNORE
            raise ValueError(f"unknown tag action {action.kind!r}")
        return IGNORE

    def _terminal(self):
        self.key_version += 1
        self.protocol.tag_terminal(self.state)
        self.session = None


def relay(sid: bytes, first: Msg, to_tag, to_reader) -> Transcript:
    """Ferry one session: deliver `first` to the tag, then alternate between
    the parties until a delivery returns no message.

    `to_tag` and `to_reader` deliver one message and return anything with
    `.msg` and `.output`. The transcript records every message the parties
    sent, as sent, and each side's last output.
    """
    trs = Transcript(sid, [first])
    msg = first
    while True:
        # No tag (ma, pop, cex) answers the reader's terminal message with a
        # message, only an output, so the session ends with that delivery.
        out = to_tag(msg)
        if out.output is not None:
            trs.o_tag = out.output
        if out.msg is None:
            return trs
        trs.messages.append(out.msg)
        out = to_reader(out.msg)
        if out.output is not None:
            trs.o_reader = out.output
        if out.msg is None:
            return trs
        msg = out.msg
        trs.messages.append(msg)


def run_honest_session(
    reader: Reader, tag: Tag, rng: Rng, mode: Optional[str] = None
) -> Transcript:
    """Relay one session faithfully between the two parties."""
    sid, challenge = reader.start(rng, mode=mode)
    return relay(
        sid,
        challenge,
        lambda msg: tag.step(sid, msg, rng),
        lambda msg: reader.step(sid, msg, rng),
    )
