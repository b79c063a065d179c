"""Generic reader and tag session machines.

The machines own the session-model bookkeeping that is common to every
protocol: session scratch state, round sequencing, terminal outputs, database
snapshot deltas, tag key-version bumps, and lifetime limits. A protocol
object plugs in the cryptographic content via a small duck-typed interface:

    name                   protocol label
    slots()                tuple[MessageSlot, ...], round 0 first; the same
                           object on every call
    record_mode            label every session record of this protocol carries
    reader_open(db, session, rng)            -> round-0 payload
    reader_on_message(db, session, msg, rng) -> Action
    tag_respond(state, sid, challenge, rng)  -> (reply payload, scratch)
    tag_on_message(state, scratch, msg, rng) -> Action
    tag_terminal(state)                      key-update hook at terminal output

An `Action` says what the delivery does to the party: `payload` is the next
message it sends (None: it sends nothing), and `output` is its terminal
output (None: the session goes on; 1 accept, 0 reject). A party may both
send and end in one step.

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
from rfpop.model.types import IGNORE, Msg, SID_BITS, StepOutcome, Transcript
from rfpop.primitives.rng import Rng


@dataclass(frozen=True)
class Action:
    """Protocol verdict on a message delivered to a party (see the module
    docstring). A reader's terminal verdict also carries the accepted tag,
    the authentication step that decided it and a reason for the record."""

    payload: Optional[bytes] = None
    output: Optional[int] = None
    tag_id: Optional[bytes] = None
    via_step: Optional[int] = None
    note: str = ""


@dataclass
class OpenReaderSession:
    sid: bytes
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

    def start(self, rng: Rng) -> tuple[bytes, Msg]:
        """Open a session: draw a sid and the round-0 challenge."""
        if self.session is not None:
            raise SessionInProgress("reader already has an open session")
        sid = rng.take_bits(SID_BITS)
        ses = OpenReaderSession(sid=sid)
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
        ses.messages.append(msg)
        reply = None
        if action.payload is not None:
            reply = Msg(msg.round + 1, action.payload)
            ses.messages.append(reply)
        if action.output is None:
            ses.awaiting_round = msg.round + 2
        else:
            self._finalize(action.output, action.tag_id, action.via_step, action.note)
        return StepOutcome(sid, reply, action.output)

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
            mode=self.protocol.record_mode,
            messages=list(ses.messages),
            coins=dict(ses.coins),
            delta=self.db.take_delta(),
            via_step=via_step,
            note=note,
        )
        self.history.append(record)
        self.session = None
        return StepOutcome(ses.sid, None, o_reader)


class Tag:
    """Single-session tag with key versioning and a lifetime bound. `note`
    is the reason the last ended session gave for its output ("" on accept)."""

    def __init__(self, protocol, state, lifetime: int):
        self.protocol = protocol
        self.state = state
        self.lifetime = lifetime
        self.key_version = 0
        self.session: Optional[OpenTagSession] = None
        self.note = ""

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
                self._terminal("voided by a new session")
            if self.key_version >= self.lifetime:
                raise LifetimeExceeded(
                    f"tag exhausted its {self.lifetime}-session lifetime"
                )
            payload, scratch = self.protocol.tag_respond(self.state, sid, msg.payload, rng)
            self.session = OpenTagSession(sid=sid, awaiting_round=2, scratch=scratch)
            return StepOutcome(sid, Msg(1, payload), 0 if restarted else None)
        ses = self.session
        if (
            ses is not None
            and sid == ses.sid
            and msg.round == ses.awaiting_round
            and msg.round < len(slots)
            and slots[msg.round].allows(msg.payload)
        ):
            action = self.protocol.tag_on_message(self.state, ses.scratch, msg, rng)
            if action.output is None:
                ses.awaiting_round = msg.round + 2
            else:
                self._terminal(action.note)
            reply = None if action.payload is None else Msg(msg.round + 1, action.payload)
            return StepOutcome(sid, reply, action.output)
        return IGNORE

    def timeout(self) -> StepOutcome:
        """Close the open session with output 0."""
        ses = self.session
        if ses is None:
            raise NoOpenSession("tag has no open session to time out")
        self._terminal("timeout")
        return StepOutcome(ses.sid, None, 0)

    def _terminal(self, note: str):
        self.note = note
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


def run_honest_session(reader: Reader, tag: Tag, rng: Rng) -> Transcript:
    """Relay one session faithfully between the two parties."""
    sid, challenge = reader.start(rng)
    return relay(
        sid,
        challenge,
        lambda msg: tag.step(sid, msg, rng),
        lambda msg: reader.step(sid, msg, rng),
    )
