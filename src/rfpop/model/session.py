"""Generic reader and tag session machines.

The machines own the session-model bookkeeping that is common to every
protocol: session scratch state, round sequencing, terminal outputs, changed
records, tag key-version bumps, and lifetime limits. A protocol
object plugs in the cryptographic content via a small duck-typed interface:

    name                   protocol label
    slots()                tuple[int, ...]: the payload length, in bytes, of
                           each round, round 0 first; the same object on
                           every call
    reader_open(rng)                         -> round-0 payload
    reader_on_message(db, session, msg, rng) -> Action
    tag_respond(state, challenge, rng)       -> (reply payload, scratch, state)
    tag_on_message(state, scratch, msg, rng) -> (Action, state)
    tag_terminal(state)                      -> state (key update at an output)

A reader callback that changes a tag's record (`ReaderDatabase.put`, at most
once a session) also sets the open session's `changed` to that record, which
the session's record keeps; the database remembers no session.

An `Action` says what the delivery does to the party: `payload` is the next
message it sends (None: it sends nothing), and `output` is its terminal
output (None: the session goes on; 1 accept, 0 reject). A party may both
send and end in one step.

Every session has one shape. The reader opens it with round 0 and the two
parties alternate: the reader sends the even rounds and the tag the odd ones.
The tag's part ends on its round-2 delivery, so `tag_on_message` always
returns an output (it may also send round 3). A reader step that returns no
output sends a message, so the round the reader awaits is the number of
messages its open session holds.

An `Action`, like the `StepOutcome` a step returns, is a `NamedTuple`: it
lives only within the step, and a tuple is immutable and built at C speed.
The open-session scratch records are slotted dataclasses; what the parties
keep (`SessionRecord`, the tag states and the reader records) stays frozen,
and a session record keeps its payloads packed into one `bytes`.

Dispatch rules follow the session model: a tag checks "is this a session
start?" before anything else, restarting (and voiding the current session)
if one is already open; a reader ignores wrong-sid messages and treats any
other non-valid delivery as a failed session. Every terminal output bumps
the tag's key version and resets its scratch; every reader termination
appends a snapshot record. Each machine hands what it commits to an optional
sink before the step that commits it returns: the reader its session record,
the tag its state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from rfpop.errors import LifetimeExceeded, NoOpenSession, SessionInProgress
from rfpop.model.database import History, ReaderDatabase, SessionRecord
from rfpop.model.types import IGNORE, Msg, SID_BITS, StepOutcome, Transcript
from rfpop.primitives.rng import Rng


class Action(NamedTuple):
    """Protocol verdict on a message delivered to a party (see the module
    docstring). A reader's terminal verdict also carries the accepted tag,
    the authentication step that decided it and a reason for the record."""

    payload: Optional[bytes] = None
    output: Optional[int] = None
    tag_id: Optional[bytes] = None
    via_step: Optional[int] = None
    note: str = ""


@dataclass(slots=True)
class OpenReaderSession:
    """The reader's open session. `messages` holds the payloads sent and
    received so far, indexed by round: the reader only takes in the round it
    awaits, so position r is round r. `changed` is the record the session
    put, if any, `pop_nonce` MAPoP's credential nonce and `scratch` what a
    protocol keeps from one of its rounds to the next."""

    sid: bytes
    messages: list[bytes]
    changed: object = None
    pop_nonce: Optional[bytes] = None
    scratch: object = None

    @property
    def challenge(self) -> bytes:
        return self.messages[0]


@dataclass(slots=True)
class OpenTagSession:
    sid: bytes
    scratch: object


class Reader:
    """Single-session reader with a snapshot history. A reader restarted
    from a database file carries on the file's history and its numbering.
    An optional `sink(record)` takes each session record before `history`
    keeps it and before the step that closed the session returns."""

    def __init__(self, protocol, db: ReaderDatabase, reader_id: bytes = b"R",
                 history: Optional[History] = None, sink=None):
        self.protocol = protocol
        self.db = db
        self.reader_id = reader_id
        self.history = History(initial=db.image()) if history is None else history
        self.session: Optional[OpenReaderSession] = None
        self.sink = sink

    @property
    def next_j(self) -> int:
        return len(self.history.sessions) + 1

    def start(self, rng: Rng) -> tuple[bytes, Msg]:
        """Open a session: draw a sid and the round-0 challenge."""
        if self.session is not None:
            raise SessionInProgress("reader already has an open session")
        sid = rng.take_bits(SID_BITS)
        payload = self.protocol.reader_open(rng)
        self.session = OpenReaderSession(sid, [payload])
        return sid, Msg(0, payload)

    def step(self, sid: bytes, msg: Msg, rng: Rng) -> StepOutcome:
        """Deliver a message; wrong sids are ignored, anything else that is
        not a valid expected-round message fails the session."""
        ses = self.session
        if ses is None:
            raise NoOpenSession("reader has no open session")
        if sid != ses.sid:
            return IGNORE
        slots = self.protocol.slots()
        rnd = msg.round
        if not (
            rnd == len(ses.messages)
            and rnd < len(slots)
            and len(msg.payload) == slots[rnd]
        ):
            return self._finalize(0, None, None, "message outside expected round space")
        action = self.protocol.reader_on_message(self.db, ses, msg, rng)
        ses.messages.append(msg.payload)
        reply = None
        if action.payload is not None:
            reply = Msg(rnd + 1, action.payload)
            ses.messages.append(action.payload)
        if action.output is not None:
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
            messages=b"".join(ses.messages),
            pop_nonce=ses.pop_nonce,
            changed=ses.changed,
            via_step=via_step,
            note=note,
        )
        if self.sink is not None:
            self.sink(record)
        self.history.append(record)
        self.session = None
        return StepOutcome(ses.sid, None, o_reader)


class Tag:
    """Single-session tag with key versioning and a lifetime bound. `note`
    is the reason the last ended session gave for its output ("" on accept).
    `state` is a frozen value that only `_commit` replaces, before a step
    returns the message that spends it, handing an optional `sink(state,
    key_version)` the version the open session ends at (each ends in one bump)."""

    __slots__ = ("protocol", "state", "lifetime", "key_version", "session", "note",
                 "sink", "_sunk")

    def __init__(self, protocol, state, lifetime: int, key_version: int = 0, sink=None):
        self.protocol = protocol
        self.state = state
        self.lifetime = lifetime
        self.key_version = key_version
        self.session: Optional[OpenTagSession] = None
        self.note = ""
        self.sink = sink
        self._sunk = None

    def step(self, sid: bytes, msg: Msg, rng: Rng) -> StepOutcome:
        slots = self.protocol.slots()
        rnd = msg.round
        if rnd == 0 and len(msg.payload) == slots[0]:
            # Session start, checked before anything else: an open session is
            # voided (output 0, key update) and a fresh one replaces it.
            restarted = self.session is not None
            if restarted:
                self._terminal("voided by a new session")
            if self.key_version >= self.lifetime:
                raise LifetimeExceeded(
                    f"tag exhausted its {self.lifetime}-session lifetime"
                )
            payload, scratch, state = self.protocol.tag_respond(self.state, msg.payload, rng)
            self.session = OpenTagSession(sid, scratch)
            self._commit(state)
            return StepOutcome(sid, Msg(1, payload), 0 if restarted else None)
        ses = self.session
        if ses is not None and sid == ses.sid and rnd == 2 and len(msg.payload) == slots[2]:
            # Round 2 is the tag's last delivery: it always ends the session.
            action, state = self.protocol.tag_on_message(self.state, ses.scratch, msg, rng)
            self._commit(state)
            self._terminal(action.note)
            reply = None if action.payload is None else Msg(3, action.payload)
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
        self.session = None
        self._commit(self.protocol.tag_terminal(self.state))

    def _commit(self, state):
        """Sink, then keep, `state`; skip a sink call that repeats the last."""
        if self.sink is not None:
            sunk = (state, self.key_version + (self.session is not None))
            if sunk != self._sunk:
                self.sink(*sunk)
                self._sunk = sunk
        self.state = state


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
        # A tag's round-2 delivery ends its session; a round-3 reply goes to
        # the reader, whose step on it sends nothing.
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
