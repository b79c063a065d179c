"""Counter-based mutual authentication protocol.

Three messages per session. The tag keeps (key, ctr); the reader keeps one
record (key, ctr, index) per tag, where index = F_key(ctr || pad) is also
cached in a lookup map.

    reader -> tag : challenge
    tag    -> reader : index' || nonce || masked_ctr      (with ctr advanced by 1)
    reader -> tag : confirm                                (on accept)

with index' = F_k(ctr || pad), masked_ctr = F_k(challenge || index' || nonce)
XOR ctr, and confirm = F_k(challenge || ctr_new || nonce) for the updated
counter. The reader authenticates in two steps:

  Step 1 (synchronized): look the received index up in the index map; a
  candidate record matches iff the counter recovered from masked_ctr equals
  the stored counter.
  Step 2 (desynchronized): scan all records in ascending tag-id order; a
  record matches iff recomputing F_k(ctr' || pad) from the recovered counter
  ctr' reproduces the received index. This resynchronizes a tag that has
  advanced past the stored counter.

On a match the reader stores ctr'+1 and the refreshed index. First match in
ascending tag-id order wins, and Step 1 runs to completion before Step 2
starts. Step 2 runs on `scan_first`, the scan kernel this protocol shares
with the counterexample protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from rfpop.errors import CounterOverflow, LengthMismatch
from rfpop.model.database import ReaderDatabase
from rfpop.model.session import Action
from rfpop.model.types import Msg, value
from rfpop.primitives.bitstring import split, xor
from rfpop.primitives.counters import count_hash
from rfpop.primitives.prf import PrfDescriptor, check_input, prf_eval
from rfpop.primitives.rng import Rng


@dataclass(frozen=True)
class MaParams:
    """Length parameters (bits, whole bytes). The PRF input block is
    challenge_bits + out_bits + nonce_bits; counter inputs are padded with
    zeros up to the block. The pad, the counter bound and the PRF descriptor
    are computed once, on first use."""

    key_bits: int = 256
    out_bits: int = 256
    challenge_bits: int = 256
    nonce_bits: int = 256

    def __post_init__(self):
        for name in ("key_bits", "out_bits", "challenge_bits", "nonce_bits"):
            v = getattr(self, name)
            if v <= 0 or v % 8:
                raise LengthMismatch(f"{name} must be a positive multiple of 8")

    @property
    def prf_input_bits(self) -> int:
        return self.challenge_bits + self.out_bits + self.nonce_bits

    @cached_property
    def pad(self) -> bytes:
        """Zero bytes that extend a counter to the PRF input block."""
        return bytes((self.prf_input_bits - self.out_bits) // 8)

    @property
    def reply_bits(self) -> int:
        return self.out_bits + self.nonce_bits + self.out_bits

    @cached_property
    def max_counter(self) -> int:
        return (1 << self.out_bits) - 1

    @cached_property
    def prf(self) -> PrfDescriptor:
        return PrfDescriptor("ma-f", self.key_bits, self.prf_input_bits, self.out_bits)

    @cached_property
    def widths(self) -> dict[str, int]:
        """The width in bytes of each fixed-width value a reader record or a
        tag state holds, by field name; stored files are checked against it."""
        return {"index": self.out_bits // 8, "key": self.key_bits // 8, "ctr": self.out_bits // 8}


@value
class MaTagState:
    """A tag's kept state: its identity, key and counter."""

    tag_id: bytes
    key: bytes
    ctr: int


@value
class MaReaderRecord:
    """The reader's record of one tag: its key, its counter and the index
    that counter gives, under which Step 1 finds the tag."""

    tag_id: bytes
    key: bytes
    ctr: int
    index: bytes


@dataclass(slots=True)
class MaTagScratch:
    challenge: bytes
    nonce: bytes
    reply: bytes  # the tag's round-1 payload


class MaTagReply(NamedTuple):
    index: bytes
    nonce: bytes
    masked_ctr: bytes

    def payload(self) -> bytes:
        return self.index + self.nonce + self.masked_ctr


class MaAuthResult(NamedTuple):
    accepted: bool
    tag_id: Optional[bytes] = None
    confirm: Optional[bytes] = None
    via_step: int = 0


def counter_bytes(params: MaParams, ctr: int) -> bytes:
    if not 0 <= ctr <= params.max_counter:
        raise CounterOverflow(f"counter {ctr} outside 0..{params.max_counter}")
    return ctr.to_bytes(params.out_bits // 8, "big")


def index_for(params: MaParams, key: bytes, ctr: int) -> bytes:
    """F_k(ctr || pad)."""
    return prf_eval(params.prf, key, counter_bytes(params, ctr) + params.pad)


def counter_mask(
    params: MaParams, key: bytes, challenge: bytes, index: bytes, nonce: bytes
) -> bytes:
    """F_k(challenge || index || nonce), the pad that hides the counter."""
    return prf_eval(params.prf, key, challenge + index + nonce)


def confirm_value(
    params: MaParams, key: bytes, challenge: bytes, ctr: int, nonce: bytes
) -> bytes:
    """F_k(challenge || ctr || nonce) for the post-update counter."""
    return prf_eval(params.prf, key, challenge + counter_bytes(params, ctr) + nonce)


def parse_tag_reply(params: MaParams, payload: bytes) -> MaTagReply:
    out = params.out_bits // 8
    return MaTagReply(*split(payload, out, params.nonce_bits // 8, out))


def ma_tag_respond(
    params: MaParams, state: MaTagState, challenge: bytes, rng: Rng
) -> tuple[MaTagReply, MaTagScratch, MaTagState]:
    """Tag's round-1 computation: reply, scratch and the advanced state."""
    if state.ctr + 1 > params.max_counter:
        raise CounterOverflow("tag counter exhausted")
    index = index_for(params, state.key, state.ctr)
    nonce = rng.take_bits(params.nonce_bits)
    masked = xor(
        counter_mask(params, state.key, challenge, index, nonce),
        counter_bytes(params, state.ctr),
    )
    state = state.evolve(ctr=state.ctr + 1)
    reply = MaTagReply(index, nonce, masked)
    scratch = MaTagScratch(challenge, nonce, reply.payload())
    return reply, scratch, state


def scan_first(
    db: ReaderDatabase,
    params: MaParams,
    inputs: tuple[bytes, ...],
    masked: int,
    index: Optional[bytes] = None,
) -> Optional[tuple[object, int]]:
    """The reader's Step-2 scan: the first record, in ascending tag-id order,
    whose recovered value F_key(x) XOR masked passes the check, for an input
    x of `inputs` (tried in order); returns (rec, that value), or None.

    With `index` (MA) the check is recovered < max_counter and
    F_key(recovered || pad) == index. Without it (cex) the check is
    recovered == rec.ctr, and records at the counter bound are skipped
    without an evaluation. The fixed inputs are length-checked once per
    scan. The records come zipped with their keyed BLAKE2b states
    (`db.keyed_states_for`), and each evaluation runs on a copy of one. Every
    evaluation counts as one hash, however the scan ends."""
    desc, top = params.prf, params.max_counter
    width, pad = params.out_bits // 8, params.pad
    for x in inputs:
        check_input(desc, x)
    states = db.keyed_states_for(desc)
    from_bytes = int.from_bytes  # bound once: the lookup costs 5% of a scan
    evaluated = 0
    try:
        # records_ascending is the one way in: the benchmark tracer counts
        # scanned records through it.
        for rec, state in zip(db.records_ascending(), states):
            if index is None and rec.ctr >= top:
                continue
            for x in inputs:
                h = state.copy()
                h.update(x)
                evaluated += 1
                value = from_bytes(h.digest(), "big") ^ masked
                if index is None:
                    if value == rec.ctr:
                        return rec, value
                elif value < top:
                    h = state.copy()
                    h.update(value.to_bytes(width, "big") + pad)
                    evaluated += 1
                    if h.digest() == index:
                        return rec, value
        return None
    finally:
        count_hash(evaluated)


def _accept(
    params: MaParams,
    db: ReaderDatabase,
    rec: MaReaderRecord,
    recovered: int,
    challenge: bytes,
    nonce: bytes,
    via_step: int,
) -> MaAuthResult:
    """Store recovered+1 and the refreshed index; confirm the new counter."""
    ctr = recovered + 1
    db.put(rec.evolve(ctr=ctr, index=index_for(params, rec.key, ctr)))
    confirm = confirm_value(params, rec.key, challenge, ctr, nonce)
    return MaAuthResult(True, rec.tag_id, confirm, via_step)


def ma_reader_auth(
    params: MaParams, db: ReaderDatabase, challenge: bytes, reply: MaTagReply
) -> MaAuthResult:
    """Two-step authentication over the database; updates the matched record."""
    masked = int.from_bytes(reply.masked_ctr, "big")
    # Step 1: synchronized fast path via the index map.
    for rec in db.candidates_for_index(reply.index):
        mask = counter_mask(params, rec.key, challenge, reply.index, reply.nonce)
        recovered = int.from_bytes(mask, "big") ^ masked
        if recovered == rec.ctr and recovered + 1 <= params.max_counter:
            return _accept(params, db, rec, recovered, challenge, reply.nonce, 1)
    # Step 2: desynchronized scan; the received index must be reproducible
    # from the recovered counter under the record's key.
    hit = scan_first(
        db, params, (challenge + reply.index + reply.nonce,), masked, reply.index
    )
    if hit is None:
        return MaAuthResult(False)
    rec, recovered = hit
    return _accept(params, db, rec, recovered, challenge, reply.nonce, 2)


def ma_tag_verify(
    params: MaParams, state: MaTagState, scratch: MaTagScratch, confirm: bytes
) -> bool:
    """Check the reader's confirmation against the tag's updated counter:
    `state` is the tag's state as round 1 committed it."""
    expected = confirm_value(params, state.key, scratch.challenge, state.ctr, scratch.nonce)
    return expected == confirm


class MaProtocol:
    """Plug-in for the generic session machines."""

    name = "ma"
    record_mode = "ma"

    def __init__(self, params: MaParams):
        self.params = params
        self._slots = (params.challenge_bits // 8, params.reply_bits // 8, params.out_bits // 8)

    def slots(self) -> tuple[int, ...]:
        return self._slots

    def reader_open(self, rng: Rng) -> bytes:
        return rng.take_bits(self.params.challenge_bits)

    def reader_on_message(self, db, session, msg: Msg, rng: Rng) -> Action:
        reply = parse_tag_reply(self.params, msg.payload)
        result = ma_reader_auth(self.params, db, session.challenge, reply)
        if not result.accepted:
            return Action(output=0, via_step=0)
        session.changed = db.get(result.tag_id)
        return Action(result.confirm, 1, result.tag_id, result.via_step)

    def tag_respond(self, state: MaTagState, challenge: bytes, rng: Rng):
        _, scratch, state = ma_tag_respond(self.params, state, challenge, rng)
        return scratch.reply, scratch, state

    def tag_on_message(self, state: MaTagState, scratch, msg: Msg, rng: Rng):
        if ma_tag_verify(self.params, state, scratch, msg.payload):
            return Action(output=1), state
        return Action(output=0, note="confirmation invalid"), state

    def tag_terminal(self, state: MaTagState) -> MaTagState:
        # Key update is the identity for this protocol; the session machine
        # still bumps the key version.
        return state


def tag_id_for(i: int) -> bytes:
    """Identifier of the i-th tag a setup draws; ascending in i."""
    return bytes(28) + i.to_bytes(4, "big")


def ma_setup(
    params: MaParams, tag_count: int, rng: Rng
) -> tuple[list[MaTagState], list[MaReaderRecord]]:
    """Draw per-tag keys and build the matching reader records."""
    tags = [MaTagState(tag_id_for(i), rng.take_bits(params.key_bits), 1) for i in range(tag_count)]
    records = [MaReaderRecord(t.tag_id, t.key, 1, index_for(params, t.key, 1)) for t in tags]
    return tags, records
