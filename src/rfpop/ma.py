"""Counter-based mutual authentication protocol.

Three messages per session. The tag keeps (key, ctr); the reader keeps one
record (key, ctr, index) per tag, where index = F_key(ctr || pad) is also
cached in a lookup map.

    reader -> tag : challenge
    tag    -> reader : index' || nonce || masked_ctr      (then ctr += 1)
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
starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from rfpop.errors import CounterOverflow, LengthMismatch
from rfpop.model.database import ReaderDatabase
from rfpop.model.session import ReaderAction, TagAction
from rfpop.model.types import MessageSlot, Msg
from rfpop.primitives.bitstring import BitString, concat_all
from rfpop.primitives.prf import PrfDescriptor, prf_eval
from rfpop.primitives.rng import Rng


@dataclass(frozen=True)
class MaParams:
    """Length parameters (bits). The PRF input block is
    challenge_bits + out_bits + nonce_bits; counter inputs are padded with
    zeros up to the block."""

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

    @property
    def pad_bits(self) -> int:
        return self.prf_input_bits - self.out_bits

    @property
    def reply_bits(self) -> int:
        return self.out_bits + self.nonce_bits + self.out_bits

    @property
    def max_counter(self) -> int:
        return (1 << self.out_bits) - 1

    @property
    def prf(self) -> PrfDescriptor:
        return PrfDescriptor("ma-f", self.key_bits, self.prf_input_bits, self.out_bits)


@dataclass
class MaTagState:
    tag_id: BitString
    key: BitString
    ctr: int


@dataclass
class MaReaderRecord:
    tag_id: BitString
    key: BitString
    ctr: int
    index: BitString


@dataclass
class MaTagScratch:
    challenge: BitString
    nonce: BitString
    expect_ctr: int


@dataclass(frozen=True)
class MaTagReply:
    index: BitString
    nonce: BitString
    masked_ctr: BitString

    def bits(self) -> BitString:
        return concat_all(self.index, self.nonce, self.masked_ctr)


@dataclass(frozen=True)
class MaAuthResult:
    accepted: bool
    tag_id: Optional[bytes] = None
    confirm: Optional[BitString] = None
    new_ctr: Optional[int] = None
    via_step: int = 0


def counter_bits(params: MaParams, ctr: int) -> BitString:
    if not 0 <= ctr <= params.max_counter:
        raise CounterOverflow(f"counter {ctr} outside 0..{params.max_counter}")
    return BitString(params.out_bits, ctr)


def index_for(params: MaParams, key: BitString, ctr: int) -> BitString:
    """F_k(ctr || pad)."""
    block = counter_bits(params, ctr).concat(BitString.zeros(params.pad_bits))
    return prf_eval(params.prf, key, block)


def counter_mask(
    params: MaParams, key: BitString, challenge: BitString, index: BitString, nonce: BitString
) -> BitString:
    """F_k(challenge || index || nonce), the pad that hides the counter."""
    return prf_eval(params.prf, key, concat_all(challenge, index, nonce))


def confirm_value(
    params: MaParams, key: BitString, challenge: BitString, ctr: int, nonce: BitString
) -> BitString:
    """F_k(challenge || ctr || nonce) for the post-update counter."""
    return prf_eval(
        params.prf, key, concat_all(challenge, counter_bits(params, ctr), nonce)
    )


def parse_tag_reply(params: MaParams, bits: BitString) -> MaTagReply:
    index, nonce, masked = bits.split(params.out_bits, params.nonce_bits, params.out_bits)
    return MaTagReply(index, nonce, masked)


def ma_tag_respond(
    params: MaParams, state: MaTagState, challenge: BitString, rng: Rng
) -> tuple[MaTagReply, MaTagScratch]:
    """Tag's round-1 computation; advances the tag counter."""
    if len(challenge) != params.challenge_bits:
        raise LengthMismatch("challenge has the wrong length")
    if state.ctr + 1 > params.max_counter:
        raise CounterOverflow("tag counter exhausted")
    index = index_for(params, state.key, state.ctr)
    nonce = rng.take_bits(params.nonce_bits)
    masked = counter_mask(params, state.key, challenge, index, nonce).xor(
        counter_bits(params, state.ctr)
    )
    state.ctr += 1
    reply = MaTagReply(index, nonce, masked)
    return reply, MaTagScratch(challenge=challenge, nonce=nonce, expect_ctr=state.ctr)


def _advance(params: MaParams, db: ReaderDatabase, rec: MaReaderRecord, new_ctr: int):
    old_index = rec.index
    rec.ctr = new_ctr
    rec.index = index_for(params, rec.key, new_ctr)
    db.record_updated(rec, old_index)


def ma_reader_auth(
    params: MaParams, db: ReaderDatabase, challenge: BitString, reply: MaTagReply
) -> MaAuthResult:
    """Two-step authentication over the database; updates the matched record."""
    # Step 1: synchronized fast path via the index map.
    for rec in db.candidates_for_index(reply.index):
        mask = counter_mask(params, rec.key, challenge, reply.index, reply.nonce)
        recovered = mask.xor(reply.masked_ctr).to_int()
        if recovered == rec.ctr and recovered + 1 <= params.max_counter:
            _advance(params, db, rec, recovered + 1)
            confirm = confirm_value(params, rec.key, challenge, rec.ctr, reply.nonce)
            return MaAuthResult(True, rec.tag_id.to_bytes(), confirm, rec.ctr, via_step=1)
    # Step 2: desynchronized scan; the received index must be reproducible
    # from the recovered counter under the record's key.
    for rec in db.records_ascending():
        mask = counter_mask(params, rec.key, challenge, reply.index, reply.nonce)
        recovered = mask.xor(reply.masked_ctr).to_int()
        if recovered + 1 > params.max_counter:
            continue
        if index_for(params, rec.key, recovered) == reply.index:
            _advance(params, db, rec, recovered + 1)
            confirm = confirm_value(params, rec.key, challenge, rec.ctr, reply.nonce)
            return MaAuthResult(True, rec.tag_id.to_bytes(), confirm, rec.ctr, via_step=2)
    return MaAuthResult(False)


def ma_tag_verify(
    params: MaParams, state: MaTagState, scratch: MaTagScratch, confirm: BitString
) -> bool:
    """Check the reader's confirmation against the tag's updated counter."""
    expected = confirm_value(
        params, state.key, scratch.challenge, scratch.expect_ctr, scratch.nonce
    )
    return expected == confirm


class MaProtocol:
    """Plug-in for the generic session machines."""

    name = "ma"

    def __init__(self, params: MaParams):
        self.params = params

    def slots(self) -> list[MessageSlot]:
        p = self.params
        return [
            MessageSlot("reader", (p.challenge_bits,)),
            MessageSlot("tag", (p.reply_bits,)),
            MessageSlot("reader", (p.out_bits,)),
        ]

    def default_mode(self) -> str:
        return "ma"

    def reader_open(self, db, session, rng: Rng) -> BitString:
        return rng.take_bits(self.params.challenge_bits)

    def reader_on_message(self, db, session, msg: Msg, rng: Rng) -> ReaderAction:
        reply = parse_tag_reply(self.params, msg.bits)
        result = ma_reader_auth(self.params, db, session.challenge, reply)
        if not result.accepted:
            return ReaderAction("reject", via_step=0)
        return ReaderAction(
            "accept_send",
            bits=result.confirm,
            tag_id=result.tag_id,
            via_step=result.via_step,
        )

    def tag_respond(self, state: MaTagState, sid, challenge: BitString, rng: Rng):
        reply, scratch = ma_tag_respond(self.params, state, challenge, rng)
        return reply.bits(), scratch

    def tag_on_message(self, state: MaTagState, scratch, msg: Msg, rng: Rng) -> TagAction:
        ok = ma_tag_verify(self.params, state, scratch, msg.bits)
        return TagAction("output", output=1 if ok else 0)

    def tag_terminal(self, state: MaTagState):
        # Key update is the identity for this protocol; the session machine
        # still bumps the key version.
        pass


def tag_id_for(i: int) -> BitString:
    """Identifier of the i-th tag a setup draws; ascending in i."""
    return BitString.from_bytes(bytes(28) + i.to_bytes(4, "big"))


def ma_setup(
    params: MaParams, tag_count: int, rng: Rng
) -> tuple[list[MaTagState], list[MaReaderRecord]]:
    """Draw per-tag keys and build the matching reader records."""
    tags = [MaTagState(tag_id_for(i), rng.take_bits(params.key_bits), 1) for i in range(tag_count)]
    records = [MaReaderRecord(t.tag_id, t.key, 1, index_for(params, t.key, 1)) for t in tags]
    return tags, records
