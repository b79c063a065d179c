"""Counterexample protocol: completes honestly but is traceable.

A deliberately flawed counter protocol used as the positive control for the
privacy experiments. The tag keeps (key, ctr, st) where st records whether
the previous session finished cleanly (st=0) or not (st=1):

    reader -> tag : challenge c
    tag    -> reader : r1 || r2        r2 random;
                                       r1 = F_k(c) XOR ctr        if st = 0
                                       r1 = F_k(c || r2) XOR ctr  if st = 1
                                       then ctr += 1, st = 1
    reader -> tag : f                  on a database hit (stored counter must
                                       match exactly; there is no desync
                                       recovery): ctr += 1 and
                                       f = F_k(c || ctr || r2), accept;
                                       otherwise f is random, reject.
    tag: f valid -> output 1, st = 0; else output 0 (st stays 1).

PRF inputs shorter than the input block are zero-extended on the right.

The flaw: with st = 0 the tag's r1 does not depend on r2, so the reader
accepts sessions whose r2 was tampered with; and querying an idle, cleanly
finished tag twice with the same challenge yields r1 values whose XOR is
ctr XOR (ctr+1), an all-ones-suffix pattern a distinguisher can spot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from rfpop.errors import CounterOverflow, LengthMismatch
from rfpop.ma import MaParams, counter_bits, tag_id_for
from rfpop.model.database import ReaderDatabase
from rfpop.model.session import ReaderAction, TagAction
from rfpop.model.types import MessageSlot, Msg
from rfpop.primitives.bitstring import BitString, concat_all
from rfpop.primitives.prf import prf_eval
from rfpop.primitives.rng import Rng

CexParams = MaParams  # same length profile as the main protocol


@dataclass
class CexTagState:
    tag_id: BitString
    key: BitString
    ctr: int
    st: int = 0


@dataclass
class CexReaderRecord:
    tag_id: BitString
    key: BitString
    ctr: int


@dataclass
class CexTagScratch:
    challenge: BitString
    nonce: BitString
    expect_ctr: int


def _padded_block(params: CexParams, data: BitString) -> BitString:
    """Zero-extend a short PRF input on the right to the input block."""
    if len(data) > params.prf_input_bits:
        raise LengthMismatch("input longer than the PRF block")
    return data.concat(BitString.zeros(params.prf_input_bits - len(data)))


def _branch_value(
    params: CexParams, key: BitString, challenge: BitString, nonce: Optional[BitString]
) -> BitString:
    data = challenge if nonce is None else challenge.concat(nonce)
    return prf_eval(params.prf, key, _padded_block(params, data))


def _finish_value(
    params: CexParams, key: BitString, challenge: BitString, ctr: int, nonce: BitString
) -> BitString:
    return prf_eval(
        params.prf, key, concat_all(challenge, counter_bits(params, ctr), nonce)
    )


def cex_tag_respond(
    params: CexParams, state: CexTagState, challenge: BitString, rng: Rng
) -> tuple[BitString, CexTagScratch]:
    """Tag reply r1 || r2; branch choice depends on st."""
    if state.ctr + 1 > params.max_counter:
        raise CounterOverflow("tag counter exhausted")
    nonce = rng.take_bits(params.nonce_bits)
    branch = _branch_value(params, state.key, challenge, nonce if state.st else None)
    r1 = branch.xor(counter_bits(params, state.ctr))
    state.ctr += 1
    state.st = 1
    scratch = CexTagScratch(challenge=challenge, nonce=nonce, expect_ctr=state.ctr)
    return r1.concat(nonce), scratch


def cex_reader_respond(
    params: CexParams,
    db: ReaderDatabase,
    challenge: BitString,
    r1: BitString,
    nonce: BitString,
    rng: Rng,
) -> tuple[bool, Optional[bytes], BitString]:
    """Exact-counter database check over both tag branches; the third message
    is always sent (random on reject)."""
    for rec in db.records_ascending():
        if rec.ctr + 1 > params.max_counter:
            continue
        clean = _branch_value(params, rec.key, challenge, None)
        hit = clean.xor(r1).to_int() == rec.ctr
        if not hit:
            resumed = _branch_value(params, rec.key, challenge, nonce)
            hit = resumed.xor(r1).to_int() == rec.ctr
        if hit:
            rec.ctr += 1
            db.record_updated(rec, None)
            f = _finish_value(params, rec.key, challenge, rec.ctr, nonce)
            return True, rec.tag_id.to_bytes(), f
    return False, None, rng.take_bits(params.out_bits)


def cex_tag_finish(
    params: CexParams, state: CexTagState, scratch: CexTagScratch, f: BitString
) -> bool:
    """Check the third message; a valid one clears st."""
    expected = _finish_value(
        params, state.key, scratch.challenge, scratch.expect_ctr, scratch.nonce
    )
    if expected == f:
        state.st = 0
        return True
    return False


class CexProtocol:
    """Plug-in for the generic session machines."""

    name = "cex"

    def __init__(self, params: CexParams):
        self.params = params

    def slots(self) -> list[MessageSlot]:
        p = self.params
        return [
            MessageSlot("reader", (p.challenge_bits,)),
            MessageSlot("tag", (p.out_bits + p.nonce_bits,)),
            MessageSlot("reader", (p.out_bits,)),
        ]

    def default_mode(self) -> str:
        return "cex"

    def reader_open(self, db, session, rng: Rng) -> BitString:
        return rng.take_bits(self.params.challenge_bits)

    def reader_on_message(self, db, session, msg: Msg, rng: Rng) -> ReaderAction:
        r1, nonce = msg.bits.split(self.params.out_bits, self.params.nonce_bits)
        accepted, tag_id, f = cex_reader_respond(
            self.params, db, session.challenge, r1, nonce, rng
        )
        if accepted:
            return ReaderAction("accept_send", bits=f, tag_id=tag_id, via_step=1)
        return ReaderAction("reject_send", bits=f, via_step=0)

    def tag_respond(self, state: CexTagState, sid, challenge: BitString, rng: Rng):
        return cex_tag_respond(self.params, state, challenge, rng)

    def tag_on_message(self, state: CexTagState, scratch, msg: Msg, rng: Rng) -> TagAction:
        ok = cex_tag_finish(self.params, state, scratch, msg.bits)
        return TagAction("output", output=1 if ok else 0)

    def tag_terminal(self, state: CexTagState):
        pass


def cex_setup(
    params: CexParams, tag_count: int, rng: Rng
) -> tuple[list[CexTagState], list[CexReaderRecord]]:
    tags = [CexTagState(tag_id_for(i), rng.take_bits(params.key_bits), 1) for i in range(tag_count)]
    return tags, [CexReaderRecord(t.tag_id, t.key, 1) for t in tags]
