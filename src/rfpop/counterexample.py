"""Counterexample protocol: completes honestly but is traceable.

A deliberately flawed variant of the counter-based MA protocol, used as the
positive control for the privacy experiments. It extends MA the way MAPoP
does: `CexTagState` is an `MaTagState` plus st, and `CexProtocol` is an
`MaProtocol` that replaces the round-1 slot, the tag's reply and the
reader's check of it. Round 0 and the tag's check of the confirmation are
MA's. A reader record (`CexReaderRecord`) has no index, because the reader
looks nothing up by index. The tag keeps (key, ctr, st) where st records
whether the previous session finished cleanly (st=0) or not (st=1):

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

from typing import Optional

from rfpop.errors import CounterOverflow, LengthMismatch
from rfpop.ma import (
    MaParams,
    MaProtocol,
    MaTagScratch,
    MaTagState,
    confirm_value,
    counter_bytes,
    scan_first,
    tag_id_for,
)
from rfpop.model.database import ReaderDatabase
from rfpop.model.session import Action
from rfpop.model.types import Msg, value
from rfpop.primitives.bitstring import split, xor
from rfpop.primitives.prf import prf_eval
from rfpop.primitives.rng import Rng

CexParams = MaParams  # same length profile as the main protocol


@value
class CexTagState(MaTagState):
    """An MA tag state plus the flag st: 0 when the tag's last session finished
    cleanly, 1 when it did not."""

    st: int = 0


@value
class CexReaderRecord:
    """The reader's record of one tag: its key and counter, with no index."""

    tag_id: bytes
    key: bytes
    ctr: int


def _padded_block(params: CexParams, data: bytes) -> bytes:
    """Zero-extend a short PRF input on the right to the input block."""
    block = params.prf_input_bits // 8
    if len(data) > block:
        raise LengthMismatch("input longer than the PRF block")
    return data + bytes(block - len(data))


def _branch_value(
    params: CexParams, key: bytes, challenge: bytes, nonce: Optional[bytes]
) -> bytes:
    data = challenge if nonce is None else challenge + nonce
    return prf_eval(params.prf, key, _padded_block(params, data))


def cex_tag_respond(
    params: CexParams, state: CexTagState, challenge: bytes, rng: Rng
) -> tuple[bytes, MaTagScratch, CexTagState]:
    """Tag reply r1 || r2 (branch by st), scratch and the advanced state."""
    if state.ctr + 1 > params.max_counter:
        raise CounterOverflow("tag counter exhausted")
    nonce = rng.take_bits(params.nonce_bits)
    branch = _branch_value(params, state.key, challenge, nonce if state.st else None)
    r1 = xor(branch, counter_bytes(params, state.ctr))
    state = state.evolve(ctr=state.ctr + 1, st=1)
    scratch = MaTagScratch(challenge, nonce, r1 + nonce)
    return scratch.reply, scratch, state


def cex_reader_respond(
    params: CexParams,
    db: ReaderDatabase,
    challenge: bytes,
    r1: bytes,
    nonce: bytes,
    rng: Rng,
) -> tuple[bool, Optional[bytes], bytes]:
    """Exact-counter database check over both tag branches, on the Step-2
    scan kernel; the third message is always sent (random on reject)."""
    hit = scan_first(
        db,
        params,
        (_padded_block(params, challenge), _padded_block(params, challenge + nonce)),
        int.from_bytes(r1, "big"),
    )
    if hit is None:
        return False, None, rng.take_bits(params.out_bits)
    rec = hit[0].evolve(ctr=hit[0].ctr + 1)
    db.put(rec)
    return True, rec.tag_id, confirm_value(params, rec.key, challenge, rec.ctr, nonce)


class CexProtocol(MaProtocol):
    """MA's session machine plug-in with the flawed round 1. Round 0 and the
    tag's confirmation check are MA's; a valid confirmation also clears st."""

    name = "cex"
    record_mode = "cex"

    def __init__(self, params: CexParams):
        super().__init__(params)
        reply = (params.out_bits + params.nonce_bits) // 8
        self._slots = (self._slots[0], reply, self._slots[2])

    # The benchmark tracer wraps each protocol class's own callbacks
    # (`cls.__dict__`), so the inherited ones are bound here by name.
    reader_open = MaProtocol.reader_open
    tag_terminal = MaProtocol.tag_terminal

    def reader_on_message(self, db, session, msg: Msg, rng: Rng) -> Action:
        r1, nonce = split(msg.payload, self.params.out_bits // 8, self.params.nonce_bits // 8)
        accepted, tag_id, f = cex_reader_respond(
            self.params, db, session.challenge, r1, nonce, rng
        )
        if accepted:
            session.changed = db.get(tag_id)
            return Action(f, 1, tag_id, via_step=1)
        return Action(f, 0, via_step=0)

    def tag_respond(self, state: CexTagState, challenge: bytes, rng: Rng):
        return cex_tag_respond(self.params, state, challenge, rng)

    def tag_on_message(self, state: CexTagState, scratch, msg: Msg, rng: Rng):
        action, state = super().tag_on_message(state, scratch, msg, rng)
        if action.output == 1:
            state = state.evolve(st=0)
        return action, state


def cex_setup(
    params: CexParams, tag_count: int, rng: Rng
) -> tuple[list[CexTagState], list[CexReaderRecord]]:
    tags = [CexTagState(tag_id_for(i), rng.take_bits(params.key_bits), 1) for i in range(tag_count)]
    return tags, [CexReaderRecord(t.tag_id, t.key, 1) for t in tags]
