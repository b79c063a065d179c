"""Proof-of-possession extension of the mutual authentication protocol.

MAPoP is the interior MA interaction extended by one round, and its types
extend MA's: `PopParams` is a `MaParams`, `PopProtocol` a `MaProtocol`, and
the tag state and reader record subclass MA's. Rounds 0 and 1 run unchanged;
the final confirmation is wrapped into a larger third message, and the tag
answers with a fourth message proving it holds its signing key. Every session
runs all four rounds. Per tag the parties share an extra masking key k'
(pop_key) besides the interior key, and each party has a signature keypair.

    reader -> tag : challenge                                  (interior)
    tag    -> reader : index' || nonce || masked_ctr           (interior)
    reader -> tag : confirm || pop_challenge || binder
    tag    -> reader : masked_sig || sig_tag    (+ tag output)

where, with r' a fresh reader nonce,

    pop_challenge = H(Sign_reader(r'))
    binder        = G_k'( H(challenge || tag_reply || confirm) || pop_challenge )
    sig           = Sign_tag(pop_challenge)
    masked_sig    = G_k'(binder) XOR sig        (G evaluated at signature length)
    sig_tag       = G_k'(sig)

The tag validates both the interior confirmation and the binder before
signing, and emits its output together with its final reply. The reader
defers its own output until the fourth message arrives (or times out),
unmasks the signature, and accepts iff it verifies under the tag's public
key and sig_tag matches.

A session that accepted yields a transferable credential:

    cred = (reader_id, tag_id, r', Sign_reader(r'), sig)

rebuilt offline from the reader's session snapshot; the signature sig is
recovered by recomputing the mask, never stored. cred_veri checks the tag
signature on H(Sign_reader(r')), then the issuer signature on r'.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from rfpop.errors import FrameError, KTimeExhausted, PairPoolExhausted
from rfpop.ma import (
    MaParams,
    MaProtocol,
    MaReaderRecord,
    MaTagState,
    index_for,
    ma_tag_verify,
    tag_id_for,
)
from rfpop.model.session import Action, Reader
from rfpop.model.types import Msg, value
from rfpop.primitives.bitstring import split, xor
from rfpop.primitives.prf import PrfDescriptor, hash_digest, prf_eval
from rfpop.primitives.rng import Rng
from rfpop.primitives.sig import (
    FULLTIME,
    KTIME,
    FullTimeSigner,
    VerifyKey,
    fulltime_keygen,
    ktime_keygen,
)

IMPL_FULLTIME = "impl1"  # full-time signatures, online signing
IMPL_POOLED = "impl2"  # full-time signatures, precomputed-pair signing
IMPL_KTIME = "impl3"  # K-time signatures

# impl3 signing budget.  A K-time verifying key costs K+1 point
# multiplications to derive, so the default stays small.
DEFAULT_K = 16


@dataclass(frozen=True)
class PopParams(MaParams):
    """The interior lengths of `MaParams`, plus the signature instantiation.
    The possession layer reuses the interior lengths: its hashes are out_bits
    long and its masking key key_bits. The masking family's descriptor is
    built once."""

    sig_impl: str = IMPL_FULLTIME
    k_time: int = DEFAULT_K  # signing budget for impl3
    pool_size: int = 1 << 17  # precomputed pairs for impl2

    def __post_init__(self):
        super().__post_init__()
        if self.sig_impl not in (IMPL_FULLTIME, IMPL_POOLED, IMPL_KTIME):
            raise ValueError(f"unknown signature instantiation {self.sig_impl!r}")

    @property
    def hash_bits(self) -> int:
        """Length of the pop challenge, the binder and sig_tag."""
        return self.out_bits

    @property
    def pop_key_bits(self) -> int:
        return self.key_bits

    @property
    def sig_scheme(self) -> str:
        return KTIME if self.sig_impl == IMPL_KTIME else FULLTIME

    @property
    def sig_bytes(self) -> int:
        return 32 if self.sig_impl == IMPL_KTIME else 64

    @property
    def finalize_bits(self) -> int:
        return self.out_bits + 2 * self.hash_bits

    @property
    def final_reply_bits(self) -> int:
        return 8 * self.sig_bytes + self.hash_bits

    @cached_property
    def mask_prf(self) -> PrfDescriptor:
        return PrfDescriptor("pop-g", self.pop_key_bits, None, self.hash_bits)

    @cached_property
    def widths(self) -> dict[str, int]:
        return {**super().widths, "pop_key": self.pop_key_bits // 8}


@value
class PopTagState(MaTagState):
    """An MA tag state plus the possession key and the tag's signer."""

    pop_key: bytes = None
    signer: object = None  # FullTimeSigner or KTimeSigner; spent on a copy


@value
class PopReaderRecord(MaReaderRecord):
    """An MA reader record plus the tag's possession key and verifying key."""

    pop_key: bytes = None
    verify_key: VerifyKey = None


@dataclass
class KeyDirectory:
    """Public parameters: every party's verifying key, plus a side table for
    adversary-registered keys (forgery games check credentials against the
    union)."""

    entries: dict[bytes, VerifyKey]
    extras: dict[bytes, VerifyKey] = field(default_factory=dict)

    def key_for(self, party_id: bytes) -> Optional[VerifyKey]:
        if party_id in self.entries:
            return self.entries[party_id]
        return self.extras.get(party_id)

    def register_extra(self, party_id: bytes, key: VerifyKey):
        if party_id in self.entries:
            raise ValueError("cannot shadow an existing party id")
        self.extras[party_id] = key


def transcript_digest(params: PopParams, challenge: bytes, tag_reply: bytes,
                      confirm: bytes) -> bytes:
    """H(challenge || tag_reply || confirm)."""
    return hash_digest(challenge + tag_reply + confirm, params.hash_bits)


def binder_value(
    params: PopParams, pop_key: bytes, trs_digest: bytes, pop_challenge: bytes
) -> bytes:
    return prf_eval(params.mask_prf, pop_key, trs_digest + pop_challenge)


def signature_mask(params: PopParams, pop_key: bytes, binder: bytes) -> bytes:
    return prf_eval(params.mask_prf, pop_key, binder, out_bits=8 * params.sig_bytes)


def signature_tag(params: PopParams, pop_key: bytes, sig: bytes) -> bytes:
    return prf_eval(params.mask_prf, pop_key, sig)


def _split_finalize(params: PopParams, payload: bytes) -> tuple[bytes, bytes, bytes]:
    """confirm, pop_challenge, binder of a wrapped third message."""
    hash_bytes = params.hash_bits // 8
    return split(payload, params.out_bits // 8, hash_bytes, hash_bytes)


def _split_final_reply(params: PopParams, payload: bytes) -> tuple[bytes, bytes]:
    """masked_sig, sig_tag of the tag's fourth message."""
    return split(payload, params.sig_bytes, params.hash_bits // 8)


class PopProtocol(MaProtocol):
    """The interior protocol's session machine plug-in, extended by the
    possession rounds 2 and 3. Every session runs all four rounds: the round-2
    slot admits only the wrapped third message."""

    name = "mapop"
    record_mode = "pop"

    def __init__(self, params: PopParams, reader_signer: FullTimeSigner):
        super().__init__(params)
        self.reader_signer = reader_signer
        self._slots = self._slots[:2] + (params.finalize_bits // 8,
                                         params.final_reply_bits // 8)

    # The benchmark tracer wraps each protocol class's own callbacks
    # (`cls.__dict__`), so the inherited ones are bound here by name.
    reader_open = MaProtocol.reader_open
    tag_respond = MaProtocol.tag_respond
    tag_terminal = MaProtocol.tag_terminal

    def reader_on_message(self, db, session, msg: Msg, rng: Rng) -> Action:
        """Round 1 as MA; on accept, send the wrapped third message."""
        if msg.round == 3:
            return self._reader_on_final(db, session, msg)
        action = super().reader_on_message(db, session, msg, rng)
        if action.output != 1:
            return action
        params = self.params
        pop_key = session.changed.pop_key
        nonce = rng.take_bits(params.hash_bits)
        pop_challenge = hash_digest(self.reader_signer.sign(nonce), params.hash_bits)
        trs = transcript_digest(params, session.challenge, msg.payload, action.payload)
        binder = binder_value(params, pop_key, trs, pop_challenge)
        session.pop_nonce = nonce
        session.scratch = (action.tag_id, action.via_step)
        return Action(action.payload + pop_challenge + binder)

    def _reader_on_final(self, db, session, msg: Msg) -> Action:
        """Unmask the tag's possession signature; accept iff it verifies
        under the tag's key and sig_tag matches."""
        tag_id, via_step = session.scratch
        record = db.get(tag_id)
        _, pop_challenge, binder = _split_finalize(self.params, session.messages[2])
        masked, tag_check = _split_final_reply(self.params, msg.payload)
        sig = xor(masked, signature_mask(self.params, record.pop_key, binder))
        # sig_tag is computed only for a signature that verifies.
        if (
            record.verify_key.verify(pop_challenge, sig)
            and signature_tag(self.params, record.pop_key, sig) == tag_check
        ):
            return Action(output=1, tag_id=tag_id, via_step=via_step)
        return Action(output=0, note="possession proof invalid")

    def tag_on_message(self, state: PopTagState, scratch, msg: Msg, rng: Rng):
        """Validate the wrapped third message; on success sign and reply
        together with the terminal output, spending a copy of the signer."""
        params = self.params
        confirm, pop_challenge, binder = _split_finalize(params, msg.payload)
        if not ma_tag_verify(params, state, scratch, confirm):
            return Action(output=0, note="interior confirmation invalid"), state
        trs = transcript_digest(params, scratch.challenge, scratch.reply, confirm)
        if binder_value(params, state.pop_key, trs, pop_challenge) != binder:
            return Action(output=0, note="binder invalid"), state
        signer = copy.copy(state.signer)
        try:
            sig = signer.sign(pop_challenge)
        except (KTimeExhausted, PairPoolExhausted) as exc:
            return Action(output=0, note=f"signing unavailable: {exc}"), state
        masked = xor(signature_mask(params, state.pop_key, binder), sig)
        reply = masked + signature_tag(params, state.pop_key, sig)
        return Action(reply, 1), state.evolve(signer=signer)


CRED_VERSION = 0x01


@dataclass(frozen=True)
class Credential:
    """Transferable proof that `tag_id` was in the reader's field during an
    accepted session."""

    reader_id: bytes
    tag_id: bytes
    nonce: bytes  # cred1: the reader's fresh nonce r'
    issuer_sig: bytes  # cred2: Sign_reader(r')
    possession_sig: bytes  # cred3: Sign_tag(H(cred2))

    def fields(self) -> tuple[bytes, ...]:
        return (self.reader_id, self.tag_id, self.nonce, self.issuer_sig, self.possession_sig)

    def encode(self) -> bytes:
        out = [bytes([CRED_VERSION])]
        for f in self.fields():
            if len(f) > 0xFFFF:
                raise FrameError("credential field too long")
            out.append(struct.pack(">H", len(f)))
            out.append(f)
        return b"".join(out)

    @classmethod
    def decode(cls, data: bytes) -> "Credential":
        if not data or data[0] != CRED_VERSION:
            raise FrameError("bad credential version byte")
        fields = []
        at = 1
        for _ in range(5):
            if at + 2 > len(data):
                raise FrameError("truncated credential")
            (n,) = struct.unpack(">H", data[at : at + 2])
            at += 2
            if at + n > len(data):
                raise FrameError("truncated credential field")
            fields.append(data[at : at + n])
            at += n
        if at != len(data):
            raise FrameError("trailing bytes after credential")
        return cls(*fields)


def cred_gen(
    params: PopParams,
    reader: Reader,
    reader_signer: FullTimeSigner,
    j: int,
) -> Optional[Credential]:
    """Rebuild the credential for accepted session j from the snapshot; None
    for rejected or timed-out sessions.

    The tag's possession signature is recovered by recomputing the mask from
    the masking key in the tag's record as the session found it; it is never
    stored. A history loaded from a database file keeps every session's
    messages and nonce, so a restarted reader rebuilds the credential of any
    journaled session as the live one did."""
    record = reader.history.session(j)
    if record.o_reader != 1 or record.tag_id is None:
        return None
    tag_record = reader.history.record_at(record.tag_id, j - 1)
    nonce = record.pop_nonce
    issuer_sig = reader_signer.sign(nonce)
    # An accepted session ran all four rounds: rounds 2 and 3 end the packed
    # payloads.
    finalize = params.finalize_bits // 8
    tail = record.messages[-(finalize + params.final_reply_bits // 8):]
    _, _, binder = _split_finalize(params, tail[:finalize])
    masked, _ = _split_final_reply(params, tail[finalize:])
    possession = xor(masked, signature_mask(params, tag_record.pop_key, binder))
    return Credential(
        reader_id=reader.reader_id,
        tag_id=record.tag_id,
        nonce=nonce,
        issuer_sig=issuer_sig,
        possession_sig=possession,
    )


def cred_veri(params: PopParams, directory: KeyDirectory, cred: Credential) -> int:
    """1 iff the possession signature and the issuer signature both verify
    under the directory's keys; unknown parties and malformed values give 0.

    The possession signature goes first. The reader verified an issued
    credential's possession signature in the session's last round, under the
    key object the directory holds, so that check is answered from the key's
    memo. A spliced or guessed possession signature fails it, and then the
    issuer signature is not checked at all. Both must pass, so the order
    changes no verdict. In process, the directory's reader key is the one
    the reader's signer made, so the issuer check of the nonce that signer
    signed last is answered from the signer's memory (`primitives.sig`); a
    key loaded from a file checks it in full."""
    issuer_key = directory.key_for(cred.reader_id)
    tag_key = directory.key_for(cred.tag_id)
    if issuer_key is None or tag_key is None:
        return 0
    pop_challenge = hash_digest(cred.issuer_sig, params.hash_bits)
    if not tag_key.verify(pop_challenge, cred.possession_sig):
        return 0
    if not issuer_key.verify(cred.nonce, cred.issuer_sig):
        return 0
    return 1


def pop_setup(
    params: PopParams, tag_count: int, rng: Rng, reader_id: bytes
) -> tuple[list[PopTagState], list[PopReaderRecord], KeyDirectory, FullTimeSigner]:
    """Extend the interior setup with masking keys and signature keypairs."""
    reader_signer, reader_vk = fulltime_keygen(rng)
    entries = {reader_id: reader_vk}
    tags = []
    records = []
    for i in range(tag_count):
        tag_id = tag_id_for(i)
        key = rng.take_bits(params.key_bits)
        pop_key = rng.take_bits(params.pop_key_bits)
        if params.sig_impl == IMPL_FULLTIME:
            signer, vk = fulltime_keygen(rng)
        elif params.sig_impl == IMPL_POOLED:
            signer, vk = fulltime_keygen(rng, pool_size=params.pool_size)
        else:
            signer, vk = ktime_keygen(rng, params.k_time)
        tags.append(PopTagState(tag_id=tag_id, key=key, ctr=1, pop_key=pop_key, signer=signer))
        records.append(PopReaderRecord(
            tag_id=tag_id,
            key=key,
            ctr=1,
            index=index_for(params, key, 1),
            pop_key=pop_key,
            verify_key=vk,
        ))
        entries[tag_id] = vk
    return tags, records, KeyDirectory(entries=entries), reader_signer
