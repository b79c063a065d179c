"""Proof-of-possession layer: wrapped finalize, possession reply, credentials."""

import dataclasses

import pytest

from rfpop.errors import FrameError, LengthMismatch
from rfpop.ma import MaProtocol, MaTagState, confirm_value, ma_tag_respond
from rfpop.model.types import Msg
from rfpop.pop import (
    IMPL_FULLTIME,
    IMPL_KTIME,
    IMPL_POOLED,
    CRED_VERSION,
    Credential,
    PopParams,
    PopProtocol,
    binder_value,
    cred_gen,
    cred_veri,
    signature_mask,
    signature_tag,
    transcript_digest,
)
from rfpop.primitives.bitstring import flip_bit, split, xor
from rfpop.primitives.prf import hash_digest
from rfpop.primitives.rng import Rng
from rfpop.primitives.sig import fulltime_keygen
from rfpop.system import build_pop_system, mapop_session


def test_pop_params_run_the_interior_length_checks():
    with pytest.raises(LengthMismatch):
        PopParams(out_bits=12)


def test_pop_protocol_extends_the_interior_protocol():
    assert issubclass(PopProtocol, MaProtocol)


def test_honest_session_four_messages(pop_system):
    tag_id = pop_system.first_tag_id()
    trs = mapop_session(pop_system, tag_id)
    assert trs.o_reader == 1 and trs.o_tag == 1
    assert len(trs.messages) == 4
    record = pop_system.reader.history.session(1)
    assert record.mode == "pop"
    assert record.via_step == 1
    assert record.tag_id == tag_id


def test_run_honest_refuses_a_plain_session(pop_system):
    with pytest.raises(ValueError):
        pop_system.run_honest(mode="ma")
    assert pop_system.reader.history.sessions == []
    assert pop_system.run_honest(mode="pop").completed


def test_interior_rounds_unchanged(pop_system):
    # The first two messages are exactly the interior protocol's: replaying
    # the tag's round-1 computation from a copy of the interior state with the
    # same randomness reproduces the wire bytes bit for bit.
    tag_id = pop_system.first_tag_id()
    tag = pop_system.tag(tag_id)
    interior_copy = MaTagState(tag_id=tag.state.tag_id, key=tag.state.key, ctr=tag.state.ctr)
    probe = Rng("interior-probe")
    replay = Rng("interior-probe")
    sid = probe.take_bits(128)
    challenge = probe.take_bits(pop_system.params.challenge_bits)
    replay.take_bits(128)
    replay.take_bits(pop_system.params.challenge_bits)
    out = tag.step(sid, Msg(0, challenge), probe)
    reply, _ = ma_tag_respond(pop_system.params, interior_copy, challenge, replay)
    assert out.msg.payload == reply.payload()


def test_finalize_message_structure(pop_system):
    params = pop_system.params
    tag_id = pop_system.first_tag_id()
    trs = mapop_session(pop_system, tag_id)
    record = pop_system.reader.history.session(1)
    tag_record = pop_system.reader.history.db_at(0)[tag_id]
    challenge = trs.messages[0].payload
    tag_reply = trs.messages[1].payload
    out, hash_len = params.out_bits // 8, params.hash_bits // 8
    confirm, pop_challenge, binder = split(trs.messages[2].payload, out, hash_len, hash_len)
    # confirm: interior confirmation for the post-update counter.
    assert confirm == confirm_value(
        params,
        tag_record.key,
        challenge,
        tag_record.ctr + 1,
        split(tag_reply, out, params.nonce_bits // 8, out)[1],
    )
    # pop_challenge: hash of the issuer signature on the session nonce.
    issuer_sig = pop_system.reader_signer.sign(record.coins["pop_nonce"])
    assert pop_challenge == hash_digest(issuer_sig, params.hash_bits)
    # binder: masked transcript digest under the shared masking key.
    trs_digest = transcript_digest(params, challenge, tag_reply, confirm)
    assert binder == binder_value(params, tag_record.pop_key, trs_digest, pop_challenge)
    # final reply: masked signature plus signature tag, both recomputable.
    masked, tag_check = split(trs.messages[3].payload, params.sig_bytes, hash_len)
    sig = xor(masked, signature_mask(params, tag_record.pop_key, binder))
    vk = pop_system.directory.key_for(tag_id)
    assert vk.verify(pop_challenge, sig)
    assert signature_tag(params, tag_record.pop_key, sig) == tag_check


def step_by_step_session(system, tamper_round2=None, tamper_round3=None):
    """Drive one extended session manually; returns (o_reader, o_tag)."""
    tag = system.tag(system.first_tag_id())
    reader = system.reader
    rng = system.rng
    sid, challenge = reader.start(rng)
    t1 = tag.step(sid, challenge, rng)
    r1 = reader.step(sid, t1.msg, rng)
    assert r1.kind == "reply" and r1.output is None  # reader output deferred
    m3 = r1.msg
    if tamper_round2 is not None:
        m3 = Msg(m3.round, flip_bit(m3.payload, tamper_round2))
    t2 = tag.step(sid, m3, rng)
    o_tag = t2.output
    if t2.msg is None:
        reader.timeout()
        return 0, o_tag
    m4 = t2.msg
    if tamper_round3 is not None:
        m4 = Msg(m4.round, flip_bit(m4.payload, tamper_round3))
    r2 = reader.step(sid, m4, rng)
    return r2.output, o_tag


def test_reader_output_deferred_to_final_message(pop_system):
    o_reader, o_tag = step_by_step_session(pop_system)
    assert (o_reader, o_tag) == (1, 1)


def test_tamper_rejection_each_finalize_field():
    params = PopParams()
    # One bit in confirm, pop_challenge, and binder respectively.
    for pos in (0, params.out_bits, params.out_bits + params.hash_bits):
        system = build_pop_system(Rng(f"m3-tamper-{pos}"), tag_count=2)
        o_reader, o_tag = step_by_step_session(system, tamper_round2=pos)
        assert (o_reader, o_tag) == (0, 0)
        assert system.reader.history.session(1).o_reader == 0


def test_tag_keeps_its_reject_reason():
    params = PopParams()
    system = build_pop_system(Rng("tag-note"), tag_count=2)
    tag = system.tag(system.first_tag_id())
    assert step_by_step_session(system) == (1, 1)
    assert tag.note == ""
    binder_byte = (params.out_bits + params.hash_bits) // 8
    assert step_by_step_session(system, tamper_round2=8 * binder_byte + 3) == (0, 0)
    assert tag.note == "binder invalid"
    # A tag whose masking key differs from the reader's refuses to sign.
    tag.state.pop_key = flip_bit(tag.state.pop_key, 0)
    assert step_by_step_session(system) == (0, 0)
    assert tag.note == "binder invalid"


def test_tamper_rejection_each_final_reply_field():
    params = PopParams()
    # One bit in the masked signature and in the signature tag respectively.
    for pos in (0, 8 * params.sig_bytes):
        system = build_pop_system(Rng(f"m4-tamper-{pos}"), tag_count=2)
        o_reader, o_tag = step_by_step_session(system, tamper_round3=pos)
        assert o_tag == 1  # the tag already accepted and replied
        assert o_reader == 0
        assert system.reader.history.session(1).note == "possession proof invalid"


def test_dropped_final_message_times_out_reader(pop_system):
    tag = pop_system.tag(pop_system.first_tag_id())
    reader = pop_system.reader
    rng = pop_system.rng
    sid, challenge = reader.start(rng)
    t1 = tag.step(sid, challenge, rng)
    reader.step(sid, t1.msg, rng)
    tag.step(sid, Msg(2, t1.msg.payload), rng)  # wrong shape, ignored by the tag
    out = reader.timeout()
    assert out.output == 0
    assert reader.history.session(1).note == "timeout"


def test_truncated_finalize_is_ignored(pop_system):
    """The round-2 slot admits only the wrapped third message: cut to the
    length of an MA confirmation, it is ignored, and the faithful message
    still completes the session."""
    params = pop_system.params
    tag = pop_system.tag(pop_system.first_tag_id())
    reader, rng = pop_system.reader, pop_system.rng
    sid, challenge = reader.start(rng)
    t1 = tag.step(sid, challenge, rng)
    finalize = reader.step(sid, t1.msg, rng).msg
    cut = tag.step(sid, Msg(2, finalize.payload[: params.out_bits // 8]), rng)
    assert cut.kind == "ignore"
    t2 = tag.step(sid, finalize, rng)
    assert t2.output == 1
    assert reader.step(sid, t2.msg, rng).output == 1


def test_exhausted_signer_fails_closed():
    params = PopParams(sig_impl=IMPL_KTIME, k_time=1)
    system = build_pop_system(Rng("exhaust"), tag_count=1, params=params, lifetime=8)
    assert mapop_session(system).o_reader == 1  # consumes the only signature
    o_reader, o_tag = step_by_step_session(system)
    assert (o_reader, o_tag) == (0, 0)


@pytest.mark.parametrize(
    "impl,params",
    [
        (IMPL_FULLTIME, PopParams()),
        (IMPL_POOLED, PopParams(sig_impl=IMPL_POOLED, pool_size=16)),
        (IMPL_KTIME, PopParams(sig_impl=IMPL_KTIME, k_time=8)),
    ],
)
def test_each_signature_instantiation_round_trips(impl, params):
    system = build_pop_system(Rng(f"impl-{impl}"), tag_count=2, params=params, lifetime=8)
    trs = mapop_session(system)
    assert trs.o_reader == 1 and trs.o_tag == 1
    cred = cred_gen(params, system.reader, system.reader_signer, 1)
    assert cred_veri(params, system.directory, cred) == 1


def test_credential_contents_and_independent_signature(pop_system):
    tag_id = pop_system.first_tag_id()
    mapop_session(pop_system, tag_id)
    params = pop_system.params
    cred = cred_gen(params, pop_system.reader, pop_system.reader_signer, 1)
    assert cred.reader_id == b"reader-0"
    assert cred.tag_id == tag_id
    assert cred_veri(params, pop_system.directory, cred) == 1
    # The recovered possession signature equals what the tag's signer produces
    # on the hash of the issuer signature, bit for bit.
    pop_challenge = hash_digest(cred.issuer_sig, params.hash_bits)
    expected = pop_system.tag(tag_id).state.signer.sign(pop_challenge)
    assert cred.possession_sig == expected


def test_cred_gen_none_for_failed_sessions(pop_system):
    rng = pop_system.rng
    pop_system.reader.start(rng)
    pop_system.reader.timeout()
    assert cred_gen(pop_system.params, pop_system.reader, pop_system.reader_signer, 1) is None


def test_cred_veri_rejects_each_broken_field(pop_system):
    mapop_session(pop_system)
    params = pop_system.params
    directory = pop_system.directory
    cred = cred_gen(params, pop_system.reader, pop_system.reader_signer, 1)

    def mutate(**kw):
        return dataclasses.replace(cred, **kw)

    assert cred_veri(params, directory, mutate(reader_id=b"reader-9")) == 0
    assert cred_veri(params, directory, mutate(tag_id=b"\xff" * 32)) == 0
    # Another enrolled tag's key cannot verify this tag's signature either.
    assert cred_veri(params, directory, mutate(tag_id=pop_system.tag_ids()[1])) == 0
    assert cred_veri(params, directory, mutate(nonce=bytes(32))) == 0
    bad_issuer = bytes([cred.issuer_sig[0] ^ 1]) + cred.issuer_sig[1:]
    assert cred_veri(params, directory, mutate(issuer_sig=bad_issuer)) == 0
    bad_pop = bytes([cred.possession_sig[0] ^ 1]) + cred.possession_sig[1:]
    assert cred_veri(params, directory, mutate(possession_sig=bad_pop)) == 0
    assert cred_veri(params, directory, cred) == 1


def test_credential_encoding_round_trip(pop_system):
    mapop_session(pop_system)
    cred = cred_gen(pop_system.params, pop_system.reader, pop_system.reader_signer, 1)
    blob = cred.encode()
    assert blob[0] == CRED_VERSION
    assert Credential.decode(blob) == cred
    with pytest.raises(FrameError):
        Credential.decode(b"")
    with pytest.raises(FrameError):
        Credential.decode(bytes([CRED_VERSION + 1]) + blob[1:])
    with pytest.raises(FrameError):
        Credential.decode(blob[:-1])
    with pytest.raises(FrameError):
        Credential.decode(blob + b"\x00")


def test_key_directory_lookup_and_registration(pop_system):
    directory = pop_system.directory
    tag_id = pop_system.first_tag_id()
    assert directory.key_for(tag_id) is not None
    assert directory.key_for(b"nobody") is None
    _, vk = fulltime_keygen(Rng("extra-key"))
    directory.register_extra(b"adversary-0", vk)
    assert directory.key_for(b"adversary-0") is vk
    with pytest.raises(ValueError):
        directory.register_extra(tag_id, vk)
