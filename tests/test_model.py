"""Session state machines: reader bookkeeping, tag restarts, history snapshots."""

import pytest

from rfpop.errors import (
    LifetimeExceeded,
    NoOpenSession,
    SessionInProgress,
    UnknownSnapshot,
)
from rfpop.model.session import Tag
from rfpop.model.types import IGNORE, Msg, StepOutcome
from rfpop.primitives.bitstring import flip_bit
from rfpop.primitives.rng import Rng


@pytest.mark.parametrize(
    "msg, output, kind",
    [
        (None, None, "ignore"),
        (None, 0, "output"),
        (Msg(1, bytes(1)), None, "reply"),
        (Msg(1, bytes(1)), 1, "reply_output"),
    ],
    ids=["ignore", "output", "reply", "reply_output"],
)
def test_step_outcome_kind_follows_msg_and_output(msg, output, kind):
    assert StepOutcome(bytes(16), msg, output).kind == kind
    assert IGNORE.kind == "ignore"


def test_honest_session_accepts_and_identifies(ma_system, rng):
    tag_id = ma_system.first_tag_id()
    trs = ma_system.run_honest(tag_id)
    assert trs.o_reader == 1
    assert trs.o_tag == 1
    assert len(trs.messages) == 3
    record = ma_system.reader.history.session(1)
    assert record.o_reader == 1
    assert record.tag_id == tag_id
    assert record.via_step == 1


def test_reader_refuses_concurrent_sessions(ma_system, rng):
    ma_system.reader.start(rng)
    with pytest.raises(SessionInProgress):
        ma_system.reader.start(rng)


def test_reader_step_without_session_raises(ma_system, rng):
    msg = Msg(1, bytes(96))
    with pytest.raises(NoOpenSession):
        ma_system.reader.step(bytes(16), msg, rng)
    with pytest.raises(NoOpenSession):
        ma_system.reader.timeout()


def test_reader_ignores_wrong_sid(ma_system, rng):
    sid, _ = ma_system.reader.start(rng)
    other = flip_bit(sid, 127)
    out = ma_system.reader.step(other, Msg(1, bytes(96)), rng)
    assert out.kind == "ignore"
    assert ma_system.reader.session is not None


def test_reader_rejects_message_outside_round_space(ma_system, rng):
    sid, _ = ma_system.reader.start(rng)
    # Correct round number but a length no slot permits.
    out = ma_system.reader.step(sid, Msg(1, bytes(1)), rng)
    assert out.kind == "output"
    assert out.output == 0
    assert ma_system.reader.session is None
    record = ma_system.reader.history.session(1)
    assert record.o_reader == 0
    assert record.tag_id is None


def test_reader_rejects_out_of_turn_round(ma_system, rng):
    sid, challenge = ma_system.reader.start(rng)
    # Replaying the reader's own round-0 challenge is outside the awaited round.
    out = ma_system.reader.step(sid, challenge, rng)
    assert out.kind == "output"
    assert out.output == 0


def test_reader_timeout_closes_with_zero(ma_system, rng):
    sid, _ = ma_system.reader.start(rng)
    out = ma_system.reader.timeout()
    assert out.kind == "output"
    assert out.output == 0
    record = ma_system.reader.history.session(1)
    assert record.o_reader == 0
    assert record.note == "timeout"
    assert record.sid == sid


def test_tag_timeout_closes_with_zero(ma_system, rng):
    tag = ma_system.tag(ma_system.first_tag_id())
    with pytest.raises(NoOpenSession):
        tag.timeout()
    sid, challenge = ma_system.reader.start(rng)
    tag.step(sid, challenge, rng)
    out = tag.timeout()
    assert (out.sid, out.msg, out.output) == (sid, None, 0)
    assert tag.session is None
    assert (tag.note, tag.key_version) == ("timeout", 1)


def test_tag_restart_voids_open_session(ma_system, rng):
    tag = ma_system.tag(ma_system.first_tag_id())
    sid1 = rng.take_bits(128)
    c1 = rng.take_bits(256)
    first = tag.step(sid1, Msg(0, c1), rng)
    assert first.kind == "reply"
    version_before = tag.key_version
    sid2 = rng.take_bits(128)
    second = tag.step(sid2, Msg(0, rng.take_bits(256)), rng)
    assert second.kind == "reply_output"
    assert second.output == 0
    assert tag.key_version == version_before + 1
    assert tag.session is not None
    assert tag.session.sid == sid2


def test_tag_ignores_unrelated_messages(ma_system, rng):
    tag = ma_system.tag(ma_system.first_tag_id())
    sid = rng.take_bits(128)
    # No session open: a round-2 message goes nowhere.
    assert tag.step(sid, Msg(2, rng.take_bits(256)), rng).kind == "ignore"
    tag.step(sid, Msg(0, rng.take_bits(256)), rng)
    # Wrong sid, wrong round, wrong length are all ignored mid-session.
    other = flip_bit(sid, 127)
    assert tag.step(other, Msg(2, rng.take_bits(256)), rng).kind == "ignore"
    assert tag.step(sid, Msg(1, rng.take_bits(96 * 8)), rng).kind == "ignore"
    assert tag.step(sid, Msg(2, rng.take_bits(8)), rng).kind == "ignore"
    assert tag.session is not None


def test_tag_lifetime_bound(ma_system, rng):
    tag = ma_system.tag(ma_system.first_tag_id())
    limited = Tag(tag.protocol, tag.state, lifetime=2)
    for _ in range(2):
        sid = rng.take_bits(128)
        limited.step(sid, Msg(0, rng.take_bits(256)), rng)
        limited.step(sid, Msg(0, rng.take_bits(256)), rng)  # restart consumes a life
        limited.session = None
        limited.key_version -= 1  # keep one restart per loop iteration
    limited.key_version = 2
    with pytest.raises(LifetimeExceeded):
        limited.step(rng.take_bits(128), Msg(0, rng.take_bits(256)), rng)


def test_completed_session_bumps_key_version(ma_system):
    tag_id = ma_system.first_tag_id()
    tag = ma_system.tag(tag_id)
    before = tag.key_version
    ma_system.run_honest(tag_id)
    assert tag.key_version == before + 1
    assert tag.session is None


def test_history_snapshots_replay_counter_updates(ma_system):
    tag_id = ma_system.first_tag_id()
    key = tag_id
    history = ma_system.reader.history
    assert history.db_at(0)[key].ctr == 1
    ma_system.run_honest(tag_id)
    ma_system.run_honest(tag_id)
    assert history.db_at(0)[key].ctr == 1
    assert history.db_at(1)[key].ctr == 2
    assert history.db_at(2)[key].ctr == 3
    with pytest.raises(UnknownSnapshot):
        history.db_at(3)
    with pytest.raises(UnknownSnapshot):
        history.db_at(-1)
    with pytest.raises(UnknownSnapshot):
        history.session(0)


def test_history_maps_sid_to_session_number(ma_system):
    tag_id = ma_system.first_tag_id()
    ma_system.run_honest(tag_id)
    ma_system.run_honest(tag_id)
    history = ma_system.reader.history
    for j in (1, 2):
        assert history.j_for_sid(history.session(j).sid) == j
    assert history.j_for_sid(bytes(16)) is None


def test_delta_only_contains_touched_records(ma_system):
    tag_id = ma_system.first_tag_id()
    ma_system.run_honest(tag_id)
    record = ma_system.reader.history.session(1)
    assert set(record.delta) == {tag_id}
    assert record.delta[tag_id].ctr == 2


def test_transcripts_deterministic_under_same_seed():
    from rfpop.system import build_ma_system

    runs = []
    for _ in range(2):
        system = build_ma_system(Rng("model-determinism"), tag_count=3)
        trs = system.run_honest(system.first_tag_id())
        runs.append([m.payload for m in trs.messages])
    assert runs[0] == runs[1]


def test_interleaved_sessions_across_tags(ma_system):
    ids = ma_system.tag_ids()
    order = [ids[i % len(ids)] for i in range(7)]
    for tag_id in order:
        trs = ma_system.run_honest(tag_id)
        assert trs.o_reader == 1 and trs.o_tag == 1
    history = ma_system.reader.history
    assert [history.session(j + 1).tag_id for j in range(7)] == order


@pytest.mark.parametrize("mode", ["ma", "mapop", "cex"])
def test_descriptors_and_slots_are_built_once(mode):
    from rfpop.app.config import Config

    system = Config(mode=mode, tags=1).build_system()
    params = system.params
    assert params.prf is params.prf
    if mode == "mapop":
        assert params.mask_prf is params.mask_prf
    assert system.protocol.slots() is system.protocol.slots()


@pytest.mark.parametrize("mode", ["ma", "cex"])
def test_tag_names_a_failed_confirmation(mode):
    """A three-message session whose confirmation lost one bit: the tag
    rejects and says why."""
    from rfpop.app.config import Config

    system = Config(mode=mode, tags=1).build_system()
    reader, tag, rng = system.reader, system.tag(system.first_tag_id()), system.rng
    sid, challenge = reader.start(rng)
    reply = tag.step(sid, challenge, rng).msg
    confirm = reader.step(sid, reply, rng).msg
    out = tag.step(sid, Msg(confirm.round, flip_bit(confirm.payload, 0)), rng)
    assert out.output == 0
    assert tag.note == "confirmation invalid"
