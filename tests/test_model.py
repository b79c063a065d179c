"""Session state machines: reader bookkeeping, tag restarts, history snapshots."""

import collections
import copy
import dataclasses
import gc
import tracemalloc

import pytest

from rfpop.errors import (
    LifetimeExceeded,
    NoOpenSession,
    SessionInProgress,
    UnknownSnapshot,
)
from rfpop.harness.blinded import SessionWorld, blinded_world
from rfpop.ma import MaAuthResult, MaTagReply
from rfpop.model.session import Action, Tag, run_honest_session
from rfpop.model.types import IGNORE, Msg, StepOutcome
from rfpop.pop import Credential, cred_gen
from rfpop.primitives.bitstring import flip_bit
from rfpop.primitives.prf import hash_digest
from rfpop.primitives.rng import Rng
from rfpop.system import build_ma_system


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


@pytest.mark.parametrize(
    "cls, fields, defaults",
    [
        (Action, ("payload", "output", "tag_id", "via_step", "note"), (None, None, None, None, "")),
        (StepOutcome, ("sid", "msg", "output"), (None, None, None)),
        (MaTagReply, ("index", "nonce", "masked_ctr"), ()),
        (MaAuthResult, ("accepted", "tag_id", "confirm", "via_step"), (None, None, 0)),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_per_step_values_keep_their_fields_and_refuse_assignment(cls, fields, defaults):
    value = cls(*range(len(fields)))
    assert [getattr(value, name) for name in fields] == list(range(len(fields)))
    required = len(fields) - len(defaults)
    bare = cls(*range(required))
    assert tuple(getattr(bare, name) for name in fields[required:]) == defaults
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, "changed")
    assert StepOutcome().kind == "ignore"
    assert MaAuthResult(False).via_step == 0


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


def test_reader_sinks_each_record_before_it_keeps_it(ma_system, rng):
    """The sink sees each closed session (accept, reject, out-of-space
    message, timeout) before `step` or `timeout` returns it and before
    `history` holds it."""
    reader = ma_system.reader
    tag = ma_system.tag(ma_system.first_tag_id())
    sunk = []

    def sink(record):
        sunk.append((record, len(reader.history.sessions)))

    reader.sink = sink
    run_honest_session(reader, tag, rng)
    sid, challenge = reader.start(rng)
    reply = tag.step(sid, challenge, rng).msg
    assert reader.step(sid, Msg(1, flip_bit(reply.payload, 0)), rng).output == 0
    tag.timeout()
    sid, _ = reader.start(rng)
    assert reader.step(sid, Msg(1, bytes(1)), rng).output == 0
    reader.start(rng)
    assert reader.timeout().output == 0

    assert [record for record, _kept in sunk] == reader.history.sessions
    assert [kept for _record, kept in sunk] == [0, 1, 2, 3]
    assert [(r.o_reader, r.note) for r in reader.history.sessions] == [
        (1, ""), (0, ""), (0, "message outside expected round space"), (0, "timeout")]


def test_reader_keeps_no_record_its_sink_refused(ma_system, rng):
    class SinkDown(Exception):
        pass

    def sink(record):
        raise SinkDown

    reader = ma_system.reader
    run_honest_session(reader, ma_system.tag(ma_system.first_tag_id()), rng)
    reader.sink = sink
    reader.start(rng)
    with pytest.raises(SinkDown):
        reader.timeout()
    assert len(reader.history.sessions) == 1


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
    assert record.changed.tag_id == tag_id
    assert record.changed.ctr == 2


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


TAG_CALLBACKS = ("tag_respond", "tag_on_message", "tag_terminal")


class InputStateChecker:
    """A protocol wrapper that checks each tag callback leaves the state it
    is given equal to a deep copy taken before the call."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.calls = collections.Counter()

    def __getattr__(self, name):
        callback = getattr(self.protocol, name)
        if name not in TAG_CALLBACKS:
            return callback

        def checked(state, *args):
            before = copy.deepcopy(state)
            result = callback(state, *args)
            assert state == before, name
            self.calls[name] += 1
            return result

        return checked


def _system_for(name):
    from rfpop.app.config import Config

    mode, _, impl = name.partition("-")
    return Config(mode=mode, impl=impl or "impl1", K=8, tags=1).build_system()


@pytest.mark.parametrize("name", ["ma", "cex", "mapop-impl1", "mapop-impl2", "mapop-impl3"])
def test_tag_states_are_frozen(name):
    system = _system_for(name)
    state = system.tag(system.first_tag_id()).state
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.ctr = 0


@pytest.mark.parametrize("name", ["ma", "cex", "mapop-impl1"])
def test_each_session_records_only_its_own_change(name):
    """A record put between sessions is no session's change: a session that
    times out or rejects at round 1 records None, an accepted one the record
    its own round 1 put."""
    system = _system_for(name)
    reader, rng = system.reader, system.rng
    tag_id = system.first_tag_id()
    stray = reader.db.get(tag_id)
    reader.db.put(stray)
    reader.start(rng)
    reader.timeout()
    reader.db.put(stray)
    sid, _ = reader.start(rng)
    assert reader.step(sid, Msg(1, bytes(system.protocol.slots()[1])), rng).output == 0
    reader.db.put(stray)
    system.run_honest(tag_id)
    history = reader.history
    assert [history.session(j).changed for j in (1, 2)] == [None, None]
    assert history.session(3).changed is reader.db.get(tag_id) is not stray
    assert history.changed_in == {tag_id: [3]}


@pytest.mark.parametrize(
    "name", ["ma", "cex", "mapop-impl1", "mapop-impl2", "mapop-impl3", "ledger"]
)
def test_tag_callbacks_leave_their_input_state_alone(name):
    """An honest session, one voided by a new challenge, one timed out and one
    whose confirmation fails, each callback checked against a deep copy of
    its input; `ledger` is the b=0 world's plug-in."""
    system = _system_for("mapop-impl1" if name == "ledger" else name)
    world = SessionWorld(system.reader, system.tags, system.rng)
    if name == "ledger":
        world = blinded_world(system, Rng("input-state-ledger"))
    reader, rng = world.reader, world.rng
    tag = world.tags[system.first_tag_id()]
    checker = tag.protocol = InputStateChecker(tag.protocol)
    run_honest_session(reader, tag, rng)
    sid, challenge = reader.start(rng)
    tag.step(sid, challenge, rng)
    reader.timeout()
    run_honest_session(reader, tag, rng)
    sid, challenge = reader.start(rng)
    tag.step(sid, challenge, rng)
    tag.timeout()
    reader.timeout()
    sid, challenge = reader.start(rng)
    reply = tag.step(sid, challenge, rng).msg
    confirm = reader.step(sid, reply, rng).msg
    assert tag.step(sid, Msg(confirm.round, flip_bit(confirm.payload, 0)), rng).output == 0
    assert tag.key_version == 5
    assert checker.calls == {"tag_respond": 5, "tag_on_message": 3, "tag_terminal": 5}


@pytest.mark.parametrize("flip", [False, True], ids=["valid", "bit-flipped"])
@pytest.mark.parametrize(
    "name",
    ["ma", "cex", "mapop-impl1", "mapop-impl2", "mapop-impl3", "ledger-ma", "ledger-mapop"],
)
def test_sessions_keep_the_machine_contract(name, flip):
    """The session shape the machines rely on: a tag's round-2 delivery,
    valid or with one bit flipped, ends its session with an output (and at
    most a round-3 reply), and every reader step that gives no output sends
    the next round. `ledger-*` is the b=0 world's plug-in on that protocol's
    slots."""
    system = _system_for(name.removeprefix("ledger-"))
    world = SessionWorld(system.reader, system.tags, system.rng)
    if name.startswith("ledger-"):
        world = blinded_world(system, Rng("contract-ledger"))
    reader, rng = world.reader, world.rng
    tag = world.tags[system.first_tag_id()]

    def reader_step(sid, msg):
        out = reader.step(sid, msg, rng)
        assert out.output is not None or (out.msg is not None and out.msg.round == msg.round + 1)
        return out

    sid, challenge = reader.start(rng)
    reply = tag.step(sid, challenge, rng)
    assert reply.output is None and reply.msg.round == 1
    to_tag = reader_step(sid, reply.msg).msg
    assert to_tag.round == 2
    if flip:
        to_tag = Msg(2, flip_bit(to_tag.payload, 0))
    end = tag.step(sid, to_tag, rng)
    assert end.output == (0 if flip else 1)
    assert tag.session is None and tag.key_version == 1
    if end.msg is not None:
        assert end.msg.round == 3
        assert reader_step(sid, end.msg).output == 1
    if not flip:
        assert reader.session is None


def test_history_keeps_packed_payloads_the_collector_drops(pop_system):
    """Each session record packs its payloads into one `bytes`, in round
    order and each at its slot length, which the collector never tracks, so
    the reader's history adds few objects for the garbage collector to scan;
    cred_gen still rebuilds the issued credential from the packed bytes."""
    system = build_ma_system(Rng("gc-survivors"), tag_count=4)
    ids = system.tag_ids()
    system.run_honest(ids[0])  # lazy set-up out of the count
    gc.collect()
    before = len(gc.get_objects())
    for i in range(500):
        system.run_honest(ids[i % len(ids)])
    gc.collect()
    assert (len(gc.get_objects()) - before) / 500 <= 2.5
    slots = system.protocol.slots()
    for rec in system.reader.history.sessions:
        assert not any(isinstance(getattr(rec, f.name), dict) for f in dataclasses.fields(rec))
        assert type(rec.messages) is bytes
        assert len(rec.messages) == sum(slots)
        assert not gc.is_tracked(rec.messages)

    tag_id = pop_system.first_tag_id()
    trs = pop_system.run_honest(tag_id)
    record = pop_system.reader.history.session(1)
    assert len(trs.messages) == len(pop_system.protocol.slots())
    assert record.messages == b"".join(m.payload for m in trs.messages)
    params = pop_system.params
    nonce = record.pop_nonce
    issuer_sig = pop_system.reader_signer.sign(nonce)
    issued = Credential(
        reader_id=pop_system.reader.reader_id,
        tag_id=tag_id,
        nonce=nonce,
        issuer_sig=issuer_sig,
        possession_sig=pop_system.tag(tag_id).state.signer.sign(
            hash_digest(issuer_sig, params.hash_bits)
        ),
    )
    assert cred_gen(params, pop_system.reader, pop_system.reader_signer, 1) == issued


def _retained_bytes(work):
    """What `work()` returns, and the bytes tracemalloc sees it leave
    allocated once both ends are collected."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = work()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_an_ma_session_retains_at_most_560_bytes():
    """Memory regression bound, by the `history_bytes_per_session` method of
    BENCH_inventory.json: a 10-tag MA system's growth over 2,000 honest
    sessions after 10 warm-up sessions. Packed payloads keep it near 521 B;
    a tuple of payloads kept 651 B."""
    system = build_ma_system(Rng("history-bytes"), tag_count=10)
    ids = system.tag_ids()
    for tag_id in ids:
        system.run_honest(tag_id)

    def sessions():
        for i in range(2000):
            system.run_honest(ids[i % len(ids)])

    _, grown = _retained_bytes(sessions)
    assert grown / 2000 <= 560


def test_a_tag_of_a_10k_tag_ma_system_retains_at_most_620_bytes():
    """Memory regression bound: a 10,000-tag MA system takes near 577 B a
    tag, with a slotted `Tag` and an index bucket that is a tuple; a `Tag`
    with a `__dict__` and list buckets took 665 B."""
    system, grown = _retained_bytes(lambda: build_ma_system(Rng("tag-bytes"), tag_count=10_000))
    assert grown / 10_000 <= 620
    assert not hasattr(system.tag(system.first_tag_id()), "__dict__")
