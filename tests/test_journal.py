"""The session journal: per-tag lookups, file round trips and reader restarts."""

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpop.app.config import Config
from rfpop.app.dbfile import append_journal, load_db, save_db
from rfpop.app.netrun import reader_from_file
from rfpop.model.session import relay, run_honest_session
from rfpop.model.types import Msg
from rfpop.pop import cred_gen
from rfpop.primitives.bitstring import flip_bit

TAGS = 3
MODES = st.sampled_from(["ma", "mapop", "cex"])
ACTIONS = st.lists(
    st.tuples(st.sampled_from(["honest", "stray", "timeout"]), st.integers(0, TAGS - 1)),
    max_size=12,
)


def replay(history, j):
    """Reference snapshot: the initial image with the changed records of
    sessions 1..j applied in order."""
    image = dict(history.initial)
    for record in history.sessions[:j]:
        if record.changed is not None:
            image[record.changed.tag_id] = record.changed
    return image


def play(system, actions):
    ids = system.tag_ids()
    rng = system.rng
    width = system.protocol.slots()[0]
    for kind, i in actions:
        if kind == "honest":
            system.run_honest(ids[i])
        elif kind == "stray":
            # An unanswered challenge: the tag's next session start voids it
            # and moves the tag's counter past the reader's record.
            system.tag(ids[i]).step(rng.take_bits(128), Msg(0, rng.take_bytes(width)), rng)
        else:
            system.reader.start(rng)
            system.reader.timeout()


def assert_matches_replay(history, reference):
    for j in range(len(reference.sessions) + 1):
        expected = replay(reference, j)
        assert history.db_at(j) == expected
        for tag_id, rec in expected.items():
            assert history.record_at(tag_id, j) == rec


def save(path, config, system):
    save_db(
        path,
        config,
        list(system.reader.db.records_ascending()),
        reader_id=system.reader.reader_id,
        reader_signer=system.reader_signer,
        directory=system.directory,
    )


@settings(max_examples=40, deadline=None)
@given(MODES, ACTIONS)
def test_lookups_agree_with_full_replay(mode, actions):
    system = Config(mode=mode, tags=TAGS, seed="journal-live").build_system()
    play(system, actions)
    history = system.reader.history
    assert_matches_replay(history, history)


@settings(max_examples=25, deadline=None)
@given(MODES, ACTIONS)
def test_loaded_journal_agrees_with_full_replay(mode, actions):
    config = Config(mode=mode, tags=TAGS, seed="journal-file")
    system = config.build_system()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "reader.db")
        save(path, config, system)
        play(system, actions)
        for record in system.reader.history.sessions:
            append_journal(path, config, record)
        loaded = load_db(path).history
    live = system.reader.history
    assert [(r.j, r.sid, r.o_reader, r.tag_id, r.changed) for r in loaded.sessions] == [
        (r.j, r.sid, r.o_reader, r.tag_id, r.changed) for r in live.sessions
    ]
    assert_matches_replay(loaded, live)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6), st.integers(0, 5))
def test_restarted_reader_matches_an_uninterrupted_twin(order, restart_at):
    """Sessions journaled, the reader restarted from its file, then more
    sessions: every credential the restarted reader issues is byte-for-byte
    the twin's, so is every pre-restart session's credential it rebuilds from
    the file, and the pre-restart snapshots do not move."""
    restart_at %= len(order)
    config = Config(mode="mapop", tags=2, seed="journal-restart")
    system = config.build_system()
    twin = config.build_system()
    ids = system.tag_ids()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "reader.db")
        save(path, config, system)
        reader = system.reader
        for n, i in enumerate(order):
            if n == restart_at:
                _data, reader = reader_from_file(path)
                before = {j: load_db(path).history.db_at(j) for j in range(n + 1)}
            run_honest_session(reader, system.tag(ids[i]), system.rng)
            run_honest_session(twin.reader, twin.tag(ids[i]), twin.rng)
            record = reader.history.sessions[-1]
            assert record.j == n + 1 == twin.reader.history.sessions[-1].j
            append_journal(path, config, record)
            mine = cred_gen(config.pop_params(), reader, reader.protocol.reader_signer, n + 1)
            theirs = cred_gen(config.pop_params(), twin.reader, twin.reader_signer, n + 1)
            assert mine.encode() == theirs.encode()
        after = load_db(path).history
    for j in range(1, restart_at + 1):
        mine = cred_gen(config.pop_params(), reader, reader.protocol.reader_signer, j)
        theirs = cred_gen(config.pop_params(), twin.reader, twin.reader_signer, j)
        assert mine.encode() == theirs.encode()
    for j, image in before.items():
        assert after.db_at(j) == image
    for j in range(len(order) + 1):
        assert after.db_at(j) == twin.reader.history.db_at(j)


@pytest.mark.parametrize("mode", ["ma", "mapop", "cex"])
def test_records_are_frozen_values(mode, tmp_path):
    """A record once written cannot change: the database, the journal and a
    loaded file all hand out frozen values, and `put` is the one write."""
    config = Config(mode=mode, tags=TAGS, seed="journal-frozen")
    system = config.build_system()
    path = str(tmp_path / "reader.db")
    save(path, config, system)
    tag_id = system.first_tag_id()
    system.run_honest(tag_id)
    reader = system.reader
    for value in (
        reader.db.get(tag_id),
        reader.history.record_at(tag_id, 1),
        load_db(path).initial[tag_id],
        reader.history.session(1),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.tag_id = bytes(len(tag_id))
    stranger = dataclasses.replace(reader.db.get(tag_id), tag_id=b"\xff" * len(tag_id))
    with pytest.raises(KeyError, match="unknown tag id"):
        reader.db.put(stranger)


def end_each_way(system):
    """For each tag, a session that ends each way a reader session can end:
    through Step 1; through Step 2 after a stray challenge (cex rejects
    there); on a reply that matches no record; on a timeout; on a message
    outside the round space; and, for mapop, on a failed possession proof."""
    reader, rng = system.reader, system.rng
    slots = system.protocol.slots()
    for tag_id in system.tag_ids():
        tag = system.tag(tag_id)
        run_honest_session(reader, tag, rng)
        tag.step(rng.take_bits(128), Msg(0, rng.take_bytes(slots[0])), rng)
        run_honest_session(reader, tag, rng)
        sid, _ = reader.start(rng)
        reader.step(sid, Msg(1, bytes(slots[1])), rng)
        reader.start(rng)
        reader.timeout()
        sid, _ = reader.start(rng)
        reader.step(sid, Msg(1, b"short"), rng)
        if len(slots) == 4:
            sid, challenge = reader.start(rng)

            def to_reader(msg, sid=sid):
                return reader.step(sid, Msg(3, flip_bit(msg.payload, 0)) if msg.round == 3 else msg, rng)

            relay(sid, challenge, lambda msg, sid=sid: tag.step(sid, msg, rng), to_reader)


LOADED_CONFIGS = [
    Config(mode="ma", tags=2, seed="journal-equal"),
    Config(mode="cex", tags=2, seed="journal-equal"),
    Config(mode="mapop", impl="impl1", tags=2, seed="journal-equal"),
    Config(mode="mapop", impl="impl3", K=8, lifetime=8, tags=2, seed="journal-equal"),
]


@pytest.mark.parametrize("config", LOADED_CONFIGS, ids=lambda c: f"{c.mode}-{c.impl}")
def test_a_loaded_journal_equals_the_live_one(config, tmp_path):
    """Every session, however it ended, loads back equal to the live record:
    its note, messages, possession nonce and changed record included."""
    system = config.build_system()
    path = str(tmp_path / "reader.db")
    save(path, config, system)
    end_each_way(system)
    live = system.reader.history
    notes = {record.note for record in live.sessions}
    assert {"timeout", "message outside expected round space"} <= notes
    assert ("possession proof invalid" in notes) == (config.mode == "mapop")
    for record in live.sessions:
        append_journal(path, config, record)
    loaded = load_db(path).history
    assert loaded.sessions == live.sessions
    assert loaded.changed_in == live.changed_in


def test_an_impl3_entry_does_not_grow_with_k(tmp_path):
    """An entry stores the changed record as its tag and counter, so an impl3
    entry does not carry the tag's K-time verifying key."""
    sizes = []
    for k in (4, 64):
        config = Config(mode="mapop", impl="impl3", K=k, lifetime=4, tags=1, seed="journal-k")
        system = config.build_system()
        path = tmp_path / f"k{k}.db"
        save(str(path), config, system)
        header = path.stat().st_size
        system.run_honest()
        append_journal(str(path), config, system.reader.history.session(1))
        sizes.append(path.stat().st_size - header)
    assert sizes[0] == sizes[1]
