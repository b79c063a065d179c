"""The session journal: per-tag lookups, file round trips and reader restarts."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpop.app.config import Config
from rfpop.app.dbfile import append_journal, db_snapshot_load, load_db, save_db
from rfpop.app.netrun import reader_from_file
from rfpop.errors import UnknownSnapshot
from rfpop.model.session import run_honest_session
from rfpop.model.types import Msg
from rfpop.pop import cred_gen

TAGS = 3
MODES = st.sampled_from(["ma", "mapop", "cex"])
ACTIONS = st.lists(
    st.tuples(st.sampled_from(["honest", "stray", "timeout"]), st.integers(0, TAGS - 1)),
    max_size=12,
)


def replay(history, j):
    """Reference snapshot: the initial image with deltas 1..j applied in order."""
    image = dict(history.initial)
    for record in history.sessions[:j]:
        image.update(record.delta)
    return image


def play(system, actions):
    ids = system.tag_ids()
    rng = system.rng
    width = system.protocol.slots()[0].byte_lengths[0]
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
            append_journal(path, config, record.j, record)
        loaded = load_db(path).history
    live = system.reader.history
    assert [(r.j, r.sid, r.o_reader, r.tag_id, r.mode, r.delta) for r in loaded.sessions] == [
        (r.j, r.sid, r.o_reader, r.tag_id, r.mode, r.delta) for r in live.sessions
    ]
    assert_matches_replay(loaded, live)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6), st.integers(0, 5))
def test_restarted_reader_matches_an_uninterrupted_twin(order, restart_at):
    """Sessions journaled, the reader restarted from its file, then more
    sessions: every credential the restarted reader issues is byte-for-byte
    the twin's, and the pre-restart snapshots do not move.  The file keeps
    no messages, so a pre-restart session's credential cannot be rebuilt."""
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
                before = {j: db_snapshot_load(path, j) for j in range(n + 1)}
            run_honest_session(reader, system.tag(ids[i]), system.rng, mode="pop")
            run_honest_session(twin.reader, twin.tag(ids[i]), twin.rng, mode="pop")
            record = reader.history.sessions[-1]
            assert record.j == n + 1 == twin.reader.history.sessions[-1].j
            append_journal(path, config, record.j, record)
            mine = cred_gen(config.pop_params(), reader, reader.protocol.reader_signer, n + 1)
            theirs = cred_gen(config.pop_params(), twin.reader, twin.reader_signer, n + 1)
            assert mine.encode() == theirs.encode()
        after = load_db(path).history
    if restart_at:
        with pytest.raises(UnknownSnapshot):
            cred_gen(config.pop_params(), reader, reader.protocol.reader_signer, 1)
    for j, image in before.items():
        assert after.db_at(j) == image
    for j in range(len(order) + 1):
        assert after.db_at(j) == twin.reader.history.db_at(j)
