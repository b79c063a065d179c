"""Reader database files and tag key files."""

import json

import pytest

from rfpop.app.config import Config
from rfpop.app.dbfile import (
    MAGIC,
    VIA_STEP_NONE,
    append_journal,
    db_snapshot_load,
    load_db,
    load_tag,
    record_fields,
    save_db,
    save_tag,
    tag_fields,
)
from rfpop.errors import FrameError, UnknownSnapshot
from rfpop.model.types import Msg
from rfpop.primitives.rng import Rng


def build(config, seed="dbfile"):
    return config.build_system(Rng(seed), config.tags)


def write_db(path, config, system):
    save_db(
        str(path),
        config,
        list(system.reader.db.records_ascending()),
        reader_id=system.reader.reader_id,
        reader_signer=system.reader_signer,
        directory=system.directory,
    )


CONFIGS = [
    Config(mode="ma"),
    Config(mode="mapop", impl="impl1"),
    Config(mode="mapop", impl="impl3", K=8, lifetime=8),
    Config(mode="cex"),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}-{c.impl}")
def test_save_load_save_byte_identical(config, tmp_path):
    system = build(config)
    first = tmp_path / "a.db"
    second = tmp_path / "b.db"
    write_db(first, config, system)
    loaded = load_db(str(first))
    assert loaded.config == config
    assert loaded.reader_id == system.reader.reader_id
    assert sorted(loaded.initial) == system.tag_ids()
    save_db(
        str(second),
        loaded.config,
        list(loaded.initial.values()),
        reader_id=loaded.reader_id,
        reader_signer=loaded.reader_signer,
        directory=loaded.directory,
    )
    assert first.read_bytes() == second.read_bytes()


def test_loaded_records_preserve_values(tmp_path):
    config = Config(mode="mapop")
    system = build(config)
    path = tmp_path / "r.db"
    write_db(path, config, system)
    loaded = load_db(str(path))
    for tag_id, rec in loaded.initial.items():
        live = system.reader.db.get(tag_id)
        assert rec.key == live.key
        assert rec.ctr == live.ctr
        assert rec.index == live.index
        assert rec.pop_key == live.pop_key
        assert rec.verify_key == live.verify_key
    # The reader's signing key and the public directory survive too.
    assert loaded.reader_signer.to_dict() == system.reader_signer.to_dict()
    assert loaded.directory.entries == system.directory.entries


def test_journal_replays_counter_history(tmp_path):
    config = Config(mode="ma", tags=3)
    system = build(config)
    path = tmp_path / "j.db"
    write_db(path, config, system)
    tag_a, tag_b = system.tag_ids()[:2]
    for tag_id in (tag_a, tag_b, tag_a):
        system.run_honest(tag_id)
    for j in (1, 2, 3):
        append_journal(str(path), config, j, system.reader.history.session(j))
    loaded = load_db(str(path))
    assert [e.j for e in loaded.journal] == [1, 2, 3]
    assert loaded.journal[0].tag_id == tag_a
    for j in range(4):
        image = loaded.history.db_at(j)
        expected = system.reader.history.db_at(j)
        assert {t: r.ctr for t, r in image.items()} == {
            t: r.ctr for t, r in expected.items()
        }
    assert db_snapshot_load(str(path), 2)[tag_b].ctr == 2
    with pytest.raises(UnknownSnapshot):
        loaded.history.db_at(4)
    with pytest.raises(UnknownSnapshot):
        db_snapshot_load(str(path), -1)
    assert loaded.history.record_at(tag_a, 3).ctr == 3


def test_journal_records_session_metadata(tmp_path):
    config = Config(mode="mapop", tags=2)
    system = build(config)
    path = tmp_path / "m.db"
    write_db(path, config, system)
    system.run_honest(mode="pop")
    record = system.reader.history.session(1)
    append_journal(str(path), config, 1, record)
    entry = load_db(str(path)).journal[0]
    assert entry.sid == record.sid
    assert entry.o_reader == 1
    assert entry.via_step == 1
    assert entry.mode == "pop"
    assert entry.tag_id == record.tag_id
    assert set(entry.delta) == set(record.delta)


def test_journal_tells_a_timeout_from_a_no_match_reject(tmp_path):
    """A session closed without a verdict step (via_step None) and a reply
    that matched no record (via_step 0) load back apart; a file that stores 0
    for both, as earlier versions wrote it, still loads."""
    config = Config(mode="ma", tags=2)
    system = build(config)
    path = tmp_path / "v.db"
    write_db(path, config, system)
    header = path.stat().st_size
    reader, rng = system.reader, system.rng
    reader.start(rng)
    reader.timeout()
    sid, _ = reader.start(rng)
    reader.step(sid, Msg(1, bytes(96)), rng)
    assert [(r.via_step, r.note) for r in reader.history.sessions] == [(None, "timeout"), (0, "")]
    for j in (1, 2):
        append_journal(str(path), config, j, reader.history.session(j))
    assert [e.via_step for e in load_db(str(path)).journal] == [None, 0]

    blob = bytearray(path.read_bytes())
    via_step_at = header + 1 + 4 + 16 + 1  # marker, j, sid, o_R
    assert blob[via_step_at] == VIA_STEP_NONE
    blob[via_step_at] = 0
    path.write_bytes(bytes(blob))
    assert [e.via_step for e in load_db(str(path)).journal] == [0, 0]


def test_load_rejects_corrupt_files(tmp_path):
    config = Config(mode="ma")
    system = build(config)
    path = tmp_path / "c.db"
    write_db(path, config, system)
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad-magic.db"
    bad_magic.write_bytes(b"NOTRFP" + blob[len(MAGIC) :])
    with pytest.raises(FrameError):
        load_db(str(bad_magic))

    truncated = tmp_path / "trunc.db"
    truncated.write_bytes(blob[:-5])
    with pytest.raises(FrameError):
        load_db(str(truncated))

    system.run_honest()
    append_journal(str(path), config, 1, system.reader.history.session(1))

    bad_marker = tmp_path / "marker.db"
    with_journal = path.read_bytes()
    bad_marker.write_bytes(
        with_journal[: len(blob)] + b"X" + with_journal[len(blob) + 1 :]
    )
    with pytest.raises(FrameError):
        load_db(str(bad_marker))

    out_of_order = tmp_path / "order.db"
    write_db(out_of_order, config, build(config))
    append_journal(str(out_of_order), config, 2, system.reader.history.session(1))
    with pytest.raises(FrameError):
        load_db(str(out_of_order))


@pytest.mark.parametrize(
    "damage, error",
    [
        (lambda block: {**block, "seed": block["seed"][:-2]}, "seed is 31 bytes, not 32"),
        (lambda block: {**block, "scheme": "rsa"}, "signer scheme 'rsa' is unknown"),
        (lambda block: {**block, "pool_remaining": "5"},
         "pool_remaining is '5', not a non-negative integer"),
    ],
    ids=["short-seed", "unknown-scheme", "string-pool_remaining"],
)
def test_load_rejects_damaged_reader_signer(tmp_path, damage, error):
    """The reader's signer block is checked by the same parser as a tag file's."""
    config = Config(mode="mapop", impl="impl2")
    path = tmp_path / "s.db"
    write_db(path, config, build(config))
    blob = path.read_bytes()
    start = len(MAGIC) + 4
    end = start + int.from_bytes(blob[len(MAGIC) : start], "big")
    meta = json.loads(blob[start:end])
    meta["reader_signer"] = damage(meta["reader_signer"])
    damaged = json.dumps(meta).encode("ascii")
    path.write_bytes(MAGIC + len(damaged).to_bytes(4, "big") + damaged + blob[end:])
    with pytest.raises(FrameError, match=f"corrupt reader_signer block: {error}"):
        load_db(str(path))


def journaled(tmp_path, sessions=3):
    """A database file with `sessions` journaled MA sessions, the file's size
    after each append (index 0: header only), and the live system."""
    config = Config(mode="ma", tags=2)
    system = build(config)
    path = tmp_path / "t.db"
    write_db(path, config, system)
    sizes = [path.stat().st_size]
    for j in range(1, sessions + 1):
        system.run_honest(system.tag_ids()[j % 2])
        append_journal(str(path), config, j, system.reader.history.session(j))
        sizes.append(path.stat().st_size)
    return path, sizes, system


@pytest.mark.parametrize("kept", ["every byte", "all but one byte", "half", "one byte"])
def test_load_drops_torn_last_entry(tmp_path, kept):
    """An append cut short leaves the complete entries loadable."""
    path, sizes, system = journaled(tmp_path)
    entry = sizes[3] - sizes[2]
    keep = {"every byte": entry, "all but one byte": entry - 1, "half": entry // 2,
            "one byte": 1}[kept]
    path.write_bytes(path.read_bytes()[: sizes[2] + keep])
    loaded = load_db(str(path))
    complete = 3 if keep == entry else 2
    assert [e.j for e in loaded.journal] == list(range(1, complete + 1))
    assert loaded.torn_bytes == keep % entry
    assert loaded.history.db_at(complete) == system.reader.history.db_at(complete)


def test_entry_running_past_the_end_mid_file_is_corrupt(tmp_path):
    """A damaged length prefix in entry 1 makes it overrun the file; entry 2
    follows it, so this is not a torn tail."""
    path, sizes, _system = journaled(tmp_path, sessions=2)
    blob = bytearray(path.read_bytes())
    mode_len_at = sizes[0] + 1 + 4 + 16 + 1 + 1  # marker, j, sid, o_R, via_step
    blob[mode_len_at : mode_len_at + 4] = b"\xff\xff\xff\xff"
    path.write_bytes(bytes(blob))
    with pytest.raises(FrameError, match="entry 1 is corrupt"):
        load_db(str(path))


def test_non_ascii_session_mode_is_corrupt(tmp_path):
    path, sizes, _system = journaled(tmp_path, sessions=1)
    blob = bytearray(path.read_bytes())
    blob[sizes[0] + 1 + 4 + 16 + 1 + 1 + 4] = 0xC3  # first byte of the mode
    path.write_bytes(bytes(blob))
    with pytest.raises(FrameError, match="mode"):
        load_db(str(path))


def test_declared_field_sizes_match_encoders():
    ma_config = Config(mode="ma")
    system = build(ma_config)
    rec = next(system.reader.db.records_ascending())
    fields = record_fields("ma", ma_config.ma_params(), rec)
    assert [name for name, _ in fields] == ["tag_id", "key", "ctr"]
    assert sum(len(blob) for _, blob in fields) == 96
    tag = system.tag(system.first_tag_id())
    tfields = tag_fields("ma", ma_config.ma_params(), tag.state)
    assert [name for name, _ in tfields] == ["key", "ctr"]
    assert sum(len(blob) for _, blob in tfields) == 64

    pop_config = Config(mode="mapop")
    system = build(pop_config)
    rec = next(system.reader.db.records_ascending())
    fields = record_fields("mapop", pop_config.pop_params(), rec)
    assert [name for name, _ in fields] == [
        "index", "key", "pop_key", "ctr", "tag_id", "verify_key",
    ]
    assert sum(len(blob) for _, blob in fields) == 192
    tag = system.tag(system.first_tag_id())
    tfields = tag_fields("mapop", pop_config.pop_params(), tag.state)
    assert [name for name, _ in tfields] == ["key", "ctr", "pop_key", "signer_seed"]
    assert sum(len(blob) for _, blob in tfields) == 128


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}-{c.impl}")
def test_tag_file_round_trip(config, tmp_path):
    system = build(config)
    tag = system.tag(system.first_tag_id())
    mode = "pop" if config.mode == "mapop" else config.mode
    system.run_honest(mode=mode)  # leave non-initial counter and signer state
    path = tmp_path / "tag.json"
    save_tag(str(path), config.mode, tag.state, key_version=tag.key_version)
    loaded_mode, state, key_version = load_tag(str(path))
    assert loaded_mode == config.mode
    assert key_version == tag.key_version == 1
    assert state.tag_id == tag.state.tag_id
    assert state.key == tag.state.key
    assert state.ctr == tag.state.ctr
    if config.mode == "mapop":
        assert state.pop_key == tag.state.pop_key
        assert state.signer.to_dict() == tag.state.signer.to_dict()
    if config.mode == "cex":
        assert state.st == tag.state.st


def test_tag_file_preserves_spent_signing_budget(tmp_path):
    config = Config(mode="mapop", impl="impl3", K=4, lifetime=4)
    system = build(config)
    tag = system.tag(system.first_tag_id())
    system.run_honest(mode="pop")
    assert tag.state.signer.used == 1
    path = tmp_path / "spent.json"
    save_tag(str(path), "mapop", tag.state, key_version=tag.key_version)
    _, state, _ = load_tag(str(path))
    assert state.signer.used == 1
    assert state.signer.k == 4


def test_tag_file_preserves_cex_interrupt_flag(tmp_path):
    config = Config(mode="cex")
    system = build(config)
    tag = system.tag(system.first_tag_id())
    rng = Rng("cex-flag")
    tag.step(rng.take_bits(128), Msg(0, rng.take_bits(256)), rng)
    assert tag.state.st == 1
    path = tmp_path / "cex.json"
    save_tag(str(path), "cex", tag.state)
    _, state, _ = load_tag(str(path))
    assert state.st == 1


def test_torn_tag_write_keeps_previous_key_file(tmp_path, monkeypatch):
    system = build(Config(mode="ma"))
    tag = system.tag(system.first_tag_id())
    path = tmp_path / "tag.json"
    save_tag(str(path), "ma", tag.state)
    before = path.read_bytes()
    system.run_honest()

    def torn_dump(doc, handle, **kwargs):
        handle.write('{"ctr": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(OSError, match="disk full"):
        save_tag(str(path), "ma", tag.state, key_version=tag.key_version)
    monkeypatch.undo()
    assert path.read_bytes() == before
    _mode, state, key_version = load_tag(str(path))
    assert (state.ctr, key_version) == (1, 0)
