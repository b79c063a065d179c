"""Reader database files and tag key files."""

import builtins
import json
import os
from dataclasses import replace

import pytest

from rfpop.app.config import Config
from rfpop.app.dbfile import (
    ENTRY_FIELDS,
    MAGIC,
    VIA_STEP_NONE,
    append_journal,
    decode_record,
    encode_record,
    load_db,
    load_tag,
    record_fields,
    save_db,
    save_tag,
    tag_fields,
)
from rfpop.app.framing import frame, pack_fields, unframe, unpack_fields
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
    Config(mode="mapop", impl="impl2", s=8, lifetime=8),
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


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.mode}-{c.impl}")
def test_decode_record_inverts_encode_record(config):
    """Each record, set up or changed by a session, decodes to an equal
    record, and the same bytes with one more byte after them do not decode;
    a second decode of the same record shares the first's verifying key
    through `keys`, so a K-time key is decoded once."""
    system = build(config)
    system.run_honest()
    params = config.params()
    keys = {}
    for rec in system.reader.db.records_ascending():
        blob = encode_record(config.mode, params, rec)
        first = decode_record(config.mode, params, blob, keys)
        assert first == rec
        with pytest.raises(FrameError, match="reader record has bytes after its last field"):
            decode_record(config.mode, params, blob + b"\x00", keys)
        if config.mode == "mapop":
            again = decode_record(config.mode, params, blob, keys)
            assert again.verify_key is first.verify_key is keys[rec.verify_key]
    assert len(keys) == (config.tags if config.mode == "mapop" else 0)


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


def test_loaded_impl3_database_keeps_one_verify_key_per_tag(tmp_path):
    """The directory, the initial records and every journaled record share
    one `VerifyKey` per tag, so a loaded reader decodes each K-time key (and
    builds its tables) once, as the live system does."""
    config = Config(mode="mapop", impl="impl3", K=4, lifetime=4, tags=2)
    system = build(config)
    path = tmp_path / "k.db"
    write_db(path, config, system)
    for j, tag_id in enumerate(system.tag_ids() * 2, start=1):
        system.run_honest(tag_id)
        append_journal(str(path), config, system.reader.history.session(j))
    loaded = load_db(str(path))
    assert len(loaded.journal) == 4
    for tag_id, rec in loaded.initial.items():
        assert loaded.directory.entries[tag_id] is rec.verify_key
    for session in loaded.journal:
        rec = session.changed
        assert rec.verify_key is loaded.initial[rec.tag_id].verify_key


def test_journal_replays_counter_history(tmp_path):
    config = Config(mode="ma", tags=3)
    system = build(config)
    path = tmp_path / "j.db"
    write_db(path, config, system)
    tag_a, tag_b = system.tag_ids()[:2]
    for tag_id in (tag_a, tag_b, tag_a):
        system.run_honest(tag_id)
    for j in (1, 2, 3):
        append_journal(str(path), config, system.reader.history.session(j))
    loaded = load_db(str(path))
    assert [e.j for e in loaded.journal] == [1, 2, 3]
    assert loaded.journal[0].tag_id == tag_a
    for j in range(4):
        image = loaded.history.db_at(j)
        expected = system.reader.history.db_at(j)
        assert {t: r.ctr for t, r in image.items()} == {
            t: r.ctr for t, r in expected.items()
        }
    assert load_db(str(path)).history.db_at(2)[tag_b].ctr == 2
    with pytest.raises(UnknownSnapshot):
        loaded.history.db_at(4)
    with pytest.raises(UnknownSnapshot):
        load_db(str(path)).history.db_at(-1)
    assert loaded.history.record_at(tag_a, 3).ctr == 3


def test_journal_records_session_metadata(tmp_path):
    config = Config(mode="mapop", tags=2)
    system = build(config)
    path = tmp_path / "m.db"
    write_db(path, config, system)
    system.run_honest(mode="pop")
    record = system.reader.history.session(1)
    append_journal(str(path), config, record)
    entry = load_db(str(path)).journal[0]
    assert entry.sid == record.sid
    assert entry.o_reader == 1
    assert entry.via_step == 1
    assert entry.tag_id == record.tag_id
    assert entry.changed.tag_id == record.changed.tag_id


def test_journal_tells_a_timeout_from_a_no_match_reject(tmp_path):
    """A session closed without a verdict step (via_step None, stored as
    VIA_STEP_NONE) and a reply that matched no record (via_step 0) load back
    apart, each with its note."""
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
        append_journal(str(path), config, reader.history.session(j))
    assert [(e.via_step, e.note) for e in load_db(str(path)).journal] == [(None, "timeout"), (0, "")]
    assert entry_fields(path, header)["via_step"] == bytes([VIA_STEP_NONE])


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
    append_journal(str(path), config, system.reader.history.session(1))

    bad_marker = tmp_path / "marker.db"
    with_journal = path.read_bytes()
    bad_marker.write_bytes(
        with_journal[: len(blob)] + b"X" + with_journal[len(blob) + 1 :]
    )
    with pytest.raises(FrameError):
        load_db(str(bad_marker))

    out_of_order = tmp_path / "order.db"
    write_db(out_of_order, config, build(config))
    append_journal(str(out_of_order), config, replace(system.reader.history.session(1), j=2))
    with pytest.raises(FrameError):
        load_db(str(out_of_order))


def in_entry(name, damage):
    """Damage the metadata entry `name`: damage(entry) -> the new entry."""
    return lambda meta: {**meta, name: damage(meta[name])}


def without(name):
    return lambda meta: {k: v for k, v in meta.items() if k != name}


def first_party(change):
    """Damage the directory's first entry: change(party, entry) -> (party, entry)."""
    def damage(directory):
        (party, entry), *rest = directory.items()
        return dict([change(party, entry), *rest])
    return in_entry("directory", damage)


@pytest.mark.parametrize(
    "damage, error",
    [
        (in_entry("reader_signer", lambda block: {**block, "seed": block["seed"][:-2]}),
         "corrupt reader_signer block: seed is 31 bytes, not 32"),
        (in_entry("reader_signer", lambda block: {**block, "scheme": "rsa"}),
         "corrupt reader_signer block: signer scheme 'rsa' is unknown"),
        (in_entry("reader_signer", lambda block: {**block, "pool_remaining": "5"}),
         "corrupt reader_signer block: pool_remaining is '5', not a non-negative integer"),
        (without("reader_signer"), "corrupt metadata block: no reader_signer entry"),
        (in_entry("reader_signer",
                  lambda block: {"scheme": "ktime-secp256k1", "seed": block["seed"], "k": 4}),
         "corrupt reader_signer block: reader signer scheme 'ktime-secp256k1' is not 'ed25519'"),
        (without("directory"), "corrupt metadata block: no directory entry"),
        (lambda meta: [meta], "metadata block is not a JSON object"),
        (without("reader_id"), "corrupt metadata block: no reader_id entry"),
        (in_entry("reader_id", lambda _: "reader"), "corrupt reader_id block: non-hex"),
        (in_entry("reader_id", lambda _: 7),
         r"corrupt reader_id block: fromhex\(\) argument must be str"),
        (without("config"), "corrupt metadata block: no config entry"),
        (in_entry("config", lambda doc: {**doc, "mode": "rsa"}),
         "corrupt config block: mode must be one of"),
        (in_entry("config", lambda doc: {**doc, "listen": 7410}),
         "corrupt config block: listen must be host:port"),
        (in_entry("directory", lambda _: []), "corrupt directory block: not a JSON object"),
        (first_party(lambda party, entry: ("zz" + party, entry)),
         "corrupt directory block: non-hex"),
        (first_party(lambda party, entry: (party, {**entry, "data": "zz"})),
         "corrupt directory block: non-hex"),
        (first_party(lambda party, entry: (party, {"data": entry["data"]})),
         "corrupt directory block: party .* scheme None is unknown"),
        (first_party(lambda party, entry: (party, {**entry, "scheme": "rsa"})),
         "corrupt directory block: party .* scheme 'rsa' is unknown"),
    ],
    ids=[
        "short-seed", "unknown-scheme", "string-pool_remaining",
        "no-reader_signer", "ktime-reader_signer", "no-directory", "not-an-object",
        "no-reader_id", "non-hex-reader_id", "int-reader_id", "no-config", "invalid-config",
        "non-string-listen",
        "directory-not-an-object", "non-hex-party", "non-hex-data", "no-scheme",
        "unknown-directory-scheme",
    ],
)
def test_load_rejects_damaged_metadata(tmp_path, damage, error):
    """Every damaged metadata entry, and a mapop database's missing or
    non-Ed25519 reader signer or missing key directory, is a FrameError
    naming it; the reader's signer block is checked by the same parser as a
    tag file's. The damaged set-up is framed with a valid checksum, so these
    checks are what refuse it."""
    config = Config(mode="mapop", impl="impl2")
    path = tmp_path / "s.db"
    write_db(path, config, build(config))
    rewrite_setup(path, lambda meta, *records: [
        json.dumps(damage(json.loads(meta))).encode("ascii"), *records])
    with pytest.raises(FrameError, match=error):
        load_db(str(path))


def rewrite_setup(path, change):
    """Replace the set-up record's fields by change(*fields), framed with a
    valid checksum, so the damage reaches the set-up checks."""
    blob = path.read_bytes()
    bodies, _torn = unframe(blob, len(MAGIC), "record", first=0)
    bodies[0] = pack_fields(change(*unpack_fields(bodies[0], "set-up")))
    path.write_bytes(MAGIC + b"".join(map(frame, bodies)))


def test_a_set_up_with_bytes_after_its_last_field_is_corrupt(tmp_path):
    config = Config(mode="ma", tags=2)
    path = tmp_path / "p.db"
    write_db(path, config, build(config))
    blob = path.read_bytes()
    bodies, _torn = unframe(blob, len(MAGIC), "record", first=0)
    path.write_bytes(MAGIC + frame(bodies[0] + b"\x00"))
    with pytest.raises(FrameError, match="set-up has bytes after its last field"):
        load_db(str(path))


def test_every_bit_flip_of_the_set_up_is_a_frame_error(tmp_path):
    """Flip each bit of a 2-tag MA database's set-up (the magic and record
    0) in turn: none loads, as another database or at all."""
    config = Config(mode="ma", tags=2)
    path = tmp_path / "f.db"
    write_db(path, config, build(config, "f"))
    whole = path.read_bytes()
    assert load_db(str(path)).config == config
    fd = os.open(path, os.O_WRONLY)
    try:
        for bit in range(8 * len(whole)):
            at = bit // 8
            os.pwrite(fd, bytes([whole[at] ^ (0x80 >> (bit % 8))]), at)
            with pytest.raises(FrameError):
                load_db(str(path))
            os.pwrite(fd, whole[at : at + 1], at)
    finally:
        os.close(fd)


def test_a_set_up_cut_anywhere_names_the_set_up(tmp_path):
    """A file cut inside its set-up has no whole record 0: that is a damaged
    file, never a torn journal tail."""
    config = Config(mode="ma", tags=2)
    path = tmp_path / "cut.db"
    write_db(path, config, build(config))
    whole = path.read_bytes()
    for size in range(len(whole)):
        path.write_bytes(whole[:size])
        error = "bad magic" if size < len(MAGIC) else "has no whole set-up record"
        with pytest.raises(FrameError, match=error):
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
        append_journal(str(path), config, system.reader.history.session(j))
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


def test_every_bit_flip_of_the_journal_is_a_frame_error(tmp_path):
    """Flip each bit of a three-entry mapop journal in turn (a Step-1
    session, a Step-2 session and a timeout): none loads as another history,
    and none is mistaken for a torn tail."""
    config = Config(mode="mapop", tags=2)
    system = build(config)
    path = tmp_path / "f.db"
    write_db(path, config, system)
    header = path.stat().st_size
    reader, rng, tag = system.reader, system.rng, system.tag(system.first_tag_id())
    system.run_honest()
    tag.step(rng.take_bits(128), Msg(0, rng.take_bytes(system.protocol.slots()[0])), rng)
    system.run_honest()
    reader.start(rng)
    reader.timeout()
    assert [(r.o_reader, r.via_step) for r in reader.history.sessions] == [(1, 1), (1, 2), (0, None)]
    for record in reader.history.sessions:
        append_journal(str(path), config, record)
    whole = path.read_bytes()
    fd = os.open(path, os.O_WRONLY)
    try:
        for bit in range(8 * header, 8 * len(whole)):
            at = bit // 8
            os.pwrite(fd, bytes([whole[at] ^ (0x80 >> (bit % 8))]), at)
            with pytest.raises(FrameError, match="journal entry"):
                load_db(str(path))
            os.pwrite(fd, whole[at : at + 1], at)
    finally:
        os.close(fd)


def test_entry_running_past_the_end_mid_file_is_corrupt(tmp_path):
    """A damaged length in entry 1 would make it overrun the file, but the
    length's complement no longer matches, so this is not a torn tail."""
    path, sizes, _system = journaled(tmp_path, sessions=2)
    blob = bytearray(path.read_bytes())
    blob[sizes[0] : sizes[0] + 4] = b"\xff\xff\xff\xff"
    path.write_bytes(bytes(blob))
    with pytest.raises(FrameError, match="journal entry 1 has a damaged length"):
        load_db(str(path))


def test_non_ascii_session_mode_is_corrupt(tmp_path):
    path, sizes, _system = journaled(tmp_path, sessions=1)
    rewrite_entry(path, sizes[0], lambda entry: {**entry, "mode": b"\xc3a"})
    with pytest.raises(FrameError, match="mode"):
        load_db(str(path))


def entry_fields(path, header, n=0) -> dict:
    """Journal entry n+1 of the file whose header ends at byte `header`, as
    its fields by name."""
    bodies, _torn = unframe(path.read_bytes(), header, "journal entry")
    return dict(zip(ENTRY_FIELDS, unpack_fields(bodies[n], "entry")))


def rewrite_entry(path, header, change, n=0):
    """Replace journal entry n+1 by change(its fields by name), framed with a
    valid checksum, so the damage reaches the entry checks."""
    blob = path.read_bytes()
    bodies, _torn = unframe(blob, header, "journal entry")
    entry = dict(zip(ENTRY_FIELDS, unpack_fields(bodies[n], "entry")))
    bodies[n] = pack_fields(list(change(entry).values()))
    path.write_bytes(blob[:header] + b"".join(map(frame, bodies)))


def test_journal_entry_with_a_byte_after_its_last_field_is_corrupt(tmp_path):
    """An entry framed with a valid checksum whose body holds one byte after
    its last field does not load."""
    path, sizes, _system = journaled(tmp_path, sessions=1)
    blob = path.read_bytes()
    bodies, _torn = unframe(blob, sizes[0], "journal entry")
    path.write_bytes(blob[: sizes[0]] + frame(bodies[0] + b"\x00"))
    with pytest.raises(FrameError, match="journal entry 1 has bytes after its last field"):
        load_db(str(path))


@pytest.mark.parametrize("body, error", [
    (b"", "is truncated"),
    (pack_fields([b"ab"])[:-1], "is truncated"),
    ((3).to_bytes(4, "big") + pack_fields([b""])[4:], "is truncated"),
    (pack_fields([b"ab"]) + b"\x00", "has bytes after its last field"),
], ids=["empty", "cut-field", "count-too-large", "trailing-byte"])
def test_unpack_fields_refuses_a_list_cut_short_or_padded(body, error):
    assert unpack_fields(pack_fields([b"ab", b"", b"c"]), "list") == [b"ab", b"", b"c"]
    with pytest.raises(FrameError, match=f"^list {error}$"):
        unpack_fields(body, "list")


JOURNAL_DAMAGE = {
    "o_reader 7": ({"o_reader": b"\x07"}, "has o_reader byte 7"),
    "via_step 9": ({"via_step": b"\x09"}, "has via_step byte 9"),
    "mode za": ({"mode": b"za"}, "has session mode 'za', not 'ma'"),
    "j 2": ({"j": (2).to_bytes(4, "big")}, "carries j=2"),
    "3-byte j": ({"j": b"\x00\x00\x01"}, "j is 3 bytes, not 4"),
    "15-byte sid": ({"sid": bytes(15)}, "sid is 15 bytes, not 16"),
    "2-byte o_reader": ({"o_reader": b"\x01\x01"}, "o_reader is 2 bytes, not 1"),
    "empty via_step": ({"via_step": b""}, "via_step is 0 bytes, not 1"),
    "31-byte ctr": ({"ctr": bytes(31)}, "ctr is 31 bytes, not 32"),
    "ctr with no changed record": ({"changed_tag_id": b""}, "ctr is 32 bytes, not 0"),
    "note not UTF-8": ({"note": b"\xff"}, "has a session mode or note that is not text"),
    "unknown session tag and changed record": ({"tag_id": "stranger", "changed_tag_id": "stranger"},
                                               "names tag .*, which no set-up record has"),
    "unknown session tag": ({"tag_id": "stranger"}, "names tag"),
    "unknown changed record": ({"changed_tag_id": "stranger"}, "names tag"),
}


@pytest.mark.parametrize("damage", JOURNAL_DAMAGE)
def test_journal_entry_the_reader_cannot_write_is_corrupt(tmp_path, damage):
    """An entry loads only with what a reader writes: fixed-width fields of
    their width, its own session number, o_reader 0 or 1, via_step 0, 1, 2 or
    none, its config's session mode (`ma` here), a UTF-8 note, and tags among
    the set-up records. Each damaged entry is framed with a valid checksum,
    so these checks are what refuse it."""
    path, sizes, system = journaled(tmp_path, sessions=1)
    record = system.reader.history.session(1)
    stranger = bytes(b ^ 0xFF for b in record.tag_id)
    assert record.changed.tag_id == record.tag_id and stranger not in system.tags
    changes, error = JOURNAL_DAMAGE[damage]
    changes = {name: stranger if value == "stranger" else value for name, value in changes.items()}
    rewrite_entry(path, sizes[0], lambda entry: {**entry, **changes})
    with pytest.raises(FrameError, match=f"journal entry 1 {error}"):
        load_db(str(path))


def test_journal_entry_with_two_changed_records_is_corrupt(tmp_path):
    """A session changes at most one record, so an entry that stores the
    changed record's tag id and counter twice holds two fields too many and
    does not load."""
    path, sizes, _system = journaled(tmp_path, sessions=1)
    rewrite_entry(path, sizes[0], lambda entry: {
        **entry, "again_tag_id": entry["changed_tag_id"], "again_ctr": entry["ctr"]})
    with pytest.raises(FrameError, match="journal entry 1 holds 13 fields, not 11"):
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


def tear_writes(monkeypatch):
    """Make every open for writing take a few bytes, then fail as a full
    disk would."""
    real_open = open

    def torn_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if "w" not in mode:
            return handle
        with handle:
            handle.write(b'{"ctr": ')
        raise OSError("disk full")

    monkeypatch.setattr(builtins, "open", torn_open)


def test_torn_tag_write_keeps_previous_key_file(tmp_path, monkeypatch):
    system = build(Config(mode="ma"))
    tag = system.tag(system.first_tag_id())
    path = tmp_path / "tag.json"
    save_tag(str(path), "ma", tag.state)
    before = path.read_bytes()
    system.run_honest()

    tear_writes(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        save_tag(str(path), "ma", tag.state, key_version=tag.key_version)
    monkeypatch.undo()
    assert path.read_bytes() == before
    _mode, state, key_version = load_tag(str(path))
    assert (state.ctr, key_version) == (1, 0)


def test_a_database_write_cut_short_leaves_no_database(tmp_path, monkeypatch):
    """A `save_db` that fails mid-write leaves no `reader.db`, not a cut one
    that would load as corrupt."""
    config = Config(mode="ma")
    tear_writes(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        write_db(tmp_path / "reader.db", config, build(config))
    monkeypatch.undo()
    assert not (tmp_path / "reader.db").exists()
