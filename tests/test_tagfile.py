"""Tag key files and their state logs: folding, torn tails, damage,
compaction, stale logs."""

import dataclasses
import hashlib
import json
import os
import random
import struct
import zlib

import pytest

from rfpop.app.config import Config
from rfpop.app.framing import U32, pack_fields
from rfpop.app.tagfile import TAG_LOG_CAP, load_tag, read_tag, save_tag
from rfpop.errors import FrameError
from rfpop.primitives.rng import Rng


def build(config, seed="dbfile"):
    return config.build_system(Rng(seed), config.tags)


LOG_CONFIGS = [
    Config(mode="ma"),
    Config(mode="mapop", impl="impl1"),
    Config(mode="mapop", impl="impl2", s=8, lifetime=8),
    Config(mode="mapop", impl="impl3", K=8, lifetime=8),
    Config(mode="cex"),
]


PINNED_KEY_FILE = """{
  "ctr": 1,
  "key": "8c5caaffd584ec2350d668a2362910b8ba2402de0af9801643cc009ee1b831ed",
  "key_version": 0,
  "mode": "mapop",
  "pop_key": "112feab29c988be2652e41c74339409a4faf8a076d5fa14b6393ee2e92574606",
  "signer": {
    "pool_remaining": 8,
    "scheme": "ed25519",
    "seed": "973826960621f48eac10828b64e8a7433c4e84834703e02e1fb8aa89f672fc66"
  },
  "tag_id": "0000000000000000000000000000000000000000000000000000000000000000"
}
"""


def test_a_key_file_with_no_log_loads_as_written(tmp_path):
    """An impl2 key file as `setup` writes it, pinned as text: with no state
    log beside it, it loads as it did before logs existed, and reading it
    creates no log."""
    path = tmp_path / "tag-000.json"
    path.write_text(PINNED_KEY_FILE, encoding="utf-8")
    mode, state, key_version, log = read_tag(str(path))
    assert (mode, state.ctr, key_version) == ("mapop", 1, 0)
    assert state.tag_id == bytes(32)
    assert state.signer.pool_remaining == 8
    assert (log.records, log.torn_bytes) == (0, 0)
    assert not os.path.exists(log.path)


def tag_with_log(tmp_path, config, sessions):
    """A key file as `setup` writes it, then `sessions` honest sessions whose
    commits the tag appends to the file's state log. Returns the key file's
    path, the tag, and (state, key_version, log size) after each append."""
    system = build(config)
    tag = system.tag(system.first_tag_id())
    path = str(tmp_path / "tag.json")
    save_tag(path, config.mode, tag.state)
    log = read_tag(path)[3]
    appended = []

    def sink(state, key_version):
        log.append(state, key_version)
        appended.append((state, key_version, os.path.getsize(log.path)))

    tag.sink = sink
    for _ in range(sessions):
        system.run_honest()
    return path, tag, appended


@pytest.mark.parametrize("config", LOG_CONFIGS, ids=lambda c: f"{c.mode}-{c.impl}")
def test_the_state_log_carries_what_the_tag_commits(config, tmp_path):
    path, tag, appended = tag_with_log(tmp_path, config, 3)
    setup_bytes = (tmp_path / "tag.json").read_bytes()
    mode, state, key_version, log = read_tag(path)
    assert tag.key_version == 3
    assert (mode, state, key_version) == (config.mode, tag.state, tag.key_version)
    assert (log.records, log.torn_bytes) == (len(appended), 0)
    assert (tmp_path / "tag.json").read_bytes() == setup_bytes


@pytest.mark.parametrize("config", LOG_CONFIGS, ids=lambda c: f"{c.mode}-{c.impl}")
def test_a_torn_last_record_loads_the_state_before_it(config, tmp_path):
    """A record cut off at any byte is dropped and counted; the state is the
    one the record before it holds."""
    path, _tag, appended = tag_with_log(tmp_path, config, 2)
    (before, version, start), (_, _, end) = appended[-2], appended[-1]
    log_path = tmp_path / "tag.json.log"
    whole = log_path.read_bytes()
    assert len(whole) == end
    for cut in range(start, end):
        log_path.write_bytes(whole[:cut])
        _mode, state, key_version, log = read_tag(path)
        assert (state, key_version) == (before, version)
        assert (log.records, log.torn_bytes) == (len(appended) - 1, cut - start)


@pytest.mark.parametrize("config", LOG_CONFIGS, ids=lambda c: f"{c.mode}-{c.impl}")
def test_every_bit_flip_of_a_whole_record_is_a_frame_error(config, tmp_path):
    path, _tag, _appended = tag_with_log(tmp_path, config, 2)
    log_path = tmp_path / "tag.json.log"
    whole = log_path.read_bytes()
    fd = os.open(log_path, os.O_WRONLY)
    try:
        for bit in range(8 * len(whole)):
            at = bit // 8
            os.pwrite(fd, bytes([whole[at] ^ (0x80 >> (bit % 8))]), at)
            with pytest.raises(FrameError, match="tag state log record"):
                read_tag(path)
            os.pwrite(fd, whole[at : at + 1], at)
    finally:
        os.close(fd)


def test_a_key_file_that_is_a_json_array_is_rejected(tmp_path):
    path = tmp_path / "tag.json"
    path.write_text("[]\n", encoding="utf-8")
    with pytest.raises(FrameError, match="is not a JSON object"):
        read_tag(str(path))


def log_record(body: bytes) -> bytes:
    """`body` framed and checksummed as the sink frames a record."""
    framed = struct.pack(">HH", len(body), len(body) ^ 0xFFFF) + body
    return framed + U32.pack(zlib.crc32(framed))


@pytest.mark.parametrize("config", LOG_CONFIGS, ids=lambda c: f"{c.mode}-{c.impl}")
def test_each_log_record_body_is_the_key_file_document(config, tmp_path):
    """A record's body is the document `save_tag` writes for the state the
    record holds, as compact JSON."""
    _path, _tag, appended = tag_with_log(tmp_path, config, 2)
    data = (tmp_path / "tag.json.log").read_bytes()
    copy = tmp_path / "copy.json"
    start = 0
    for state, key_version, end in appended:
        save_tag(str(copy), config.mode, state, key_version)
        body = data[start + 4 : end - 4]
        assert log_record(body) == data[start:end]
        assert json.loads(body) == json.loads(copy.read_text())
        assert body == json.dumps(json.loads(body), sort_keys=True, separators=(",", ":")).encode()
        start = end


def test_a_log_record_with_a_valid_checksum_and_a_malformed_body_is_rejected(tmp_path):
    """A body that is not JSON, framed and checksummed as the sink frames a
    record: the checksum passes and the body is refused."""
    path, _tag, _appended = tag_with_log(tmp_path, Config(mode="ma"), 0)
    (tmp_path / "tag.json.log").write_bytes(log_record(pack_fields([b"x"])))
    with pytest.raises(FrameError, match="tag state log record 1 is malformed"):
        read_tag(path)


def test_a_log_in_the_earlier_binary_form_is_refused_as_malformed(tmp_path):
    """A record in the binary body state logs once held (an 8-byte BLAKE2b
    check over `tag_id` and `key`, then `ctr`, `key_version` and a spent
    count as length-prefixed fields) is not read as a newer state: it is
    refused, naming its record."""
    path, tag, _appended = tag_with_log(tmp_path, Config(mode="ma"), 0)
    state = tag.state
    check = hashlib.blake2b(pack_fields([state.tag_id, state.key]), digest_size=8).digest()
    body = pack_fields([check, bytes([state.ctr + 1]), b"\x01", b""])
    (tmp_path / "tag.json.log").write_bytes(log_record(body))
    with pytest.raises(FrameError, match="tag state log record 1 is malformed"):
        read_tag(path)


@pytest.mark.parametrize("name", ["tag.json", "tag.json.log"])
def test_json_nested_too_deep_is_a_frame_error(name, tmp_path):
    """A key file, or a checksummed log record, of JSON nested deeper than
    the decoder recurses fails closed like any other damage."""
    path, _tag, _appended = tag_with_log(tmp_path, Config(mode="ma"), 0)
    deep = b"[" * 20000
    (tmp_path / name).write_bytes(log_record(deep) if name.endswith(".log") else deep)
    with pytest.raises(FrameError, match="is not JSON|is malformed"):
        read_tag(path)


class Killed(Exception):
    """The process died here."""


@pytest.mark.parametrize("crash", [False, True], ids=["compacted", "killed-before-the-log-is-removed"])
def test_compaction_at_the_cap_keeps_the_state(crash, tmp_path, monkeypatch):
    """The append that fills the log rewrites the key file and empties the
    log. A process killed between the two leaves a log that only repeats the
    new key file."""
    system = build(Config(mode="mapop", impl="impl2", s=64, lifetime=64))
    state = system.tag(system.first_tag_id()).state
    path = str(tmp_path / "tag.json")
    save_tag(path, "mapop", state)
    log = read_tag(path)[3]
    states = [dataclasses.replace(state, ctr=state.ctr + i) for i in range(1, TAG_LOG_CAP + 1)]
    for i, new in enumerate(states[:-1], 1):
        log.append(new, i)
    assert read_tag(path)[3].records == TAG_LOG_CAP - 1
    if crash:
        def killed(name, length):
            raise Killed

        monkeypatch.setattr(os, "truncate", killed)
        with pytest.raises(Killed):
            log.append(states[-1], TAG_LOG_CAP)
        monkeypatch.undo()
    else:
        log.append(states[-1], TAG_LOG_CAP)
    assert json.loads((tmp_path / "tag.json").read_text())["ctr"] == states[-1].ctr
    assert (os.path.getsize(log.path) > 0) == crash
    _mode, loaded, key_version, fresh = read_tag(path)
    assert (loaded, key_version) == (states[-1], TAG_LOG_CAP)
    assert fresh.records == (TAG_LOG_CAP if crash else 0)


def test_a_stale_log_beside_a_new_key_file_is_rejected(tmp_path):
    """Writing a key file empties its log. A log from the old key put back
    beside it (a copy, or a crash between the rename and the removal) is not
    folded into the new key's state."""
    path, _tag, _appended = tag_with_log(tmp_path, Config(mode="ma"), 2)
    log_path = tmp_path / "tag.json.log"
    stale = log_path.read_bytes()
    other = build(Config(mode="ma"), seed="dbfile-resetup")
    save_tag(path, "ma", other.tag(other.first_tag_id()).state)
    assert log_path.read_bytes() == b""
    log_path.write_bytes(stale)
    with pytest.raises(FrameError, match="tag state log record 2 is for another tag key"):
        read_tag(path)


def test_a_log_older_than_its_key_file_is_rejected(tmp_path):
    """A log copied back from before the key file's last rewrite would roll
    the counter back, so a counter would serve two sessions."""
    path, tag, _appended = tag_with_log(tmp_path, Config(mode="ma"), 2)
    log_path = tmp_path / "tag.json.log"
    old = log_path.read_bytes()
    save_tag(path, "ma", dataclasses.replace(tag.state, ctr=tag.state.ctr + 1), tag.key_version + 1)
    log_path.write_bytes(old)
    with pytest.raises(FrameError, match="tag state log record 2 is older than the key file"):
        read_tag(path)


def mutate(data: bytes, rnd: random.Random) -> bytes:
    """One seeded damage: a bit flip, a cut, an inserted byte (random or a
    JSON character), or a span copied over another part of the data."""
    kind = rnd.choice(("flip", "cut", "insert", "splice"))
    at = rnd.randrange(len(data))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ (1 << rnd.randrange(8))]) + data[at + 1 :]
    if kind == "cut":
        return data[:at]
    if kind == "insert":
        byte = rnd.choice([rnd.randrange(256), *b'{}[]",:0-e'])
        return data[:at] + bytes([byte]) + data[at:]
    start, size = rnd.randrange(len(data)), rnd.randrange(1, 17)
    return data[:at] + data[start : start + size] + data[at + size :]


@pytest.mark.parametrize("config", LOG_CONFIGS, ids=lambda c: f"{c.mode}-{c.impl}")
def test_damaged_key_files_and_logs_fail_closed(config, tmp_path):
    """Seeded damage to a key file, then to its state log: each either loads
    or raises FrameError, never another exception."""
    path, _tag, _appended = tag_with_log(tmp_path, config, 2)
    rnd = random.Random(f"tag-file-mutations-{config.mode}-{config.impl}")
    for name in ("tag.json", "tag.json.log"):
        target = tmp_path / name
        whole = target.read_bytes()
        for _ in range(400):
            target.write_bytes(mutate(whole, rnd))
            try:
                load_tag(path)
            except FrameError:
                pass
        target.write_bytes(whole)
