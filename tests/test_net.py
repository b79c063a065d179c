"""Socket reader server and tag client over loopback."""

import collections
import json
import os
import queue
import select
import socket
import threading
import time

import pytest

from rfpop.app.config import Config
from rfpop.app.dbfile import load_db, load_tag, save_db, save_tag
from rfpop.app import netrun
from rfpop.app.netrun import TICK_SECONDS, reader_from_file, serve_reader, tag_run
from rfpop.app.wire import (
    TYPE_RESULT_READER,
    TYPE_ROUND_CHALLENGE,
    TYPE_ROUND_REPLY,
    Frame,
    read_frame,
    result_frame,
    result_value,
)
from rfpop.errors import FrameError, UnknownSnapshot
from rfpop.model.session import run_honest_session
from rfpop.pop import Credential, PopParams, cred_gen, cred_veri
from rfpop.primitives.rng import Rng


def deploy(tmp_path, config):
    """Write a reader database plus one key file per tag, as setup would."""
    system = config.build_system(Rng(config.seed), config.tags)
    db_path = str(tmp_path / "reader.db")
    save_db(
        db_path,
        config,
        list(system.reader.db.records_ascending()),
        reader_id=system.reader.reader_id,
        reader_signer=system.reader_signer,
        directory=system.directory,
    )
    tag_paths = []
    for i, tag_id in enumerate(system.tag_ids()):
        path = str(tmp_path / f"tag-{i:03d}.json")
        save_tag(path, config.mode, system.tag(tag_id).state)
        tag_paths.append(path)
    return db_path, tag_paths, system


def start_server(db_path, *, sessions, rng=None, announce=lambda line: None):
    """Run serve_reader on a free loopback port in a daemon thread."""
    ports = queue.Queue()
    box = {}

    def run():
        try:
            box["results"] = serve_reader(
                db_path,
                host="127.0.0.1",
                port=0,
                sessions=sessions,
                rng=rng,
                announce=announce,
                ready=ports.put,
            )
        except BaseException as exc:
            box["error"] = exc
            ports.put(None)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    port = ports.get(timeout=5)
    assert port is not None, repr(box.get("error"))
    box["thread"] = thread
    box["port"] = port
    return box


def finish(box, timeout=10):
    box["thread"].join(timeout)
    assert not box["thread"].is_alive()
    if "error" in box:
        raise box["error"]
    return box["results"]


def run_client(box, tag_path, config, **kwargs):
    return tag_run(
        tag_path,
        config,
        host="127.0.0.1",
        port=box["port"],
        announce=lambda line: None,
        **kwargs,
    )


def test_ma_sessions_over_loopback(tmp_path):
    config = Config(mode="ma", tags=1, seed="net-ma")
    db_path, tag_paths, system = deploy(tmp_path, config)
    box = start_server(db_path, sessions=3)
    client = run_client(box, tag_paths[0], config, sessions=3)
    server = finish(box)

    assert [r["j"] for r in server] == [1, 2, 3]
    for summary in server:
        assert summary["o_reader"] == 1
        assert summary["via_step"] == 1
        assert summary["o_tag"] == 1
        assert summary["tag_id"] == system.first_tag_id().hex()
        assert summary["credential"] is None
    assert client == [{"o_tag": 1, "o_reader": 1, "credential": None, "note": ""}] * 3

    data = load_db(db_path)
    assert len(data.journal) == 3
    assert data.history.db_at(3)[system.first_tag_id()].ctr == 4
    mode, state, _version = load_tag(tag_paths[0])
    assert mode == "ma"
    assert state.ctr == 4


def test_served_sessions_build_pop_params_once_per_side(tmp_path, monkeypatch):
    """The reader (one serve_reader) and the tag (one tag_run per session,
    one config) each build their PopParams once, not once per session."""
    config = Config(mode="mapop", tags=1, seed="net-params")
    db_path, tag_paths, _system = deploy(tmp_path, config)
    builds = collections.Counter()
    post_init = PopParams.__post_init__

    def counted(self):
        builds[threading.current_thread().name] += 1
        post_init(self)

    monkeypatch.setattr(PopParams, "__post_init__", counted)
    box = start_server(db_path, sessions=2)
    client_config = Config(mode="mapop", tags=1, seed="net-params")
    client = [run_client(box, tag_paths[0], client_config)[0] for _ in range(2)]
    server = finish(box)

    assert [r["o_reader"] for r in server] == [1, 1]
    assert [r["o_tag"] for r in client] == [1, 1]
    assert builds[threading.main_thread().name] == 1
    assert builds[box["thread"].name] == 1
    assert sum(builds.values()) == 2


def test_mapop_session_issues_verifiable_credential(tmp_path):
    config = Config(mode="mapop", tags=2, seed="net-pop")
    db_path, tag_paths, system = deploy(tmp_path, config)
    cred_path = tmp_path / "cred.bin"
    box = start_server(db_path, sessions=1)
    client = run_client(box, tag_paths[0], config, sessions=1, cred_out=str(cred_path))
    server = finish(box)

    assert server[0]["o_reader"] == 1
    assert client[0]["o_tag"] == 1
    assert client[0]["credential"] == server[0]["credential"]
    assert cred_path.read_bytes().hex() == server[0]["credential"]

    data = load_db(db_path)
    assert data.journal[0].mode == "pop"
    cred = Credential.decode(cred_path.read_bytes())
    assert cred_veri(config.pop_params(), data.directory, cred) == 1
    assert cred.tag_id == system.first_tag_id()


def test_shared_rng_reproduces_in_memory_transcript(tmp_path):
    """One Rng shared by both endpoints replays the in-memory session exactly.

    The wire protocol is strict ping-pong, so even across threads the two
    parties consume randomness in the same order as a direct relay.  The
    issued credential signs over transcript-derived digests, so byte equality
    here pins the whole exchange, not just the verdicts.
    """
    config = Config(mode="mapop", tags=1, seed="net-equiv")
    db_path, tag_paths, _system = deploy(tmp_path, config)
    twin = config.build_system(Rng(config.seed), config.tags)

    shared = Rng("net-shared-draws")
    box = start_server(db_path, sessions=1, rng=shared)
    client = run_client(box, tag_paths[0], config, sessions=1, rng=shared)
    server = finish(box)

    replay_rng = Rng("net-shared-draws")
    run_honest_session(twin.reader, twin.tag(twin.first_tag_id()), replay_rng)
    record = twin.reader.history.sessions[-1]
    expected_cred = cred_gen(
        config.pop_params(), twin.reader, twin.reader.protocol.reader_signer, 1
    )

    assert server[0]["sid"] == record.sid.hex()
    assert server[0]["o_reader"] == record.o_reader == 1
    assert server[0]["via_step"] == record.via_step
    assert server[0]["tag_id"] == record.tag_id.hex()
    assert server[0]["credential"] == expected_cred.encode().hex()
    assert client[0]["o_tag"] == 1


def test_stalled_client_scores_reader_zero(tmp_path):
    config = Config(mode="ma", tags=1, seed="net-stall", timeout_ticks=2)
    db_path, tag_paths, system = deploy(tmp_path, config)
    box = start_server(db_path, sessions=1)

    with socket.create_connection(("127.0.0.1", box["port"]), timeout=5) as sock:
        challenge = read_frame(sock)
        assert challenge.msg_type == 0x01
        time.sleep(6 * TICK_SECONDS)  # stay silent past the 2-tick budget
        verdict = read_frame(sock)
    assert verdict.msg_type == TYPE_RESULT_READER
    assert result_value(verdict) == 0

    server = finish(box)
    assert server[0]["o_reader"] == 0
    assert server[0]["o_tag"] is None
    assert server[0]["tag_id"] is None

    data = load_db(db_path)
    assert len(data.journal) == 1
    assert data.journal[0].o_reader == 0

    # Neither side advanced, so the next honest session resyncs on step 1.
    box = start_server(db_path, sessions=1)
    client = run_client(box, tag_paths[0], config, sessions=1)
    server = finish(box)
    assert client[0]["o_tag"] == 1
    assert server[0]["j"] == 2
    assert server[0]["o_reader"] == 1
    assert server[0]["via_step"] == 1
    assert load_db(db_path).history.db_at(2)[system.first_tag_id()].ctr == 2


# A peer that sends one byte per DRIBBLE_S never stalls a single recv for a
# 2-tick budget, so only a per-session deadline stops it.  It gives up after
# DRIBBLE_LIMIT_S, which bounds each test; a session that lasts that long was
# held open by the dribble.
DRIBBLE_S = 0.03
DRIBBLE_LIMIT_S = 2.0


def test_dribbling_client_is_cut_off_at_the_session_deadline(tmp_path):
    config = Config(mode="ma", tags=1, seed="net-dribble", timeout_ticks=2)
    db_path, _tag_paths, _system = deploy(tmp_path, config)
    box = start_server(db_path, sessions=1)

    with socket.create_connection(("127.0.0.1", box["port"]), timeout=5) as sock:
        challenge = read_frame(sock)
        start = time.monotonic()
        trickle = Frame(TYPE_ROUND_REPLY, challenge.sid, bytes(1000)).encode()
        for byte in trickle:
            if time.monotonic() - start > DRIBBLE_LIMIT_S:
                break
            if select.select([sock], [], [], DRIBBLE_S)[0]:
                break  # the reader has given its verdict
            sock.sendall(bytes([byte]))
        elapsed = time.monotonic() - start
        verdict = read_frame(sock)

    assert result_value(verdict) == 0
    assert elapsed < 10 * config.timeout_ticks * TICK_SECONDS
    server = finish(box)
    assert server[0]["o_reader"] == 0


def test_dribbling_reader_is_cut_off_at_the_session_deadline(tmp_path):
    config = Config(mode="ma", tags=1, seed="net-dribble-tag", timeout_ticks=2)
    _db_path, tag_paths, _system = deploy(tmp_path, config)
    server = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()

    def dribble():
        conn, _peer = server.accept()
        with conn:
            begun = time.monotonic()
            for byte in Frame(TYPE_ROUND_CHALLENGE, bytes(16), bytes(1000)).encode():
                if done.wait(DRIBBLE_S) or time.monotonic() - begun > DRIBBLE_LIMIT_S:
                    break
                try:
                    conn.sendall(bytes([byte]))
                except OSError:
                    break  # the tag hung up

    thread = threading.Thread(target=dribble, daemon=True)
    with server:
        thread.start()
        start = time.monotonic()
        try:
            result = tag_run(tag_paths[0], config, host="127.0.0.1",
                             port=server.getsockname()[1], announce=lambda line: None)
        finally:
            elapsed = time.monotonic() - start
            done.set()
            thread.join(5)
    assert not thread.is_alive()
    assert result == [{"o_tag": None, "o_reader": None, "credential": None, "note": None}]
    assert elapsed < 10 * config.timeout_ticks * TICK_SECONDS


def test_framing_violations_score_reader_zero(tmp_path):
    config = Config(mode="ma", tags=1, seed="net-frame")
    db_path, _tag_paths, _system = deploy(tmp_path, config)
    box = start_server(db_path, sessions=2)

    # Session 1: an unknown frame type aborts the session.
    with socket.create_connection(("127.0.0.1", box["port"]), timeout=5) as sock:
        read_frame(sock)
        sock.sendall(b"\x00\x00\x00\x00" + b"\x7f" + bytes(16))
        verdict = read_frame(sock)
        assert verdict.msg_type == TYPE_RESULT_READER
        assert result_value(verdict) == 0

    # Session 2: clients may not send reader-result frames.
    with socket.create_connection(("127.0.0.1", box["port"]), timeout=5) as sock:
        challenge = read_frame(sock)
        sock.sendall(result_frame(TYPE_RESULT_READER, challenge.sid, 1).encode())
        verdict = read_frame(sock)
        assert verdict.msg_type == TYPE_RESULT_READER
        assert result_value(verdict) == 0

    server = finish(box)
    assert [r["o_reader"] for r in server] == [0, 0]
    data = load_db(db_path)
    assert [entry.o_reader for entry in data.journal] == [0, 0]


def test_journal_numbering_survives_server_restart(tmp_path):
    config = Config(mode="ma", tags=1, seed="net-restart")
    db_path, tag_paths, system = deploy(tmp_path, config)

    box = start_server(db_path, sessions=2)
    run_client(box, tag_paths[0], config, sessions=2)
    first = finish(box)
    assert [r["j"] for r in first] == [1, 2]

    box = start_server(db_path, sessions=1)
    run_client(box, tag_paths[0], config, sessions=1)
    second = finish(box)
    assert second[0]["j"] == 3
    assert second[0]["o_reader"] == 1
    assert second[0]["via_step"] == 1

    data = load_db(db_path)
    assert [entry.j for entry in data.journal] == [1, 2, 3]
    tid = system.first_tag_id()
    assert data.history.db_at(2)[tid].ctr == 3
    assert data.history.db_at(3)[tid].ctr == 4
    _mode, state, _version = load_tag(tag_paths[0])
    assert state.ctr == 4


def test_restart_after_torn_append_resyncs_through_step_two(tmp_path):
    """The reader died part-way through journaling session 2, after the tag
    had already saved its advanced counter.  The restarted reader drops the
    torn entry, and the tag, now ahead of the reader's record, is accepted
    through Step 2 in the session that takes number 2."""
    config = Config(mode="ma", tags=1, seed="net-torn")
    db_path, tag_paths, system = deploy(tmp_path, config)
    box = start_server(db_path, sessions=1)
    run_client(box, tag_paths[0], config, sessions=1)
    finish(box)
    one_entry = os.path.getsize(db_path)
    box = start_server(db_path, sessions=1)
    run_client(box, tag_paths[0], config, sessions=1)
    finish(box)
    torn = (os.path.getsize(db_path) - one_entry) // 2
    os.truncate(db_path, one_entry + torn)

    lines = []
    box = start_server(db_path, sessions=1, announce=lines.append)
    client = run_client(box, tag_paths[0], config, sessions=1)
    server = finish(box)
    assert any(f"torn journal tail of {torn} bytes" in line for line in lines)
    assert client[0]["o_tag"] == 1
    assert server[0]["j"] == 2
    assert server[0]["o_reader"] == 1
    assert server[0]["via_step"] == 2

    data = load_db(db_path)
    assert data.torn_bytes == 0
    assert [entry.j for entry in data.journal] == [1, 2]
    _mode, state, _version = load_tag(tag_paths[0])
    assert data.history.db_at(2)[system.first_tag_id()].ctr == state.ctr == 4


class ReaderKilled(Exception):
    """Stands in for a reader process dying at an injected point."""


def kill_reader_at_append(monkeypatch, *, after_write):
    """Make the reader's next journal append die, before or after it writes."""
    write = netrun.append_journal

    def append(*args):
        if after_write:
            write(*args)
        raise ReaderKilled

    monkeypatch.setattr(netrun, "append_journal", append)


def crash_then_restart(tmp_path, monkeypatch, seed, *, after_write):
    """One mapop session whose reader dies at its journal append, then one
    honest session against a reader restarted from the file.  Returns the
    crashed session's tag result, the next session's tag and reader results,
    and the deployment."""
    config = Config(mode="mapop", tags=2, seed=seed)
    db_path, tag_paths, system = deploy(tmp_path, config)
    start = time.monotonic()
    kill_reader_at_append(monkeypatch, after_write=after_write)
    box = start_server(db_path, sessions=1)
    crashed = run_client(box, tag_paths[0], config, sessions=1)
    with pytest.raises(ReaderKilled):
        finish(box)
    monkeypatch.undo()
    box = start_server(db_path, sessions=1)
    client = run_client(box, tag_paths[0], config, sessions=1)
    server = finish(box)
    assert time.monotonic() - start < 10 * config.timeout_ticks * TICK_SECONDS
    return crashed[0], client[0], server[0], (config, db_path, tag_paths, system)


def test_reader_killed_before_its_append_resyncs_through_step_two(tmp_path, monkeypatch):
    """The reader accepted session 1 and died before journaling it.  It had
    sent no verdict and no credential, so the tag holds nothing the file does
    not.  The tag's counter is one ahead of the file's record, and the
    restarted reader accepts it through Step 2 in a session numbered 1."""
    crashed, client, server, deployment = crash_then_restart(
        tmp_path, monkeypatch, "net-kill-before-append", after_write=False)
    config, db_path, tag_paths, system = deployment
    assert crashed == {"o_tag": 1, "o_reader": None, "credential": None, "note": ""}
    assert (client["o_tag"], client["o_reader"]) == (1, 1)
    assert (server["j"], server["o_reader"], server["via_step"]) == (1, 1, 2)

    data = load_db(db_path)
    assert [entry.j for entry in data.journal] == [1]
    _mode, state, _version = load_tag(tag_paths[0])
    assert data.history.db_at(1)[system.first_tag_id()].ctr == state.ctr == 3
    cred = Credential.decode(bytes.fromhex(client["credential"]))
    assert cred_veri(config.pop_params(), data.directory, cred) == 1


def test_reader_killed_after_its_append_resumes_on_step_one(tmp_path, monkeypatch):
    """The reader journaled session 1 and died before sending its verdict and
    credential.  Reader and tag agree on the counter, so the restarted reader
    accepts the next session through Step 1 as session 2.  The credential the
    crash withheld is lost: the journal keeps no messages to rebuild it from."""
    crashed, client, server, deployment = crash_then_restart(
        tmp_path, monkeypatch, "net-kill-after-append", after_write=True)
    config, db_path, tag_paths, system = deployment
    assert crashed == {"o_tag": 1, "o_reader": None, "credential": None, "note": ""}
    assert (client["o_tag"], client["o_reader"]) == (1, 1)
    assert (server["j"], server["o_reader"], server["via_step"]) == (2, 1, 1)

    data, reader = reader_from_file(db_path)
    assert [entry.j for entry in data.journal] == [1, 2]
    assert data.journal[0].o_reader == 1
    _mode, state, _version = load_tag(tag_paths[0])
    assert data.history.db_at(2)[system.first_tag_id()].ctr == state.ctr == 3
    with pytest.raises(UnknownSnapshot, match="keeps no messages"):
        cred_gen(config.pop_params(), reader, data.reader_signer, 1)
    cred = Credential.decode(bytes.fromhex(client["credential"]))
    assert cred_veri(config.pop_params(), data.directory, cred) == 1


def test_tag_file_is_saved_after_each_session(tmp_path):
    """A tag whose second session cannot connect keeps the first session's
    counter on disk."""
    config = Config(mode="ma", tags=1, seed="net-save-each")
    db_path, tag_paths, _system = deploy(tmp_path, config)
    box = start_server(db_path, sessions=1)
    with pytest.raises(ConnectionRefusedError):
        # Joining the server after the first session closes its listener.
        tag_run(tag_paths[0], config, host="127.0.0.1", port=box["port"], sessions=2,
                announce=lambda line: finish(box))
    _mode, state, _version = load_tag(tag_paths[0])
    assert state.ctr == 2


def test_mode_mismatch_is_rejected_before_connecting(tmp_path):
    config = Config(mode="ma", tags=1, seed="net-mismatch")
    _db_path, tag_paths, _system = deploy(tmp_path, config)
    with pytest.raises(FrameError, match="mode"):
        tag_run(
            tag_paths[0],
            Config(mode="mapop", tags=1),
            host="127.0.0.1",
            port=1,
            announce=lambda line: None,
        )


def _without(name):
    return lambda block: {k: v for k, v in block.items() if k != name}


@pytest.mark.parametrize(
    "mode, impl, field, damage, error",
    [
        ("ma", "impl1", "key", lambda text: text[:-2], "key is 31 bytes, config says 32"),
        ("mapop", "impl1", "pop_key", lambda text: text[:-2], "pop_key is 31 bytes, config says 32"),
        ("ma", "impl1", "key", lambda text: "zz" + text[2:], "key is not hex"),
        ("ma", "impl1", "ctr", lambda ctr: -1, "ctr is -1, not a non-negative integer"),
        ("ma", "impl1", "ctr", lambda ctr: str(ctr), "ctr is '1', not a non-negative integer"),
        ("ma", "impl1", "ctr", lambda ctr: 2**256, "ctr is above the config's bound"),
        ("ma", "impl1", "key_version", lambda v: "7",
         "key_version is '7', not a non-negative integer"),
        ("ma", "impl1", "key_version", lambda v: None,
         "key_version is None, not a non-negative integer"),
        ("ma", "impl1", "key_version", lambda v: -3,
         "key_version is -3, not a non-negative integer"),
        ("cex", "impl1", "st", lambda st: 2, "st is 2, not 0 or 1"),
        ("cex", "impl1", "st", lambda st: "1", "st is '1', not 0 or 1"),
        ("cex", "impl1", "st", lambda st: -1, "st is -1, not 0 or 1"),
        ("mapop", "impl1", "signer", lambda block: None, "signer scheme None is unknown"),
        ("mapop", "impl1", "signer", lambda block: {**block, "scheme": "rsa"},
         "signer scheme 'rsa' is unknown"),
        ("mapop", "impl1", "signer",
         lambda block: {"scheme": "ktime-secp256k1", "seed": block["seed"], "k": 4, "used": 0},
         "signer scheme is 'ktime-secp256k1', config impl1 signs with 'ed25519'"),
        ("mapop", "impl3", "signer",
         lambda block: {"scheme": "ed25519", "seed": block["seed"], "pool_remaining": None},
         "signer scheme is 'ed25519', config impl3 signs with 'ktime-secp256k1'"),
        ("mapop", "impl1", "signer", _without("seed"), "seed is not hex"),
        ("mapop", "impl1", "signer", lambda block: {**block, "seed": "zz" + block["seed"][2:]},
         "seed is not hex"),
        ("mapop", "impl3", "signer", lambda block: {**block, "seed": block["seed"][:-2]},
         "seed is 31 bytes, not 32"),
        ("mapop", "impl3", "signer", lambda block: {**block, "k": 0},
         "k is 0, not a positive integer"),
        ("mapop", "impl3", "signer", lambda block: {**block, "k": "4"},
         "k is '4', not a positive integer"),
        ("mapop", "impl3", "signer", _without("k"), "k is None, not a positive integer"),
        ("mapop", "impl3", "signer", lambda block: {**block, "used": "3"},
         "used is '3', not a non-negative integer"),
        ("mapop", "impl3", "signer", lambda block: {**block, "used": -1},
         "used is -1, not a non-negative integer"),
        ("mapop", "impl3", "signer", lambda block: {**block, "used": block["k"] + 1},
         "used is 17, above k = 16"),
        ("mapop", "impl2", "signer", lambda block: {**block, "pool_remaining": -1},
         "pool_remaining is -1, not a non-negative integer"),
        ("mapop", "impl1", "signer", lambda block: {**block, "pool_remaining": "5"},
         "pool_remaining is '5', not a non-negative integer"),
    ],
    ids=["short-key", "short-pop_key", "non-hex-key", "negative-ctr", "string-ctr",
         "ctr-above-bound", "string-key_version", "null-key_version", "negative-key_version",
         "st-2", "string-st", "negative-st",
         "null-signer", "unknown-scheme", "ktime-signer-in-impl1", "fulltime-signer-in-impl3",
         "missing-seed", "non-hex-seed", "short-seed", "zero-k", "string-k", "missing-k",
         "string-used", "negative-used", "used-above-k", "negative-pool_remaining",
         "string-pool_remaining"],
)
def test_damaged_key_file_is_rejected_before_connecting(
    tmp_path, mode, impl, field, damage, error
):
    """A damaged key file fails at load, not inside its first session."""
    config = Config(mode=mode, impl=impl, tags=1, seed="net-damaged-key")
    _db_path, tag_paths, _system = deploy(tmp_path, config)
    with open(tag_paths[0], encoding="utf-8") as handle:
        doc = json.load(handle)
    doc[field] = damage(doc[field])
    with open(tag_paths[0], "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    with pytest.raises(FrameError, match=error):
        tag_run(tag_paths[0], config, host="127.0.0.1", port=1, announce=lambda line: None)
