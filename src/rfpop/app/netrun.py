"""Socket endpoints: a reader server and a tag client.

Both sides speak the length-prefixed frame protocol from `rfpop.app.wire`.
The reader serves one session per connection: it opens with the round-0
challenge, relays protocol rounds, and reports its verdict as a reader-result
frame (followed by a credential frame when a mapop session accepts).
It journals each session as soon as it reaches its verdict, before it sends
the message, result or credential that verdict produces, so a reader that
crashes has told no peer of a session its file does not hold.
The tag client answers rounds, reports its own verdict as a tag-result frame,
and persists its updated state back to its key file.

Timeouts are configured in ticks; the socket layer maps one tick to
`TICK_SECONDS` of wall-clock time.  The budget is a deadline for the whole
session, not for each recv, so a peer that trickles bytes cannot hold the
single-connection reader.  A peer that stalls past the deadline, closes
mid-frame, or violates framing loses the session: the reader records o_R = 0
exactly as it would for a radio timeout.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Callable, Optional

from rfpop.counterexample import CexProtocol
from rfpop.errors import FrameError
from rfpop.ma import MaProtocol
from rfpop.model.database import ReaderDatabase
from rfpop.model.session import Reader, Tag
from rfpop.pop import PopProtocol, cred_gen
from rfpop.primitives.rng import Rng

from rfpop.app.config import Config
from rfpop.app.dbfile import DbFileData, append_journal, load_db, load_tag, save_tag
from rfpop.app.wire import (
    ROUND_TYPES,
    TYPE_CREDENTIAL,
    TYPE_RESULT_READER,
    TYPE_RESULT_TAG,
    Frame,
    frame_for_msg,
    msg_from_frame,
    read_frame,
    result_frame,
    result_value,
)

TICK_SECONDS = 0.05


def protocol_for(config: Config, reader_signer=None):
    """The protocol a reader or tag process runs; only a mapop reader signs."""
    params = config.params()
    if config.mode == "mapop":
        return PopProtocol(params, reader_signer)
    return CexProtocol(params) if config.mode == "cex" else MaProtocol(params)


def reader_from_file(db_path: str) -> tuple[DbFileData, Reader]:
    """Rebuild a live reader from a database file at its latest journaled
    state; the reader carries on the file's journal and its numbering."""
    data = load_db(db_path)
    protocol = protocol_for(data.config, data.reader_signer)
    history = data.history
    db = ReaderDatabase(list(history.db_at(len(history.sessions)).values()))
    return data, Reader(protocol, db, reader_id=data.reader_id, history=history)


def _send(conn, frame: Frame):
    conn.sendall(frame.encode())


def _try_send(conn, frame: Frame):
    try:
        conn.sendall(frame.encode())
    except OSError:
        pass


def serve_reader(
    db_path: str,
    *,
    host: Optional[str] = None,
    port: Optional[int] = None,
    sessions: int = 1,
    rng: Optional[Rng] = None,
    announce: Callable[[str], None] = print,
    ready: Optional[Callable[[int], None]] = None,
) -> list[dict]:
    """Accept `sessions` connections, one session each, journaling every verdict.

    A torn last journal entry is cut off the file before the first append."""
    data, reader = reader_from_file(db_path)
    config = data.config
    if data.torn_bytes:
        os.truncate(db_path, os.path.getsize(db_path) - data.torn_bytes)
        announce(f"dropped a torn journal tail of {data.torn_bytes} bytes "
                 f"after session {len(data.journal)}")
    if rng is None:
        rng = Rng(config.seed).spawn("net-reader")
    bind_host = host if host is not None else config.host
    bind_port = port if port is not None else config.port
    results = []
    with socket.create_server((bind_host, bind_port)) as server:
        actual_port = server.getsockname()[1]
        announce(f"reader listening on {bind_host}:{actual_port}")
        if ready is not None:
            ready(actual_port)
        for _ in range(sessions):
            conn, _peer = server.accept()
            with conn:
                summary = _serve_one(reader, conn, rng, config, db_path)
            announce(
                "session {j}: o_R={o_reader} o_T={o_tag} via_step={via_step}".format(**summary)
            )
            results.append(summary)
    return results


def _serve_one(reader: Reader, conn, rng: Rng, config: Config, db_path: str) -> dict:
    budget = config.timeout_ticks * TICK_SECONDS
    deadline = time.monotonic() + budget
    conn.settimeout(budget)
    sid, challenge = reader.start(rng)
    _send(conn, frame_for_msg(sid, challenge))
    o_reader = None
    o_tag = None
    cred = None
    while o_reader is None or o_tag is None:
        try:
            frame = read_frame(conn, deadline)
        except (FrameError, OSError):
            # Stall, disconnect, or framing violation: score it as a timeout.
            if o_reader is None:
                o_reader = _time_out(reader, conn, sid, config, db_path)
            break
        if frame.msg_type in ROUND_TYPES:
            if o_reader is not None:
                continue
            f_sid, msg = msg_from_frame(frame)
            outcome = reader.step(f_sid, msg, rng)
            if outcome.output is not None:
                # Journal the verdict before any of it leaves the reader.
                _journal(reader, config, db_path)
            if outcome.msg is not None:
                _send(conn, frame_for_msg(sid, outcome.msg))
            if outcome.output is not None:
                o_reader = outcome.output
                _send(conn, result_frame(TYPE_RESULT_READER, sid, o_reader))
                cred = _issue_credential(reader)
                if cred is not None:
                    _send(conn, Frame(TYPE_CREDENTIAL, sid, cred.encode()))
        elif frame.msg_type == TYPE_RESULT_TAG:
            o_tag = result_value(frame)
        else:
            # Clients may not send reader-result or credential frames.
            if o_reader is None:
                o_reader = _time_out(reader, conn, sid, config, db_path)
            break
    record = reader.history.sessions[-1]
    return {
        "j": record.j,
        "sid": record.sid.hex(),
        "o_reader": record.o_reader,
        "o_tag": o_tag,
        "via_step": record.via_step,
        "tag_id": record.tag_id.hex() if record.tag_id else None,
        "credential": cred.encode().hex() if cred is not None else None,
    }


def _journal(reader: Reader, config: Config, db_path: str):
    """Append the session the reader just closed to its database file."""
    record = reader.history.sessions[-1]
    append_journal(db_path, config, record.j, record)


def _time_out(reader: Reader, conn, sid: bytes, config: Config, db_path: str) -> int:
    """Close the session with o_R = 0, journal it, then tell the peer."""
    o_reader = reader.timeout().output
    _journal(reader, config, db_path)
    _try_send(conn, result_frame(TYPE_RESULT_READER, sid, o_reader))
    return o_reader


def _issue_credential(reader: Reader):
    """The credential for the session just ended; only a mapop reader issues
    credentials."""
    protocol = reader.protocol
    if not isinstance(protocol, PopProtocol):
        return None
    j = reader.history.sessions[-1].j
    return cred_gen(protocol.params, reader, protocol.reader_signer, j)


def tag_run(
    tag_path: str,
    config: Config,
    *,
    host: Optional[str] = None,
    port: Optional[int] = None,
    sessions: int = 1,
    rng: Optional[Rng] = None,
    announce: Callable[[str], None] = print,
    cred_out: Optional[str] = None,
) -> list[dict]:
    """Run `sessions` sessions against a reader server, saving the key file
    after each one. Each result carries the tag's output, the reader's, the
    credential (hex) and the tag's reason for its output ("" on accept, None
    when the tag's session did not end)."""
    mode, state, key_version = load_tag(tag_path)
    if mode != config.mode:
        raise FrameError(f"tag file is for mode {mode!r} but config says {config.mode!r}")
    protocol = protocol_for(config)
    params = protocol.params
    sizes = {"key": params.key_bits // 8}
    if mode == "mapop":
        sizes["pop_key"] = params.pop_key_bits // 8
    for name, size in sizes.items():
        got = len(getattr(state, name))
        if got != size:
            raise FrameError(f"tag file {name} is {got} bytes, config says {size}")
    if state.ctr > params.max_counter:
        raise FrameError(f"tag file ctr is above the config's bound {params.max_counter}")
    if mode == "mapop" and state.signer.scheme != params.sig_scheme:
        raise FrameError(
            f"tag file signer scheme is {state.signer.scheme!r}, config {config.impl} "
            f"signs with {params.sig_scheme!r}"
        )
    if rng is None:
        rng = Rng(config.seed).spawn("net-tag")
    peer_host = host if host is not None else config.host
    peer_port = port if port is not None else config.port
    timeout_s = config.timeout_ticks * TICK_SECONDS
    tag = Tag(protocol, state, config.effective_lifetime)
    tag.key_version = key_version
    results = []
    for _ in range(sessions):
        with socket.create_connection((peer_host, peer_port), timeout=timeout_s) as sock:
            result = _client_one(tag, sock, rng, timeout_s)
        save_tag(tag_path, mode, tag.state, tag.key_version)
        if result["credential"] and cred_out:
            with open(cred_out, "wb") as handle:
                handle.write(bytes.fromhex(result["credential"]))
        announce("session: o_T={o_tag} o_R={o_reader}".format(**result))
        results.append(result)
    return results


def _client_one(tag: Tag, sock, rng: Rng, timeout_s: float) -> dict:
    deadline = time.monotonic() + timeout_s
    o_tag = None
    o_reader = None
    cred_hex = None
    closed = False
    while o_tag is None and not closed:
        try:
            frame = read_frame(sock, deadline)
        except (FrameError, OSError):
            break
        if frame.msg_type in ROUND_TYPES:
            f_sid, msg = msg_from_frame(frame)
            outcome = tag.step(f_sid, msg, rng)
            if outcome.msg is not None:
                _send(sock, frame_for_msg(f_sid, outcome.msg))
            if outcome.output is not None:
                o_tag = outcome.output
                _send(sock, result_frame(TYPE_RESULT_TAG, f_sid, o_tag))
        elif frame.msg_type == TYPE_RESULT_READER:
            o_reader = result_value(frame)
        elif frame.msg_type == TYPE_CREDENTIAL:
            cred_hex = frame.payload.hex()
    # The reader's verdict (and any credential) may still be in flight.
    while not closed and (o_reader is None or cred_hex is None):
        try:
            frame = read_frame(sock, deadline)
        except (FrameError, OSError):
            closed = True
            break
        if frame.msg_type == TYPE_RESULT_READER:
            o_reader = result_value(frame)
        elif frame.msg_type == TYPE_CREDENTIAL:
            cred_hex = frame.payload.hex()
    note = tag.note if o_tag is not None else None
    return {"o_tag": o_tag, "o_reader": o_reader, "credential": cred_hex, "note": note}
