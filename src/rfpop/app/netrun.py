"""Socket endpoints: a reader server and a tag client.

Both sides speak the length-prefixed frame protocol from `rfpop.app.wire`.
The reader serves one session per connection and opens it with the round-0
challenge; from there both ends run one exchange loop, `_exchange`.  The
durable writes are the session machines' sinks: the reader journals each
session before the step that closed it returns, so a reader that crashes has
told no peer of a session its file does not hold, and the tag appends each
state it commits to its key file's state log before the send that spends it.
Both go through `rfpop.app.files`, which calls no `fsync` yet, so both writes
survive a process crash, not a power loss. Each process holds `files.lock` on
the append-only file it writes, the database or the key file's state log, from
load to exit: a second reader on one database, or a second tag on one key
file, fails at once. Each draws its sids, challenges and nonces from
`os.urandom` unless the caller passes `rng`.

Timeouts are configured in ticks; the socket layer maps one tick to
`TICK_SECONDS` of wall-clock time.  The budget is a deadline for the whole
session, not for each recv, so a peer that trickles bytes cannot stretch its
session past the budget.  The budget itself still holds the reader, which
serves one connection at a time: a peer that connects and stalls keeps every
other tag waiting until its deadline passes.  A peer that stalls past the
deadline, closes mid-frame, or violates framing ends the exchange: a session
still open times out with output 0, exactly as on the radio, and a frame that
cannot be sent is dropped.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Callable, Optional

from rfpop.errors import FrameError
from rfpop.model.database import ReaderDatabase
from rfpop.model.session import Reader, Tag
from rfpop.pop import PopProtocol, cred_gen
from rfpop.primitives.rng import Rng

from rfpop.app import files
from rfpop.app.config import Config, check_port
from rfpop.app.dbfile import LAYOUTS, DbFileData, append_journal, check_widths, load_db, tag_fields
from rfpop.app.tagfile import lock_tag, read_tag
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
    protocol, params = LAYOUTS[config.mode].protocol, config.params()
    return PopProtocol(params, reader_signer) if protocol is PopProtocol else protocol(params)


def reader_from_file(db_path: str) -> tuple[DbFileData, Reader]:
    """Rebuild a live reader from a database file at its latest journaled
    state; the reader carries on the file's journal and its numbering."""
    data = load_db(db_path)
    protocol = protocol_for(data.config, data.reader_signer)
    history = data.history
    db = ReaderDatabase(list(history.db_at(len(history.sessions)).values()))
    return data, Reader(protocol, db, reader_id=data.reader_id, history=history)


def _send(conn, frame: Frame):
    """Send a frame; one a gone peer cannot take is dropped, and the next
    read finds the peer gone."""
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
    """Accept `sessions` connections, one session each, with the journal as
    the reader's sink (see `Reader`), so every verdict is on file before it
    is sent. The database stays locked until the function returns.

    A torn last journal entry is cut off the file before the first append."""
    with files.lock(db_path):
        data, reader = reader_from_file(db_path)
        config = data.config
        bind_host = host if host is not None else config.host
        bind_port = config.port if port is None else check_port(port)
        reader.sink = lambda record: append_journal(db_path, config, record)
        if data.torn_bytes:
            files.truncate(db_path, os.path.getsize(db_path) - data.torn_bytes)
            announce(f"dropped a torn journal tail of {data.torn_bytes} bytes "
                     f"after session {len(data.journal)}")
        if rng is None:
            rng = Rng(os.urandom(32))
        results = []
        family = socket.AF_INET6 if ":" in bind_host else socket.AF_INET  # a ":" means IPv6
        with socket.create_server((bind_host, bind_port), family=family) as server:
            actual_port = server.getsockname()[1]
            announce(f"reader listening on {bind_host}:{actual_port}")
            if ready is not None:
                ready(actual_port)
            for _ in range(sessions):
                conn, _peer = server.accept()
                with conn:
                    summary = _serve_one(reader, conn, rng, config)
                announce("session {j}: o_R={o_reader} o_T={o_tag} "
                         "via_step={via_step}".format(**summary))
                results.append(summary)
    return results


def _serve_one(reader: Reader, conn, rng: Rng, config: Config) -> dict:
    budget = config.timeout_ticks * TICK_SECONDS
    conn.settimeout(budget)
    sid, challenge = reader.start(rng)
    _send(conn, frame_for_msg(sid, challenge))
    frames = _exchange(reader, conn, rng, budget, TYPE_RESULT_READER, (TYPE_RESULT_TAG,),
                       lambda sid: _credential_frame(reader, sid))
    record = reader.history.sessions[-1]
    return {
        "j": record.j,
        "sid": record.sid.hex(),
        "o_reader": record.o_reader,
        "o_tag": _result(frames, TYPE_RESULT_TAG),
        "via_step": record.via_step,
        "tag_id": record.tag_id.hex() if record.tag_id else None,
        "credential": _credential_hex(frames),
    }


def _credential_frame(reader: Reader, sid: bytes) -> Optional[Frame]:
    """The credential for the session just ended; only a mapop reader issues
    credentials, and only for sessions it accepted."""
    protocol = reader.protocol
    if not isinstance(protocol, PopProtocol):
        return None
    j = reader.history.sessions[-1].j
    cred = cred_gen(protocol.params, reader, protocol.reader_signer, j)
    return None if cred is None else Frame(TYPE_CREDENTIAL, sid, cred.encode())


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
    """Run `sessions` sessions against a reader server, with the key file's
    state log as the tag's sink (see `Tag` and `tagfile.TagLog`). Each result
    carries the tag's output, the reader's, the credential (hex) and the
    tag's reason for its output ("" on accept, None when the tag never opened
    a session). The key file stays locked until the function returns.

    A torn last log record is cut off the log before the first append."""
    with lock_tag(tag_path):
        mode, state, key_version, log = read_tag(tag_path)
        if mode != config.mode:
            raise FrameError(f"tag file is for mode {mode!r} but config says {config.mode!r}")
        protocol = protocol_for(config)
        params = protocol.params
        if state.ctr > params.max_counter:
            raise FrameError(f"tag file ctr is above the config's bound {params.max_counter}")
        check_widths(params, dict(tag_fields(mode, params, state)), "tag file")
        if LAYOUTS[mode].credentials and state.signer.scheme != params.sig_scheme:
            raise FrameError(f"tag file signer scheme is {state.signer.scheme!r}, "
                             f"config {config.impl} signs with {params.sig_scheme!r}")
        peer_host = host if host is not None else config.host
        peer_port = config.port if port is None else check_port(port)
        if log.torn_bytes:
            files.truncate(log.path, os.path.getsize(log.path) - log.torn_bytes)
            announce(f"dropped a torn state-log tail of {log.torn_bytes} bytes "
                     f"after record {log.records}")
        if rng is None:
            rng = Rng(os.urandom(32))
        timeout_s = config.timeout_ticks * TICK_SECONDS
        tag = Tag(protocol, state, config.effective_lifetime, key_version, sink=log.append)
        results = []
        for _ in range(sessions):
            with socket.create_connection((peer_host, peer_port), timeout=timeout_s) as sock:
                frames = _exchange(tag, sock, rng, timeout_s, TYPE_RESULT_TAG,
                                   (TYPE_RESULT_READER, TYPE_CREDENTIAL))
            o_tag = _result(frames, TYPE_RESULT_TAG)
            result = {"o_tag": o_tag, "o_reader": _result(frames, TYPE_RESULT_READER),
                      "credential": _credential_hex(frames),
                      "note": tag.note if o_tag is not None else None}
            if result["credential"] and cred_out:
                files.write(cred_out, bytes.fromhex(result["credential"]))
            announce("session: o_T={o_tag} o_R={o_reader}".format(**result))
            results.append(result)
    return results


def _exchange(party, conn, rng: Rng, budget: float, own: int, accepts: tuple[int, ...],
              after_verdict=None) -> dict[int, Frame]:
    """Run one session's frames for `party`, a `Reader` or a `Tag`, until it
    holds its own verdict and a frame of each type in `accepts` from its peer.

    Round frames go to `party.step` until it reaches its verdict; its reply
    is sent first, then the verdict as a result frame of type `own`, then the
    frame `after_verdict(sid)` returns, if any.  Any other frame, a failed
    read or the deadline `budget` seconds away ends the exchange, and so does
    an accepted frame while the party's session is open: the peer sends every
    round before its verdict, so no further round can arrive.  A session still
    open at the end is timed out.  Returns the result and credential frames
    sent and received, by type."""
    deadline = time.monotonic() + budget
    wanted = {own, *accepts}
    frames: dict[int, Frame] = {}

    def verdict(outcome):
        sent = [result_frame(own, outcome.sid, outcome.output)]
        if after_verdict is not None:
            sent.append(after_verdict(outcome.sid))
        for frame in sent:
            if frame is not None:
                frames[frame.msg_type] = frame
                _send(conn, frame)

    while not wanted <= frames.keys():
        try:
            frame = read_frame(conn, deadline)
        except (FrameError, OSError):
            break
        if frame.msg_type in ROUND_TYPES and own not in frames:
            sid, msg = msg_from_frame(frame)
            outcome = party.step(sid, msg, rng)
            if outcome.msg is not None:
                _send(conn, frame_for_msg(sid, outcome.msg))
            if outcome.output is not None:
                verdict(outcome)
        elif frame.msg_type in accepts:
            frames[frame.msg_type] = frame
            if party.session is not None:
                break
        else:
            break
    if party.session is not None:
        verdict(party.timeout())
    return frames


def _result(frames: dict[int, Frame], msg_type: int) -> Optional[int]:
    return result_value(frames[msg_type]) if msg_type in frames else None


def _credential_hex(frames: dict[int, Frame]) -> Optional[str]:
    return frames[TYPE_CREDENTIAL].payload.hex() if TYPE_CREDENTIAL in frames else None
