"""Reader database files and per-tag key files.

A database file starts with the magic ``RFPOP1``, a canonical-JSON metadata
block (config, reader identity, reader signing key, public-key directory), and
the initial reader records.  After the header the file is an append-only
journal: one entry per terminated session recording the verdict and the
records that session changed.  `load_db` reads the entries into the same
`History` a live reader keeps, so the database state after any journaled
session `j` stays loadable for credential audits.

An append cut short by a crash leaves a torn last entry.  `load_db` drops it
and reports how many bytes it dropped; damage anywhere before the last entry
is an error.

Records are stored as fixed-order length-prefixed fields (4-byte big-endian
prefixes, since K-time verifying keys can be large).  Counters are stored as
fixed-width big-endian integers of the counter length, so a save/load/save
round trip is byte-identical.  Loading checks every key, index and counter
field against the configured lengths.

A journal entry stores its session's `via_step` as one byte; a session that
closed without reaching a verdict step (timeout, out-of-space message, failed
possession proof) has `via_step` None, stored as `VIA_STEP_NONE`.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from typing import Optional

from rfpop.counterexample import CexReaderRecord, CexTagState
from rfpop.errors import FrameError
from rfpop.ma import MaReaderRecord, MaTagState, index_for
from rfpop.model.database import History, SessionRecord
from rfpop.model.types import SID_BITS
from rfpop.pop import KeyDirectory, PopReaderRecord, PopTagState
from rfpop.primitives.sig import VerifyKey, signer_from_dict

from rfpop.app.config import Config, config_from_dict

MAGIC = b"RFPOP1"
_U32 = struct.Struct(">I")
_JOURNAL_MARK = b"J"
VIA_STEP_NONE = 0xFF


def _pack_fields(fields: list[bytes]) -> bytes:
    out = [_U32.pack(len(fields))]
    for blob in fields:
        out.append(_U32.pack(len(blob)))
        out.append(blob)
    return b"".join(out)


class _Truncated(FrameError):
    """The data ended inside a field."""


class _Cursor:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        if self.remaining < n:
            raise _Truncated("database file truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def fields(self) -> list[bytes]:
        return [self.blob() for _ in range(self.u32())]


def record_fields(mode: str, params, rec) -> list[tuple[str, bytes]]:
    """Named byte fields of one reader record, in storage order.

    The byte-size tables sum exactly these field lengths, so the encoders and
    the reported sizes cannot drift apart.
    """
    ctr_bytes = _ctr_width(params)
    if mode == "mapop":
        return [
            ("index", rec.index),
            ("key", rec.key),
            ("pop_key", rec.pop_key),
            ("ctr", rec.ctr.to_bytes(ctr_bytes, "big")),
            ("tag_id", rec.tag_id),
            ("verify_key", rec.verify_key.data),
        ]
    # Plain readers derive the index from (key, ctr); the counterexample
    # protocol has no index at all.  Either way only three fields persist.
    return [
        ("tag_id", rec.tag_id),
        ("key", rec.key),
        ("ctr", rec.ctr.to_bytes(ctr_bytes, "big")),
    ]


def tag_fields(mode: str, params, state) -> list[tuple[str, bytes]]:
    """Named secret fields a tag stores, in storage order."""
    fields = [("key", state.key), ("ctr", state.ctr.to_bytes(_ctr_width(params), "big"))]
    if mode == "mapop":
        fields += [
            ("pop_key", state.pop_key),
            ("signer_seed", bytes.fromhex(state.signer.to_dict()["seed"])),
        ]
    return fields


def _ctr_width(params) -> int:
    return params.out_bits // 8


def encode_record(mode: str, params, rec) -> bytes:
    return _pack_fields([blob for _, blob in record_fields(mode, params, rec)])


def _sized(name: str, blob: bytes, nbits: int) -> bytes:
    if 8 * len(blob) != nbits:
        raise FrameError(f"record {name} is {len(blob)} bytes, config says {nbits // 8}")
    return blob


def decode_record(mode: str, params, cursor: _Cursor):
    fields = cursor.fields()
    if mode == "mapop":
        if len(fields) != 6:
            raise FrameError(f"extended reader record needs 6 fields, got {len(fields)}")
        index, key, pop_key, ctr, tag_id, vk = fields
        return PopReaderRecord(
            tag_id=tag_id,
            key=_sized("key", key, params.key_bits),
            ctr=int.from_bytes(_sized("ctr", ctr, params.out_bits), "big"),
            index=_sized("index", index, params.out_bits),
            pop_key=_sized("pop_key", pop_key, params.pop_key_bits),
            verify_key=VerifyKey(params.sig_scheme, vk),
        )
    if len(fields) != 3:
        raise FrameError(f"reader record needs 3 fields, got {len(fields)}")
    tag_id, key, ctr = fields
    key = _sized("key", key, params.key_bits)
    ctr = int.from_bytes(_sized("ctr", ctr, params.out_bits), "big")
    if mode == "cex":
        return CexReaderRecord(tag_id=tag_id, key=key, ctr=ctr)
    return MaReaderRecord(tag_id=tag_id, key=key, ctr=ctr, index=index_for(params, key, ctr))


@dataclass
class DbFileData:
    config: Config
    reader_id: bytes
    history: History
    reader_signer: Optional[object] = None
    directory: Optional[KeyDirectory] = None
    torn_bytes: int = 0  # length of the cut-short last journal entry load_db dropped

    @property
    def initial(self) -> dict[bytes, object]:
        return self.history.initial

    @property
    def journal(self) -> list[SessionRecord]:
        return self.history.sessions


def save_db(path: str, config: Config, records, reader_id: bytes = b"reader-0",
            reader_signer=None, directory: Optional[KeyDirectory] = None):
    """Write a fresh database file (header and initial records, no journal)."""
    meta = {"config": config.to_dict(), "reader_id": reader_id.hex()}
    if reader_signer is not None:
        meta["reader_signer"] = reader_signer.to_dict()
    if directory is not None:
        meta["directory"] = {
            party.hex(): {"scheme": vk.scheme, "data": vk.data.hex()}
            for party, vk in sorted(directory.entries.items())
        }
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("ascii")
    params = config.params()
    ordered = sorted(records, key=lambda r: r.tag_id)
    body = [MAGIC, _U32.pack(len(meta_blob)), meta_blob, _U32.pack(len(ordered))]
    body += [encode_record(config.mode, params, rec) for rec in ordered]
    with open(path, "wb") as handle:
        handle.write(b"".join(body))


def load_db(path: str) -> DbFileData:
    with open(path, "rb") as handle:
        data = handle.read()
    cursor = _Cursor(data)
    if cursor.take(len(MAGIC)) != MAGIC:
        raise FrameError(f"{path} is not a reader database (bad magic)")
    try:
        meta = json.loads(cursor.blob().decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"corrupt metadata block: {exc}") from exc
    config = config_from_dict(meta["config"])
    reader_id = bytes.fromhex(meta["reader_id"])
    params = config.params()
    initial = {}
    for _ in range(cursor.u32()):
        rec = decode_record(config.mode, params, cursor)
        initial[rec.tag_id] = rec
    signer = None
    if "reader_signer" in meta:
        try:
            signer = signer_from_dict(meta["reader_signer"])
        except ValueError as exc:
            raise FrameError(f"corrupt reader_signer block: {exc}") from exc
    directory = None
    if "directory" in meta:
        entries = {
            bytes.fromhex(party): VerifyKey(doc["scheme"], bytes.fromhex(doc["data"]))
            for party, doc in meta["directory"].items()
        }
        directory = KeyDirectory(entries=entries)
    history = History(initial=initial)
    torn_bytes = 0
    while cursor.remaining:
        start = cursor.pos
        expect = len(history.sessions) + 1
        try:
            record = _read_journal_entry(cursor, config, params)
        except _Truncated:
            # A crash mid-append cuts the last entry short.  Damage that makes
            # an earlier entry run past the end leaves the next entry's
            # header in the dropped bytes.
            if data.find(_JOURNAL_MARK + _U32.pack(expect + 1), start + 1) != -1:
                raise FrameError(f"journal entry {expect} is corrupt") from None
            torn_bytes = len(data) - start
            break
        if record.j != expect:
            raise FrameError(f"journal entry {expect} carries j={record.j}")
        history.append(record)
    return DbFileData(
        config=config,
        reader_id=reader_id,
        history=history,
        reader_signer=signer,
        directory=directory,
        torn_bytes=torn_bytes,
    )


def _read_journal_entry(cursor: _Cursor, config: Config, params) -> SessionRecord:
    if cursor.take(1) != _JOURNAL_MARK:
        raise FrameError("corrupt journal marker")
    j = cursor.u32()
    sid = cursor.take(SID_BITS // 8)
    o_reader = cursor.take(1)[0]
    via_step = cursor.take(1)[0]
    if via_step == VIA_STEP_NONE:
        via_step = None
    try:
        mode = cursor.blob().decode("ascii")
    except UnicodeDecodeError as exc:
        raise FrameError(f"corrupt journal mode: {exc}") from exc
    tag_id = cursor.blob() or None
    delta = {}
    for _ in range(cursor.u32()):
        rec = decode_record(config.mode, params, cursor)
        delta[rec.tag_id] = rec
    return SessionRecord(
        j=j, sid=sid, o_reader=o_reader, tag_id=tag_id, mode=mode,
        delta=delta, via_step=via_step,
    )


def append_journal(path: str, config: Config, j: int, session: SessionRecord):
    """Append one terminated session to the file's snapshot journal."""
    params = config.params()
    parts = [
        _JOURNAL_MARK,
        _U32.pack(j),
        session.sid,
        bytes([session.o_reader & 1]),
        bytes([VIA_STEP_NONE if session.via_step is None else session.via_step]),
    ]
    mode_blob = (session.mode or "").encode("ascii")
    parts += [_U32.pack(len(mode_blob)), mode_blob]
    tag_blob = session.tag_id or b""
    parts += [_U32.pack(len(tag_blob)), tag_blob]
    changed = sorted(session.delta.items())
    parts.append(_U32.pack(len(changed)))
    parts += [encode_record(config.mode, params, rec) for _, rec in changed]
    with open(path, "ab") as handle:
        handle.write(b"".join(parts))


def db_snapshot_load(path: str, j: int) -> dict[bytes, object]:
    """Load the reader records exactly as they stood after journaled session `j`."""
    return load_db(path).history.db_at(j)


def save_tag(path: str, mode: str, state, key_version: int = 0):
    """Write one tag's secrets as a JSON key file.

    The file is written beside its final name and renamed over it, so a
    crash during the write leaves the previous key file whole."""
    doc = {
        "mode": mode,
        "tag_id": state.tag_id.hex(),
        "key": state.key.hex(),
        "ctr": state.ctr,
        "key_version": key_version,
    }
    if mode == "mapop":
        doc["pop_key"] = state.pop_key.hex()
        doc["signer"] = state.signer.to_dict()
    elif mode == "cex":
        doc["st"] = state.st
    staged = path + ".tmp"
    with open(staged, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(staged, path)


def _unhex(doc: dict, name: str) -> bytes:
    try:
        return bytes.fromhex(doc.get(name))
    except (TypeError, ValueError) as exc:
        raise FrameError(f"tag file {name} is not hex: {exc}") from exc


def _natural(value, name: str) -> int:
    if type(value) is not int or value < 0:
        raise FrameError(f"tag file {name} is {value!r}, not a non-negative integer")
    return value


def load_tag(path: str):
    """Read a tag key file back into (mode, state, key_version).  Lengths, the
    counter's upper bound and the signer's scheme are not checked here: the
    file does not say which config it runs under."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    mode = doc["mode"]
    common = dict(
        tag_id=_unhex(doc, "tag_id"), key=_unhex(doc, "key"), ctr=_natural(doc["ctr"], "ctr")
    )
    if mode == "mapop":
        try:
            signer = signer_from_dict(doc.get("signer"))
        except ValueError as exc:
            raise FrameError(f"tag file {exc}") from exc
        state = PopTagState(**common, pop_key=_unhex(doc, "pop_key"), signer=signer)
    elif mode == "cex":
        st = doc.get("st", 0)
        if type(st) is not int or st not in (0, 1):
            raise FrameError(f"tag file st is {st!r}, not 0 or 1")
        state = CexTagState(**common, st=st)
    else:
        state = MaTagState(**common)
    return mode, state, _natural(doc.get("key_version", 0), "key_version")
