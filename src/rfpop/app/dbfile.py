"""Reader database files.

A database file starts with the magic ``RFPOP1``, a canonical-JSON metadata
block (config, reader identity, reader signing key, public-key directory), and
the initial reader records.  After the header the file is an append-only
journal: one entry per terminated session recording the verdict and the
record that session changed, if any.  `load_db` reads the entries into the
same `History` a live reader keeps, so the database state after any journaled
session `j` stays loadable for credential audits.

An append cut short by a crash leaves a torn last entry.  `load_db` drops it
and reports how many bytes it dropped; damage anywhere before the last entry
is an error.

Records are stored as fixed-order length-prefixed fields (4-byte big-endian
prefixes, since K-time verifying keys can be large).  Counters are stored as
fixed-width big-endian integers of the counter length, so a save/load/save
round trip is byte-identical.  Loading checks every key, index and counter
field against the configured lengths, and every metadata entry; damage is a
`FrameError` naming what is damaged.

A journal entry stores its session's `via_step` as one byte; a session that
closed without reaching a verdict step (timeout, out-of-space message, failed
possession proof) has `via_step` None, stored as `VIA_STEP_NONE`.  An entry
whose output or `via_step` byte is out of range, whose session mode is not
the one its config's reader writes, that holds more than one changed record,
or that names a tag no set-up record has, is a `FrameError` naming the entry.

Tag key files are `rfpop.app.tagfile`'s; `load_tag` and `save_tag` stay
importable from here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from rfpop.counterexample import CexProtocol, CexReaderRecord
from rfpop.errors import ConfigError, FrameError
from rfpop.ma import MaProtocol, MaReaderRecord, index_for
from rfpop.model.database import History, SessionRecord
from rfpop.model.types import SID_BITS
from rfpop.pop import KeyDirectory, PopProtocol, PopReaderRecord
from rfpop.primitives.sig import SIG_LEN, VerifyKey, signer_from_dict

from rfpop.app.config import Config, config_from_dict
from rfpop.app.framing import U32, Cursor, Truncated, pack_fields
from rfpop.app.tagfile import load_tag, save_tag  # noqa: F401  (see the module docstring)

MAGIC = b"RFPOP1"
_JOURNAL_MARK = b"J"
VIA_STEP_NONE = 0xFF
# The session mode a reader of each config mode writes into its entries.
_SESSION_MODE = {"ma": MaProtocol.record_mode, "mapop": PopProtocol.record_mode,
                "cex": CexProtocol.record_mode}


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
    return pack_fields([blob for _, blob in record_fields(mode, params, rec)])


def _sized(name: str, blob: bytes, nbits: int) -> bytes:
    if 8 * len(blob) != nbits:
        raise FrameError(f"record {name} is {len(blob)} bytes, config says {nbits // 8}")
    return blob


def decode_record(mode: str, params, cursor: Cursor, keys: dict):
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
            verify_key=_shared_key(keys, params.sig_scheme, vk),
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
    body = [MAGIC, U32.pack(len(meta_blob)), meta_blob, U32.pack(len(ordered))]
    body += [encode_record(config.mode, params, rec) for rec in ordered]
    with open(path, "wb") as handle:
        handle.write(b"".join(body))


def load_db(path: str) -> DbFileData:
    with open(path, "rb") as handle:
        data = handle.read()
    cursor = Cursor(data)
    if cursor.take(len(MAGIC)) != MAGIC:
        raise FrameError(f"{path} is not a reader database (bad magic)")
    try:
        meta = json.loads(cursor.blob().decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"corrupt metadata block: {exc}") from exc
    if not isinstance(meta, dict):
        raise FrameError("corrupt metadata block: not a JSON object")
    config = _meta_entry(meta, "config", config_from_dict)
    reader_id = _meta_entry(meta, "reader_id", bytes.fromhex)
    signer = _meta_entry(meta, "reader_signer", signer_from_dict, required=False)
    keys: dict[VerifyKey, VerifyKey] = {}
    directory = _meta_entry(meta, "directory", lambda doc: _directory_from_dict(doc, keys),
                            required=False)
    params = config.params()
    initial = {}
    for _ in range(cursor.u32()):
        rec = decode_record(config.mode, params, cursor, keys)
        initial[rec.tag_id] = rec
    history = History(initial=initial)
    torn_bytes = 0
    while cursor.remaining:
        start = cursor.pos
        expect = len(history.sessions) + 1
        try:
            record = _read_journal_entry(cursor, config, params, keys, initial)
        except Truncated:
            # A crash mid-append cuts the last entry short.  Damage that makes
            # an earlier entry run past the end leaves the next entry's
            # header in the dropped bytes.
            if data.find(_JOURNAL_MARK + U32.pack(expect + 1), start + 1) != -1:
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


def _meta_entry(meta: dict, name: str, parse, required: bool = True):
    """parse(meta[name]); None for an absent optional entry. A missing or
    damaged entry is a FrameError naming it."""
    if name not in meta:
        if required:
            raise FrameError(f"corrupt metadata block: no {name} entry")
        return None
    try:
        return parse(meta[name])
    except (ConfigError, TypeError, ValueError) as exc:
        raise FrameError(f"corrupt {name} block: {exc}") from exc


def _shared_key(keys: dict, scheme: str, data: bytes) -> VerifyKey:
    """The one `VerifyKey` of this load for (scheme, data), so the directory,
    the initial records and the journal share it and a K-time key is decoded
    once."""
    key = VerifyKey(scheme, data)
    return keys.setdefault(key, key)


def _directory_from_dict(doc, keys: dict) -> KeyDirectory:
    """The public-key directory `save_db` writes: party hex -> scheme, data."""
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    entries = {}
    for party, entry in doc.items():
        scheme = entry.get("scheme") if isinstance(entry, dict) else None
        if scheme not in SIG_LEN:
            raise ValueError(f"party {party} scheme {scheme!r} is unknown")
        entries[bytes.fromhex(party)] = _shared_key(keys, scheme, bytes.fromhex(entry.get("data")))
    return KeyDirectory(entries=entries)


def _read_journal_entry(cursor: Cursor, config: Config, params, keys: dict,
                        initial: dict) -> SessionRecord:
    """One journal entry. An output byte other than 0/1, a via_step byte
    other than 0, 1, 2 or VIA_STEP_NONE, a session mode other than the
    config's `_SESSION_MODE`, more than one changed record or a tag the
    set-up records lack is a FrameError naming the entry."""
    if cursor.take(1) != _JOURNAL_MARK:
        raise FrameError("corrupt journal marker")
    j = cursor.u32()
    sid = cursor.take(SID_BITS // 8)
    o_reader = cursor.take(1)[0]
    via_step = cursor.take(1)[0]
    try:
        mode = cursor.blob().decode("ascii")
    except UnicodeDecodeError as exc:
        raise FrameError(f"corrupt journal mode: {exc}") from exc
    tag_id = cursor.blob() or None
    count = cursor.u32()
    if count > 1:
        raise FrameError(f"journal entry {j} holds {count} changed records, not 0 or 1")
    changed = decode_record(config.mode, params, cursor, keys) if count else None
    if o_reader not in (0, 1):
        raise FrameError(f"journal entry {j} has o_reader byte {o_reader}")
    if via_step not in (0, 1, 2, VIA_STEP_NONE):
        raise FrameError(f"journal entry {j} has via_step byte {via_step}")
    if mode != _SESSION_MODE[config.mode]:
        raise FrameError(f"journal entry {j} has session mode {mode!r}, "
                         f"not {_SESSION_MODE[config.mode]!r}")
    for tag in (tag_id, None if changed is None else changed.tag_id):
        if tag is not None and tag not in initial:
            raise FrameError(f"journal entry {j} names tag {tag.hex()}, "
                             "which no set-up record has")
    return SessionRecord(
        j=j, sid=sid, o_reader=o_reader, tag_id=tag_id, changed=changed,
        via_step=None if via_step == VIA_STEP_NONE else via_step,
    )


def append_journal(path: str, config: Config, session: SessionRecord):
    """Append terminated session `session.j` to the file's snapshot journal."""
    params = config.params()
    parts = [
        _JOURNAL_MARK,
        U32.pack(session.j),
        session.sid,
        bytes([session.o_reader & 1]),
        bytes([VIA_STEP_NONE if session.via_step is None else session.via_step]),
    ]
    mode_blob = _SESSION_MODE[config.mode].encode("ascii")
    parts += [U32.pack(len(mode_blob)), mode_blob]
    tag_blob = session.tag_id or b""
    parts += [U32.pack(len(tag_blob)), tag_blob]
    changed = () if session.changed is None else (session.changed,)
    parts += [U32.pack(len(changed)), *(encode_record(config.mode, params, r) for r in changed)]
    with open(path, "ab") as handle:
        handle.write(b"".join(parts))
