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

A record is stored as the length-prefixed fields its mode's `LAYOUTS` entry
lists, in that order (4-byte big-endian prefixes, since K-time verifying keys
can be large); the encoder, the decoder and the size report read that one
entry.  Counters are stored as fixed-width big-endian integers of the counter
length, so a save/load/save round trip is byte-identical.  Loading checks
every key, index and counter field against `params.widths`, and every
metadata entry; damage is a `FrameError` naming what is damaged.  The
database of a mode that issues credentials (mapop) must hold the reader's
signer, an Ed25519 one as `pop_setup` makes it, and the key directory.

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

from rfpop.errors import ConfigError, FrameError
from rfpop.ma import index_for
from rfpop.model.database import History, SessionRecord
from rfpop.model.types import SID_BITS
from rfpop.pop import KeyDirectory
from rfpop.primitives.sig import FULLTIME, SIG_LEN, VerifyKey, signer_from_dict

from rfpop.app import files
from rfpop.app.config import Config, config_from_dict
from rfpop.app.framing import LAYOUTS, U32, Cursor, Truncated, pack_fields
from rfpop.app.tagfile import load_tag, save_tag  # noqa: F401  (see the module docstring)

MAGIC = b"RFPOP1"
_JOURNAL_MARK = b"J"
VIA_STEP_NONE = 0xFF


def check_widths(params, fields: dict, what: str = "record"):
    """A FrameError naming `what` and the first byte field of `fields`
    (name -> bytes) that is not as wide as `params.widths` says."""
    for name, size in params.widths.items():
        blob = fields.get(name)
        if blob is not None and len(blob) != size:
            raise FrameError(f"{what} {name} is {len(blob)} bytes, config says {size}")


def _stored(params, obj, name: str) -> bytes:
    """The bytes field `name` of a reader record or tag state is stored as."""
    if name == "ctr":
        return obj.ctr.to_bytes(params.widths["ctr"], "big")
    if name == "verify_key":
        return obj.verify_key.data
    if name == "signer_seed":
        return bytes.fromhex(obj.signer.to_dict()["seed"])
    return getattr(obj, name)


def record_fields(mode: str, params, rec) -> list[tuple[str, bytes]]:
    """Named byte fields of one reader record, in storage order; the size
    report sums exactly these, so it cannot drift from the encoder."""
    return [(name, _stored(params, rec, name)) for name in LAYOUTS[mode].fields]


def tag_fields(mode: str, params, state) -> list[tuple[str, bytes]]:
    """Named secret fields a tag stores, in storage order."""
    return [(name, _stored(params, state, name)) for name in LAYOUTS[mode].tag_fields]


def encode_record(mode: str, params, rec) -> bytes:
    return pack_fields([_stored(params, rec, name) for name in LAYOUTS[mode].fields])


def decode_record(mode: str, params, cursor: Cursor, keys: dict):
    layout = LAYOUTS[mode]
    blobs = cursor.fields()
    if len(blobs) != len(layout.fields):
        raise FrameError(f"reader record needs {len(layout.fields)} fields, got {len(blobs)}")
    values = dict(zip(layout.fields, blobs))
    check_widths(params, values)
    values["ctr"] = int.from_bytes(values["ctr"], "big")
    if "verify_key" in values:
        values["verify_key"] = _shared_key(keys, params.sig_scheme, values["verify_key"])
    # A plain reader derives its index from (key, ctr); cex records have none.
    if "index" not in values and "index" in layout.record.__dataclass_fields__:
        values["index"] = index_for(params, values["key"], values["ctr"])
    return layout.record(**values)


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
    """Write a fresh database file (header and initial records, no journal);
    returns its bytes."""
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
    return files.write(path, b"".join(body))


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
    credentials = LAYOUTS[config.mode].credentials
    signer = _meta_entry(meta, "reader_signer", _reader_signer, required=credentials)
    keys: dict[VerifyKey, VerifyKey] = {}
    directory = _meta_entry(meta, "directory", lambda doc: _directory_from_dict(doc, keys),
                            required=credentials)
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


def _reader_signer(doc):
    """The reader's signer block: Ed25519 only, as `pop_setup` makes it."""
    signer = signer_from_dict(doc)
    if signer.scheme != FULLTIME:
        raise ValueError(f"reader signer scheme {signer.scheme!r} is not {FULLTIME!r}")
    return signer


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
    `record_mode` of the config's protocol, more than one changed record or
    a tag the set-up records lack is a FrameError naming the entry."""
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
    expected = LAYOUTS[config.mode].protocol.record_mode
    if mode != expected:
        raise FrameError(f"journal entry {j} has session mode {mode!r}, not {expected!r}")
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
    mode_blob = LAYOUTS[config.mode].protocol.record_mode.encode("ascii")
    parts += [U32.pack(len(mode_blob)), mode_blob]
    tag_blob = session.tag_id or b""
    parts += [U32.pack(len(tag_blob)), tag_blob]
    changed = () if session.changed is None else (session.changed,)
    parts += [U32.pack(len(changed)), *(encode_record(config.mode, params, r) for r in changed)]
    files.append(path, b"".join(parts))
