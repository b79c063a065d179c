"""Reader database files.

A database file is the magic ``RFPOP1`` followed by records only
(`framing.frame`: a length, its complement, a body and a CRC-32).  Record 0
is the set-up, snapshot 0 of the reader's `History`: its body is the
length-prefixed fields (`framing.pack_fields`) of a canonical-JSON metadata
block (config, reader identity, reader signing key, public-key directory)
and then each initial reader record.  Every later record is a journal entry,
one per terminated session, numbered from 1 as the session is.  An entry's
body holds the whole session, so `load_db` reads the entries into a
`History` equal to the one the live reader kept, and the database state
after any journaled session `j`, and the credential of any accepted one,
stay rebuildable from the file.

An append cut short by a crash leaves a torn last record.  `load_db` drops it
and reports how many bytes it dropped; a whole record with a bad length or
checksum is a `FrameError` naming the entry (the set-up is entry 0).  A file
with no whole set-up record is a `FrameError` naming the set-up, never a torn
tail.  A file in an earlier, unframed form fails at its set-up.

A reader record is stored as the length-prefixed fields its mode's `LAYOUTS`
entry lists, in that order (4-byte big-endian prefixes, since K-time
verifying keys can be large); the encoder, the decoder and the size report
read that one entry.  Counters are stored as fixed-width big-endian integers
of the counter length, so a save/load/save round trip is byte-identical.  The
checksum guards against damage; behind it, loading checks every key, index
and counter field against `params.widths`, and every metadata entry, and a
record or entry with bytes after its last field is refused: damage is a
`FrameError` naming what is damaged.  The database of a mode that issues
credentials (mapop) must hold the reader's signer, an Ed25519 one as
`pop_setup` makes it, and the key directory.

A journal entry's body is the length-prefixed fields `ENTRY_FIELDS` names.
The session's `via_step` is one byte; a session that closed without reaching
a verdict step (timeout, out-of-space message, failed possession proof) has
`via_step` None, stored as `VIA_STEP_NONE`.  The record the session changed
is stored as its tag id and counter: a session changes only its tag's counter
and the index that counter gives, so `load_db` rebuilds the record from the
tag's record before the session.  The checksum guards against damage; behind
it, an entry with the wrong number of fields, a fixed-width field of the
wrong width, an output or `via_step` byte out of range, a session mode or
note that is not text, a session mode that is not the one its config's
reader writes, or a tag no set-up record has is a `FrameError` naming the
entry.

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
from rfpop.app.framing import LAYOUTS, U32, frame, json_object, pack_fields, unframe, unpack_fields
from rfpop.app.tagfile import load_tag, save_tag  # noqa: F401  (see the module docstring)

MAGIC = b"RFPOP1"
VIA_STEP_NONE = 0xFF
# A journal entry's fields, in storage order: `changed_tag_id` and `ctr` are
# the changed record's, each empty when the session changed none.
ENTRY_FIELDS = ("j", "sid", "o_reader", "via_step", "mode", "tag_id", "note", "messages",
                 "pop_nonce", "changed_tag_id", "ctr")


def check_widths(widths: dict, fields: dict, what: str):
    """A FrameError naming `what` and the first byte field of `fields`
    (name -> bytes) that is not as wide as `widths` (name -> bytes) says."""
    for name, size in widths.items():
        blob = fields.get(name)
        if blob is not None and len(blob) != size:
            raise FrameError(f"{what} {name} is {len(blob)} bytes, not {size}")


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


def decode_record(mode: str, params, blob: bytes, keys: dict):
    """The reader record `encode_record` stored as `blob`."""
    layout = LAYOUTS[mode]
    blobs = unpack_fields(blob, "reader record")
    if len(blobs) != len(layout.fields):
        raise FrameError(f"reader record needs {len(layout.fields)} fields, got {len(blobs)}")
    values = dict(zip(layout.fields, blobs))
    check_widths(params.widths, values, "reader record")
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
    torn_bytes: int = 0  # length of the cut-short last journal record load_db dropped

    @property
    def initial(self) -> dict[bytes, object]:
        return self.history.initial

    @property
    def journal(self) -> list[SessionRecord]:
        return self.history.sessions


def save_db(path: str, config: Config, records, reader_id: bytes = b"reader-0",
            reader_signer=None, directory: Optional[KeyDirectory] = None):
    """Write a fresh database file (the magic and the set-up record, no
    journal); returns its bytes."""
    meta = {"config": config.to_dict(), "reader_id": reader_id.hex()}
    if reader_signer is not None:
        meta["reader_signer"] = reader_signer.to_dict()
    if directory is not None:
        meta["directory"] = {
            party.hex(): {"scheme": vk.scheme, "data": vk.data.hex()}
            for party, vk in sorted(directory.entries.items())
        }
    setup = [json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("ascii")]
    params = config.params()
    ordered = sorted(records, key=lambda r: r.tag_id)
    setup += [encode_record(config.mode, params, rec) for rec in ordered]
    return files.write(path, MAGIC + frame(pack_fields(setup)))


def load_db(path: str) -> DbFileData:
    with open(path, "rb") as handle:
        data = handle.read()
    if data[: len(MAGIC)] != MAGIC:
        raise FrameError(f"{path} is not a reader database (bad magic)")
    bodies, torn_bytes = unframe(data, len(MAGIC), "journal entry", first=0)
    if not bodies:
        raise FrameError(f"{path} has no whole set-up record")
    # A set-up of no fields has an empty metadata block, which is not JSON.
    meta_blob, *records = unpack_fields(bodies[0], "set-up") or [b""]
    meta = json_object(meta_blob, "metadata block")
    config = _meta_entry(meta, "config", config_from_dict)
    reader_id = _meta_entry(meta, "reader_id", bytes.fromhex)
    credentials = LAYOUTS[config.mode].credentials
    signer = _meta_entry(meta, "reader_signer", _reader_signer, required=credentials)
    keys: dict[VerifyKey, VerifyKey] = {}
    directory = _meta_entry(meta, "directory", lambda doc: _directory_from_dict(doc, keys),
                            required=credentials)
    params = config.params()
    initial = {}
    for blob in records:
        rec = decode_record(config.mode, params, blob, keys)
        initial[rec.tag_id] = rec
    history = History(initial=initial)
    for body in bodies[1:]:
        history.append(_read_journal_entry(body, config, params, history))
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


def _read_journal_entry(body: bytes, config: Config, params, history: History) -> SessionRecord:
    """The session of the journal entry after `history`'s last, from its
    record's body (see the module docstring for what fails it)."""
    j = len(history.sessions) + 1
    what = f"journal entry {j}"
    fields = unpack_fields(body, what)
    if len(fields) != len(ENTRY_FIELDS):
        raise FrameError(f"{what} holds {len(fields)} fields, not {len(ENTRY_FIELDS)}")
    entry = dict(zip(ENTRY_FIELDS, fields))
    changed_id = entry["changed_tag_id"]
    check_widths({"j": U32.size, "sid": SID_BITS // 8, "o_reader": 1, "via_step": 1,
                  "ctr": params.widths["ctr"] if changed_id else 0}, entry, what)
    if int.from_bytes(entry["j"], "big") != j:
        raise FrameError(f"{what} carries j={int.from_bytes(entry['j'], 'big')}")
    (o_reader,), (via_step,) = entry["o_reader"], entry["via_step"]
    if o_reader not in (0, 1):
        raise FrameError(f"{what} has o_reader byte {o_reader}")
    if via_step not in (0, 1, 2, VIA_STEP_NONE):
        raise FrameError(f"{what} has via_step byte {via_step}")
    try:
        mode, note = entry["mode"].decode("ascii"), entry["note"].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError(f"{what} has a session mode or note that is not text: {exc}") from exc
    expected = LAYOUTS[config.mode].protocol.record_mode
    if mode != expected:
        raise FrameError(f"{what} has session mode {mode!r}, not {expected!r}")
    tag_id = entry["tag_id"] or None
    for tag in (tag_id, changed_id):
        if tag and tag not in history.initial:
            raise FrameError(f"{what} names tag {tag.hex()}, which no set-up record has")
    changed = None
    if changed_id:
        # The index is derived as `decode_record` and `ma._accept` derive it;
        # cex records have none.
        ctr = int.from_bytes(entry["ctr"], "big")
        before = history.record_at(changed_id, j - 1)
        index = {"index": index_for(params, before.key, ctr)} if hasattr(before, "index") else {}
        changed = before.evolve(ctr=ctr, **index)
    return SessionRecord(
        j=j, sid=entry["sid"], o_reader=o_reader, tag_id=tag_id,
        messages=entry["messages"], pop_nonce=entry["pop_nonce"] or None, changed=changed,
        via_step=None if via_step == VIA_STEP_NONE else via_step, note=note,
    )


def append_journal(path: str, config: Config, session: SessionRecord):
    """Append terminated session `session.j` to the file's journal: one
    record of its `ENTRY_FIELDS`."""
    changed = session.changed
    via_step = VIA_STEP_NONE if session.via_step is None else session.via_step
    fields = [
        U32.pack(session.j), session.sid, bytes([session.o_reader & 1]), bytes([via_step]),
        LAYOUTS[config.mode].protocol.record_mode.encode("ascii"), session.tag_id or b"",
        session.note.encode("utf-8"), session.messages, session.pop_nonce or b"",
        b"" if changed is None else changed.tag_id,
        b"" if changed is None else changed.ctr.to_bytes(config.params().widths["ctr"], "big"),
    ]
    files.append(path, frame(pack_fields(fields)))
