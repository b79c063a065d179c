"""Tag key files and their state logs.

A tag key file is a JSON document written whole (`save_tag`): the mode,
`key_version` and each field of the mode's `LAYOUTS` tag state. An
append-only state log sits beside it, `<key file>.log` (`TagLog`). Each log
record's body is the key file document of a state the running tag commits, as
compact JSON. `read_tag` takes the last whole record's document in place of
the key file's; a record cut short at the end of the log is a torn tail, and
any other damage, in the JSON or the log, is a `FrameError`. A running tag
holds its log's lock (`lock_tag`), and a key file rewrite empties the log in
place.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib

from rfpop.errors import FrameError
from rfpop.primitives.sig import signer_from_dict

from rfpop.app import files
from rfpop.app.config import MODES
from rfpop.app.framing import LAYOUTS, U32

TAG_LOG_CAP = 32
"""Whole records a tag's state log may hold before its sink compacts it into
the key file. Each `tag_run` checks every record once at start-up, so the cap
bounds that work, and one JSON rewrite is shared by TAG_LOG_CAP appends."""

_LOG_SUFFIX = ".log"
_LOG_HEAD = struct.Struct(">HH")  # body length, and the length XOR 0xFFFF


def _tag_doc(mode: str, state, key_version: int) -> dict:
    """The key file document: the mode, `key_version` and each field of the
    tag state, bytes as hex, the signer as its `to_dict()` block and ints as
    they are."""
    doc = {"mode": mode, "key_version": key_version}
    for name in state.__dataclass_fields__:
        value = getattr(state, name)
        if isinstance(value, bytes):
            value = value.hex()
        elif not isinstance(value, int):
            value = value.to_dict()
        doc[name] = value
    return doc


def _log_record(doc: dict) -> bytes:
    """One state log record: the body's length and its complement, the body
    (the key file document `doc` as compact JSON) and a CRC-32 over both."""
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    framed = _LOG_HEAD.pack(len(body), len(body) ^ 0xFFFF) + body
    return framed + U32.pack(zlib.crc32(framed))


class TagLog:
    """A key file's append-only state log, `<key file>.log`, as `read_tag`
    found it: `records` whole records, then `torn_bytes` of a record that an
    append left cut short. Each record is a whole key file document, and the
    last one replaces the key file's."""

    def __init__(self, key_path: str, mode: str):
        self.key_path = key_path
        self.path = key_path + _LOG_SUFFIX
        self.mode = mode
        self.records = 0
        self.torn_bytes = 0

    def append(self, state, key_version: int):
        """The tag's write-ahead sink (see `Tag`): append one record of
        `state`. At TAG_LOG_CAP records the key file is rewritten through
        `save_tag`, which empties the log; the record is appended first, so a
        log left full beside the new key file only repeats it."""
        files.append(self.path, _log_record(_tag_doc(self.mode, state, key_version)))
        self.records += 1
        if self.records >= TAG_LOG_CAP:
            save_tag(self.key_path, self.mode, state, key_version)
            self.records = 0

    def fold(self, doc: dict) -> dict:
        """The document of the log's last whole record, or the key file
        document `doc` if the log has none; counts the log's whole records and
        its torn tail. A damaged record, a last record for another tag key or
        older than the key file is a FrameError naming it."""
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return doc
        pos, last = 0, None
        while len(data) - pos >= _LOG_HEAD.size:
            size, inverse = _LOG_HEAD.unpack_from(data, pos)
            number = self.records + 1
            if size ^ inverse != 0xFFFF:
                raise FrameError(f"tag state log record {number} has a damaged length")
            end = pos + _LOG_HEAD.size + size + U32.size
            if end > len(data):
                break
            if zlib.crc32(data[pos : end - U32.size]) != U32.unpack_from(data, end - U32.size)[0]:
                raise FrameError(f"tag state log record {number} fails its checksum")
            last = data[pos + _LOG_HEAD.size : end - U32.size]
            self.records, pos = number, end
        self.torn_bytes = len(data) - pos
        if last is None:
            return doc
        name = f"tag state log record {self.records}"
        try:
            record = json.loads(last)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise FrameError(f"{name} is malformed: {exc}") from exc
        if not isinstance(record, dict):
            raise FrameError(f"{name} is malformed: not a JSON object")
        for field in ("ctr", "key_version"):
            value = record.get(field)
            if type(value) is not int or value < 0:
                raise FrameError(f"{name} is malformed: {field} is {value!r}, "
                                 "not a non-negative integer")
        if any(record.get(field) != doc.get(field) for field in ("mode", "tag_id", "key")):
            raise FrameError(f"{name} is for another tag key")
        if record["ctr"] < doc["ctr"] or record["key_version"] < doc["key_version"]:
            # A log from before the key file's last rewrite would roll the
            # counter back; every log the sink leaves is at least as new.
            raise FrameError(f"{name} is older than the key file")
        return record


def save_tag(path: str, mode: str, state, key_version: int = 0) -> bytes:
    """Write one tag's secrets as a JSON key file, empty its state log, and
    return the file's bytes.

    `setup` writes key files, and a running tag's sink compacts its log into
    one (see `TagLog`). `files.write` stages and renames the file, so a crash
    during the write leaves the previous key file whole. The log is emptied in
    place, not removed, because a running tag holds its lock (see
    `lock_tag`)."""
    text = json.dumps(_tag_doc(mode, state, key_version), indent=2, sort_keys=True) + "\n"
    data = files.write(path, text.encode("ascii"))
    with contextlib.suppress(FileNotFoundError):
        files.truncate(path + _LOG_SUFFIX, 0)
    return data


def lock_tag(path: str):
    """`files.lock` on a key file's state log, created empty if it is
    missing: compaction replaces the key file but only empties the log, so
    the log is the file one tag process at a time may hold. A missing key
    file is a FileNotFoundError, and no log is created beside it."""
    os.stat(path)
    files.append(path + _LOG_SUFFIX, b"")
    return files.lock(path + _LOG_SUFFIX)


def _unhex(doc: dict, name: str) -> bytes:
    try:
        return bytes.fromhex(doc.get(name))
    except (TypeError, ValueError) as exc:
        raise FrameError(f"tag file {name} is not hex: {exc}") from exc


def _natural(doc: dict, name: str, default=None) -> int:
    value = doc.get(name, default)
    if type(value) is not int or value < 0:
        raise FrameError(f"tag file {name} is {value!r}, not a non-negative integer")
    return value


def _flag(doc: dict, name: str) -> int:
    value = doc.get(name, 0)
    if type(value) is not int or value not in (0, 1):
        raise FrameError(f"tag file {name} is {value!r}, not 0 or 1")
    return value


def _signer(doc: dict, name: str):
    try:
        return signer_from_dict(doc.get(name))
    except ValueError as exc:
        raise FrameError(f"tag file {exc}") from exc


# How `read_tag` reads and checks each tag-state field of a key file.
_FIELD_READERS = {"tag_id": _unhex, "key": _unhex, "pop_key": _unhex,
                  "ctr": _natural, "st": _flag, "signer": _signer}


def read_tag(path: str):
    """Read a key file and fold its state log into it: (mode, state,
    key_version, log). The log's last whole record replaces the key file's
    document; a record cut off by the end of the log is dropped and counted in
    `log.torn_bytes`. A document that is not a JSON object of well-formed
    fields is a FrameError. Lengths, the counter's upper bound and the
    signer's scheme are not checked here: the file does not say which config
    it runs under."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise FrameError(f"tag file {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FrameError(f"tag file {path} is not a JSON object")
    mode = doc.get("mode")
    if mode not in MODES:
        raise FrameError(f"tag file mode is {mode!r}, not one of {MODES}")
    doc["ctr"] = _natural(doc, "ctr")
    doc["key_version"] = _natural(doc, "key_version", 0)
    log = TagLog(path, mode)
    doc = log.fold(doc)
    state_class = LAYOUTS[mode].tag_state
    state = state_class(**{name: _FIELD_READERS[name](doc, name)
                           for name in state_class.__dataclass_fields__})
    return mode, state, doc["key_version"], log


def load_tag(path: str):
    """(mode, state, key_version) of a key file with its state log folded in
    (see `read_tag`)."""
    return read_tag(path)[:3]
