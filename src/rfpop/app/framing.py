"""What the reader database file and the tag files share: each mode's storage
`Layout`, length-prefixed byte fields, the checksummed record framing of the
two append-only files, and the one reader of a stored JSON object.

A list of fields (`pack_fields`) is a 4-byte big-endian count, then each field
as a 4-byte big-endian length and its bytes; `unpack_fields` reads one back
and refuses a list cut short or followed by other bytes. A record (`frame`) is
its body's length as a 4-byte big-endian integer, that length XOR 0xFFFFFFFF,
the body, and a CRC-32 over all three, as LevelDB's log frames a record. The
reader database holds, after its magic, the set-up as record 0 and one record
per session (`dbfile`), and a tag's state log one record per committed state
(`tagfile.TagLog`); `unframe` reads either back. Every stored byte a loader
reads goes through `unframe`, `unpack_fields` or `json_object`."""

from __future__ import annotations

import json
import struct
import zlib
from typing import NamedTuple

from rfpop.counterexample import CexProtocol, CexReaderRecord, CexTagState
from rfpop.errors import FrameError
from rfpop.ma import MaProtocol, MaReaderRecord, MaTagState
from rfpop.pop import PopProtocol, PopReaderRecord, PopTagState

U32 = struct.Struct(">I")
HEAD = struct.Struct(">II")  # a record's body length, and the length XOR 0xFFFFFFFF


class Layout(NamedTuple):
    """How one mode's reader records and tag secrets are stored."""

    protocol: type  # the mode's protocol; its `record_mode` is the journal's session mode
    record: type  # the reader-record class
    fields: tuple[str, ...]  # the record's stored fields, in file order
    tag_state: type  # the tag-state class; a key file stores each of its fields
    tag_fields: tuple[str, ...]  # the tag's secret fields, in storage order
    # A mode that issues credentials stores the reader's signer and the key directory.
    credentials: bool = False


# One layout per mode, keyed by the mode's protocol name.
LAYOUTS = {layout.protocol.name: layout for layout in (
    Layout(MaProtocol, MaReaderRecord, ("tag_id", "key", "ctr"), MaTagState, ("key", "ctr")),
    Layout(PopProtocol, PopReaderRecord,
           ("index", "key", "pop_key", "ctr", "tag_id", "verify_key"), PopTagState,
           ("key", "ctr", "pop_key", "signer_seed"), credentials=True),
    Layout(CexProtocol, CexReaderRecord, ("tag_id", "key", "ctr"), CexTagState, ("key", "ctr")),
)}


def pack_fields(fields: list[bytes]) -> bytes:
    out = [U32.pack(len(fields))]
    for blob in fields:
        out.append(U32.pack(len(blob)))
        out.append(blob)
    return b"".join(out)


def unpack_fields(body: bytes, what: str) -> list[bytes]:
    """The fields `pack_fields` packed into `body`. A body that ends inside
    its fields, or holds bytes after the last, is a FrameError naming
    `what`."""
    fields, pos = [], U32.size
    try:
        for _ in range(U32.unpack_from(body)[0]):
            end = pos + U32.size + U32.unpack_from(body, pos)[0]
            fields.append(body[pos + U32.size : end])
            pos = end
    except struct.error:  # a count or a length that runs past the end
        raise FrameError(f"{what} is truncated") from None
    if pos > len(body):
        raise FrameError(f"{what} is truncated")
    if pos < len(body):
        raise FrameError(f"{what} has bytes after its last field")
    return fields


def json_object(text: bytes, what: str) -> dict:
    """The JSON object the UTF-8 `text` holds. Text that is not UTF-8, not
    JSON, nested too deep or not an object is a FrameError naming `what`."""
    try:
        doc = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise FrameError(f"{what} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FrameError(f"{what} is not a JSON object")
    return doc


def frame(body: bytes) -> bytes:
    """One record of `body`: its length and the length's complement, the
    body, and a CRC-32 over all three."""
    framed = HEAD.pack(len(body), len(body) ^ 0xFFFFFFFF) + body
    return framed + U32.pack(zlib.crc32(framed))


def unframe(data: bytes, pos: int, what: str, first: int = 1) -> tuple[list[bytes], int]:
    """The bodies of the whole records in `data[pos:]`, and the length of a
    last record that runs past the end of the data (a torn tail, which an
    append cut short leaves). A whole record with a bad length or a bad
    checksum is a FrameError naming `what` and the record's number, counted
    from `first`."""
    bodies = []
    while len(data) - pos >= HEAD.size:
        size, inverse = HEAD.unpack_from(data, pos)
        name = f"{what} {len(bodies) + first}"
        if size ^ inverse != 0xFFFFFFFF:
            raise FrameError(f"{name} has a damaged length")
        end = pos + HEAD.size + size + U32.size
        if end > len(data):
            break
        if zlib.crc32(data[pos : end - U32.size]) != U32.unpack_from(data, end - U32.size)[0]:
            raise FrameError(f"{name} fails its checksum")
        bodies.append(data[pos + HEAD.size : end - U32.size])
        pos = end
    return bodies, len(data) - pos
