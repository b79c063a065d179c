"""What the reader database file and the tag files share: each mode's storage
`Layout`, and length-prefixed byte fields. A list of fields is a 4-byte
big-endian count, then each field as a 4-byte big-endian length and its
bytes."""

from __future__ import annotations

import struct
from typing import NamedTuple

from rfpop.counterexample import CexProtocol, CexReaderRecord, CexTagState
from rfpop.errors import FrameError
from rfpop.ma import MaProtocol, MaReaderRecord, MaTagState
from rfpop.pop import PopProtocol, PopReaderRecord, PopTagState

U32 = struct.Struct(">I")


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


class Truncated(FrameError):
    """The data ended inside a field."""


class Cursor:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise Truncated("database file truncated")
        chunk, self.pos = self.data[self.pos : end], end
        return chunk

    def u32(self) -> int:
        return U32.unpack(self.take(4))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def fields(self) -> list[bytes]:
        return [self.blob() for _ in range(self.u32())]
