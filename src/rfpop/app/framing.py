"""Length-prefixed byte fields, shared by the reader database file and the
tag state log: a list of fields is a 4-byte big-endian count, then each field
as a 4-byte big-endian length and its bytes."""

from __future__ import annotations

import struct

from rfpop.errors import FrameError

U32 = struct.Struct(">I")


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
