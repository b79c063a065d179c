"""Wire framing for socket-run sessions.

Every frame is `length(4, big-endian) || msg_type(1) || sid(16) || payload`,
where `length` counts only the payload bytes.  Protocol rounds map to message
types 0x01..0x04 in order; each side's accept/reject bit travels as its own
result frame on the same stream, and an issued credential follows as a
credential frame.  Unknown message types, truncated frames, and length
mismatches are framing violations and raise FrameError.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Optional

from rfpop.errors import FrameError
from rfpop.model.types import SID_BITS, Msg

TYPE_ROUND_CHALLENGE = 0x01
TYPE_ROUND_REPLY = 0x02
TYPE_ROUND_FINALIZE = 0x03
TYPE_ROUND_FINAL_REPLY = 0x04
TYPE_RESULT_READER = 0x10
TYPE_RESULT_TAG = 0x11
TYPE_CREDENTIAL = 0x20

ROUND_TYPES = (
    TYPE_ROUND_CHALLENGE,
    TYPE_ROUND_REPLY,
    TYPE_ROUND_FINALIZE,
    TYPE_ROUND_FINAL_REPLY,
)

_KNOWN_TYPES = frozenset(ROUND_TYPES) | {TYPE_RESULT_READER, TYPE_RESULT_TAG, TYPE_CREDENTIAL}

SID_BYTES = SID_BITS // 8
_HEADER = struct.Struct(f">IB{SID_BYTES}s")
MAX_PAYLOAD = 1 << 20


@dataclass(frozen=True)
class Frame:
    msg_type: int
    sid: bytes
    payload: bytes

    def encode(self) -> bytes:
        if self.msg_type not in _KNOWN_TYPES:
            raise FrameError(f"unknown message type 0x{self.msg_type:02x}")
        if len(self.sid) != SID_BYTES:
            raise FrameError(f"sid must be {SID_BYTES} bytes, got {len(self.sid)}")
        if len(self.payload) > MAX_PAYLOAD:
            raise FrameError(f"payload of {len(self.payload)} bytes exceeds limit")
        return _HEADER.pack(len(self.payload), self.msg_type, self.sid) + self.payload


def _parse_header(header: bytes) -> tuple[int, int, bytes]:
    """(payload length, message type, sid) of a frame header; an unknown
    type or an oversized declared payload raises FrameError."""
    length, msg_type, sid = _HEADER.unpack_from(header)
    if msg_type not in _KNOWN_TYPES:
        raise FrameError(f"unknown message type 0x{msg_type:02x}")
    if length > MAX_PAYLOAD:
        raise FrameError(f"declared payload of {length} bytes exceeds limit")
    return length, msg_type, sid


def decode_frame(data: bytes) -> Frame:
    """Parse one complete frame; the buffer must hold exactly one frame."""
    if len(data) < _HEADER.size:
        raise FrameError(f"truncated frame header ({len(data)} bytes)")
    length, msg_type, sid = _parse_header(data)
    payload = data[_HEADER.size :]
    if len(payload) != length:
        raise FrameError(f"declared payload length {length} but got {len(payload)} bytes")
    return Frame(msg_type=msg_type, sid=sid, payload=payload)


def read_frame(sock, deadline: Optional[float] = None) -> Frame:
    """Read one frame from a socket-like object with recv().

    With a `deadline` (a `time.monotonic()` value) every recv waits only for
    the time left before it, so a peer that trickles bytes cannot stretch the
    wait past it; once it has passed, only bytes already buffered are read
    and an empty buffer raises OSError.
    """
    length, msg_type, sid = _parse_header(_recv_exact(sock, _HEADER.size, deadline))
    payload = _recv_exact(sock, length, deadline) if length else b""
    return Frame(msg_type=msg_type, sid=sid, payload=payload)


def _recv_exact(sock, n: int, deadline: Optional[float]) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        if deadline is not None:
            sock.settimeout(max(deadline - time.monotonic(), 0.0))
        chunk = sock.recv(remaining)
        if not chunk:
            raise FrameError(f"connection closed mid-frame ({n - remaining}/{n} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def frame_for_msg(sid: bytes, msg: Msg) -> Frame:
    if not 0 <= msg.round < len(ROUND_TYPES):
        raise FrameError(f"round {msg.round} has no frame type")
    return Frame(msg_type=ROUND_TYPES[msg.round], sid=sid, payload=msg.payload)


def msg_from_frame(frame: Frame) -> tuple[bytes, Msg]:
    """Recover (sid, protocol message) from a round frame."""
    if frame.msg_type not in ROUND_TYPES:
        raise FrameError(f"frame type 0x{frame.msg_type:02x} is not a protocol round")
    return frame.sid, Msg(ROUND_TYPES.index(frame.msg_type), frame.payload)


def result_frame(msg_type: int, sid: bytes, value: int) -> Frame:
    if msg_type not in (TYPE_RESULT_READER, TYPE_RESULT_TAG):
        raise FrameError(f"frame type 0x{msg_type:02x} is not a result channel")
    if value not in (0, 1):
        raise FrameError(f"result value must be 0 or 1, got {value!r}")
    return Frame(msg_type=msg_type, sid=sid, payload=bytes([value]))


def result_value(frame: Frame) -> int:
    if frame.msg_type not in (TYPE_RESULT_READER, TYPE_RESULT_TAG):
        raise FrameError(f"frame type 0x{frame.msg_type:02x} is not a result channel")
    if len(frame.payload) != 1 or frame.payload[0] not in (0, 1):
        raise FrameError("result payload must be a single 0/1 byte")
    return frame.payload[0]
