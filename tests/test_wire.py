"""Frame encoding for socket-run sessions."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfpop.app.wire import (
    MAX_PAYLOAD,
    ROUND_TYPES,
    SID_BYTES,
    TYPE_CREDENTIAL,
    TYPE_RESULT_READER,
    TYPE_RESULT_TAG,
    TYPE_ROUND_CHALLENGE,
    Frame,
    frame_for_msg,
    msg_from_frame,
    read_frame,
    result_frame,
    result_value,
)
from rfpop.errors import FrameError
from rfpop.model.types import Msg

SID = bytes(range(16))


class FakeSocket:
    """recv() over a byte buffer, optionally one byte at a time."""

    def __init__(self, data: bytes, chunked: bool = False):
        self.buf = io.BytesIO(data)
        self.chunked = chunked

    def recv(self, n: int) -> bytes:
        return self.buf.read(1 if self.chunked else n)


def test_frame_layout():
    frame = Frame(TYPE_ROUND_CHALLENGE, SID, b"payload")
    blob = frame.encode()
    assert blob[:4] == (7).to_bytes(4, "big")  # length counts payload only
    assert blob[4] == TYPE_ROUND_CHALLENGE
    assert blob[5 : 5 + SID_BYTES] == SID
    assert blob[5 + SID_BYTES :] == b"payload"


@given(
    st.sampled_from(sorted(ROUND_TYPES) + [TYPE_RESULT_READER, TYPE_RESULT_TAG, TYPE_CREDENTIAL]),
    st.binary(min_size=0, max_size=200),
)
def test_encode_decode_round_trip(msg_type, payload):
    frame = Frame(msg_type, SID, payload)
    assert read_frame(FakeSocket(frame.encode())) == frame


def test_encode_rejects_bad_fields():
    with pytest.raises(FrameError):
        Frame(0x7F, SID, b"").encode()
    with pytest.raises(FrameError):
        Frame(TYPE_ROUND_CHALLENGE, b"short", b"").encode()
    with pytest.raises(FrameError):
        Frame(TYPE_ROUND_CHALLENGE, SID, bytes(MAX_PAYLOAD + 1)).encode()


def test_decode_rejects_malformed_buffers():
    good = Frame(TYPE_ROUND_CHALLENGE, SID, b"abc").encode()
    with pytest.raises(FrameError):
        read_frame(FakeSocket(good[:10]))  # truncated header
    with pytest.raises(FrameError):
        read_frame(FakeSocket(good[:-1]))  # payload shorter than declared
    bad_type = good[:4] + bytes([0x7F]) + good[5:]
    with pytest.raises(FrameError):
        read_frame(FakeSocket(bad_type))
    oversized = (MAX_PAYLOAD + 1).to_bytes(4, "big") + good[4:]
    with pytest.raises(FrameError):
        read_frame(FakeSocket(oversized))


def test_read_frame_from_stream_in_chunks():
    frame = Frame(TYPE_ROUND_CHALLENGE, SID, b"hello world")
    assert read_frame(FakeSocket(frame.encode(), chunked=True)) == frame


def test_read_frame_eof_mid_frame():
    frame = Frame(TYPE_ROUND_CHALLENGE, SID, b"hello")
    with pytest.raises(FrameError):
        read_frame(FakeSocket(frame.encode()[:-2]))
    with pytest.raises(FrameError):
        read_frame(FakeSocket(b""))


def test_round_frames_carry_protocol_messages():
    sid = SID
    for round in range(4):
        msg = Msg(round, bytes([round]) * 32)
        frame = frame_for_msg(sid, msg)
        assert frame.msg_type == ROUND_TYPES[round]
        back_sid, back = msg_from_frame(frame)
        assert back_sid == sid
        assert back == msg
    with pytest.raises(FrameError):
        frame_for_msg(sid, Msg(4, bytes(1)))
    with pytest.raises(FrameError):
        msg_from_frame(result_frame(TYPE_RESULT_TAG, SID, 1))


def test_result_frames():
    for msg_type in (TYPE_RESULT_READER, TYPE_RESULT_TAG):
        for value in (0, 1):
            frame = result_frame(msg_type, SID, value)
            assert result_value(read_frame(FakeSocket(frame.encode()))) == value
    with pytest.raises(FrameError):
        result_frame(TYPE_CREDENTIAL, SID, 1)
    with pytest.raises(FrameError):
        result_frame(TYPE_RESULT_TAG, SID, 2)
    with pytest.raises(FrameError):
        result_value(Frame(TYPE_CREDENTIAL, SID, b"\x01"))
    with pytest.raises(FrameError):
        result_value(Frame(TYPE_RESULT_TAG, SID, b"\x02"))
    with pytest.raises(FrameError):
        result_value(Frame(TYPE_RESULT_TAG, SID, b"\x01\x00"))
