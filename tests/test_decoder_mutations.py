"""Decoders against seeded mutations of valid encodings.

Each mutant is a valid encoding with one flipped bit, a cut, an inserted
byte run, or a splice of two valid encodings. A decoder may reject a mutant
only with FrameError, and a mutant it accepts must re-encode to the same
bytes.
"""

import random

import pytest

from rfpop.app.wire import (
    ROUND_TYPES,
    TYPE_CREDENTIAL,
    TYPE_RESULT_READER,
    TYPE_RESULT_TAG,
    Frame,
    decode_frame,
)
from rfpop.errors import FrameError
from rfpop.pop import Credential, cred_gen
from rfpop.primitives.rng import Rng
from rfpop.system import build_pop_system, mapop_session

MUTANTS = 600


def mutate(rnd: random.Random, data: bytes, others: list[bytes]) -> bytes:
    kind = rnd.choice(("flip", "cut", "insert", "splice"))
    if kind == "flip":
        at = rnd.randrange(len(data))
        return data[:at] + bytes([data[at] ^ (1 << rnd.randrange(8))]) + data[at + 1 :]
    if kind == "cut":
        start = rnd.randrange(len(data))
        return data[:start] + data[start + rnd.randint(1, len(data) - start) :]
    if kind == "insert":
        at = rnd.randrange(len(data) + 1)
        return data[:at] + rnd.randbytes(rnd.randint(1, 8)) + data[at:]
    other = rnd.choice(others)
    return data[: rnd.randrange(len(data) + 1)] + other[rnd.randrange(len(other) + 1) :]


def check_mutants(seed: str, encodings: list[bytes], decode, encode) -> int:
    """Decode MUTANTS mutants; returns how many decoded."""
    rnd = random.Random(seed)
    decoded = 0
    for _ in range(MUTANTS):
        mutant = mutate(rnd, rnd.choice(encodings), encodings)
        try:
            value = decode(mutant)
        except FrameError:
            continue
        assert encode(value) == mutant
        decoded += 1
    return decoded


def valid_frames() -> list[bytes]:
    sid = bytes(range(16))
    frames = [Frame(t, sid, bytes([t]) * n) for t, n in zip(ROUND_TYPES, (32, 96, 96, 96))]
    frames += [Frame(TYPE_RESULT_READER, sid, b"\x01"), Frame(TYPE_RESULT_TAG, sid, b"\x00"),
               Frame(TYPE_CREDENTIAL, sid, bytes(180)), Frame(ROUND_TYPES[0], sid, b"")]
    return [f.encode() for f in frames]


def test_frame_decoder_mutants():
    frames = valid_frames()
    for blob in frames:
        assert decode_frame(blob).encode() == blob
    # Flips in the sid and the payload leave a valid frame.
    assert check_mutants("frame-mutants", frames, decode_frame, Frame.encode) > 0


@pytest.fixture(scope="module")
def credentials() -> list[bytes]:
    system = build_pop_system(Rng("credential-mutants"), tag_count=2)
    blobs = []
    for j, tag_id in enumerate(system.tag_ids(), start=1):
        mapop_session(system, tag_id)
        blobs.append(cred_gen(system.params, system.reader, system.reader_signer, j).encode())
    return blobs


def test_credential_decoder_mutants(credentials):
    for blob in credentials:
        assert Credential.decode(blob).encode() == blob
    assert check_mutants("credential-mutants", credentials, Credential.decode,
                         Credential.encode) > 0
