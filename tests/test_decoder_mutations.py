"""Decoders against seeded mutations of valid encodings.

Each mutant is a valid encoding with one flipped bit, a cut, an inserted
byte run, or a splice of two valid encodings. The frame and credential
decoders may reject a mutant only with FrameError. A credential they accept
must re-encode to the same bytes; the frame decoder reads a stream, so a
mutant it accepts must start with the frame's re-encoding. A reader database
file may be rejected only with a FrameError. Its set-up and its journal
entries are checksummed records, so every mutant either fails with a
FrameError or loads the original set-up with a prefix of the original
journal (a cut one, or one whose last record the mutant cut short). The
JSON blocks of a config (ConfigError) and a signer (ValueError), and a curve
point (ValueError), are each rejected only with the error their decoder
names; a signature check on a mutated key or signature only answers a bool.
"""

import io
import json
import random

import pytest

from rfpop.app.config import Config, config_from_dict
from rfpop.app.dbfile import append_journal, load_db, save_db
from rfpop.app.wire import (
    ROUND_TYPES,
    TYPE_CREDENTIAL,
    TYPE_RESULT_READER,
    TYPE_RESULT_TAG,
    Frame,
    read_frame,
)
from rfpop.errors import ConfigError, FrameError
from rfpop.pop import Credential, cred_gen
from rfpop.primitives import ec
from rfpop.primitives.rng import Rng
from rfpop.primitives.sig import FullTimeSigner, KTimeSigner, VerifyKey, signer_from_dict
from rfpop.system import build_pop_system

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


def read_first_frame(blob: bytes) -> tuple[Frame, bytes]:
    """The first frame of `blob` as `read_frame` reads it from a peer that
    sent `blob` and closed, and the bytes it leaves to the next read."""
    peer = io.BytesIO(blob)
    peer.recv = peer.read
    return read_frame(peer), peer.read()


def test_frame_decoder_mutants():
    frames = valid_frames()
    for blob in frames:
        frame, rest = read_first_frame(blob)
        assert (frame.encode(), rest) == (blob, b"")
    # Flips in the sid and the payload leave a valid frame.
    assert check_mutants("frame-mutants", frames, read_first_frame,
                         lambda read: read[0].encode() + read[1]) > 0


@pytest.fixture(scope="module")
def credentials() -> list[bytes]:
    system = build_pop_system(Rng("credential-mutants"), tag_count=2)
    blobs = []
    for j, tag_id in enumerate(system.tag_ids(), start=1):
        system.run_honest(tag_id)
        blobs.append(cred_gen(system.params, system.reader, system.reader_signer, j).encode())
    return blobs


def test_credential_decoder_mutants(credentials):
    for blob in credentials:
        assert Credential.decode(blob).encode() == blob
    assert check_mutants("credential-mutants", credentials, Credential.decode,
                         Credential.encode) > 0


DB_CONFIGS = [
    Config(mode="ma", tags=2),
    Config(mode="mapop", impl="impl1", tags=2),
    Config(mode="mapop", impl="impl3", K=4, lifetime=4, tags=2),
    Config(mode="cex", tags=2),
]


def journaled_db(config: Config, path) -> bytes:
    """A set-up reader database with a journal of three sessions."""
    system = config.build_system(Rng("db-mutants"), config.tags)
    save_db(str(path), config, list(system.reader.db.records_ascending()),
            reader_id=system.reader.reader_id, reader_signer=system.reader_signer,
            directory=system.directory)
    for j, tag_id in enumerate(system.tag_ids() + system.tag_ids()[:1], start=1):
        system.run_honest(tag_id)
        append_journal(str(path), config, system.reader.history.session(j))
    return path.read_bytes()


@pytest.mark.parametrize("config", DB_CONFIGS, ids=lambda c: f"{c.mode}-{c.impl}")
def test_database_loader_mutants(config, tmp_path):
    blob = journaled_db(config, tmp_path / "reader.db")
    original = load_db(str(tmp_path / "reader.db"))
    sessions = original.journal
    assert len(sessions) == 3
    rnd = random.Random(f"db-mutants-{config.mode}-{config.impl}")
    path = tmp_path / "mutant.db"
    rejected = 0
    for _ in range(MUTANTS):
        mutant = mutate(rnd, blob, [blob])
        path.write_bytes(mutant)
        try:
            loaded = load_db(str(path))
        except FrameError:
            rejected += 1
            continue
        assert (loaded.config, loaded.reader_id, loaded.initial, loaded.directory) == (
            original.config, original.reader_id, original.initial, original.directory)
        assert loaded.journal == sessions[: len(loaded.journal)]
    # Some mutants load: a cut journal loads its whole entries.
    assert 0 < rejected < MUTANTS


def json_mutants(seed: str, docs: list[dict]):
    """The mutants of the docs' JSON encodings that still parse as JSON."""
    blobs = [json.dumps(doc, sort_keys=True).encode() for doc in docs]
    rnd = random.Random(seed)
    for _ in range(MUTANTS):
        try:
            yield json.loads(mutate(rnd, rnd.choice(blobs), blobs))
        except ValueError:  # not UTF-8 or not JSON
            continue


def test_config_decoder_mutants():
    docs = [Config(mode="ma").to_dict(), Config(mode="mapop", impl="impl3", K=8).to_dict(),
            Config(mode="cex", seed=7).to_dict()]
    rejected = 0
    for doc in json_mutants("config-mutants", docs):
        try:
            assert isinstance(config_from_dict(doc), Config)
        except ConfigError:
            rejected += 1
    assert rejected > 0


def test_signer_decoder_mutants():
    docs = [FullTimeSigner(bytes(32), 5).to_dict(), FullTimeSigner(bytes(range(32))).to_dict(),
            KTimeSigner(bytes(range(32)), 4, 1).to_dict()]
    rejected = 0
    for doc in json_mutants("signer-mutants", docs):
        try:
            signer = signer_from_dict(doc)
        except ValueError:
            rejected += 1
            continue
        assert signer_from_dict(signer.to_dict()) == signer
    assert rejected > 0


def test_point_decoder_mutants():
    points = [ec.point_encode(ec.point_mul(ec.G, k)) for k in (1, 2, 0xC0FFEE)]
    for blob in points:
        assert ec.point_encode(ec.point_decode(blob)) == blob
    rnd = random.Random("point-mutants")
    for _ in range(MUTANTS):
        mutant = mutate(rnd, rnd.choice(points), points)
        try:
            point = ec.point_decode(mutant)
        except ValueError:
            continue
        assert ec.point_encode(point) == mutant


@pytest.mark.parametrize(
    "signer", [FullTimeSigner(bytes(range(32))), KTimeSigner(bytes(range(32)), 4)],
    ids=["ed25519", "ktime"])
def test_signature_check_mutants(signer):
    key = signer.verify_key()
    msg = bytes(range(32))
    sig = signer.sign(msg)
    assert key.verify(msg, sig) is True
    rnd = random.Random(f"verify-mutants-{key.scheme}")
    for _ in range(MUTANTS // 4):
        mutant = mutate(rnd, sig, [sig])
        assert key.verify(msg, mutant) is (mutant == sig)
        data = mutate(rnd, key.data, [key.data])
        valid = VerifyKey(key.scheme, data).verify(msg, sig)
        # A K-time key whose damage lies in an unused nonce point still
        # verifies; an Ed25519 key verifies only undamaged.
        if key.scheme == "ed25519":
            assert valid is (data == key.data)
        else:
            assert type(valid) is bool
