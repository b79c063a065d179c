"""System containers: one reader, a tag population, and shared parameters.

Builders wire the protocol objects, database, and key material together from
a single RNG so that identically seeded systems are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from rfpop.counterexample import CexParams, CexProtocol, cex_setup
from rfpop.ma import MaParams, MaProtocol, ma_setup
from rfpop.model.database import ReaderDatabase
from rfpop.model.session import Reader, Tag, run_honest_session
from rfpop.model.types import Transcript
from rfpop.pop import KeyDirectory, PopParams, PopProtocol, pop_setup
from rfpop.primitives.rng import Rng

DEFAULT_LIFETIME = 1 << 17
READER_ID = b"reader-0"


@dataclass
class System:
    protocol: object
    reader: Reader
    tags: dict[bytes, Tag]
    rng: Rng
    lifetime: int
    directory: Optional[KeyDirectory] = None
    reader_signer: object = None

    @property
    def kind(self) -> str:
        return self.protocol.name

    @property
    def params(self):
        return self.protocol.params

    def tag_ids(self) -> list[bytes]:
        return sorted(self.tags)

    def tag(self, tag_id: bytes) -> Tag:
        return self.tags[tag_id]

    def first_tag_id(self) -> bytes:
        return self.tag_ids()[0]

    def run_honest(self, tag_id: Optional[bytes] = None, mode: Optional[str] = None) -> Transcript:
        tag = self.tags[tag_id if tag_id is not None else self.first_tag_id()]
        return run_honest_session(self.reader, tag, self.rng, mode=mode)


def _system(rng: Rng, protocol, states, records, lifetime: int,
            directory: Optional[KeyDirectory] = None, reader_signer=None) -> System:
    """Put a reader over `records` and a tag around each state, all running
    `protocol`; sessions draw from the builder RNG's "session" stream."""
    return System(
        protocol=protocol,
        reader=Reader(protocol, ReaderDatabase(records), reader_id=READER_ID),
        tags={st.tag_id: Tag(protocol, st, lifetime) for st in states},
        rng=rng.spawn("session"),
        lifetime=lifetime,
        directory=directory,
        reader_signer=reader_signer,
    )


def build_ma_system(rng: Rng, tag_count: int = 2, params: Optional[MaParams] = None,
                    lifetime: int = DEFAULT_LIFETIME) -> System:
    params = params or MaParams()
    states, records = ma_setup(params, tag_count, rng.spawn("setup"))
    return _system(rng, MaProtocol(params), states, records, lifetime)


def build_pop_system(rng: Rng, tag_count: int = 2, params: Optional[PopParams] = None,
                     lifetime: int = DEFAULT_LIFETIME) -> System:
    params = params or PopParams()
    states, records, directory, signer = pop_setup(params, tag_count, rng.spawn("setup"), READER_ID)
    return _system(rng, PopProtocol(params, signer), states, records, lifetime, directory, signer)


def build_cex_system(rng: Rng, tag_count: int = 2, params: Optional[CexParams] = None,
                     lifetime: int = DEFAULT_LIFETIME) -> System:
    params = params or CexParams()
    states, records = cex_setup(params, tag_count, rng.spawn("setup"))
    return _system(rng, CexProtocol(params), states, records, lifetime)


def mapop_session(system: System, tag_id: Optional[bytes] = None) -> Transcript:
    """One full extended-mode session against the chosen tag."""
    if system.kind != "mapop":
        raise ValueError("mapop_session needs a proof-of-possession system")
    return system.run_honest(tag_id=tag_id, mode="pop")


SYSTEM_BUILDERS = {
    "ma": build_ma_system,
    "mapop": build_pop_system,
    "cex": build_cex_system,
}
