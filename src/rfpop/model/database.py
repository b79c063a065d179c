"""Reader-side database and the session journal.

The database maps tag identities to protocol-specific records. Records are
`rfpop.model.types.value` classes, frozen slotted dataclasses: a protocol
changes a tag's record by building a changed copy with the record's
`evolve` method and handing it to `ReaderDatabase.put`, the one write, which
keeps the index map in step.
Lookups return the stored records themselves, shared with the journal; no
record is ever copied, because none can change once written.

The journal (`History`) is the one record of terminated sessions, for a live
reader and for a database file alike. For each session it stores the record
that session changed (its post-session value), if any, and for each tag the
ascending list of sessions that changed it, so the record a tag had after any
session j is one bisect away; j=0 is the state right after setup.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from rfpop.errors import UnknownSnapshot
from rfpop.model.types import value
from rfpop.primitives.prf import PrfDescriptor, prf_state


class ReaderDatabase:
    """Current records, kept in ascending tag-id order, plus the index map
    used for constant-time sync lookup, each of whose buckets is a tuple of
    its tag ids in ascending order. Indexes are distinct per tag almost
    always, so a bucket is nearly always one id: a 1-tuple costs less than a
    list, and a `put` that moves a tag off such a bucket deletes its key.

    `keyed_states` holds, per PRF descriptor, a keyed BLAKE2b state of each
    record key (`rfpop.primitives.prf.prf_state`), listed in
    `records_ascending()` order so that the Step-2 scan can zip records with
    states. The first scan builds the list, about 0.45 KB per record; a
    database that never scans holds none. A `put` that changes a record's
    key drops the lists, and the next scan builds them again. The database
    remembers no session: a session puts at most once (MA and cex at their
    round-1 match; MAPoP's round 3 and the b=0 ledger never), and the
    protocol that puts records the record on its open session
    (`rfpop.model.session.OpenReaderSession.changed`)."""

    def __init__(self, records):
        self._records: dict[bytes, object] = {}
        self._by_index: dict[bytes, tuple[bytes, ...]] = {}
        self.keyed_states: dict[object, list] = {}
        for rec in sorted(records, key=lambda r: r.tag_id):
            if rec.tag_id in self._records:
                raise ValueError(f"duplicate tag id {rec.tag_id.hex()}")
            self._records[rec.tag_id] = rec
            self._index_insert(rec)

    def _index_insert(self, rec):
        idx = getattr(rec, "index", None)
        if idx is not None:
            bucket = self._by_index.get(idx)
            if bucket is None:
                self._by_index[idx] = (rec.tag_id,)
            else:
                self._by_index[idx] = tuple(sorted((*bucket, rec.tag_id)))

    def _index_remove(self, rec_id: bytes, idx: Optional[bytes]):
        bucket = self._by_index.get(idx, ())
        if rec_id in bucket:
            if len(bucket) == 1:
                del self._by_index[idx]
            else:
                self._by_index[idx] = tuple(i for i in bucket if i != rec_id)

    def __len__(self) -> int:
        return len(self._records)

    def get(self, tag_id: bytes):
        return self._records[tag_id]

    def records_ascending(self):
        """Iterate the records in ascending tag-id order."""
        return iter(self._records.values())

    def candidates_for_index(self, index: bytes) -> list:
        """Records whose stored index equals `index`, ascending by tag id
        (each bucket is kept in that order as it is filled)."""
        return [self._records[i] for i in self._by_index.get(index, ())]

    def keyed_states_for(self, desc: PrfDescriptor) -> list:
        """A keyed state (`prf_state`) of each record key under `desc`, in
        `records_ascending()` order; built on the first call, and after a
        `put` that changed a key."""
        states = self.keyed_states.get(desc)
        if states is None:
            states = [prf_state(desc, rec.key) for rec in self._records.values()]
            self.keyed_states[desc] = states
        return states

    def image(self) -> dict[bytes, object]:
        """A new dict of the current records by tag id, ascending; the records
        themselves are shared."""
        return dict(self._records)

    def put(self, rec):
        """Replace the record for rec.tag_id with `rec`: fix the index map
        and drop the keyed states if the key changed."""
        key = rec.tag_id
        old = self._records.get(key)
        if old is None:
            raise KeyError(f"unknown tag id {key.hex()}")
        old_index = getattr(old, "index", None)
        if old_index != getattr(rec, "index", None):
            self._index_remove(key, old_index)
            self._index_insert(rec)
        if self.keyed_states and rec.key != old.key:
            self.keyed_states.clear()
        self._records[key] = rec


@value
class SessionRecord:
    """Everything the reader keeps about one terminated session.

    `messages` holds the session's payloads packed into one `bytes` in round
    order; each has its round's `slots()` length, so a protocol's `slots()`
    splits them again. One `bytes` is one allocation, which the garbage
    collector never tracks. `changed` is the record the session changed, or
    None. A database file's journal keeps every field, so a record loaded
    from one equals the live record it was written from."""

    j: int
    sid: bytes
    o_reader: int
    tag_id: Optional[bytes]
    messages: bytes = b""
    pop_nonce: Optional[bytes] = None
    changed: Optional[object] = None
    via_step: Optional[int] = None
    note: str = ""


@dataclass
class History:
    """Initial database image plus the append-only session records. Each
    record packs its session's payloads into one `bytes` (`SessionRecord`),
    so a live MA reader's history grows by about 0.52 KB a session and a
    MAPoP reader's by about 0.76 KB (tracemalloc, `BENCH_inventory.json`)."""

    initial: dict[bytes, object]
    sessions: list[SessionRecord] = field(default_factory=list)
    # tag id -> ascending numbers of the sessions that changed its record
    changed_in: dict[bytes, list[int]] = field(default_factory=dict)

    def append(self, record: SessionRecord):
        if record.j != len(self.sessions) + 1:
            raise ValueError("session records must be appended in order")
        self.sessions.append(record)
        if record.changed is not None:
            self.changed_in.setdefault(record.changed.tag_id, []).append(record.j)

    def session(self, j: int) -> SessionRecord:
        if not 1 <= j <= len(self.sessions):
            raise UnknownSnapshot(f"no session {j}; have 1..{len(self.sessions)}")
        return self.sessions[j - 1]

    def j_for_sid(self, sid: bytes) -> Optional[int]:
        # A scan: only the harness's credential oracle asks.
        return next((rec.j for rec in self.sessions if rec.sid == sid), None)

    def _check_snapshot(self, j: int):
        if not 0 <= j <= len(self.sessions):
            raise UnknownSnapshot(f"no snapshot {j}; have 0..{len(self.sessions)}")

    def record_at(self, tag_id: bytes, j: int):
        """Tag `tag_id`'s record after session j (j=0: after setup), shared
        with the journal."""
        self._check_snapshot(j)
        changed = self.changed_in.get(tag_id, ())
        at = bisect_right(changed, j)
        if at == 0:
            return self.initial[tag_id]
        return self.sessions[changed[at - 1] - 1].changed

    def db_at(self, j: int) -> dict[bytes, object]:
        """Database image after session j (j=0: right after setup)."""
        self._check_snapshot(j)
        return {key: self.record_at(key, j) for key in self.initial}
