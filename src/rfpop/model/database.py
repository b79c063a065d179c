"""Reader-side database and the session journal.

The database maps tag identities to protocol-specific records. Records are
mutable dataclasses whose fields are immutable values; protocols mutate a
record in place and then report the update so the index map and the current
session's delta stay consistent.

The journal (`History`) is the one record of terminated sessions, for a live
reader and for a database file alike. For each session it stores the records
that session changed (their post-session values), and for each tag the
ascending list of sessions that changed it, so the record a tag had after any
session j is one bisect away; j=0 is the state right after setup.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from rfpop.errors import UnknownSnapshot
from rfpop.model.types import Msg


def _clone(record):
    return dataclasses.replace(record)


class ReaderDatabase:
    """Current records plus the index map used for constant-time sync lookup."""

    def __init__(self, records):
        self._records: dict[bytes, object] = {}
        self._by_index: dict[bytes, list[bytes]] = {}
        self._dirty: set[bytes] = set()
        for rec in records:
            if rec.tag_id in self._records:
                raise ValueError(f"duplicate tag id {rec.tag_id.hex()}")
            self._records[rec.tag_id] = rec
            self._index_insert(rec)

    def _index_insert(self, rec):
        idx = getattr(rec, "index", None)
        if idx is not None:
            self._by_index.setdefault(idx, []).append(rec.tag_id)

    def _index_remove(self, rec_id: bytes, idx: Optional[bytes]):
        if idx is None:
            return
        bucket = self._by_index.get(idx)
        if bucket and rec_id in bucket:
            bucket.remove(rec_id)
            if not bucket:
                del self._by_index[idx]

    def __len__(self) -> int:
        return len(self._records)

    def ids(self) -> list[bytes]:
        return sorted(self._records)

    def get(self, tag_id: bytes):
        return self._records[tag_id]

    def records_ascending(self):
        for key in self.ids():
            yield self._records[key]

    def candidates_for_index(self, index: bytes) -> list:
        """Records whose stored index equals `index`, ascending by tag id."""
        ids = sorted(self._by_index.get(index, []))
        return [self._records[i] for i in ids]

    def record_updated(self, rec, old_index: Optional[bytes]):
        """Report an in-place record mutation (fixes the index map, marks the
        record dirty for the current session's snapshot delta)."""
        key = rec.tag_id
        if key not in self._records:
            raise KeyError(f"unknown tag id {key.hex()}")
        new_index = getattr(rec, "index", None)
        if old_index != new_index:
            self._index_remove(key, old_index)
            self._index_insert(rec)
        self._dirty.add(key)

    def take_delta(self) -> dict[bytes, object]:
        """Post-session values of the records this session changed."""
        delta = {key: _clone(self._records[key]) for key in self._dirty}
        self._dirty.clear()
        return delta

    def clone_records(self) -> dict[bytes, object]:
        return {key: _clone(rec) for key, rec in self._records.items()}


@dataclass
class SessionRecord:
    """Everything the reader keeps about one terminated session.

    A database file stores no messages, coins or note, so a record loaded
    from one leaves them empty."""

    j: int
    sid: bytes
    o_reader: int
    tag_id: Optional[bytes]
    mode: str
    messages: list[Msg] = field(default_factory=list)
    coins: dict[str, bytes] = field(default_factory=dict)
    delta: dict[bytes, object] = field(default_factory=dict)
    via_step: Optional[int] = None
    note: str = ""


@dataclass
class History:
    """Initial database image plus the append-only per-session deltas."""

    initial: dict[bytes, object]
    sessions: list[SessionRecord] = field(default_factory=list)
    sid_to_j: dict[bytes, int] = field(default_factory=dict)
    # tag id -> ascending numbers of the sessions whose delta holds it
    changed_in: dict[bytes, list[int]] = field(default_factory=dict)

    def append(self, record: SessionRecord):
        if record.j != len(self.sessions) + 1:
            raise ValueError("session records must be appended in order")
        self.sessions.append(record)
        self.sid_to_j.setdefault(record.sid, record.j)
        for key in record.delta:
            self.changed_in.setdefault(key, []).append(record.j)

    def session(self, j: int) -> SessionRecord:
        if not 1 <= j <= len(self.sessions):
            raise UnknownSnapshot(f"no session {j}; have 1..{len(self.sessions)}")
        return self.sessions[j - 1]

    def j_for_sid(self, sid: bytes) -> Optional[int]:
        return self.sid_to_j.get(sid)

    def _check_snapshot(self, j: int):
        if not 0 <= j <= len(self.sessions):
            raise UnknownSnapshot(f"no snapshot {j}; have 0..{len(self.sessions)}")

    def record_at(self, tag_id: bytes, j: int):
        """A copy of tag `tag_id`'s record after session j (j=0: after setup)."""
        self._check_snapshot(j)
        changed = self.changed_in.get(tag_id, ())
        at = bisect_right(changed, j)
        if at == 0:
            return _clone(self.initial[tag_id])
        return _clone(self.sessions[changed[at - 1] - 1].delta[tag_id])

    def db_at(self, j: int) -> dict[bytes, object]:
        """Database image after session j (j=0: right after setup)."""
        self._check_snapshot(j)
        return {key: self.record_at(key, j) for key in self.initial}
