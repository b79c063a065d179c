"""Adversary oracle layer.

Five oracles over a live system: start the reader, send to a tag, send to
the reader, corrupt a tag, and fetch the credential of a finished session.
Budgets are enforced exactly: the query that would exceed its limit raises
BudgetExceeded before touching any state.

The first three oracles and the clock are answered by a world: a
SessionWorld over the system's own reader and tags, until the guess stage
swaps in the b=0 world. The hub itself answers the same way in every world:
it checks budgets, refuses unknown and corrupted tags, and turns a reader
with no open session into an ignored query. In the guess stage only the
first three oracles stay available, and the predecessor-notion experiments
additionally suppress the o_T/o_R execution results in oracle answers.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

from rfpop.errors import (
    BudgetExceeded,
    GuessStageViolation,
    NoOpenSession,
)
from rfpop.harness.blinded import SessionWorld
from rfpop.model.types import Msg, StepOutcome
from rfpop.pop import Credential, cred_gen
from rfpop.system import System


@dataclass(frozen=True)
class AdversaryBudget:
    """Hard per-oracle query limits."""

    n1: int = 64
    n2: int = 64
    n3: int = 64
    n4: int = 8
    n5: int = 64


@dataclass(frozen=True)
class OracleResult:
    """What an oracle hands back: an optional message, an optional execution
    result, and whether the query was ignored outright."""

    sid: Optional[bytes] = None
    msg: Optional[Msg] = None
    output: Optional[int] = None
    ignored: bool = False
    note: str = ""


def _from_outcome(sid, outcome: StepOutcome, suppress_outputs: bool) -> OracleResult:
    if outcome.msg is None and outcome.output is None:
        return OracleResult(sid=sid, ignored=True)
    return OracleResult(
        sid=outcome.sid if outcome.sid is not None else sid,
        msg=outcome.msg,
        output=None if suppress_outputs else outcome.output,
    )


class OracleHub:
    def __init__(
        self,
        system: System,
        budget: AdversaryBudget = AdversaryBudget(),
        suppress_outputs: bool = False,
    ):
        self.system = system
        self.budget = budget
        self.suppress_outputs = suppress_outputs
        self.used = {"n1": 0, "n2": 0, "n3": 0, "n4": 0, "n5": 0}
        self.corrupted: set[bytes] = set()
        self.guess_stage = False
        self.world = SessionWorld(system.reader, system.tags, system.rng)

    def enter_guess_stage(self, world=None):
        """Restrict to the first three oracles; answer them from `world`
        when given (the b=0 world)."""
        self.guess_stage = True
        if world is not None:
            self.world = world

    def _spend(self, name: str):
        limit = getattr(self.budget, name)
        if self.used[name] + 1 > limit:
            raise BudgetExceeded(f"oracle budget {name}={limit} exceeded")
        self.used[name] += 1

    def o1_init_reader(self) -> OracleResult:
        self._spend("n1")
        sid, msg = self.world.o1()
        return OracleResult(sid=sid, msg=msg)

    def o2_send_tag(self, tag_id: bytes, sid: bytes, msg: Msg) -> OracleResult:
        self._spend("n2")
        if tag_id not in self.system.tags:
            return OracleResult(sid=sid, ignored=True, note="unknown tag")
        if tag_id in self.corrupted:
            return OracleResult(sid=sid, ignored=True, note="corrupted tag")
        outcome = self.world.o2(tag_id, sid, msg)
        return _from_outcome(sid, outcome, self.suppress_outputs)

    def o3_send_reader(self, sid: bytes, msg: Msg) -> OracleResult:
        self._spend("n3")
        try:
            outcome = self.world.o3(sid, msg)
        except NoOpenSession:
            return OracleResult(sid=sid, ignored=True, note="no open session")
        return _from_outcome(sid, outcome, self.suppress_outputs)

    def o4_corrupt(self, tag_id: bytes) -> dict:
        self._spend("n4")
        if self.guess_stage:
            raise GuessStageViolation("corruption oracle unavailable in the guess stage")
        if tag_id not in self.system.tags:
            raise KeyError(f"unknown tag {tag_id.hex()}")
        self.corrupted.add(tag_id)
        tag = self.system.tags[tag_id]
        return {"state": copy.deepcopy(tag.state), "key_version": tag.key_version}

    def o5_get_cred(self, sid: bytes) -> Optional[Credential]:
        self._spend("n5")
        if self.guess_stage:
            raise GuessStageViolation("credential oracle unavailable in the guess stage")
        if self.system.kind != "mapop":
            return None
        j = self.system.reader.history.j_for_sid(sid)
        if j is None:
            return None
        return cred_gen(
            self.system.params, self.system.reader, self.system.reader_signer, j
        )

    def advance_time(self) -> Optional[OracleResult]:
        """Logical clock tick: times out the reader's open session, if any.
        Not budgeted; timeouts are events, not adversary queries."""
        outcome = self.world.timeout()
        if outcome is None:
            return None
        return _from_outcome(outcome.sid, outcome, self.suppress_outputs)
