"""Adversary oracle layer: budgets, stage restrictions, corruption effects."""

import pytest

from rfpop.app.config import Config
from rfpop.errors import BudgetExceeded, GuessStageViolation
from rfpop.harness.oracles import AdversaryBudget, OracleHub
from rfpop.model.types import Msg
from rfpop.primitives.rng import Rng
from rfpop.system import build_ma_system, build_pop_system


def fresh_hub(budget=None, kind="ma", **kw):
    builder = build_pop_system if kind == "mapop" else build_ma_system
    system = builder(Rng(f"hub-{kind}"), tag_count=2)
    return OracleHub(system, budget=budget or AdversaryBudget(), **kw)


def relay_once(hub, tag_id):
    """One faithful relay through the oracles; returns (o_reader, o_tag)."""
    first = hub.o1_init_reader()
    sid = first.sid
    to_tag = first.msg
    o_reader = o_tag = None
    while True:
        t = hub.o2_send_tag(tag_id, sid, to_tag)
        if t.output is not None:
            o_tag = t.output
        if t.msg is None:
            break
        r = hub.o3_send_reader(sid, t.msg)
        if r.output is not None:
            o_reader = r.output
        if r.msg is None:
            break
        to_tag = r.msg
    return o_reader, o_tag


def test_faithful_relay_through_oracles():
    hub = fresh_hub()
    tag_id = hub.system.first_tag_id()
    assert relay_once(hub, tag_id) == (1, 1)
    assert hub.used == {"n1": 1, "n2": 2, "n3": 1, "n4": 0, "n5": 0}


def test_budget_enforced_exactly():
    hub = fresh_hub(budget=AdversaryBudget(n1=2))
    hub.o1_init_reader()
    hub.o1_init_reader()
    sessions_before = len(hub.system.reader.history.sessions)
    open_before = hub.system.reader.session
    with pytest.raises(BudgetExceeded):
        hub.o1_init_reader()
    # The refused query consumed nothing: same open session, same history.
    assert hub.system.reader.session is open_before
    assert len(hub.system.reader.history.sessions) == sessions_before
    assert hub.used["n1"] == 2


def test_each_budget_axis_is_independent():
    hub = fresh_hub(budget=AdversaryBudget(n2=1, n3=1))
    tag_id = hub.system.first_tag_id()
    first = hub.o1_init_reader()
    out = hub.o2_send_tag(tag_id, first.sid, first.msg)
    with pytest.raises(BudgetExceeded):
        hub.o2_send_tag(tag_id, first.sid, first.msg)
    hub.o3_send_reader(first.sid, out.msg)
    with pytest.raises(BudgetExceeded):
        hub.o3_send_reader(first.sid, out.msg)


def test_reinvoking_reader_times_out_stale_session():
    hub = fresh_hub()
    hub.o1_init_reader()
    hub.o1_init_reader()
    history = hub.system.reader.history
    assert len(history.sessions) == 1
    assert history.session(1).o_reader == 0
    assert history.session(1).note == "timeout"


def test_unknown_and_corrupted_tags_are_ignored():
    hub = fresh_hub()
    tag_id = hub.system.first_tag_id()
    first = hub.o1_init_reader()
    assert hub.o2_send_tag(b"missing", first.sid, first.msg).ignored
    dump = hub.o4_corrupt(tag_id)
    assert dump["state"] == hub.system.tag(tag_id).state
    assert dump["key_version"] == hub.system.tag(tag_id).key_version
    after = hub.o2_send_tag(tag_id, first.sid, first.msg)
    assert after.ignored and after.note == "corrupted tag"


def test_corrupt_dump_keeps_the_state_it_was_taken_at():
    """A dump is a value: the tag stepping on afterwards does not change it,
    and signing with the dump's signer spends nothing of the tag's."""
    hub = fresh_hub()
    system = hub.system
    tag_id = system.first_tag_id()
    dump = hub.o4_corrupt(tag_id)
    ctr = dump["state"].ctr
    sid, challenge = system.reader.start(system.rng)
    system.tag(tag_id).step(sid, challenge, system.rng)
    assert system.tag(tag_id).state.ctr == ctr + 1
    assert dump["state"].ctr == ctr

    hub = OracleHub(Config(mode="mapop", impl="impl3", K=4, tags=1).build_system())
    tag_id = hub.system.first_tag_id()
    hub.o4_corrupt(tag_id)["state"].signer.sign(b"adversary")
    assert hub.system.tag(tag_id).state.signer.used == 0


def test_corrupt_unknown_tag_raises():
    hub = fresh_hub()
    with pytest.raises(KeyError):
        hub.o4_corrupt(b"missing")


def test_guess_stage_blocks_corrupt_and_cred():
    hub = fresh_hub(kind="mapop")
    tag_id = hub.system.first_tag_id()
    hub.enter_guess_stage()
    with pytest.raises(GuessStageViolation):
        hub.o4_corrupt(tag_id)
    with pytest.raises(GuessStageViolation):
        hub.o5_get_cred(bytes(16))
    # The first three oracles keep working on the real system.
    assert relay_once(hub, tag_id) == (1, 1)


def test_credential_oracle_returns_session_credential():
    hub = fresh_hub(kind="mapop")
    tag_id = hub.system.first_tag_id()
    assert relay_once(hub, tag_id) == (1, 1)
    sid = hub.system.reader.history.session(1).sid
    cred = hub.o5_get_cred(sid)
    assert cred is not None and cred.tag_id == tag_id
    assert hub.o5_get_cred(bytes(16)) is None


def test_credential_oracle_none_for_plain_systems():
    hub = fresh_hub(kind="ma")
    tag_id = hub.system.first_tag_id()
    relay_once(hub, tag_id)
    sid = hub.system.reader.history.session(1).sid
    assert hub.o5_get_cred(sid) is None


def test_send_reader_without_session_is_ignored():
    hub = fresh_hub()
    res = hub.o3_send_reader(bytes(16), Msg(1, bytes(96)))
    assert res.ignored and res.note == "no open session"


def test_advance_time_times_out_open_session():
    hub = fresh_hub()
    assert hub.advance_time() is None  # nothing open
    first = hub.o1_init_reader()
    res = hub.advance_time()
    assert res.output == 0 and res.sid == first.sid
    assert hub.system.reader.session is None
    # Timeouts are events, not queries: no budget was spent.
    assert hub.used["n3"] == 0


def test_suppressed_outputs_hide_execution_results():
    hub = fresh_hub(suppress_outputs=True)
    tag_id = hub.system.first_tag_id()
    assert relay_once(hub, tag_id) == (None, None)
    # The underlying session still really happened and accepted.
    assert hub.system.reader.history.session(1).o_reader == 1
