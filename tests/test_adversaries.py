"""Built-in adversary programs against live systems."""

import pytest

from rfpop.harness.adversaries import (
    FORGERY_ADVERSARIES,
    PRIVACY_ADVERSARIES,
    CexDistinguisher,
    drop_tag_replies,
    make_adversary,
    relay_session,
)
from rfpop.harness.experiments import exp_cred_unforge, exp_unp_sharp, exp_unp_star
from rfpop.harness.oracles import OracleHub
from rfpop.primitives.bitstring import flip_bit
from rfpop.primitives.rng import Rng
from rfpop.system import build_cex_system, build_ma_system, build_pop_system


def pop_hub(seed="adv-pop", tag_count=2):
    return OracleHub(build_pop_system(Rng(seed), tag_count=tag_count))


def ma_hub(seed="adv-ma", tag_count=2):
    return OracleHub(build_ma_system(Rng(seed), tag_count=tag_count))


def test_relay_session_records_full_transcript():
    hub = pop_hub()
    run = relay_session(hub, hub.system.first_tag_id())
    assert run.completed
    assert len(run.messages) == 4
    assert [m.round for m in run.messages] == [0, 1, 2, 3]
    # The recorded transcript matches what the reader archived.
    record = hub.system.reader.history.session(1)
    assert [m.payload for m in record.messages] == [m.payload for m in run.messages]


def test_relay_session_flip_keeps_original_in_log():
    hub = pop_hub("adv-flip")
    run = relay_session(hub, hub.system.first_tag_id(), flip_at=4, flip_bit=0)
    assert run.o_reader == 0
    assert run.o_tag == 1  # the tag accepted before the message was tampered
    # The log holds the message as sent by the tag, not the tampered copy.
    record = hub.system.reader.history.session(1)
    assert record.messages[3].payload == flip_bit(run.messages[3].payload, 0)


def test_bit_flipper_final_message_always_rejects():
    flipper = make_adversary("bit-flipper", message_index=4, bit=0)
    assert flipper.name == "bit-flipper-m4-b0"
    for seed in range(5):
        hub = pop_hub(f"flip-{seed}")
        run = relay_session(hub, hub.system.first_tag_id(), flip_at=4, flip_bit=0)
        assert run.o_reader == 0


def test_replayer_stale_final_message_rejects():
    replayer = make_adversary("replayer", message_index=4)
    assert replayer.name == "replayer-m4"
    hub = pop_hub("replay")
    tag_id = hub.system.first_tag_id()
    first, second = replayer._script(hub, tag_id)
    assert first.completed
    # The replayed possession message belongs to the previous transcript.
    assert second.o_reader == 0


def test_desync_attacker_recovers_via_scan_then_fast_path():
    hub = ma_hub("desync-adv")
    tag_id = hub.system.first_tag_id()
    drop_tag_replies(hub, tag_id, 5, Rng("drops"))
    first = relay_session(hub, tag_id)
    assert first.completed
    second = relay_session(hub, tag_id)
    assert second.completed
    history = hub.system.reader.history
    assert history.session(1).via_step == 2
    assert history.session(2).via_step == 1


def test_desync_attacker_registered_and_parameterized():
    adversary = make_adversary("desync-attacker", drop_count=3)
    assert adversary.name == "desync-attacker-d3"
    report = exp_unp_sharp(
        lambda rng: build_ma_system(rng, tag_count=2), adversary, 10, Rng("desync-exp")
    )
    assert report.trials == 10
    assert "invalid_trials" not in report.extra


def test_cex_distinguisher_traces_flawed_protocol():
    report = exp_unp_star(
        lambda rng: build_cex_system(rng, tag_count=2),
        CexDistinguisher(),
        60,
        Rng("cex-trace"),
    )
    # Real world: the repeated challenge leaks the counter pattern, so the
    # guess is right essentially always; advantage lands near 1/2.
    assert report.advantage >= 0.45
    assert not report.ci_contains_zero


def test_cex_distinguisher_blind_on_sound_protocol():
    report = exp_unp_star(
        lambda rng: build_ma_system(rng, tag_count=2),
        CexDistinguisher(),
        60,
        Rng("cex-sound"),
    )
    # The refreshed index never repeats, so the pattern test fires in neither
    # world and the guess degenerates to a constant.
    assert report.advantage <= 0.05 or report.ci_contains_zero


@pytest.mark.parametrize("name", sorted(PRIVACY_ADVERSARIES))
def test_privacy_adversaries_run_under_experiment(name):
    adversary = make_adversary(name)
    factory = (
        (lambda rng: build_cex_system(rng, tag_count=2))
        if name == "cex-distinguisher"
        else (lambda rng: build_pop_system(rng, tag_count=2))
    )
    report = exp_unp_sharp(factory, adversary, 6, Rng(f"priv-{name}"))
    assert report.trials == 6
    assert report.extra["adversary"] == adversary.name


@pytest.mark.parametrize("name", sorted(FORGERY_ADVERSARIES))
def test_forgery_adversaries_never_forge(name):
    adversary = make_adversary(name)
    report = exp_cred_unforge(
        lambda rng: build_pop_system(rng, tag_count=2), adversary, 10, Rng(f"forge-{name}")
    )
    assert report.successes == 0
    assert report.extra["e1"] == 0 and report.extra["e2"] == 0


def test_make_adversary_unknown_name():
    with pytest.raises(KeyError):
        make_adversary("nonexistent")
