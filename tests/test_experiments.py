"""Experiment drivers and report statistics."""

import json

import pytest

from rfpop.errors import BudgetExceeded
from rfpop.harness.experiments import (
    BUDGET_ABORT,
    BUDGET_FAIL,
    exp_cred_unforge,
    exp_unp_sharp,
    exp_unp_star,
)
from rfpop.harness.oracles import AdversaryBudget
from rfpop.harness.report import ExperimentReport, advantage_interval, wilson_interval
from rfpop.pop import Credential
from rfpop.primitives.prf import hash_digest
from rfpop.primitives.rng import Rng
from rfpop.primitives.sig import fulltime_keygen
from rfpop.system import build_ma_system, build_pop_system

# Wilson endpoints recomputed from the quadratic-root form of the interval:
# roots of (1 + z^2/n) p^2 - (2 phat + z^2/n) p + phat^2, clipped to [0, 1].
WILSON_CASES = [
    (8, 10, 0.4901624715366418, 0.9433178485456247),
    (0, 50, 0.0, 0.07134759913335872),
    (50, 50, 0.9286524008666398, 1.0),
    (100, 200, 0.4313608596038919, 0.5686391403961081),
    (120, 200, 0.53083672039262, 0.6653942143319267),
    (1, 3, 0.061491944720396215, 0.7923403991979523),
]


@pytest.mark.parametrize("successes,trials,lo,hi", WILSON_CASES)
def test_wilson_interval_known_values(successes, trials, lo, hi):
    got_lo, got_hi = wilson_interval(successes, trials)
    assert got_lo == pytest.approx(lo, abs=1e-12)
    assert got_hi == pytest.approx(hi, abs=1e-12)


def test_wilson_interval_rejects_bad_inputs():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_advantage_interval_folds_at_one_half():
    adv, lo, hi = advantage_interval(100, 200)
    assert adv == 0.0
    assert lo == 0.0  # proportion interval straddles 1/2
    assert hi == pytest.approx(0.5686391403961081 - 0.5, abs=1e-12)
    adv, lo, hi = advantage_interval(120, 200)
    assert adv == pytest.approx(0.1)
    assert lo == pytest.approx(0.53083672039262 - 0.5, abs=1e-12)
    assert lo > 0.0


def test_report_ci_contains_zero_property():
    balanced = ExperimentReport.from_counts("x", "ma", 100, 200, "s")
    assert balanced.ci_contains_zero
    skewed = ExperimentReport.from_counts("x", "ma", 180, 200, "s")
    assert not skewed.ci_contains_zero


def test_report_from_proportion_tracks_raw_rate():
    report = ExperimentReport.from_proportion("f", "mapop", 0, 50, "s")
    assert report.advantage == 0.0
    assert report.ci_low == 0.0 and report.ci_contains_zero
    report = ExperimentReport.from_proportion("f", "mapop", 50, 50, "s")
    assert report.advantage == 1.0


def test_report_json_round_trip_and_shape():
    report = ExperimentReport.from_counts(
        "unp-sharp", "ma", 8, 10, "seed", extra={"adversary": "probe"},
        trial_seeds=["a", "b"],
    )
    text = report.to_json()
    assert text.endswith("\n")
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
    assert "trial_seeds" not in payload  # replay detail, not part of the report
    back = ExperimentReport.from_json(text)
    assert back.successes == report.successes
    assert back.extra == report.extra
    assert back.to_json() == text


class CoinFlipAdversary:
    """Learning-free baseline: names the first tag, guesses a fair coin."""

    name = "coin-flip"

    def learn(self, hub, rng):
        return hub.system.first_tag_id(), None

    def guess(self, hub, challenge_tag, st, rng):
        return rng.coin()


class GreedyAdversary:
    """Spends o1 queries until the budget stops it."""

    name = "greedy"

    def learn(self, hub, rng):
        for _ in range(hub.budget.n1 + 1):
            hub.o1_init_reader()
        return hub.system.first_tag_id(), None

    def guess(self, hub, challenge_tag, st, rng):
        return 0


class SelfSabotagingAdversary:
    """Corrupts the tag it then names, which invalidates the trial."""

    name = "self-sabotage"

    def learn(self, hub, rng):
        tag_id = hub.system.first_tag_id()
        hub.o4_corrupt(tag_id)
        return tag_id, None

    def guess(self, hub, challenge_tag, st, rng):
        return 0


def ma_factory(rng):
    return build_ma_system(rng, tag_count=2)


def test_privacy_experiment_runs_and_reports():
    report = exp_unp_sharp(ma_factory, CoinFlipAdversary(), 40, Rng("exp-basic"))
    assert report.experiment == "unp-sharp"
    assert report.protocol == "ma"
    assert report.trials == 40
    assert 0 <= report.successes <= 40
    assert report.extra["adversary"] == "coin-flip"
    assert len(report.trial_seeds) == 40


def test_privacy_experiment_deterministic_per_seed():
    first = exp_unp_sharp(ma_factory, CoinFlipAdversary(), 30, Rng("exp-det"))
    second = exp_unp_sharp(ma_factory, CoinFlipAdversary(), 30, Rng("exp-det"))
    assert first.to_json() == second.to_json()
    third = exp_unp_star(ma_factory, CoinFlipAdversary(), 30, Rng("exp-det"))
    assert third.to_json() == exp_unp_star(
        ma_factory, CoinFlipAdversary(), 30, Rng("exp-det")
    ).to_json()


def test_trials_are_order_independent_prefixes():
    short = exp_unp_sharp(ma_factory, CoinFlipAdversary(), 3, Rng("exp-prefix"))
    long = exp_unp_sharp(ma_factory, CoinFlipAdversary(), 5, Rng("exp-prefix"))
    assert long.trial_seeds[:3] == short.trial_seeds


def test_budget_policy_fail_counts_trials():
    budget = AdversaryBudget(n1=2)
    report = exp_unp_sharp(
        ma_factory, GreedyAdversary(), 5, Rng("exp-budget"), budget=budget,
        budget_policy=BUDGET_FAIL,
    )
    assert report.successes == 0
    assert report.extra["budget_failures"] == 5


def test_budget_policy_abort_raises():
    budget = AdversaryBudget(n1=2)
    with pytest.raises(BudgetExceeded):
        exp_unp_sharp(
            ma_factory, GreedyAdversary(), 5, Rng("exp-abort"), budget=budget,
            budget_policy=BUDGET_ABORT,
        )


def test_corrupted_challenge_tag_invalidates_trial():
    report = exp_unp_sharp(ma_factory, SelfSabotagingAdversary(), 4, Rng("exp-invalid"))
    assert report.extra["invalid_trials"] == 4
    assert report.successes == 0


class HonestReplayForger:
    """Relays one honest session and hands in the credential it was issued."""

    name = "honest-replay"

    def run(self, hub, rng):
        tag_id = hub.system.first_tag_id()
        first = hub.o1_init_reader()
        sid, to_tag = first.sid, first.msg
        while True:
            t = hub.o2_send_tag(tag_id, sid, to_tag)
            if t.msg is None:
                break
            r = hub.o3_send_reader(sid, t.msg)
            if r.msg is None:
                break
            to_tag = r.msg
        cred = hub.o5_get_cred(sid)
        return (cred, None) if cred is not None else None


class KeyStealingForger:
    """White-box control: reads private keys straight off the system, which no
    oracle allows; the detector must still classify the result as a forgery."""

    name = "key-stealer"

    def __init__(self, event: int):
        self.event = event

    def run(self, hub, rng):
        system = hub.system
        tag_id = system.first_tag_id()
        nonce = rng.take_bits(256)
        if self.event == 1:
            issuer_id = system.reader.reader_id
            issuer_sig = system.reader_signer.sign(nonce)
            extra = None
        else:
            issuer_id = b"adversary-0"
            signer, vk = fulltime_keygen(rng)
            issuer_sig = signer.sign(nonce)
            extra = {issuer_id: vk}
        challenge = hash_digest(issuer_sig, 256)
        possession = system.tag(tag_id).state.signer.sign(challenge)
        cred = Credential(
            reader_id=issuer_id,
            tag_id=tag_id,
            nonce=nonce,
            issuer_sig=issuer_sig,
            possession_sig=possession,
        )
        return cred, extra


def pop_factory(rng):
    return build_pop_system(rng, tag_count=2)


def test_reissued_credentials_are_not_forgeries():
    report = exp_cred_unforge(pop_factory, HonestReplayForger(), 10, Rng("exp-replay"))
    assert report.successes == 0
    assert report.extra == {"adversary": "honest-replay", "e1": 0, "e2": 0}
    assert report.ci_contains_zero


def test_forgery_event_detectors_fire_on_stolen_keys():
    report = exp_cred_unforge(pop_factory, KeyStealingForger(1), 5, Rng("exp-e1"))
    assert report.successes == 5
    assert report.extra["e1"] == 5 and report.extra["e2"] == 0
    report = exp_cred_unforge(pop_factory, KeyStealingForger(2), 5, Rng("exp-e2"))
    assert report.successes == 5
    assert report.extra["e1"] == 0 and report.extra["e2"] == 5
