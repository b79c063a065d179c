"""Executable security experiments.

Each experiment runs independent trials against freshly built systems; a
trial's randomness is a labeled substream of the master seed, so runs are
replayable and trials are order-independent.

Privacy games (exp_unp_sharp, exp_unp_star): the adversary first learns with
all five oracles against the real system and names a challenge tag. Every
session still open then times out, so none crosses the stage change. Then a
hidden bit decides whether its guess-stage queries (first three oracles
only) hit the real system or a blinded world. exp_unp_sharp blinds with the
session machines on a ledger of uniform draws (`blinded_world`);
exp_unp_star blinds with pure random draws and suppresses execution results
in the guess stage for both worlds.

Forgery game (exp_cred_unforge): the adversary uses the oracles and then
emits a credential (optionally registering its own issuer key); the report
counts the two forgery events.
"""

from __future__ import annotations

from typing import Callable

from rfpop.errors import BudgetExceeded, GuessStageViolation, InvalidChallenge
from rfpop.harness.blinded import PureRandomWorld, blinded_world
from rfpop.harness.oracles import AdversaryBudget, OracleHub
from rfpop.harness.report import ExperimentReport
from rfpop.pop import cred_gen, cred_veri
from rfpop.primitives.rng import Rng
from rfpop.system import System

SystemFactory = Callable[[Rng], System]

BUDGET_FAIL = "fail"  # budget overrun = adversary failure for that trial
BUDGET_ABORT = "abort"  # budget overrun aborts the whole experiment


def _privacy_experiment(
    name: str,
    make_world,
    suppress_outputs: bool,
    system_factory: SystemFactory,
    adversary,
    trials: int,
    rng: Rng,
    budget: AdversaryBudget,
    budget_policy: str,
) -> ExperimentReport:
    successes = 0
    invalid = 0
    budget_failures = 0
    protocol = "?"
    trial_seeds = []
    for i in range(trials):
        trial_rng = rng.spawn(f"{name}-trial-{i}")
        trial_seeds.append(trial_rng.seed_hex)
        system = system_factory(trial_rng.spawn("system"))
        protocol = system.kind
        hub = OracleHub(system, budget)
        try:
            challenge_tag, st = adversary.learn(hub, trial_rng.spawn("learn"))
            if challenge_tag in hub.corrupted:
                raise InvalidChallenge("challenge tag is corrupted")
            # No session crosses the stage change, in either world: the b=0
            # tags then copy the key versions these timeouts bump.
            hub.world.end_stage()
            b = trial_rng.spawn("coin").coin()
            hub.suppress_outputs = suppress_outputs
            if b == 0:
                hub.enter_guess_stage(make_world(system, trial_rng.spawn("blinded-draws")))
            else:
                hub.enter_guess_stage()
            b_prime = adversary.guess(hub, challenge_tag, st, trial_rng.spawn("guess"))
            if b_prime == b:
                successes += 1
        except InvalidChallenge:
            invalid += 1
        except (BudgetExceeded, GuessStageViolation):
            if budget_policy == BUDGET_ABORT:
                raise
            budget_failures += 1
    extra = {"adversary": adversary.name}
    if invalid:
        extra["invalid_trials"] = invalid
    if budget_failures:
        extra["budget_failures"] = budget_failures
    return ExperimentReport.from_counts(
        experiment=name,
        protocol=protocol,
        successes=successes,
        trials=trials,
        seed=rng.seed_hex,
        extra=extra,
        trial_seeds=trial_seeds,
    )


def exp_unp_sharp(
    system_factory: SystemFactory,
    adversary,
    trials: int,
    rng: Rng,
    budget: AdversaryBudget = AdversaryBudget(),
    budget_policy: str = BUDGET_FAIL,
) -> ExperimentReport:
    """Current privacy notion: the b=0 world runs the session machines on a
    ledger of uniform draws that accepts matching conversations."""
    return _privacy_experiment(
        "unp-sharp", blinded_world, False,
        system_factory, adversary, trials, rng, budget, budget_policy,
    )


def exp_unp_star(
    system_factory: SystemFactory,
    adversary,
    trials: int,
    rng: Rng,
    budget: AdversaryBudget = AdversaryBudget(),
    budget_policy: str = BUDGET_FAIL,
) -> ExperimentReport:
    """Predecessor notion: b=0 world is pure random draws, and neither world
    reveals execution results during the guess stage."""
    return _privacy_experiment(
        "unp-star", PureRandomWorld, True,
        system_factory, adversary, trials, rng, budget, budget_policy,
    )


def exp_cred_unforge(
    system_factory: SystemFactory,
    adversary,
    trials: int,
    rng: Rng,
    budget: AdversaryBudget = AdversaryBudget(),
) -> ExperimentReport:
    """Credential forgery game; counts the two forgery events.

    Event 1: the credential names the honest issuer and an uncorrupted tag,
    verifies, and no reader snapshot reproduces it. Event 2: it names an
    adversary-registered issuer and an uncorrupted tag and verifies under
    the extended key directory.
    """
    e1 = e2 = 0
    successes = 0
    protocol = "?"
    trial_seeds = []
    for i in range(trials):
        trial_rng = rng.spawn(f"cred-ufrg-trial-{i}")
        trial_seeds.append(trial_rng.seed_hex)
        system = system_factory(trial_rng.spawn("system"))
        protocol = system.kind
        hub = OracleHub(system, budget)
        try:
            out = adversary.run(hub, trial_rng.spawn("adv"))
        except BudgetExceeded:
            out = None
        if out is None:
            continue
        cred, extra_keys = out
        if extra_keys:
            for party_id, key in extra_keys.items():
                system.directory.register_extra(party_id, key)
        fired_e1 = _event1(system, hub, cred)
        fired_e2 = _event2(system, hub, cred, extra_keys or {})
        e1 += fired_e1
        e2 += fired_e2
        if fired_e1 or fired_e2:
            successes += 1
    return ExperimentReport.from_proportion(
        experiment="cred-ufrg",
        protocol=protocol,
        successes=successes,
        trials=trials,
        seed=rng.seed_hex,
        extra={"adversary": adversary.name, "e1": e1, "e2": e2},
        trial_seeds=trial_seeds,
    )


def _event1(system: System, hub: OracleHub, cred) -> bool:
    if cred.reader_id != system.reader.reader_id:
        return False
    if cred.tag_id not in system.tags or cred.tag_id in hub.corrupted:
        return False
    if cred_veri(system.params, system.directory, cred) != 1:
        return False
    # An issued credential names its session's tag and pop nonce, so only
    # sessions with both can have issued this one.
    encoded = cred.encode()
    for rec in system.reader.history.sessions:
        if rec.tag_id != cred.tag_id or rec.coins.get("pop_nonce") != cred.nonce:
            continue
        issued = cred_gen(system.params, system.reader, system.reader_signer, rec.j)
        if issued is not None and issued.encode() == encoded:
            return False
    return True


def _event2(system: System, hub: OracleHub, cred, extra_keys: dict) -> bool:
    if cred.reader_id not in extra_keys:
        return False
    if cred.tag_id not in system.tags or cred.tag_id in hub.corrupted:
        return False
    return cred_veri(system.params, system.directory, cred) == 1
