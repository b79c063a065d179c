"""Executable security experiments.

Every game runs independent trials through one loop, `run_trials`, which
keeps the replay contract: trial i draws only from the master seed's
substream labeled "<name>-trial-<i>", its seed is kept in the report's
`trial_seeds`, and the events it returns are tallied into the report. So
runs are replayable, trials are order-independent, and a longer run's first
trials are a shorter run's.

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

The PRF distinguishing game (`rfpop.harness.ptpt`) runs through the same loop.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable

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
SUCCESS = "success"  # the event a trial returns when the adversary wins


def run_trials(
    name: str,
    trials: int,
    rng: Rng,
    trial: Callable[[Rng], tuple[str, Iterable[str]]],
    extra: dict,
    build=ExperimentReport.from_counts,
) -> ExperimentReport:
    """Run `trial` on each trial's substream and tally what it returns.

    trial(trial_rng) returns the protocol it ran against and the names of the
    events that fired. SUCCESS counts towards the report's successes; every
    other event is counted under its own name in `extra`, on top of the
    given entries.
    """
    tally: Counter[str] = Counter()
    trial_seeds = []
    protocol = "?"
    for i in range(trials):
        trial_rng = rng.spawn(f"{name}-trial-{i}")
        trial_seeds.append(trial_rng.seed_hex)
        protocol, events = trial(trial_rng)
        tally.update(events)
    successes = tally.pop(SUCCESS, 0)
    return build(
        experiment=name,
        protocol=protocol,
        successes=successes,
        trials=trials,
        seed=rng.seed_hex,
        extra={**extra, **tally},
        trial_seeds=trial_seeds,
    )


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
    def trial(trial_rng: Rng) -> tuple[str, tuple[str, ...]]:
        system = system_factory(trial_rng.spawn("system"))
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
        except InvalidChallenge:
            return system.kind, ("invalid_trials",)
        except (BudgetExceeded, GuessStageViolation):
            if budget_policy == BUDGET_ABORT:
                raise
            return system.kind, ("budget_failures",)
        return system.kind, (SUCCESS,) if b_prime == b else ()

    return run_trials(name, trials, rng, trial, {"adversary": adversary.name})


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
    def trial(trial_rng: Rng) -> tuple[str, list[str]]:
        system = system_factory(trial_rng.spawn("system"))
        hub = OracleHub(system, budget)
        try:
            out = adversary.run(hub, trial_rng.spawn("adv"))
        except BudgetExceeded:
            out = None
        if out is None:
            return system.kind, []
        cred, extra_keys = out
        extra_keys = extra_keys or {}
        for party_id, key in extra_keys.items():
            system.directory.register_extra(party_id, key)
        e1 = _event1(system, hub, cred)
        e2 = _event2(system, hub, cred, extra_keys)
        return system.kind, [event for event, fired in (("e1", e1), ("e2", e2), (SUCCESS, e1 or e2))
                             if fired]

    return run_trials("cred-ufrg", trials, rng, trial,
                      {"adversary": adversary.name, "e1": 0, "e2": 0},
                      build=ExperimentReport.from_proportion)


def _names_honest_tag(system: System, hub: OracleHub, cred) -> bool:
    """The credential names a tag of the system that was never corrupted."""
    return cred.tag_id in system.tags and cred.tag_id not in hub.corrupted


def _event1(system: System, hub: OracleHub, cred) -> bool:
    if cred.reader_id != system.reader.reader_id:
        return False
    if not _names_honest_tag(system, hub, cred):
        return False
    if cred_veri(system.params, system.directory, cred) != 1:
        return False
    # An issued credential names its session's tag and pop nonce, so only
    # sessions with both can have issued this one.
    encoded = cred.encode()
    for rec in system.reader.history.sessions:
        if rec.tag_id != cred.tag_id or rec.pop_nonce != cred.nonce:
            continue
        issued = cred_gen(system.params, system.reader, system.reader_signer, rec.j)
        if issued is not None and issued.encode() == encoded:
            return False
    return True


def _event2(system: System, hub: OracleHub, cred, extra_keys: dict) -> bool:
    if cred.reader_id not in extra_keys or not _names_honest_tag(system, hub, cred):
        return False
    return cred_veri(system.params, system.directory, cred) == 1
