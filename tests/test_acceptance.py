"""End-to-end acceptance checks for the whole package.

Each test exercises one release criterion at its stated tolerance and prints a
single line `criterion N: PASS/FAIL (...)` carrying the measured values, so a
`pytest -v -s tests/test_acceptance.py` run doubles as the acceptance report.
"""

import random
import time

import pytest

from rfpop.app.config import Config
from rfpop.app.reports import report_ops, report_sizes
from rfpop.errors import KTimeExhausted
from rfpop.harness.adversaries import drop_tag_replies, make_adversary, relay_session
from rfpop.harness.experiments import exp_cred_unforge, exp_unp_sharp, exp_unp_star
from rfpop.harness.oracles import AdversaryBudget, OracleHub
from rfpop.model.session import run_honest_session
from rfpop.model.types import Msg
from rfpop.pop import cred_gen, cred_veri
from rfpop.primitives.bitstring import flip_bit
from rfpop.primitives.prf import PrfDescriptor, hash_digest
from rfpop.primitives.ptpt import ptpt_experiment, statistical_probe
from rfpop.primitives.rng import Rng
from rfpop.primitives.sig import ktime_keygen
from rfpop.system import build_cex_system, build_ma_system


def criterion(n: int, ok: bool, detail: str):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def mapop_factory(rng):
    return Config(mode="mapop", tags=2).build_system(rng, 2)


def test_criterion_01_adaptive_completeness_with_interleaving():
    """Honest sessions accept with the right identity in a randomized schedule.

    The reader runs one session at a time, so interleaving means the schedule
    hops between 100 tags at random.  Between sessions, idle tags absorb stray
    challenges whose replies never reach the reader, pushing their counters
    ahead; completeness demands those tags still authenticate (the reader
    falls back to its scan step when the fast lookup misses).
    """
    target = 1000
    config = Config(mode="ma", tags=100, seed="acc-c1", lifetime=64)
    system = config.build_system(Rng(config.seed), config.tags)
    ids = system.tag_ids()
    rng = system.rng
    rnd = random.Random("acc-c1-schedule")

    start = time.perf_counter()
    good = 0
    via_steps = {1: 0, 2: 0}
    for _ in range(target):
        tid = rnd.choice(ids)
        if rnd.random() < 0.3:
            other = rnd.choice([t for t in ids if t != tid])
            sid = rng.take_bits(128)
            system.tag(other).step(sid, Msg(0, rng.take_bits(system.params.challenge_bits)), rng)
        trs = run_honest_session(system.reader, system.tag(tid), rng)
        record = system.reader.history.sessions[-1]
        via_steps[record.via_step] = via_steps.get(record.via_step, 0) + 1
        good += trs.o_reader == 1 and trs.o_tag == 1 and record.tag_id == tid
    elapsed = time.perf_counter() - start

    criterion(
        1,
        good == target and elapsed < 10.0,
        f"{good}/{target} sessions over {len(ids)} tags accepted with the right "
        f"identity in {elapsed:.2f}s (lookups {via_steps[1]}, scans {via_steps[2]})",
    )


def test_criterion_02_desync_recovery_step2_then_step1():
    trials_per_drop = 100
    good = total = 0
    for drops in range(1, 6):
        for i in range(trials_per_drop):
            system = build_ma_system(Rng(f"acc-c2-{drops}-{i}"), tag_count=1)
            hub = OracleHub(system)
            tid = system.first_tag_id()
            drop_tag_replies(hub, tid, drops, system.rng)
            first = relay_session(hub, tid)
            second = relay_session(hub, tid)
            records = system.reader.history.sessions
            total += 1
            good += (
                first.completed
                and second.completed
                and records[-2].via_step == 2
                and records[-1].via_step == 1
                and records[-2].tag_id == tid
                and records[-1].tag_id == tid
            )
    criterion(
        2,
        good == total == 500,
        f"{good}/{total} trials recovered via step 2 then step 1 for 1..5 dropped replies",
    )


def test_criterion_03_possession_sessions_yield_verifiable_credentials():
    sessions = 500
    config = Config(mode="mapop", tags=4, seed="acc-c3", lifetime=256)
    system = config.build_system(Rng(config.seed), config.tags)
    params = system.params
    rnd = random.Random("acc-c3-pick")
    good = 0
    for _ in range(sessions):
        tid = rnd.choice(system.tag_ids())
        trs = system.run_honest(tag_id=tid)
        record = system.reader.history.sessions[-1]
        cred = cred_gen(params, system.reader, system.reader_signer, record.j)
        independent = system.tag(tid).state.signer.sign(
            hash_digest(cred.issuer_sig, params.hash_bits)
        )
        good += (
            trs.o_reader == 1
            and trs.o_tag == 1
            and cred is not None
            and cred_veri(params, system.directory, cred) == 1
            and cred.tag_id == tid
            and cred.possession_sig == independent
        )
    criterion(
        3,
        good == sessions,
        f"{good}/{sessions} sessions issued a verifying credential whose "
        f"possession signature matches the tag signer on the hashed issuer signature",
    )


def test_criterion_04_single_bit_tampering_is_rejected():
    trials = 1000
    config = Config(mode="mapop", tags=2, seed="acc-c4", lifetime=5000)
    system = config.build_system(Rng(config.seed), config.tags)
    tid = system.first_tag_id()
    budget = AdversaryBudget(n1=1 << 20, n2=1 << 20, n3=1 << 20)
    hub = OracleHub(system, budget)
    probe = relay_session(hub, tid)
    assert probe.completed
    widths = {pos: 8 * len(probe.messages[pos - 1].payload) for pos in (2, 3, 4)}

    rnd = random.Random("acc-c4-flip")
    rejected = 0
    for _ in range(trials):
        pos = rnd.choice((2, 3, 4))
        bit = rnd.randrange(widths[pos])
        res = relay_session(hub, tid, flip_at=pos, flip_bit=bit)
        if pos == 2:
            rejected += res.o_reader == 0
        elif pos == 3:
            hub.advance_time()
            record = system.reader.history.sessions[-1]
            rejected += res.o_tag == 0 and record.o_reader == 0
        else:
            rejected += res.o_reader == 0
    criterion(
        4,
        rejected == trials,
        f"{rejected}/{trials} sessions with one flipped bit in message 2, 3 or 4 rejected",
    )


def test_criterion_05_statistical_adversaries_gain_nothing():
    trials = 10_000
    measured = []
    ok = True
    for name in ("transcript-statistics", "repeated-query"):
        report = exp_unp_sharp(
            mapop_factory, make_adversary(name), trials, Rng(f"acc-c5-{name}")
        )
        measured.append(
            f"{name}: advantage {report.advantage:.4f} "
            f"ci [{report.ci_low:.4f}, {report.ci_high:.4f}]"
        )
        ok = ok and report.advantage <= 0.05 and report.ci_contains_zero
    criterion(5, ok, f"{trials} trials each; " + "; ".join(measured))


def test_finalize_truncation_gains_nothing():
    """A relay that cuts the reader's round-2 message to the length of an MA
    confirmation: the tag ignores the cut message in both worlds, so the
    adversary's guess is a constant."""
    report = exp_unp_sharp(
        mapop_factory, make_adversary("finalize-truncator"), 200, Rng("acc-trunc")
    )
    assert report.advantage <= 0.05 and report.ci_contains_zero, report.to_text()


class ChallengeEcho:
    """Hands the reader's round-0 challenge straight back to the reader. The
    real reader rejects a message out of its turn, so the guess is b=1
    exactly when the reader answers o_R=0."""

    name = "challenge-echo"

    def learn(self, hub, rng):
        return hub.system.first_tag_id(), None

    def guess(self, hub, tag_id, st, rng):
        start = hub.o1_init_reader()
        return 1 if hub.o3_send_reader(start.sid, start.msg).output == 0 else 0


class CrossSidRelay(ChallengeEcho):
    """Relays the challenge to the tag under another sid and returns the
    reply on the reader's own. Messages carry no sid, so the real reader
    answers the reply."""

    name = "cross-sid-relay"

    def guess(self, hub, tag_id, st, rng):
        start = hub.o1_init_reader()
        reply = hub.o2_send_tag(tag_id, flip_bit(start.sid, 0), start.msg)
        return 1 if hub.o3_send_reader(start.sid, reply.msg).msg is not None else 0


class AbandonedSession(ChallengeEcho):
    """Opens a second reader session, then ferries the first one. The real
    reader timed the first one out, so it ignores the tag's reply."""

    name = "abandoned-session"

    def guess(self, hub, tag_id, st, rng):
        start = hub.o1_init_reader()
        hub.o1_init_reader()
        reply = hub.o2_send_tag(tag_id, start.sid, start.msg)
        return 1 if hub.o3_send_reader(start.sid, reply.msg).ignored else 0


class RepeatedChallenge(ChallengeEcho):
    """Hands the challenge to the tag twice on the same sid. The real tag
    voids its open session and answers the second one too."""

    name = "repeated-challenge"

    def guess(self, hub, tag_id, st, rng):
        start = hub.o1_init_reader()
        hub.o2_send_tag(tag_id, start.sid, start.msg)
        return 1 if hub.o2_send_tag(tag_id, start.sid, start.msg).msg is not None else 0


class ClockTick(ChallengeEcho):
    """Opens a reader session and lets the clock time it out."""

    name = "clock-tick"

    def guess(self, hub, tag_id, st, rng):
        hub.o1_init_reader()
        return 1 if hub.advance_time() is not None else 0


class NoSessionNote(ChallengeEcho):
    """Sends to the reader before it opens a session and reads the note."""

    name = "no-session-note"

    def guess(self, hub, tag_id, st, rng):
        res = hub.o3_send_reader(bytes(16), Msg(1, bytes(96)))
        return 1 if res.note == "no open session" else 0


class OpenAcrossStages(ChallengeEcho):
    """Opens a reader session in the learning stage and lets the clock time
    it out in the guess stage. Both worlds time every open session out at
    the stage change, so the clock finds none in either."""

    name = "reader-open-across-stages"

    def learn(self, hub, rng):
        hub.o1_init_reader()
        return hub.system.first_tag_id(), None

    def guess(self, hub, tag_id, st, rng):
        return 1 if hub.advance_time() is not None else 0


class ReplyAcrossStages(ChallengeEcho):
    """Relays the challenge to the tag in the learning stage and returns the
    tag's reply to the reader in the guess stage."""

    name = "reply-across-stages"

    def learn(self, hub, rng):
        tag_id = hub.system.first_tag_id()
        start = hub.o1_init_reader()
        reply = hub.o2_send_tag(tag_id, start.sid, start.msg)
        return tag_id, (start.sid, reply.msg)

    def guess(self, hub, tag_id, st, rng):
        sid, reply = st
        return 1 if hub.o3_send_reader(sid, reply).msg is not None else 0


class ConfirmAcrossStages(ChallengeEcho):
    """Ferries a session up to the reader's round-2 message in the learning
    stage and gives that message to the tag in the guess stage."""

    name = "confirm-across-stages"

    def learn(self, hub, rng):
        tag_id = hub.system.first_tag_id()
        start = hub.o1_init_reader()
        reply = hub.o2_send_tag(tag_id, start.sid, start.msg)
        confirm = hub.o3_send_reader(start.sid, reply.msg)
        return tag_id, (start.sid, confirm.msg)

    def guess(self, hub, tag_id, st, rng):
        sid, confirm = st
        return 1 if hub.o2_send_tag(tag_id, sid, confirm).output is not None else 0


@pytest.mark.parametrize(
    "adversary",
    [ChallengeEcho, CrossSidRelay, AbandonedSession, RepeatedChallenge, ClockTick, NoSessionNote,
     OpenAcrossStages, ReplyAcrossStages, ConfirmAcrossStages],
    ids=lambda cls: cls.name,
)
def test_challenge_echoed_to_the_reader_gains_nothing(adversary):
    """Each adversary reads one session rule off an oracle answer; the b=0
    world follows the same rules, so none of them gains anything."""
    report = exp_unp_sharp(mapop_factory, adversary(), 200, Rng("acc-echo"))
    assert report.advantage <= 0.05 and report.ci_contains_zero, report.to_text()


def test_criterion_06_distinguisher_separates_flawed_protocol():
    trials = 1000
    adversary = make_adversary("cex-distinguisher")
    flawed = exp_unp_star(
        lambda rng: build_cex_system(rng, tag_count=2),
        adversary,
        trials,
        Rng("acc-c6-cex"),
    )
    refined = exp_unp_star(
        lambda rng: build_ma_system(rng, tag_count=2),
        make_adversary("cex-distinguisher"),
        trials,
        Rng("acc-c6-ma"),
    )
    criterion(
        6,
        flawed.advantage >= 0.45 and refined.advantage <= 0.05,
        f"advantage {flawed.advantage:.3f} on the flawed variant vs "
        f"{refined.advantage:.3f} on the refined protocol at {trials} trials",
    )


def test_criterion_07_tampered_nonce_accepted_exactly_in_clean_state():
    trials = 500
    rnd = random.Random("acc-c7")
    agree = 0
    for i in range(trials):
        system = build_cex_system(Rng(f"acc-c7-{i}"), tag_count=1)
        tid = system.first_tag_id()
        tag = system.tag(tid)
        rng = system.rng
        params = system.params
        if rnd.random() < 0.5:
            # Interrupt a session so the tag flags the next run as a resume.
            sid, challenge = system.reader.start(rng)
            tag.step(sid, challenge, rng)
            system.reader.timeout()
            if rnd.random() < 0.5:
                # Realign counters so only the flag decides the outcome.
                system.reader.db.get(tid).ctr = tag.state.ctr
        flag_before = tag.state.st
        sid, challenge = system.reader.start(rng)
        reply = tag.step(sid, challenge, rng).msg
        flipped = Msg(
            reply.round,
            flip_bit(reply.payload, params.out_bits + rnd.randrange(params.nonce_bits)),
        )
        accepted = system.reader.step(sid, flipped, rng).output == 1
        agree += accepted == (flag_before == 0)
    criterion(
        7,
        agree == trials,
        f"{agree}/{trials} trials where a tampered nonce is accepted "
        f"exactly when the interrupt flag is clear",
    )


def test_criterion_08_payload_and_record_sizes():
    sizes = {impl: report_sizes(impl) for impl in ("ma", "1", "2", "3")}
    checks = [
        sizes["1"]["round_bytes"] == [32, 96, 96, 96],
        sizes["2"]["round_bytes"] == [32, 96, 96, 96],
        sizes["3"]["round_bytes"] == [32, 96, 96, 64],
        sizes["ma"]["round_bytes"] == [32, 96, 32],
        sizes["1"]["reader_record_bytes"] == 192,
        sizes["1"]["tag_state_bytes"] == 128,
        sizes["ma"]["reader_record_bytes"] == 96,
        sizes["ma"]["tag_state_bytes"] == 64,
    ]
    criterion(
        8,
        all(checks),
        "round payloads {}/{}/{}/{} bytes; records {}r/{}t vs {}r/{}t".format(
            sizes["1"]["round_bytes"],
            sizes["2"]["round_bytes"],
            sizes["3"]["round_bytes"],
            sizes["ma"]["round_bytes"],
            sizes["1"]["reader_record_bytes"],
            sizes["1"]["tag_state_bytes"],
            sizes["ma"]["reader_record_bytes"],
            sizes["ma"]["tag_state_bytes"],
        ),
    )


def test_criterion_09_operation_counts():
    ops = {impl: report_ops(impl) for impl in ("ma", "1", "2", "3")}
    scan = ops["ma"]["scan"]
    ratio = scan["tags_200_reader_hashes"] / scan["tags_100_reader_hashes"]
    checks = [
        ops["ma"]["sync"]["tag"] == {"hashes": 3, "point_muls": 0, "scalar_muls": 0},
        ops["ma"]["sync"]["reader"] == {"hashes": 3, "point_muls": 0, "scalar_muls": 0},
        ops["1"]["sync"]["tag"] == {"hashes": 8, "point_muls": 1, "scalar_muls": 1},
        ops["2"]["sync"]["tag"] == {"hashes": 8, "point_muls": 0, "scalar_muls": 1},
        ops["3"]["sync"]["tag"] == {"hashes": 10, "point_muls": 0, "scalar_muls": 1},
        ops["1"]["sync"]["reader"]["point_muls"] == 3,
        abs(ratio - 2.0) <= 0.1,
    ]
    criterion(
        9,
        all(checks),
        f"tag rows 3H / 8H+1pm+1sm / 8H+1sm / 10H+1sm; "
        f"desync scan {scan['tags_100_reader_hashes']}→{scan['tags_200_reader_hashes']} "
        f"hashes, ratio {ratio:.3f}",
    )


def test_criterion_10_no_forgery_events_and_budget_enforcement():
    trials = 1000
    measured = []
    ok = True
    for name in ("honest-replayer", "db-splicer", "random-forger"):
        report = exp_cred_unforge(
            mapop_factory, make_adversary(name), trials, Rng(f"acc-c10-{name}")
        )
        measured.append(f"{name}: e1={report.extra['e1']} e2={report.extra['e2']}")
        ok = ok and report.successes == 0 and report.extra["e1"] == 0 and report.extra["e2"] == 0

    signer, _vk = ktime_keygen(Rng("acc-c10-ktime"), 3)
    for i in range(3):
        signer.sign(bytes([i]))
    with pytest.raises(KTimeExhausted):
        signer.sign(b"one too many")
    criterion(
        10,
        ok,
        f"{trials} trials each; " + "; ".join(measured) + "; sign 4 of 3 raised",
    )


def test_criterion_11_reports_are_reproducible():
    def batch():
        reports = [
            exp_unp_sharp(
                mapop_factory,
                make_adversary("transcript-statistics"),
                60,
                Rng("acc-c11-sharp"),
            ),
            exp_unp_star(
                lambda rng: build_cex_system(rng, tag_count=2),
                make_adversary("cex-distinguisher"),
                60,
                Rng("acc-c11-star"),
            ),
            exp_cred_unforge(
                mapop_factory, make_adversary("random-forger"), 40, Rng("acc-c11-ufrg")
            ),
            ptpt_experiment(
                PrfDescriptor("ma-f", 256, 768, 256),
                statistical_probe,
                60,
                Rng("acc-c11-ptpt"),
            ),
        ]
        return [r.to_json() for r in reports]

    first = batch()
    second = batch()
    criterion(
        11,
        first == second,
        f"{len(first)} experiment reports re-ran byte-identically",
    )
