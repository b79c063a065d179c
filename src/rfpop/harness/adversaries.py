"""Built-in adversary programs for the experiment harness.

Two interfaces, both stateless across trials:

  privacy adversaries
      learn(hub, rng) -> (challenge_tag_id, st)   real system, all oracles
      guess(hub, challenge_tag_id, st, rng) -> b' first three oracles only
  forgery adversaries
      run(hub, rng) -> None | (Credential, extra_keys)

where st is whatever the learning stage wants to hand to the guess stage and
extra_keys maps adversary-chosen party ids to verifying keys that the game
registers in the key directory before checking the forgery events.

The suite covers sanity baselines (coin-flipper, honest-runner), the
statistical distinguishers used by the privacy acceptance checks
(transcript-statistics, repeated-query), scripted interference scenarios
(bit-flipper, replayer, desync-attacker, finalize-truncator), the tracing
attack against the flawed counter protocol (cex-distinguisher), and three
credential forgers (honest-replayer, db-splicer, random-forger).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from rfpop.model.session import relay
from rfpop.model.types import SID_BITS, Msg, Transcript
from rfpop.pop import Credential
from rfpop.primitives import bitstring
from rfpop.primitives.rng import Rng
from rfpop.primitives.sig import fulltime_keygen

from .oracles import OracleHub


def relay_session(
    hub: OracleHub,
    tag_id: bytes,
    flip_at: int = 0,
    flip_bit: int = 0,
    inject: Optional[dict[int, Msg]] = None,
) -> Transcript:
    """Ferry one session between reader and tag, recording every message and
    both execution results.

    Messages are numbered 1-based in delivery order (1 = first challenge).
    `flip_at` flips `flip_bit` of that message before delivering it;
    `inject` substitutes a previously captured message at the given position.
    Either tampering leaves the recorded transcript holding the original.
    """
    res = hub.o1_init_reader()
    if res.msg is None:
        return Transcript(res.sid)
    sid = res.sid
    positions = itertools.count(1)

    def tampered(msg: Msg) -> Msg:
        position = next(positions)
        if inject and position in inject:
            msg = inject[position]
        if position == flip_at:
            msg = Msg(msg.round, bitstring.flip_bit(msg.payload, flip_bit))
        return msg

    return relay(
        sid,
        res.msg,
        lambda msg: hub.o2_send_tag(tag_id, sid, tampered(msg)),
        lambda msg: hub.o3_send_reader(sid, tampered(msg)),
    )


def drop_tag_replies(hub: OracleHub, tag_id: bytes, count: int, rng: Rng):
    """Query the tag with fresh challenges and discard every reply, leaving
    the tag's counter ahead of the reader's."""
    width = hub.system.params.challenge_bits
    for _ in range(count):
        sid = rng.take_bits(SID_BITS)
        hub.o2_send_tag(tag_id, sid, Msg(0, rng.take_bits(width)))


def _first_tag(hub: OracleHub) -> bytes:
    return hub.system.first_tag_id()


class CoinFlipper:
    """Baseline: ignores the oracles and answers a fair coin."""

    name = "coin-flipper"

    def learn(self, hub: OracleHub, rng: Rng):
        return _first_tag(hub), None

    def guess(self, hub: OracleHub, tag_id: bytes, st, rng: Rng) -> int:
        return rng.coin()


class HonestRunner:
    """Ferries sessions faithfully and flags only broken runs. Both worlds
    complete honest sessions, so its advantage stays at zero."""

    name = "honest-runner"

    def learn(self, hub: OracleHub, rng: Rng):
        relay_session(hub, _first_tag(hub))
        return _first_tag(hub), None

    def guess(self, hub: OracleHub, tag_id: bytes, st, rng: Rng) -> int:
        run = relay_session(hub, tag_id)
        rounds = len(hub.system.protocol.slots())
        shape_ok = len(run.messages) == rounds
        results_ok = run.o_reader in (1, None) and run.o_tag in (1, None)
        return 0 if shape_ok and results_ok else 1


class TranscriptStatistics:
    """Pools the bits of two ferried sessions and looks for bias or repeats;
    keyed-function outputs and uniform draws both pass, so this measures that
    the blinded world's messages are statistically unremarkable."""

    name = "transcript-statistics"
    z_threshold = 3.0

    def learn(self, hub: OracleHub, rng: Rng):
        relay_session(hub, _first_tag(hub))
        relay_session(hub, _first_tag(hub))
        return _first_tag(hub), None

    def guess(self, hub: OracleHub, tag_id: bytes, st, rng: Rng) -> int:
        first = relay_session(hub, tag_id)
        second = relay_session(hub, tag_id)
        for a, b in zip(first.messages, second.messages):
            if a.payload == b.payload:
                return 1
        ones = 0
        total = 0
        for msg in first.messages + second.messages:
            ones += int.from_bytes(msg.payload, "big").bit_count()
            total += 8 * len(msg.payload)
        if total == 0:
            return 1
        z = abs(2 * ones - total) / (total ** 0.5)
        return 1 if z > self.z_threshold else 0


class RepeatedQuery:
    """Replays a challenge across sessions and tampers with a continuation,
    then checks every oracle answer against the blinded world's case rules.
    A faithful implementation matches the rules in both worlds."""

    name = "repeated-query"

    def learn(self, hub: OracleHub, rng: Rng):
        return _first_tag(hub), None

    def guess(self, hub: OracleHub, tag_id: bytes, st, rng: Rng) -> int:
        four_round = len(hub.system.protocol.slots()) == 4
        hidden = hub.suppress_outputs
        reject = None if hidden else 0

        first = hub.o1_init_reader()
        if first.msg is None or first.msg.round != 0:
            return 1
        sid_a, c1_a = first.sid, first.msg

        reply = hub.o2_send_tag(tag_id, sid_a, c1_a)
        if reply.msg is None or reply.output is not None:
            return 1
        alpha_a = reply.msg

        cont = hub.o3_send_reader(sid_a, alpha_a)
        if cont.msg is None:
            return 1
        expected = None if (four_round or hidden) else 1
        if cont.output != expected:
            return 1

        flipped = Msg(cont.msg.round, bitstring.flip_bit(cont.msg.payload, 0))
        broken = hub.o2_send_tag(tag_id, sid_a, flipped)
        if broken.msg is not None or broken.output != reject:
            return 1

        second = hub.o1_init_reader()
        if second.msg is None or second.sid is None:
            return 1
        sid_b, c1_b = second.sid, second.msg
        if sid_b == sid_a or c1_b.payload == c1_a.payload:
            return 1

        replayed = hub.o2_send_tag(tag_id, sid_b, Msg(0, c1_a.payload))
        if replayed.msg is None or replayed.output is not None:
            return 1
        if replayed.msg.payload == alpha_a.payload:
            return 1

        crossed = hub.o3_send_reader(sid_b, replayed.msg)
        if crossed.msg is not None or crossed.output != reject:
            return 1
        return 0


@dataclass
class BitFlipper:
    """Delivers one message with a single bit flipped and ferries the rest
    honestly. Positions are 1-based in delivery order (4 = the tag's final
    possession reply)."""

    message_index: int = 4
    bit: int = 0

    @property
    def name(self) -> str:
        return f"bit-flipper-m{self.message_index}-b{self.bit}"

    def learn(self, hub: OracleHub, rng: Rng):
        relay_session(hub, _first_tag(hub), flip_at=self.message_index, flip_bit=self.bit)
        return _first_tag(hub), None

    def guess(self, hub: OracleHub, tag_id: bytes, st, rng: Rng) -> int:
        relay_session(hub, tag_id, flip_at=self.message_index, flip_bit=self.bit)
        return rng.coin()


@dataclass
class Replayer:
    """Captures a message from one session and substitutes it at the same
    position in the next session."""

    message_index: int = 4

    @property
    def name(self) -> str:
        return f"replayer-m{self.message_index}"

    def _script(self, hub: OracleHub, tag_id: bytes) -> tuple[Transcript, Transcript]:
        first = relay_session(hub, tag_id)
        captured = {}
        if len(first.messages) >= self.message_index:
            captured[self.message_index] = first.messages[self.message_index - 1]
        second = relay_session(hub, tag_id, inject=captured)
        return first, second

    def learn(self, hub: OracleHub, rng: Rng):
        self._script(hub, _first_tag(hub))
        return _first_tag(hub), None

    def guess(self, hub: OracleHub, tag_id: bytes, st, rng: Rng) -> int:
        self._script(hub, tag_id)
        return rng.coin()


@dataclass
class DesyncAttacker:
    """Discards a run of tag replies so the tag's counter runs ahead, then
    ferries honest sessions to watch the reader recover."""

    drop_count: int = 5

    @property
    def name(self) -> str:
        return f"desync-attacker-d{self.drop_count}"

    def learn(self, hub: OracleHub, rng: Rng):
        tag = _first_tag(hub)
        drop_tag_replies(hub, tag, self.drop_count, rng)
        relay_session(hub, tag)
        relay_session(hub, tag)
        return tag, None

    def guess(self, hub: OracleHub, tag_id: bytes, st, rng: Rng) -> int:
        run = relay_session(hub, tag_id)
        rounds = len(hub.system.protocol.slots())
        return 0 if len(run.messages) == rounds else 1


class FinalizeTruncator:
    """Relays rounds 0 and 1 faithfully, then hands the tag only the first
    `out_bits` of the reader's round-2 message, the length of an MA
    confirmation. The blinded world never answers the cut message with
    o_T=1, so the guess is b=1 exactly when the tag accepts it: a message
    the reader never sent."""

    name = "finalize-truncator"

    def learn(self, hub: OracleHub, rng: Rng):
        return _first_tag(hub), None

    def guess(self, hub: OracleHub, tag_id: bytes, st, rng: Rng) -> int:
        start = hub.o1_init_reader()
        reply = hub.o2_send_tag(tag_id, start.sid, start.msg)
        if reply.msg is None:
            return 0
        finalize = hub.o3_send_reader(start.sid, reply.msg)
        if finalize.msg is None:
            return 0
        cut = finalize.msg.payload[: hub.system.params.out_bits // 8]
        res = hub.o2_send_tag(tag_id, start.sid, Msg(finalize.msg.round, cut))
        return 1 if res.output == 1 else 0


class CexDistinguisher:
    """Tracing attack on the flawed counter protocol: query the same
    challenge before and after a clean finish; the first reply blocks then
    differ by ctr XOR (ctr+1), an all-ones-suffix pattern that random draws
    almost never produce."""

    name = "cex-distinguisher"

    def learn(self, hub: OracleHub, rng: Rng):
        tag = _first_tag(hub)
        run = relay_session(hub, tag)
        if len(run.messages) < 2:
            return tag, None
        width = hub.system.params.out_bits // 8
        challenge = run.messages[0].payload
        first_block = run.messages[1].payload[:width]
        return tag, (challenge, first_block)

    def guess(self, hub: OracleHub, tag_id: bytes, st, rng: Rng) -> int:
        if st is None:
            return 0
        challenge, first_block = st
        sid = rng.take_bits(SID_BITS)
        res = hub.o2_send_tag(tag_id, sid, Msg(0, challenge))
        if res.msg is None or len(res.msg.payload) < len(first_block):
            return 0
        repeat = res.msg.payload[: len(first_block)]
        delta = int.from_bytes(bitstring.xor(first_block, repeat), "big")
        return 1 if delta != 0 and delta & (delta + 1) == 0 else 0


class HonestReplayer:
    """Forgery baseline: completes an honest session and presents that
    session's own credential, which the issuing snapshot reproduces."""

    name = "honest-replayer"

    def run(self, hub: OracleHub, rng: Rng):
        tag = _first_tag(hub)
        run = relay_session(hub, tag)
        if run.sid is None or run.o_reader != 1:
            return None
        cred = hub.o5_get_cred(run.sid)
        if cred is None:
            return None
        return cred, None


class DbSplicer:
    """Completes two honest sessions and splices the possession signature of
    one credential into the other."""

    name = "db-splicer"

    def run(self, hub: OracleHub, rng: Rng):
        ids = hub.system.tag_ids()
        first_tag = ids[0]
        second_tag = ids[1] if len(ids) > 1 else ids[0]
        first = relay_session(hub, first_tag)
        second = relay_session(hub, second_tag)
        if first.sid is None or second.sid is None:
            return None
        cred_a = hub.o5_get_cred(first.sid)
        cred_b = hub.o5_get_cred(second.sid)
        if cred_a is None or cred_b is None:
            return None
        spliced = Credential(
            reader_id=cred_a.reader_id,
            tag_id=cred_a.tag_id,
            nonce=cred_a.nonce,
            issuer_sig=cred_a.issuer_sig,
            possession_sig=cred_b.possession_sig,
        )
        return spliced, None


class RandomForger:
    """Registers its own issuer key and fabricates a credential for an
    uncorrupted tag, guessing the possession signature."""

    name = "random-forger"
    issuer_id = b"adv-issuer"

    def run(self, hub: OracleHub, rng: Rng):
        if hub.system.kind != "mapop":
            return None
        signer, verify_key = fulltime_keygen(rng)
        nonce = rng.take_bytes(32)
        cred = Credential(
            reader_id=self.issuer_id,
            tag_id=_first_tag(hub),
            nonce=nonce,
            issuer_sig=signer.sign(nonce),
            possession_sig=rng.take_bytes(hub.system.params.sig_bytes),
        )
        return cred, {self.issuer_id: verify_key}


PRIVACY_ADVERSARIES = {
    "coin-flipper": CoinFlipper,
    "honest-runner": HonestRunner,
    "transcript-statistics": TranscriptStatistics,
    "repeated-query": RepeatedQuery,
    "cex-distinguisher": CexDistinguisher,
    "bit-flipper": BitFlipper,
    "replayer": Replayer,
    "desync-attacker": DesyncAttacker,
    "finalize-truncator": FinalizeTruncator,
}

FORGERY_ADVERSARIES = {
    "honest-replayer": HonestReplayer,
    "db-splicer": DbSplicer,
    "random-forger": RandomForger,
    "splicer": DbSplicer,
}


def make_adversary(name: str, **params):
    """Instantiate a registered adversary by its public name."""
    registry = {**PRIVACY_ADVERSARIES, **FORGERY_ADVERSARIES}
    if name not in registry:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown adversary {name!r}; known: {known}")
    return registry[name](**params)
