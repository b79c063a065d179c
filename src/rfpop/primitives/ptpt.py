"""Pseudorandomness experiment: keyed family vs. a true random function.

A distinguisher gets oracle access to either the keyed family under a fresh
key (b=1) or a lazily sampled random function with the same length profile
(b=0) and must output a guess for b. The family under test is injectable so
that deliberately broken families can be shown to lose.
"""

from __future__ import annotations

from typing import Callable

from rfpop.errors import BudgetExceeded
from rfpop.harness.report import ExperimentReport
from rfpop.primitives.prf import PrfDescriptor, prf_eval
from rfpop.primitives.rng import Rng

Family = Callable[[PrfDescriptor, bytes, bytes], bytes]


class _Oracle:
    """Budgeted oracle for one trial."""

    def __init__(self, fn, desc: PrfDescriptor, max_queries: int):
        self._fn = fn
        self._desc = desc
        self._left = max_queries

    def __call__(self, data: bytes) -> bytes:
        if self._left <= 0:
            raise BudgetExceeded("ptpt query budget used up")
        self._left -= 1
        return self._fn(data)


def ptpt_experiment(
    desc: PrfDescriptor,
    distinguisher: Callable[..., int],
    trials: int,
    rng: Rng,
    family: Family = prf_eval,
    max_queries: int = 64,
) -> ExperimentReport:
    """Run the real-vs-random game `trials` times and report the advantage.

    distinguisher(oracle, desc, rng) must return a bit. A trial succeeds when
    the guess equals the hidden bit.
    """
    successes = 0
    trial_seeds = []
    in_bits = desc.in_bits if desc.in_bits is not None else 256
    for i in range(trials):
        trial_rng = rng.spawn(f"ptpt-trial-{i}")
        trial_seeds.append(trial_rng.seed_hex)
        b = trial_rng.spawn("coin").coin()
        if b == 1:
            key = trial_rng.spawn("key").take_bits(desc.key_bits)
            fn = lambda x, key=key: family(desc, key, x)
        else:
            draw = trial_rng.spawn("random-function")
            memo: dict[bytes, bytes] = {}

            def fn(x: bytes, memo=memo, draw=draw):
                if x not in memo:
                    memo[x] = draw.take_bits(desc.out_bits)
                return memo[x]

        guess = distinguisher(_Oracle(fn, desc, max_queries), desc, trial_rng.spawn("adv"))
        if guess == b:
            successes += 1
    return ExperimentReport.from_counts(
        experiment="ptpt",
        protocol=desc.name,
        successes=successes,
        trials=trials,
        seed=rng.seed_hex,
        extra={"max_queries": max_queries, "in_bits": in_bits},
        trial_seeds=trial_seeds,
    )


def broken_identity_family(desc: PrfDescriptor, key: bytes, data: bytes, out_bits=None) -> bytes:
    """A deliberately broken family that ignores its key: output = input,
    truncated or zero-padded to the output length. Distinguishable with one
    query."""
    width = (out_bits if out_bits is not None else desc.out_bits) // 8
    return data[:width] + bytes(max(width - len(data), 0))


def identity_catcher(oracle, desc: PrfDescriptor, rng: Rng) -> int:
    """Distinguisher targeting broken_identity_family: checks whether the
    oracle echoes its input prefix."""
    in_bits = desc.in_bits if desc.in_bits is not None else 256
    x = rng.take_bits(in_bits)
    y = oracle(x)
    n = min(len(x), len(y))
    return 1 if x[:n] == y[:n] else 0


def statistical_probe(oracle, desc: PrfDescriptor, rng: Rng) -> int:
    """Distinguisher that only looks at output bit balance; both worlds look
    uniform, so its advantage should be near zero."""
    in_bits = desc.in_bits if desc.in_bits is not None else 256
    ones = 0
    total = 0
    for _ in range(8):
        y = oracle(rng.take_bits(in_bits))
        ones += int.from_bytes(y, "big").bit_count()
        total += 8 * len(y)
    return 1 if abs(ones / total - 0.5) > 0.035 else 0
