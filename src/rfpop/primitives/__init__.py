"""Primitive layer: byte helpers, deterministic RNG, keyed functions,
signatures, group arithmetic, and operation counters."""

from rfpop.primitives.counters import OpCounters, counting
from rfpop.primitives.prf import PrfDescriptor, hash_digest, prf_eval
from rfpop.primitives.rng import Rng

__all__ = [
    "OpCounters",
    "counting",
    "PrfDescriptor",
    "hash_digest",
    "prf_eval",
    "Rng",
]
