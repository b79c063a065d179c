"""Operation counters for cost accounting.

Protocol cost tables count three unit operations: hash/PRF core invocations,
elliptic-curve point multiplications, and modular scalar multiplications.
Primitives report into whatever OpCounters object is active; when none is
active, counting is a no-op.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class OpCounters:
    hashes: int = 0
    point_muls: int = 0
    scalar_muls: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hashes": self.hashes,
            "point_muls": self.point_muls,
            "scalar_muls": self.scalar_muls,
        }


# Changed only in place: `prf.prf_eval` tests and counts through its own
# binding of this list.
_stack: list[OpCounters] = []


@contextmanager
def counting(counters: OpCounters):
    """Route primitive operation counts into `counters` within the block."""
    _stack.append(counters)
    try:
        yield counters
    finally:
        _stack.pop()


def count_hash(n: int = 1):
    if _stack:
        _stack[-1].hashes += n


def count_point_mul(n: int = 1):
    if _stack:
        _stack[-1].point_muls += n


def count_scalar_mul(n: int = 1):
    if _stack:
        _stack[-1].scalar_muls += n
