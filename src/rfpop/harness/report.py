"""Experiment reports and interval statistics.

Every security experiment produces the same report shape: trial counts,
success counts, the distinguishing advantage |p - 1/2|, and a Wilson 95%
interval on the advantage. Reports serialize deterministically (sorted JSON
keys, no timestamps) so identical seeds give byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def advantage_interval(successes: int, trials: int) -> tuple[float, float, float]:
    """(advantage, ci_low, ci_high) where advantage = |p_hat - 1/2|.

    The interval is the image of the Wilson interval on the success proportion
    under p -> |p - 1/2|; it contains 0 exactly when the proportion interval
    straddles 1/2.
    """
    lo, hi = wilson_interval(successes, trials)
    adv = abs(successes / trials - 0.5)
    if lo <= 0.5 <= hi:
        return adv, 0.0, max(abs(lo - 0.5), abs(hi - 0.5))
    return adv, min(abs(lo - 0.5), abs(hi - 0.5)), max(abs(lo - 0.5), abs(hi - 0.5))


@dataclass
class ExperimentReport:
    """Outcome of one experiment run.

    `extra` carries experiment-specific observations (event counts, invalid
    trials); it is serialized alongside the required fields.
    """

    experiment: str
    protocol: str
    trials: int
    successes: int
    advantage: float
    ci_low: float
    ci_high: float
    seed: str
    extra: dict = field(default_factory=dict)
    trial_seeds: Optional[list[str]] = None  # kept in memory for replay; not serialized

    @classmethod
    def from_counts(
        cls,
        experiment: str,
        protocol: str,
        successes: int,
        trials: int,
        seed: str,
        extra: Optional[dict] = None,
        trial_seeds: Optional[list[str]] = None,
    ) -> "ExperimentReport":
        adv, lo, hi = advantage_interval(successes, trials)
        return cls(experiment, protocol, trials, successes, adv, lo, hi, seed,
                   dict(extra or {}), trial_seeds)

    @classmethod
    def from_proportion(
        cls,
        experiment: str,
        protocol: str,
        successes: int,
        trials: int,
        seed: str,
        extra: Optional[dict] = None,
        trial_seeds: Optional[list[str]] = None,
    ) -> "ExperimentReport":
        """Report where the figure of merit is the raw success proportion
        (forgery-style events), not a guessing advantage."""
        lo, hi = wilson_interval(successes, trials)
        return cls(experiment, protocol, trials, successes, successes / trials, lo, hi, seed,
                   dict(extra or {}), trial_seeds)

    @property
    def ci_contains_zero(self) -> bool:
        return self.ci_low == 0.0

    def to_json(self) -> str:
        payload = {name: getattr(self, name) for name, _ in FIELDS}
        if self.extra:
            payload["extra"] = self.extra
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"{name}: {getattr(self, name):{spec}}" for name, spec in FIELDS]
        for key in sorted(self.extra):
            lines.append(f"extra.{key}: {self.extra[key]}")
        return "\n".join(lines) + "\n"


# The eight fields every report serializes, in the order the dataclass
# declares them, each with the format spec its text line uses.
FIELDS = tuple((f.name, ".6f" if f.type == "float" else "")
               for f in fields(ExperimentReport) if f.name not in ("extra", "trial_seeds"))
