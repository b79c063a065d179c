"""Real-vs-random distinguishing experiment for the keyed family."""

import pytest

from rfpop.errors import BudgetExceeded
from rfpop.harness.ptpt import (
    broken_identity_family,
    identity_catcher,
    ptpt_experiment,
    statistical_probe,
)
from rfpop.primitives.prf import PrfDescriptor
from rfpop.primitives.rng import Rng

DESC = PrfDescriptor("ma-f", 256, 768, 256)


def test_real_family_resists_statistics():
    report = ptpt_experiment(DESC, statistical_probe, 200, Rng("ptpt-real"))
    assert report.experiment == "ptpt"
    assert report.advantage <= 0.05 or report.ci_contains_zero


def test_broken_family_is_caught():
    report = ptpt_experiment(
        DESC, identity_catcher, 200, Rng("ptpt-broken"), family=broken_identity_family
    )
    assert report.advantage >= 0.45


def test_identity_catcher_blind_to_real_family():
    report = ptpt_experiment(DESC, identity_catcher, 200, Rng("ptpt-blind"))
    assert report.advantage <= 0.05 or report.ci_contains_zero


def test_query_budget_enforced():
    def greedy(oracle, desc, rng):
        for _ in range(100):
            oracle(rng.take_bits(desc.in_bits))
        return 0

    with pytest.raises(BudgetExceeded):
        ptpt_experiment(DESC, greedy, 1, Rng("ptpt-greedy"), max_queries=4)


def test_report_is_deterministic():
    a = ptpt_experiment(DESC, statistical_probe, 50, Rng("ptpt-det"))
    b = ptpt_experiment(DESC, statistical_probe, 50, Rng("ptpt-det"))
    assert a.to_json() == b.to_json()
