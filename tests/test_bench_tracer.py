"""The benchmark's tracer still finds every function it wraps.

`bench/tracing.py` patches functions and methods of `src/` by name and checks
its `REQUIRED_BINDINGS`, so a rename under `src/` breaks the traced
benchmark run.  Installing the tracer in a fresh interpreter catches that in
seconds, without running a workload.

The tracer also reads the PRF layer through the `prf_eval` bindings of
`rfpop.ma` and `rfpop.pop`, so a hash evaluated past them would go unseen.
The accounting tests wrap those bindings, the unkeyed `hash_digest` bindings
and the signature calls the tracer wraps, and check that every hash the
sessions count is counted inside one of them.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rfpop.ma
import rfpop.pop
from rfpop.app.config import Config
from rfpop.primitives import sig
from rfpop.primitives.counters import OpCounters, counting
from rfpop.primitives.rng import Rng

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_current_source():
    code = "import tracing\ntracing.Tracer().install()\nprint('installed')\n"
    path = [str(ROOT / "bench"), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "installed"


class HashAccount:
    """Wrappers that count their calls and the hashes counted inside the
    outermost wrapped call."""

    def __init__(self, ops: OpCounters):
        self.ops = ops
        self.calls = Counter()
        self.inside = 0
        self._depth = 0

    def wrap(self, name: str, fn):
        def wrapped(*args, **kwargs):
            self.calls[name] += 1
            before = self.ops.hashes
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if not self._depth:
                    self.inside += self.ops.hashes - before
        return wrapped


@pytest.fixture
def hash_account(monkeypatch):
    account = HashAccount(OpCounters())
    for module, attr in ((rfpop.ma, "prf_eval"), (rfpop.pop, "prf_eval"),
                         (rfpop.pop, "hash_digest"), (sig, "hash_digest")):
        monkeypatch.setattr(module, attr, account.wrap(attr, getattr(module, attr)))
    for cls, attr in ((sig.FullTimeSigner, "sign"), (sig.KTimeSigner, "sign_at"),
                      (sig.VerifyKey, "verify")):
        monkeypatch.setattr(cls, attr, account.wrap(attr, getattr(cls, attr)))
    return account


SESSIONS = 5


def test_ma_sessions_hash_only_through_the_wrapped_prf(hash_account):
    system = Config(mode="ma", tags=3).build_system(Rng("prf-accounting"))
    hash_account.calls.clear()  # the set-up's evaluations
    with counting(hash_account.ops):
        for n in range(SESSIONS):
            assert system.run_honest(system.tag_ids()[n % 3]).o_reader == 1
    assert hash_account.calls["prf_eval"] == 6 * SESSIONS == hash_account.ops.hashes
    assert hash_account.inside == hash_account.ops.hashes


@pytest.mark.parametrize("impl", ["impl1", "impl2", "impl3"])
def test_mapop_sessions_hash_only_inside_wrapped_calls(hash_account, impl):
    system = Config(mode="mapop", impl=impl, K=8, tags=2).build_system(Rng("prf-accounting"))
    hash_account.calls.clear()  # the set-up's evaluations
    with counting(hash_account.ops):
        for n in range(SESSIONS):
            assert system.run_honest(system.tag_ids()[n % 2]).o_reader == 1
    # The MA core's 6 evaluations, then the binder on both sides and the
    # signature's mask and tag on both sides.
    assert hash_account.calls["prf_eval"] == 12 * SESSIONS
    assert hash_account.inside == hash_account.ops.hashes
