"""Shared fixtures: deterministic RNGs, small prebuilt systems, a log of the
full signature checks `VerifyKey.verify` runs, a log of the Ed25519 key pairs
derived, and a log of the Ed25519 signings signers run."""

import pytest

from rfpop.primitives import ed25519
from rfpop.primitives import sig as sig_mod
from rfpop.primitives.rng import Rng
from rfpop.system import build_cex_system, build_ma_system, build_pop_system


@pytest.fixture
def rng():
    return Rng("test-fixture")


@pytest.fixture
def ma_system():
    return build_ma_system(Rng("ma-fixture"), tag_count=3)


@pytest.fixture
def pop_system():
    return build_pop_system(Rng("pop-fixture"), tag_count=3)


@pytest.fixture
def cex_system():
    return build_cex_system(Rng("cex-fixture"), tag_count=3)


@pytest.fixture
def sig_checks(monkeypatch):
    """Every full signature check run from here on, as (check, msg, sig) with
    check `"_ed25519_verify"` or `"_ktime_verify"`."""
    calls = []
    for name in ("_ed25519_verify", "_ktime_verify"):
        real = getattr(sig_mod, name)

        def counted(key, msg, sig, name=name, real=real):
            calls.append((name, bytes(msg), bytes(sig)))
            return real(key, msg, sig)

        monkeypatch.setattr(sig_mod, name, counted)
    return calls


@pytest.fixture
def ed25519_derivations(monkeypatch):
    """The seed of every Ed25519 key pair derived from here on."""
    seeds = []
    real = sig_mod._ed25519_derive

    def counted(seed):
        seeds.append(bytes(seed))
        return real(seed)

    monkeypatch.setattr(sig_mod, "_ed25519_derive", counted)
    return seeds


@pytest.fixture
def ed25519_signs(monkeypatch):
    """The message of every Ed25519 signing run from here on."""
    calls = []
    real = ed25519.sign

    def counted(sk, msg):
        calls.append(bytes(msg))
        return real(sk, msg)

    monkeypatch.setattr(ed25519, "sign", counted)
    return calls
