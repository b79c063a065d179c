"""Runtime configuration: defaults, aliases, validation, file and env loading."""

import json

import pytest

from rfpop.app.config import (
    ENV_CONFIG,
    Config,
    canonical_impl,
    config_from_dict,
    load_config,
    save_config,
)
from rfpop.errors import ConfigError
from rfpop.ma import MaParams
from rfpop.pop import IMPL_FULLTIME, IMPL_KTIME, IMPL_POOLED, PopParams
from rfpop.primitives.rng import Rng
from rfpop.system import DEFAULT_LIFETIME


def test_defaults():
    config = Config()
    assert config.mode == "mapop"
    assert config.impl == IMPL_FULLTIME
    assert (config.l_k, config.l_r, config.l_u, config.l_v) == (256, 256, 256, 256)
    assert config.tags == 2
    assert config.effective_lifetime == DEFAULT_LIFETIME
    assert config.host == "127.0.0.1"
    assert config.port == 7410


@pytest.mark.parametrize(
    "alias,expected",
    [
        ("1", IMPL_FULLTIME),
        ("2", IMPL_POOLED),
        ("3", IMPL_KTIME),
        (IMPL_FULLTIME, IMPL_FULLTIME),
        (IMPL_POOLED, IMPL_POOLED),
        (IMPL_KTIME, IMPL_KTIME),
    ],
)
def test_impl_aliases(alias, expected):
    assert canonical_impl(alias) == expected
    assert Config(impl=alias).impl == expected


def test_unknown_impl_and_mode_rejected():
    with pytest.raises(ConfigError):
        Config(impl="impl9")
    with pytest.raises(ConfigError):
        Config(mode="bogus")


def test_length_validation():
    with pytest.raises(ConfigError):
        Config(l_k=12)
    with pytest.raises(ConfigError):
        Config(l_r=0)
    with pytest.raises(ConfigError):
        Config(l_v=-8)


def test_ktime_budget_rules():
    # A positive signing budget is required, and the tag lifetime cannot
    # exceed it: each session spends one signature.
    with pytest.raises(ConfigError):
        Config(impl="3", K=0)
    with pytest.raises(ConfigError):
        Config(impl="3", K=4, lifetime=5)
    config = Config(impl="3", K=4)
    assert config.effective_lifetime == 4  # defaults to the signing budget
    assert Config(impl="3", K=4, lifetime=3).effective_lifetime == 3


def test_pooled_budget_rule():
    with pytest.raises(ConfigError):
        Config(impl="2", s=4, lifetime=5)
    assert Config(impl="2", s=8, lifetime=8).effective_lifetime == 8


def test_listen_validation():
    with pytest.raises(ConfigError):
        Config(listen="no-port")
    with pytest.raises(ConfigError):
        Config(listen="host:notanumber")
    config = Config(listen="0.0.0.0:9000")
    assert (config.host, config.port) == ("0.0.0.0", 9000)


def test_params_reflect_lengths():
    config = Config(mode="ma", l_k=128, l_r=256, l_u=256, l_v=192)
    ma = config.ma_params()
    assert (ma.key_bits, ma.out_bits, ma.challenge_bits, ma.nonce_bits) == (
        128, 256, 256, 192,
    )
    pop_config = Config(impl="3", K=8)
    pop = pop_config.pop_params()
    assert pop.sig_impl == IMPL_KTIME
    assert pop.k_time == 8
    assert pop.hash_bits == pop_config.l_r


def test_params_follow_mode():
    for mode in ("ma", "cex"):
        assert Config(mode=mode, l_v=128).params() == Config(l_v=128).ma_params()
    config = Config(mode="mapop", impl="3", K=8)
    assert config.params() == config.pop_params()


def test_pop_params_are_interior_params():
    params = Config(mode="mapop").params()
    assert isinstance(params, MaParams)
    lengths = ("key_bits", "out_bits", "challenge_bits", "nonce_bits")
    ma = Config().ma_params()
    assert [getattr(params, n) for n in lengths] == [getattr(ma, n) for n in lengths]


def test_default_signing_budget_matches_config():
    assert PopParams(sig_impl=IMPL_KTIME).k_time == Config().K


def test_build_system_matches_mode():
    for mode, kind in (("ma", "ma"), ("mapop", "mapop"), ("cex", "cex")):
        config = Config(mode=mode, tags=3)
        system = config.build_system(Rng("cfg"), config.tags)
        assert system.kind == kind
        assert len(system.tag_ids()) == 3
        assert system.lifetime == config.effective_lifetime


def test_dict_round_trip_and_overrides():
    config = Config(mode="ma", tags=5, seed="abc", lifetime=100)
    back = config_from_dict(config.to_dict())
    assert back == config
    assert "lifetime" not in Config().to_dict()  # omitted while unset
    changed = config.with_overrides(tags=7, mode="cex")
    assert changed.tags == 7 and changed.mode == "cex"
    assert changed.seed == "abc"
    with pytest.raises(ConfigError):
        config_from_dict({"tags": 2, "mystery": 1})


def test_load_config_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    assert load_config(None) == Config()

    env_path = tmp_path / "env.json"
    save_config(Config(tags=9), str(env_path))
    monkeypatch.setenv(ENV_CONFIG, str(env_path))
    assert load_config(None).tags == 9

    arg_path = tmp_path / "arg.json"
    save_config(Config(tags=4), str(arg_path))
    assert load_config(str(arg_path)).tags == 4


def test_save_config_writes_plain_json(tmp_path):
    path = tmp_path / "c.json"
    save_config(Config(mode="ma", tags=3), str(path))
    doc = json.loads(path.read_text())
    assert doc["mode"] == "ma"
    assert doc["tags"] == 3
