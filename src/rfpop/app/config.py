"""Runtime configuration for the command-line tools.

A config file is a JSON object holding the length parameters, the signature
implementation choice, the protocol mode, a seed, and network settings.  All
fields have defaults, so an empty object is a valid config.  Validation
rejects combinations that cannot run: a K-time signer with no signing budget,
or budgets smaller than the tag lifetime they must cover.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Optional

from rfpop.errors import ConfigError
from rfpop.ma import MaParams
from rfpop.pop import DEFAULT_K, IMPL_FULLTIME, IMPL_KTIME, IMPL_POOLED, PopParams
from rfpop.primitives.rng import Rng
from rfpop.system import DEFAULT_LIFETIME, SYSTEM_BUILDERS, System

from rfpop.app import files

ENV_CONFIG = "RFPOP_CONFIG"

MODES = tuple(SYSTEM_BUILDERS)  # the one list of modes: the builder table's keys

# Accept both the short table names and the canonical identifiers.
_IMPL_ALIASES = {
    "1": IMPL_FULLTIME,
    "2": IMPL_POOLED,
    "3": IMPL_KTIME,
    IMPL_FULLTIME: IMPL_FULLTIME,
    IMPL_POOLED: IMPL_POOLED,
    IMPL_KTIME: IMPL_KTIME,
}


def check_port(port: int) -> int:
    """`port` if it is a TCP port number, 0 to 65535; else ConfigError."""
    if not 0 <= port <= 65535:
        raise ConfigError(f"port must be 0-65535, got {port}")
    return port


def canonical_impl(impl: str) -> str:
    key = str(impl).strip().lower()
    if key not in _IMPL_ALIASES:
        raise ConfigError(f"unknown signature implementation {impl!r}")
    return _IMPL_ALIASES[key]


@dataclass(frozen=True)
class Config:
    """Validated runtime settings.

    `l_k`, `l_r`, `l_u`, `l_v` are the key, PRF-output/counter, challenge and
    nonce lengths in bits.  `impl` selects the possession-signature scheme,
    `K` bounds a K-time signer, `s` sizes a pooled signer's pair pool, and
    `lifetime` caps how many sessions a single tag may run (defaulting to `K`
    for the K-time signer, since each session consumes one signature).
    `seed`, a string or a non-negative integer, seeds the system's `Rng`.
    """

    l_k: int = 256
    l_r: int = 256
    l_u: int = 256
    l_v: int = 256
    mode: str = "mapop"
    impl: str = IMPL_FULLTIME
    K: int = DEFAULT_K
    s: int = DEFAULT_LIFETIME
    lifetime: Optional[int] = None
    tags: int = 2
    seed: str = "rfpop"
    listen: str = "127.0.0.1:7410"
    timeout_ticks: int = 40

    def __post_init__(self):
        object.__setattr__(self, "impl", canonical_impl(self.impl))
        for name in ("l_k", "l_r", "l_u", "l_v"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0 or value % 8:
                raise ConfigError(f"{name} must be a positive multiple of 8, got {value!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if type(self.K) is not int or self.K < 0:
            raise ConfigError(f"K must be a non-negative integer, got {self.K!r}")
        if type(self.s) is not int or self.s < 1:
            raise ConfigError(f"s must be a positive integer, got {self.s!r}")
        if self.lifetime is not None and (type(self.lifetime) is not int or self.lifetime < 1):
            raise ConfigError(f"lifetime must be a positive integer, got {self.lifetime!r}")
        if type(self.tags) is not int or self.tags < 1:
            raise ConfigError(f"tags must be a positive integer, got {self.tags!r}")
        if type(self.timeout_ticks) is not int or self.timeout_ticks < 1:
            raise ConfigError(f"timeout_ticks must be a positive integer, got {self.timeout_ticks!r}")
        if not (isinstance(self.seed, str) or (type(self.seed) is int and self.seed >= 0)):
            raise ConfigError(f"seed must be a string or a non-negative integer, got {self.seed!r}")
        if self.mode == "mapop":
            if self.impl == IMPL_KTIME:
                if self.K == 0:
                    raise ConfigError("impl3 requires a positive signing budget K")
                if self.effective_lifetime > self.K:
                    raise ConfigError(
                        f"impl3 signing budget K={self.K} is below the tag lifetime "
                        f"{self.effective_lifetime}; every session consumes one signature"
                    )
            if self.impl == IMPL_POOLED and self.s < self.effective_lifetime:
                raise ConfigError(
                    f"impl2 pair pool s={self.s} is below the expected session count "
                    f"{self.effective_lifetime}"
                )
        port = str(self.listen).rpartition(":")[2]
        if not isinstance(self.listen, str) or not self.host or not port.isdecimal():
            raise ConfigError(f"listen must be host:port, got {self.listen!r}")
        check_port(int(port))

    @property
    def effective_lifetime(self) -> int:
        if self.lifetime is not None:
            return self.lifetime
        if self.mode == "mapop" and self.impl == IMPL_KTIME:
            return self.K
        return DEFAULT_LIFETIME

    @property
    def host(self) -> str:
        """The listen host; a bracketed IPv6 literal loses its brackets."""
        host = self.listen.rpartition(":")[0]
        return host[1:-1] if host.startswith("[") and host.endswith("]") else host

    @property
    def port(self) -> int:
        return int(self.listen.rpartition(":")[2])

    def ma_params(self) -> MaParams:
        return MaParams(
            key_bits=self.l_k,
            out_bits=self.l_r,
            challenge_bits=self.l_u,
            nonce_bits=self.l_v,
        )

    def pop_params(self) -> PopParams:
        return PopParams(
            **vars(self.ma_params()),
            sig_impl=self.impl,
            k_time=max(self.K, 1),
            pool_size=self.s,
        )

    def params(self):
        """The parameters this config's mode runs: `PopParams` (a `MaParams`
        with the signature instantiation added) for mapop, `MaParams` for ma and
        cex. Built once per config, so the descriptors and pads the params
        build on first use are built once too."""
        return self._params

    @cached_property
    def _params(self):
        return self.pop_params() if self.mode == "mapop" else self.ma_params()

    def build_system(self, rng: Optional[Rng] = None, tag_count: Optional[int] = None) -> System:
        """Instantiate reader, tags and key material for this config."""
        return SYSTEM_BUILDERS[self.mode](
            rng if rng is not None else Rng(self.seed),
            tag_count=tag_count if tag_count is not None else self.tags,
            params=self.params(),
            lifetime=self.effective_lifetime,
        )

    def to_dict(self) -> dict:
        doc = asdict(self)
        if doc["lifetime"] is None:
            del doc["lifetime"]
        return doc

    def with_overrides(self, **changes) -> "Config":
        return replace(self, **changes)


def config_from_dict(doc: dict) -> Config:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = set(Config.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return Config(**doc)


def load_config(path: Optional[str] = None) -> Config:
    """Read a config file; fall back to $RFPOP_CONFIG, then to defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path is None:
        return Config()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def save_config(config: Config, path: str):
    text = json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"
    files.write(path, text.encode("utf-8"))
