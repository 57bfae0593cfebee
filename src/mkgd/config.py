"""Run configuration: defaults, presets, key=value config files, env override.

Precedence, lowest to highest: class defaults (the full-corpus scale),
preset overrides, config file, the MKGD_SEED environment variable, and
explicit command-line flags.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .data import open_text
from .errors import DataError
from .meta import MetaConfig

SEED_ENV_VAR = "MKGD_SEED"


@dataclass
class RunConfig:
    # model dims (defaults are full-corpus scale)
    embed_dim: int = 300
    hidden_dim: int = 300
    max_vocab: int = 30000
    max_len: int = 20
    # meta-learning
    alpha: float = 1e-4
    beta: float = 1e-4
    num_tasks: int = 5
    k_support: int = 8
    k_query: int = 14
    inner_steps: int = 4
    test_update_steps: int = 10
    inner_optimizer: str = "adam"
    meta_optimizer: str = "adam"
    max_episodes: int = 100
    early_stop_patience: int = 10
    clip_norm: float = 5.0
    # loss-term weights
    w_kl: float = 1.0
    w_nll: float = 1.0
    w_bow: float = 1.0
    # run plumbing
    seed: int = 7

    def meta_config(self):
        return MetaConfig(
            alpha=self.alpha, beta=self.beta, num_tasks=self.num_tasks,
            k_support=self.k_support, k_query=self.k_query,
            inner_steps=self.inner_steps, test_update_steps=self.test_update_steps,
            inner_optimizer=self.inner_optimizer, meta_optimizer=self.meta_optimizer,
            max_episodes=self.max_episodes,
            early_stop_patience=self.early_stop_patience,
            clip_norm=self.clip_norm,
        )

    def loss_weights(self):
        return (self.w_kl, self.w_nll, self.w_bow)


PRESETS = {
    "paper": {},
    "desk": {
        "embed_dim": 32,
        "hidden_dim": 32,
        "max_vocab": 200,
        "alpha": 0.005,
        "beta": 0.005,
        "max_episodes": 40,
        "early_stop_patience": 8,
    },
}

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name, raw):
    field = _FIELDS[name]
    try:
        if field.type in ("int", int):
            return int(raw)
        if field.type in ("float", float):
            return float(raw)
    except ValueError as exc:
        raise DataError(f"config key {name!r}: cannot parse {raw!r}") from exc
    return str(raw)


def parse_config_file(path):
    """key=value lines; blank lines and # comments are skipped."""
    values = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path} line {lineno}: expected key=value")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key not in _FIELDS:
                raise DataError(f"{path} line {lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, raw.strip())
    return values


def make_run_config(preset="desk", config_path=None, overrides=None):
    """Layer config sources by precedence and return a validated RunConfig."""
    if preset not in PRESETS:
        raise DataError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    values = {}
    values.update(PRESETS[preset])
    if config_path:
        values.update(parse_config_file(config_path))
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        values["seed"] = _coerce("seed", env_seed)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _FIELDS:
            raise DataError(f"unknown config key {key!r}")
        values[key] = val
    return RunConfig(**values)
