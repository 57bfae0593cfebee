"""Run configuration: defaults, presets, key=value config files, env override.

Precedence, lowest to highest: class defaults (the full-corpus scale),
preset overrides, config file, the MKGD_SEED environment variable, and
explicit command-line flags. FIELD_TYPES parses the text of the last three,
and the CLI builds its flags from the RunConfig fields.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from .data import open_text
from .errors import DataError
from .meta import MetaConfig, config_field

SEED_ENV_VAR = "MKGD_SEED"


@dataclass
class RunConfig(MetaConfig):
    """MetaConfig's hyperparameters plus the model, loss-weight and seed fields."""

    # model dims (defaults are full-corpus scale)
    embed_dim: int = config_field(300, "embedding size")
    hidden_dim: int = config_field(300, "hidden size")
    max_vocab: int = config_field(30000, "vocabulary cap")
    max_len: int = config_field(20, "maximum generated length")
    # loss-term weights
    w_kl: float = config_field(1.0, "selection-KL loss weight")
    w_nll: float = config_field(1.0, "token-NLL loss weight")
    w_bow: float = config_field(1.0, "bag-of-words loss weight")
    # run plumbing
    seed: int = config_field(7, f"run seed; {SEED_ENV_VAR} also accepted")

    def __post_init__(self):
        for name in ("embed_dim", "hidden_dim", "max_len"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        super().__post_init__()
        for name in ("w_kl", "w_nll", "w_bow"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")

    def meta_config(self):
        """A RunConfig is its own MetaConfig; kept for callers that still ask."""
        return self

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

# Each field's text-to-value parser, by its declared type. Config-file lines,
# MKGD_SEED and the CLI's flags all read text through this one table.
FIELD_TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type]
               for f in dataclasses.fields(RunConfig)}


def _coerce(name, raw):
    try:
        return FIELD_TYPES[name](raw)
    except ValueError as exc:
        raise DataError(f"config key {name!r}: cannot parse {raw!r}") from exc


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
            if key not in FIELD_TYPES:
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
        if key not in FIELD_TYPES:
            raise DataError(f"unknown config key {key!r}")
        values[key] = val
    return RunConfig(**values)
