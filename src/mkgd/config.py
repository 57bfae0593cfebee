"""Run configuration: defaults, presets and key=value config files.

RunConfig is the one configuration class: the meta-learning hyperparameters
the training loops read, the model dims, the loss weights and the seed. Each
field carries its help text, and __post_init__ rejects a bad value with a
DataError naming the field and the value.

Precedence, lowest to highest: class defaults (the full-corpus scale),
preset overrides, config file and explicit command-line flags. FIELD_TYPES
parses the text of the last two, and the CLI builds its flags from the
RunConfig fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .data import RESERVED_TOKENS, open_text
from .errors import DataError

OPTIMIZERS = ("sgd", "adam")


def config_field(default, text):
    """A configuration field and its one-line description, which the CLI's help shows."""
    return field(default=default, metadata={"help": text})


@dataclass
class RunConfig:
    """Every run hyperparameter: the meta-learning rates, shots, step counts
    and optimizers, then the model dims, loss weights and seed."""

    # meta-learning (defaults are the paper's)
    alpha: float = config_field(1e-4, "inner (task-level) learning rate")
    beta: float = config_field(1e-4, "meta learning rate")
    num_tasks: int = config_field(5, "tasks per episode")
    k_support: int = config_field(8, "support samples per task")
    k_query: int = config_field(14, "query samples per task")
    inner_steps: int = config_field(4, "inner update steps")
    test_update_steps: int = config_field(10, "adaptation steps at test time")
    inner_optimizer: str = config_field("adam", f"inner-loop optimizer: {' or '.join(OPTIMIZERS)}")
    meta_optimizer: str = config_field("adam", f"outer-loop optimizer: {' or '.join(OPTIMIZERS)}")
    max_episodes: int = config_field(100, "training episode cap")
    early_stop_patience: int = config_field(10, "early-stop patience in episodes")
    clip_norm: float = config_field(5.0, "global gradient-norm clip, <= 0 disables")
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
    seed: int = config_field(7, "run seed")

    def __post_init__(self):
        # Finiteness comes first: NaN passes every range check after it.
        for names, ok, rule in (
            (("alpha", "beta", "clip_norm", "w_kl", "w_nll", "w_bow"), math.isfinite, "finite"),
            (("alpha", "beta"), lambda v: v > 0, "> 0"),
            (("num_tasks", "k_support", "k_query", "embed_dim", "hidden_dim", "max_len"),
             lambda v: v >= 1, ">= 1"),
            # room for the reserved tokens and at least one word
            (("max_vocab",), lambda v: v > len(RESERVED_TOKENS), f">= {len(RESERVED_TOKENS) + 1}"),
            (("inner_steps", "test_update_steps", "max_episodes", "early_stop_patience", "seed"),
             lambda v: v >= 0, ">= 0"),
            (("inner_optimizer", "meta_optimizer"), OPTIMIZERS.__contains__,
             " or ".join(map(repr, OPTIMIZERS))),
        ):
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    raise DataError(f"{name} must be {rule}, got {value!r}")

    def meta_config(self):
        """The configuration the training loops read: this RunConfig itself."""
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

# Each field's text-to-value parser, by its declared type. Config-file lines
# and the CLI's flags both read text through this one table.
FIELD_TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type]
               for f in fields(RunConfig)}


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
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in FIELD_TYPES:
                raise DataError(f"{path} line {lineno}: unknown config key {key!r}")
            try:
                values[key] = FIELD_TYPES[key](raw)
            except ValueError as exc:
                raise DataError(f"{path} line {lineno}: config key {key!r}: "
                                f"cannot parse {raw!r}") from exc
    return values


def make_run_config(preset="desk", config_path=None, overrides=None):
    """Layer config sources by precedence and return a validated RunConfig."""
    if preset not in PRESETS:
        raise DataError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    values = {}
    values.update(PRESETS[preset])
    if config_path:
        values.update(parse_config_file(config_path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in FIELD_TYPES:
            raise DataError(f"unknown config key {key!r}")
        values[key] = val
    return RunConfig(**values)
