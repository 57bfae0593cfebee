import dataclasses

import pytest

from mkgd.config import RunConfig, make_run_config, parse_config_file
from mkgd.errors import DataError


def test_paper_scale_defaults():
    cfg = RunConfig()
    assert cfg.embed_dim == 300
    assert cfg.hidden_dim == 300
    assert cfg.max_vocab == 30000
    assert cfg.alpha == 1e-4 and cfg.beta == 1e-4
    assert cfg.inner_steps == 4 and cfg.test_update_steps == 10
    assert cfg.num_tasks == 5


def test_desk_preset_overrides():
    cfg = make_run_config(preset="desk")
    assert cfg.embed_dim == 32
    assert cfg.hidden_dim == 32
    assert cfg.max_vocab == 200
    # untouched fields keep the paper-scale defaults
    assert cfg.k_support == 8 and cfg.k_query == 14


def test_paper_preset_is_defaults():
    assert make_run_config(preset="paper") == RunConfig()


def test_unknown_preset_rejected():
    with pytest.raises(DataError):
        make_run_config(preset="galaxy")


def test_config_file_overrides_preset(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nalpha=0.01\n\nhidden_dim = 16\nclip_norm=2.5\n")
    cfg = make_run_config(preset="desk", config_path=path)
    assert cfg.alpha == 0.01
    assert cfg.hidden_dim == 16
    assert cfg.clip_norm == 2.5
    assert cfg.embed_dim == 32  # preset survives where the file is silent


def test_config_file_errors(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("warp_speed=9\n")
    with pytest.raises(DataError):
        parse_config_file(bad_key)
    bad_val = tmp_path / "b.cfg"
    bad_val.write_text("alpha=fast\n")
    with pytest.raises(DataError):
        parse_config_file(bad_val)
    no_eq = tmp_path / "c.cfg"
    no_eq.write_text("alpha 0.1\n")
    with pytest.raises(DataError):
        parse_config_file(no_eq)
    removed_key = tmp_path / "d.cfg"
    removed_key.write_text("per_task_copies=true\n")
    with pytest.raises(DataError):
        parse_config_file(removed_key)


def test_seed_flag_overrides_config_file(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("seed=11\n")
    # The environment is no way in: a seed left there is not read.
    monkeypatch.setenv("MKGD_SEED", "99")
    cfg = make_run_config(preset="desk", config_path=path)
    assert cfg.seed == 11
    cfg = make_run_config(preset="desk", config_path=path, overrides={"seed": 3})
    assert cfg.seed == 3


def test_flag_overrides_skip_none():
    cfg = make_run_config(preset="desk", overrides={"alpha": None, "beta": 0.5})
    assert cfg.alpha == 0.005
    assert cfg.beta == 0.5


# One out-of-range value for each field RunConfig checks; a max_vocab of 4
# holds only the reserved tokens.
BAD_VALUES = {
    "alpha": 0.0, "beta": -1e-4, "num_tasks": 0, "k_support": 0, "k_query": -2,
    "inner_steps": -1, "test_update_steps": -1, "inner_optimizer": "rmsprop",
    "meta_optimizer": "Adam", "max_episodes": -1, "early_stop_patience": -3,
    "clip_norm": float("nan"), "embed_dim": 0, "hidden_dim": -1, "max_len": 0,
    "w_kl": float("nan"), "w_nll": float("inf"), "w_bow": float("-inf"), "seed": -1,
    "max_vocab": 4,
}


def test_bad_values_cover_every_checked_field():
    assert set(BAD_VALUES) == {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("name,value", BAD_VALUES.items(), ids=list(BAD_VALUES))
def test_out_of_range_value_raises_data_error_naming_field(name, value):
    with pytest.raises(DataError) as err:
        RunConfig(**{name: value})
    assert str(err.value).startswith(f"{name} must be ")
    assert str(err.value).endswith(f"got {value!r}")
