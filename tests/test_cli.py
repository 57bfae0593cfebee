import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import add_param
from mkgd import cli
from mkgd.config import FIELD_TYPES, PRESETS, RunConfig, make_run_config
from mkgd.data import (
    RawTask,
    Vocab,
    build_vocab,
    load_task_pool,
    raw_task_to_samples,
    raw_task_token_stream,
    save_task_pool,
    split_pool,
)
from mkgd.meta import supervised_train
from mkgd.model import DialogueModel
from mkgd.optim import ADAM_BLOCK
from mkgd.params import ParamStore, load_checkpoint, save_checkpoint, split_checkpoint


def run_cli(*argv):
    return cli.main(list(argv))


def make_pool(path, tasks=8, samples=10, seed=7):
    code = run_cli("synth", "--tasks", str(tasks), "--seed", str(seed),
                   "--samples-per-task", str(samples), "--out", str(path))
    assert code == 0
    return path


MINI_TRAIN_FLAGS = [
    "--embed-dim", "8", "--hidden-dim", "8", "--num-tasks", "2",
    "--k-support", "3", "--k-query", "3", "--inner-steps", "1",
    "--max-episodes", "2", "--alpha", "0.01", "--beta", "0.01",
]


# ---------------------------------------------------------------------------
# synth


def test_synth_is_deterministic(tmp_path):
    a = make_pool(tmp_path / "a.jsonl")
    b = make_pool(tmp_path / "b.jsonl")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.jsonl.manifest.json").read_text() == \
        (tmp_path / "b.jsonl.manifest.json").read_text()


def test_synth_zero_tasks(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert run_cli("synth", "--tasks", "0", "--out", str(path)) == 0
    assert path.read_text() == ""
    manifest = json.loads((tmp_path / "empty.jsonl.manifest.json").read_text())
    assert manifest["tasks"] == 0


def test_synth_manifest_matches_line_count(tmp_path):
    path = make_pool(tmp_path / "pool.jsonl", tasks=6, samples=9)
    manifest = json.loads((tmp_path / "pool.jsonl.manifest.json").read_text())
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    assert manifest["tasks"] == len(lines)
    # independent recount of triplets and samples from the pool itself
    triplets = sum(len(json.loads(ln)["knowledge"]) for ln in lines)
    samples = sum(len(json.loads(ln)["samples"]) for ln in lines)
    assert manifest["triplets"] == triplets
    assert manifest["samples"] == samples


def test_synth_unwritable_path_exits_2(tmp_path):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    code = run_cli("synth", "--tasks", "1", "--out", str(blocker / "pool.jsonl"))
    assert code == 2


# ---------------------------------------------------------------------------
# meta-train


@pytest.mark.parametrize("command", ["meta-train", "train-baseline"])
def test_meta_train_writes_artifacts_and_reruns_identically(tmp_path, command):
    pool = make_pool(tmp_path / "pool.jsonl")

    def train(tag):
        code = run_cli(command, "--pool", str(pool),
                       "--checkpoint-out", str(tmp_path / f"{tag}.ckpt"),
                       "--vocab-out", str(tmp_path / f"{tag}.vocab"),
                       "--log-out", str(tmp_path / f"{tag}.log"),
                       *MINI_TRAIN_FLAGS)
        assert code == 0

    train("one")
    train("two")
    for ext in ("log", "ckpt", "vocab"):
        assert (tmp_path / f"one.{ext}").read_bytes() == (tmp_path / f"two.{ext}").read_bytes()
    log = (tmp_path / "one.log").read_text().splitlines()
    assert log[0] == "episode,split,task_id,kl,nll,bow,total,sel_acc"
    assert len(log) > 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_meta_train_output_does_not_depend_on_the_cpus_it_may_use(tmp_path):
    # At these dims Adam splits the large parameters across two threads,
    # which run on two CPUs in one run and share one CPU in the other.
    # OpenBLAS sizes its own thread pool by the CPUs too, and its matmul
    # sums depend on that, so both runs pin it to one thread.
    pool = make_pool(tmp_path / "pool.jsonl")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    one_cpu = {min(os.sched_getaffinity(0))}
    flags = MINI_TRAIN_FLAGS + ["--max-vocab", "200", "--embed-dim", "200",
                                "--hidden-dim", "200"]

    def train(tag, preexec_fn=None):
        proc = subprocess.run(
            [sys.executable, "-m", "mkgd", "meta-train", "--pool", str(pool),
             "--checkpoint-out", str(tmp_path / f"{tag}.ckpt"),
             "--vocab-out", str(tmp_path / f"{tag}.vocab"),
             "--log-out", str(tmp_path / f"{tag}.log"), *flags],
            capture_output=True, text=True, env=env, preexec_fn=preexec_fn, timeout=600,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout.replace(str(tmp_path / tag), "")

    assert train("any") == train("one", lambda: os.sched_setaffinity(0, one_cpu))
    for ext in ("log", "ckpt", "vocab"):
        assert (tmp_path / f"any.{ext}").read_bytes() == (tmp_path / f"one.{ext}").read_bytes()
    store = load_checkpoint(str(tmp_path / "any.ckpt"))
    assert max(t.size for _, t in store.items()) > ADAM_BLOCK


def test_meta_train_zero_episodes_checkpoint_is_initialization(tmp_path):
    pool = make_pool(tmp_path / "pool.jsonl")
    code = run_cli("meta-train", "--pool", str(pool),
                   "--checkpoint-out", str(tmp_path / "init.ckpt"),
                   "--vocab-out", str(tmp_path / "init.vocab"),
                   "--log-out", str(tmp_path / "init.log"),
                   "--embed-dim", "8", "--hidden-dim", "8",
                   "--num-tasks", "2", "--k-support", "3", "--k-query", "3",
                   "--max-episodes", "0")
    assert code == 0
    params, adam = split_checkpoint(load_checkpoint(tmp_path / "init.ckpt"))
    raw = load_task_pool(pool)
    vocab = build_vocab(raw_task_token_stream(raw), 200)
    fresh = DialogueModel(vocab, 8, 8, seed=7)
    assert set(params) == set(fresh.store.names())
    for name, vals in params.items():
        assert np.array_equal(vals, fresh.store[name].values)
    assert adam == {}  # no optimizer state is written


def assert_no_outputs(tmp_path, tag):
    for ext in ("ckpt", "vocab", "log"):
        assert not (tmp_path / f"{tag}.{ext}").exists(), ext


def test_meta_train_insufficient_tasks_exits_2(tmp_path):
    pool = make_pool(tmp_path / "small.jsonl", tasks=2)
    code = run_cli("meta-train", "--pool", str(pool),
                   "--checkpoint-out", str(tmp_path / "x.ckpt"),
                   "--vocab-out", str(tmp_path / "x.vocab"),
                   "--log-out", str(tmp_path / "x.log"),
                   "--num-tasks", "5")
    assert code == 2
    assert_no_outputs(tmp_path, "x")


def test_meta_train_short_tasks_exit_2_and_write_nothing(tmp_path, capsys):
    # ten samples a task cannot split into the desk preset's 8 + 14
    pool = make_pool(tmp_path / "short.jsonl", tasks=10, samples=10)
    capsys.readouterr()
    code = run_cli("meta-train", "--pool", str(pool),
                   "--checkpoint-out", str(tmp_path / "x.ckpt"),
                   "--vocab-out", str(tmp_path / "x.vocab"),
                   "--log-out", str(tmp_path / "x.log"))
    assert code == 2
    assert capsys.readouterr().err == "error: need 22 samples to split 8+14, got 10 (short by 12)\n"
    assert_no_outputs(tmp_path, "x")


@pytest.mark.parametrize("command,tasks,message", [
    # Three samples a side, so only the task-count rule can refuse the split.
    ("meta-train", 4, "error: training split has 3 tasks, need >= num_tasks 5\n"),
    ("train-baseline", 0, "error: training split has no samples\n"),
])
def test_trainer_rejects_training_split_and_writes_nothing(tmp_path, capsys, command, tasks,
                                                           message):
    pool = make_pool(tmp_path / "pool.jsonl", tasks=tasks)
    capsys.readouterr()
    code = run_cli(command, "--pool", str(pool),
                   "--checkpoint-out", str(tmp_path / "x.ckpt"),
                   "--vocab-out", str(tmp_path / "x.vocab"),
                   "--log-out", str(tmp_path / "x.log"),
                   "--k-support", "3", "--k-query", "3", "--num-tasks", "5")
    assert code == 2
    assert capsys.readouterr().err == message
    assert_no_outputs(tmp_path, "x")


@pytest.mark.parametrize("flag", ["--checkpoint-out", "--vocab-out", "--log-out"])
def test_train_unwritable_output_exits_2_before_training(tmp_path, capsys, flag):
    pool = make_pool(tmp_path / "pool.jsonl")
    outputs = {"--checkpoint-out": tmp_path / "x.ckpt", "--vocab-out": tmp_path / "x.vocab",
               "--log-out": tmp_path / "x.log"}
    bad = tmp_path / "nodir" / "m.ckpt"
    outputs[flag] = bad
    argv = [a for pair in outputs.items() for a in (pair[0], str(pair[1]))]
    for command in ("meta-train", "train-baseline"):
        capsys.readouterr()
        assert run_cli(command, "--pool", str(pool), *argv, *MINI_TRAIN_FLAGS) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err
        assert_no_outputs(tmp_path, "x")
    # a directory is no output file either
    outputs[flag] = tmp_path
    argv = [a for pair in outputs.items() for a in (pair[0], str(pair[1]))]
    assert run_cli("meta-train", "--pool", str(pool), *argv, *MINI_TRAIN_FLAGS) == 2
    assert str(tmp_path) in capsys.readouterr().err
    assert_no_outputs(tmp_path, "x")


@pytest.mark.parametrize("pair", [("--checkpoint-out", "--log-out"),
                                  ("--vocab-out", "--checkpoint-out"),
                                  ("--vocab-out", "--log-out")])
def test_train_outputs_naming_one_file_exit_2_before_reading_input(tmp_path, capsys, pair):
    outputs = {"--checkpoint-out": "x.ckpt", "--vocab-out": "x.vocab", "--log-out": "x.log"}
    outputs = {flag: os.path.join(tmp_path, name) for flag, name in outputs.items()}
    # A second spelling of the first output's path, equal after realpath.
    outputs[pair[1]] = os.path.join(tmp_path, ".", os.path.basename(outputs[pair[0]]))
    argv = [a for flag_path in outputs.items() for a in flag_path]
    for command in ("meta-train", "train-baseline"):
        # The pool does not exist, so only a check made before reading it can answer.
        assert run_cli(command, "--pool", str(tmp_path / "missing.jsonl"), *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert pair[0] in err and pair[1] in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,given,out", [
    ("train-baseline", "--pool", "--checkpoint-out"),
    ("train-baseline", "--config", "--vocab-out"),
    ("meta-train", "--pool", "--vocab-out"),
    ("meta-train", "--config", "--log-out"),
    ("adapt-eval", "--pool", "--report-out"),
    ("adapt-eval", "--checkpoint", "--report-out"),
    ("adapt-eval", "--vocab", "--report-out"),
    ("adapt-eval", "--config", "--report-out"),
])
def test_output_naming_an_input_exits_2_before_any_work(tmp_path, capsys, command, given, out):
    pool = make_pool(tmp_path / "pool.jsonl")
    config = tmp_path / "run.cfg"
    config.write_text("max_len=12\n")
    assert run_cli("meta-train", "--pool", str(pool), "--checkpoint-out", str(tmp_path / "m.ckpt"),
                   "--vocab-out", str(tmp_path / "m.vocab"), "--log-out", str(tmp_path / "m.log"),
                   *MINI_TRAIN_FLAGS, "--max-episodes", "0") == 0
    inputs = {"--pool": pool, "--config": config,
              "--checkpoint": tmp_path / "m.ckpt", "--vocab": tmp_path / "m.vocab"}
    if command == "adapt-eval":
        outputs = {"--report-out": tmp_path / "x.json"}
    else:
        inputs = {flag: inputs[flag] for flag in ("--pool", "--config")}
        outputs = {"--checkpoint-out": tmp_path / "x.ckpt", "--vocab-out": tmp_path / "x.vocab",
                   "--log-out": tmp_path / "x.log"}
    # A second spelling of the input's path, equal after realpath.
    outputs[out] = os.path.join(tmp_path, ".", inputs[given].name)
    argv = [str(a) for flag_path in (*inputs.items(), *outputs.items()) for a in flag_path]
    before, listing = inputs[given].read_bytes(), sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run_cli(command, *argv, *MINI_TRAIN_FLAGS) == 2
    err = capsys.readouterr().err
    assert err == f"error: {given} and {out} name the same file {outputs[out]}\n"
    assert inputs[given].read_bytes() == before
    assert sorted(tmp_path.iterdir()) == listing


def test_meta_train_divergence_exits_3_and_keeps_checkpoint(tmp_path, capsys):
    pool = make_pool(tmp_path / "pool.jsonl")
    code = run_cli("meta-train", "--pool", str(pool),
                   "--checkpoint-out", str(tmp_path / "div.ckpt"),
                   "--vocab-out", str(tmp_path / "div.vocab"),
                   "--log-out", str(tmp_path / "div.log"),
                   "--embed-dim", "8", "--hidden-dim", "8",
                   "--num-tasks", "2", "--k-support", "3", "--k-query", "3",
                   "--inner-steps", "1", "--max-episodes", "3",
                   "--inner-optimizer", "sgd", "--alpha", "1e200",
                   "--clip-norm", "0")
    assert code == 3
    assert capsys.readouterr().err == "training diverged; best checkpoint retained\n"
    assert (tmp_path / "div.ckpt").exists()
    arrays = load_checkpoint(tmp_path / "div.ckpt")
    assert all(np.isfinite(v).all() for v in arrays.values())


def test_meta_train_validation_overflow_exits_3_and_keeps_initialization(tmp_path, capsys):
    # The first episode trains, then its validation loss overflows, so the
    # kept parameters are the initial ones.
    pool = make_pool(tmp_path / "pool.jsonl", tasks=20, samples=24, seed=5)
    capsys.readouterr()
    code = run_cli("meta-train", "--pool", str(pool),
                   "--checkpoint-out", str(tmp_path / "div.ckpt"),
                   "--vocab-out", str(tmp_path / "div.vocab"),
                   "--log-out", str(tmp_path / "div.log"),
                   "--num-tasks", "2", "--k-support", "3", "--k-query", "3",
                   "--inner-steps", "1", "--max-episodes", "3", "--beta", "1e200")
    assert code == 3
    assert capsys.readouterr().err == "training diverged; best checkpoint retained\n"
    assert (tmp_path / "div.log").exists()
    cfg = make_run_config("desk")
    model = cli._load_model(tmp_path / "div.ckpt", tmp_path / "div.vocab", cfg.loss_weights())
    fresh = DialogueModel(model.vocab, cfg.embed_dim, cfg.hidden_dim, seed=cfg.seed)
    for name, t in model.store.items():
        assert np.array_equal(t.values, fresh.store[name].values), name


# ---------------------------------------------------------------------------
# train-baseline


def test_train_baseline_divergence_exits_3_and_keeps_checkpoint(tmp_path, capsys):
    # Six samples a step, so the first epoch diverges at its second step and
    # the kept parameters are the initial ones.
    pool = make_pool(tmp_path / "pool.jsonl")
    code = run_cli("train-baseline", "--pool", str(pool),
                   "--checkpoint-out", str(tmp_path / "div.ckpt"),
                   "--vocab-out", str(tmp_path / "div.vocab"),
                   "--log-out", str(tmp_path / "div.log"),
                   "--embed-dim", "8", "--hidden-dim", "8", "--seed", "3",
                   "--num-tasks", "1", "--k-support", "3", "--k-query", "3",
                   "--max-episodes", "2", "--beta", "1e200")
    assert code == 3
    assert capsys.readouterr().err == "training diverged; best checkpoint retained\n"
    log = (tmp_path / "div.log").read_text().splitlines()
    assert log[0] == "episode,split,task_id,kl,nll,bow,total,sel_acc"
    assert [row.split(",")[:3] for row in log[1:]] == [["1", "train", "0"]]
    model = cli._load_model(tmp_path / "div.ckpt", tmp_path / "div.vocab",
                            RunConfig().loss_weights())
    fresh = DialogueModel(model.vocab, 8, 8, seed=3)
    for name, t in model.store.items():
        assert np.array_equal(t.values, fresh.store[name].values), name


def test_train_baseline_runs(tmp_path):
    pool = make_pool(tmp_path / "pool.jsonl", tasks=4)
    code = run_cli("train-baseline", "--pool", str(pool),
                   "--checkpoint-out", str(tmp_path / "base.ckpt"),
                   "--vocab-out", str(tmp_path / "base.vocab"),
                   "--log-out", str(tmp_path / "base.log"),
                   "--embed-dim", "8", "--hidden-dim", "8",
                   "--max-episodes", "1")
    assert code == 0
    assert (tmp_path / "base.ckpt").exists()
    # Ten samples a task cannot split into the desk preset's 8 + 14, so the
    # run trains without validation and keeps the last epoch.
    assert ",val," not in (tmp_path / "base.log").read_text()


def test_train_baseline_keeps_the_epoch_with_the_best_validation_loss(tmp_path):
    pool = make_pool(tmp_path / "pool.jsonl")

    def train(tag, epochs):
        code = run_cli("train-baseline", "--pool", str(pool),
                       "--checkpoint-out", str(tmp_path / f"{tag}.ckpt"),
                       "--vocab-out", str(tmp_path / f"{tag}.vocab"),
                       "--log-out", str(tmp_path / f"{tag}.log"),
                       *MINI_TRAIN_FLAGS, "--max-episodes", str(epochs), "--patience", "0")
        assert code == 0
        return (tmp_path / f"{tag}.log").read_text().splitlines()[1:]

    val = {}
    for row in train("full", 6):
        episode, split, _, _, _, _, total, _ = row.split(",")
        if split == "val":
            val.setdefault(int(episode), []).append(float(total))
    assert sorted(val) == [1, 2, 3, 4, 5, 6]
    best = min(val, key=lambda e: sum(val[e]) / len(val[e]))
    assert best < 6  # the kept parameters are not simply the last epoch's
    # Training is deterministic, so a run that stops at the best epoch ends
    # holding the parameters the full run kept.
    train("best", best)
    assert (tmp_path / "full.ckpt").read_bytes() == (tmp_path / "best.ckpt").read_bytes()


@pytest.mark.parametrize("valid_samples", [None, 5])
def test_trainers_validate_by_one_rule(tmp_path, valid_samples):
    # Ten samples a task split 3 + 3; five do not, so that pool trains both
    # ways without validation, though its training tasks split.
    pool = make_pool(tmp_path / "pool.jsonl")
    if valid_samples:
        raw = load_task_pool(pool)
        _, valid, _ = split_pool(raw, seed=make_run_config("desk").seed)
        for raw_task in valid:
            raw_task.samples = raw_task.samples[:valid_samples]
        save_task_pool(pool, raw)
    val = {}
    for command in ("meta-train", "train-baseline"):
        code = run_cli(command, "--pool", str(pool),
                       "--checkpoint-out", str(tmp_path / f"{command}.ckpt"),
                       "--vocab-out", str(tmp_path / f"{command}.vocab"),
                       "--log-out", str(tmp_path / f"{command}.log"), *MINI_TRAIN_FLAGS)
        assert code == 0
        rows = [row.split(",") for row in
                (tmp_path / f"{command}.log").read_text().splitlines()[1:]]
        val[command] = [(row[0], row[2]) for row in rows if row[1] == "val"]
    assert val["meta-train"] == val["train-baseline"]
    # episodes 1 and 2 each validate on the one validation task, or on none
    assert len(val["meta-train"]) == (0 if valid_samples else 2)


# ---------------------------------------------------------------------------
# adapt-eval


def memorizable_pool_and_model(tmp_path, response="the end"):
    """One task whose samples all share a single short response, plus a
    checkpoint trained to reproduce it exactly."""
    samples = [{"history": f"hey turn {i}", "response": response, "gold": 0}
               for i in range(24)]
    raw = [RawTask(task_id=0, goal=["[start]", "e0", "e1"],
                   knowledge=[["e0", "r0", "e1"]], samples=samples)]
    pool = tmp_path / "memo.jsonl"
    save_task_pool(pool, raw)
    vocab = build_vocab(raw_task_token_stream(raw), 200)
    model = DialogueModel(vocab, 8, 8, seed=1)
    train_samples = raw_task_to_samples(raw[0], vocab)
    cfg = RunConfig(alpha=0.02, beta=0.02, max_episodes=80)
    supervised_train(model, train_samples[:4], cfg)
    ckpt = tmp_path / "memo.ckpt"
    vocab_path = tmp_path / "memo.vocab"
    save_checkpoint(ckpt, model.store)
    vocab.save(vocab_path)
    return pool, ckpt, vocab_path, model


def test_adapt_eval_reports_eight_keys_and_perfect_bleu(tmp_path):
    pool, ckpt, vocab_path, model = memorizable_pool_and_model(tmp_path)
    # sanity: the rigged checkpoint reproduces the response exactly
    vocab = Vocab.load(vocab_path)
    sample = raw_task_to_samples(load_task_pool(pool)[0], vocab)[0]
    out, _ = model.generate(sample.history, sample.graph, 8)
    assert vocab.decode(out) == ["the", "end"]

    report_path = tmp_path / "report.json"
    code = run_cli("adapt-eval", "--pool", str(pool),
                   "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                   "--report-out", str(report_path), "--split", "all",
                   "--embed-dim", "8", "--hidden-dim", "8",
                   "--alpha", "0.005")
    assert code == 0
    payload = json.loads(report_path.read_text())
    keys = {"ppl", "f1", "bleu1", "bleu2", "distinct1", "distinct2",
            "sel_acc", "n_samples"}
    assert set(payload["pre"]) == keys
    assert set(payload["post"]) == keys
    assert payload["post"]["bleu1"] == 1.0
    assert payload["post"]["ppl"] >= 1.0


def test_adapt_eval_checkpoint_vocab_mismatch_exits_2(tmp_path):
    pool, ckpt, vocab_path, _ = memorizable_pool_and_model(tmp_path)
    other_vocab = Vocab(["completely", "different", "tokens"])
    bad_vocab = tmp_path / "bad.vocab"
    other_vocab.save(bad_vocab)
    code = run_cli("adapt-eval", "--pool", str(pool),
                   "--checkpoint", str(ckpt), "--vocab", str(bad_vocab),
                   "--split", "all")
    assert code == 2


def test_adapt_eval_missing_checkpoint_exits_2(tmp_path):
    pool = make_pool(tmp_path / "pool.jsonl", tasks=2)
    code = run_cli("adapt-eval", "--pool", str(pool),
                   "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--vocab", str(tmp_path / "nope.vocab"))
    assert code == 2


def test_adapt_eval_unwritable_report_exits_2_before_adapting(tmp_path, capsys, monkeypatch):
    pool, ckpt, vocab_path, _ = memorizable_pool_and_model(tmp_path)

    def no_adapt(*args, **kwargs):
        raise AssertionError("adapt ran before the report path was checked")

    monkeypatch.setattr(cli, "adapt", no_adapt)
    bad = tmp_path / "nodir" / "report.json"
    code = run_cli("adapt-eval", "--pool", str(pool),
                   "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                   "--report-out", str(bad), "--split", "all",
                   "--embed-dim", "8", "--hidden-dim", "8")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0], err


# ---------------------------------------------------------------------------
# chat


def rigged_chat_model(tmp_path):
    vocab = build_vocab(["hello", "there", "e0", "e1", "r0"], 50)
    model = DialogueModel(vocab, 4, 4, seed=0)
    for name in model.store.names():
        model.store.set_values(name, np.zeros_like(model.store[name].values))
    bias = np.zeros(len(vocab))
    bias[vocab.EOS] = 50.0
    model.store.set_values("model.out.b", bias)
    ckpt = tmp_path / "chat.ckpt"
    vpath = tmp_path / "chat.vocab"
    save_checkpoint(ckpt, model.store)
    vocab.save(vpath)
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "goal": ["[start]", "e0", "e1"],
        "knowledge": [["e0", "r0", "e1"], ["e0", "r0", "e0"]],
    }))
    return ckpt, vpath, graph


def test_chat_scripted_session(tmp_path, capsys):
    ckpt, vpath, graph = rigged_chat_model(tmp_path)
    script = tmp_path / "script.txt"
    script.write_text("hello\n\nthere\nhello there\n")
    code = run_cli("chat", "--checkpoint", str(ckpt), "--vocab", str(vpath),
                   "--graph", str(graph), "--script", str(script),
                   "--max-len", "5")
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    bot_lines = [ln for ln in out if ln.startswith("bot:")]
    triplet_lines = [ln for ln in out if ln.startswith("triplet:")]
    # 3 non-empty turns produce 3 responses; the empty line re-prompts
    assert len(bot_lines) == 3
    assert len(triplet_lines) == 3
    # hand-predicted transcript for the EOS-favoring rig: empty responses,
    # uniform prior -> first triplet selected
    assert all(ln == "bot: " for ln in bot_lines)
    assert all(ln == "triplet: e0 r0 e1" for ln in triplet_lines)
    assert any(ln.startswith("you>") for ln in out)


def test_chat_missing_graph_exits_2(tmp_path):
    ckpt, vpath, _ = rigged_chat_model(tmp_path)
    code = run_cli("chat", "--checkpoint", str(ckpt), "--vocab", str(vpath),
                   "--graph", str(tmp_path / "missing.json"))
    assert code == 2


def test_checkpoint_with_adam_entries_still_loads(tmp_path, capsys):
    # Checkpoints from older meta-train runs carry '/adam/' optimizer state.
    ckpt, vpath, graph = rigged_chat_model(tmp_path)
    store = ParamStore(0)
    for name, vals in load_checkpoint(ckpt).items():
        add_param(store, name, vals)
    add_param(store, "/adam/t", [3.0])
    add_param(store, "/adam/m/model.out.b", np.zeros_like(store["model.out.b"].values))
    save_checkpoint(ckpt, store)
    script = tmp_path / "script.txt"
    script.write_text("hello\n")
    code = run_cli("chat", "--checkpoint", str(ckpt), "--vocab", str(vpath),
                   "--graph", str(graph), "--script", str(script))
    assert code == 0
    assert "triplet: e0 r0 e1" in capsys.readouterr().out.splitlines()


GOAL = ["[start]", "e0", "e1"]


def replace_checkpoint_entry(ckpt, name, values):
    """Rewrite a checkpoint with one entry's values swapped, bypassing set_values."""
    store = ParamStore(0)
    for key, vals in load_checkpoint(ckpt).items():
        add_param(store, key, vals)
    store[name].values = np.array(values, dtype=np.float64)
    save_checkpoint(ckpt, store)


@pytest.mark.parametrize("case", ["truncated-checkpoint", "graph-without-goal",
                                  "two-field-triplet", "sample-without-response",
                                  "rank-0-projection", "nan-checkpoint",
                                  "negative-embed-dim-flag", "zero-hidden-dim-flag",
                                  "negative-embed-dim-config", "zero-support-size",
                                  "nan-alpha-flag", "inf-beta-flag", "nan-w-kl-flag",
                                  "nan-clip-norm-flag", "nan-alpha-config",
                                  "negative-seed-flag", "negative-seed-config",
                                  "negative-seed-env", "synth-zero-entities",
                                  "synth-zero-triplets", "synth-negative-samples",
                                  "synth-negative-seed", "synth-negative-tasks",
                                  "zero-max-len-flag", "negative-max-len-chat",
                                  "negative-task-id"])
def test_malformed_input_exits_2_with_one_line_error(tmp_path, capsys, monkeypatch, case):
    ckpt, vpath, graph = rigged_chat_model(tmp_path)
    argv = ["chat", "--checkpoint", str(ckpt), "--vocab", str(vpath), "--graph", str(graph)]
    # Big enough for meta-train to build its model and for adapt-eval to run.
    pool = make_pool(tmp_path / "pool.jsonl")
    adapt_eval = ["adapt-eval", "--pool", str(pool), "--checkpoint", str(ckpt),
                  "--vocab", str(vpath), "--k-support", "3", "--k-query", "3"]
    meta_train = ["meta-train", "--pool", str(pool),
                  "--checkpoint-out", str(tmp_path / "out.ckpt"),
                  "--vocab-out", str(tmp_path / "out.vocab"),
                  "--log-out", str(tmp_path / "out.csv")]
    if case == "truncated-checkpoint":
        ckpt.write_bytes(ckpt.read_bytes()[:1000])
    elif case == "graph-without-goal":
        graph.write_text(json.dumps({"knowledge": [["e0", "r0", "e1"]]}))
    elif case == "two-field-triplet":
        graph.write_text(json.dumps({"goal": GOAL, "knowledge": [["e0", "r0"]]}))
    elif case == "sample-without-response":
        pool.write_text(json.dumps({
            "task_id": 0, "goal": GOAL, "knowledge": [["e0", "r0", "e1"]],
            "samples": [{"history": "hello", "gold": 0}],
        }) + "\n")
        argv = adapt_eval
    elif case == "negative-task-id":
        records = [json.loads(line) for line in pool.read_text().splitlines()]
        pool.write_text("".join(json.dumps({**r, "task_id": -100 - i}) + "\n"
                                for i, r in enumerate(records)))
        argv = adapt_eval + ["--split", "all"]
    elif case == "rank-0-projection":
        replace_checkpoint_entry(ckpt, "model.enc.proj.W", 0.5)
    elif case == "nan-checkpoint":
        replace_checkpoint_entry(ckpt, "model.out.b", np.full(len(Vocab.load(vpath)), np.nan))
    elif case == "negative-embed-dim-flag":
        argv = meta_train + MINI_TRAIN_FLAGS + ["--embed-dim", "-1"]
    elif case == "zero-hidden-dim-flag":
        argv = meta_train + MINI_TRAIN_FLAGS + ["--hidden-dim", "0"]
    elif case == "negative-embed-dim-config":
        config = tmp_path / "run.cfg"
        config.write_text("embed_dim=-2\n")
        argv = meta_train + ["--config", str(config)]
    elif case == "zero-support-size":
        argv = adapt_eval + ["--support-size", "0"]
    elif case == "nan-alpha-config":
        config = tmp_path / "run.cfg"
        config.write_text("alpha=nan\n")
        at = MINI_TRAIN_FLAGS.index("--alpha")  # a flag would override the file
        argv = (meta_train + MINI_TRAIN_FLAGS[:at] + MINI_TRAIN_FLAGS[at + 2:]
                + ["--config", str(config)])
    elif case == "negative-seed-config":
        config = tmp_path / "run.cfg"
        config.write_text("seed=-1\n")
        argv = meta_train + ["--config", str(config)]
    elif case == "negative-seed-env":
        monkeypatch.setenv("MKGD_SEED", "-2")
        argv = meta_train + MINI_TRAIN_FLAGS
    elif case == "negative-max-len-chat":
        script = tmp_path / "script.txt"
        script.write_text("")  # no turn reaches generate
        argv += ["--script", str(script), "--max-len", "-3"]
    elif case.startswith("synth-"):
        flag, value = {"synth-zero-entities": ("--entities", "0"),
                       "synth-zero-triplets": ("--triplets", "0"),
                       "synth-negative-samples": ("--samples-per-task", "-1"),
                       "synth-negative-seed": ("--seed", "-3"),
                       "synth-negative-tasks": ("--tasks", "-2")}[case]
        argv = ["synth", "--tasks", "2", "--out", str(tmp_path / "synth.jsonl"), flag, value]
    else:
        flag, value = {"nan-alpha-flag": ("--alpha", "nan"), "inf-beta-flag": ("--beta", "inf"),
                       "nan-w-kl-flag": ("--w-kl", "nan"),
                       "nan-clip-norm-flag": ("--clip-norm", "nan"),
                       "negative-seed-flag": ("--seed", "-1"),
                       "zero-max-len-flag": ("--max-len", "0")}[case]
        argv = meta_train + MINI_TRAIN_FLAGS + [flag, value]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("case", ["meta-train-zero-k-support", "train-baseline-rmsprop-config",
                                  "chat-zero-alpha"])
def test_bad_config_fails_before_writing_anything(tmp_path, capsys, case):
    outputs = ["--checkpoint-out", str(tmp_path / "out.ckpt"),
               "--vocab-out", str(tmp_path / "out.vocab"),
               "--log-out", str(tmp_path / "out.csv")]
    pool = make_pool(tmp_path / "pool.jsonl")
    if case == "meta-train-zero-k-support":
        argv = ["meta-train", "--pool", str(pool), *outputs, "--k-support", "0"]
    elif case == "train-baseline-rmsprop-config":
        config = tmp_path / "run.cfg"
        config.write_text("inner_optimizer=rmsprop\n")
        argv = ["train-baseline", "--pool", str(pool), *outputs, "--config", str(config)]
    else:
        ckpt, vpath, graph = rigged_chat_model(tmp_path)
        script = tmp_path / "script.txt"
        script.write_text("hello\n")
        argv = ["chat", "--checkpoint", str(ckpt), "--vocab", str(vpath),
                "--graph", str(graph), "--script", str(script), "--alpha", "0"]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    for name in ("out.ckpt", "out.vocab", "out.csv"):
        assert not (tmp_path / name).exists(), name


@pytest.mark.parametrize("reader", ["pool", "vocab", "config", "script"])
def test_non_utf8_file_exits_2_naming_it(tmp_path, capsys, reader):
    ckpt, vpath, graph = rigged_chat_model(tmp_path)
    bad = tmp_path / f"{reader}.utf16"
    bad.write_bytes(b"\xff\xfe" + "hello=there\n".encode("utf-16-le"))
    chat = ["chat", "--checkpoint", str(ckpt), "--vocab", str(vpath), "--graph", str(graph)]
    argv = {
        "pool": ["adapt-eval", "--pool", str(bad), "--checkpoint", str(ckpt),
                 "--vocab", str(vpath), "--split", "all"],
        "vocab": ["chat", "--checkpoint", str(ckpt), "--vocab", str(bad), "--graph", str(graph)],
        "config": ["meta-train", "--config", str(bad), "--pool", str(tmp_path / "pool.jsonl"),
                   "--checkpoint-out", str(tmp_path / "out.ckpt"),
                   "--vocab-out", str(tmp_path / "out.vocab"),
                   "--log-out", str(tmp_path / "out.csv")],
        "script": chat + ["--script", str(bad)],
    }[reader]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert str(bad) in err[0] and "UTF-8" in err[0]


# ---------------------------------------------------------------------------
# help and entry point


@pytest.mark.parametrize("command,flags", [
    ("synth", ["--tasks", "--seed", "--out", "--entities", "--relations",
               "--triplets", "--samples-per-task"]),
    ("meta-train", ["--pool", "--checkpoint-out", "--vocab-out", "--log-out",
                    "--preset", "--alpha", "--beta", "--num-tasks",
                    "--k-support", "--k-query", "--inner-steps",
                    "--max-episodes", "--patience", "--clip-norm"]),
    ("train-baseline", ["--pool", "--checkpoint-out", "--max-episodes"]),
    ("adapt-eval", ["--pool", "--checkpoint", "--vocab", "--report-out",
                    "--split", "--support-size", "--test-update-steps"]),
    ("chat", ["--checkpoint", "--vocab", "--graph", "--script", "--max-len"]),
])
def test_help_lists_flags_with_defaults(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in flags:
        assert flag in text, f"{command} --help is missing {flag}"
    assert "default" in text


def test_every_run_config_field_has_a_flag():
    parser = cli.build_parser()
    for argv in (["meta-train", "--pool", "p", "--checkpoint-out", "c",
                  "--vocab-out", "v", "--log-out", "l"],
                 ["train-baseline", "--pool", "p", "--checkpoint-out", "c",
                  "--vocab-out", "v", "--log-out", "l"],
                 ["adapt-eval", "--pool", "p", "--checkpoint", "c", "--vocab", "v"],
                 ["chat", "--checkpoint", "c", "--vocab", "v", "--graph", "g"]):
        dests = set(vars(parser.parse_args(argv)))
        missing = set(RunConfig.__dataclass_fields__) - dests
        assert not missing, f"{argv[0]} has no flag for {sorted(missing)}"


def test_help_defaults_match_config():
    """Each configuration flag's help states the RunConfig default and any desk override."""
    parser = argparse.ArgumentParser()
    cli._add_config_flags(parser)
    defaults, desk = RunConfig(), PRESETS["desk"]
    described = set()
    for action in parser._actions:
        if action.dest not in RunConfig.__dataclass_fields__:
            continue
        default = getattr(defaults, action.dest)
        said = re.search(r"config default ([^,;)]+)", action.help)
        assert said, f"{action.option_strings[0]} help gives no config default"
        assert type(default)(said.group(1)) == default, action.help
        said = re.search(r"desk preset ([^,;)]+)", action.help)
        if said:
            assert type(default)(said.group(1)) == desk.get(action.dest), action.help
            described.add(action.dest)
    assert described == set(desk)


# Every configuration option string and its dest; a renamed or lost flag fails here.
CONFIG_OPTIONS = {
    "--preset": "preset", "--config": "config", "--seed": "seed",
    "--embed-dim": "embed_dim", "--hidden-dim": "hidden_dim", "--max-vocab": "max_vocab",
    "--max-len": "max_len", "--alpha": "alpha", "--beta": "beta",
    "--num-tasks": "num_tasks", "--k-support": "k_support", "--k-query": "k_query",
    "--inner-steps": "inner_steps", "--test-update-steps": "test_update_steps",
    "--inner-optimizer": "inner_optimizer", "--meta-optimizer": "meta_optimizer",
    "--max-episodes": "max_episodes", "--patience": "early_stop_patience",
    "--clip-norm": "clip_norm", "--w-kl": "w_kl", "--w-nll": "w_nll", "--w-bow": "w_bow",
}


def subcommand_parser(command):
    return cli.build_parser()._subparsers._group_actions[0].choices[command]


@pytest.mark.parametrize("command", ["meta-train", "train-baseline", "adapt-eval", "chat"])
def test_config_option_strings_are_pinned(command):
    group = next(g for g in subcommand_parser(command)._action_groups
                 if g.title == "configuration")
    assert {opt: a.dest for a in group._group_actions
            for opt in a.option_strings} == CONFIG_OPTIONS


def test_flag_and_config_file_line_give_equal_config(tmp_path, monkeypatch):
    monkeypatch.delenv("MKGD_SEED", raising=False)
    # Valid for every field of its type (max_vocab needs >= 5) and no field's default.
    text = {int: "6", float: "0.25", str: "sgd"}
    flags = {action.dest: action.option_strings[0]
             for action in subcommand_parser("chat")._actions}
    base = ["chat", "--checkpoint", "c", "--vocab", "v", "--graph", "g"]
    for name, parse in FIELD_TYPES.items():
        config = tmp_path / f"{name}.cfg"
        config.write_text(f"{name}={text[parse]}\n")
        from_file = make_run_config("desk", config_path=config)
        args = cli.build_parser().parse_args(base + [flags[name], text[parse]])
        from_flag = cli._config_from_args(args)
        assert from_flag == from_file, name
        assert getattr(from_flag, name) == parse(text[parse]) != getattr(RunConfig(), name), name


@pytest.mark.parametrize("flag,value", [("--seed", "1.5"), ("--alpha", "fast"),
                                        ("--inner-optimizer", "rmsprop")])
def test_bad_config_flag_value_exits_2_without_traceback(tmp_path, capsys, flag, value):
    ckpt, vpath, graph = rigged_chat_model(tmp_path)
    try:
        code = run_cli("chat", "--checkpoint", str(ckpt), "--vocab", str(vpath),
                       "--graph", str(graph), flag, value)
    except SystemExit as exc:  # argparse rejects text its type cannot parse
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert "error: " in last and value in last, err


def test_module_entry_point(tmp_path):
    out = tmp_path / "pool.jsonl"
    # The child imports the same source tree as this test, however pytest found it.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mkgd", "synth", "--tasks", "1", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert out.exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["meta-train"])  # missing required flags
    assert exc.value.code == 2
