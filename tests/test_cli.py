import json
import subprocess
import sys

import numpy as np
import pytest

from mkgd import cli
from mkgd.config import RunConfig
from mkgd.data import (
    RawTask,
    SyntheticTaskSpec,
    Vocab,
    build_vocab,
    load_task_pool,
    raw_task_to_samples,
    raw_task_token_stream,
    save_task_pool,
    synth_raw_tasks,
)
from mkgd.meta import MetaConfig, supervised_train
from mkgd.model import DialogueModel
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


def test_meta_train_writes_artifacts_and_reruns_identically(tmp_path):
    pool = make_pool(tmp_path / "pool.jsonl")

    def train(tag):
        code = run_cli("meta-train", "--pool", str(pool),
                       "--checkpoint-out", str(tmp_path / f"{tag}.ckpt"),
                       "--vocab-out", str(tmp_path / f"{tag}.vocab"),
                       "--log-out", str(tmp_path / f"{tag}.log"),
                       *MINI_TRAIN_FLAGS)
        assert code == 0

    train("one")
    train("two")
    assert (tmp_path / "one.log").read_bytes() == (tmp_path / "two.log").read_bytes()
    assert (tmp_path / "one.ckpt").read_bytes() == (tmp_path / "two.ckpt").read_bytes()
    log = (tmp_path / "one.log").read_text().splitlines()
    assert log[0] == "episode,split,task_id,kl,nll,bow,total,sel_acc"
    assert len(log) > 1


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


def test_meta_train_insufficient_tasks_exits_2(tmp_path):
    pool = make_pool(tmp_path / "small.jsonl", tasks=2)
    code = run_cli("meta-train", "--pool", str(pool),
                   "--checkpoint-out", str(tmp_path / "x.ckpt"),
                   "--vocab-out", str(tmp_path / "x.vocab"),
                   "--log-out", str(tmp_path / "x.log"),
                   "--num-tasks", "5")
    assert code == 2


def test_meta_train_divergence_exits_3_and_keeps_checkpoint(tmp_path):
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
    assert (tmp_path / "div.ckpt").exists()
    arrays = load_checkpoint(tmp_path / "div.ckpt")
    assert all(np.isfinite(v).all() for v in arrays.values())


# ---------------------------------------------------------------------------
# train-baseline


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
    cfg = MetaConfig(alpha=0.02, beta=0.02)
    supervised_train(model, train_samples[:4], cfg, epochs=80, shuffle=False)
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
        store.add(name, vals)
    store.add("/adam/t", [3.0])
    store.add("/adam/m/model.out.b", np.zeros_like(store["model.out.b"].values))
    save_checkpoint(ckpt, store)
    script = tmp_path / "script.txt"
    script.write_text("hello\n")
    code = run_cli("chat", "--checkpoint", str(ckpt), "--vocab", str(vpath),
                   "--graph", str(graph), "--script", str(script))
    assert code == 0
    assert "triplet: e0 r0 e1" in capsys.readouterr().out.splitlines()


GOAL = ["[start]", "e0", "e1"]


@pytest.mark.parametrize("case", ["truncated-checkpoint", "graph-without-goal",
                                  "two-field-triplet", "sample-without-response"])
def test_malformed_input_exits_2_with_one_line_error(tmp_path, capsys, case):
    ckpt, vpath, graph = rigged_chat_model(tmp_path)
    argv = ["chat", "--checkpoint", str(ckpt), "--vocab", str(vpath), "--graph", str(graph)]
    if case == "truncated-checkpoint":
        ckpt.write_bytes(ckpt.read_bytes()[:1000])
    elif case == "graph-without-goal":
        graph.write_text(json.dumps({"knowledge": [["e0", "r0", "e1"]]}))
    elif case == "two-field-triplet":
        graph.write_text(json.dumps({"goal": GOAL, "knowledge": [["e0", "r0"]]}))
    else:
        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({
            "task_id": 0, "goal": GOAL, "knowledge": [["e0", "r0", "e1"]],
            "samples": [{"history": "hello", "gold": 0}],
        }) + "\n")
        argv = ["adapt-eval", "--pool", str(pool), "--checkpoint", str(ckpt),
                "--vocab", str(vpath), "--split", "all"]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


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


def test_module_entry_point(tmp_path):
    out = tmp_path / "pool.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "mkgd", "synth", "--tasks", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["meta-train"])  # missing required flags
    assert exc.value.code == 2
