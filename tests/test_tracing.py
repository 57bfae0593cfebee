"""The benchmark's tracer must find every function it wraps, and see it run.

Deleting or renaming a traced function, or a refactor that stops calling one
or stops recording an op kind the traced runs expect, should fail here, not
only in a traced benchmark run. So should a change that moves a training
workload's first observation, or a chat's first conversation, off its golden
values.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mkgd import data, meta, metrics
from mkgd.config import RunConfig
from mkgd.model import DialogueModel

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench_module("tracing")


def mkgd_bindings():
    return {(name, key): value
            for name, module in sys.modules.items()
            if name == "mkgd" or name.startswith("mkgd.")
            for key, value in vars(module).items()}


def test_tracer_installs_and_uninstalls_every_span():
    tracing = load_tracing()
    originals = [getattr(owner, attr) for _, owner, attr in tracing.SPANS]
    bindings = mkgd_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (name, owner, attr), original in zip(tracing.SPANS, originals):
            assert getattr(owner, attr) is not original, f"{name} was not wrapped"
    finally:
        tracer.uninstall()
    for (_, owner, attr), original in zip(tracing.SPANS, originals):
        assert getattr(owner, attr) is original
    after = mkgd_bindings()
    assert all(after[key] is value for key, value in bindings.items())


def one_task_and_model(tmp_path, k_query):
    """A task of the benchmark's pool, with 2 support and k_query query samples, and a small model."""
    workloads = load_bench_module("workloads")
    pool = workloads.write_pool(tmp_path / "pool.jsonl", workloads.synth_pool(0, n_tasks=1))
    raw = data.load_task_pool(pool)
    vocab = data.build_vocab(data.raw_task_token_stream(raw), 200)
    [task] = data.tasks_from_raw(raw, vocab, 2, k_query, seed=0)
    return task, DialogueModel(vocab, 8, 8, seed=0)


def test_a_training_step_and_a_reply_fire_every_expected_span_and_tape_counter(tmp_path):
    tracing, workloads = load_tracing(), load_bench_module("workloads")
    task, model = one_task_and_model(tmp_path, 2)
    cfg = RunConfig(alpha=0.01, beta=0.01, k_support=2, k_query=2, inner_steps=1)
    sample = task.query[0]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        meta.inner_update(model, task, cfg)
        model.generate(sample.history, sample.graph, 5)
    finally:
        tracer.uninstall()

    expected = workloads._MODEL_FORWARD + workloads._OPTIMIZER + ("model.generate",)
    assert [name for name in expected if not tracer.calls[name]] == []
    assert [name for name in tracing.TAPE_COUNTERS if not tracer.counts[name] > 0] == []


def test_evaluator_add_decodes_and_scores_its_samples_in_one_call_each(tmp_path):
    tracing = load_tracing()
    task, model = one_task_and_model(tmp_path, 4)
    assert len(task.query) >= 3

    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics.Evaluator(max_len=5).add(model, task.query)
    finally:
        tracer.uninstall()

    assert (tracer.calls["model.generate"], tracer.calls["model.score"]) == (1, 1)


def assert_matches(observed, expected, where="observation"):
    """Equal structure, other values exactly, floats within 1e-9 relative, as bench/run.py checks."""
    if isinstance(expected, dict):
        assert isinstance(observed, dict) and observed.keys() == expected.keys(), where
        for key in expected:
            assert_matches(observed[key], expected[key], f"{where}[{key!r}]")
    elif isinstance(expected, list):
        assert isinstance(observed, (list, tuple)) and len(observed) == len(expected), where
        for i, (o, e) in enumerate(zip(observed, expected)):
            assert_matches(o, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(observed, float), where
        assert abs(observed - expected) <= 1e-9 * max(abs(observed), abs(expected)), \
            f"{where}: {observed!r} vs {expected!r}"
    else:
        assert type(observed) is type(expected) and observed == expected, where


@pytest.mark.parametrize("name", ["meta-train-desk", "step-paper", "adapt-eval-desk",
                                  "chat-desk"])
def test_a_workload_operation_fires_its_spans_and_matches_its_golden(tmp_path, name):
    tracing, workloads = load_tracing(), load_bench_module("workloads")
    workload = workloads.WORKLOADS[name](0, tmp_path)
    # chat's first conversation: its history grows past 200 tokens, the
    # longest ragged reads of any workload
    ops = workload.TURNS if name == "chat-desk" else 1

    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = workload.setup()
        observed = [workload.op(state, i)[1] for i in range(ops)]
    finally:
        tracer.uninstall()

    assert [span for span in workload.expected_spans if not tracer.calls[span]] == []
    if name != "chat-desk":  # chat records no tape
        assert [c for c in tracing.TAPE_COUNTERS if not tracer.counts[c] > 0] == []
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    assert_matches(observed, golden[name]["0"][:ops])
