import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import QuadraticModel, QuadSample, synth_tasks
from mkgd.config import RunConfig, make_run_config
from mkgd.data import (
    SyntheticTaskSpec,
    build_vocab,
    raw_task_token_stream,
    synth_raw_tasks,
    tasks_from_raw,
)
from mkgd import meta
from mkgd.errors import ContractError, DataError
from mkgd.meta import (
    Task,
    TaskSampler,
    TrainingLog,
    adapt,
    inner_update,
    meta_batch_step,
    meta_train,
    split_support_query,
    supervised_train,
)
from mkgd.model import DialogueModel
from mkgd.tensor import Tape, add, backward


def quad_task(support, query, task_id=0):
    return Task(support=[QuadSample(c) for c in support],
                query=[QuadSample(c) for c in query], task_id=task_id)


def mini_pool(n_tasks=6, seed=0, hidden=12):
    spec = SyntheticTaskSpec(seed=seed, n_samples=12)
    tasks, vocab = synth_tasks(spec, n_tasks, 4, 6)
    model = DialogueModel(vocab, 8, hidden, seed=seed)
    return tasks, model


# ---------------------------------------------------------------------------
# Task / RunConfig / sampler / split


def test_task_requires_disjoint_nonempty_sets():
    with pytest.raises(ContractError):
        Task(support=[], query=[1.0])
    with pytest.raises(ContractError):
        Task(support=[1.0], query=[])
    shared = [1.0, 2.0]
    with pytest.raises(ContractError):
        Task(support=shared, query=shared)


def test_task_requires_shared_graph():
    tasks, _ = mini_pool(2)
    mixed = Task(support=tasks[0].support, query=tasks[0].query)  # fine
    assert mixed.task_id is None
    with pytest.raises(ContractError):
        Task(support=tasks[0].support, query=tasks[1].query)


def test_meta_config_paper_defaults():
    cfg = RunConfig()
    assert cfg.alpha == 1e-4 and cfg.beta == 1e-4
    assert cfg.num_tasks == 5
    assert cfg.k_support == 8 and cfg.k_query == 14
    assert cfg.inner_steps == 4
    assert cfg.test_update_steps == 10


def test_meta_config_validation():
    with pytest.raises(DataError):
        RunConfig(alpha=0.0)
    with pytest.raises(DataError):
        RunConfig(num_tasks=0)
    with pytest.raises(DataError):
        RunConfig(inner_steps=-1)
    with pytest.raises(DataError):
        RunConfig(inner_optimizer="rmsprop")
    # NaN passes every range check, and a NaN clip_norm would silently never clip.
    for bad in ({"alpha": float("nan")}, {"beta": float("inf")},
                {"clip_norm": float("nan")}):
        with pytest.raises(DataError):
            RunConfig(**bad)
    RunConfig(inner_steps=0, max_episodes=0)  # zero step counts are legal


def test_split_support_query_paper_shot_sizes():
    samples = [float(i) for i in range(22)]
    task = split_support_query(samples, 8, 14, seed=3)
    assert len(task.support) == 8 and len(task.query) == 14
    assert sorted(task.support + task.query) == samples


def test_split_support_query_singletons():
    task = split_support_query([1.0, 2.0], 1, 1, seed=0)
    assert len(task.support) == 1 and len(task.query) == 1


def test_split_support_query_deterministic():
    samples = [float(i) for i in range(30)]
    a = split_support_query(samples, 8, 14, seed=11)
    b = split_support_query(samples, 8, 14, seed=11)
    assert a.support == b.support and a.query == b.query


def test_split_support_query_deficit_error():
    with pytest.raises(DataError) as err:
        split_support_query([1.0, 2.0, 3.0], 8, 14, seed=0)
    assert "short by 19" in str(err.value)


def test_sampler_without_replacement_and_deterministic():
    pool = list(range(10))
    a = TaskSampler(pool, seed=5)
    batch = a.sample(6)
    assert len(set(batch)) == 6
    b = TaskSampler(pool, seed=5)
    assert b.sample(6) == batch
    with pytest.raises(DataError):
        a.sample(11)


# ---------------------------------------------------------------------------
# inner updates on the scalar surrogate


def test_inner_update_quadratic_closed_form():
    cfg = RunConfig(alpha=0.1, inner_optimizer="sgd", inner_steps=1)
    model = QuadraticModel(1.0)
    task = quad_task([1.0], [1.0])
    inner_update(model, task, cfg)
    assert model.value() == pytest.approx(0.8, abs=1e-12)
    cfg2 = RunConfig(alpha=0.1, inner_optimizer="sgd", inner_steps=2)
    model2 = QuadraticModel(1.0)
    inner_update(model2, task, cfg2)
    assert model2.value() == pytest.approx(0.64, abs=1e-12)


def test_inner_update_zero_steps_is_identity():
    cfg = RunConfig(alpha=0.1, inner_steps=0)
    model = QuadraticModel(1.0)
    inner_update(model, quad_task([1.0], [1.0]), cfg)
    assert model.value() == 1.0


def test_inner_update_reduces_support_loss_on_tiny_tasks():
    # measured property: support loss after inner updates <= before, 9/10 seeds
    wins = 0
    for seed in range(10):
        tasks, model = mini_pool(1, seed=seed)
        cfg = RunConfig(alpha=0.01, inner_steps=3)
        before = model.batch_objective(tasks[0].support)[0].item()
        inner_update(model, tasks[0], cfg)
        after = model.batch_objective(tasks[0].support)[0].item()
        wins += after <= before
    assert wins >= 9


def test_inner_update_does_not_corrupt_snapshot():
    tasks, model = mini_pool(1, seed=3)
    snap = model.store.snapshot()
    frozen = {k: v.copy() for k, v in snap.items()}
    inner_update(model, tasks[0], RunConfig(alpha=0.01, inner_steps=1))
    for name in snap:
        assert np.array_equal(snap[name], frozen[name])
    model.store.restore(snap)
    for name, t in model.store.items():
        assert np.array_equal(t.values, snap[name])


def test_inner_update_leaves_no_parameter_referencing_a_tape():
    # A parameter still attached to the step's tape would keep its saved
    # arrays (the stacked encoder gate matrices among them) alive.
    tasks, model = mini_pool(1, seed=3)
    inner_update(model, tasks[0], RunConfig(alpha=0.01, inner_steps=1))
    assert [name for name, t in model.store.items()
            if t.tape is not None or t.node_id is not None] == []


def test_train_step_frees_its_tape_before_clip_and_update(monkeypatch):
    # The tape holds every saved activation; at paper dims that is megabytes
    # that clip's scaled copy and Adam's new values would otherwise sit on top of.
    tapes, checked = [], []

    class RecordedTape(meta.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    def after_tape(step):
        def wrapped(*args):
            assert tapes and all(ref() is None for ref in tapes)
            checked.append(step.__name__)
            return step(*args)
        return wrapped

    monkeypatch.setattr(meta, "Tape", RecordedTape)
    for step in (meta.clip_global_norm, meta.adam_step):
        monkeypatch.setattr(meta, step.__name__, after_tape(step))
    tasks, model = mini_pool(1, seed=3)
    inner_update(model, tasks[0], RunConfig(alpha=0.01, inner_steps=2))
    assert checked == ["clip_global_norm", "adam_step"] * 2
    assert len(tapes) == 2


# ---------------------------------------------------------------------------
# meta_batch_step


def test_meta_batch_step_keeps_seven_store_sized_vectors_alive_then_five_at_the_meta_step():
    # At each install of new values, inner or meta, these store-sized vectors
    # are alive: the values being retired; the new values (the spare, or a
    # new vector at the first step); backward's gradient vector, which clip
    # leaves unwritten; the meta Adam m and v; and, at the inner steps only,
    # the inner Adam m and v, dropped before the meta step. numpy reports its
    # data allocations to tracemalloc, not to gc, so live ones are counted there.
    tracemalloc.start()
    try:
        tasks, vocab = synth_tasks(SyntheticTaskSpec(seed=2, n_samples=12), 2, 4, 6)
        cfg = make_run_config("desk", overrides={"num_tasks": 2, "inner_steps": 2})
        model = DialogueModel(vocab, cfg.embed_dim, cfg.hidden_dim, seed=2)
        store, counts = model.store, []

        def counted_install(vector, install=model.store.install):
            traces = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]).traces
            counts.append(sum(trace.size == store.size * 8 for trace in traces))
            install(vector)

        store.install = counted_install
        meta_batch_step(model, tasks, cfg)
    finally:
        tracemalloc.stop()
    assert (cfg.inner_optimizer, cfg.meta_optimizer) == ("adam", "adam")
    assert counts == [7] * (2 * 2) + [5]  # two tasks' two inner steps, then the meta step


def test_meta_step_sums_query_gradients():
    # per-task query gradients 0.2 and 0.4, sgd meta step with beta=0.1
    cfg = RunConfig(alpha=0.1, beta=0.1, num_tasks=2, inner_steps=0,
                    meta_optimizer="sgd")
    model = QuadraticModel(1.0)
    batch = [quad_task([0.1], [0.1], 0), quad_task([0.2], [0.2], 1)]
    meta_batch_step(model, batch, cfg)
    assert model.value() == pytest.approx(1.0 - 0.06, abs=1e-12)


def test_meta_step_zero_query_gradients_leave_params():
    cfg = RunConfig(alpha=0.1, beta=0.1, inner_steps=0, meta_optimizer="sgd")
    model = QuadraticModel(1.0)
    meta_batch_step(model, [quad_task([0.0], [0.0])], cfg)
    assert model.value() == 1.0


def test_meta_step_touches_110_distinct_samples():
    spec = SyntheticTaskSpec(seed=2)
    tasks, vocab = synth_tasks(spec, 5, k_support=8, k_query=14)
    model = DialogueModel(vocab, 8, 8, seed=0)
    cfg = RunConfig(alpha=0.01, beta=0.01, num_tasks=5, inner_steps=1)
    _, _, stats = meta_batch_step(model, tasks, cfg)
    samples = {id(s) for task in tasks for s in task.support + task.query}
    assert len(samples) == 5 * (8 + 14) == 110
    # every task reports a support row (from its inner step) and a query row
    assert [row["task_id"] for row in stats.tasks] == [t.task_id for t in tasks]
    assert all(row["support"] is not None and row["query"] is not None
               for row in stats.tasks)


def test_meta_step_empty_batch_rejected():
    model = QuadraticModel(1.0)
    with pytest.raises(ContractError):
        meta_batch_step(model, [], RunConfig())


def test_degenerate_meta_step_equals_supervised_single_step():
    # num_tasks=1, inner_steps=0 must reduce to one plain optimizer step
    tasks, model = mini_pool(1, seed=7, hidden=8)
    cfg = RunConfig(alpha=0.01, beta=0.01, num_tasks=1, inner_steps=0, max_episodes=1)
    twin = model.clone()
    # Lay the query set out so that the epoch's shuffle reads it back in its
    # own order: the batch loss must sum its samples as the meta step does.
    query = tasks[0].query
    order = np.random.default_rng(cfg.seed).permutation(len(query))
    laid_out = [query[i] for i in np.argsort(order)]

    meta_batch_step(model, [tasks[0]], cfg)
    supervised_train(twin, laid_out, cfg)

    for name, t in model.store.items():
        assert np.array_equal(t.values, twin.store[name].values), name


# ---------------------------------------------------------------------------
# one forward per task batch: the meta step's query sets, the validation tasks


def mixed_tasks():
    """Four tasks over graphs of 2 and 4 triplets, with query sets of 6, 3, 5 and 2 samples."""
    raw = (synth_raw_tasks(SyntheticTaskSpec(seed=5, n_samples=10, n_triplets=2), 2)
           + synth_raw_tasks(SyntheticTaskSpec(seed=6, n_samples=10), 2))
    vocab = build_vocab(raw_task_token_stream(raw), 200)
    tasks = tasks_from_raw(raw, vocab, 4, 6, seed=1)
    tasks = [Task(t.support, t.query[:n], task_id=i)
             for i, (t, n) in enumerate(zip(tasks, (6, 3, 5, 2)))]
    assert [len(t.query[0].graph) for t in tasks] == [2, 2, 4, 4]
    return tasks, DialogueModel(vocab, 6, 7, seed=3, loss_weights=(0.5, 1.0, 2.0))


def close(got, want):
    # Relative, except below 1: KL is a difference of order-one
    # log-probabilities, so its rounding error is absolute.
    return abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def recorded(model, objective):
    tape = Tape()
    tape.watch(model.store)
    with tape:
        loss, summaries = objective()
    return loss.item(), backward(tape, loss), summaries


def test_batched_query_objective_equals_sum_of_per_task_objectives():
    tasks, model = mixed_tasks()

    def per_task():
        results = [model.batch_objective(task.query) for task in tasks]
        total = results[0][0]
        for loss, _ in results[1:]:
            total = add(total, loss)
        return total, [summary for _, summary in results]

    loss, grads, summaries = recorded(model, lambda: meta._query_objective(model, tasks))
    want_loss, want_grads, want_summaries = recorded(model, per_task)
    assert close(loss, want_loss)
    scale = max(np.max(np.abs(g.values)) for g in want_grads.values())
    for name, g in grads.items():
        assert np.max(np.abs(g.values - want_grads[name].values)) <= 1e-12 * scale, name
    assert len(summaries) == len(tasks)
    for got, want in zip(summaries, want_summaries):
        assert got.keys() == want.keys()
        assert all(close(got[key], want[key]) for key in want), (got, want)


def test_validation_rows_equal_per_task_rows(monkeypatch):
    tasks, model = mixed_tasks()
    forwards = []
    forward = model.forward
    monkeypatch.setattr(model, "forward", lambda samples: forwards.append(samples) or
                        forward(samples))
    val, rows = meta.validation_loss(model, tasks)
    assert len(forwards) == 1
    want = [model.batch_objective(task.query)[1] for task in tasks]
    assert [task_id for task_id, _ in rows] == [task.task_id for task in tasks]
    for (_, got), row in zip(rows, want):
        assert got.keys() == row.keys()
        assert all(close(got[key], row[key]) for key in row), (got, row)
    assert close(val, sum(row["total"] for row in want) / len(want))


def test_validation_splits_tasks_under_the_logits_budget(monkeypatch):
    tasks, model = mixed_tasks()
    whole = meta.validation_loss(model, tasks)
    cells = [len(model.vocab) * sum(len(s.response) for s in task.query) for task in tasks]
    forwards = []
    forward = model.forward
    monkeypatch.setattr(model, "forward", lambda samples: forwards.append(len(samples)) or
                        forward(samples))

    # exactly room for the middle two tasks together; the first two overflow it
    monkeypatch.setattr(meta, "VALIDATION_LOGITS_CELLS", cells[1] + cells[2])
    assert cells[0] + cells[1] > cells[1] + cells[2]
    val, rows = meta.validation_loss(model, tasks)
    assert forwards == [6, 3 + 5, 2]
    assert [task_id for task_id, _ in rows] == [task_id for task_id, _ in whole[1]]
    for (_, got), (_, want) in zip(rows, whole[1]):
        assert all(close(got[key], want[key]) for key in want), (got, want)
    assert close(val, whole[0])

    # a budget below any one task still runs every task, alone
    monkeypatch.setattr(meta, "VALIDATION_LOGITS_CELLS", 1)
    forwards.clear()
    _, rows = meta.validation_loss(model, tasks)
    assert forwards == [6, 3, 5, 2]
    assert rows == [(task.task_id, model.batch_objective(task.query)[1]) for task in tasks]


# ---------------------------------------------------------------------------
# meta_train


def test_meta_train_zero_episodes_returns_initial():
    tasks, model = mini_pool(3, seed=1, hidden=8)
    before = model.store.snapshot()
    cfg = RunConfig(alpha=0.01, beta=0.01, num_tasks=2, inner_steps=1,
                    max_episodes=0)
    _, result = meta_train(model, TaskSampler(tasks, seed=0), cfg, tasks[:1])
    assert result.episodes == 0
    for name, t in model.store.items():
        assert np.array_equal(t.values, before[name])


def test_meta_train_requires_enough_tasks():
    tasks, model = mini_pool(2, seed=1, hidden=8)
    cfg = RunConfig(num_tasks=5)
    with pytest.raises(DataError):
        meta_train(model, TaskSampler(tasks, seed=0), cfg)


def test_meta_train_improves_validation_loss_and_logs():
    tasks, model = mini_pool(6, seed=4, hidden=12)
    train, val = tasks[:4], tasks[4:]
    cfg = RunConfig(alpha=0.02, beta=0.02, num_tasks=2, inner_steps=2,
                    max_episodes=6, early_stop_patience=6)
    init_val = np.mean([model.batch_objective(t.query)[0].item() for t in val])
    _, result = meta_train(model, TaskSampler(train, seed=0), cfg, val)
    final_val = np.mean([model.batch_objective(t.query)[0].item() for t in val])
    assert final_val < init_val
    # log rows: per episode, per task: support + query, plus val rows
    lines = result.log.text().splitlines()
    assert lines[0] == "episode,split,task_id,kl,nll,bow,total,sel_acc"
    assert any(",support," in ln for ln in lines[1:])
    assert any(",query," in ln for ln in lines[1:])
    assert any(",val," in ln for ln in lines[1:])
    for ln in lines[1:]:
        parts = ln.split(",")
        assert len(parts) == 8
        float(parts[3]), float(parts[7])  # parseable numbers


def test_meta_train_log_rows_equal_means_of_single_sample_forwards():
    # Every forward is replayed at the parameters it ran at, one sample at a
    # time; each logged row must be the mean of those B=1 terms. A task's
    # rows lie within one call's samples: its support batch, the meta step's
    # query sets or the validation tasks.
    tasks, model = mini_pool(5, seed=8, hidden=8)
    train, val = tasks[:3], tasks[3:]
    cfg = RunConfig(alpha=0.05, beta=0.05, num_tasks=2, inner_steps=2,
                    max_episodes=3, early_stop_patience=3)
    calls = []  # (samples, parameters at the call), in call order
    forward = model.forward

    def recording_forward(samples):
        calls.append((samples, model.store.snapshot()))
        return forward(samples)

    model.forward = recording_forward
    _, result = meta_train(model, TaskSampler(train, seed=4), cfg, val)

    # the inner steps, one meta step, one validation forward
    per_episode = cfg.num_tasks * cfg.inner_steps + 2
    assert len(calls) == result.episodes * per_episode == 3 * per_episode

    def holds(batch, samples):
        ids = [id(s) for s in batch]
        return any(ids[i:i + len(samples)] == [id(s) for s in samples]
                   for i in range(len(ids) - len(samples) + 1))

    replay = DialogueModel(model.vocab, 8, 8)
    by_id = {t.task_id: t for t in tasks}
    keys = ("kl", "nll", "bow", "total", "sel_acc")
    rows = [ln.split(",") for ln in result.log.text().splitlines()[1:]]
    assert {split for _, split, *_ in rows} == {"support", "query", "val"}
    for episode, split, task_id, *logged in rows:
        task = by_id[int(task_id)]
        samples = task.support if split == "support" else task.query
        episode_calls = calls[(int(episode) - 1) * per_episode:int(episode) * per_episode]
        # a support row comes from the task's last inner step
        params = [p for batch, p in episode_calls if holds(batch, samples)][-1]
        replay.store.restore(params)
        singles = [replay.forward([s])[1].summary() for s in samples]
        for key, value in zip(keys, map(float, logged)):
            want = sum(single[key] for single in singles) / len(samples)
            # Relative, except below 1: KL (about 1e-5 here) is a difference of
            # order-one log-probabilities, so its rounding error is absolute.
            assert abs(value - want) <= 1e-12 * max(abs(want), 1.0), \
                (episode, split, task_id, key)


def test_meta_train_is_bit_reproducible():
    def run():
        tasks, model = mini_pool(5, seed=9, hidden=8)
        cfg = RunConfig(alpha=0.02, beta=0.02, num_tasks=2, inner_steps=1,
                        max_episodes=3, early_stop_patience=3)
        _, result = meta_train(model, TaskSampler(tasks[:4], seed=2), cfg, tasks[4:])
        return result.log.text(), model.store.snapshot()

    log_a, snap_a = run()
    log_b, snap_b = run()
    assert log_a == log_b
    for name in snap_a:
        assert np.array_equal(snap_a[name], snap_b[name])


def test_meta_train_restores_best_validation_params():
    tasks, model = mini_pool(5, seed=6, hidden=8)
    cfg = RunConfig(alpha=0.5, beta=0.5, num_tasks=2, inner_steps=1,
                    max_episodes=4, early_stop_patience=4,
                    inner_optimizer="sgd", meta_optimizer="sgd")
    # huge rates force the loss to blow up after an initial improvement,
    # so the returned parameters must come from the best episode
    _, result = meta_train(model, TaskSampler(tasks[:4], seed=1), cfg, tasks[4:])
    vals = [model.batch_objective(t.query)[0].item() for t in tasks[4:]]
    assert np.mean(vals) == pytest.approx(result.best_val, rel=1e-9)


# ---------------------------------------------------------------------------
# adapt


def test_adapt_zero_steps_keeps_query_loss():
    tasks, model = mini_pool(1, seed=2, hidden=8)
    cfg = RunConfig(alpha=0.01, test_update_steps=0)
    adapted, pre, post = adapt(model, tasks[0], cfg)
    assert pre == post


def test_adapt_leaves_caller_model_untouched():
    tasks, model = mini_pool(1, seed=2, hidden=8)
    before = model.store.snapshot()
    cfg = RunConfig(alpha=0.05, test_update_steps=3)
    adapted, pre, post = adapt(model, tasks[0], cfg)
    for name, t in model.store.items():
        assert np.array_equal(t.values, before[name])
    changed = any(not np.array_equal(adapted.store[n].values, before[n])
                  for n in before)
    assert changed


def test_adapt_quadratic_closed_form():
    # theta <- theta - alpha * 2 theta per step: 1 -> 0.8 -> 0.64; beta must not be used
    cfg = RunConfig(alpha=0.1, beta=0.3, inner_optimizer="sgd", meta_optimizer="adam",
                    inner_steps=5, test_update_steps=2)
    model = QuadraticModel(1.0)
    adapted, pre, post = adapt(model, quad_task([1.0], [1.0]), cfg)
    assert adapted.value() == pytest.approx(0.64, abs=1e-12)
    assert pre == pytest.approx(1.0, abs=1e-12)
    assert post == pytest.approx(0.64 ** 2, abs=1e-12)
    assert model.value() == 1.0


def test_adapt_default_steps_is_ten():
    assert RunConfig().test_update_steps == 10


# ---------------------------------------------------------------------------
# supervised baseline


def step_totals(result):
    """The total column of a training log, one value per row."""
    return [float(row.split(",")[6]) for row in result.log.text().splitlines()[1:]]


def test_supervised_train_deterministic_and_finite():
    def run():
        tasks, model = mini_pool(2, seed=8, hidden=8)
        samples = tasks[0].support + tasks[0].query
        cfg = RunConfig(alpha=0.01, beta=0.01, max_episodes=3,
                        num_tasks=1, k_support=2, k_query=3, seed=3)
        _, result = supervised_train(model, samples, cfg)
        return step_totals(result), model.store.snapshot()

    losses_a, snap_a = run()
    losses_b, snap_b = run()
    assert losses_a == losses_b
    assert all(np.isfinite(v) for v in losses_a)
    for name in snap_a:
        assert np.array_equal(snap_a[name], snap_b[name])


def test_supervised_train_quadratic_closed_form():
    # one step per epoch at rate beta: theta 1 -> 0.8 -> 0.64; alpha must not be used
    cfg = RunConfig(alpha=0.3, beta=0.1, meta_optimizer="sgd", inner_optimizer="adam",
                    inner_steps=5, test_update_steps=5, max_episodes=2)
    model = QuadraticModel(1.0)
    _, result = supervised_train(model, [QuadSample(1.0)], cfg)
    assert step_totals(result) == pytest.approx([1.0, 0.64], abs=1e-12)
    assert model.value() == pytest.approx(0.64, abs=1e-12)


def supervised_quad(model, cfg):
    return supervised_train(model, [QuadSample(1.0)], cfg)


def meta_quad(model, cfg, val_tasks=None):
    return meta_train(model, TaskSampler([quad_task([1.0], [1.0])]), cfg, val_tasks)


@pytest.mark.parametrize("train", [supervised_quad, meta_quad],
                         ids=["supervised_train", "meta_train"])
def test_divergence_restores_last_completed_round(train):
    # one step per round: theta 1 -> -2e100 -> 4e200, then theta^2 overflows
    # (deliberately) in round 3
    cfg = RunConfig(beta=1e100, meta_optimizer="sgd", inner_steps=0, num_tasks=1,
                    max_episodes=5, clip_norm=0.0)
    model = QuadraticModel(1.0)
    with np.errstate(over="ignore"):
        _, result = train(model, cfg)
    assert result.diverged and result.episodes == 2
    assert model.value() == pytest.approx(4e200, rel=1e-12)


def test_meta_train_validation_overflow_restores_best_validation_round():
    # round 1 reaches theta -2e100 (validation 4e200); round 2 reaches 4e200,
    # whose validation loss overflows, so the round-1 parameters are kept
    cfg = RunConfig(beta=1e100, meta_optimizer="sgd", inner_steps=0, num_tasks=1,
                    max_episodes=5, clip_norm=0.0)
    model = QuadraticModel(1.0)
    with np.errstate(over="ignore"):
        _, result = meta_quad(model, cfg, [quad_task([1.0], [1.0], task_id=1)])
    assert result.diverged and result.episodes == 1
    assert model.value() == pytest.approx(-2e100, rel=1e-12)
    assert result.best_val == pytest.approx(4e200, rel=1e-12)


def test_supervised_train_rejects_empty():
    _, model = mini_pool(1, seed=0, hidden=8)
    with pytest.raises(ContractError):
        supervised_train(model, [], RunConfig())


def test_training_log_format():
    log = TrainingLog()
    log.add(1, "query", 7, {"kl": 0.5, "nll": 1.25, "bow": 2.0,
                            "total": 3.75, "sel_acc": 0.5})
    assert log.text() == (
        "episode,split,task_id,kl,nll,bow,total,sel_acc\n"
        "1,query,7,0.5,1.25,2.0,3.75,0.5\n"
    )
