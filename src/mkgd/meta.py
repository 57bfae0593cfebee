"""Episodic task construction and the meta-training loop.

The meta step runs the inner updates for the whole task batch IN SEQUENCE on
one shared, evolving parameter store (no per-task copies), then takes a
single first-order optimizer step on the summed query losses evaluated at
the resulting parameters. Those query losses come from one forward over
every task's query set, and validation runs one tape-free forward per group
of tasks whose logits fit VALIDATION_LOGITS_CELLS; each task's log row is
summarised from its own rows of the batch.

Every parameter update, whether an inner step, the meta step, a test-time
adaptation step or a supervised baseline step, goes through ``_train_step``:
record the objective on a fresh tape, backward, clip, then one SGD or Adam
step.

``meta_train`` (one episode a round) and ``supervised_train`` (one epoch a
round) share one round driver, ``_fit``: it owns the round loop, the log,
the kept parameters, early stopping and divergence.

Every loop reads its hyperparameters from ``cfg``, a ``config.RunConfig``;
this module declares and checks none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ContractError, DataError, NumericError
from .optim import AdamState, adam_step, clip_global_norm, sgd_step
from .tensor import Tape, Tensor, backward, mul, sum_

# Most logits cells (response tokens times vocabulary size) one validation
# forward may hold; a task larger than that still runs, alone.
VALIDATION_LOGITS_CELLS = 2 ** 24


@dataclass
class Task:
    """Support/query split of samples sharing one knowledge graph."""

    support: list
    query: list
    task_id: object = None

    def __post_init__(self):
        if not self.support or not self.query:
            raise ContractError("task needs non-empty support and query sets")
        if len({id(s) for s in self.support} & {id(s) for s in self.query}):
            raise ContractError("support and query sets must be disjoint")
        graphs = {id(getattr(s, "graph", None)) for s in self.support + self.query}
        graphs.discard(id(None))
        if len(graphs) > 1:
            raise ContractError("all samples in a task must share one knowledge graph")


class TaskSampler:
    """Seeded sampling without replacement within an episode."""

    def __init__(self, pool, seed=0):
        self.pool = list(pool)
        self._rng = np.random.default_rng(seed)

    def __len__(self):
        return len(self.pool)

    def sample(self, n):
        if n > len(self.pool):
            raise DataError(f"cannot sample {n} tasks from a pool of {len(self.pool)}")
        idx = self._rng.choice(len(self.pool), size=n, replace=False)
        return [self.pool[i] for i in idx]


def split_support_query(samples, k_support, k_query, seed, task_id=None):
    """Seeded shuffle, then the first k_support / next k_query samples."""
    need = k_support + k_query
    if len(samples) < need:
        raise DataError(
            f"need {need} samples to split {k_support}+{k_query}, got "
            f"{len(samples)} (short by {need - len(samples)})"
        )
    order = np.random.default_rng(seed).permutation(len(samples))
    support = [samples[i] for i in order[:k_support]]
    query = [samples[i] for i in order[k_support:need]]
    return Task(support=support, query=query, task_id=task_id)


# ---------------------------------------------------------------------------
# optimization plumbing


def _make_state(kind, store):
    return AdamState(store) if kind == "adam" else None


def _train_step(model, objective, kind, state, lr, clip_norm):
    """Record objective() on a fresh tape, then one clipped `kind` step at rate lr.

    objective returns (scalar loss tensor, loss summary), as batch_objective
    does; returns (loss value, summary).
    """
    tape = Tape()
    tape.watch(model.store)
    with tape:
        loss, summary = objective()
    grads = backward(tape, loss)
    value = loss.item()
    # The tape holds every saved activation; free them before clip and the update.
    del tape, loss
    grads = clip_global_norm(grads, clip_norm)
    if kind == "adam":
        adam_step(model.store, grads, state, lr)
    else:
        sgd_step(model.store, grads, lr)
    return value, summary


# ---------------------------------------------------------------------------
# training loops


def inner_update(model, task, cfg, opt_state=None):
    """cfg.inner_steps optimizer steps on the mean support loss.

    Returns (model, optimizer state, the last step's loss summary), the
    summary None when cfg.inner_steps is 0.
    """
    if opt_state is None:
        opt_state = _make_state(cfg.inner_optimizer, model.store)
    summary = None
    for _ in range(cfg.inner_steps):
        _, summary = _train_step(model, lambda: model.batch_objective(task.support),
                                 cfg.inner_optimizer, opt_state, cfg.alpha, cfg.clip_norm)
    return model, opt_state, summary


@dataclass
class EpisodeStats:
    tasks: list       # per task: {"task_id", "support": summary or None, "query": summary}
    meta_loss: float


def _task_rows(model, tasks):
    """One forward over the tasks' query sets; (recorded totals, terms, each task's row range)."""
    bounds = list(accumulate((len(task.query) for task in tasks), initial=0))
    totals, terms = model.forward([s for task in tasks for s in task.query])
    return totals, terms, list(zip(bounds, bounds[1:]))


def _query_objective(model, batch):
    """Per-task mean query losses summed at the current parameters; one summary per task.

    One forward runs every task's query set, and each row is weighted by
    1 / its task's query size.
    """
    totals, terms, ranges = _task_rows(model, batch)
    sizes = [len(task.query) for task in batch]
    loss = sum_(mul(totals, Tensor(np.repeat([1.0 / n for n in sizes], sizes))))
    return loss, [terms.summary(start, stop) for start, stop in ranges]


def meta_batch_step(model, batch, cfg, meta_state=None):
    """One episode: sequential inner updates, then one meta step.

    The task batch shares a single evolving parameter trajectory; after the
    last task the summed query losses are differentiated at the resulting
    parameters (first-order) and one optimizer step with rate beta is taken.
    """
    if not batch:
        raise ContractError("meta_batch_step on empty task batch")
    if meta_state is None:
        meta_state = _make_state(cfg.meta_optimizer, model.store)

    # The tasks share one inner optimizer state, which inner_update steps in place.
    inner_state = _make_state(cfg.inner_optimizer, model.store)
    support = [inner_update(model, task, cfg, inner_state)[2] for task in batch]
    del inner_state  # free the inner Adam moments before the meta step's backward and Adam
    meta_loss, query = _train_step(model, lambda: _query_objective(model, batch),
                                   cfg.meta_optimizer, meta_state, cfg.beta, cfg.clip_norm)
    tasks = [{"task_id": task.task_id, "support": s, "query": q}
             for task, s, q in zip(batch, support, query)]
    return model, meta_state, EpisodeStats(tasks=tasks, meta_loss=meta_loss)


class TrainingLog:
    """Append-only comma-separated rows, one per task per episode."""

    HEADER = "episode,split,task_id,kl,nll,bow,total,sel_acc"

    def __init__(self):
        self.rows = []

    def add(self, episode, split, task_id, row):
        self.rows.append(",".join([
            str(episode), split, str(task_id),
            repr(row["kl"]), repr(row["nll"]), repr(row["bow"]),
            repr(row["total"]), repr(row["sel_acc"]),
        ]))

    def text(self):
        return "\n".join([self.HEADER] + self.rows) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text())


def _validation_groups(tasks, vocab_size):
    """Consecutive groups of tasks whose query responses fill at most VALIDATION_LOGITS_CELLS."""
    groups, cells = [], 0
    for task in tasks:
        size = vocab_size * sum(len(s.response) for s in task.query)
        if groups and cells + size <= VALIDATION_LOGITS_CELLS:
            groups[-1].append(task)
            cells += size
        else:
            groups.append([task])
            cells = size
    return groups


def validation_loss(model, tasks):
    """Mean query total loss over tasks at the current parameters; (task id, summary) rows.

    Runs one tape-free forward per group of _validation_groups.
    """
    rows = []
    for group in _validation_groups(tasks, len(model.vocab)):
        _, terms, ranges = _task_rows(model, group)
        rows += [(task.task_id, terms.summary(start, stop))
                 for task, (start, stop) in zip(group, ranges)]
    return sum(r["total"] for _, r in rows) / len(rows), rows


@dataclass
class TrainResult:
    log: TrainingLog
    episodes: int = 0
    best_val: float = float("nan")
    diverged: bool = False


def _fit(model, run_round, cfg, val_tasks=None):
    """The round loop both trainers share; returns (model, TrainResult).

    run_round(round, log) runs one round (an episode or an epoch) and adds
    its log rows. The kept parameters are those with the best validation
    loss, or those after the last completed round when no validation tasks
    are given; early stopping watches the validation loss. A NumericError in
    a round or in its validation ends training with ``diverged`` set. Either
    way the model ends holding the kept parameters.
    """
    result = TrainResult(log=TrainingLog())
    kept = model.store.snapshot()
    best_val, stale = float("inf"), 0
    for episode in range(1, cfg.max_episodes + 1):
        try:
            run_round(episode, result.log)
            if val_tasks:
                val, rows = validation_loss(model, val_tasks)
        except NumericError:
            result.diverged = True
            break
        result.episodes = episode
        if not val_tasks:
            kept = model.store.snapshot()
            continue
        for task_id, row in rows:
            result.log.add(episode, "val", task_id, row)
        if val < best_val:
            best_val, stale = val, 0
            kept = model.store.snapshot()
        else:
            stale += 1
            if cfg.early_stop_patience and stale >= cfg.early_stop_patience:
                break
    model.store.restore(kept)
    result.best_val = best_val if best_val != float("inf") else float("nan")
    return model, result


def meta_train(model, sampler, cfg, val_tasks=None):
    """Episodic meta-training under ``_fit``, one meta_batch_step a round.

    Logs each task's support row (when it took inner steps) and query row.
    """
    if len(sampler) < cfg.num_tasks:
        raise DataError(
            f"training split has {len(sampler)} tasks, need >= num_tasks {cfg.num_tasks}"
        )
    meta_state = _make_state(cfg.meta_optimizer, model.store)

    def episode(n, log):
        _, _, stats = meta_batch_step(model, sampler.sample(cfg.num_tasks), cfg, meta_state)
        for task_row in stats.tasks:
            if task_row["support"] is not None:
                log.add(n, "support", task_row["task_id"], task_row["support"])
            log.add(n, "query", task_row["task_id"], task_row["query"])

    return _fit(model, episode, cfg, val_tasks)


def adapt(model, task, cfg):
    """Fine-tune a private copy on an unseen task's support set.

    cfg.test_update_steps steps of the inner optimizer at rate alpha.
    Returns (adapted model, query loss before, query loss after). The given
    model is left untouched.
    """
    adapted = model.clone()
    pre = adapted.batch_objective(task.query)[0].item()
    state = _make_state(cfg.inner_optimizer, adapted.store)
    for _ in range(cfg.test_update_steps):
        _train_step(adapted, lambda: adapted.batch_objective(task.support),
                    cfg.inner_optimizer, state, cfg.alpha, cfg.clip_norm)
    post = adapted.batch_objective(task.query)[0].item()
    return adapted, pre, post


def supervised_train(model, samples, cfg, val_tasks=None):
    """Plain mini-batch optimization of the total loss; the non-meta baseline.

    cfg.max_episodes epochs under ``_fit`` of meta-optimizer steps at rate
    beta, one ``train`` log row a step. A batch holds as many samples as one
    meta-training episode, cfg.num_tasks * (cfg.k_support + cfg.k_query),
    and each epoch's order is shuffled from cfg.seed. With val_tasks, each
    epoch is validated on their query sets, as meta_train's episodes are.
    Returns (model, TrainResult).
    """
    if not samples:
        raise ContractError("training split has no samples")
    batch_size = cfg.num_tasks * (cfg.k_support + cfg.k_query)
    state = _make_state(cfg.meta_optimizer, model.store)
    rng = np.random.default_rng(cfg.seed)

    def epoch(n, log):
        order = rng.permutation(len(samples))
        for start in range(0, len(samples), batch_size):
            batch = [samples[i] for i in order[start:start + batch_size]]
            _, summary = _train_step(model, lambda: model.batch_objective(batch),
                                     cfg.meta_optimizer, state, cfg.beta, cfg.clip_norm)
            log.add(n, "train", start // batch_size, summary)

    return _fit(model, epoch, cfg, val_tasks)
