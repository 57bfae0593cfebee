"""The four benchmark workloads.

Each workload turns a variant number into inputs of its own making (the
program only sees the generated files and samples), sets the program up the
way its command line does, and runs one timed operation at a time. Every
operation returns its phase timings and an observation that ``run.py``
checks against ``golden.json``.

Inputs come from this module's generator, not from ``mkgd.data``, so a change
to the program's synthetic pools cannot change what the benchmark measures.
Every history template has seven tokens and every response template six, so
the work per sample does not depend on which templates a seed draws; seeds
still differ in tokens, graphs, splits and what the model generates.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from mkgd import data, meta, metrics, optim, params, tensor
from mkgd.config import make_run_config
from mkgd.dialogue import (
    START_MARKER,
    DialogueGoal,
    DialogueSample,
    KnowledgeGraph,
    KnowledgeTriplet,
)
from mkgd.model import DialogueModel, infer_dims

FIXTURE_DIR = Path(__file__).resolve().parent / "fixture"
FIXTURE_CHECKPOINT = FIXTURE_DIR / "desk.ckpt"
FIXTURE_VOCAB = FIXTURE_DIR / "desk.vocab"

# A seed selects variant seed % VARIANTS; golden.json holds every variant.
# Variant 10 is kept out of development runs, for confirming later claims.
VARIANTS = 11

ENTITIES = tuple(f"e{i}" for i in range(20))
RELATIONS = tuple(f"r{i}" for i in range(6))
HISTORY_TEMPLATES = (
    "tell me about the {relation} of {topic}",
    "i wonder about the {relation} of {topic}",
    "please do share the {relation} of {topic}",
    "what exactly is the {relation} of {topic}",
)
RESPONSE_TEMPLATES = (
    "the {relation} of {topic} is {tail}",
    "well {topic} has the {relation} {tail}",
    "{tail} is the {relation} of {topic}",
)
FILLERS = ("hey", "hi", "so", "now")
TRIPLETS_PER_GRAPH = 4
POOL_TASKS = 50
SAMPLES_PER_TASK = 24


def token_universe():
    """Every token the generator can emit, in a fixed order."""
    words = []
    for template in HISTORY_TEMPLATES + RESPONSE_TEMPLATES:
        words.extend(w for w in template.split() if not w.startswith("{"))
    return sorted(set(words) | set(FILLERS) | set(ENTITIES) | set(RELATIONS) | {START_MARKER})


def _user_turn(rng, head, relation):
    template = HISTORY_TEMPLATES[rng.integers(len(HISTORY_TEMPLATES))]
    filler = FILLERS[rng.integers(len(FILLERS))]
    return filler + " " + template.format(relation=relation, topic=head)


def synth_pool(seed, n_tasks=POOL_TASKS):
    """Seeded task pool records in the program's pool-file format."""
    rng = np.random.default_rng(seed)
    tasks = []
    for task_id in range(n_tasks):
        topic = ENTITIES[rng.integers(len(ENTITIES))]
        relations = rng.permutation(len(RELATIONS))[:TRIPLETS_PER_GRAPH]
        knowledge = [[topic, RELATIONS[r], ENTITIES[rng.integers(len(ENTITIES))]]
                     for r in relations]
        samples = []
        for _ in range(SAMPLES_PER_TASK):
            gold = int(rng.integers(TRIPLETS_PER_GRAPH))
            head, relation, tail = knowledge[gold]
            response = RESPONSE_TEMPLATES[rng.integers(len(RESPONSE_TEMPLATES))].format(
                relation=relation, topic=head, tail=tail)
            samples.append({"history": _user_turn(rng, head, relation),
                            "response": response, "gold": gold})
        tasks.append({"task_id": task_id, "goal": [START_MARKER, topic, knowledge[-1][2]],
                      "knowledge": knowledge, "samples": samples})
    return tasks


def write_pool(path, tasks):
    with open(path, "w", encoding="utf-8") as fh:
        for task in tasks:
            fh.write(json.dumps(task, sort_keys=True, separators=(",", ":")) + "\n")
    return path


def _graph(goal, knowledge):
    return KnowledgeGraph([KnowledgeTriplet(h, r, t) for h, r, t in knowledge],
                          DialogueGoal(tuple(goal)))


def load_fixture_model(cfg):
    """The kept desk checkpoint and vocabulary, loaded as `adapt-eval` and `chat` do."""
    arrays, _ = params.split_checkpoint(params.load_checkpoint(FIXTURE_CHECKPOINT))
    vocab = data.Vocab.load(FIXTURE_VOCAB)
    _, embed_dim, hidden_dim = infer_dims(arrays)
    model = DialogueModel(vocab, embed_dim, hidden_dim, seed=0,
                          loss_weights=cfg.loss_weights())
    model.load_values(arrays)
    return model


class Workload:
    """One seeded workload.

    ``period``: observations repeat every ``period`` operations. When
    ``restarts`` is set, operation ``period`` starts again from a fresh
    set-up, because operations build on each other's parameter updates.
    ``op_name`` names the operation in the summary, ``phases`` the parts of
    it that are timed apart, and ``expected_spans`` the traced spans every
    traced run must see; a workload that expects ``tensor.backward`` must
    also see every tape counter.
    """

    name = ""
    op_name = ""
    period = 1
    restarts = False
    phases = ("op",)
    expected_spans = ()

    def setup(self):
        raise NotImplementedError

    def op(self, state, i):
        """Run operation ``i``; return ({phase: seconds}, observation)."""
        raise NotImplementedError


_MODEL_FORWARD = (
    "model.batch_objective", "model.forward", "model.encode_history",
    "model.encode_response", "model.encode_knowledge", "model.decode_with_knowledge",
    "model.prior_distribution", "model.posterior_distribution", "model.kl_div_loss",
    "model.nll_loss", "model.bow_loss",
    "layers.gru_encode", "layers.GruCell.step", "layers.attend", "layers.mlp_forward",
)
_OPTIMIZER = ("tensor.backward", "optim.clip_global_norm", "optim.adam_step")


class MetaTrainDesk(Workload):
    """Desk-preset meta-training episodes on a 50-task pool.

    About 187k tape nodes per episode, so per-node interpreter overhead
    dominates; a fused GRU step or batched samples must show here.
    """

    name = "meta-train-desk"
    op_name = "episode_s"
    period = 8
    restarts = True
    expected_spans = _MODEL_FORWARD + _OPTIMIZER + (
        "meta.meta_batch_step", "meta.inner_update", "meta.validation_loss",
        "params.snapshot", "data.load_task_pool", "data.build_vocab", "data.tasks_from_raw",
    )

    def __init__(self, variant, workdir):
        self.cfg = make_run_config("desk", overrides={"seed": variant})
        self.pool_path = write_pool(Path(workdir) / "pool.jsonl", synth_pool(variant))

    def setup(self):
        """What `mkgd meta-train` does before its first episode."""
        cfg = self.cfg
        raw = data.load_task_pool(self.pool_path)
        train_raw, valid_raw, _ = data.split_pool(raw, seed=cfg.seed)
        vocab = data.build_vocab(data.raw_task_token_stream(raw), cfg.max_vocab)
        model = DialogueModel(vocab, cfg.embed_dim, cfg.hidden_dim,
                              seed=cfg.seed, loss_weights=cfg.loss_weights())
        mcfg = cfg.meta_config()
        train = data.tasks_from_raw(train_raw, vocab, mcfg.k_support, mcfg.k_query,
                                    seed=cfg.seed)
        valid = data.tasks_from_raw(valid_raw, vocab, mcfg.k_support, mcfg.k_query,
                                    seed=cfg.seed)
        return SimpleNamespace(model=model, mcfg=mcfg, valid=valid,
                               sampler=meta.TaskSampler(train, seed=cfg.seed),
                               meta_state=optim.AdamState(model.store),
                               best_val=math.inf, best=None)

    def op(self, state, i):
        """One episode as `meta.meta_train` runs it."""
        start = perf_counter()
        batch = state.sampler.sample(state.mcfg.num_tasks)
        _, state.meta_state, stats = meta.meta_batch_step(
            state.model, batch, state.mcfg, state.meta_state)
        val, _ = meta.validation_loss(state.model, state.valid)
        if val < state.best_val:
            state.best_val = val
            state.best = state.model.store.snapshot()
        return {"op": perf_counter() - start}, [stats.meta_loss, val]


class StepPaper(Workload):
    """One sample per training step at paper dims (V=30000, E=H=300).

    Only about 1.4k tape nodes, but every gather gradient is a dense (V, E)
    table, the output and BOW projections build (V, H) outer products, and
    Adam updates 30M parameters; sparse gradients must show here.
    """

    name = "step-paper"
    op_name = "step_s"
    period = 6
    restarts = True
    phases = ("fwd", "bwd", "opt")
    expected_spans = _MODEL_FORWARD + _OPTIMIZER + ("data.build_vocab",)

    HISTORY_TOKENS = 12
    RESPONSE_TOKENS = 9

    def __init__(self, variant, workdir):
        self.cfg = make_run_config("paper", overrides={"seed": variant})
        # The vocabulary is all synthetic tokens; samples draw from all of it.
        self.tokens = [f"w{i:05d}" for i in range(self.cfg.max_vocab - len(data.RESERVED_TOKENS))]
        rng = np.random.default_rng(variant)

        def words(n):
            return [self.tokens[j] for j in rng.integers(len(self.tokens), size=n)]

        self.samples = [
            (words(self.HISTORY_TOKENS), words(self.RESPONSE_TOKENS),
             [words(3) for _ in range(TRIPLETS_PER_GRAPH)],
             int(rng.integers(TRIPLETS_PER_GRAPH)))
            for _ in range(self.period)
        ]

    def setup(self):
        cfg = self.cfg
        vocab = data.build_vocab(self.tokens, cfg.max_vocab)
        model = DialogueModel(vocab, cfg.embed_dim, cfg.hidden_dim,
                              seed=cfg.seed, loss_weights=cfg.loss_weights())
        samples = [
            DialogueSample(history=vocab.encode(history),
                           response=vocab.encode(response) + [vocab.EOS],
                           graph=_graph([START_MARKER, triplets[0][0], triplets[-1][2]],
                                        triplets),
                           gold_triplet=gold)
            for history, response, triplets, gold in self.samples
        ]
        return SimpleNamespace(model=model, samples=samples,
                               adam=optim.AdamState(model.store))

    def op(self, state, i):
        """Record one sample's forward, backward, clip and Adam step."""
        model, cfg = state.model, self.cfg
        t0 = perf_counter()
        tape = tensor.Tape()
        tape.watch(model.store)
        with tape:
            loss, _ = model.batch_objective([state.samples[i % self.period]])
        t1 = perf_counter()
        grads = tensor.backward(tape, loss)
        t2 = perf_counter()
        clipped = optim.clip_global_norm(grads, cfg.clip_norm)
        optim.adam_step(model.store, clipped, state.adam, cfg.alpha)
        t3 = perf_counter()
        norm = math.sqrt(sum(float(np.vdot(g.values, g.values)) for g in grads.values()))
        return {"fwd": t1 - t0, "bwd": t2 - t1, "opt": t3 - t2}, [loss.item(), norm]


class AdaptEvalDesk(Workload):
    """`adapt-eval` over the held-out tasks, from the kept desk checkpoint.

    Recorded adaptation steps mixed with tape-free ``score`` and ``generate``
    that each encode history and knowledge again; sharing that encoding
    must show here.
    """

    name = "adapt-eval-desk"
    op_name = "task_s"
    period = 7  # the test split of a 50-task pool
    expected_spans = _MODEL_FORWARD + _OPTIMIZER + (
        "model.generate", "model.score", "model.clone", "meta.adapt",
        "metrics.Evaluator.add", "metrics.Evaluator.report",
        "params.snapshot", "params.restore", "params.load_checkpoint",
        "data.load_task_pool", "data.tasks_from_raw",
    )

    def __init__(self, variant, workdir):
        self.cfg = make_run_config("desk", overrides={"seed": variant})
        self.pool_path = write_pool(Path(workdir) / "pool.jsonl", synth_pool(variant))

    def setup(self):
        """What `mkgd adapt-eval` does before its first task."""
        cfg = self.cfg
        model = load_fixture_model(cfg)
        _, _, test_raw = data.split_pool(data.load_task_pool(self.pool_path), seed=cfg.seed)
        mcfg = cfg.meta_config()
        tasks = data.tasks_from_raw(test_raw, model.vocab, mcfg.k_support, mcfg.k_query,
                                    seed=cfg.seed)
        if len(tasks) != self.period:
            raise ValueError(f"test split holds {len(tasks)} tasks, expected {self.period}")
        return SimpleNamespace(model=model, mcfg=mcfg, tasks=tasks)

    def op(self, state, i):
        """The `adapt-eval` loop body for one task, with its own pair of reports."""
        task = state.tasks[i % self.period]
        start = perf_counter()
        pre = metrics.Evaluator(max_len=self.cfg.max_len)
        pre.add(state.model, task.query)
        adapted, pre_loss, post_loss = meta.adapt(state.model, task, state.mcfg)
        post = metrics.Evaluator(max_len=self.cfg.max_len)
        post.add(adapted, task.query)
        pre_report, post_report = pre.report(), post.report()
        elapsed = perf_counter() - start
        return {"op": elapsed}, {"pre": vars(pre_report), "post": vars(post_report),
                                 "query_loss": [pre_loss, post_loss]}


class ChatDesk(Workload):
    """Closed loop, one client: 15-turn conversations whose history grows.

    No tape records, so this is the only pure-forward workload; work moved
    from backward into the forward pass shows here.
    """

    name = "chat-desk"
    op_name = "turn_ms"
    CONVERSATIONS = 8
    TURNS = 15
    period = CONVERSATIONS * TURNS
    expected_spans = (
        "model.generate", "model.encode_history", "model.encode_knowledge",
        "model.prior_distribution", "layers.gru_encode", "layers.GruCell.step",
        "layers.attend", "params.load_checkpoint",
    )

    def __init__(self, variant, workdir):
        self.cfg = make_run_config("desk", overrides={"seed": variant})
        rng = np.random.default_rng(variant)
        self.conversations = []
        for task in synth_pool(variant, n_tasks=self.CONVERSATIONS):
            knowledge = task["knowledge"]
            turns = []
            for _ in range(self.TURNS):
                head, relation, _ = knowledge[rng.integers(len(knowledge))]
                turns.append(_user_turn(rng, head, relation))
            self.conversations.append((task["goal"], knowledge, turns))

    def setup(self):
        """What `mkgd chat` does before the first user turn."""
        model = load_fixture_model(self.cfg)
        graphs = [_graph(goal, knowledge) for goal, knowledge, _ in self.conversations]
        return SimpleNamespace(model=model, graphs=graphs, history=None)

    def op(self, state, i):
        """One turn: the user's words join the history, then the model replies."""
        conversation, turn = divmod(i % self.period, self.TURNS)
        vocab = state.model.vocab
        if turn == 0:
            state.history = vocab.encode([START_MARKER])
        user = self.conversations[conversation][2][turn]
        state.history = state.history + vocab.encode(data.tokenize(user))
        start = perf_counter()
        ids, selected = state.model.generate(state.history, state.graphs[conversation],
                                             self.cfg.max_len)
        elapsed = perf_counter() - start
        state.history = state.history + ids
        return {"op": elapsed}, [ids, selected]


WORKLOADS = {w.name: w for w in (MetaTrainDesk, StepPaper, AdaptEvalDesk, ChatDesk)}
