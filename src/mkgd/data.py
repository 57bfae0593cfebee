"""Corpus handling: vocabulary, synthetic task pools and the pool and graph readers.

A task pool is JSON lines, one task per line: a goal, a knowledge graph and
raw-text samples with gold triplet labels. It is the one corpus format; every
subcommand reads it. Tokenization is plain whitespace splitting, so
pre-segmented text is required for languages without spaces.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .dialogue import (
    START_MARKER,
    DialogueGoal,
    DialogueSample,
    KnowledgeGraph,
    KnowledgeTriplet,
)
from .errors import ContractError, DataError

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")


@contextmanager
def utf8_errors(name):
    """Raise bytes that are not UTF-8, met while reading ``name``, as DataError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{name}: not UTF-8 text ({exc.reason})") from exc


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading; bytes that are not UTF-8 raise DataError."""
    with utf8_errors(path), open(path, encoding="utf-8") as fh:
        yield fh


def tokenize(utterance):
    """Whitespace split, nothing else."""
    return utterance.split()


class Vocab:
    """Frequency-ranked token table with four reserved slots."""

    PAD, UNK, BOS, EOS = PAD, UNK, BOS, EOS

    def __init__(self, tokens):
        self._itos = list(RESERVED_TOKENS) + list(tokens)
        self._stoi = {tok: i for i, tok in enumerate(self._itos)}
        if len(self._stoi) != len(self._itos):
            raise ContractError("vocabulary tokens must be unique")

    def __len__(self):
        return len(self._itos)

    def __contains__(self, token):
        return token in self._stoi

    def token(self, index):
        if not (0 <= index < len(self._itos)):
            raise ContractError(f"index {index} outside vocabulary of {len(self._itos)}")
        return self._itos[index]

    def encode(self, tokens):
        return [self._stoi.get(tok, UNK) for tok in tokens]

    def decode(self, indices):
        return [self.token(i) for i in indices]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self._itos:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path):
        with open_text(path) as fh:
            toks = [line.rstrip("\n") for line in fh]
        if toks[:4] != list(RESERVED_TOKENS):
            raise DataError(f"{path}: not a vocabulary file (reserved slots missing)")
        if len(set(toks)) != len(toks):
            raise DataError(f"{path}: vocabulary tokens must be unique")
        return cls(toks[4:])


def build_vocab(token_stream, max_size):
    """Rank tokens by frequency (ties lexicographic) and cap the table size."""
    counts = Counter(token_stream)
    if max_size < len(RESERVED_TOKENS):
        raise ContractError(f"max_size must be >= {len(RESERVED_TOKENS)}")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [tok for tok, _ in ranked[: max_size - len(RESERVED_TOKENS)]]
    return Vocab(keep)


# ---------------------------------------------------------------------------
# record validation


def _graph(goal, knowledge):
    triplets = [KnowledgeTriplet(h, r, t) for h, r, t in knowledge]
    return KnowledgeGraph(triplets, DialogueGoal(tuple(goal)))


def _require(obj, key, where):
    if key not in obj:
        raise DataError(f"{where}: missing field {key!r}")
    return obj[key]


def _is_strings(items, n):
    return isinstance(items, list) and len(items) == n and all(isinstance(x, str) for x in items)


def _parse_json(text, where):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, a huge integer, deep nesting
        raise DataError(f"{where}: invalid JSON ({exc})") from exc


def _graph_fields(obj, where):
    """Validate a JSON object's 'goal' and 'knowledge'; return them.

    Raises DataError prefixed with ``where`` (a line or file name).
    """
    if not isinstance(obj, dict):
        raise DataError(f"{where}: record must be an object")
    goal = _require(obj, "goal", where)
    if not (_is_strings(goal, 3) and goal[0] == START_MARKER):
        raise DataError(f"{where}: field 'goal' must be [{START_MARKER!r}, a, b]")
    knowledge = _require(obj, "knowledge", where)
    if not (isinstance(knowledge, list) and knowledge
            and all(_is_strings(k, 3) for k in knowledge)):
        raise DataError(f"{where}: field 'knowledge' must be non-empty [h, r, t] triples")
    if not all(all(map(str.strip, k)) for k in knowledge):
        raise DataError(f"{where}: every field of a 'knowledge' triple must hold a token")
    return goal, knowledge


# ---------------------------------------------------------------------------
# synthetic task pools

HISTORY_TEMPLATES = (
    "tell me about the {relation} of {topic}",
    "what is the {relation} of {topic}",
    "i am curious about the {relation} of {topic}",
    "please share the {relation} of {topic}",
)
RESPONSE_TEMPLATES = (
    "the {relation} of {topic} is {tail}",
    "well {topic} has {relation} {tail}",
    "{tail} is the {relation} of {topic}",
)
FILLER_TOKENS = ("hey", "hi", "so", "now")


@dataclass
class SyntheticTaskSpec:
    """Knobs for the seeded synthetic knowledge-dialogue generator."""

    n_entities: int = 20
    n_relations: int = 6
    n_triplets: int = 4
    n_samples: int = 24
    seed: int = 0

    def __post_init__(self):
        for name in ("n_entities", "n_triplets", "n_samples"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.n_triplets > self.n_relations:
            raise DataError(
                f"need n_relations >= n_triplets ({self.n_relations} < {self.n_triplets})"
            )


@dataclass
class RawTask:
    """Serializable task: a goal, a graph, and raw-text samples with gold labels."""

    task_id: int
    goal: list
    knowledge: list
    samples: list = field(default_factory=list)  # (history, response, gold) dicts


def synth_raw_tasks(spec, n_tasks):
    """Generate task pools with per-task fresh graphs; no triplet is shared
    across tasks, so triplet sets are disjoint by construction."""
    if n_tasks < 0:
        raise DataError(f"n_tasks must be >= 0, got {n_tasks}")
    rng = np.random.default_rng(spec.seed)
    entities = [f"e{i}" for i in range(spec.n_entities)]
    relations = [f"r{i}" for i in range(spec.n_relations)]
    used = set()
    tasks = []
    for task_id in range(n_tasks):
        for _ in range(200):
            topic_a = entities[rng.integers(spec.n_entities)]
            rel_idx = rng.permutation(spec.n_relations)[: spec.n_triplets]
            tails = [entities[rng.integers(spec.n_entities)] for _ in rel_idx]
            triplets = [(topic_a, relations[j], tail) for j, tail in zip(rel_idx, tails)]
            if not any(t in used for t in triplets):
                break
        else:
            raise DataError(
                f"could not draw a fresh graph for task {task_id}; "
                f"enlarge n_entities or n_relations"
            )
        used.update(triplets)
        topic_b = triplets[-1][2]
        goal = [START_MARKER, topic_a, topic_b]

        combos = [
            (g, hi, ri, fi)
            for g in range(spec.n_triplets)
            for hi in range(len(HISTORY_TEMPLATES))
            for ri in range(len(RESPONSE_TEMPLATES))
            for fi in range(len(FILLER_TOKENS))
        ]
        if spec.n_samples > len(combos):
            raise DataError(
                f"task {task_id}: {spec.n_samples} samples requested but only "
                f"{len(combos)} distinct combinations exist (short by "
                f"{spec.n_samples - len(combos)})"
            )
        order = rng.permutation(len(combos))[: spec.n_samples]
        samples = []
        for idx in order:
            g, hi, ri, fi = combos[idx]
            head, rel, tail = triplets[g]
            history = FILLER_TOKENS[fi] + " " + HISTORY_TEMPLATES[hi].format(
                relation=rel, topic=head)
            response = RESPONSE_TEMPLATES[ri].format(
                relation=rel, topic=head, tail=tail)
            samples.append({"history": history, "response": response, "gold": int(g)})
        tasks.append(RawTask(task_id=task_id, goal=goal,
                             knowledge=[list(t) for t in triplets], samples=samples))
    return tasks


def raw_task_token_stream(raw_tasks):
    for task in raw_tasks:
        # Split as KnowledgeTriplet.tokens() does, so every word is an entry.
        for text in chain(task.goal, *task.knowledge):
            yield from tokenize(text)
        for s in task.samples:
            yield from tokenize(s["history"])
            yield from tokenize(s["response"])


def _make_sample(history_text, response_text, graph, vocab, gold):
    history = vocab.encode(tokenize(history_text) or [START_MARKER])
    response = vocab.encode(tokenize(response_text)) + [EOS]
    return DialogueSample(history=history, response=response, graph=graph,
                          gold_triplet=gold)


def raw_task_to_samples(raw, vocab):
    graph = _graph(raw.goal, raw.knowledge)
    return [_make_sample(s["history"], s["response"], graph, vocab, s["gold"])
            for s in raw.samples]


def tasks_from_raw(raw_tasks, vocab, k_support, k_query, seed=0):
    """Numericalize raw tasks and split each into support/query."""
    from .meta import split_support_query

    tasks = []
    for raw in raw_tasks:
        samples = raw_task_to_samples(raw, vocab)
        tasks.append(split_support_query(samples, k_support, k_query,
                                         seed=seed + raw.task_id,
                                         task_id=raw.task_id))
    return tasks


# ---------------------------------------------------------------------------
# pool files


def save_task_pool(path, raw_tasks):
    with open(path, "w", encoding="utf-8") as fh:
        for task in raw_tasks:
            fh.write(json.dumps({
                "task_id": task.task_id,
                "goal": task.goal,
                "knowledge": task.knowledge,
                "samples": task.samples,
            }, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n")


def load_task_pool(path):
    raw_tasks = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path} line {lineno}"
            obj = _parse_json(line, where)
            goal, knowledge = _graph_fields(obj, where)
            task_id = _require(obj, "task_id", where)
            if type(task_id) is not int or task_id < 0:
                raise DataError(f"{where}: field 'task_id' must be a non-negative integer")
            samples = _require(obj, "samples", where)
            _check_samples(samples, len(knowledge), where)
            raw_tasks.append(RawTask(task_id=task_id, goal=goal,
                                     knowledge=knowledge, samples=samples))
    return raw_tasks


def _check_samples(samples, n_triplets, where):
    if not isinstance(samples, list):
        raise DataError(f"{where}: field 'samples' must be a list")
    # One expression per sample: pools hold thousands of samples.
    for i, s in enumerate(samples):
        if not (type(s) is dict and type(s.get("history")) is str
                and type(s.get("response")) is str and type(s.get("gold")) is int
                and 0 <= s["gold"] < n_triplets):
            raise DataError(
                f"{where} sample {i}: needs string 'history' and 'response' "
                f"and an integer 'gold' below {n_triplets}"
            )


def load_graph(path):
    """Read a knowledge graph file: one JSON object with 'goal' and 'knowledge'."""
    with open_text(path) as fh:
        obj = _parse_json(fh.read(), path)
    return _graph(*_graph_fields(obj, path))


def split_pool(raw_tasks, seed=0):
    """Seeded 70/15/15 split by task into (train, valid, test)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(raw_tasks))
    n = len(raw_tasks)
    n_train = int(round(0.70 * n))
    n_valid = int(round(0.15 * n))
    train = [raw_tasks[i] for i in order[:n_train]]
    valid = [raw_tasks[i] for i in order[n_train:n_train + n_valid]]
    test = [raw_tasks[i] for i in order[n_train + n_valid:]]
    return train, valid, test
