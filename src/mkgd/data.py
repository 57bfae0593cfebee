"""Corpus handling: vocabulary, DuConv-format ingestion, synthetic task pools.

Input records are JSON lines. Train/valid records carry a full conversation;
test records carry a history plus one response. Tokenization is plain
whitespace splitting, so pre-segmented text is required for languages
without spaces.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .dialogue import (
    START_MARKER,
    DialogueGoal,
    DialogueSample,
    KnowledgeGraph,
    KnowledgeTriplet,
)
from .errors import ContractError, DataError, ParseError, SchemaError

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading; bytes that are not UTF-8 raise DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


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

    def index(self, token):
        return self._stoi.get(token, UNK)

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
# DuConv-format records


@dataclass
class DuConvRecord:
    goal: list
    knowledge: list
    conversation: list | None = None
    history: list | None = None
    response: str | None = None

    def graph(self):
        return _graph(self.goal, self.knowledge)


def _graph(goal, knowledge):
    triplets = [KnowledgeTriplet(h, r, t) for h, r, t in knowledge]
    return KnowledgeGraph(triplets, DialogueGoal(tuple(goal)))


def _require(obj, key, where):
    if key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    return obj[key]


def _is_strings(items, n):
    return isinstance(items, list) and len(items) == n and all(isinstance(x, str) for x in items)


def _graph_fields(obj, where):
    """Validate a JSON object's 'goal' and 'knowledge'; return them.

    Raises SchemaError prefixed with ``where`` (a line or file name).
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: record must be an object")
    goal = _require(obj, "goal", where)
    if not (_is_strings(goal, 3) and goal[0] == START_MARKER):
        raise SchemaError(f"{where}: field 'goal' must be [{START_MARKER!r}, a, b]")
    knowledge = _require(obj, "knowledge", where)
    if not (isinstance(knowledge, list) and knowledge
            and all(_is_strings(k, 3) for k in knowledge)):
        raise SchemaError(f"{where}: field 'knowledge' must be non-empty [h, r, t] triples")
    return goal, knowledge


def parse_duconv(lines):
    """Parse JSON-lines text into validated records."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        where = f"line {lineno}"
        goal, knowledge = _graph_fields(obj, where)

        has_conv = "conversation" in obj
        has_test = "history" in obj or "response" in obj
        if has_conv == has_test:
            raise SchemaError(
                f"line {lineno}: exactly one of 'conversation' or 'history'+'response' required"
            )
        if has_conv:
            conv = obj["conversation"]
            if not conv or not all(isinstance(u, str) for u in conv):
                raise SchemaError(f"line {lineno}: field 'conversation' must be non-empty strings")
            records.append(DuConvRecord(goal=goal, knowledge=knowledge, conversation=conv))
        else:
            history = _require(obj, "history", where)
            response = _require(obj, "response", where)
            if not isinstance(history, list) or not isinstance(response, str) or not response:
                raise SchemaError(f"line {lineno}: fields 'history'/'response' malformed")
            records.append(DuConvRecord(goal=goal, knowledge=knowledge,
                                        history=history, response=response))
    return records


def serialize_duconv(records):
    """Canonical JSON-lines form (sorted keys, compact separators)."""
    lines = []
    for rec in records:
        obj = {"goal": list(rec.goal), "knowledge": [list(k) for k in rec.knowledge]}
        if rec.conversation is not None:
            obj["conversation"] = list(rec.conversation)
        else:
            obj["history"] = list(rec.history)
            obj["response"] = rec.response
        lines.append(json.dumps(obj, ensure_ascii=False, sort_keys=True,
                                separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def derive_gold_triplet(response_text, graph):
    """Index of the triplet whose tail shares the most characters with the response."""
    resp_chars = Counter(response_text)
    best, best_overlap = 0, -1
    for i, triplet in enumerate(graph.triplets):
        tail_chars = Counter(triplet.tail)
        overlap = sum(min(resp_chars[c], n) for c, n in tail_chars.items())
        if overlap > best_overlap:
            best, best_overlap = i, overlap
    return best


def _make_sample(history_utterances, response_text, graph, vocab, gold=None):
    tokens = []
    for utt in history_utterances:
        tokens.extend(tokenize(utt))
    if not tokens:
        tokens = [START_MARKER]
    history = vocab.encode(tokens)
    response = vocab.encode(tokenize(response_text)) + [EOS]
    if gold is None:
        gold = derive_gold_triplet(response_text, graph)
    return DialogueSample(history=history, response=response, graph=graph,
                          gold_triplet=gold, meta={"response_text": response_text})


def records_to_samples(records, vocab):
    """Expand records into per-turn samples; the responder speaks first.

    A conversation yields one sample per responder turn (utterances 1, 3, ...
    one-indexed); the first turn's history is the goal's start marker.
    """
    samples = []
    for rec in records:
        graph = rec.graph()
        if rec.conversation is not None:
            for i in range(0, len(rec.conversation), 2):
                samples.append(_make_sample(rec.conversation[:i], rec.conversation[i],
                                            graph, vocab))
        else:
            samples.append(_make_sample(rec.history, rec.response, graph, vocab))
    return samples


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
    history_templates: tuple = HISTORY_TEMPLATES
    response_templates: tuple = RESPONSE_TEMPLATES
    fillers: tuple = FILLER_TOKENS
    seed: int = 0

    def __post_init__(self):
        if not self.history_templates or not self.response_templates:
            raise ContractError("template sets must be non-empty")
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
    across tasks, so pools hash-disjoint by construction."""
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
            for hi in range(len(spec.history_templates))
            for ri in range(len(spec.response_templates))
            for fi in range(len(spec.fillers))
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
            history = spec.fillers[fi] + " " + spec.history_templates[hi].format(
                relation=rel, topic=head)
            response = spec.response_templates[ri].format(
                relation=rel, topic=head, tail=tail)
            samples.append({"history": history, "response": response, "gold": int(g)})
        tasks.append(RawTask(task_id=task_id, goal=goal,
                             knowledge=[list(t) for t in triplets], samples=samples))
    return tasks


def raw_task_token_stream(raw_tasks):
    for task in raw_tasks:
        yield from task.goal
        for h, r, t in task.knowledge:
            yield from (h, r, t)
        for s in task.samples:
            yield from tokenize(s["history"])
            yield from tokenize(s["response"])


def synth_vocab(raw_tasks, max_size=200):
    return build_vocab(raw_task_token_stream(raw_tasks), max_size)


def raw_task_to_samples(raw, vocab):
    graph = _graph(raw.goal, raw.knowledge)
    return [
        _make_sample([s["history"]], s["response"], graph, vocab, gold=s["gold"])
        for s in raw.samples
    ]


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


def synth_generate(spec, n_tasks, k_support=8, k_query=14, vocab=None):
    """Seeded synthetic tasks, numericalized and split into support/query."""
    raw_tasks = synth_raw_tasks(spec, n_tasks)
    if vocab is None:
        vocab = synth_vocab(raw_tasks)
    return tasks_from_raw(raw_tasks, vocab, k_support, k_query, seed=spec.seed)


def triplet_set_hash(raw):
    blob = json.dumps(sorted(map(tuple, raw.knowledge)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path} line {lineno}: invalid JSON ({exc.msg})") from exc
            where = f"{path} line {lineno}"
            goal, knowledge = _graph_fields(obj, where)
            task_id = _require(obj, "task_id", where)
            if type(task_id) is not int:
                raise SchemaError(f"{where}: field 'task_id' must be an integer")
            samples = _require(obj, "samples", where)
            _check_samples(samples, len(knowledge), where)
            raw_tasks.append(RawTask(task_id=task_id, goal=goal,
                                     knowledge=knowledge, samples=samples))
    return raw_tasks


def _check_samples(samples, n_triplets, where):
    if not isinstance(samples, list):
        raise SchemaError(f"{where}: field 'samples' must be a list")
    # One expression per sample: pools hold thousands of samples.
    for i, s in enumerate(samples):
        if not (type(s) is dict and type(s.get("history")) is str
                and type(s.get("response")) is str and type(s.get("gold")) is int
                and 0 <= s["gold"] < n_triplets):
            raise SchemaError(
                f"{where} sample {i}: needs string 'history' and 'response' "
                f"and an integer 'gold' below {n_triplets}"
            )


def load_graph(path):
    """Read a knowledge graph file: one JSON object with 'goal' and 'knowledge'."""
    with open_text(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return _graph(*_graph_fields(obj, path))


def split_pool(raw_tasks, seed=0, fractions=(0.70, 0.15, 0.15)):
    """Seeded 70/15/15 split by task into (train, valid, test)."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ContractError(f"split fractions must sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(raw_tasks))
    n = len(raw_tasks)
    n_train = int(round(fractions[0] * n))
    n_valid = int(round(fractions[1] * n))
    train = [raw_tasks[i] for i in order[:n_train]]
    valid = [raw_tasks[i] for i in order[n_train:n_train + n_valid]]
    test = [raw_tasks[i] for i in order[n_train + n_valid:]]
    return train, valid, test
