import json
from collections import Counter

import numpy as np
import pytest

from helpers import synth_tasks
from mkgd.data import (
    EOS,
    RawTask,
    SyntheticTaskSpec,
    Vocab,
    build_vocab,
    load_graph,
    load_task_pool,
    raw_task_to_samples,
    raw_task_token_stream,
    save_task_pool,
    split_pool,
    synth_raw_tasks,
    tasks_from_raw,
    tokenize,
)
from mkgd.dialogue import START_MARKER, KnowledgeTriplet
from mkgd.errors import ContractError, DataError
from mkgd.metrics import selection_accuracy

GRAPH_FIXTURE = {
    "goal": ["[start]", "Milena", "The Row"],
    "knowledge": [["Milena", "director", "Vera Belmont"],
                  ["Milena", "starring", "Nick Mancuso"],
                  ["The Row", "released", "last month"]],
}
POOL_FIXTURE = [
    {**GRAPH_FIXTURE, "task_id": 0, "samples": [
        {"history": "", "response": "i saw a movie directed by Vera Belmont", "gold": 0},
        {"history": "what is it ?", "response": "it is Milena starring Nick Mancuso",
         "gold": 1},
    ]},
    {**GRAPH_FIXTURE, "task_id": 1, "knowledge": [["The Row", "released", "last month"]],
     "samples": [{"history": "have you watched anything new ?",
                  "response": "The Row was released last month", "gold": 0}]},
]


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_collapses_whitespace():
    assert tokenize("a b  c") == ["a", "b", "c"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_idempotent_under_rejoin():
    toks = tokenize("  a  b c ")
    assert tokenize(" ".join(toks)) == toks


# ---------------------------------------------------------------------------
# vocab


def test_build_vocab_reserved_and_ranked():
    vocab = build_vocab(tokenize("a a b"), max_size=6)
    assert len(vocab) == 6
    assert vocab.encode(["a", "b"]) == [4, 5]
    assert vocab.decode([0, 1, 2, 3]) == ["<pad>", "<unk>", "<bos>", "<eos>"]


def test_build_vocab_cap_maps_to_unk():
    vocab = build_vocab(tokenize("a a b"), max_size=5)
    assert vocab.encode(["a", "b"]) == [4, Vocab.UNK]


def test_build_vocab_rank_matches_counting_oracle():
    rng = np.random.default_rng(0)
    tokens = [f"t{rng.integers(12)}" for _ in range(50)]
    vocab = build_vocab(tokens, max_size=100)
    want = [tok for tok, _ in sorted(Counter(tokens).items(),
                                     key=lambda kv: (-kv[1], kv[0]))]
    got = vocab.decode(range(4, len(vocab)))
    assert got == want


def test_numericalize_denumericalize_identity():
    vocab = build_vocab(tokenize("a b c d"), max_size=10)
    tokens = ["a", "c", "d", "b"]
    assert vocab.decode(vocab.encode(tokens)) == tokens
    ids = [4, 5, 6, 7]
    assert vocab.encode(vocab.decode(ids)) == ids


def test_vocab_file_roundtrip(tmp_path):
    vocab = build_vocab(tokenize("x y z z"), max_size=10)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:4] == ["<pad>", "<unk>", "<bos>", "<eos>"]
    assert lines[4] == "z"
    again = Vocab.load(path)
    assert again.encode(["x", "y", "z"]) == vocab.encode(["x", "y", "z"])


# ---------------------------------------------------------------------------
# pool and graph readers


def test_parse_goal_fixture(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(GRAPH_FIXTURE), encoding="utf-8")
    graph = load_graph(path)
    assert graph.goal.path == ("[start]", "Milena", "The Row")
    assert len(graph) == 3
    assert graph.triplets[0].head == "Milena"
    assert graph.triplets[1].tail == "Nick Mancuso"


def test_parse_empty_stream(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_task_pool(path) == []
    path.write_text("\n   \n", encoding="utf-8")
    assert load_task_pool(path) == []


def test_parse_reports_line_numbers(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text('{"goal": [}\n', encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_task_pool(path)
    assert "line 1" in str(err.value)
    path.write_text(json.dumps(POOL_FIXTURE[0]) + '\n{"knowledge": [["a","b","c"]]}\n',
                    encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_task_pool(path)
    assert "line 2" in str(err.value)
    assert "goal" in str(err.value)


def test_serialize_parse_roundtrip_matches_canonical(tmp_path):
    path = tmp_path / "pool.jsonl"
    save_task_pool(path, [RawTask(**obj) for obj in POOL_FIXTURE])
    got = path.read_text(encoding="utf-8")
    # independent canonicalizer: plain json dump of the raw objects
    want = "".join(
        json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n"
        for obj in POOL_FIXTURE
    )
    assert got == want
    save_task_pool(path, load_task_pool(path))
    assert path.read_text(encoding="utf-8") == got


def test_raw_task_to_samples_invariants():
    raw = [RawTask(**obj) for obj in POOL_FIXTURE]
    vocab = build_vocab(raw_task_token_stream(raw), max_size=100)
    per_task = [raw_task_to_samples(task, vocab) for task in raw]
    samples = [s for task_samples in per_task for s in task_samples]
    assert len(samples) == 3
    for s in samples:
        assert len(s.history) > 0
        assert len(s.response) > 0
        assert s.response[-1] == EOS
        assert 0 <= s.gold_triplet < len(s.graph)
    assert [s.gold_triplet for s in samples] == [0, 1, 0]
    # an empty history speaks from the start marker
    assert samples[0].history == vocab.encode([START_MARKER])
    assert samples[1].history == vocab.encode(["what", "is", "it", "?"])
    # samples of one task share one graph
    assert per_task[0][0].graph is per_task[0][1].graph


def test_multi_word_fields_build_one_entry_per_word():
    raw = [RawTask(**POOL_FIXTURE[0])]
    vocab = build_vocab(raw_task_token_stream(raw), max_size=100)
    for word in ("Vera", "Belmont", "The", "Row"):
        assert word in vocab
    assert "Vera Belmont" not in vocab and "The Row" not in vocab
    triplet = KnowledgeTriplet("Milena", "director", "Vera Belmont")
    ids = vocab.encode(triplet.tokens())
    assert len(ids) == 4 and vocab.UNK not in ids


# ---------------------------------------------------------------------------
# synthetic tasks


def test_synth_same_seed_identical():
    spec = SyntheticTaskSpec(seed=5)
    a = synth_raw_tasks(spec, 4)
    b = synth_raw_tasks(spec, 4)
    assert [t.__dict__ for t in a] == [t.__dict__ for t in b]


def test_synth_responses_contain_gold_tail():
    spec = SyntheticTaskSpec(seed=1)
    for raw in synth_raw_tasks(spec, 6):
        for s in raw.samples:
            tail = raw.knowledge[s["gold"]][2]
            assert tail in tokenize(s["response"])


def test_synth_histories_mention_topic_a():
    spec = SyntheticTaskSpec(seed=2)
    for raw in synth_raw_tasks(spec, 4):
        topic_a = raw.goal[1]
        for s in raw.samples:
            assert topic_a in tokenize(s["history"])


def test_synth_oracle_model_reaches_full_selection_accuracy():
    spec = SyntheticTaskSpec(seed=8)
    tasks, _ = synth_tasks(spec, 3)
    samples = [s for task in tasks for s in task.support + task.query]
    # an oracle that reads the gold label directly
    priors = []
    for s in samples:
        one_hot = np.zeros(len(s.graph))
        one_hot[s.gold_triplet] = 1.0
        priors.append(one_hot)
    golds = [s.gold_triplet for s in samples]
    assert selection_accuracy(priors, golds) == 1.0


def test_synth_triplet_sets_are_disjoint_across_tasks():
    spec = SyntheticTaskSpec(seed=3, n_entities=20)
    raw = synth_raw_tasks(spec, 30)
    triplet_sets = [frozenset(map(tuple, t.knowledge)) for t in raw]
    assert len(set(triplet_sets)) == len(triplet_sets)
    seen = set()
    for t in raw:
        for triplet in map(tuple, t.knowledge):
            assert triplet not in seen
            seen.add(triplet)


def test_synth_sample_deficit_is_reported():
    spec = SyntheticTaskSpec(seed=0, n_samples=10_000)
    with pytest.raises(DataError) as err:
        synth_raw_tasks(spec, 1)
    assert "short by" in str(err.value)


def test_synth_tasks_have_disjoint_split_and_shared_graph():
    spec = SyntheticTaskSpec(seed=4)
    tasks, _ = synth_tasks(spec, 2, k_support=8, k_query=14)
    for task in tasks:
        assert len(task.support) == 8
        assert len(task.query) == 14
        graphs = {id(s.graph) for s in task.support + task.query}
        assert len(graphs) == 1


# ---------------------------------------------------------------------------
# pools


def test_pool_roundtrip(tmp_path):
    spec = SyntheticTaskSpec(seed=6)
    raw = synth_raw_tasks(spec, 5)
    path = tmp_path / "pool.jsonl"
    save_task_pool(path, raw)
    again = load_task_pool(path)
    assert [t.__dict__ for t in again] == [t.__dict__ for t in raw]


def test_json_readers_reject_an_integer_past_the_digit_limit(tmp_path):
    huge = "1" * 5000
    pool = tmp_path / "pool.jsonl"
    pool.write_text('{"task_id": %s}\n' % huge, encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        load_task_pool(pool)
    graph = tmp_path / "graph.json"
    graph.write_text('{"goal": %s}' % huge, encoding="utf-8")
    with pytest.raises(DataError):
        load_graph(graph)


def test_pool_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"task_id": 0}\n', encoding="utf-8")
    with pytest.raises(DataError):
        load_task_pool(path)


@pytest.mark.parametrize("change", [
    {"samples": [{"history": "hi", "gold": 0}]},
    {"samples": [{"response": "yo", "gold": 0}]},
    {"samples": [{"history": "hi", "response": "yo"}]},
    {"samples": [{"history": "hi", "response": 5, "gold": 0}]},
    {"samples": [{"history": "hi", "response": "yo", "gold": 1}]},
    {"samples": [{"history": "hi", "response": "yo", "gold": "0"}]},
    {"samples": ["hi"]},
    {"samples": "hi"},
    {"task_id": "t0"},
    {"knowledge": [["a", "r"]]},
])
def test_pool_rejects_malformed_records(tmp_path, change):
    good = {"task_id": 0, "goal": [START_MARKER, "a", "b"], "knowledge": [["a", "r", "b"]],
            "samples": [{"history": "hi", "response": "yo", "gold": 0}]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **change}) + "\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        load_task_pool(path)


@pytest.mark.parametrize("fields", [("a", "r", " \t"), ("", "r", "b"), (" ", " ", " ")])
def test_triplet_fields_must_each_hold_a_token(fields):
    with pytest.raises(ContractError, match="must hold a token"):
        KnowledgeTriplet(*fields)
    assert KnowledgeTriplet("a b", " r ", "c").tokens() == ["a", "b", "r", "c"]


def test_split_pool_fractions_and_determinism():
    spec = SyntheticTaskSpec(seed=9)
    raw = synth_raw_tasks(spec, 20)
    train, valid, test = split_pool(raw, seed=3)
    assert len(train) == 14 and len(valid) == 3 and len(test) == 3
    ids = {t.task_id for t in train} | {t.task_id for t in valid} | {t.task_id for t in test}
    assert ids == set(range(20))
    train2, valid2, test2 = split_pool(raw, seed=3)
    assert [t.task_id for t in train2] == [t.task_id for t in train]


def test_tasks_from_raw_uses_vocab(tmp_path):
    spec = SyntheticTaskSpec(seed=7)
    raw = synth_raw_tasks(spec, 2)
    vocab = build_vocab(raw_task_token_stream(raw), 200)
    tasks = tasks_from_raw(raw, vocab, 4, 4, seed=0)
    sample = tasks[0].support[0]
    decoded = vocab.decode(sample.response[:-1])
    assert all(tok != "<unk>" for tok in decoded)
