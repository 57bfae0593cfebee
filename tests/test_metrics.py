import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mkgd.data import EOS, Vocab
from mkgd.errors import ContractError
from mkgd.metrics import (
    EvalReport,
    Evaluator,
    bleu_n,
    char_f1,
    distinct_n,
    selection_accuracy,
    sentence_bleu,
)

TOKENS = st.lists(st.sampled_from("a b c d e".split()), min_size=1, max_size=8)


# The prior a stub scorer reports: one triplet, the gold one.
ONE_TRIPLET_PRIOR = np.array([1.0])


class StubModel:
    """The model interface Evaluator uses; generates an empty response for every sample."""

    vocab = Vocab([])

    def generate(self, histories, graphs, max_len):
        return [([], 0) for _ in histories]


class RiggedScorer(StubModel):
    """Constant per-token NLL."""

    def __init__(self, per_token_nll, length=4):
        self.per_token_nll = per_token_nll
        self.length = length

    def score(self, samples):
        return [(self.per_token_nll * self.length, self.length, ONE_TRIPLET_PRIOR)
                for _ in samples]


def stub_samples(keys):
    return [SimpleNamespace(key=k, history=[0], graph=None, response=[EOS],
                            gold_triplet=0) for k in keys]


def evaluated_ppl(model, samples):
    evaluator = Evaluator()
    evaluator.add(model, samples)
    return evaluator.report().ppl


# ---------------------------------------------------------------------------
# BLEU


def test_bleu_identical_is_one():
    assert bleu_n(["a b c d"], ["a b c d"], 1) == 1.0
    assert bleu_n(["a b c d"], ["a b c d"], 2) == 1.0


def test_bleu1_hand_count():
    # 3 clipped unigram matches of 4, brevity penalty 1
    assert bleu_n(["a b c d"], ["a b x d"], 1) == pytest.approx(0.75, abs=1e-12)


def test_bleu2_hand_count():
    # bigram matches: only "a b" -> sqrt(0.75 * 1/3) = 0.5
    assert bleu_n(["a b c d"], ["a b x d"], 2) == pytest.approx(0.5, abs=1e-12)


def test_bleu_zero_higher_order_precision_contributes_zero():
    assert sentence_bleu("a b", "b a", 2) == 0.0
    assert bleu_n(["a b", "a b c d"], ["b a", "a b x d"], 2) == pytest.approx(0.25, abs=1e-12)


def test_bleu_brevity_penalty():
    # hyp shorter than ref: BP = exp(1 - r/c) = exp(1 - 4/2), p1 = 1
    want = math.exp(1.0 - 2.0) * 1.0
    assert sentence_bleu("a b", "a b c d", 1) == pytest.approx(want, abs=1e-12)


def test_bleu_empty_hypothesis_scores_zero():
    assert sentence_bleu("", "a b", 1) == 0.0


def test_bleu_clipping():
    # "a a a" vs "a": clipped count is 1 of 3
    assert sentence_bleu("a a a", "a", 1) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_bleu_length_mismatch():
    with pytest.raises(ContractError):
        bleu_n(["a"], ["a", "b"], 1)
    with pytest.raises(ContractError):
        bleu_n(["a"], ["a"], 3)


@given(TOKENS)
def test_bleu_self_is_one_property(tokens):
    assert bleu_n([tokens], [tokens], 1) == 1.0
    assert bleu_n([tokens], [tokens], 2) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# DISTINCT


def test_distinct1_repeated_token():
    assert distinct_n(["a a a"], 1) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_distinct1_pools_across_hypotheses():
    assert distinct_n(["a b", "a c"], 1) == pytest.approx(3.0 / 4.0, abs=1e-12)


def test_distinct_all_unique():
    assert distinct_n(["a b", "c d"], 1) == 1.0
    assert distinct_n(["a b c"], 2) == 1.0


def test_distinct_no_ngrams():
    assert distinct_n([], 1) == 0.0
    assert distinct_n(["a"], 2) == 0.0


@given(st.permutations(["a b", "c a", "b b", "d"]))
def test_distinct_permutation_invariant(hyps):
    assert distinct_n(hyps, 1) == distinct_n(sorted(hyps), 1)
    assert distinct_n(hyps, 2) == distinct_n(sorted(hyps), 2)


# ---------------------------------------------------------------------------
# F1


def test_char_f1_identical():
    assert char_f1("abc", "abc") == 1.0


def test_char_f1_hand_multiset():
    assert char_f1("abc", "abd") == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_char_f1_disjoint_and_empty():
    assert char_f1("abc", "xyz") == 0.0
    assert char_f1("", "abc") == 0.0
    assert char_f1("abc", "") == 0.0


@given(st.text(alphabet="abcd", max_size=8), st.text(alphabet="abcd", max_size=8))
def test_char_f1_symmetric(a, b):
    assert char_f1(a, b) == char_f1(b, a)


# ---------------------------------------------------------------------------
# perplexity


def test_perplexity_uniform_model_is_vocab_size():
    model = RiggedScorer(math.log(100.0))
    assert evaluated_ppl(model, stub_samples(range(3))) == pytest.approx(100.0, abs=1e-6)


def test_perplexity_perfect_model_is_one():
    model = RiggedScorer(0.0)
    assert evaluated_ppl(model, stub_samples([0])) == 1.0


def test_perplexity_matches_per_token_oracle():
    class VaryingScorer(StubModel):
        def __init__(self):
            self.rows = [(2.0, 3), (1.0, 2), (4.5, 5)]
            self.i = 0

        def score(self, samples):
            rows = [self.rows[(self.i + j) % 3] for j in range(len(samples))]
            self.i += len(samples)
            return [(nll, tokens, ONE_TRIPLET_PRIOR) for nll, tokens in rows]

    got = evaluated_ppl(VaryingScorer(), stub_samples([1, 2, 3]))
    want = math.exp((2.0 + 1.0 + 4.5) / (3 + 2 + 5))
    assert got == pytest.approx(want, rel=1e-12)


def test_perplexity_reorder_invariant():
    class Keyed(StubModel):
        def score(self, samples):
            return [(float(s.key), max(1, int(s.key)), ONE_TRIPLET_PRIOR) for s in samples]

    keys = [1.0, 2.0, 3.0]
    assert evaluated_ppl(Keyed(), stub_samples(keys)) == \
        evaluated_ppl(Keyed(), stub_samples(reversed(keys)))


def test_perplexity_empty_rejected():
    with pytest.raises(ContractError):
        evaluated_ppl(RiggedScorer(0.0), [])


def test_add_of_no_samples_is_a_no_op():
    class RejectsEmpty(RiggedScorer):
        def score(self, samples):
            assert samples, "score called on an empty batch"
            return super().score(samples)

    evaluator = Evaluator()
    evaluator.add(RejectsEmpty(1.0), [])
    assert (evaluator.hyps, evaluator.nll_sum, evaluator.token_sum) == ([], 0.0, 0)
    evaluator.add(RejectsEmpty(1.0), stub_samples([0]))
    assert evaluator.report().n_samples == 1


# ---------------------------------------------------------------------------
# selection accuracy


def test_selection_accuracy_all_correct():
    priors = [np.array([0.9, 0.1]), np.array([0.2, 0.8])]
    assert selection_accuracy(priors, [0, 1]) == 1.0


def test_selection_accuracy_none_correct():
    priors = [np.array([0.9, 0.1]), np.array([0.2, 0.8])]
    assert selection_accuracy(priors, [1, 0]) == 0.0


def test_selection_accuracy_half():
    priors = [np.array([0.6, 0.4]), np.array([0.3, 0.7])]
    assert selection_accuracy(priors, [0, 0]) == 0.5


def test_selection_accuracy_first_index_wins_ties():
    assert selection_accuracy([np.array([0.5, 0.5])], [0]) == 1.0
    assert selection_accuracy([np.array([0.5, 0.5])], [1]) == 0.0


def test_selection_accuracy_contract_errors():
    with pytest.raises(ContractError):
        selection_accuracy([np.array([1.0])], [0, 1])
    with pytest.raises(ContractError):
        selection_accuracy([np.array([1.0])], [1])


# ---------------------------------------------------------------------------
# report


def test_eval_report_json_has_exactly_eight_keys():
    report = EvalReport(ppl=10.0, f1=0.5, bleu1=0.3, bleu2=0.2,
                        distinct1=0.1, distinct2=0.4, sel_acc=0.9, n_samples=7)
    obj = asdict(report)
    assert set(obj) == {"ppl", "f1", "bleu1", "bleu2",
                        "distinct1", "distinct2", "sel_acc", "n_samples"}
    assert EvalReport(**obj) == report
