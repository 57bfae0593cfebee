"""Evaluation suite: BLEU-1/2, DISTINCT-1/2, character F1, perplexity,
knowledge-selection accuracy.

BLEU is sentence-level with brevity penalty and no smoothing, averaged over
the corpus; a pair whose highest-order precision is zero contributes zero.
F1 is computed over character multisets. ``Evaluator`` reports perplexity
from teacher-forced responses scored with prior-fused knowledge, so the
response never informs its own score.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def _as_tokens(x):
    return x.split() if isinstance(x, str) else list(x)


def _ngrams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def sentence_bleu(hypothesis, reference, n):
    hyp = _as_tokens(hypothesis)
    ref = _as_tokens(reference)
    c, r = len(hyp), len(ref)
    if c == 0:
        return 0.0
    precisions = []
    for m in range(1, n + 1):
        hyp_counts = Counter(_ngrams(hyp, m))
        ref_counts = Counter(_ngrams(ref, m))
        total = sum(hyp_counts.values())
        if total == 0:
            continue  # hypothesis shorter than the order; order is undefined
        clipped = sum(min(count, ref_counts[g]) for g, count in hyp_counts.items())
        if clipped == 0:
            return 0.0
        precisions.append(clipped / total)
    if not precisions:
        return 0.0
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    prod = 1.0
    for p in precisions:
        prod *= p
    return bp * prod ** (1.0 / len(precisions))


def bleu_n(hypotheses, references, n):
    """Corpus mean of sentence-level cumulative BLEU-n."""
    if n not in (1, 2):
        raise ContractError(f"bleu order must be 1 or 2, got {n}")
    if len(hypotheses) != len(references):
        raise ContractError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        return 0.0
    return sum(sentence_bleu(h, r, n) for h, r in zip(hypotheses, references)) / len(hypotheses)


def distinct_n(hypotheses, n):
    """Distinct n-grams over total n-grams, pooled across the corpus."""
    if n not in (1, 2):
        raise ContractError(f"distinct order must be 1 or 2, got {n}")
    unique = set()
    total = 0
    for hyp in hypotheses:
        grams = _ngrams(_as_tokens(hyp), n)
        unique.update(grams)
        total += len(grams)
    return len(unique) / total if total else 0.0


def char_f1(hypothesis, reference):
    """Harmonic mean of precision/recall over character multisets."""
    if not hypothesis or not reference:
        return 0.0
    hyp_counts = Counter(hypothesis)
    ref_counts = Counter(reference)
    common = sum(min(count, ref_counts[ch]) for ch, count in hyp_counts.items())
    return 2.0 * common / (len(hypothesis) + len(reference))


def selection_accuracy(priors, gold_indices):
    """Fraction of samples whose highest-prior triplet is the gold one."""
    if len(priors) != len(gold_indices):
        raise ContractError(
            f"{len(priors)} prior vectors vs {len(gold_indices)} gold indices"
        )
    hits = 0
    for prior, gold in zip(priors, gold_indices):
        prior = np.asarray(prior)
        if not (0 <= gold < prior.shape[0]):
            raise ContractError(f"gold index {gold} outside {prior.shape[0]} triplets")
        hits += int(np.argmax(prior)) == gold
    return hits / len(priors) if priors else 0.0


@dataclass
class EvalReport:
    ppl: float
    f1: float
    bleu1: float
    bleu2: float
    distinct1: float
    distinct2: float
    sel_acc: float
    n_samples: int


class Evaluator:
    """Accumulates generation/scoring results across (possibly adapted) models.

    ``add`` scores its samples in one batched ``score`` call and decodes
    them in one batched ``generate`` call.
    """

    def __init__(self, max_len=20):
        self.max_len = max_len
        self.hyps = []
        self.refs = []
        self.nll_sum = 0.0
        self.token_sum = 0
        self.priors = []
        self.golds = []

    def add(self, model, samples):
        if not samples:
            return
        scores = model.score(samples)
        generated = model.generate([s.history for s in samples], [s.graph for s in samples],
                                   self.max_len)
        for sample, (nll, tokens, prior), (hyp_ids, _) in zip(samples, scores, generated):
            self.nll_sum += nll
            self.token_sum += tokens
            hyp = model.vocab.decode(hyp_ids)
            ref_ids = [i for i in sample.response if i != model.vocab.EOS]
            ref = model.vocab.decode(ref_ids)
            self.hyps.append(hyp)
            self.refs.append(ref)
            self.priors.append(prior)
            self.golds.append(sample.gold_triplet)

    def report(self):
        n = len(self.hyps)
        if n == 0:
            raise ContractError("evaluator saw no samples")
        f1 = sum(
            char_f1(" ".join(h), " ".join(r)) for h, r in zip(self.hyps, self.refs)
        ) / n
        return EvalReport(
            ppl=math.exp(self.nll_sum / self.token_sum),
            f1=f1,
            bleu1=bleu_n(self.hyps, self.refs, 1),
            bleu2=bleu_n(self.hyps, self.refs, 2),
            distinct1=distinct_n(self.hyps, 1),
            distinct2=distinct_n(self.hyps, 2),
            sel_acc=selection_accuracy(self.priors, self.golds),
            n_samples=n,
        )
