"""Knowledge-grounded dialogue generator.

One model bundles: a bidirectional GRU history encoder, a GRU response
encoder, a per-triplet GRU knowledge encoder, prior/posterior triplet
selection distributions, a knowledge-fused attentive GRU decoder, and the
three training losses (selection KL, token NLL, bag-of-words) whose sum is
the training objective.

Knowledge fusion is the deterministic weighted sum of triplet vectors:
posterior-weighted during training, prior-weighted at inference and when
scoring (the response must not leak into its own score).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dialogue import KnowledgeGraph
from .errors import ContractError, DimensionError, NumericError
from .layers import (
    build_attention,
    build_embedding,
    build_gru_cell,
    build_mlp,
    attend,
    gru_encode,
    mlp_forward,
)
from .params import ParamStore
from . import tensor as T
from .tensor import Tensor

PROB_FLOOR = 1e-12
_NEG_ONE = Tensor(-1.0)


def prior_distribution(k_matrix, x_summary):
    """Triplet selection from history alone: softmax over k_i . x."""
    if k_matrix.values.ndim != 2 or k_matrix.shape[1] != x_summary.shape[0]:
        raise DimensionError(
            f"prior: knowledge matrix {k_matrix.shape} does not match summary {x_summary.shape}"
        )
    return T.softmax(T.matmul(k_matrix, x_summary))


def posterior_distribution(k_matrix, x_summary, y_summary, posterior_mlp):
    """Triplet selection with the gold response visible: softmax over k_i . MLP([x; y])."""
    joint = T.concat([x_summary, y_summary])
    if joint.shape != (posterior_mlp.input_dim,):
        raise DimensionError(
            f"posterior: [x; y] has dim {joint.shape[0]}, "
            f"mlp expects {posterior_mlp.input_dim}"
        )
    projected = mlp_forward(posterior_mlp, joint)
    if k_matrix.values.ndim != 2 or k_matrix.shape[1] != projected.shape[0]:
        raise DimensionError(
            f"posterior: knowledge matrix {k_matrix.shape} does not match "
            f"projection {projected.shape}"
        )
    return T.softmax(T.matmul(k_matrix, projected))


def kl_div_loss(posterior, prior):
    """sum_i post_i * log(post_i / prior_i), probabilities floored before log."""
    if posterior.shape != prior.shape:
        raise ContractError(
            f"kl: distributions differ in length, {posterior.shape} vs {prior.shape}"
        )
    diff = T.sub(T.log(posterior, floor=PROB_FLOOR), T.log(prior, floor=PROB_FLOOR))
    return T.sum_(T.mul(posterior, diff))


def nll_loss(token_logits, response):
    """Teacher-forced cross entropy, summed (not averaged) over positions.

    The expectation over selected knowledge is realized upstream: the logits
    are produced from the fused knowledge vector.
    """
    if len(token_logits) != len(response):
        raise ContractError(
            f"nll: {len(token_logits)} logit vectors for {len(response)} target tokens"
        )
    picked = []
    for logits, target in zip(token_logits, response):
        vocab = logits.shape[0]
        if not (0 <= target < vocab):
            raise ContractError(f"nll: target token {target} outside vocab of {vocab}")
        probs = T.softmax(logits)
        picked.append(T.log(T.slice_(probs, target, target + 1), floor=PROB_FLOOR))
    return T.mul(T.sum_(T.concat(picked)), _NEG_ONE)


def bow_loss(fused_knowledge, response, bow_mlp):
    """Position-independent token loss forcing the fused knowledge to predict the response."""
    probs = T.softmax(mlp_forward(bow_mlp, fused_knowledge))
    vocab = probs.shape[0]
    for target in response:
        if not (0 <= target < vocab):
            raise ContractError(f"bow: target token {target} outside vocab of {vocab}")
    rows = T.gather(T.reshape(probs, (vocab, 1)), list(response))
    return T.mul(T.sum_(T.log(rows, floor=PROB_FLOOR)), _NEG_ONE)


def total_loss(kl, nll, bow):
    """Sum of the three loss terms."""
    parts = []
    for name, part in (("kl", kl), ("nll", nll), ("bow", bow)):
        if not isinstance(part, Tensor):
            part = Tensor(float(part))
        if not np.all(np.isfinite(part.values)):
            raise NumericError(f"total_loss: non-finite {name} term")
        parts.append(part)
    return T.add(T.add(parts[0], parts[1]), parts[2])


class ScoreResult(NamedTuple):
    nll: float
    tokens: int
    prior: np.ndarray


@dataclass
class ModelOutput:
    prior: np.ndarray
    posterior: np.ndarray
    token_logits: list
    kl: float
    nll: float
    bow: float
    total: float
    loss: Tensor  # recorded total, usable for backward


class DialogueModel:
    """Full generator over a fixed vocabulary.

    Parameter naming is stable and checkpoint-visible: everything lives
    under "model.*" ("model.enc.fwd.W_z", "model.att.v", ...).
    """

    def __init__(self, vocab, embed_dim, hidden_dim, seed=0,
                 loss_weights=(1.0, 1.0, 1.0)):
        self.vocab = vocab
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.seed = seed
        self.loss_weights = tuple(float(w) for w in loss_weights)

        V, E, H = len(vocab), embed_dim, hidden_dim
        store = ParamStore(seed)
        self.embed = build_embedding(store, "model.embed", V, E)
        self.enc_fwd = build_gru_cell(store, "model.enc.fwd", E, H)
        self.enc_bwd = build_gru_cell(store, "model.enc.bwd", E, H)
        self.enc_proj_W = store.create("model.enc.proj.W", (H, 2 * H), init="xavier")
        self.enc_proj_b = store.create("model.enc.proj.b", (H,), init="zeros")
        self.resp_cell = build_gru_cell(store, "model.resp.fwd", E, H)
        self.know_cell = build_gru_cell(store, "model.know.fwd", E, H)
        self.know_proj_W = store.create("model.know.proj.W", (H, H), init="xavier")
        self.know_proj_b = store.create("model.know.proj.b", (H,), init="zeros")
        self.post_mlp = build_mlp(store, "model.post", (2 * H, H, H))
        self.att = build_attention(store, "model.att", query_dim=H, key_dim=2 * H, att_dim=H)
        self.dec_cell = build_gru_cell(store, "model.dec", E + 2 * H + H, H)
        self.out_W = store.create("model.out.W", (V, H), init="xavier")
        self.out_b = store.create("model.out.b", (V,), init="zeros")
        self.bow_mlp = build_mlp(store, "model.bow", (H, V))
        self.store = store

    # -- encoders ----------------------------------------------------------

    def encode_history(self, tokens):
        states, summary = gru_encode(tokens, self.embed, self.enc_fwd, self.enc_bwd)
        x_summary = T.add(T.matmul(self.enc_proj_W, summary), self.enc_proj_b)
        return states, x_summary

    def encode_response(self, tokens):
        _, summary = gru_encode(tokens, self.embed, self.resp_cell)
        return summary

    def encode_knowledge(self, graph):
        """One row per triplet: GRU over 'head relation tail', projected to hidden_dim."""
        if not isinstance(graph, KnowledgeGraph) or len(graph) == 0:
            raise ContractError("encode_knowledge needs a non-empty knowledge graph")
        rows = []
        for triplet in graph.triplets:
            ids = self.vocab.encode(triplet.tokens())
            _, summary = gru_encode(ids, self.embed, self.know_cell)
            rows.append(T.add(T.matmul(self.know_proj_W, summary), self.know_proj_b))
        return T.stack(rows)

    def fuse_knowledge(self, k_matrix, weights):
        """Deterministic expectation: sum_i weights_i * k_i."""
        return T.matmul(weights, k_matrix)

    # -- decoding ----------------------------------------------------------

    def _decode_step(self, prev_token, hidden, key_stack, fused_knowledge):
        """One attentive decoder step; projecting the new state is the caller's job."""
        context, _ = attend(self.att, hidden, key_stack)
        x = T.concat([self.embed.lookup(prev_token), context, fused_knowledge])
        return self.dec_cell.step(x, hidden)

    def decode_with_knowledge(self, history_states, fused_knowledge, response):
        """Teacher-forced pass; one vocab-logit vector per response position.

        The recurrence runs first; the output projection then maps all the
        stacked states at once, so backward builds one (V, H) product for
        ``out.W`` rather than one per position.
        """
        if not response:
            raise ContractError("decode_with_knowledge on empty response")
        if fused_knowledge.shape != (self.hidden_dim,):
            raise DimensionError(
                f"fused knowledge shape {fused_knowledge.shape}, "
                f"expected ({self.hidden_dim},)"
            )
        key_stack = T.stack(history_states)
        hidden = self.dec_cell.initial_state()
        prev = self.vocab.BOS
        states = []
        for target in response:
            hidden = self._decode_step(prev, hidden, key_stack, fused_knowledge)
            states.append(hidden)
            prev = target
        logits = T.add(T.matmul(T.stack(states), T.transpose(self.out_W)), self.out_b)
        vocab = len(self.vocab)
        return [T.reshape(T.slice_(logits, t, t + 1), (vocab,)) for t in range(len(states))]

    def generate(self, history, graph, max_len):
        """Greedy decoding from BOS, stopping at EOS or max_len.

        Inference-time knowledge comes from the prior (the response is not
        available). Returns (token ids, selected triplet index).
        """
        if max_len < 1:
            raise ContractError(f"max_len must be >= 1, got {max_len}")
        history_states, x_summary = self.encode_history(history)
        k_matrix = self.encode_knowledge(graph)
        prior = prior_distribution(k_matrix, x_summary)
        fused = self.fuse_knowledge(k_matrix, prior)
        selected = int(np.argmax(prior.values))

        key_stack = T.stack(history_states)
        hidden = self.dec_cell.initial_state()
        prev = self.vocab.BOS
        out = []
        for _ in range(max_len):
            hidden = self._decode_step(prev, hidden, key_stack, fused)
            logits = T.add(T.matmul(self.out_W, hidden), self.out_b)
            nxt = int(np.argmax(logits.values))
            if nxt == self.vocab.EOS:
                break
            out.append(nxt)
            prev = nxt
        return out, selected

    # -- objectives --------------------------------------------------------

    def forward(self, sample, k_matrix=None):
        """Full training pass over one sample; losses are weighted terms.

        k_matrix lets batch callers reuse one knowledge encoding across
        samples sharing a graph (identical values, shared gradient path).
        """
        history_states, x_summary = self.encode_history(sample.history)
        y_summary = self.encode_response(sample.response)
        if k_matrix is None:
            k_matrix = self.encode_knowledge(sample.graph)

        prior = prior_distribution(k_matrix, x_summary)
        posterior = posterior_distribution(k_matrix, x_summary, y_summary, self.post_mlp)
        kl = kl_div_loss(posterior, prior)

        fused = self.fuse_knowledge(k_matrix, posterior)
        logits = self.decode_with_knowledge(history_states, fused, sample.response)
        nll = nll_loss(logits, sample.response)
        bow = bow_loss(fused, sample.response, self.bow_mlp)

        w_kl, w_nll, w_bow = self.loss_weights
        if w_kl != 1.0:
            kl = T.mul(kl, Tensor(w_kl))
        if w_nll != 1.0:
            nll = T.mul(nll, Tensor(w_nll))
        if w_bow != 1.0:
            bow = T.mul(bow, Tensor(w_bow))
        total = total_loss(kl, nll, bow)

        return ModelOutput(
            prior=prior.values.copy(),
            posterior=posterior.values.copy(),
            token_logits=[l.values.copy() for l in logits],
            kl=kl.item(),
            nll=nll.item(),
            bow=bow.item(),
            total=total.item(),
            loss=total,
        )

    def batch_objective(self, samples):
        """Mean total loss over a sample batch plus per-sample stat rows.

        Runs under whatever tape is currently recording (or none).
        """
        if not samples:
            raise ContractError("batch_objective on empty sample list")
        acc = None
        stats = []
        k_cache = {}
        for sample in samples:
            key = id(sample.graph)
            if key not in k_cache:
                k_cache[key] = self.encode_knowledge(sample.graph)
            out = self.forward(sample, k_matrix=k_cache[key])
            acc = out.loss if acc is None else T.add(acc, out.loss)
            sel_ok = None
            if sample.gold_triplet is not None:
                sel_ok = int(np.argmax(out.prior)) == sample.gold_triplet
            stats.append({
                "kl": out.kl, "nll": out.nll, "bow": out.bow,
                "total": out.total, "sel_ok": sel_ok,
            })
        loss = T.mul(acc, Tensor(1.0 / len(samples)))
        return loss, stats

    def score(self, sample):
        """Prior-fused teacher-forced NLL of a sample (no posterior, no recording)."""
        history_states, x_summary = self.encode_history(sample.history)
        k_matrix = self.encode_knowledge(sample.graph)
        prior = prior_distribution(k_matrix, x_summary)
        fused = self.fuse_knowledge(k_matrix, prior)
        logits = self.decode_with_knowledge(history_states, fused, sample.response)
        nll = nll_loss(logits, sample.response)
        return ScoreResult(nll.item(), len(sample.response), prior.values.copy())

    # -- persistence -------------------------------------------------------

    def clone(self):
        twin = DialogueModel(self.vocab, self.embed_dim, self.hidden_dim,
                             seed=self.seed, loss_weights=self.loss_weights)
        twin.store.restore(self.store.snapshot())
        return twin

    def load_values(self, arrays):
        """Install checkpointed arrays; names and shapes must match exactly."""
        mine = set(self.store.names())
        theirs = set(arrays.keys())
        if mine != theirs:
            missing = sorted(mine - theirs)
            extra = sorted(theirs - mine)
            raise ContractError(
                f"checkpoint does not match model (missing {missing[:3]}, extra {extra[:3]})"
            )
        for name, vals in arrays.items():
            self.store.set_values(name, vals)


def mean_loss_components(stats):
    """Aggregate per-sample stat rows into mean components and selection accuracy."""
    n = len(stats)
    out = {key: sum(s[key] for s in stats) / n for key in ("kl", "nll", "bow", "total")}
    known = [s["sel_ok"] for s in stats if s["sel_ok"] is not None]
    out["sel_acc"] = (sum(known) / len(known)) if known else 0.0
    return out


def infer_dims(arrays):
    """Recover (vocab_size, embed_dim, hidden_dim) from checkpoint arrays."""
    try:
        V, E = arrays["model.embed.W"].shape
        H = arrays["model.enc.proj.W"].shape[0]
    except (KeyError, ValueError) as exc:
        raise ContractError(f"checkpoint lacks model parameters: {exc}") from exc
    return V, E, H
