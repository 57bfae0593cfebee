"""Knowledge-grounded dialogue generator.

One model bundles: a bidirectional GRU history encoder, a GRU response
encoder, a per-triplet GRU knowledge encoder, prior/posterior triplet
selection distributions, a knowledge-fused attentive GRU decoder, and the
three training losses (selection KL, token NLL, bag-of-words) whose sum is
the training objective.

The encoders and the decoder run a whole sample batch at once, one GRU step
per position, on (B, ·) matrices; selection, fusion and the losses run per
sample. ``forward`` and ``score`` take a sample batch; ``generate`` decodes
one history greedily at batch size 1.

Knowledge fusion is the deterministic weighted sum of triplet vectors:
posterior-weighted during training, prior-weighted at inference and when
scoring (the response must not leak into its own score).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dialogue import KnowledgeGraph
from .errors import ContractError, DimensionError
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

    token_logits is (len(response), V), one row per position. The
    expectation over selected knowledge is realized upstream: the logits
    are produced from the fused knowledge vector.
    """
    if token_logits.values.ndim != 2 or token_logits.shape[0] != len(response):
        raise ContractError(
            f"nll: logits of shape {token_logits.shape} for {len(response)} target tokens"
        )
    vocab = token_logits.shape[1]
    for target in response:
        if not (0 <= target < vocab):
            raise ContractError(f"nll: target token {target} outside vocab of {vocab}")
    probs = T.reshape(T.softmax(token_logits), (len(response) * vocab, 1))
    picked = T.gather(probs, [t * vocab + target for t, target in enumerate(response)])
    return T.mul(T.sum_(T.log(picked, floor=PROB_FLOOR)), _NEG_ONE)


def bow_loss(fused_knowledge, response, bow_mlp):
    """Position-independent token loss forcing the fused knowledge to predict the response."""
    probs = T.softmax(mlp_forward(bow_mlp, fused_knowledge))
    vocab = probs.shape[0]
    for target in response:
        if not (0 <= target < vocab):
            raise ContractError(f"bow: target token {target} outside vocab of {vocab}")
    rows = T.gather(T.reshape(probs, (vocab, 1)), list(response))
    return T.mul(T.sum_(T.log(rows, floor=PROB_FLOOR)), _NEG_ONE)


def _row(matrix, i):
    """Row i of a (B, n) matrix, as an (n,) vector."""
    return T.reshape(T.slice_(matrix, i, i + 1), (matrix.shape[1],))


class ScoreResult(NamedTuple):
    nll: float
    tokens: int
    prior: np.ndarray


class HistoryEncoding(NamedTuple):
    """A history batch as encode_history returns it."""

    states: Tensor   # (B, L, 2H): [forward_t; backward_t] per position
    lengths: tuple   # tokens per history; attention ignores positions past them
    summary: Tensor  # (B, H): the projected [final forward; final backward]


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

    def encode_history(self, histories):
        """Bidirectional GRU over a batch of token-index histories."""
        states, summary = gru_encode(histories, self.embed, self.enc_fwd, self.enc_bwd)
        x_summary = T.add(T.matmul(summary, T.transpose(self.enc_proj_W)), self.enc_proj_b)
        return HistoryEncoding(T.stack(states, axis=1), tuple(len(h) for h in histories),
                               x_summary)

    def encode_response(self, responses):
        """(B, H) final GRU states of a batch of token-index responses."""
        _, summary = gru_encode(responses, self.embed, self.resp_cell)
        return summary

    def encode_knowledge(self, graphs):
        """One (n_triplets, H) matrix per graph, a row per triplet.

        A row is a GRU over the triplet's 'head relation tail' tokens,
        projected to hidden_dim. The triplets of all the graphs run as one
        batch.
        """
        if not graphs or not all(isinstance(g, KnowledgeGraph) and len(g) for g in graphs):
            raise ContractError("encode_knowledge needs non-empty knowledge graphs")
        ids = [self.vocab.encode(t.tokens()) for g in graphs for t in g.triplets]
        _, summary = gru_encode(ids, self.embed, self.know_cell)
        rows = T.add(T.matmul(summary, T.transpose(self.know_proj_W)), self.know_proj_b)
        matrices, start = [], 0
        for g in graphs:
            matrices.append(T.slice_(rows, start, start + len(g)))
            start += len(g)
        return matrices

    def fuse_knowledge(self, k_matrix, weights):
        """Deterministic expectation: sum_i weights_i * k_i."""
        return T.matmul(weights, k_matrix)

    # -- decoding ----------------------------------------------------------

    def _decode_step(self, prev_tokens, hidden, keys, fused, mats):
        """One attentive decoder step for a batch; projecting the new state is the caller's job."""
        context, _ = attend(self.att, hidden, keys)
        x = T.concat([self.embed.lookup(prev_tokens), context, fused], axis=1)
        return self.dec_cell.step(x, hidden, mats)

    def decode_with_knowledge(self, history, fused, responses):
        """Teacher-forced pass over a batch; vocab logits, one row per response position.

        history is encode_history's result and fused the (B, H) knowledge
        vectors. Rows run sample by sample: sample i's positions in order,
        then sample i + 1's. The recurrence runs first, one step per
        position for the whole batch; the output projection then maps every
        row at once, so backward builds one (V, H) product for ``out.W``
        rather than one per position.
        """
        if not responses or not all(responses):
            raise ContractError("decode_with_knowledge on empty response")
        batch, H = len(responses), self.hidden_dim
        if fused.shape != (batch, H):
            raise DimensionError(f"fused knowledge shape {fused.shape}, expected ({batch}, {H})")
        keys = self.att.prepare(history.states, history.lengths)
        mats = self.dec_cell.transposed()
        hidden = self.dec_cell.initial_state(batch)
        prev = [self.vocab.BOS] * batch
        steps = max(len(r) for r in responses)
        # A finished response keeps stepping on PAD; those states are dropped
        # below, so no mask is needed.
        states = []
        for t in range(steps):
            hidden = self._decode_step(prev, hidden, keys, fused, mats)
            states.append(hidden)
            prev = [r[t] if t < len(r) else self.vocab.PAD for r in responses]
        rows = T.reshape(T.stack(states, axis=1), (batch * steps, H))
        if any(len(r) < steps for r in responses):
            rows = T.gather(rows, [i * steps + t for i, r in enumerate(responses)
                                   for t in range(len(r))])
        return T.add(T.matmul(rows, T.transpose(self.out_W)), self.out_b)

    def _encode_with_prior(self, histories, graphs):
        """(history encoding, one (x summary, knowledge matrix, prior) per sample).

        Each distinct graph is encoded once, found by identity: samples sharing
        a graph share one encoding (identical values, shared gradient path).
        """
        history = self.encode_history(histories)
        unique = list({id(g): g for g in graphs}.values())
        by_id = dict(zip(map(id, unique), self.encode_knowledge(unique)))
        heads = []
        for i, graph in enumerate(graphs):
            x_summary, k_matrix = _row(history.summary, i), by_id[id(graph)]
            heads.append((x_summary, k_matrix, prior_distribution(k_matrix, x_summary)))
        return history, heads

    def generate(self, history, graph, max_len):
        """Greedy decoding from BOS, stopping at EOS or max_len.

        Inference-time knowledge comes from the prior (the response is not
        available). Returns (token ids, selected triplet index).
        """
        if max_len < 1:
            raise ContractError(f"max_len must be >= 1, got {max_len}")
        encoded, [(_, k_matrix, prior)] = self._encode_with_prior([history], [graph])
        fused = T.stack([self.fuse_knowledge(k_matrix, prior)])
        selected = int(np.argmax(prior.values))

        keys = self.att.prepare(encoded.states, encoded.lengths)
        mats = self.dec_cell.transposed()
        out_Wt = T.transpose(self.out_W)
        hidden = self.dec_cell.initial_state(1)
        prev = self.vocab.BOS
        out = []
        for _ in range(max_len):
            hidden = self._decode_step([prev], hidden, keys, fused, mats)
            logits = T.add(T.matmul(hidden, out_Wt), self.out_b)
            nxt = int(np.argmax(logits.values))
            if nxt == self.vocab.EOS:
                break
            out.append(nxt)
            prev = nxt
        return out, selected

    # -- objectives --------------------------------------------------------

    def forward(self, samples):
        """Full training pass over a sample batch; (recorded totals, stat rows).

        Both lists hold one entry per sample. A stat row holds the weighted
        loss terms ``kl``, ``nll`` and ``bow``, their sum ``total``, and
        ``sel_ok``: whether the prior's top triplet is the gold one.

        The recurrences run once for the batch; selection, fusion and the
        weighted loss terms run per sample. Samples sharing a graph share
        one knowledge encoding.
        """
        responses = [s.response for s in samples]
        history, selection = self._encode_with_prior(
            [s.history for s in samples], [s.graph for s in samples])
        y_summary = self.encode_response(responses)

        heads = []
        for i, (x_summary, k_matrix, prior) in enumerate(selection):
            posterior = posterior_distribution(k_matrix, x_summary, _row(y_summary, i),
                                               self.post_mlp)
            heads.append((prior, posterior, self.fuse_knowledge(k_matrix, posterior)))
        logits = self.decode_with_knowledge(history, T.stack([h[2] for h in heads]), responses)

        w_kl, w_nll, w_bow = self.loss_weights
        totals, rows, start = [], [], 0
        for sample, response, (prior, posterior, fused) in zip(samples, responses, heads):
            sample_logits = T.slice_(logits, start, start + len(response))
            start += len(response)
            kl = kl_div_loss(posterior, prior)
            nll = nll_loss(sample_logits, response)
            bow = bow_loss(fused, response, self.bow_mlp)
            if w_kl != 1.0:
                kl = T.mul(kl, Tensor(w_kl))
            if w_nll != 1.0:
                nll = T.mul(nll, Tensor(w_nll))
            if w_bow != 1.0:
                bow = T.mul(bow, Tensor(w_bow))
            total = T.add(T.add(kl, nll), bow)
            totals.append(total)
            rows.append({
                "kl": kl.item(), "nll": nll.item(), "bow": bow.item(),
                "total": total.item(),
                "sel_ok": int(np.argmax(prior.values)) == sample.gold_triplet,
            })
        return totals, rows

    def batch_objective(self, samples):
        """Mean total loss over a sample batch plus forward's per-sample stat rows.

        Runs under whatever tape is currently recording (or none).
        """
        totals, rows = self.forward(samples)
        acc = totals[0]
        for total in totals[1:]:
            acc = T.add(acc, total)
        return T.mul(acc, Tensor(1.0 / len(samples))), rows

    def score(self, samples):
        """Prior-fused teacher-forced NLL of a sample batch (no posterior, no recording).

        One ScoreResult per sample, in order; each NLL is over its own logit rows.
        """
        responses = [s.response for s in samples]
        history, selection = self._encode_with_prior(
            [s.history for s in samples], [s.graph for s in samples])
        fused = T.stack([self.fuse_knowledge(k, prior) for _, k, prior in selection])
        logits = self.decode_with_knowledge(history, fused, responses)
        results, start = [], 0
        for response, (_, _, prior) in zip(responses, selection):
            nll = nll_loss(T.slice_(logits, start, start + len(response)), response)
            start += len(response)
            results.append(ScoreResult(nll.item(), len(response), prior.values.copy()))
        return results

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
    out["sel_acc"] = sum(s["sel_ok"] for s in stats) / n
    return out


def infer_dims(arrays):
    """Recover (vocab_size, embed_dim, hidden_dim) from checkpoint arrays."""
    try:
        embed, proj = arrays["model.embed.W"], arrays["model.enc.proj.W"]
    except KeyError as exc:
        raise ContractError(f"checkpoint lacks model parameters: {exc}") from exc
    if embed.ndim != 2 or proj.ndim != 2:
        raise ContractError("checkpoint entries 'model.embed.W' and 'model.enc.proj.W' "
                            "must be 2-d")
    V, E = embed.shape
    return V, E, proj.shape[0]
