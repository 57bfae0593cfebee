"""Knowledge-grounded dialogue generator.

One model bundles: a bidirectional GRU history encoder, a GRU response
encoder, a per-triplet GRU knowledge encoder, prior/posterior triplet
selection distributions, a knowledge-fused attentive GRU decoder, and the
three training losses (selection KL, token NLL, bag-of-words) whose sum is
the training objective.

Every encoder of a sample batch (history forward and backward, triplets,
responses) steps in ``encode``'s one ``gru_encode``, in lockstep groups: the
longest run and every run of at most its rows step together, as many steps
as the longest sequence. A meta-training batch has fewer triplets than
samples, so it steps in one group; a chat turn's one history steps as one
row and its graph's triplets apart, over their own length. The decoder runs
the whole batch one GRU step per position on (B, ·) matrices; selection,
fusion and the losses run once per batch too, on (B, ·) rows, with a
batch's smaller graphs padded and masked. ``forward`` and ``score`` take a sample batch, whose
samples may come from many tasks; ``forward`` returns each sample's loss terms,
so a caller batching several tasks summarises each task's rows with
``SampleTerms.summary``. ``generate`` decodes a batch of histories greedily,
encoded once and stepped together, each row to its own EOS; one history with
one graph, as ``chat`` passes, is decoded as a batch of one. Each of the
three runs under one ``tensor.fp_trap``; only matmul and affine results are
scanned.

Knowledge fusion is the deterministic weighted sum of triplet vectors:
posterior-weighted during training, prior-weighted at inference and when
scoring (the response must not leak into its own score).
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .dialogue import KnowledgeGraph
from .errors import ContractError, DimensionError
from .layers import (
    Ragged,
    build_attention,
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


def _select(k_stack, query, mask):
    """(B, n) rows of softmax_j(k_ij . q_i), with mask (or None) added to the scores."""
    if k_stack.values.ndim != 3 or query.shape != (k_stack.shape[0], k_stack.shape[2]):
        raise DimensionError(
            f"selection: knowledge stack {k_stack.shape} does not match query {query.shape}"
        )
    B, n, H = k_stack.shape
    scores = T.reshape(T.matmul(k_stack, T.reshape(query, (B, H, 1))), (B, n))
    return T.softmax(scores if mask is None else T.add(scores, mask))


def prior_distribution(k_stack, x_summary, mask=None):
    """Triplet selection from history alone: row i is softmax_j over k_ij . x_i."""
    return _select(k_stack, x_summary, mask)


def posterior_distribution(k_stack, x_summary, y_summary, posterior_mlp, mask=None):
    """Triplet selection with the gold response visible: softmax_j over k_ij . MLP([x_i; y_i])."""
    joint = T.concat([x_summary, y_summary], axis=1)
    return _select(k_stack, mlp_forward(posterior_mlp, joint), mask)


def kl_div_loss(posterior, prior):
    """Row i: sum_j post_ij * log(post_ij / prior_ij), probabilities floored before log."""
    if posterior.shape != prior.shape or posterior.values.ndim != 2:
        raise ContractError(
            f"kl: distributions differ in shape, {posterior.shape} vs {prior.shape}"
        )
    diff = T.sub(T.log(posterior, floor=PROB_FLOOR), T.log(prior, floor=PROB_FLOOR))
    return T.matmul(T.mul(posterior, diff), Tensor(np.ones(prior.shape[1])))


def _neg_log_sums(kind, probs, rows, responses):
    """(B,) sums of -log probs[row, target] over each response's tokens.

    rows holds the probs row of every response token, in order, so one
    constant (B, N) matrix of -1s sums them per response.
    """
    count, vocab = probs.shape
    targets = np.fromiter(chain.from_iterable(responses), np.int64)
    bad = (targets < 0) | (targets >= vocab)
    if bad.any():
        raise ContractError(f"{kind}: target token {targets[bad][0]} outside vocab of {vocab}")
    picked = T.gather(T.reshape(probs, (count * vocab, 1)), rows * vocab + targets)
    log_p = T.log(T.reshape(picked, (len(targets),)), floor=PROB_FLOOR)
    segments = -np.repeat(np.eye(len(responses)), [len(r) for r in responses], axis=1)
    return T.matmul(Tensor(segments), log_p)


def nll_loss(token_logits, responses):
    """Teacher-forced cross entropy of each response, summed (not averaged) over positions.

    token_logits is (sum of lengths, V): each response's positions in order,
    then the next response's. The expectation over selected knowledge is
    realized upstream: the logits are produced from the fused knowledge.
    """
    count = sum(len(r) for r in responses)
    if token_logits.values.ndim != 2 or token_logits.shape[0] != count:
        raise ContractError(
            f"nll: logits of shape {token_logits.shape} for {count} target tokens"
        )
    return _neg_log_sums("nll", T.softmax(token_logits), np.arange(count), responses)


def bow_loss(fused_knowledge, responses, bow_mlp):
    """Position-independent token loss forcing each fused knowledge row to predict its response."""
    if fused_knowledge.shape[0] != len(responses):
        raise ContractError(f"bow: {fused_knowledge.shape[0]} knowledge rows "
                            f"for {len(responses)} responses")
    probs = T.softmax(mlp_forward(bow_mlp, fused_knowledge))
    rows = np.repeat(np.arange(len(responses)), list(map(len, responses)))
    return _neg_log_sums("bow", probs, rows, responses)


class SampleTerms(NamedTuple):
    """Each sample's weighted loss terms and selection hit, as forward returns them."""

    kl: np.ndarray     # (B,)
    nll: np.ndarray    # (B,)
    bow: np.ndarray    # (B,)
    total: np.ndarray  # (B,): kl + nll + bow
    hit: np.ndarray    # (B,) bool: the prior's top triplet is the gold one

    def summary(self, start=0, stop=None):
        """The loss summary of rows start:stop.

        The means of ``kl``, ``nll``, ``bow`` and ``total``, and ``sel_acc``:
        the share of those samples whose prior's top triplet is the gold one.
        """
        rows = slice(start, stop)
        count = len(self.total[rows])
        out = {key: sum(getattr(self, key)[rows].tolist()) / count
               for key in ("kl", "nll", "bow", "total")}
        out["sel_acc"] = int(np.count_nonzero(self.hit[rows])) / count
        return out


class ScoreResult(NamedTuple):
    nll: float
    tokens: int
    prior: np.ndarray


class HistoryEncoding(NamedTuple):
    """A history batch as encode_history returns it."""

    states: Tensor       # (B, L, 2H): [forward_t; backward_t] per position
    lengths: np.ndarray  # tokens per history; attention ignores positions past them
    summary: Tensor      # (B, H): the projected [final forward; final backward]


class Knowledge(NamedTuple):
    """One graph per sample, as encode_knowledge returns it."""

    rows: Tensor  # (B, n, H): sample i's triplet vectors, padded to the largest graph
    mask: Tensor  # (B, n): 0 on real triplets, MASKED on padding; None without padding


class Encoding(NamedTuple):
    """A sample batch as DialogueModel.encode returns it."""

    history: HistoryEncoding
    knowledge: Knowledge
    prior: Tensor     # (B, n): triplet selection from the history alone
    response: Tensor  # (B, H): final response states; None unless responses were given


# The runs of DialogueModel.encode, in order.
HISTORY_FWD, HISTORY_BWD, KNOWLEDGE, RESPONSE = range(4)


def _distinct(graphs):
    """The distinct graphs of a batch, by identity, in first-seen order."""
    return list({id(g): g for g in graphs}.values())


class DialogueModel:
    """Full generator over a fixed vocabulary.

    Parameter naming is stable and checkpoint-visible: everything lives
    under "model.*" ("model.enc.fwd.W_z", "model.att.v", ...). seed None
    draws nothing: every parameter starts at zero, for a clone to restore.
    """

    def __init__(self, vocab, embed_dim, hidden_dim, seed=0,
                 loss_weights=(1.0, 1.0, 1.0)):
        self.vocab = vocab
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.loss_weights = tuple(float(w) for w in loss_weights)

        V, E, H = len(vocab), embed_dim, hidden_dim
        store = ParamStore(seed)
        with store.building():
            self.embed = store.create("model.embed.W", (V, E), init="uniform")
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

    def encode(self, histories, graphs, responses=None):
        """Every encoder of a sample batch as one gru_encode, in lockstep groups.

        The runs are the history forward and backward, each distinct graph's
        triplets, found by identity, and, when responses are given, the
        response encoder. gru_encode steps the triplets apart only when they
        are shorter than the longest history or response and outnumber the
        samples, as beside one chat history; encode_history,
        encode_knowledge and encode_response read their results out of the
        shared states with one gather each.
        """
        if not graphs or not all(isinstance(g, KnowledgeGraph) and len(g) for g in graphs):
            raise ContractError("encode needs non-empty knowledge graphs")
        triplets = [self.vocab.encode(t.tokens()) for g in _distinct(graphs) for t in g.triplets]
        runs = [(self.enc_fwd, histories, False), (self.enc_bwd, histories, True),
                (self.know_cell, triplets, False)]
        if responses is not None:
            runs.append((self.resp_cell, responses, False))
        states = gru_encode(self.embed, runs)
        history = self.encode_history(states)
        knowledge = self.encode_knowledge(states, graphs)
        prior = prior_distribution(knowledge.rows, history.summary, knowledge.mask)
        response = None if responses is None else self.encode_response(states)
        return Encoding(history, knowledge, prior, response)

    def encode_history(self, states):
        """The bidirectional history encoding, read out of encode's states.

        A history's positions past its end repeat position 0; attention
        masks them.
        """
        lengths = states.lengths[HISTORY_FWD]
        positions = Ragged(lengths).positions
        (B, L), H = positions.shape, self.hidden_dim
        samples = np.arange(B)[:, None]
        index = np.stack([states.at(run, samples, positions)
                          for run in (HISTORY_FWD, HISTORY_BWD)], axis=-1)
        rows = T.reshape(T.gather(states.table, index.reshape(-1)), (B, L, 2 * H))
        finals = np.stack([states.finals(HISTORY_FWD), states.finals(HISTORY_BWD)], axis=1)
        summary = T.reshape(T.gather(states.table, finals.reshape(-1)), (B, 2 * H))
        x_summary = T.affine(((summary, T.transpose(self.enc_proj_W)),), self.enc_proj_b)
        return HistoryEncoding(rows, lengths, x_summary)

    def encode_response(self, states):
        """(B, H) final response states, read out of encode's states."""
        return T.gather(states.table, states.finals(RESPONSE))

    def encode_knowledge(self, states, graphs):
        """Sample i's graph as row i of a (B, n, H) triplet stack, n the largest graph.

        A triplet vector is the final state of the GRU over its 'head
        relation tail' tokens, read out of encode's states and projected to
        hidden_dim. Samples sharing a graph read the same states. A smaller
        graph is padded with copies of its first row, which the mask keeps
        out of every selection. Selection and fusion then run once per batch
        over the whole stack.
        """
        unique = _distinct(graphs)
        starts = dict(zip(map(id, unique), accumulate(map(len, unique), initial=0)))
        pad = Ragged(list(map(len, graphs)))
        first = np.array([starts[id(g)] for g in graphs])
        index = states.finals(KNOWLEDGE)[first[:, None] + pad.positions]
        summary = T.gather(states.table, index.reshape(-1))
        rows = T.affine(((summary, T.transpose(self.know_proj_W)),), self.know_proj_b)
        return Knowledge(T.reshape(rows, index.shape + (self.hidden_dim,)), pad.mask)

    def fuse_knowledge(self, k_stack, weights):
        """Deterministic expectation: row i is sum_j weights_ij * k_ij."""
        B, n, H = k_stack.shape
        return T.reshape(T.matmul(T.reshape(weights, (B, 1, n)), k_stack), (B, H))

    # -- decoding ----------------------------------------------------------

    def _decode_step(self, prev_tokens, hidden, keys, fused, mats):
        """One attentive decoder step for a batch; projecting the new state is the caller's job."""
        context, _ = attend(self.att, hidden, keys)
        x = T.concat([T.gather(self.embed, prev_tokens), context, fused], axis=1)
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
        pad = Ragged(list(map(len, responses)))
        # A finished response keeps stepping on PAD; those states are dropped
        # below, so no mask is needed.
        tokens = pad.tokens(responses, self.vocab.PAD)
        steps = tokens.shape[1]
        prev = np.full(batch, self.vocab.BOS)
        states = []
        for t in range(steps):
            hidden = self._decode_step(prev, hidden, keys, fused, mats)
            states.append(hidden)
            prev = tokens[:, t]
        rows = T.reshape(T.stack(states, axis=1), (batch * steps, H))
        if pad.mask is not None:
            rows = T.gather(rows, np.flatnonzero(pad.real))
        return T.affine(((rows, T.transpose(self.out_W)),), self.out_b)

    @T.fp_trap()
    def generate(self, histories, graphs, max_len):
        """Greedy decoding of a batch from BOS, each row stopping at its EOS or max_len.

        Takes lists of histories and graphs and returns one (token ids,
        selected triplet index) pair per row; one history with one
        KnowledgeGraph is decoded as a batch of one and returns its pair.
        Inference-time knowledge comes from the prior (the response is not
        available); a padded triplet's prior weight is exactly 0, so each
        row's argmax is over its own graph. The batch is encoded once, and
        every step advances all rows and picks each row's token with one
        argmax; a finished row keeps stepping on PAD and its tokens are
        dropped, and the loop ends when every row has finished.
        """
        single = isinstance(graphs, KnowledgeGraph)
        if single:
            histories, graphs = [histories], [graphs]
        if max_len < 1:
            raise ContractError(f"max_len must be >= 1, got {max_len}")
        if len(histories) != len(graphs):
            raise ContractError(f"generate: {len(histories)} histories "
                                f"for {len(graphs)} graphs")
        encoded = self.encode(histories, graphs)
        fused = self.fuse_knowledge(encoded.knowledge.rows, encoded.prior)
        selected = encoded.prior.values.argmax(axis=1).tolist()

        keys = self.att.prepare(encoded.history.states, encoded.history.lengths)
        mats = self.dec_cell.transposed()
        out_Wt = T.transpose(self.out_W)
        batch = len(histories)
        hidden = self.dec_cell.initial_state(batch)
        prev = np.full(batch, self.vocab.BOS)
        tokens = np.zeros((batch, max_len), dtype=np.int64)
        lengths = np.full(batch, max_len)  # max_len while a row runs
        for t in range(max_len):
            hidden = self._decode_step(prev, hidden, keys, fused, mats)
            nxt = T.affine(((hidden, out_Wt),), self.out_b).values.argmax(axis=1)
            lengths[(lengths == max_len) & (nxt == self.vocab.EOS)] = t
            running = lengths == max_len
            if not running.any():
                break
            tokens[:, t] = nxt
            prev = np.where(running, nxt, self.vocab.PAD)
        pairs = [(row[:n].tolist(), s) for row, n, s in zip(tokens, lengths, selected)]
        return pairs[0] if single else pairs

    # -- objectives --------------------------------------------------------

    @T.fp_trap()
    def forward(self, samples):
        """Full training pass over a sample batch; (recorded (B,) totals, SampleTerms).

        The terms hold each sample's weighted loss terms ``kl``, ``nll`` and
        ``bow``, their sum ``total``, and whether the prior's top triplet is
        the gold one. A padded triplet's prior weight is exactly 0 and a real
        one's above 0, so one argmax over the padded rows finds each top.
        """
        responses = [s.response for s in samples]
        history, knowledge, prior, response = self.encode(
            [s.history for s in samples], [s.graph for s in samples], responses)
        posterior = posterior_distribution(knowledge.rows, history.summary, response,
                                           self.post_mlp, knowledge.mask)
        fused = self.fuse_knowledge(knowledge.rows, posterior)
        logits = self.decode_with_knowledge(history, fused, responses)

        terms = (kl_div_loss(posterior, prior), nll_loss(logits, responses),
                 bow_loss(fused, responses, self.bow_mlp))
        kl, nll, bow = (t if w == 1.0 else T.mul(t, Tensor(w))
                        for t, w in zip(terms, self.loss_weights))
        totals = T.add(T.add(kl, nll), bow)
        hit = prior.values.argmax(axis=1) == [s.gold_triplet for s in samples]
        return totals, SampleTerms(kl.values, nll.values, bow.values, totals.values, hit)

    def batch_objective(self, samples):
        """(Recorded mean total loss over a sample batch, the batch's loss summary).

        Runs under whatever tape is currently recording (or none).
        """
        totals, terms = self.forward(samples)
        return T.mul(T.sum_(totals), Tensor(1.0 / len(samples))), terms.summary()

    @T.fp_trap()
    def score(self, samples):
        """Prior-fused teacher-forced NLL of a sample batch (no posterior, no recording).

        One ScoreResult per sample, in order, with the prior over its own graph.
        """
        responses = [s.response for s in samples]
        history, knowledge, prior, _ = self.encode(
            [s.history for s in samples], [s.graph for s in samples])
        logits = self.decode_with_knowledge(
            history, self.fuse_knowledge(knowledge.rows, prior), responses)
        nll = nll_loss(logits, responses)
        return [ScoreResult(float(nll.values[i]), len(s.response),
                            prior.values[i, :len(s.graph)].copy())
                for i, s in enumerate(samples)]

    # -- persistence -------------------------------------------------------

    def clone(self):
        twin = DialogueModel(self.vocab, self.embed_dim, self.hidden_dim, seed=None,
                             loss_weights=self.loss_weights)
        twin.store.restore(self.store.snapshot())
        return twin

    def load_values(self, arrays):
        """Restore checkpointed arrays; names and shapes must be the store's."""
        self.store.restore(arrays)


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
