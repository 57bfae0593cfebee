"""Recurrent and feed-forward building blocks: embedding, GRU, attention, MLP.

All layers are pure functions of (parameters, inputs). Parameters live in a
ParamStore and are registered under stable dotted names so checkpoints stay
portable (e.g. "enc.fwd.W_z", "att.v").
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError
from . import tensor as T
from .tensor import Tensor


class EmbeddingLayer:
    def __init__(self, weight):
        self.weight = weight

    def lookup(self, indices):
        """Rows `indices` of the table, as an (n, embed_dim) matrix."""
        return T.gather(self.weight, indices)


def build_embedding(store, prefix, vocab_size, embed_dim):
    w = store.create(f"{prefix}.W", (vocab_size, embed_dim), init="uniform")
    return EmbeddingLayer(w)


class GruCell:
    """Gated recurrent cell over a batch of rows.

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    c = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * c + z * h, computed as c + z * (h - c)

    Inputs and states are (B, dim) matrices, one row per sample, so a step
    multiplies them by the transposed gate matrices from ``transposed()``.
    """

    def __init__(self, params, input_dim, hidden_dim):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        (self.W_z, self.U_z, self.b_z,
         self.W_r, self.U_r, self.b_r,
         self.W_h, self.U_h, self.b_h) = params

    def transposed(self):
        """(W_z, U_z, W_r, U_r, W_h, U_h) transposed; record once per recurrence."""
        return tuple(T.transpose(m) for m in
                     (self.W_z, self.U_z, self.W_r, self.U_r, self.W_h, self.U_h))

    def step(self, x, h, mats):
        if x.values.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(f"gru input shape {x.shape}, expected (B, {self.input_dim})")
        W_z, U_z, W_r, U_r, W_h, U_h = mats
        z = T.sigmoid(T.add(T.add(T.matmul(x, W_z), T.matmul(h, U_z)), self.b_z))
        r = T.sigmoid(T.add(T.add(T.matmul(x, W_r), T.matmul(h, U_r)), self.b_r))
        c = T.tanh(T.add(T.add(T.matmul(x, W_h), T.matmul(T.mul(r, h), U_h)), self.b_h))
        return T.add(c, T.mul(z, T.sub(h, c)))

    def initial_state(self, batch):
        return Tensor(np.zeros((batch, self.hidden_dim)))


def build_gru_cell(store, prefix, input_dim, hidden_dim):
    params = []
    for gate in ("z", "r", "h"):
        params.append(store.create(f"{prefix}.W_{gate}", (hidden_dim, input_dim), init="uniform"))
        params.append(store.create(f"{prefix}.U_{gate}", (hidden_dim, hidden_dim), init="uniform"))
        params.append(store.create(f"{prefix}.b_{gate}", (hidden_dim,), init="zeros"))
    return GruCell(tuple(params), input_dim, hidden_dim)


def _recur(cell, inputs, lengths, order):
    """Step one cell over per-position (B, E) inputs, visiting positions in `order`.

    A row past its sequence's end keeps its state bit for bit, as
    m * h' + (1 - m) * h with m in {0, 1}; a step where every row is still
    running records no mask.
    """
    mats = cell.transposed()
    h = cell.initial_state(len(lengths))
    states = [None] * len(inputs)
    for t in order:
        new = cell.step(inputs[t], h, mats)
        if all(t < n for n in lengths):
            h = new
        else:
            m = np.array([[1.0 if t < n else 0.0] for n in lengths])
            h = T.add(T.mul(Tensor(m), new), T.mul(Tensor(1.0 - m), h))
        states[t] = h
    return states


def gru_encode(sequences, embedding, fwd, bwd=None):
    """Run a (bi)directional GRU over a batch of token-index sequences.

    Each position is one cell step for the whole batch. Shorter sequences
    are padded, and their state is held unchanged past their end, so the
    forward state at the last position is each sequence's own final state
    and the backward direction starts from zeros at each sequence's last
    token.

    Returns (per-position states, summary). A state is (B, H); in the
    bidirectional case it is [forward_t; backward_t], (B, 2H), and the
    summary is the concatenation of the final forward and final backward
    states.
    """
    sequences = [list(s) for s in sequences]
    if not sequences or not all(sequences):
        raise ContractError("gru_encode on empty sequence")
    lengths = [len(s) for s in sequences]
    positions = range(max(lengths))
    # Past its end a sequence reads token 0; the held state never sees it.
    embedded = [embedding.lookup([s[t] if t < len(s) else 0 for s in sequences])
                for t in positions]

    fwd_states = _recur(fwd, embedded, lengths, positions)
    if bwd is None:
        return fwd_states, fwd_states[-1]

    bwd_states = _recur(bwd, embedded, lengths, reversed(positions))
    states = [T.concat([f, b], axis=1) for f, b in zip(fwd_states, bwd_states)]
    summary = T.concat([fwd_states[-1], bwd_states[0]], axis=1)
    return states, summary


MASKED = -1e30  # added to the score of a padded key: its softmax weight is exactly 0


class AttentionKeys(NamedTuple):
    """A key set prepared for repeated attention: see AttentionLayer.prepare."""

    keys: Tensor       # (B, L, key_dim)
    projected: Tensor  # keys W_k + b, (B, L, att_dim)
    W_q: Tensor        # the query rows of W, (query_dim, att_dim)
    mask: Tensor       # (B, L): 0 on real keys, MASKED on padding; None without padding


class AttentionLayer:
    """Additive attention: score(q, k) = v . tanh(W [q; k] + b).

    W is stored transposed, shape (query_dim + key_dim, att_dim). Its query
    rows W_q and key rows W_k split the score into q W_q + (k W_k + b), and
    the key part is computed once per key set.
    """

    def __init__(self, W, b, v, query_dim, key_dim):
        self.W = W
        self.b = b
        self.v = v
        self.query_dim = query_dim
        self.key_dim = key_dim

    def prepare(self, keys, lengths):
        """Key set from (B, L, key_dim) keys; sample i attends to its first lengths[i]."""
        if keys.values.ndim != 3 or not keys.shape[1]:
            raise ContractError(f"attend needs a non-empty (B, L, key_dim) key stack, "
                                f"got {keys.shape}")
        q, L = self.query_dim, keys.shape[1]
        W_k = T.slice_(self.W, q, q + self.key_dim)
        projected = T.add(T.matmul(keys, W_k), self.b)
        mask = None
        if any(n < L for n in lengths):
            mask = Tensor(np.array([[0.0] * n + [MASKED] * (L - n) for n in lengths]))
        return AttentionKeys(keys, projected, T.slice_(self.W, 0, q), mask)

    def scores(self, query, keys):
        """(B, L) scores of each query row against its own sample's keys."""
        B, L, att_dim = keys.projected.shape
        q = T.reshape(T.matmul(query, keys.W_q), (B, 1, att_dim))
        scores = T.matmul(T.tanh(T.add(keys.projected, q)), self.v)
        return scores if keys.mask is None else T.add(scores, keys.mask)


def build_attention(store, prefix, query_dim, key_dim, att_dim):
    W = store.create(f"{prefix}.W", (query_dim + key_dim, att_dim), init="xavier")
    b = store.create(f"{prefix}.b", (att_dim,), init="zeros")
    v = store.create(f"{prefix}.v", (att_dim,), init="xavier")
    return AttentionLayer(W, b, v, query_dim, key_dim)


def attend(layer, query, keys):
    """Soft attention of a (B, query_dim) query batch over a prepared key set.

    Returns (context, weights): weights (B, L) = softmax of additive scores,
    zero past each sample's keys, and context (B, key_dim) with
    context_i = sum_j weights_ij * key_ij.
    """
    B, L, key_dim = keys.keys.shape
    if query.shape != (B, layer.query_dim):
        raise DimensionError(f"attention query shape {query.shape}, "
                             f"expected ({B}, {layer.query_dim})")
    weights = T.softmax(layer.scores(query, keys))
    context = T.matmul(T.reshape(weights, (B, 1, L)), keys.keys)
    return T.reshape(context, (B, key_dim)), weights


class Mlp:
    """Affine stack with tanh hidden activations and a linear output layer."""

    def __init__(self, weights, biases, dims):
        self.weights = weights
        self.biases = biases
        self.dims = list(dims)

    @property
    def input_dim(self):
        return self.dims[0]


def build_mlp(store, prefix, dims):
    if len(dims) < 2:
        raise ContractError(f"mlp needs at least input and output dims, got {dims}")
    weights, biases = [], []
    for i in range(len(dims) - 1):
        weights.append(store.create(f"{prefix}.W{i}", (dims[i + 1], dims[i]), init="xavier"))
        biases.append(store.create(f"{prefix}.b{i}", (dims[i + 1],), init="zeros"))
    return Mlp(weights, biases, dims)


def mlp_forward(m, x):
    """(B, output_dim) rows from a (B, input_dim) batch: one pass for every sample's row."""
    if x.values.ndim != 2 or x.shape[1] != m.input_dim:
        raise DimensionError(f"mlp input shape {x.shape}, expected (B, {m.input_dim})")
    h = x
    last = len(m.weights) - 1
    for i, (W, b) in enumerate(zip(m.weights, m.biases)):
        # W h^T, not h W^T: W's gradient comes out C-ordered, so backward copies no (V, H) view.
        h = T.add(T.transpose(T.matmul(W, T.transpose(h))), b)
        if i != last:
            h = T.tanh(h)
    return h
