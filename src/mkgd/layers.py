"""Recurrent and feed-forward building blocks: embedding, GRU, attention, MLP.

All layers are pure functions of (parameters, inputs). Parameters live in a
ParamStore and are registered under stable dotted names so checkpoints stay
portable (e.g. "enc.fwd.W_z", "att.v").
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, VocabError
from . import tensor as T
from .tensor import Tensor


class EmbeddingLayer:
    def __init__(self, weight, vocab_size, embed_dim):
        self.weight = weight
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim

    def lookup(self, index):
        """Row `index` of the table as a vector."""
        if not (0 <= index < self.vocab_size):
            raise VocabError(f"token index {index} out of range for vocab of {self.vocab_size}")
        return T.reshape(T.gather(self.weight, [index]), (self.embed_dim,))


def build_embedding(store, prefix, vocab_size, embed_dim):
    w = store.create(f"{prefix}.W", (vocab_size, embed_dim), init="uniform")
    return EmbeddingLayer(w, vocab_size, embed_dim)


class GruCell:
    """Gated recurrent cell.

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    c = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * c + z * h
    """

    def __init__(self, params, input_dim, hidden_dim):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        (self.W_z, self.U_z, self.b_z,
         self.W_r, self.U_r, self.b_r,
         self.W_h, self.U_h, self.b_h) = params
        self._ones = Tensor(np.ones(hidden_dim))

    def step(self, x, h):
        if x.shape != (self.input_dim,):
            raise DimensionError(f"gru input shape {x.shape}, expected ({self.input_dim},)")
        z = T.sigmoid(T.add(T.add(T.matmul(self.W_z, x), T.matmul(self.U_z, h)), self.b_z))
        r = T.sigmoid(T.add(T.add(T.matmul(self.W_r, x), T.matmul(self.U_r, h)), self.b_r))
        c = T.tanh(T.add(T.add(T.matmul(self.W_h, x), T.matmul(self.U_h, T.mul(r, h))), self.b_h))
        return T.add(T.mul(T.sub(self._ones, z), c), T.mul(z, h))

    def initial_state(self):
        return Tensor(np.zeros(self.hidden_dim))


def build_gru_cell(store, prefix, input_dim, hidden_dim):
    params = []
    for gate in ("z", "r", "h"):
        params.append(store.create(f"{prefix}.W_{gate}", (hidden_dim, input_dim), init="uniform"))
        params.append(store.create(f"{prefix}.U_{gate}", (hidden_dim, hidden_dim), init="uniform"))
        params.append(store.create(f"{prefix}.b_{gate}", (hidden_dim,), init="zeros"))
    return GruCell(tuple(params), input_dim, hidden_dim)


def gru_encode(tokens, embedding, fwd, bwd=None):
    """Run a (bi)directional GRU over a token-index sequence.

    Returns (per-position states, summary). In the bidirectional case each
    per-position state is [forward_t; backward_t] and the summary is the
    concatenation of the final forward and final backward states.
    """
    tokens = list(tokens)
    if not tokens:
        raise ContractError("gru_encode on empty sequence")
    embedded = [embedding.lookup(i) for i in tokens]

    h = fwd.initial_state()
    fwd_states = []
    for x in embedded:
        h = fwd.step(x, h)
        fwd_states.append(h)

    if bwd is None:
        return fwd_states, fwd_states[-1]

    h = bwd.initial_state()
    bwd_states = [None] * len(tokens)
    for t in range(len(tokens) - 1, -1, -1):
        h = bwd.step(embedded[t], h)
        bwd_states[t] = h

    states = [T.concat([f, b]) for f, b in zip(fwd_states, bwd_states)]
    summary = T.concat([fwd_states[-1], bwd_states[0]])
    return states, summary


class AttentionLayer:
    """Additive attention: score(q, k) = v . tanh(W [q; k] + b).

    W is stored transposed, shape (query_dim + key_dim, att_dim), so scoring
    a whole key stack is two matmuls.
    """

    def __init__(self, W, b, v, query_dim, key_dim):
        self.W = W
        self.b = b
        self.v = v
        self.query_dim = query_dim
        self.key_dim = key_dim

    def scores_stacked(self, query, key_stack):
        """Score every row of a (n, key_dim) stack against one query."""
        n = key_stack.shape[0]
        queries = T.stack([query] * n)
        pre = T.add(T.matmul(T.concat([queries, key_stack], axis=1), self.W), self.b)
        return T.matmul(T.tanh(pre), self.v)


def build_attention(store, prefix, query_dim, key_dim, att_dim):
    W = store.create(f"{prefix}.W", (query_dim + key_dim, att_dim), init="xavier")
    b = store.create(f"{prefix}.b", (att_dim,), init="zeros")
    v = store.create(f"{prefix}.v", (att_dim,), init="xavier")
    return AttentionLayer(W, b, v, query_dim, key_dim)


def attend(layer, query, key_stack):
    """Soft attention over the rows of a (n, key_dim) key stack.

    Returns (context, weights) with weights = softmax of additive scores and
    context = sum_i weights_i * key_i. Callers looping over a fixed key set
    build the stack once and reuse it across calls.
    """
    if not key_stack.shape[0]:
        raise ContractError("attend with no keys")
    if query.shape != (layer.query_dim,):
        raise DimensionError(f"attention query shape {query.shape}, expected ({layer.query_dim},)")
    weights = T.softmax(layer.scores_stacked(query, key_stack))
    context = T.matmul(weights, key_stack)
    return context, weights


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
    if x.shape != (m.input_dim,):
        raise DimensionError(f"mlp input shape {x.shape}, expected ({m.input_dim},)")
    h = x
    last = len(m.weights) - 1
    for i, (W, b) in enumerate(zip(m.weights, m.biases)):
        h = T.add(T.matmul(W, h), b)
        if i != last:
            h = T.tanh(h)
    return h
