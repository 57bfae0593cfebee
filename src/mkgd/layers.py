"""Recurrent and feed-forward building blocks: GRU, attention, MLP, ragged batches.

All layers are pure functions of (parameters, inputs). Parameters live in a
ParamStore and are registered under stable dotted names so checkpoints stay
portable (e.g. "model.enc.fwd.W_z", "model.att.v"). gru_encode steps several
GRUs in lockstep groups, each group's whole recurrence one tensor.gru_run
node, so a batch's encoders record one node per group between them.
GruCell.step, 8 nodes a step, is the decoder's.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError
from . import tensor as T
from .tensor import Tensor


class GruCell:
    """Gated recurrent cell over a batch of rows.

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    c = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * c + z * h, computed as c + z * (h - c)

    Inputs and states are (B, dim) matrices, one row per sample, so a step
    multiplies them by the transposed gate matrices from ``transposed()``.
    Each gate's two products and bias are one ``affine`` node and the update
    is one ``lerp`` node, so a step records 8 nodes. The encoders do not
    step here: gru_encode runs their cells' ``params`` in tensor.gru_run,
    with the same roundings.
    """

    def __init__(self, params, input_dim, hidden_dim):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.params = params
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
        z = T.sigmoid(T.affine(((x, W_z), (h, U_z)), self.b_z))
        r = T.sigmoid(T.affine(((x, W_r), (h, U_r)), self.b_r))
        c = T.tanh(T.affine(((x, W_h), (T.mul(r, h), U_h)), self.b_h))
        return T.lerp(c, h, z)

    def initial_state(self, batch):
        return Tensor(np.zeros((batch, self.hidden_dim)))


def build_gru_cell(store, prefix, input_dim, hidden_dim):
    params = []
    for gate in ("z", "r", "h"):
        params.append(store.create(f"{prefix}.W_{gate}", (hidden_dim, input_dim), init="uniform"))
        params.append(store.create(f"{prefix}.U_{gate}", (hidden_dim, hidden_dim), init="uniform"))
        params.append(store.create(f"{prefix}.b_{gate}", (hidden_dim,), init="zeros"))
    return GruCell(tuple(params), input_dim, hidden_dim)


MASKED = -1e30  # added to the score of a padded key: its softmax weight is exactly 0


class Ragged:
    """Rows of `lengths` padded to one (B, L) grid, L by default the longest row.

    The one rule for every padded batch: a position past its row's length
    reads position 0 (positions) or the fill token (tokens); mask is 0 on
    real positions and MASKED past them, and None when nothing is padded.
    """

    def __init__(self, lengths, width=None):
        columns = np.arange(np.max(lengths) if width is None else width)
        self.real = columns < np.asarray(lengths)[:, None]  # (B, L) bools
        self.positions = np.where(self.real, columns, 0)
        self.mask = None if self.real.all() else Tensor(np.where(self.real, 0.0, MASKED))

    def tokens(self, sequences, fill):
        """(B, L) grid of each sequence's tokens in order, fill past its end.

        The grid keeps the tokens' dtype, so the gather or gru_run that reads
        it rejects float or bool tokens rather than reading truncated ones.
        """
        flat = np.asarray(list(chain.from_iterable(sequences)))
        grid = np.full(self.real.shape, fill, dtype=flat.dtype if flat.size else np.int64)
        grid[self.real] = flat
        return grid


class GruStates(NamedTuple):
    """Every state of gru_encode's runs, as the rows of one table.

    Each lockstep group fills its own block of steps * G * R rows, after the
    blocks of the groups before it. After step t, row r of a run holds its
    state at table row start + t * stride + r, with the run's start and
    stride from lockstep_layout.
    """

    table: Tensor
    lengths: tuple   # per run, an int array of its sequences' lengths
    reversed: tuple  # per run, whether it read each sequence from its last token
    starts: tuple    # per run, the table row of its row 0 after the first step
    strides: tuple   # per run, the table rows between its steps: its group's G * R

    def at(self, run, rows, positions):
        """Table rows of the states after reading token `positions` (ints or arrays) of `rows`."""
        step = self.lengths[run][rows] - 1 - positions if self.reversed[run] else positions
        return self.starts[run] + step * self.strides[run] + rows

    def finals(self, run):
        """Table rows of each sequence's final state, after its last token read."""
        lengths = self.lengths[run]
        return self.at(run, np.arange(len(lengths)), 0 if self.reversed[run] else lengths - 1)


def lockstep_layout(lengths):
    """The lockstep groups of runs with these sequence lengths, and each run's table place.

    The longest run, the one with the most rows among equally long ones,
    sets a group's row count R, and every run with at most R rows steps in
    its lockstep, padded to R rows and to the longest run's length. A run
    with more rows than R is shorter than the longest, so it steps apart,
    over its own length and rows; the runs left over are grouped by the
    same rule. Returns (groups, starts, strides): the groups as lists of run
    indices, in table order, and each run's GruStates start and stride.
    """
    groups, starts, strides = [], [0] * len(lengths), [0] * len(lengths)
    rest, offset = list(range(len(lengths))), 0
    while rest:
        lead = max(rest, key=lambda run: (lengths[run].max(), len(lengths[run])))
        R = len(lengths[lead])
        group = [run for run in rest if len(lengths[run]) <= R]
        rest = [run for run in rest if len(lengths[run]) > R]
        for slot, run in enumerate(group):
            starts[run], strides[run] = offset + slot * R, len(group) * R
        offset += int(lengths[lead].max()) * len(group) * R
        groups.append(group)
    return groups, tuple(starts), tuple(strides)


def _lockstep(embedding, runs, lengths):
    """The (steps * G * R, H) states of G runs stepped together, R their largest row count.

    One gru_run node: G > 1 cells step stacked on (G, R, ·) inputs and
    states, a lone run on its own cell's parameters and (R, ·) ones.
    """
    G, R = len(runs), max(map(len, lengths))
    # One ragged batch of G * R rows; a row past its run's rows has length 0.
    padded = np.concatenate([np.pad(n, (0, R - len(n))) for n in lengths])
    grid = Ragged(padded).tokens([s[::-1] if rev else s for _, seqs, rev in runs for s in seqs], 0)
    ids = grid.T.reshape((-1, R) if G == 1 else (-1, G, R))  # (steps, G, R), or (steps, R)
    return T.gru_run(embedding, [cell.params for cell, _, _ in runs], ids)


def gru_encode(embedding, runs):
    """Step GRU runs in lockstep groups, each step one for every row of a group at once.

    embedding is the (V, E) token table and runs are (cell, sequences,
    reversed) triples over cells of one shape; a reversed run reads each
    sequence from its own last token. lockstep_layout groups the runs by
    their row counts and lengths alone. A group is one tensor.gru_run node,
    each of its steps reading (G, R, E) inputs, R its largest row count, as
    many steps as its longest sequence; a group of one run steps on its own
    cell, with (R, E) inputs. When no run has more rows than the longest
    one, that is one group. A row past
    its sequence's end, or past its run's rows, reads token 0 and steps on;
    its later states are never read, so no mask is needed. Read states with
    one gather of the returned GruStates' table, which concatenates the
    groups' states, at GruStates.at or GruStates.finals.
    """
    if not runs or not all(seqs and all(len(s) for s in seqs) for _, seqs, _ in runs):
        raise ContractError("gru_encode on empty sequence")
    if len({(c.input_dim, c.hidden_dim) for c, _, _ in runs}) > 1:
        raise DimensionError("gru_encode: cells differ in input or hidden size")
    lengths = tuple(np.array([len(s) for s in seqs]) for _, seqs, _ in runs)
    groups, starts, strides = lockstep_layout(lengths)
    tables = [_lockstep(embedding, [runs[i] for i in group], [lengths[i] for i in group])
              for group in groups]
    table = tables[0] if len(tables) == 1 else T.concat(tables)
    return GruStates(table, lengths, tuple(rev for _, _, rev in runs), starts, strides)


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
        q = self.query_dim
        W_k = T.slice_(self.W, q, q + self.key_dim)
        projected = T.affine(((keys, W_k),), self.b)
        mask = Ragged(lengths, keys.shape[1]).mask
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


class Mlp(NamedTuple):
    """Affine stack with tanh hidden activations and a linear output layer."""

    weights: list  # (output_dim, input_dim) per layer
    biases: list


def build_mlp(store, prefix, dims):
    if len(dims) < 2:
        raise ContractError(f"mlp needs at least input and output dims, got {dims}")
    weights, biases = [], []
    for i in range(len(dims) - 1):
        weights.append(store.create(f"{prefix}.W{i}", (dims[i + 1], dims[i]), init="xavier"))
        biases.append(store.create(f"{prefix}.b{i}", (dims[i + 1],), init="zeros"))
    return Mlp(weights, biases)


def mlp_forward(m, x):
    """(B, output_dim) rows from a (B, input_dim) batch: one pass for every sample's row."""
    input_dim = m.weights[0].shape[1]
    if x.values.ndim != 2 or x.shape[1] != input_dim:
        raise DimensionError(f"mlp input shape {x.shape}, expected (B, {input_dim})")
    for i, (W, b) in enumerate(zip(m.weights, m.biases)):
        if i:
            x = T.tanh(x)
        x = T.affine(((x, T.transpose(W)),), b)
    return x
