"""Shared test utilities: finite-difference oracle, gradient comparison,
numericalized synthetic tasks, and a scalar surrogate model for exercising
the training loops."""

import numpy as np

from mkgd.data import build_vocab, raw_task_token_stream, synth_raw_tasks, tasks_from_raw
from mkgd.model import SampleTerms
from mkgd.params import ParamStore
from mkgd import tensor as T


def store_of(values):
    """A built store holding a copy of each name -> values entry, in that order.

    One zero parameter per name is created inside one building(), then
    restore installs the values.
    """
    arrays = {name: np.asarray(v, dtype=np.float64) for name, v in values.items()}
    store = ParamStore(None)
    with store.building():
        for name, a in arrays.items():
            store.create(name, a.shape, init="zeros")
    store.restore(arrays)
    return store


def gradients(store, values):
    """A Gradients over store from a name -> array map of every parameter's gradient.

    The arrays are copied into one vector laid out as the store, and each
    name maps to a Tensor viewing its slot, as backward returns them.
    """
    flat = np.empty(store.size)
    views = store.views(flat)
    for name, view in views.items():
        view[...] = values[name]
    return T.Gradients(store, flat, {name: T.Tensor(view) for name, view in views.items()})


def synth_tasks(spec, n_tasks, k_support=8, k_query=14):
    """Seeded synthetic tasks split into support/query, with their vocabulary."""
    raw = synth_raw_tasks(spec, n_tasks)
    vocab = build_vocab(raw_task_token_stream(raw), 200)
    return tasks_from_raw(raw, vocab, k_support, k_query, seed=spec.seed), vocab


def finite_diff_grads(store, loss_fn, h=1e-5, names=None):
    """Central-difference gradients of loss_fn() w.r.t. store entries.

    loss_fn takes no arguments and evaluates the loss at the store's current
    values (no recording needed).
    """
    grads = {}
    for name in (names if names is not None else [name for name, _ in store.items()]):
        t = store[name]
        flat = t.values.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * h)
        grads[name] = g.reshape(t.values.shape)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4, small=1e-6, abs_small=1e-7):
    """Relative error < rel; absolute < abs_small where the analytic value is tiny."""
    for name, a in analytic.items():
        av = a.values if hasattr(a, "values") else np.asarray(a)
        nv = numeric[name]
        assert av.shape == nv.shape, f"{name}: shape {av.shape} vs {nv.shape}"
        a_flat, n_flat = av.reshape(-1), nv.reshape(-1)
        for i in range(a_flat.size):
            ai, ni = a_flat[i], n_flat[i]
            if abs(ai) < small:
                assert abs(ai - ni) < abs_small, \
                    f"{name}[{i}]: analytic {ai} vs numeric {ni}"
            else:
                err = abs(ai - ni) / max(abs(ai), abs(ni))
                assert err < rel, f"{name}[{i}]: rel err {err} ({ai} vs {ni})"


# ---------------------------------------------------------------------------
# Independent numpy reference for the dialogue model (no Tensor engine).
# Mirrors the documented equations directly from checkpoint-style arrays.


def _np_sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def _np_softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def np_gru_step(P, prefix, x, h):
    z = _np_sigmoid(P[f"{prefix}.W_z"] @ x + P[f"{prefix}.U_z"] @ h + P[f"{prefix}.b_z"])
    r = _np_sigmoid(P[f"{prefix}.W_r"] @ x + P[f"{prefix}.U_r"] @ h + P[f"{prefix}.b_r"])
    c = np.tanh(P[f"{prefix}.W_h"] @ x + P[f"{prefix}.U_h"] @ (r * h) + P[f"{prefix}.b_h"])
    return (1.0 - z) * c + z * h


def np_gru_run(P, prefix, token_ids, hidden_dim):
    h = np.zeros(hidden_dim)
    states = []
    for i in token_ids:
        h = np_gru_step(P, prefix, P["model.embed.W"][i], h)
        states.append(h)
    return states


def np_encode_history(P, history, hidden_dim):
    fwd = np_gru_run(P, "model.enc.fwd", history, hidden_dim)
    bwd_rev = np_gru_run(P, "model.enc.bwd", list(reversed(history)), hidden_dim)
    bwd = list(reversed(bwd_rev))
    states = [np.concatenate([f, b]) for f, b in zip(fwd, bwd)]
    summary = np.concatenate([fwd[-1], bwd[0]])
    x_sum = P["model.enc.proj.W"] @ summary + P["model.enc.proj.b"]
    return states, x_sum


def np_encode_knowledge(P, vocab, graph, hidden_dim):
    rows = []
    for triplet in graph.triplets:
        ids = vocab.encode(triplet.tokens())
        final = np_gru_run(P, "model.know.fwd", ids, hidden_dim)[-1]
        rows.append(P["model.know.proj.W"] @ final + P["model.know.proj.b"])
    return np.stack(rows)


def np_posterior(P, k_matrix, x_sum, y_sum):
    joint = np.concatenate([x_sum, y_sum])
    hidden = np.tanh(P["model.post.W0"] @ joint + P["model.post.b0"])
    proj = P["model.post.W1"] @ hidden + P["model.post.b1"]
    return _np_softmax(k_matrix @ proj)


def np_decode_step(P, prev, h, states, fused):
    scores = np.array([
        np.tanh(np.concatenate([h, s]) @ P["model.att.W"] + P["model.att.b"])
        @ P["model.att.v"]
        for s in states
    ])
    weights = _np_softmax(scores)
    context = weights @ np.stack(states)
    x = np.concatenate([P["model.embed.W"][prev], context, fused])
    h = np_gru_step(P, "model.dec", x, h)
    logits = P["model.out.W"] @ h + P["model.out.b"]
    return h, logits


def np_decode(P, vocab, states, fused, response, hidden_dim):
    h = np.zeros(hidden_dim)
    prev = vocab.BOS
    all_logits = []
    for target in response:
        h, logits = np_decode_step(P, prev, h, states, fused)
        all_logits.append(logits)
        prev = target
    return all_logits


def np_greedy(P, vocab, states, fused, max_len, hidden_dim):
    h = np.zeros(hidden_dim)
    prev = vocab.BOS
    out = []
    for _ in range(max_len):
        h, logits = np_decode_step(P, prev, h, states, fused)
        nxt = int(np.argmax(logits))
        if nxt == vocab.EOS:
            break
        out.append(nxt)
        prev = nxt
    return out


def np_nll(all_logits, response, floor=1e-12):
    total = 0.0
    for logits, target in zip(all_logits, response):
        total -= np.log(max(_np_softmax(logits)[target], floor))
    return total


class QuadSample:
    """Coefficient wrapper so surrogate samples are distinct objects.

    Its one-token response sizes validation groups as a dialogue sample's does.
    """

    response = (0,)

    def __init__(self, coef):
        self.coef = float(coef)


class QuadraticModel:
    """Scalar surrogate: a sample's loss is coef * theta^2, a batch's their mean.

    Closed-form updates make the training loops easy to verify.
    """

    vocab = ("theta",)

    def __init__(self, theta=1.0):
        self.store = store_of({"theta": [float(theta)]})
        self.theta = self.store["theta"]

    def forward(self, samples):
        """(Recorded (B,) losses, their SampleTerms), the whole loss counted as nll."""
        coefs = [s.coef if isinstance(s, QuadSample) else float(s) for s in samples]
        totals = T.mul(T.mul(self.theta, self.theta), T.Tensor(coefs))
        zeros = np.zeros(len(samples))
        return totals, SampleTerms(zeros, totals.values, zeros, totals.values,
                                   np.zeros(len(samples), dtype=bool))

    def batch_objective(self, samples):
        totals, terms = self.forward(samples)
        return T.mul(T.sum_(totals), T.Tensor(1.0 / len(samples))), terms.summary()

    def clone(self):
        return QuadraticModel(self.store["theta"].values[0])

    def value(self):
        return float(self.store["theta"].values[0])
