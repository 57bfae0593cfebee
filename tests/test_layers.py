import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import assert_grads_close, finite_diff_grads
from mkgd import tensor as T
from mkgd.errors import ContractError, DimensionError, VocabError
from mkgd.layers import (
    attend,
    build_attention,
    build_embedding,
    build_gru_cell,
    build_mlp,
    gru_encode,
    mlp_forward,
)
from mkgd.params import ParamStore
from mkgd.tensor import Tape, Tensor, backward


def set_all(store, names_to_values):
    for name, vals in names_to_values.items():
        store.set_values(name, np.asarray(vals, dtype=np.float64))


# ---------------------------------------------------------------------------
# embedding


def test_embedding_lookup_returns_exact_row():
    store = ParamStore(0)
    emb = build_embedding(store, "emb", 6, 3)
    row = emb.lookup(4)
    assert np.array_equal(row.values, store["emb.W"].values[4])


def test_embedding_rejects_out_of_range():
    store = ParamStore(0)
    emb = build_embedding(store, "emb", 6, 3)
    with pytest.raises(VocabError):
        emb.lookup(6)


# ---------------------------------------------------------------------------
# GRU cell


def test_gru_step_matches_hand_evaluated_gates():
    store = ParamStore(0)
    cell = build_gru_cell(store, "g", 2, 2)
    W_z = [[0.5, -0.3], [0.1, 0.2]]
    U_z = [[0.1, 0.0], [0.0, 0.1]]
    b_z = [0.1, -0.1]
    W_r = [[0.2, 0.1], [-0.1, 0.3]]
    U_r = [[0.2, 0.1], [0.0, 0.1]]
    b_r = [0.0, 0.05]
    W_h = [[0.3, -0.2], [0.4, 0.1]]
    U_h = [[0.1, 0.2], [-0.1, 0.0]]
    b_h = [0.05, 0.0]
    set_all(store, {
        "g.W_z": W_z, "g.U_z": U_z, "g.b_z": b_z,
        "g.W_r": W_r, "g.U_r": U_r, "g.b_r": b_r,
        "g.W_h": W_h, "g.U_h": U_h, "g.b_h": b_h,
    })
    x = np.array([1.0, -0.5])
    h = np.array([0.2, -0.1])

    # independent evaluation of the gate equations with plain numpy
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = sig(np.array(W_z) @ x + np.array(U_z) @ h + np.array(b_z))
    r = sig(np.array(W_r) @ x + np.array(U_r) @ h + np.array(b_r))
    c = np.tanh(np.array(W_h) @ x + np.array(U_h) @ (r * h) + np.array(b_h))
    want = (1.0 - z) * c + z * h

    got = cell.step(Tensor(x), Tensor(h)).values
    assert np.allclose(got, want, atol=1e-14)


def test_gru_zero_weights_zero_input_is_fixed_map():
    store = ParamStore(0)
    cell = build_gru_cell(store, "g", 2, 2)
    for name in store.names():
        store.set_values(name, np.zeros_like(store[name].values))
    h = cell.step(Tensor([0.0, 0.0]), Tensor([1.0, 2.0])).values
    # z = r = 0.5, candidate = 0 -> h' = 0.5 h
    assert np.allclose(h, [0.5, 1.0], atol=1e-15)


# ---------------------------------------------------------------------------
# gru_encode


def make_encoder(seed=0, vocab=7, embed=3, hidden=3, bidirectional=True):
    store = ParamStore(seed)
    emb = build_embedding(store, "emb", vocab, embed)
    fwd = build_gru_cell(store, "enc.fwd", embed, hidden)
    bwd = build_gru_cell(store, "enc.bwd", embed, hidden) if bidirectional else None
    return store, emb, fwd, bwd


def test_gru_encode_length_one_summary_is_the_state():
    _, emb, fwd, bwd = make_encoder()
    states, summary = gru_encode([3], emb, fwd, bwd)
    assert len(states) == 1
    assert np.array_equal(states[0].values, summary.values)
    _, emb, fwd, _ = make_encoder(bidirectional=False)
    states, summary = gru_encode([3], emb, fwd)
    assert np.array_equal(states[0].values, summary.values)


def test_gru_encode_empty_sequence_rejected():
    _, emb, fwd, bwd = make_encoder()
    with pytest.raises(ContractError):
        gru_encode([], emb, fwd, bwd)


def test_gru_encode_reversal_swaps_directions():
    # forward summary of s equals backward summary of reverse(s) with cells swapped
    store = ParamStore(5)
    emb = build_embedding(store, "emb", 9, 3)
    cell_a = build_gru_cell(store, "a", 3, 4)
    cell_b = build_gru_cell(store, "b", 3, 4)
    seq = [1, 5, 2, 7]
    _, summary_fwd = gru_encode(seq, emb, cell_a, cell_b)
    _, summary_rev = gru_encode(list(reversed(seq)), emb, cell_b, cell_a)
    assert np.allclose(summary_fwd.values[:4], summary_rev.values[4:], atol=1e-15)


def test_gru_encode_bidirectional_shapes():
    _, emb, fwd, bwd = make_encoder(hidden=3)
    states, summary = gru_encode([1, 2, 3], emb, fwd, bwd)
    assert all(s.shape == (6,) for s in states)
    assert summary.shape == (6,)


def test_gru_encode_is_pure():
    _, emb, fwd, bwd = make_encoder(seed=11)
    _, s1 = gru_encode([1, 2, 3], emb, fwd, bwd)
    _, s2 = gru_encode([1, 2, 3], emb, fwd, bwd)
    assert np.array_equal(s1.values, s2.values)


# ---------------------------------------------------------------------------
# attention


def test_attend_single_key():
    store = ParamStore(2)
    att = build_attention(store, "att", 3, 3, 3)
    key = Tensor([0.3, -0.2, 0.9])
    context, weights = attend(att, Tensor([0.1, 0.1, 0.1]), T.stack([key]))
    assert np.allclose(weights.values, [1.0], atol=1e-12)
    assert np.allclose(context.values, key.values, atol=1e-12)


def test_attend_identical_keys_uniform():
    store = ParamStore(2)
    att = build_attention(store, "att", 3, 3, 3)
    key = Tensor([0.5, 0.0, -0.5])
    keys = [key, key, key, key]
    context, weights = attend(att, Tensor([0.2, -0.1, 0.0]), T.stack(keys))
    assert np.allclose(weights.values, [0.25] * 4, atol=1e-12)
    assert np.allclose(context.values, key.values, atol=1e-12)


def test_attend_matches_direct_weighted_sum():
    rng = np.random.default_rng(8)
    store = ParamStore(3)
    att = build_attention(store, "att", 3, 4, 5)
    q = rng.normal(size=3)
    keys = [rng.normal(size=4) for _ in range(3)]

    # independent numpy evaluation of v . tanh(W [q; k] + b)
    W = store["att.W"].values
    b = store["att.b"].values
    v = store["att.v"].values
    scores = np.array([np.tanh(np.concatenate([q, k]) @ W + b) @ v for k in keys])
    e = np.exp(scores - scores.max())
    weights = e / e.sum()
    want_context = sum(w * k for w, k in zip(weights, keys))

    context, got_weights = attend(att, Tensor(q), T.stack([Tensor(k) for k in keys]))
    assert np.allclose(got_weights.values, weights, atol=1e-12)
    assert np.allclose(context.values, want_context, atol=1e-12)


def test_attend_per_key_score_agrees_with_stacked():
    rng = np.random.default_rng(4)
    store = ParamStore(4)
    att = build_attention(store, "att", 2, 3, 4)
    q = Tensor(rng.normal(size=2))
    keys = [Tensor(rng.normal(size=3)) for _ in range(5)]
    per_key = np.concatenate([att.scores_stacked(q, T.stack([k])).values for k in keys])
    stacked = att.scores_stacked(q, T.stack(keys)).values
    assert np.allclose(per_key, stacked, atol=1e-14)


def test_attend_empty_keys_rejected():
    store = ParamStore(2)
    att = build_attention(store, "att", 3, 3, 3)
    with pytest.raises(ContractError):
        attend(att, Tensor([0.0, 0.0, 0.0]), Tensor(np.zeros((0, 3))))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_attention_weights_sum_to_one(n_keys, seed):
    rng = np.random.default_rng(seed)
    store = ParamStore(1)
    att = build_attention(store, "att", 2, 2, 3)
    keys = [Tensor(rng.normal(size=2) * 3) for _ in range(n_keys)]
    _, weights = attend(att, Tensor(rng.normal(size=2)), T.stack(keys))
    assert (weights.values >= 0).all()
    assert abs(weights.values.sum() - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# MLP


def test_mlp_zero_everything_zero_output():
    store = ParamStore(0)
    mlp = build_mlp(store, "m", (3, 4, 2))
    for name in store.names():
        store.set_values(name, np.zeros_like(store[name].values))
    out = mlp_forward(mlp, Tensor([1.0, -1.0, 2.0]))
    assert np.array_equal(out.values, np.zeros(2))


def test_mlp_identity_configuration_is_tanh():
    store = ParamStore(0)
    mlp = build_mlp(store, "m", (1, 1, 1))
    set_all(store, {"m.W0": [[1.0]], "m.b0": [0.0], "m.W1": [[1.0]], "m.b1": [0.0]})
    for x in (-1.3, 0.0, 0.7):
        out = mlp_forward(mlp, Tensor([x]))
        assert out.values[0] == pytest.approx(np.tanh(x), abs=1e-15)


def test_mlp_two_layer_matches_hand_matrix_arithmetic():
    store = ParamStore(0)
    mlp = build_mlp(store, "m", (2, 3, 2))
    W0 = [[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6]]
    b0 = [0.01, -0.02, 0.03]
    W1 = [[1.0, 0.5, -0.5], [0.0, -1.0, 0.25]]
    b1 = [0.1, -0.1]
    set_all(store, {"m.W0": W0, "m.b0": b0, "m.W1": W1, "m.b1": b1})
    x = np.array([0.4, -0.9])
    want = np.array(W1) @ np.tanh(np.array(W0) @ x + np.array(b0)) + np.array(b1)
    got = mlp_forward(mlp, Tensor(x)).values
    assert np.allclose(got, want, atol=1e-15)


def test_mlp_input_dim_mismatch():
    store = ParamStore(0)
    mlp = build_mlp(store, "m", (3, 2))
    with pytest.raises(DimensionError):
        mlp_forward(mlp, Tensor([1.0, 2.0]))


# ---------------------------------------------------------------------------
# end-to-end gradient check through all three layer kinds


def test_composite_layer_gradients_match_finite_differences():
    # 20 random points through gru_encode -> attend -> mlp end to end
    for point in range(20):
        rng = np.random.default_rng(6 + point)
        store = ParamStore(6 + point)
        emb = build_embedding(store, "emb", 5, 2)
        fwd = build_gru_cell(store, "enc.fwd", 2, 2)
        bwd = build_gru_cell(store, "enc.bwd", 2, 2)
        att = build_attention(store, "att", 2, 4, 2)
        mlp = build_mlp(store, "mlp", (4, 3, 2))
        tokens = list(rng.integers(0, 5, size=3))
        query = rng.normal(size=2)

        def forward():
            states, _ = gru_encode(tokens, emb, fwd, bwd)
            context, _ = attend(att, Tensor(query), T.stack(states))
            out = mlp_forward(mlp, context)
            return T.sum_(T.mul(out, out))

        tape = Tape()
        tape.watch(store)
        with tape:
            loss = forward()
        analytic = backward(tape, loss)
        numeric = finite_diff_grads(store, lambda: forward().item())
        assert_grads_close(analytic, numeric)
