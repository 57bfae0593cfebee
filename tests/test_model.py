import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from mkgd import tensor as T
from mkgd.data import Vocab
from mkgd.dialogue import DialogueGoal, DialogueSample, KnowledgeGraph, KnowledgeTriplet
from mkgd.errors import ContractError, NumericError
from mkgd.layers import build_mlp, gru_encode
from mkgd.model import (
    DialogueModel,
    bow_loss,
    kl_div_loss,
    nll_loss,
    posterior_distribution,
    prior_distribution,
    total_loss,
)
from mkgd.params import ParamStore
from mkgd.tensor import Tensor


def tiny_vocab():
    return Vocab(["a", "b", "c", "r0", "r1", "x", "y"])


def tiny_graph(n_triplets=2):
    heads = ["a"] * n_triplets
    triplets = [KnowledgeTriplet(heads[i], f"r{i}", "b") for i in range(n_triplets)]
    return KnowledgeGraph(triplets, DialogueGoal(("[start]", "a", "b")))


def tiny_model(seed=0, hidden=3, embed=3):
    return DialogueModel(tiny_vocab(), embed, hidden, seed=seed)


def tiny_sample(vocab, graph, history="a r0", response="b c"):
    return DialogueSample(
        history=vocab.encode(history.split()),
        response=vocab.encode(response.split()) + [vocab.EOS],
        graph=graph,
        gold_triplet=0,
    )


# ---------------------------------------------------------------------------
# knowledge encoding


def test_encode_knowledge_identical_triplets_identical_rows():
    model = tiny_model()
    graph = KnowledgeGraph(
        [KnowledgeTriplet("a", "r0", "b"), KnowledgeTriplet("a", "r0", "b")],
        DialogueGoal(("[start]", "a", "b")),
    )
    k = model.encode_knowledge(graph)
    assert np.array_equal(k.values[0], k.values[1])


def test_encode_knowledge_single_triplet_shape():
    model = tiny_model(hidden=4)
    graph = tiny_graph(1)
    assert model.encode_knowledge(graph).shape == (1, 4)


def test_encode_knowledge_row_matches_manual_gru_encode():
    model = tiny_model(seed=3)
    graph = tiny_graph(2)
    k = model.encode_knowledge(graph)
    for i, triplet in enumerate(graph.triplets):
        ids = model.vocab.encode(triplet.tokens())
        _, summary = gru_encode(ids, model.embed, model.know_cell)
        row = model.store["model.know.proj.W"].values @ summary.values \
            + model.store["model.know.proj.b"].values
        assert np.allclose(k.values[i], row, atol=1e-14)


def test_encode_knowledge_rejects_empty():
    model = tiny_model()
    with pytest.raises(ContractError):
        model.encode_knowledge(None)


# ---------------------------------------------------------------------------
# prior / posterior distributions


def test_prior_uniform_when_dots_equal():
    k = Tensor(np.ones((4, 3)))
    x = Tensor(np.zeros(3))
    prior = prior_distribution(k, x)
    assert np.allclose(prior.values, [0.25] * 4, atol=1e-12)


def test_prior_closed_form_quarter_three_quarters():
    k = Tensor([[0.0], [math.log(3.0)]])
    x = Tensor([1.0])
    prior = prior_distribution(k, x)
    assert np.allclose(prior.values, [0.25, 0.75], atol=1e-12)


def test_prior_matches_scalar_softmax_oracle():
    rng = np.random.default_rng(0)
    k = rng.normal(size=(5, 4))
    x = rng.normal(size=4)
    dots = [sum(k[i, j] * x[j] for j in range(4)) for i in range(5)]
    exps = [math.exp(d - max(dots)) for d in dots]
    want = np.array([e / sum(exps) for e in exps])
    got = prior_distribution(Tensor(k), Tensor(x)).values
    assert np.allclose(got, want, atol=1e-12)


def test_posterior_single_triplet_is_one():
    model = tiny_model()
    k = model.encode_knowledge(tiny_graph(1))
    x = Tensor(np.zeros(3))
    y = Tensor(np.zeros(3))
    post = posterior_distribution(k, x, y, model.post_mlp)
    assert np.allclose(post.values, [1.0], atol=1e-15)


def test_posterior_uniform_when_projection_orthogonal():
    store = ParamStore(0)
    mlp = build_mlp(store, "post", (4, 3, 2))
    for name in store.names():
        store.set_values(name, np.zeros_like(store[name].values))
    k = Tensor(np.random.default_rng(1).normal(size=(3, 2)))
    post = posterior_distribution(k, Tensor([0.1, 0.2]), Tensor([0.3, -0.1]), mlp)
    assert np.allclose(post.values, [1 / 3] * 3, atol=1e-12)


def test_posterior_hand_computed_rigged_instance():
    store = ParamStore(0)
    mlp = build_mlp(store, "post", (4, 2, 2))
    W0 = [[0.5, 0.0, -0.5, 0.0], [0.0, 0.5, 0.0, 0.5]]
    b0 = [0.1, -0.1]
    W1 = [[1.0, 0.0], [0.0, 1.0]]
    b1 = [0.0, 0.0]
    for name, vals in (("post.W0", W0), ("post.b0", b0),
                       ("post.W1", W1), ("post.b1", b1)):
        store.set_values(name, np.asarray(vals, dtype=np.float64))
    x = np.array([0.2, -0.4])
    y = np.array([0.6, 0.8])
    k = np.array([[1.0, 0.0], [0.0, 1.0]])

    joint = np.concatenate([x, y])
    proj = np.array(W1) @ np.tanh(np.array(W0) @ joint + np.array(b0)) + np.array(b1)
    dots = k @ proj
    want = np.exp(dots - dots.max())
    want /= want.sum()

    got = posterior_distribution(Tensor(k), Tensor(x), Tensor(y), mlp).values
    assert np.allclose(got, want, atol=1e-14)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_distributions_are_valid_probability_vectors(seed, n):
    rng = np.random.default_rng(seed)
    k = Tensor(rng.normal(size=(n, 3)) * 3)
    x = Tensor(rng.normal(size=3) * 3)
    prior = prior_distribution(k, x).values
    assert (prior >= 0).all()
    assert abs(prior.sum() - 1.0) <= 1e-9


def test_prior_argmax_invariant_under_positive_scaling():
    rng = np.random.default_rng(7)
    k = rng.normal(size=(4, 3))
    x = rng.normal(size=3)
    base = prior_distribution(Tensor(k), Tensor(x)).values
    for c in (0.5, 2.0, 7.3):
        scaled = prior_distribution(Tensor(c * k), Tensor(c * x)).values
        assert np.argmax(scaled) == np.argmax(base)
        assert not np.allclose(scaled, base)  # values move, argmax does not


# ---------------------------------------------------------------------------
# losses


def test_kl_zero_when_equal():
    p = Tensor([0.3, 0.7])
    assert kl_div_loss(p, p).item() == pytest.approx(0.0, abs=1e-15)


def test_kl_ln2_case():
    got = kl_div_loss(Tensor([1.0, 0.0]), Tensor([0.5, 0.5])).item()
    assert got == pytest.approx(math.log(2.0), abs=1e-9)


def test_kl_half_ln3_case():
    got = kl_div_loss(Tensor([0.75, 0.25]), Tensor([0.25, 0.75])).item()
    assert got == pytest.approx(0.5 * math.log(3.0), abs=1e-12)


def test_kl_non_negative_and_zero_iff_equal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        val = kl_div_loss(Tensor(p), Tensor(q)).item()
        assert val >= -1e-12
        if np.abs(p - q).max() > 1e-6:
            assert val > 0.0


def test_kl_length_mismatch():
    with pytest.raises(ContractError):
        kl_div_loss(Tensor([1.0]), Tensor([0.5, 0.5]))


def test_nll_zero_when_gold_probability_one():
    logits = [Tensor([800.0, 0.0, 0.0]), Tensor([0.0, 800.0, 0.0])]
    assert nll_loss(logits, [0, 1]).item() == pytest.approx(0.0, abs=1e-12)


def test_nll_uniform_logits_closed_form():
    V, m = 7, 3
    logits = [Tensor(np.zeros(V)) for _ in range(m)]
    assert nll_loss(logits, [0, 3, 6]).item() == pytest.approx(m * math.log(V), abs=1e-9)


def test_nll_matches_hand_cross_entropy():
    logits = [Tensor([1.0, 2.0, 0.5]), Tensor([0.0, -1.0, 0.3])]
    targets = [1, 2]
    want = 0.0
    for lg, t in zip(logits, targets):
        v = lg.values
        probs = np.exp(v - v.max())
        probs /= probs.sum()
        want -= math.log(probs[t])
    assert nll_loss(logits, targets).item() == pytest.approx(want, abs=1e-12)


def test_nll_rejects_out_of_vocab_target():
    with pytest.raises(ContractError):
        nll_loss([Tensor([0.0, 0.0])], [2])


def test_bow_uniform_closed_form():
    store = ParamStore(0)
    mlp = build_mlp(store, "bow", (3, 5))
    for name in store.names():
        store.set_values(name, np.zeros_like(store[name].values))
    fused = Tensor([0.4, -0.2, 0.1])
    got = bow_loss(fused, [0, 2, 4], mlp).item()
    assert got == pytest.approx(3 * math.log(5), abs=1e-9)


def test_bow_concentrated_is_near_zero():
    store = ParamStore(0)
    mlp = build_mlp(store, "bow", (2, 4))
    store.set_values("bow.W0", np.zeros((4, 2)))
    store.set_values("bow.b0", np.array([0.0, 800.0, 0.0, 0.0]))
    got = bow_loss(Tensor([0.0, 0.0]), [1, 1, 1], mlp).item()
    assert got == pytest.approx(0.0, abs=1e-9)


def test_bow_hand_computation_length_two():
    store = ParamStore(0)
    mlp = build_mlp(store, "bow", (2, 3))
    W = [[0.5, -0.5], [0.2, 0.1], [-0.3, 0.4]]
    b = [0.05, -0.05, 0.0]
    store.set_values("bow.W0", np.asarray(W))
    store.set_values("bow.b0", np.asarray(b))
    fused = np.array([0.7, -0.2])
    scores = np.array(W) @ fused + np.array(b)
    probs = np.exp(scores - scores.max())
    probs /= probs.sum()
    want = -(math.log(probs[2]) + math.log(probs[0]))
    assert bow_loss(Tensor(fused), [2, 0], mlp).item() == pytest.approx(want, abs=1e-12)


def test_total_loss_examples():
    assert total_loss(0.0, 0.0, 0.0).item() == 0.0
    assert total_loss(1.0, 2.0, 3.0).item() == 6.0
    with pytest.raises(NumericError):
        total_loss(float("nan"), 1.0, 1.0)
    with pytest.raises(NumericError):
        total_loss(1.0, float("inf"), 1.0)


# ---------------------------------------------------------------------------
# decoding


def test_decode_logits_shape():
    model = tiny_model()
    graph = tiny_graph()
    sample = tiny_sample(model.vocab, graph)
    states, _ = model.encode_history(sample.history)
    fused = Tensor(np.zeros(model.hidden_dim))
    logits = model.decode_with_knowledge(states, fused, sample.response)
    assert len(logits) == len(sample.response)
    assert all(l.shape == (len(model.vocab),) for l in logits)


def test_decode_projects_all_positions_in_one_matmul():
    model = tiny_model()
    graph = tiny_graph()
    sample = tiny_sample(model.vocab, graph)
    assert len(sample.response) > 1
    states, _ = model.encode_history(sample.history)
    tape = T.Tape()
    tape.watch(model.store)
    with tape:
        model.decode_with_knowledge(states, Tensor(np.zeros(model.hidden_dim)),
                                    sample.response)
    out_w = tape.watched["model.out.W"]
    uses = [(kind, ids) for kind, ids, _ in tape.nodes if out_w in ids]
    assert uses == [("transpose", (out_w,))]


def test_decode_empty_response_rejected():
    model = tiny_model()
    states, _ = model.encode_history([4])
    with pytest.raises(ContractError):
        model.decode_with_knowledge(states, Tensor(np.zeros(3)), [])


def test_decode_matches_numpy_reference():
    model = tiny_model(seed=12)
    graph = tiny_graph()
    sample = tiny_sample(model.vocab, graph)
    P = model.store.snapshot()
    H = model.hidden_dim

    states, x_sum = model.encode_history(sample.history)
    y_sum = model.encode_response(sample.response)
    k = model.encode_knowledge(graph)
    post = posterior_distribution(k, x_sum, y_sum, model.post_mlp)
    fused = model.fuse_knowledge(k, post)
    got = model.decode_with_knowledge(states, fused, sample.response)

    np_states, np_x = helpers.np_encode_history(P, sample.history, H)
    np_k = helpers.np_encode_knowledge(P, model.vocab, graph, H)
    y_states = helpers.np_gru_run(P, "model.resp.fwd", sample.response, H)
    np_post = helpers.np_posterior(P, np_k, np_x, y_states[-1])
    np_fused = np_post @ np_k
    want = helpers.np_decode(P, model.vocab, np_states, np_fused, sample.response, H)

    assert np.allclose(np_post, post.values, atol=1e-12)
    for g, w in zip(got, want):
        assert np.allclose(g.values, w, atol=1e-10)


def test_decode_zero_fusion_equals_plain_attentive_seq2seq():
    model = tiny_model(seed=4)
    graph = tiny_graph()
    sample = tiny_sample(model.vocab, graph)
    P = model.store.snapshot()
    H = model.hidden_dim
    states, _ = model.encode_history(sample.history)
    got = model.decode_with_knowledge(states, Tensor(np.zeros(H)), sample.response)
    np_states, _ = helpers.np_encode_history(P, sample.history, H)
    want = helpers.np_decode(P, model.vocab, np_states, np.zeros(H),
                             sample.response, H)
    for g, w in zip(got, want):
        assert np.allclose(g.values, w, atol=1e-10)


# ---------------------------------------------------------------------------
# generation


def rig_eos_favoring(model, bias=100.0):
    for name in model.store.names():
        model.store.set_values(name, np.zeros_like(model.store[name].values))
    b = np.zeros(len(model.vocab))
    b[model.vocab.EOS] = bias
    model.store.set_values("model.out.b", b)


def test_generate_eos_favoring_model_emits_empty():
    model = tiny_model()
    rig_eos_favoring(model)
    out, selected = model.generate([4], tiny_graph(), max_len=8)
    assert out == []
    assert selected == 0


def test_generate_respects_max_len():
    model = tiny_model()
    rig_eos_favoring(model)
    b = np.zeros(len(model.vocab))
    b[5] = 100.0  # favor a non-EOS token forever
    model.store.set_values("model.out.b", b)
    for max_len in (1, 3, 9):
        out, _ = model.generate([4], tiny_graph(), max_len=max_len)
        assert out == [5] * max_len


def test_generate_matches_greedy_oracle():
    model = tiny_model(seed=21)
    graph = tiny_graph()
    history = model.vocab.encode("a r1".split())
    P = model.store.snapshot()
    H = model.hidden_dim
    out, selected = model.generate(history, graph, max_len=6)

    np_states, np_x = helpers.np_encode_history(P, history, H)
    np_k = helpers.np_encode_knowledge(P, model.vocab, graph, H)
    dots = np_k @ np_x
    e = np.exp(dots - dots.max())
    np_prior = e / e.sum()
    np_fused = np_prior @ np_k
    want = helpers.np_greedy(P, model.vocab, np_states, np_fused, 6, H)
    assert out == want
    assert selected == int(np.argmax(np_prior))


def test_generate_needs_positive_max_len():
    model = tiny_model()
    with pytest.raises(ContractError):
        model.generate([4], tiny_graph(), max_len=0)


# ---------------------------------------------------------------------------
# full forward / scoring


def test_forward_output_consistency():
    model = tiny_model(seed=9)
    sample = tiny_sample(model.vocab, tiny_graph())
    out = model.forward(sample)
    assert out.prior.shape == (2,)
    assert abs(out.prior.sum() - 1.0) <= 1e-9
    assert abs(out.posterior.sum() - 1.0) <= 1e-9
    assert len(out.token_logits) == len(sample.response)
    assert out.total == pytest.approx(out.kl + out.nll + out.bow, rel=1e-12)
    assert out.nll >= 0.0 and out.bow >= 0.0 and out.kl >= -1e-12


def test_forward_weighted_terms_sum_to_total():
    model = DialogueModel(tiny_vocab(), 3, 3, seed=9, loss_weights=(0.5, 2.0, 0.0))
    sample = tiny_sample(model.vocab, tiny_graph())
    out = model.forward(sample)
    assert out.bow == 0.0
    assert out.total == pytest.approx(out.kl + out.nll + out.bow, rel=1e-12)


def test_score_matches_numpy_reference():
    model = tiny_model(seed=2)
    sample = tiny_sample(model.vocab, tiny_graph())
    P = model.store.snapshot()
    H = model.hidden_dim
    nll, tokens, prior = model.score(sample)
    assert tokens == len(sample.response)

    np_states, np_x = helpers.np_encode_history(P, sample.history, H)
    np_k = helpers.np_encode_knowledge(P, model.vocab, sample.graph, H)
    dots = np_k @ np_x
    e = np.exp(dots - dots.max())
    np_prior = e / e.sum()
    np_fused = np_prior @ np_k
    logits = helpers.np_decode(P, model.vocab, np_states, np_fused, sample.response, H)
    assert nll == pytest.approx(helpers.np_nll(logits, sample.response), abs=1e-9)
    assert np.allclose(prior, np_prior, atol=1e-12)


def test_clone_is_bit_exact_and_independent():
    model = tiny_model(seed=13)
    sample = tiny_sample(model.vocab, tiny_graph())
    twin = model.clone()
    assert model.forward(sample).total == twin.forward(sample).total
    twin.store.set_values("model.out.b", np.ones(len(model.vocab)))
    assert not np.array_equal(model.store["model.out.b"].values,
                              twin.store["model.out.b"].values)


def test_overfit_single_sample_decreases_nll_and_bow():
    from mkgd.meta import MetaConfig, supervised_train

    model = DialogueModel(tiny_vocab(), 8, 8, seed=1)
    sample = tiny_sample(model.vocab, tiny_graph())
    first = model.forward(sample)
    cfg = MetaConfig(alpha=0.01, beta=0.01, max_episodes=50)
    supervised_train(model, [sample], cfg, epochs=50, shuffle=False)
    last = model.forward(sample)
    assert last.nll < first.nll
    assert last.bow < first.bow
    assert last.nll >= 0.0 and last.bow >= 0.0
