import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from mkgd import tensor as T
from mkgd.data import Vocab
from mkgd.dialogue import DialogueGoal, DialogueSample, KnowledgeGraph, KnowledgeTriplet
from mkgd.errors import ContractError, NumericError
from mkgd.metrics import selection_accuracy
from mkgd.layers import MASKED, build_mlp, gru_encode
from mkgd.model import (
    DialogueModel,
    bow_loss,
    kl_div_loss,
    nll_loss,
    posterior_distribution,
    prior_distribution,
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


def built_mlp(seed, prefix, dims):
    """An MLP drawn with seed into a store of its own; seed None makes every weight zero."""
    store = ParamStore(seed)
    with store.building():
        return build_mlp(store, prefix, dims)


def tiny_sample(vocab, graph, history="a r0", response="b c"):
    return DialogueSample(
        history=vocab.encode(history.split()),
        response=vocab.encode(response.split()) + [vocab.EOS],
        graph=graph,
        gold_triplet=0,
    )


def encode_graphs(model, graphs):
    """The knowledge read-out of encode, each graph under a one-token history."""
    return model.encode([[4]] * len(graphs), graphs).knowledge


def encode_histories(model, histories):
    """The history read-out of encode, each history over a one-triplet graph."""
    return model.encode(histories, [tiny_graph(1)] * len(histories)).history


# ---------------------------------------------------------------------------
# knowledge encoding


def test_encode_knowledge_identical_triplets_identical_rows():
    model = tiny_model()
    graph = KnowledgeGraph(
        [KnowledgeTriplet("a", "r0", "b"), KnowledgeTriplet("a", "r0", "b")],
        DialogueGoal(("[start]", "a", "b")),
    )
    k = encode_graphs(model, [graph]).rows.values[0]
    assert np.array_equal(k[0], k[1])
    # and across graphs encoded in one batch
    k, k_other = encode_graphs(model, [graph, tiny_graph(1)]).rows.values
    assert np.array_equal(k[0], k[1])
    assert np.allclose(k_other[0], k[0], atol=1e-15)


def test_encode_knowledge_single_triplet_shape():
    model = tiny_model(hidden=4)
    graph = tiny_graph(1)
    knowledge = encode_graphs(model, [graph])
    assert knowledge.rows.shape == (1, 1, 4)
    assert knowledge.mask is None
    knowledge = encode_graphs(model, [graph, tiny_graph(2), graph])
    assert knowledge.rows.shape == (3, 2, 4)
    assert np.array_equal(knowledge.mask.values,
                          [[0.0, MASKED], [0.0, 0.0], [0.0, MASKED]])


def test_encode_knowledge_row_matches_manual_gru_encode():
    model = tiny_model(seed=3)
    graph = tiny_graph(2)
    # a second graph whose triplet is longer makes the batch ragged
    longer = KnowledgeGraph([KnowledgeTriplet("a b", "r1", "x y c")],
                            DialogueGoal(("[start]", "a", "c")))
    for graphs in ([graph], [graph, longer]):
        for k, g in zip(encode_graphs(model, graphs).rows.values, graphs):
            for i, triplet in enumerate(g.triplets):
                ids = model.vocab.encode(triplet.tokens())
                states = gru_encode(model.embed, [(model.know_cell, [ids], False)])
                summary = states.table.values[states.finals(0)]
                row = model.store["model.know.proj.W"].values @ summary[0] \
                    + model.store["model.know.proj.b"].values
                assert np.allclose(k[i], row, atol=1e-14)


def test_encode_knowledge_rejects_empty():
    model = tiny_model()
    with pytest.raises(ContractError):
        model.encode([[4]], None)
    with pytest.raises(ContractError):
        model.encode([[4], [4]], [tiny_graph(), None])


# ---------------------------------------------------------------------------
# prior / posterior distributions


def test_prior_uniform_when_dots_equal():
    k = Tensor(np.ones((2, 4, 3)))
    x = Tensor(np.zeros((2, 3)))
    prior = prior_distribution(k, x)
    assert np.allclose(prior.values, [[0.25] * 4] * 2, atol=1e-12)


def test_prior_closed_form_quarter_three_quarters():
    k = Tensor([[[0.0], [math.log(3.0)]]])
    x = Tensor([[1.0]])
    prior = prior_distribution(k, x)
    assert np.allclose(prior.values, [[0.25, 0.75]], atol=1e-12)


def test_prior_matches_scalar_softmax_oracle():
    rng = np.random.default_rng(0)
    k = rng.normal(size=(2, 5, 4))
    x = rng.normal(size=(2, 4))
    got = prior_distribution(Tensor(k), Tensor(x)).values
    for b in range(2):
        dots = [sum(k[b, i, j] * x[b, j] for j in range(4)) for i in range(5)]
        exps = [math.exp(d - max(dots)) for d in dots]
        want = np.array([e / sum(exps) for e in exps])
        assert np.allclose(got[b], want, atol=1e-12)


def test_prior_masked_triplets_get_zero_weight():
    rng = np.random.default_rng(4)
    k = rng.normal(size=(2, 3, 4))
    x = rng.normal(size=(2, 4))
    mask = Tensor([[0.0, 0.0, MASKED], [0.0, 0.0, 0.0]])
    got = prior_distribution(Tensor(k), Tensor(x), mask).values
    assert got[0, 2] == 0.0
    assert np.allclose(got[0, :2], prior_distribution(Tensor(k[:1, :2]), Tensor(x[:1])).values,
                       atol=1e-15)
    assert np.allclose(got[1], prior_distribution(Tensor(k[1:]), Tensor(x[1:])).values,
                       atol=1e-15)


def test_posterior_single_triplet_is_one():
    model = tiny_model()
    k = encode_graphs(model, [tiny_graph(1)]).rows
    x = Tensor(np.zeros((1, 3)))
    y = Tensor(np.zeros((1, 3)))
    post = posterior_distribution(k, x, y, model.post_mlp)
    assert np.allclose(post.values, [[1.0]], atol=1e-15)


def test_posterior_uniform_when_projection_orthogonal():
    mlp = built_mlp(None, "post", (4, 3, 2))
    k = Tensor(np.random.default_rng(1).normal(size=(1, 3, 2)))
    post = posterior_distribution(k, Tensor([[0.1, 0.2]]), Tensor([[0.3, -0.1]]), mlp)
    assert np.allclose(post.values, [[1 / 3] * 3], atol=1e-12)


def test_posterior_hand_computed_rigged_instance():
    mlp = built_mlp(0, "post", (4, 2, 2))
    W0 = [[0.5, 0.0, -0.5, 0.0], [0.0, 0.5, 0.0, 0.5]]
    b0 = [0.1, -0.1]
    W1 = [[1.0, 0.0], [0.0, 1.0]]
    b1 = [0.0, 0.0]
    for t, vals in ((mlp.weights[0], W0), (mlp.biases[0], b0),
                    (mlp.weights[1], W1), (mlp.biases[1], b1)):
        t.values[...] = vals
    # two samples: the rigged one, and one with another history and triplets
    x = np.array([[0.2, -0.4], [-0.7, 0.1]])
    y = np.array([[0.6, 0.8], [0.3, -0.5]])
    k = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.5, -1.0], [2.0, 0.3]]])

    got = posterior_distribution(Tensor(k), Tensor(x), Tensor(y), mlp).values
    for b in range(2):
        joint = np.concatenate([x[b], y[b]])
        proj = np.array(W1) @ np.tanh(np.array(W0) @ joint + np.array(b0)) + np.array(b1)
        dots = k[b] @ proj
        want = np.exp(dots - dots.max())
        want /= want.sum()
        assert np.allclose(got[b], want, atol=1e-14)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_distributions_are_valid_probability_vectors(seed, n):
    rng = np.random.default_rng(seed)
    k = Tensor(rng.normal(size=(2, n, 3)) * 3)
    x = Tensor(rng.normal(size=(2, 3)) * 3)
    y = Tensor(rng.normal(size=(2, 3)) * 3)
    mlp = built_mlp(seed, "post", (6, 3, 3))
    for dist in (prior_distribution(k, x), posterior_distribution(k, x, y, mlp)):
        assert (dist.values >= 0).all()
        assert np.all(np.abs(dist.values.sum(axis=1) - 1.0) <= 1e-9)


def test_prior_argmax_invariant_under_positive_scaling():
    rng = np.random.default_rng(7)
    k = rng.normal(size=(2, 4, 3))
    x = rng.normal(size=(2, 3))
    base = prior_distribution(Tensor(k), Tensor(x)).values
    for c in (0.5, 2.0, 7.3):
        scaled = prior_distribution(Tensor(c * k), Tensor(c * x)).values
        assert np.array_equal(np.argmax(scaled, axis=1), np.argmax(base, axis=1))
        assert not np.allclose(scaled, base)  # values move, argmax does not


# ---------------------------------------------------------------------------
# losses


def test_kl_zero_when_equal():
    p = Tensor([[0.3, 0.7], [0.9, 0.1]])
    assert np.allclose(kl_div_loss(p, p).values, [0.0, 0.0], rtol=0.0, atol=1e-15)


def test_kl_ln2_case():
    got = kl_div_loss(Tensor([[1.0, 0.0]]), Tensor([[0.5, 0.5]])).values
    assert got.shape == (1,)
    assert got[0] == pytest.approx(math.log(2.0), abs=1e-9)


def test_kl_half_ln3_case():
    # row by row: the ln 3 / 2 case beside the equal-distributions case
    got = kl_div_loss(Tensor([[0.75, 0.25], [0.5, 0.5]]), Tensor([[0.25, 0.75], [0.5, 0.5]]))
    assert got.values[0] == pytest.approx(0.5 * math.log(3.0), abs=1e-12)
    assert got.values[1] == pytest.approx(0.0, abs=1e-15)


def test_kl_non_negative_and_zero_iff_equal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4), size=2)
        q = rng.dirichlet(np.ones(4), size=2)
        vals = kl_div_loss(Tensor(p), Tensor(q)).values
        for b in range(2):
            assert vals[b] >= -1e-12
            if np.abs(p[b] - q[b]).max() > 1e-6:
                assert vals[b] > 0.0


def test_kl_length_mismatch():
    with pytest.raises(ContractError):
        kl_div_loss(Tensor([[1.0]]), Tensor([[0.5, 0.5]]))
    with pytest.raises(ContractError):
        kl_div_loss(Tensor([[1.0, 0.0]]), Tensor([[0.5, 0.5], [0.5, 0.5]]))


def test_nll_zero_when_gold_probability_one():
    logits = Tensor([[800.0, 0.0, 0.0], [0.0, 800.0, 0.0], [0.0, 0.0, 800.0]])
    got = nll_loss(logits, [[0, 1], [2]]).values
    assert np.allclose(got, [0.0, 0.0], rtol=0.0, atol=1e-12)


def test_nll_uniform_logits_closed_form():
    V, m = 7, 3
    logits = Tensor(np.zeros((m + 1, V)))
    got = nll_loss(logits, [[0, 3, 6], [2]]).values
    assert got[0] == pytest.approx(m * math.log(V), abs=1e-9)
    assert got[1] == pytest.approx(math.log(V), abs=1e-9)


def test_nll_matches_hand_cross_entropy():
    logits = Tensor([[1.0, 2.0, 0.5], [0.0, -1.0, 0.3], [0.7, 0.2, -0.4]])
    responses = [[1, 2], [0]]
    targets = [1, 2, 0]
    losses = []
    for v, t in zip(logits.values, targets):
        probs = np.exp(v - v.max())
        probs /= probs.sum()
        losses.append(-math.log(probs[t]))
    got = nll_loss(logits, responses).values
    assert got[0] == pytest.approx(losses[0] + losses[1], abs=1e-12)
    assert got[1] == pytest.approx(losses[2], abs=1e-12)


def test_nll_rejects_out_of_vocab_target():
    with pytest.raises(ContractError):
        nll_loss(Tensor([[0.0, 0.0]]), [[2]])
    with pytest.raises(ContractError):
        nll_loss(Tensor([[0.0, 0.0]]), [[0, 1]])
    with pytest.raises(ContractError):
        nll_loss(Tensor([[0.0, 0.0]]), [[0], [1]])


def test_bow_uniform_closed_form():
    mlp = built_mlp(None, "bow", (3, 5))
    fused = Tensor([[0.4, -0.2, 0.1], [0.0, 1.0, -2.0]])
    got = bow_loss(fused, [[0, 2, 4], [1]], mlp).values
    assert got[0] == pytest.approx(3 * math.log(5), abs=1e-9)
    assert got[1] == pytest.approx(math.log(5), abs=1e-9)


def test_bow_concentrated_is_near_zero():
    mlp = built_mlp(None, "bow", (2, 4))
    mlp.biases[0].values[...] = [0.0, 800.0, 0.0, 0.0]
    got = bow_loss(Tensor([[0.0, 0.0]]), [[1, 1, 1]], mlp).values
    assert got.shape == (1,)
    assert got[0] == pytest.approx(0.0, abs=1e-9)


def test_bow_hand_computation_length_two():
    mlp = built_mlp(0, "bow", (2, 3))
    W = [[0.5, -0.5], [0.2, 0.1], [-0.3, 0.4]]
    b = [0.05, -0.05, 0.0]
    mlp.weights[0].values[...] = W
    mlp.biases[0].values[...] = b
    fused = np.array([[0.7, -0.2], [-0.1, 0.9]])
    responses = [[2, 0], [1]]
    got = bow_loss(Tensor(fused), responses, mlp).values
    for row, response, value in zip(fused, responses, got):
        scores = np.array(W) @ row + np.array(b)
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        want = -sum(math.log(probs[t]) for t in response)
        assert value == pytest.approx(want, abs=1e-12)


def test_bow_rejects_row_count_mismatch():
    mlp = built_mlp(0, "bow", (2, 3))
    with pytest.raises(ContractError):
        bow_loss(Tensor([[0.0, 0.0]]), [[1], [2]], mlp)


# ---------------------------------------------------------------------------
# decoding


def ragged_pair(vocab):
    """Two samples over two graphs; histories, responses and triplets differ in length."""
    other = KnowledgeGraph([KnowledgeTriplet("a", "r0", "x y"), KnowledgeTriplet("c", "r1", "b"),
                            KnowledgeTriplet("y", "r0", "a")],
                           DialogueGoal(("[start]", "c", "a")))
    return [tiny_sample(vocab, tiny_graph()),
            tiny_sample(vocab, other, history="c r1 x y a", response="x")]


def test_decode_logits_shape():
    model = tiny_model()
    V = len(model.vocab)
    for samples in ([tiny_sample(model.vocab, tiny_graph())], ragged_pair(model.vocab)):
        history = encode_histories(model, [s.history for s in samples])
        fused = Tensor(np.zeros((len(samples), model.hidden_dim)))
        logits = model.decode_with_knowledge(history, fused, [s.response for s in samples])
        assert logits.shape == (sum(len(s.response) for s in samples), V)


def test_decode_projects_all_positions_in_one_affine():
    model = tiny_model()
    samples = ragged_pair(model.vocab)
    assert len(samples[0].response) > 1
    history = encode_histories(model, [s.history for s in samples])
    tape = T.Tape()
    tape.watch(model.store)
    with tape:
        logits = model.decode_with_knowledge(history, Tensor(np.zeros((2, model.hidden_dim))),
                                             [s.response for s in samples])
    out_w = tape.watched["model.out.W"]
    uses = [i for i, (_, ids, _) in enumerate(tape.nodes) if out_w in ids]
    assert [tape.nodes[i][0] for i in uses] == ["transpose"]
    assert [kind for kind, ids, _ in tape.nodes if uses[0] in ids] == ["affine"]
    assert logits.values.flags.c_contiguous


def test_decode_empty_response_rejected():
    model = tiny_model()
    history = encode_histories(model, [[4]])
    with pytest.raises(ContractError):
        model.decode_with_knowledge(history, Tensor(np.zeros((1, 3))), [[]])
    history = encode_histories(model, [[4], [5, 6]])
    with pytest.raises(ContractError):
        model.decode_with_knowledge(history, Tensor(np.zeros((2, 3))), [[4], []])


def test_decode_matches_numpy_reference():
    model = tiny_model(seed=12)
    P = model.store.snapshot()
    H = model.hidden_dim
    pair = ragged_pair(model.vocab)
    for samples in (pair[:1], pair):
        history, knowledge, _, y_sum = model.encode(
            [s.history for s in samples], [s.graph for s in samples],
            [s.response for s in samples])
        posts = posterior_distribution(knowledge.rows, history.summary, y_sum,
                                       model.post_mlp, knowledge.mask)
        fused = model.fuse_knowledge(knowledge.rows, posts)
        got = model.decode_with_knowledge(history, fused, [s.response for s in samples]).values

        row = 0
        for s, post in zip(samples, posts.values):
            np_states, np_x = helpers.np_encode_history(P, s.history, H)
            np_k = helpers.np_encode_knowledge(P, model.vocab, s.graph, H)
            y_states = helpers.np_gru_run(P, "model.resp.fwd", s.response, H)
            np_post = helpers.np_posterior(P, np_k, np_x, y_states[-1])
            np_fused = np_post @ np_k
            want = helpers.np_decode(P, model.vocab, np_states, np_fused, s.response, H)

            assert np.allclose(np_post, post[:len(s.graph)], atol=1e-12)
            assert not post[len(s.graph):].any()
            for w in want:
                assert np.allclose(got[row], w, atol=1e-10)
                row += 1
        assert row == got.shape[0]


def test_decode_zero_fusion_equals_plain_attentive_seq2seq():
    model = tiny_model(seed=4)
    P = model.store.snapshot()
    H = model.hidden_dim
    pair = ragged_pair(model.vocab)
    for samples in (pair[:1], pair):
        history = encode_histories(model, [s.history for s in samples])
        got = model.decode_with_knowledge(history, Tensor(np.zeros((len(samples), H))),
                                          [s.response for s in samples]).values
        want = []
        for s in samples:
            np_states, _ = helpers.np_encode_history(P, s.history, H)
            want += helpers.np_decode(P, model.vocab, np_states, np.zeros(H), s.response, H)
        assert np.allclose(got, np.array(want), atol=1e-10)


# ---------------------------------------------------------------------------
# generation


def rig_eos_favoring(model, bias=100.0):
    values = {name: np.zeros(t.shape) for name, t in model.store.items()}
    values["model.out.b"][model.vocab.EOS] = bias
    model.load_values(values)


def test_generate_eos_favoring_model_emits_empty():
    model = tiny_model()
    rig_eos_favoring(model)
    out, selected = model.generate([4], tiny_graph(), max_len=8)
    assert out == []
    assert selected == 0


def test_generate_respects_max_len():
    model = tiny_model()
    rig_eos_favoring(model)
    b = model.store["model.out.b"].values
    b[...] = 0.0
    b[5] = 100.0  # favor a non-EOS token forever
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


def rig_eos_after_x(model):
    """Make a row whose history holds "x" end at EOS after a few tokens; others run to max_len.

    Embedding column 0 flags "x"; state 0 of the forward history encoder
    and of the decoder each take half of tanh(their flag input) per step, so
    the decoder's state 0 grows only in rows whose (uniform) attention
    context saw an "x". The EOS logit reads that state alone; every other
    token keeps a tenth of its random output row, so the rest of the model,
    knowledge included, still picks the tokens.
    """
    E, eos, x = model.embed_dim, model.vocab.EOS, model.vocab.encode(["x"])[0]
    values = {name: t.values.copy() for name, t in model.store.items()}
    values["model.embed.W"][:, 0] = 0.0
    values["model.embed.W"][x, 0] = 1.0
    for cell, column in (("model.enc.fwd", 0), ("model.dec", E)):
        for name in ("W_z", "U_z", "b_z", "W_h", "U_h", "b_h"):
            values[f"{cell}.{name}"][0] = 0.0
        values[f"{cell}.W_h"][0, column] = 1.0
    values["model.att.v"][:] = 0.0
    out_W, out_b = values["model.out.W"], values["model.out.b"]
    out_W *= 0.1
    out_W[eos] = 0.0
    out_W[eos, 0] = 300.0
    out_b[:] = 1.0
    out_b[eos] = -30.0
    model.load_values(values)


def test_generate_batch_equals_each_row_alone():
    # Ragged histories and two distinct graphs of 2 and 3 triplets, the
    # smaller shared by two rows: the knowledge is padded and masked. The
    # middle row ends at EOS after two tokens and steps on PAD while the
    # others run to max_len.
    model = tiny_model(seed=0)
    rig_eos_after_x(model)
    vocab = model.vocab
    two = tiny_graph()
    three = KnowledgeGraph([KnowledgeTriplet("a", "r0", "x y"), KnowledgeTriplet("c", "r1", "b"),
                            KnowledgeTriplet("y", "r0", "a")],
                           DialogueGoal(("[start]", "a", "b")))
    histories = [vocab.encode(h.split()) for h in ("a r0", "c x y a b r1", "b")]
    graphs = [two, three, two]
    batched = model.generate(histories, graphs, max_len=7)
    assert [len(ids) for ids, _ in batched] == [7, 2, 7]
    assert batched == [model.generate(h, g, max_len=7) for h, g in zip(histories, graphs)]


def test_generate_batch_needs_one_graph_per_history():
    model = tiny_model()
    with pytest.raises(ContractError, match="2 histories for 1 graphs"):
        model.generate([[4], [5]], [tiny_graph()], max_len=3)
    with pytest.raises(ContractError, match="1 histories for 2 graphs"):
        model.generate([[4]], [tiny_graph(), tiny_graph()], max_len=3)


# ---------------------------------------------------------------------------
# full forward / scoring


def test_forward_output_consistency():
    model = tiny_model(seed=9)
    for samples in ([tiny_sample(model.vocab, tiny_graph())], ragged_pair(model.vocab)):
        totals, terms = model.forward(samples)
        summary = terms.summary()
        assert totals.shape == (len(samples),)
        assert np.array_equal(terms.total, totals.values)
        assert summary["total"] == sum(totals.values.tolist()) / len(samples)
        assert summary["total"] == pytest.approx(
            summary["kl"] + summary["nll"] + summary["bow"], rel=1e-12)
        for sample, total in zip(samples, totals.values):
            single = model.forward([sample])[1].summary()
            assert single["total"] == pytest.approx(total, rel=1e-12)
            assert single["total"] == pytest.approx(
                single["kl"] + single["nll"] + single["bow"], rel=1e-12)
            assert single["nll"] >= 0.0 and single["bow"] >= 0.0 and single["kl"] >= -1e-12
            # the prior depends on the history alone, so score() sees the same one
            top = int(np.argmax(model.score([sample])[0].prior))
            assert single["sel_acc"] == (top == sample.gold_triplet)


def test_forward_weighted_terms_sum_to_total():
    model = DialogueModel(tiny_vocab(), 3, 3, seed=9, loss_weights=(0.5, 2.0, 0.0))
    sample = tiny_sample(model.vocab, tiny_graph())
    totals, terms = model.forward([sample])
    summary = terms.summary()
    assert summary["bow"] == 0.0
    assert summary["total"] == pytest.approx(
        summary["kl"] + summary["nll"] + summary["bow"], rel=1e-12)
    assert totals.item() == summary["total"]


def test_score_matches_numpy_reference():
    model = tiny_model(seed=2)
    sample = tiny_sample(model.vocab, tiny_graph())
    P = model.store.snapshot()
    H = model.hidden_dim
    [(nll, tokens, prior)] = model.score([sample])
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


def test_batched_score_equals_single_sample_scores():
    model = tiny_model(seed=5, hidden=4)
    graph = tiny_graph()
    # two samples share one graph object, the middle one has another
    samples = [tiny_sample(model.vocab, graph), ragged_pair(model.vocab)[1],
               tiny_sample(model.vocab, graph, history="x a r0 b", response="a b c x")]
    assert len({id(s.graph) for s in samples}) == 2
    assert len({len(s.history) for s in samples}) == len(samples)
    assert len({len(s.response) for s in samples}) == len(samples)
    batched = model.score(samples)
    assert len(batched) == len(samples)
    for sample, got in zip(samples, batched):
        [want] = model.score([sample])
        assert got.tokens == want.tokens == len(sample.response)
        assert abs(got.nll - want.nll) <= 1e-12 * abs(want.nll)
        assert np.allclose(got.prior, want.prior, rtol=0.0, atol=1e-12)


def test_clone_is_bit_exact_and_independent():
    model = tiny_model(seed=13)
    sample = tiny_sample(model.vocab, tiny_graph())
    twin = model.clone()
    assert model.forward([sample])[1].summary() == twin.forward([sample])[1].summary()
    twin.store["model.out.b"].values[...] = 1.0
    assert not np.array_equal(model.store["model.out.b"].values,
                              twin.store["model.out.b"].values)


def test_clone_draws_no_random_numbers(monkeypatch):
    model = tiny_model(seed=13)

    def no_generator(*args, **kwargs):
        raise AssertionError("clone made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    twin = model.clone()
    assert [n for n, _ in twin.store.items()] == [n for n, _ in model.store.items()]
    assert np.array_equal(twin.store.vector, model.store.vector)
    assert not np.shares_memory(twin.store.vector, model.store.vector)


def _recorded_objective(model, samples):
    tape = T.Tape()
    tape.watch(model.store)
    with tape:
        loss, _ = model.batch_objective(samples)
    return loss.item(), T.backward(tape, loss)


def overflowing_model():
    """A model whose first encoder gate overflows: its affine node, unit embeddings times W_z of 1e308."""
    model = tiny_model()
    for name, value in (("model.embed.W", 1.0), ("model.enc.fwd.W_z", 1e308)):
        model.store[name].values[...] = value
    return model


def test_overflow_in_recorded_forward_names_the_affine():
    model = overflowing_model()
    tape = T.Tape()
    tape.watch(model.store)
    with pytest.raises(NumericError, match="non-finite result in op 'affine'"), tape:
        model.forward([tiny_sample(model.vocab, tiny_graph())])


MODEL_CALLS = {
    "forward": lambda model, sample: model.forward([sample]),
    "score": lambda model, sample: model.score([sample]),
    "generate": lambda model, sample: model.generate(sample.history, sample.graph, 3),
}
CLI_ERRSTATE = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


@pytest.mark.parametrize("outer", [{}, CLI_ERRSTATE], ids=["default", "cli"])
@pytest.mark.parametrize("call", list(MODEL_CALLS))
def test_model_call_traps_overflow_and_restores_the_error_state(call, outer):
    with np.errstate(**outer):
        before = np.geterr()
        sample = tiny_sample(tiny_vocab(), tiny_graph())
        MODEL_CALLS[call](tiny_model(), sample)
        assert np.geterr() == before
        with pytest.raises(NumericError, match="non-finite result in op 'affine'"):
            MODEL_CALLS[call](overflowing_model(), sample)
        assert np.geterr() == before
    assert not T._TRAPPING.get()


@pytest.mark.parametrize("call", list(MODEL_CALLS))
def test_model_call_runs_its_primitives_under_the_trap(call, monkeypatch):
    seen = []

    def tanh(t):
        seen.append(T._TRAPPING.get())
        return original(t)

    original = T.tanh
    monkeypatch.setattr(T, "tanh", tanh)
    MODEL_CALLS[call](tiny_model(), tiny_sample(tiny_vocab(), tiny_graph()))
    assert seen and all(seen)


def test_ragged_batch_equals_mean_of_single_samples():
    model = DialogueModel(tiny_vocab(), 4, 5, seed=17, loss_weights=(0.5, 1.0, 2.0))
    samples = ragged_pair(model.vocab) + [
        tiny_sample(model.vocab, tiny_graph(), history="x a r0 b", response="a b c x")]
    assert len({len(s.history) for s in samples}) == len(samples)
    assert len({len(s.response) for s in samples}) == len(samples)
    loss, grads = _recorded_objective(model, samples)
    singles = [_recorded_objective(model, [s]) for s in samples]
    want = sum(value for value, _ in singles) / len(samples)
    assert abs(loss - want) <= 1e-12 * abs(want)
    # Relative to the largest gradient entry: some gradients (model.att.b) are
    # near-cancellations, 1e-10 sums of far larger terms, so an error of one
    # rounding in those terms is large next to their own size.
    scale = max(np.max(np.abs(g.values)) for g in grads.values())
    for name, g in grads.items():
        want = sum(single[name].values for _, single in singles) / len(samples)
        assert np.max(np.abs(g.values - want)) <= 1e-12 * scale, name


def mixed_graph_batch(vocab):
    """Three samples over graphs of 1, 3 and 4 triplets, with ragged histories and responses."""
    def graph(*triplets):
        return KnowledgeGraph([KnowledgeTriplet(*t) for t in triplets],
                              DialogueGoal(("[start]", "a", "b")))

    graphs = [graph(("a", "r0", "b")),
              graph(("a", "r0", "x y"), ("c", "r1", "b"), ("y", "r0", "a")),
              graph(("b", "r1", "c"), ("x", "r0", "y"), ("a", "r1", "a"), ("c", "r0", "x b"))]
    texts = [("a r0", "b c", 0), ("c r1 x y a", "x", 2), ("x a r0 b", "a b c x", 3)]
    return [DialogueSample(history=vocab.encode(h.split()),
                           response=vocab.encode(r.split()) + [vocab.EOS],
                           graph=g, gold_triplet=gold)
            for g, (h, r, gold) in zip(graphs, texts)]


def test_mixed_graph_batch_equals_single_samples():
    model = DialogueModel(tiny_vocab(), 4, 5, seed=23, loss_weights=(0.5, 1.0, 2.0))
    samples = mixed_graph_batch(model.vocab)
    assert [len(s.graph) for s in samples] == [1, 3, 4]
    totals, terms = model.forward(samples)
    summary = terms.summary()
    singles = [model.forward([s])[1].summary() for s in samples]
    for total, want in zip(totals.values, singles):
        assert abs(total - want["total"]) <= 1e-12 * abs(want["total"])
    for key in ("kl", "nll", "bow", "total", "sel_acc"):
        mean = sum(want[key] for want in singles) / len(samples)
        assert abs(summary[key] - mean) <= 1e-12 * abs(mean), key
    loss, _ = model.batch_objective(samples)
    mean = sum(want["total"] for want in singles) / len(samples)
    assert abs(loss.item() - mean) <= 1e-12 * abs(mean)

    # padded triplets get exactly no weight, from the prior or the posterior
    history, knowledge, prior, response = model.encode(
        [s.history for s in samples], [s.graph for s in samples],
        [s.response for s in samples])
    posterior = posterior_distribution(
        knowledge.rows, history.summary, response, model.post_mlp, knowledge.mask)
    for i, s in enumerate(samples):
        for dist in (prior.values[i], posterior.values[i]):
            assert np.all(dist[len(s.graph):] == 0.0)
            assert np.all(dist[:len(s.graph)] > 0.0)

    # score trims each prior to its own graph; selection reads only real triplets
    scored = model.score(samples)
    assert [len(r.prior) for r in scored] == [len(s.graph) for s in samples]
    for i, (s, r) in enumerate(zip(samples, scored)):
        assert np.allclose(r.prior, prior.values[i, :len(s.graph)], rtol=0.0, atol=1e-15)
    golds = [s.gold_triplet for s in samples]
    assert selection_accuracy([r.prior for r in scored], golds) == summary["sel_acc"]
    assert terms.hit.tolist() == [int(np.argmax(r.prior)) == g for r, g in zip(scored, golds)]


def test_masked_selection_gradients_match_finite_differences():
    model = DialogueModel(Vocab(["a", "b", "r0", "r1"]), 3, 3, seed=29)
    one = KnowledgeGraph([KnowledgeTriplet("a", "r0", "b")], DialogueGoal(("[start]", "a", "b")))
    three = KnowledgeGraph([KnowledgeTriplet("b", "r1", "a"), KnowledgeTriplet("a", "r1", "a"),
                            KnowledgeTriplet("b", "r0", "b a")],
                           DialogueGoal(("[start]", "b", "a")))
    samples = [tiny_sample(model.vocab, one, history="a r0 b", response="b"),
               tiny_sample(model.vocab, three, history="r1 a", response="a b a")]
    assert encode_graphs(model, [one, three]).mask is not None
    names = [n for n, _ in model.store.items()
             if n.startswith(("model.post.", "model.bow.", "model.know.", "model.enc.proj."))]
    _, analytic = _recorded_objective(model, samples)
    numeric = helpers.finite_diff_grads(
        model.store, lambda: model.batch_objective(samples)[0].item(), names=names)
    helpers.assert_grads_close({n: analytic[n] for n in names}, numeric)


def test_forward_tape_size_does_not_grow_with_batch():
    model = tiny_model(seed=31)
    graph = tiny_graph()
    texts = [("a r0", "b c"), ("b r1", "c a"), ("x y", "a x"), ("c a", "y b"),
             ("r1 b", "b b"), ("a a", "c c")]

    def nodes(batch):
        samples = [tiny_sample(model.vocab, graph, history=h, response=r) for h, r in batch]
        tape = T.Tape()
        with tape:
            model.forward(samples)
        return len(tape.nodes)

    assert nodes(texts[:2]) == nodes(texts)


def _sigmoid_nodes(run):
    tape = T.Tape()
    with tape:
        run()
    return sum(kind == "sigmoid" for kind, _, _ in tape.nodes)


def test_encoders_step_in_lockstep():
    # A GRU step records two sigmoid nodes. The encoders step in lockstep
    # groups: the longest history, response or triplet run and every run of
    # at most its rows step together, as many steps as that longest run; a
    # shorter run of more rows steps apart, as many steps as its own longest
    # sequence. The decoder then steps as many as the longest response.
    model = tiny_model(seed=37)
    vocab = model.vocab
    long_triplet = KnowledgeGraph([KnowledgeTriplet("a b c", "r0", "x y a"),
                                   KnowledgeTriplet("a", "r1", "b")],
                                  DialogueGoal(("[start]", "a", "b")))
    batches = {
        "history": [tiny_sample(vocab, tiny_graph(), history="a r0 b c x y a b", response="b"),
                    tiny_sample(vocab, tiny_graph(1))],
        "response": [tiny_sample(vocab, tiny_graph(), history="a", response="a b c x y a b")],
        "triplet": [tiny_sample(vocab, long_triplet, history="a", response="b"),
                    tiny_sample(vocab, tiny_graph(), history="x y", response="c a b")],
    }
    # Each group's steps, for forward over the batch and for generate over its
    # first sample. "history": 2 histories of up to 8 tokens, 3 triplets of 3;
    # the first sample alone is 1 history of 8 beside 2 triplets. "response":
    # 1 response of 8, 2 triplets of 3; generate reads no response, so its 2
    # triplets are the longest run and the 1-token history steps with them.
    # "triplet": 4 triplets of up to 7 tokens are the longest run and have the
    # most rows.
    group_steps = {"history": ((8, 3), (8, 3)),
                   "response": ((8, 3), (3,)),
                   "triplet": ((7,), (7,))}
    for longest, samples in batches.items():
        lengths = {
            "history": max(len(s.history) for s in samples),
            "response": max(len(s.response) for s in samples),
            "triplet": max(len(vocab.encode(t.tokens()))
                           for s in samples for t in s.graph.triplets),
        }
        assert max(lengths, key=lengths.get) == longest
        forward_steps, generate_steps = group_steps[longest]
        assert forward_steps[0] == max(lengths.values())
        assert _sigmoid_nodes(lambda: model.forward(samples)) == \
            2 * (sum(forward_steps) + lengths["response"]), longest
        # generate runs the history and triplet encoders only, then one decoder step
        sample = samples[0]
        assert _sigmoid_nodes(lambda: model.generate(sample.history, sample.graph, 1)) == \
            2 * (sum(generate_steps) + 1), longest


def four_triplet_graph():
    """Four triplets of 3 or 4 tokens."""
    triplets = [KnowledgeTriplet(h, r, t) for h, r, t in
                (("a", "r0", "b"), ("b", "r1", "c"), ("c", "r0", "x y"), ("x", "r1", "a"))]
    return KnowledgeGraph(triplets, DialogueGoal(("[start]", "a", "b")))


def test_chat_shaped_encode_steps_its_graph_apart():
    # One history longer than any triplet, beside a graph of 4: the history
    # runs step as one row, and the 4 triplets apart, over their own length.
    model = tiny_model(seed=43, hidden=4)
    vocab, graph = model.vocab, four_triplet_graph()
    history = vocab.encode("a r0 b c x y a b c r1".split())
    triplet_steps = max(len(vocab.encode(t.tokens())) for t in graph.triplets)
    assert len(history) == 10 and triplet_steps == 4
    assert _sigmoid_nodes(lambda: model.encode([history], [graph])) == \
        2 * (len(history) + triplet_steps)
    # the same history repeated to 4 rows has as many rows as the triplets: one lockstep
    assert _sigmoid_nodes(lambda: model.encode([history] * 4, [graph] * 4)) == 2 * len(history)
    alone = model.encode([history], [graph])
    padded = model.encode([history] * 4, [graph] * 4)
    for got, want in ((alone.history.states, padded.history.states),
                      (alone.history.summary, padded.history.summary),
                      (alone.knowledge.rows, padded.knowledge.rows),
                      (alone.prior, padded.prior)):
        assert np.allclose(got.values[0], want.values[0], rtol=1e-12, atol=0)
    ids, selected = model.generate(history, graph, 6)
    assert len(ids) == 6  # no EOS: every step's token is compared
    assert model.generate([history] * 4, [graph] * 4, 6) == [(ids, selected)] * 4


def test_training_shaped_batch_encodes_in_one_lockstep():
    # 8 histories and responses beside one graph of 4 triplets: no run has
    # more rows than the longest, so every encoder steps in one recurrence.
    model = tiny_model(seed=47)
    vocab, graph = model.vocab, four_triplet_graph()
    texts = [("a r0", "b c"), ("b r1 c x", "c a"), ("x y", "a x y b"), ("c a", "y"),
             ("r1 b a", "b b"), ("a a", "c c"), ("y", "x"), ("b c x y a b", "a b")]
    samples = [tiny_sample(vocab, graph, history=h, response=r) for h, r in texts]
    histories = [s.history for s in samples]
    responses = [s.response for s in samples]
    longest = max(map(len, histories + responses))
    assert longest == 6
    tape = T.Tape()
    with tape:
        model.encode(histories, [graph] * 8, responses)
    kinds = [kind for kind, _, _ in tape.nodes]
    assert kinds.count("concat") == 0 and kinds.count("sigmoid") == 2 * longest
    assert _sigmoid_nodes(lambda: model.forward(samples)) == \
        2 * (longest + max(map(len, responses)))


def test_overfit_single_sample_decreases_nll_and_bow():
    from mkgd.config import RunConfig
    from mkgd.meta import supervised_train

    model = DialogueModel(tiny_vocab(), 8, 8, seed=1)
    sample = tiny_sample(model.vocab, tiny_graph())
    first = model.forward([sample])[1].summary()
    cfg = RunConfig(alpha=0.01, beta=0.01, max_episodes=50)
    supervised_train(model, [sample], cfg)
    last = model.forward([sample])[1].summary()
    assert last["nll"] < first["nll"]
    assert last["bow"] < first["bow"]
    assert last["nll"] >= 0.0 and last["bow"] >= 0.0
