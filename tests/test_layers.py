from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from helpers import assert_grads_close, finite_diff_grads
from mkgd import tensor as T
from mkgd.errors import ContractError, DimensionError, VocabError
from mkgd.layers import (
    MASKED,
    GruStates,
    Ragged,
    attend,
    build_attention,
    build_gru_cell,
    build_mlp,
    gru_encode,
    lockstep_layout,
    mlp_forward,
    stack_cells,
)
from mkgd.params import ParamStore
from mkgd.tensor import Tape, Tensor, backward


def set_all(store, names_to_values):
    """Write each named parameter's values in place."""
    for name, vals in names_to_values.items():
        store[name].values[...] = vals


# ---------------------------------------------------------------------------
# Embedding lookup


def test_embedding_rejects_out_of_range():
    store = ParamStore(0)
    with store.building():
        embed = store.create("emb.W", (6, 3), init="uniform")
        cell = build_gru_cell(store, "g", 3, 2)
    with pytest.raises(VocabError):
        gru_encode(embed, [(cell, [[6]], False)])
    with pytest.raises(VocabError):
        gru_encode(embed, [(cell, [[2, -1]], False)])


# ---------------------------------------------------------------------------
# GRU cell


def test_gru_step_matches_hand_evaluated_gates():
    store = ParamStore(0)
    with store.building():
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
    xs = np.array([[1.0, -0.5], [-0.3, 0.8]])
    hs = np.array([[0.2, -0.1], [0.0, 0.4]])

    # independent evaluation of the gate equations with plain numpy
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def want(x, h):
        z = sig(np.array(W_z) @ x + np.array(U_z) @ h + np.array(b_z))
        r = sig(np.array(W_r) @ x + np.array(U_r) @ h + np.array(b_r))
        c = np.tanh(np.array(W_h) @ x + np.array(U_h) @ (r * h) + np.array(b_h))
        return (1.0 - z) * c + z * h

    # one sample, then a batch whose rows step independently
    got = cell.step(Tensor(xs[:1]), Tensor(hs[:1]), cell.transposed()).values
    assert np.allclose(got[0], want(xs[0], hs[0]), atol=1e-14)
    got = cell.step(Tensor(xs), Tensor(hs), cell.transposed()).values
    for row, x, h in zip(got, xs, hs):
        assert np.allclose(row, want(x, h), atol=1e-14)


def test_gru_zero_weights_zero_input_is_fixed_map():
    store = ParamStore(None)  # every weight zero
    with store.building():
        cell = build_gru_cell(store, "g", 2, 2)
    h = cell.step(Tensor([[0.0, 0.0], [0.0, 0.0]]), Tensor([[1.0, 2.0], [-4.0, 0.0]]),
                  cell.transposed()).values
    # z = r = 0.5, candidate = 0 -> h' = 0.5 h
    assert np.allclose(h, [[0.5, 1.0], [-2.0, 0.0]], atol=1e-15)


def composed_step(cell, x, h, mats):
    """GruCell.step as separate matmul and add nodes: the oracle for its affine gates."""
    W_z, U_z, W_r, U_r, W_h, U_h = mats
    z = T.sigmoid(T.add(T.add(T.matmul(x, W_z), T.matmul(h, U_z)), cell.b_z))
    r = T.sigmoid(T.add(T.add(T.matmul(x, W_r), T.matmul(h, U_r)), cell.b_r))
    c = T.tanh(T.add(T.add(T.matmul(x, W_h), T.matmul(T.mul(r, h), U_h)), cell.b_h))
    return T.add(c, T.mul(z, T.sub(h, c)))


@pytest.mark.parametrize("stacked", [False, True], ids=["one-cell", "stacked"])
def test_gru_step_is_bit_equal_to_the_matmul_and_add_composition(stacked):
    rng = np.random.default_rng(8)
    store = ParamStore(3)
    with store.building():
        cells = [build_gru_cell(store, f"g{i}", 4, 3) for i in range(2)]
    for _, t in store.items():  # non-zero biases, so the bias gradients are tested too
        t.values[...] = rng.normal(size=t.shape) * 0.7
    lead = (2,) if stacked else ()
    xs = [Tensor(rng.normal(size=lead + (5, 4))) for _ in range(3)]
    probe = Tensor(rng.normal(size=lead + (5, 3)))

    def run(step):
        cell = stack_cells(cells) if stacked else cells[0]
        mats = cell.transposed()
        h = Tensor(np.zeros(lead + (5, 3)))
        for x in xs:  # a recurrence, so each weight collects one term per step
            h = step(cell, x, h, mats)
        return h, T.sum_(T.tanh(T.mul(h, probe)))

    results = []
    for step in (lambda cell, x, h, mats: cell.step(x, h, mats), composed_step):
        tape = Tape()
        tape.watch(store)
        with tape:
            h, loss = run(step)
        results.append((h.values, backward(tape, loss)))
    (got, got_grads), (want, want_grads) = results
    assert np.array_equal(got, want)
    assert got_grads.keys() == want_grads.keys()
    for name in want_grads:
        assert np.array_equal(got_grads[name].values, want_grads[name].values), name


def test_gru_step_records_ten_nodes():
    store = ParamStore(0)
    with store.building():
        cell = build_gru_cell(store, "g", 2, 3)
    tape = Tape()
    tape.watch(store)
    with tape:
        mats = cell.transposed()
        before = len(tape.nodes)
        cell.step(Tensor(np.ones((4, 2))), Tensor(np.ones((4, 3))), mats)
    kinds = Counter(kind for kind, _, _ in tape.nodes[before:])
    assert kinds == {"affine": 3, "sigmoid": 2, "tanh": 1, "mul": 2, "sub": 1, "add": 1}


# ---------------------------------------------------------------------------
# gru_encode


def make_encoder(seed=0, vocab=7, embed=3, hidden=3, bidirectional=True):
    store = ParamStore(seed)
    with store.building():
        emb = store.create("emb.W", (vocab, embed), init="uniform")
        fwd = build_gru_cell(store, "enc.fwd", embed, hidden)
        bwd = build_gru_cell(store, "enc.bwd", embed, hidden) if bidirectional else None
    return store, emb, fwd, bwd


def both_ways(fwd, bwd, sequences):
    """A forward and a reversed run of one batch, as a bidirectional encoder runs them."""
    return [(fwd, sequences, False), (bwd, sequences, True)]


def read(states, run, row, position):
    """A run's state after reading token `position` of sequence `row`."""
    return states.table.values[states.at(run, row, position)]


def finals(states, run):
    """(rows, H) final states of a run's sequences."""
    return states.table.values[states.finals(run)]


def test_gru_encode_length_one_summary_is_the_state():
    _, emb, fwd, bwd = make_encoder()
    states = gru_encode(emb, both_ways(fwd, bwd, [[3]]))
    assert states.table.shape == (2, 3)  # one step of two one-row runs
    for run in (0, 1):
        assert np.array_equal(read(states, run, 0, 0), finals(states, run)[0])
    _, emb, fwd, _ = make_encoder(bidirectional=False)
    states = gru_encode(emb, [(fwd, [[3]], False)])
    assert np.array_equal(read(states, 0, 0, 0), finals(states, 0)[0])
    # in a ragged batch, a length-one sequence's summary is its first state
    states = gru_encode(emb, [(fwd, [[3], [1, 2, 4]], False)])
    assert np.array_equal(read(states, 0, 0, 0), finals(states, 0)[0])


def test_gru_encode_empty_sequence_rejected():
    _, emb, fwd, bwd = make_encoder()
    with pytest.raises(ContractError):
        gru_encode(emb, [])
    with pytest.raises(ContractError):
        gru_encode(emb, both_ways(fwd, bwd, []))
    with pytest.raises(ContractError):
        gru_encode(emb, both_ways(fwd, bwd, [[]]))
    with pytest.raises(ContractError):
        gru_encode(emb, both_ways(fwd, bwd, [[1, 2], []]))
    with pytest.raises(ContractError):
        gru_encode(emb, [(fwd, [[1, 2]], False), (bwd, [], True)])


def test_gru_encode_reversal_swaps_directions():
    # forward summary of s equals backward summary of reverse(s) with cells swapped
    store = ParamStore(5)
    with store.building():
        emb = store.create("emb.W", (9, 3), init="uniform")
        cell_a = build_gru_cell(store, "a", 3, 4)
        cell_b = build_gru_cell(store, "b", 3, 4)
    seqs = [[1, 5, 2, 7], [3, 8]]
    summary_fwd = gru_encode(emb, both_ways(cell_a, cell_b, seqs))
    summary_rev = gru_encode(emb, both_ways(cell_b, cell_a, [list(reversed(s)) for s in seqs]))
    assert np.allclose(finals(summary_fwd, 0), finals(summary_rev, 1), atol=1e-15)


def test_gru_encode_bidirectional_shapes():
    _, emb, fwd, bwd = make_encoder(hidden=3)
    states = gru_encode(emb, both_ways(fwd, bwd, [[1, 2, 3]]))
    assert states.table.shape == (3 * 2 * 1, 3) and states.strides == (2, 2)
    assert finals(states, 0).shape == finals(states, 1).shape == (1, 3)
    states = gru_encode(emb, both_ways(fwd, bwd, [[1, 2, 3], [4], [5, 6]]))
    assert states.table.shape == (3 * 2 * 3, 3) and states.strides == (6, 6)
    assert finals(states, 0).shape == finals(states, 1).shape == (3, 3)
    # runs of fewer rows than the longest step with it, as many steps as its longest sequence
    runs = both_ways(fwd, bwd, [[1, 2]]) + [(fwd, [[3], [4], [5, 6, 1, 2]], False)]
    states = gru_encode(emb, runs)
    assert states.table.shape == (4 * 3 * 3, 3)
    assert states.starts == (0, 3, 6) and states.strides == (9, 9, 9)
    assert finals(states, 0).shape == (1, 3) and finals(states, 2).shape == (3, 3)
    # a shorter run of more rows steps apart: 4 steps of 2 one-row runs, then 2 steps of 3 rows
    runs = both_ways(fwd, bwd, [[1, 2, 3, 4]]) + [(fwd, [[3], [4], [5, 6]], False)]
    states = gru_encode(emb, runs)
    assert states.table.shape == (4 * 2 * 1 + 2 * 1 * 3, 3)
    assert states.starts == (0, 1, 8) and states.strides == (2, 2, 3)
    assert finals(states, 0).shape == (1, 3) and finals(states, 2).shape == (3, 3)


def test_gru_encode_rejects_cells_of_different_sizes():
    store = ParamStore(0)
    with store.building():
        emb = store.create("emb.W", (5, 3), init="uniform")
        a, b = build_gru_cell(store, "a", 3, 3), build_gru_cell(store, "b", 3, 4)
    with pytest.raises(DimensionError):
        gru_encode(emb, [(a, [[1]], False), (b, [[1]], False)])
    # also when they would step in different lockstep groups
    with pytest.raises(DimensionError):
        gru_encode(emb, [(a, [[1, 2, 3]], False), (b, [[1], [2]], False)])


def test_gru_encode_is_pure():
    _, emb, fwd, bwd = make_encoder(seed=11)
    s1 = gru_encode(emb, both_ways(fwd, bwd, [[1, 2, 3], [4, 5]]))
    s2 = gru_encode(emb, both_ways(fwd, bwd, [[1, 2, 3], [4, 5]]))
    assert np.array_equal(s1.table.values, s2.table.values)


def test_gru_encode_ragged_batch_matches_each_sequence_alone():
    _, emb, fwd, bwd = make_encoder(seed=3)
    seqs = [[1, 2, 3, 4], [5, 6], [0, 3, 1]]
    states = gru_encode(emb, both_ways(fwd, bwd, seqs))
    for i, seq in enumerate(seqs):
        alone = gru_encode(emb, both_ways(fwd, bwd, [seq]))
        for run in (0, 1):
            assert np.allclose(finals(states, run)[i], finals(alone, run)[0],
                               rtol=1e-13, atol=1e-15)
            for t in range(len(seq)):
                assert np.allclose(read(states, run, i, t), read(alone, run, 0, t),
                                   rtol=1e-13, atol=1e-15)


@st.composite
def ragged_runs(draw):
    """1-4 runs of 1-5 sequence lengths in 1-8, each forward or reversed."""
    return [(draw(st.lists(st.integers(1, 8), min_size=1, max_size=5)), draw(st.booleans()))
            for _ in range(draw(st.integers(1, 4)))]


@given(ragged_runs())
def test_lockstep_layout_groups_runs_under_the_longest_run(runs):
    # The longest run, most rows first among equally long ones, sets R; every
    # run left with at most R rows joins its group, in run order.
    lengths = tuple(np.array(n) for n, _ in runs)
    groups, _, _ = lockstep_layout(lengths)
    rest = list(range(len(runs)))
    for group in groups:
        longest = max(max(lengths[run]) for run in rest)
        R = max(len(lengths[run]) for run in rest if max(lengths[run]) == longest)
        assert group == [run for run in rest if len(lengths[run]) <= R]
        rest = [run for run in rest if run not in group]
    assert rest == []
    one_group = max(map(len, lengths)) == max(len(n) for n in lengths
                                              if max(n) == max(map(max, lengths)))
    assert (len(groups) == 1) == one_group


@given(ragged_runs(), st.integers(0, 2))
def test_ragged_readout_matches_per_element_formulas(runs, extra):
    # No GRU runs: the states' table rows depend only on the runs' layout.
    lengths = tuple(np.array(n) for n, _ in runs)
    groups, starts, strides = lockstep_layout(lengths)
    states = GruStates(None, lengths, tuple(rev for _, rev in runs), starts, strides)

    def index(run, row, position):
        """Table row of a state, one element at a time: its group's block, then (t G + g) R + r."""
        n, rev = runs[run]
        step = n[row] - 1 - position if rev else position
        offset = 0
        for group in groups:
            G, R = len(group), max(len(runs[i][0]) for i in group)
            if run in group:
                return offset + (step * G + group.index(run)) * R + row
            offset += max(max(runs[i][0]) for i in group) * G * R

    for run, (n, rev) in enumerate(runs):
        L = max(n) + extra
        pad = Ragged(n, L)
        padded = [[p if p < k else 0 for p in range(L)] for k in n]
        assert pad.positions.tolist() == padded
        assert pad.real.tolist() == [[p < k for p in range(L)] for k in n]
        if all(k == L for k in n):
            assert pad.mask is None
        else:
            assert pad.mask.values.tolist() == [[0.0] * k + [MASKED] * (L - k) for k in n]
        sequences = [list(range(10 * i + 1, 10 * i + 1 + k)) for i, k in enumerate(n)]
        assert pad.tokens(sequences, -1).tolist() == [
            [s[p] if p < len(s) else -1 for p in range(L)] for s in sequences]
        rows = np.arange(len(n))[:, None]
        assert states.at(run, rows, pad.positions).tolist() == [
            [index(run, i, p) for p in row] for i, row in enumerate(padded)]
        assert states.finals(run).tolist() == [index(run, i, 0 if rev else k - 1)
                                               for i, k in enumerate(n)]


def _encode_nodes(group_steps):
    """The nodes gru_encode records for lockstep groups stepping these many steps."""
    per_group = Counter({"stack": 9 + 1, "reshape": 3 + 1, "transpose": 6})
    per_step = Counter({"gather": 1, "reshape": 1, "affine": 3, "sigmoid": 2, "tanh": 1,
                        "mul": 2, "sub": 1, "add": 1})
    kinds = Counter()
    for steps in group_steps:
        kinds += per_group + Counter({k: n * steps for k, n in per_step.items()})
    if len(group_steps) > 1:
        kinds["concat"] = 1
    return kinds


@pytest.mark.parametrize("runs, group_steps", [
    ([(0, [[1, 2, 3], [4]], False), (1, [[1, 2, 3], [4]], True)], [3]),
    ([(0, [[1, 2, 3], [4]], False), (1, [[5, 6]], False)], [3]),
    ([(0, [[1, 2, 3, 4]], False), (1, [[1, 2, 3, 4]], True), (0, [[5], [6, 1], [2]], False)],
     [4, 2]),
    ([(0, [[1, 2, 3, 4, 5]], False), (1, [[1], [2, 3]], True), (0, [[5], [6], [2], [3]], False)],
     [5, 2, 1]),
], ids=["one-group", "fewer-rows-step-along", "two-groups", "three-groups"])
def test_gru_encode_records_one_recurrence_per_group(runs, group_steps):
    # Each group's states are bit-equal to its runs encoded alone; one concat joins the groups.
    store, emb, fwd, bwd = make_encoder(seed=13)
    runs = [((fwd, bwd)[cell], seqs, rev) for cell, seqs, rev in runs]
    tape = Tape()
    tape.watch(store)
    with tape:
        states = gru_encode(emb, runs)
    assert Counter(kind for kind, _, _ in tape.nodes if kind != "leaf") == _encode_nodes(group_steps)
    groups, _, _ = lockstep_layout(states.lengths)
    alone = np.concatenate([gru_encode(emb, [runs[i] for i in group]).table.values
                            for group in groups])
    assert np.array_equal(states.table.values, alone)


def oracle_store(seed):
    """Embedding and two cells under the names the numpy reference reads."""
    store = ParamStore(seed)
    with store.building():
        emb = store.create("model.embed.W", (6, 3), init="uniform")
        a = build_gru_cell(store, "model.a", 3, 4)
        b = build_gru_cell(store, "model.b", 3, 4)
    return store, emb, a, b


# a forward run of three sequences, a reversed run of two and the first cell
# again over one: three row counts, and every run ragged against the others.
# The longest run has two rows, so the three-row run steps in a group of its
# own.
ORACLE_RUNS = (("model.a", [[1, 2, 3, 4], [5], [0, 3, 1]], False),
               ("model.b", [[2, 4, 1], [3, 3, 5, 0, 1]], True),
               ("model.a", [[4, 4]], False))
# the same cells and kinds of run, but the longest run has the most rows: one group
ONE_GROUP_RUNS = (("model.a", [[1, 2, 3, 4], [5]], False),
                  ("model.b", [[2, 4, 1], [3, 3, 5, 0, 1], [2]], True),
                  ("model.a", [[4, 4]], False))


def oracle_runs(cells, spec, groups):
    runs = [(cells[prefix], seqs, rev) for prefix, seqs, rev in spec]
    layout = lockstep_layout([np.array([len(s) for s in seqs]) for _, seqs, _ in runs])
    assert len(layout[0]) == groups
    return runs


def check_states_against_numpy(spec, groups):
    store, emb, a, b = oracle_store(41)
    states = gru_encode(emb, oracle_runs({"model.a": a, "model.b": b}, spec, groups))
    P = store.snapshot()
    for run, (prefix, seqs, rev) in enumerate(spec):
        for row, seq in enumerate(seqs):
            want = helpers.np_gru_run(P, prefix, seq[::-1] if rev else seq, 4)
            if rev:
                want = want[::-1]  # the state at a position has read it and all after it
            for position, w in enumerate(want):
                assert np.allclose(read(states, run, row, position), w, rtol=1e-13, atol=1e-15)
            final = want[0] if rev else want[-1]
            assert np.array_equal(finals(states, run)[row], read(states, run, row,
                                                                  0 if rev else len(seq) - 1))
            assert np.allclose(finals(states, run)[row], final, rtol=1e-13, atol=1e-15)


def test_gru_encode_states_match_numpy_gru_on_each_sequence_alone():
    check_states_against_numpy(ORACLE_RUNS, groups=2)


def test_gru_encode_states_in_one_group_match_numpy_gru():
    check_states_against_numpy(ONE_GROUP_RUNS, groups=1)


def check_gradients_against_finite_differences(spec, groups):
    # 3 random points; the loss reads every state of every sequence, so the
    # gradient reaches each stacked cell parameter and the shared embedding
    for point in range(3):
        store, emb, a, b = oracle_store(50 + point)
        runs = oracle_runs({"model.a": a, "model.b": b}, spec, groups)
        states = gru_encode(emb, runs)
        index = [states.at(run, row, p) for run, (_, seqs, _) in enumerate(runs)
                 for row, seq in enumerate(seqs) for p in range(len(seq))]
        probe = Tensor(np.random.default_rng(50 + point).normal(size=(len(index), 4)))

        def forward():
            picked = T.gather(gru_encode(emb, runs).table, index)
            return T.sum_(T.tanh(T.mul(picked, probe)))

        tape = Tape()
        tape.watch(store)
        with tape:
            loss = forward()
        analytic = backward(tape, loss)
        numeric = finite_diff_grads(store, lambda: forward().item())
        assert_grads_close(analytic, numeric)


def test_gru_encode_stacked_cell_gradients_match_finite_differences():
    check_gradients_against_finite_differences(ORACLE_RUNS, groups=2)


def test_gru_encode_one_group_gradients_match_finite_differences():
    check_gradients_against_finite_differences(ONE_GROUP_RUNS, groups=1)


# ---------------------------------------------------------------------------
# attention


def key_set(att, *samples):
    """Prepared keys for samples given as lists of key vectors, zero-padded."""
    L = max(len(keys) for keys in samples)
    dim = len(samples[0][0])
    stack = np.zeros((len(samples), L, dim))
    for i, keys in enumerate(samples):
        stack[i, :len(keys)] = keys
    return att.prepare(Tensor(stack), [len(keys) for keys in samples])


def test_attend_single_key():
    store = ParamStore(2)
    with store.building():
        att = build_attention(store, "att", 3, 3, 3)
    key = [0.3, -0.2, 0.9]
    context, weights = attend(att, Tensor([[0.1, 0.1, 0.1]]), key_set(att, [key]))
    assert np.allclose(weights.values, [[1.0]], atol=1e-12)
    assert np.allclose(context.values, [key], atol=1e-12)
    # a one-key sample next to a longer one still puts all weight on its key
    other = [[0.5, 0.5, 0.5], [-1.0, 0.0, 1.0]]
    context, weights = attend(att, Tensor([[0.1, 0.1, 0.1], [0.0, 0.2, 0.0]]),
                              key_set(att, [key], other))
    assert np.array_equal(weights.values[0], [1.0, 0.0])
    assert np.allclose(context.values[0], key, atol=1e-12)


def test_attend_identical_keys_uniform():
    store = ParamStore(2)
    with store.building():
        att = build_attention(store, "att", 3, 3, 3)
    key = [0.5, 0.0, -0.5]
    context, weights = attend(att, Tensor([[0.2, -0.1, 0.0], [0.0, 0.3, 0.1]]),
                              key_set(att, [key] * 4, [key] * 2))
    assert np.allclose(weights.values, [[0.25] * 4, [0.5, 0.5, 0.0, 0.0]], atol=1e-12)
    assert np.allclose(context.values, [key, key], atol=1e-12)


def test_attend_matches_direct_weighted_sum():
    rng = np.random.default_rng(8)
    store = ParamStore(3)
    with store.building():
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

    context, got_weights = attend(att, Tensor([q]), key_set(att, keys))
    assert np.allclose(got_weights.values[0], weights, atol=1e-12)
    assert np.allclose(context.values[0], want_context, atol=1e-12)
    # the same sample in a ragged batch, behind a longer one
    longer = [rng.normal(size=4) for _ in range(5)]
    context, got_weights = attend(att, Tensor([rng.normal(size=3), q]),
                                  key_set(att, longer, keys))
    assert np.allclose(got_weights.values[1], list(weights) + [0.0, 0.0], atol=1e-12)
    assert np.allclose(context.values[1], want_context, atol=1e-12)


def test_attend_per_key_score_agrees_with_stacked():
    rng = np.random.default_rng(4)
    store = ParamStore(4)
    with store.building():
        att = build_attention(store, "att", 2, 3, 4)
    q = Tensor(rng.normal(size=(1, 2)))
    keys = [rng.normal(size=3) for _ in range(5)]
    per_key = np.concatenate([att.scores(q, key_set(att, [k])).values[0] for k in keys])
    stacked = att.scores(q, key_set(att, keys)).values[0]
    assert np.allclose(per_key, stacked, atol=1e-14)
    ragged = att.scores(Tensor(np.vstack([q.values, q.values])),
                        key_set(att, keys, keys[:2])).values
    assert np.allclose(ragged[0], stacked, atol=1e-14)
    assert np.allclose(ragged[1, :2], stacked[:2], atol=1e-14)


def test_attend_empty_keys_rejected():
    store = ParamStore(2)
    with store.building():
        att = build_attention(store, "att", 3, 3, 3)
    with pytest.raises(ContractError):
        att.prepare(Tensor(np.zeros((1, 0, 3))), [0])
    with pytest.raises(ContractError):
        att.prepare(Tensor(np.zeros((0, 3))), [0])


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_attention_weights_sum_to_one(n_keys, seed):
    rng = np.random.default_rng(seed)
    store = ParamStore(1)
    with store.building():
        att = build_attention(store, "att", 2, 2, 3)
    keys = [rng.normal(size=2) * 3 for _ in range(n_keys)]
    _, weights = attend(att, Tensor(rng.normal(size=(2, 2))),
                        key_set(att, keys, keys[:max(1, n_keys // 2)]))
    assert (weights.values >= 0).all()
    assert np.all(np.abs(weights.values.sum(axis=1) - 1.0) <= 1e-9)


# ---------------------------------------------------------------------------
# MLP


def test_mlp_zero_everything_zero_output():
    store = ParamStore(None)  # every weight zero
    with store.building():
        mlp = build_mlp(store, "m", (3, 4, 2))
    out = mlp_forward(mlp, Tensor([[1.0, -1.0, 2.0], [0.5, 0.0, -3.0]]))
    assert np.array_equal(out.values, np.zeros((2, 2)))


def test_mlp_identity_configuration_is_tanh():
    store = ParamStore(0)
    with store.building():
        mlp = build_mlp(store, "m", (1, 1, 1))
    set_all(store, {"m.W0": [[1.0]], "m.b0": [0.0], "m.W1": [[1.0]], "m.b1": [0.0]})
    xs = [-1.3, 0.0, 0.7]
    out = mlp_forward(mlp, Tensor([[x] for x in xs]))
    assert out.shape == (3, 1)
    for x, got in zip(xs, out.values[:, 0]):
        assert got == pytest.approx(np.tanh(x), abs=1e-15)


def test_mlp_two_layer_matches_hand_matrix_arithmetic():
    store = ParamStore(0)
    with store.building():
        mlp = build_mlp(store, "m", (2, 3, 2))
    W0 = [[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6]]
    b0 = [0.01, -0.02, 0.03]
    W1 = [[1.0, 0.5, -0.5], [0.0, -1.0, 0.25]]
    b1 = [0.1, -0.1]
    set_all(store, {"m.W0": W0, "m.b0": b0, "m.W1": W1, "m.b1": b1})
    x = np.array([[0.4, -0.9], [-0.3, 1.2]])
    got = mlp_forward(mlp, Tensor(x)).values
    for row, got_row in zip(x, got):
        want = np.array(W1) @ np.tanh(np.array(W0) @ row + np.array(b0)) + np.array(b1)
        assert np.allclose(got_row, want, atol=1e-15)


def test_mlp_input_dim_mismatch():
    store = ParamStore(0)
    with store.building():
        mlp = build_mlp(store, "m", (3, 2))
    with pytest.raises(DimensionError):
        mlp_forward(mlp, Tensor([[1.0, 2.0]]))
    with pytest.raises(DimensionError):
        mlp_forward(mlp, Tensor([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# end-to-end gradient check through all three layer kinds


def test_composite_layer_gradients_match_finite_differences():
    # 20 random points through gru_encode -> attend -> mlp end to end
    for point in range(20):
        rng = np.random.default_rng(6 + point)
        store = ParamStore(6 + point)
        with store.building():
            emb = store.create("emb.W", (5, 2), init="uniform")
            fwd = build_gru_cell(store, "enc.fwd", 2, 2)
            bwd = build_gru_cell(store, "enc.bwd", 2, 2)
            att = build_attention(store, "att", 2, 4, 2)
            mlp = build_mlp(store, "mlp", (4, 3, 2))
        # a ragged batch of two token sequences, lengths 3 and 2
        tokens = [list(rng.integers(0, 5, size=3)), list(rng.integers(0, 5, size=2))]
        query = rng.normal(size=(2, 2))

        def forward():
            states = gru_encode(emb, both_ways(fwd, bwd, tokens))
            # [forward; backward] per position; position 0 stands in for the padded one
            index = [states.at(run, i, p if p < len(seq) else 0)
                     for i, seq in enumerate(tokens) for p in range(3) for run in (0, 1)]
            keys = att.prepare(T.reshape(T.gather(states.table, index), (2, 3, 4)), [3, 2])
            context, _ = attend(att, Tensor(query), keys)
            out = mlp_forward(mlp, context)
            return T.sum_(T.mul(out, out))

        tape = Tape()
        tape.watch(store)
        with tape:
            loss = forward()
        analytic = backward(tape, loss)
        numeric = finite_diff_grads(store, lambda: forward().item())
        assert_grads_close(analytic, numeric)
