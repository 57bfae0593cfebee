import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import gradients, store_of, synth_tasks
from mkgd import optim
from mkgd.config import make_run_config
from mkgd.data import SyntheticTaskSpec, build_vocab
from mkgd.errors import ContractError, NumericError
from mkgd.meta import meta_batch_step, validation_loss
from mkgd.optim import (
    ADAM_BETA1,
    ADAM_BLOCK,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    adam_step,
    clip_global_norm,
    sgd_step,
)
from mkgd.model import DialogueModel
from mkgd.tensor import Gradients, Tensor


def make_store(**values):
    return store_of(values)


def moments(store, state):
    """The state's first and second moments as name -> view maps."""
    return store.views(state.m), store.views(state.v)


def test_sgd_literal_update():
    store = make_store(theta=[1.0])
    sgd_step(store, gradients(store, {"theta": [0.5]}), lr=0.0001)
    assert store["theta"].values[0] == pytest.approx(0.99995, abs=1e-15)


def test_sgd_zero_gradient_keeps_params():
    store = make_store(theta=[1.0, -2.0])
    sgd_step(store, gradients(store, {"theta": [0.0, 0.0]}), lr=0.1)
    assert np.array_equal(store["theta"].values, [1.0, -2.0])


def test_sgd_two_steps_on_quadratic_closed_form():
    # L = theta^2, grad = 2 theta, lr = 0.1 -> theta_k = (1 - 2 lr)^k
    store = make_store(theta=[1.0])
    for expected in (0.8, 0.64):
        grad = 2.0 * store["theta"].values
        sgd_step(store, gradients(store, {"theta": grad}), lr=0.1)
        assert store["theta"].values[0] == pytest.approx(expected, abs=1e-12)


def test_optimizers_and_clip_take_only_gradients_over_the_store():
    store = make_store(a=[1.0, 2.0])
    other = make_store(a=[1.0, 2.0], b=[3.0])
    over_other = gradients(other, {"a": [1.0, 1.0], "b": [1.0]})
    # A vector laid out as store, in a Gradients that names other as its store.
    misfit = Gradients(other, np.ones(store.size), store.views(np.ones(store.size)))
    for bad in ({"a": np.ones(2)}, over_other, misfit):
        state = AdamState(store)
        with pytest.raises(ContractError, match="Gradients over the store"):
            sgd_step(store, bad, lr=0.1)
        with pytest.raises(ContractError, match="Gradients over the store"):
            adam_step(store, bad, state, lr=0.1)
        assert state.t == 0 and not state.spent
    for bad in ({"a": np.ones(2)}, misfit):
        with pytest.raises(ContractError, match="Gradients over the store"):
            clip_global_norm(bad, 1.0)
    # A clipped result is not clipped again, which would drop its scale.
    clipped = clip_global_norm(gradients(store, {"a": [3.0, 4.0]}), 1.0)
    with pytest.raises(ContractError, match="clipped already"):
        clip_global_norm(clipped, 10.0)
    assert np.array_equal(store.vector, [1.0, 2.0])


def test_adam_first_step_magnitude():
    # bias-corrected first step is -lr * g / (|g| + eps)
    store = make_store(theta=[0.0])
    state = AdamState(store)
    adam_step(store, gradients(store, {"theta": [1.0]}), state, lr=1e-4)
    assert state.t == 1
    assert store["theta"].values[0] == pytest.approx(-1e-4, rel=1e-6)


def test_adam_zero_gradient_with_zero_state():
    store = make_store(theta=[3.0])
    state = AdamState(store)
    adam_step(store, gradients(store, {"theta": [0.0]}), state, lr=0.1)
    assert store["theta"].values[0] == 3.0
    assert state.t == 1


def test_adam_three_steps_match_hand_unrolled():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g = 0.3
    store = make_store(theta=[1.0])
    state = AdamState(store)

    # hand-unrolled Adam on plain floats
    theta, m, v = 1.0, 0.0, 0.0
    expected = []
    for t in range(1, 4):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (v_hat ** 0.5 + eps)
        expected.append(theta)

    for want in expected:
        adam_step(store, gradients(store, {"theta": [g]}), state, lr=lr)
        assert store["theta"].values[0] == pytest.approx(want, abs=1e-12)
    assert state.t == 3


def test_adam_bit_equal_to_textbook_and_writes_no_input():
    rng = np.random.default_rng(4)
    store = make_store(W=rng.normal(size=(3, 4)), b=rng.normal(size=4))
    state = AdamState(store)
    lr = 0.01
    theta = {name: t.values.copy() for name, t in store.items()}
    m = {name: np.zeros_like(vals) for name, vals in theta.items()}
    v = {name: np.zeros_like(vals) for name, vals in theta.items()}
    for t in range(1, 4):
        grads = gradients(store, {name: rng.normal(size=vals.shape)
                                  for name, vals in theta.items()})
        grads_before = {name: g.values.copy() for name, g in grads.items()}
        old_values = {name: store[name].values for name in theta}
        old_copies = {name: vals.copy() for name, vals in old_values.items()}
        adam_step(store, grads, state, lr=lr)
        state_m, state_v = moments(store, state)
        for name in theta:
            g = grads_before[name]
            m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
            v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m[name] / (1.0 - ADAM_BETA1 ** t)
            v_hat = v[name] / (1.0 - ADAM_BETA2 ** t)
            theta[name] = theta[name] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            assert np.array_equal(store[name].values, theta[name])
            assert np.array_equal(state_m[name], m[name])
            assert np.array_equal(state_v[name], v[name])
            assert np.array_equal(grads[name].values, grads_before[name])
            assert np.array_equal(old_values[name], old_copies[name])
    assert state.t == 3


def test_adam_moment_shapes_follow_params():
    store = make_store(W=[[1.0, 2.0], [3.0, 4.0]], b=[0.0, 0.0])
    state = AdamState(store)
    assert state.m.shape == state.v.shape == (store.size,) == (6,)
    state_m, state_v = moments(store, state)
    assert state_m["W"].shape == (2, 2)
    assert state_v["b"].shape == (2,)


def textbook_norm(store, flat):
    """The global norm of a gradient vector: each parameter's dot product added in store order."""
    total = 0.0
    for g in store.views(flat).values():
        total += float(np.vdot(g, g))
    return np.sqrt(total)


def test_clip_global_norm():
    store = make_store(a=[3.0, 0.0], b=[0.0, 4.0])
    grads = gradients(store, {"a": [3.0, 0.0], "b": [0.0, 4.0]})
    kept = clip_global_norm(grads, 5.0)  # norm is exactly 5 -> no scale
    assert kept.norm == 5.0 and kept.scale is None
    clipped = clip_global_norm(grads, 1.0)
    assert clipped.norm == 5.0 and clipped.scale == 1.0 / 5.0
    # A firing clip allocates no store-sized vector: it reports and leaves the gradients.
    rng = np.random.default_rng(17)
    store = make_store(W=np.zeros((3, ADAM_BLOCK // 8)), b=np.zeros(5))
    flat = rng.normal(size=store.size)
    flat_copy = flat.copy()
    grads = gradients(store, store.views(flat))
    tracemalloc.start()
    try:
        clipped = clip_global_norm(grads, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < store.size * 8
    assert clipped.flat is grads.flat and np.array_equal(grads.flat, flat_copy)
    assert clipped.norm == textbook_norm(store, flat_copy) > 1.0
    assert clipped.scale == 1.0 / textbook_norm(store, flat_copy)


def test_clip_leaves_input_gradients_unmodified():
    store = make_store(a=[3.0, 0.0], b=[0.0, 4.0])
    grads = gradients(store, {"a": [3.0, 0.0], "b": [0.0, 4.0]})
    clipped = clip_global_norm(grads, 1.0)
    assert np.array_equal(grads["a"].values, [3.0, 0.0])
    assert np.array_equal(grads["b"].values, [0.0, 4.0])
    assert all(clipped[name] is grads[name] for name in grads)
    # The step applies the scale: sgd at rate 1 from zero values gives minus the clipped gradient.
    store.install(np.zeros(store.size))
    sgd_step(store, clipped, lr=1.0)
    assert np.allclose(store["a"].values, [-0.6, 0.0], atol=1e-15)


def test_clip_when_squared_norm_overflows():
    store = make_store(a=[0.0, 0.0], b=[0.0, 0.0])
    grads = gradients(store, {"a": [1e160, 0.0], "b": [0.0, 1e160]})
    clipped = clip_global_norm(grads, 5.0)
    # The textbook sum overflows; the norm is taken again on gradients over the largest |g|.
    assert np.isinf(textbook_norm(store, grads.flat))
    assert clipped.norm == 1e160 * textbook_norm(store, grads.flat / 1e160)
    assert clipped.norm == pytest.approx(1e160 * np.sqrt(2.0), rel=1e-12)
    assert clipped.scale == 5.0 / clipped.norm
    sgd_step(store, clipped, lr=1.0)
    assert np.sqrt(np.vdot(store.vector, store.vector)) == pytest.approx(5.0, rel=1e-12)
    assert store["a"].values[0] == pytest.approx(-5.0 / np.sqrt(2.0), rel=1e-12)
    assert store["a"].values[1] == 0.0


def test_clip_passes_nan_to_the_finite_check():
    store = make_store(a=[1.0, 2.0])
    clipped = clip_global_norm(gradients(store, {"a": [np.nan, 1.0]}), 5.0)
    assert np.isnan(clipped.norm) and clipped.scale is None
    assert np.isnan(clipped.flat[0]) and clipped.flat[1] == 1.0
    with pytest.raises(NumericError, match="'a'"):
        adam_step(store, clipped, AdamState(store), lr=0.01)
    assert np.array_equal(store["a"].values, [1.0, 2.0])


def test_clip_keeps_one_gradient_vector_and_optimizers_read_it_whole():
    store = make_store(a=[3.0, 0.0], b=[[0.0], [4.0]])
    flat = np.array([3.0, 0.0, 0.0, 4.0])
    grads = Gradients(store, flat, {name: Tensor(v) for name, v in store.views(flat).items()})
    kept = clip_global_norm(grads, 5.0)
    assert isinstance(kept, Gradients) and kept.flat is flat and kept.store is store
    clipped = clip_global_norm(grads, 1.0)
    assert isinstance(clipped, Gradients) and clipped.store is store and clipped.flat is flat
    assert np.array_equal(flat, [3.0, 0.0, 0.0, 4.0])
    # SGD's update from clip's result is the textbook one on a pre-scaled copy, bit for bit.
    rng = np.random.default_rng(18)
    theta = rng.normal(size=store.size)
    store.install(theta.copy())
    sgd_step(store, clipped, lr=0.1)
    assert np.array_equal(store.vector, theta - 0.1 * (flat * clipped.scale))
    assert np.array_equal(flat, [3.0, 0.0, 0.0, 4.0])


def test_clip_disabled():
    store = make_store(a=[0.0])
    grads = gradients(store, {"a": [30.0]})
    for max_norm in (0, None):
        clipped = clip_global_norm(grads, max_norm)
        assert clipped.norm == 30.0 and clipped.scale is None


def test_lr_must_be_positive():
    store = make_store(a=[1.0])
    grads = gradients(store, {"a": [1.0]})
    with pytest.raises(ContractError):
        sgd_step(store, grads, lr=0.0)
    with pytest.raises(ContractError):
        adam_step(store, grads, AdamState(store), lr=-1.0)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ContractError):
            sgd_step(store, grads, lr=lr)
        state = AdamState(store)
        with pytest.raises(ContractError):
            adam_step(store, grads, state, lr=lr)
        assert state.t == 0
        assert not state.m.any() and not state.v.any()
    assert store["a"].values[0] == 1.0


def textbook_adam(theta, m, v, grads, t, lr):
    """Advance the name -> array maps theta, m and v by textbook Adam step t over grads' names."""
    for name, g in grads.items():
        m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m[name] / (1.0 - ADAM_BETA1 ** t)
        v_hat = v[name] / (1.0 - ADAM_BETA2 ** t)
        theta[name] = theta[name] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _check_three_textbook_steps(store, make_grads, lr=0.01, max_norm=None):
    """Run three Adam steps and compare each bit for bit with the textbook formula.

    With a max_norm, each step takes clip_global_norm's result, which must
    fire, and the textbook steps on a copy of the gradients times its scale.
    """
    state = AdamState(store)
    theta = {name: t.values.copy() for name, t in store.items()}
    m = {name: np.zeros(vals.shape) for name, vals in theta.items()}
    v = {name: np.zeros(vals.shape) for name, vals in theta.items()}
    for t in range(1, 4):
        grads = make_grads()
        given = gradients(store, grads)
        if max_norm is not None:
            given = clip_global_norm(given, max_norm)
            grads = {name: g * given.scale for name, g in grads.items()}
        flat_before = given.flat.copy()
        adam_step(store, given, state, lr=lr)
        state_m, state_v = moments(store, state)
        textbook_adam(theta, m, v, grads, t, lr)
        for name in grads:
            assert np.array_equal(store[name].values, theta[name])
            assert np.array_equal(state_m[name], m[name])
            assert np.array_equal(state_v[name], v[name])
        assert np.array_equal(given.flat, flat_before)
    return state


def test_adam_blocks_with_partial_last_block_bit_equal_to_textbook():
    rng = np.random.default_rng(5)
    shape = (5, ADAM_BLOCK // 2)  # 2.5 blocks
    for max_norm in (None, 1.0):
        store = make_store(W=rng.normal(size=shape), b=rng.normal(size=3))
        _check_three_textbook_steps(
            store, lambda: {"W": rng.normal(size=shape), "b": rng.normal(size=3)},
            max_norm=max_norm)


def test_adam_fortran_ordered_parameter_bit_equal_to_textbook():
    # A Fortran-ordered array restored as values lands C-ordered in the
    # store's vector, and Fortran-ordered gradients are laid out the same way.
    rng = np.random.default_rng(6)
    shape = (130, 300)
    store = make_store(b=np.ones(3), W=np.zeros(shape))
    store.restore({"b": np.ones(3), "W": np.asfortranarray(rng.normal(size=shape))})
    values = store["W"].values
    assert values.flags.c_contiguous and values.base is store.vector
    _check_three_textbook_steps(store, lambda: {"b": rng.normal(size=3),
                                                "W": np.asfortranarray(rng.normal(size=shape))})
    assert store["W"].values.flags.c_contiguous and store["W"].values.base is store.vector


def test_adam_non_contiguous_gradient_view_bit_equal_to_textbook():
    rng = np.random.default_rng(7)
    shape = (40, ADAM_BLOCK // 16)
    store = make_store(W=rng.normal(size=shape))

    def grads():
        view = rng.normal(size=(shape[1], 2 * shape[0]))[:, ::2].T
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        return {"W": view}

    _check_three_textbook_steps(store, grads)


def test_adam_non_finite_update_in_second_block_keeps_old_values():
    # The failing block is W's second; A, updated before it, is not installed either.
    rng = np.random.default_rng(8)
    shapes = {"A": (ADAM_BLOCK // 2,), "W": (3, ADAM_BLOCK)}
    store = make_store(**{name: rng.normal(size=shape) for name, shape in shapes.items()})
    old = {name: t.values for name, t in store.items()}
    old_copy = {name: vals.copy() for name, vals in old.items()}
    grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    grads["W"][1, 7] = np.inf
    with pytest.raises(NumericError, match="^non-finite update for parameter 'W'$"), \
            np.errstate(invalid="ignore"):  # inf / inf in the step
        adam_step(store, gradients(store, grads), AdamState(store), lr=0.01)
    for name, vals in old.items():
        assert store[name].values is vals
        assert np.array_equal(vals, old_copy[name])


def test_adam_state_of_a_failed_step_is_spent():
    # The failed step advanced the counter and left inf in the moments, so
    # the state refuses a next step, however finite its gradient.
    store = make_store(W=np.arange(6.0).reshape(2, 3))
    installed = store.vector
    installed_copy = installed.copy()
    state = AdamState(store)
    grads = np.ones((2, 3))
    grads[1, 2] = np.inf
    with pytest.raises(NumericError), np.errstate(invalid="ignore"):  # inf / inf in the step
        adam_step(store, gradients(store, {"W": grads}), state, lr=0.01)
    assert state.spent
    with pytest.raises(ContractError, match="spent"):
        adam_step(store, gradients(store, {"W": np.ones((2, 3))}), state, lr=0.01)
    assert store.vector is installed and np.array_equal(installed, installed_copy)


def test_adam_non_finite_step_into_the_retired_vector_installs_nothing():
    # The failed step writes the vector the first step retired; the next
    # step writes it again and must build every value from the installed
    # values, not from what the failed step left there.
    rng = np.random.default_rng(15)
    shapes = {"A": (4,), "W": (3, 5)}
    store = make_store(**{name: rng.normal(size=shape) for name, shape in shapes.items()})
    retired = weakref.ref(store.vector)
    state = AdamState(store)
    theta = {name: t.values.copy() for name, t in store.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    adam_step(store, gradients(store, grads), state, lr=0.01)
    textbook_adam(theta, m, v, grads, 1, 0.01)
    installed = store.vector
    installed_copy = installed.copy()
    bad = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    bad["W"][2, 1] = np.inf
    with pytest.raises(NumericError, match="^non-finite update for parameter 'W'$"), \
            np.errstate(invalid="ignore"):  # inf / inf in the step
        adam_step(store, gradients(store, bad), AdamState(store), lr=0.01)
    assert not np.isfinite(retired()).all()
    assert store.vector is installed and np.array_equal(installed, installed_copy)
    for name, t in store.items():
        assert t.values.base is installed and np.array_equal(t.values, theta[name])
    del installed
    grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    adam_step(store, gradients(store, grads), state, lr=0.01)
    textbook_adam(theta, m, v, grads, 2, 0.01)
    assert store.vector is retired()
    state_m, state_v = moments(store, state)
    for name in shapes:
        assert np.array_equal(store[name].values, theta[name])
        assert np.array_equal(state_m[name], m[name])
        assert np.array_equal(state_v[name], v[name])


@pytest.mark.parametrize("block", [2 ** 14, 2 ** 15])
@pytest.mark.parametrize("split", [False, True], ids=["one", "two"])
def test_adam_block_size_schedules_only(monkeypatch, block, split):
    # 3 blocks of 2^15 values or 6 of 2^14, the last one partial: the results
    # are the textbook's either way.
    monkeypatch.setattr(optim, "ADAM_BLOCK", block)
    monkeypatch.setattr(optim, "ADAM_SPLIT_BLOCKS", 2 if split else 7)
    ranges = record_ranges(monkeypatch)
    rng = np.random.default_rng(16)
    shapes = {"W": (5, 2 ** 14), "b": (7,)}
    store = make_store(**{name: rng.normal(size=shape) for name, shape in shapes.items()})
    _check_three_textbook_steps(
        store, lambda: {name: rng.normal(size=shape) for name, shape in shapes.items()})
    assert len(ranges) == (6 if split else 3)
    assert split_threads_alive() == []


def test_adam_rejects_moments_whose_flat_view_would_copy():
    # Moments must be C-contiguous vectors laid out as the store: a strided
    # one, or one made for a store of another size, is refused before any update.
    store = make_store(W=np.ones((3, 4)))
    state = AdamState(store)
    state.m = np.zeros(2 * store.size)[::2]
    with pytest.raises(ContractError, match="C-contiguous"):
        adam_step(store, gradients(store, {"W": np.ones((3, 4))}), state, lr=0.01)
    state = AdamState(make_store(W=np.ones((3, 4)), b=[1.0]))
    with pytest.raises(ContractError, match="C-contiguous"):
        adam_step(store, gradients(store, {"W": np.ones((3, 4))}), state, lr=0.01)
    assert state.t == 0


def record_ranges(monkeypatch):
    """Record (begin, end, thread name) for every block range Adam updates."""
    ranges, update = [], optim._adam_range

    def recorded(params, flats, begin, end, *rest):
        ranges.append((begin, end, threading.current_thread().name))
        return update(params, flats, begin, end, *rest)

    monkeypatch.setattr(optim, "_adam_range", recorded)
    return ranges


def run_here(fn, first, second):
    """Stand-in for in_two_threads: run both halves on the calling thread, in order."""
    fn(*first)
    fn(*second)


def split_threads_alive():
    return [t for t in threading.enumerate() if t.name == "mkgd-split" and t.is_alive()]


def test_adam_split_across_two_threads_bit_equal_to_one_thread_and_textbook(monkeypatch):
    shapes = {"W": (19, ADAM_BLOCK // 2), "U": (2, ADAM_BLOCK), "b": (3,)}  # 12 blocks
    size = 23 * ADAM_BLOCK // 2 + 3
    ranges = record_ranges(monkeypatch)
    in_two_threads = optim.in_two_threads
    main = threading.current_thread().name
    mid = 6 * ADAM_BLOCK
    for max_norm in (None, 1.0):
        ranges.clear()
        runs = {}
        for threads, split_blocks in (("two", 12), ("one", 13), ("here", 12)):
            monkeypatch.setattr(optim, "ADAM_SPLIT_BLOCKS", split_blocks)
            monkeypatch.setattr(optim, "in_two_threads",
                                run_here if threads == "here" else in_two_threads)
            rng = np.random.default_rng(9)
            store = make_store(**{name: rng.normal(size=shape) for name, shape in shapes.items()})
            assert store.size == size
            state = _check_three_textbook_steps(
                store, lambda: {name: rng.normal(size=shape) for name, shape in shapes.items()},
                max_norm=max_norm)
            runs[threads] = store, state
        assert sorted(ranges[:6]) == sorted([(0, mid, "mkgd-split"), (mid, size, main)] * 3)
        assert ranges[6:9] == [(0, size, main)] * 3
        assert ranges[9:] == [(0, mid, main), (mid, size, main)] * 3
        one_store, one_state = runs["one"]
        for two_store, two_state in (runs["two"], runs["here"]):
            assert np.array_equal(one_store.vector, two_store.vector)
            assert np.array_equal(one_state.m, two_state.m)
            assert np.array_equal(one_state.v, two_state.v)
    assert split_threads_alive() == []


@pytest.mark.parametrize("rows,name", [((0,), "A"), ((10,), "W"), ((0, 10), "A")],
                         ids=["worker", "caller", "both"])
def test_adam_non_finite_update_in_either_half_keeps_old_values(monkeypatch, rows, name):
    # One block a row: the worker updates A's rows 0-9, the calling thread W's
    # rows 10-19, so a caller failing at its first block leaves the worker busy.
    monkeypatch.setattr(optim, "ADAM_SPLIT_BLOCKS", 20)
    ranges = record_ranges(monkeypatch)
    rng = np.random.default_rng(10)
    shape = (10, ADAM_BLOCK)
    store = make_store(A=rng.normal(size=shape), W=rng.normal(size=shape))
    old = store.vector
    old_copy = old.copy()
    g = rng.normal(size=(20, ADAM_BLOCK))
    for row in rows:
        g[row, 7] = np.inf
    # inf / inf in the step; the worker must see this error state too
    with pytest.raises(NumericError, match=f"^non-finite update for parameter '{name}'$"), \
            np.errstate(invalid="ignore"):
        adam_step(store, gradients(store, {"A": g[:10], "W": g[10:]}), AdamState(store), lr=0.01)
    assert store.vector is old and store["A"].values.base is old
    assert np.array_equal(old, old_copy)
    assert split_threads_alive() == []
    assert [r[2] for r in ranges].count("mkgd-split") == 1


def test_adam_worker_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(optim, "ADAM_SPLIT_BLOCKS", 2)
    shape = (2, ADAM_BLOCK)
    store = make_store(W=np.ones(shape))
    old = store["W"].values
    g = np.ones(shape)
    g[0, 0] = np.inf  # in the worker's half
    with pytest.raises(FloatingPointError), np.errstate(invalid="raise"):
        adam_step(store, gradients(store, {"W": g}), AdamState(store), lr=0.01)
    assert store["W"].values is old
    assert split_threads_alive() == []


def record_thread_starts(monkeypatch):
    """Record the name of every thread started from now on."""
    started, start = [], threading.Thread.start

    def recorded(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return started


def test_desk_model_adam_step_starts_no_thread(monkeypatch):
    # The desk workloads must run the one-thread code path: no product, gradient
    # vector or Adam range at the desk preset reaches a split, even at the
    # desk's largest vocabulary.
    ranges = record_ranges(monkeypatch)
    started = record_thread_starts(monkeypatch)
    cfg = make_run_config("desk")
    tasks, _ = synth_tasks(SyntheticTaskSpec(seed=3), cfg.num_tasks,
                           cfg.k_support, cfg.k_query)
    vocab = build_vocab([f"w{i}" for i in range(2 * cfg.max_vocab)], cfg.max_vocab)
    assert len(vocab) == cfg.max_vocab
    model = DialogueModel(vocab, cfg.embed_dim, cfg.hidden_dim, seed=cfg.seed,
                          loss_weights=cfg.loss_weights())
    size = model.store.size
    assert not optim._splits(size)
    meta_batch_step(model, tasks, cfg)
    validation_loss(model, tasks)
    main = threading.current_thread().name
    assert ranges == [(0, size, main)] * (cfg.num_tasks * cfg.inner_steps + 1)
    assert started == []


# ---------------------------------------------------------------------------
# clip_global_norm over two threads


def record_dots(monkeypatch):
    """Record (lo, hi, thread name) for every run of dot products clip takes."""
    runs, dots = [], optim._dots

    def recorded(arrays, out, lo, hi):
        runs.append((lo, hi, threading.current_thread().name))
        return dots(arrays, out, lo, hi)

    monkeypatch.setattr(optim, "_dots", recorded)
    return runs


# One case, over backward's form of the gradients: a vector laid out as the store.
@pytest.mark.parametrize("max_norm", [1.0], ids=["vector"])
def test_clip_split_across_two_threads_bit_equal_to_one_thread(monkeypatch, max_norm):
    shapes = {"E": (7, ADAM_BLOCK // 2), "b": (5,), "W": (3, ADAM_BLOCK), "U": (2, 999)}
    rng = np.random.default_rng(11)
    store = make_store(**{name: rng.normal(size=shape) for name, shape in shapes.items()})
    flat = rng.normal(size=store.size)
    flat_copy = flat.copy()
    grads = gradients(store, store.views(flat))
    runs = record_dots(monkeypatch)
    split, in_two_threads = [], optim.in_two_threads

    def recorded(fn, first, second):
        split.append(fn)
        in_two_threads(fn, first, second)

    monkeypatch.setattr(optim, "in_two_threads", recorded)
    monkeypatch.setattr(optim, "ADAM_SPLIT_BLOCKS", 7)  # the store spans 6.6 blocks
    two = clip_global_norm(grads, max_norm)
    monkeypatch.setattr(optim, "ADAM_SPLIT_BLOCKS", 8)
    one = clip_global_norm(grads, max_norm)
    main = threading.current_thread().name
    # E's 3.5 blocks against the rest's 3.1: the cut falls after E.
    assert sorted(runs[:2]) == [(0, 1, "mkgd-split"), (1, 4, main)]
    assert runs[2:] == [(0, 4, main)]
    # Only the dot products split: clip writes no vector.
    assert split == [optim._dots]
    assert two.norm == one.norm == textbook_norm(store, flat_copy)
    assert two.scale == one.scale == max_norm / textbook_norm(store, flat_copy)
    assert two.flat is one.flat is grads.flat and np.array_equal(grads.flat, flat_copy)
    assert split_threads_alive() == []
