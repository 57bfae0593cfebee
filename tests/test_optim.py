import numpy as np
import pytest

from helpers import add_param
from mkgd.errors import ContractError, NumericError
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
from mkgd.params import ParamStore
from mkgd.tensor import Tensor


def make_store(**values):
    store = ParamStore(0)
    for name, vals in values.items():
        add_param(store, name, vals)
    return store


def test_sgd_literal_update():
    store = make_store(theta=[1.0])
    sgd_step(store, {"theta": Tensor([0.5])}, lr=0.0001)
    assert store["theta"].values[0] == pytest.approx(0.99995, abs=1e-15)


def test_sgd_zero_gradient_keeps_params():
    store = make_store(theta=[1.0, -2.0])
    sgd_step(store, {"theta": Tensor([0.0, 0.0])}, lr=0.1)
    assert np.array_equal(store["theta"].values, [1.0, -2.0])


def test_sgd_two_steps_on_quadratic_closed_form():
    # L = theta^2, grad = 2 theta, lr = 0.1 -> theta_k = (1 - 2 lr)^k
    store = make_store(theta=[1.0])
    for expected in (0.8, 0.64):
        grad = 2.0 * store["theta"].values
        sgd_step(store, {"theta": Tensor(grad)}, lr=0.1)
        assert store["theta"].values[0] == pytest.approx(expected, abs=1e-12)


def test_sgd_uncovered_params_unchanged():
    store = make_store(a=[1.0], b=[2.0])
    sgd_step(store, {"a": Tensor([1.0])}, lr=0.5)
    assert store["a"].values[0] == 0.5
    assert store["b"].values[0] == 2.0


def test_sgd_shape_mismatch():
    store = make_store(a=[1.0, 2.0])
    with pytest.raises(ContractError):
        sgd_step(store, {"a": Tensor([1.0, 2.0, 3.0])}, lr=0.1)
    with pytest.raises(ContractError):
        sgd_step(store, {"missing": Tensor([1.0])}, lr=0.1)


def test_adam_first_step_magnitude():
    # bias-corrected first step is -lr * g / (|g| + eps)
    store = make_store(theta=[0.0])
    state = AdamState(store)
    adam_step(store, {"theta": Tensor([1.0])}, state, lr=1e-4)
    assert state.t == 1
    assert store["theta"].values[0] == pytest.approx(-1e-4, rel=1e-6)


def test_adam_zero_gradient_with_zero_state():
    store = make_store(theta=[3.0])
    state = AdamState(store)
    adam_step(store, {"theta": Tensor([0.0])}, state, lr=0.1)
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
        adam_step(store, {"theta": Tensor([g])}, state, lr=lr)
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
        grads = {name: Tensor(rng.normal(size=vals.shape)) for name, vals in theta.items()}
        grads_before = {name: g.values.copy() for name, g in grads.items()}
        old_values = {name: store[name].values for name in theta}
        old_copies = {name: vals.copy() for name, vals in old_values.items()}
        adam_step(store, grads, state, lr=lr)
        for name in theta:
            g = grads_before[name]
            m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
            v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m[name] / (1.0 - ADAM_BETA1 ** t)
            v_hat = v[name] / (1.0 - ADAM_BETA2 ** t)
            theta[name] = theta[name] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            assert np.array_equal(store[name].values, theta[name])
            assert np.array_equal(state.m[name], m[name])
            assert np.array_equal(state.v[name], v[name])
            assert np.array_equal(grads[name].values, grads_before[name])
            assert np.array_equal(old_values[name], old_copies[name])
    assert state.t == 3


def test_adam_moment_shapes_follow_params():
    store = make_store(W=[[1.0, 2.0], [3.0, 4.0]], b=[0.0, 0.0])
    state = AdamState(store)
    assert state.m["W"].shape == (2, 2)
    assert state.v["b"].shape == (2,)


def test_clip_global_norm():
    grads = {"a": Tensor([3.0, 0.0]), "b": Tensor([0.0, 4.0])}
    clipped = clip_global_norm(grads, 5.0)  # norm is exactly 5 -> untouched
    assert np.array_equal(clipped["a"], [3.0, 0.0])
    clipped = clip_global_norm(grads, 1.0)
    total = sum(float(np.sum(g * g)) for g in clipped.values())
    assert total == pytest.approx(1.0, rel=1e-12)
    # direction preserved
    assert clipped["a"][0] / clipped["b"][1] == pytest.approx(3.0 / 4.0, rel=1e-12)


def test_clip_leaves_input_gradients_unmodified():
    grads = {"a": Tensor([3.0, 0.0]), "b": Tensor([0.0, 4.0])}
    clipped = clip_global_norm(grads, 1.0)
    assert np.array_equal(grads["a"].values, [3.0, 0.0])
    assert np.array_equal(grads["b"].values, [0.0, 4.0])
    assert np.allclose(clipped["a"], [0.6, 0.0], atol=1e-15)


def test_clip_when_squared_norm_overflows():
    grads = {"a": Tensor([1e160, 0.0]), "b": Tensor([0.0, 1e160])}
    clipped = clip_global_norm(grads, 5.0)
    norm = np.sqrt(sum(float(np.vdot(g, g)) for g in clipped.values()))
    assert norm == pytest.approx(5.0, rel=1e-12)
    assert clipped["a"][0] == pytest.approx(5.0 / np.sqrt(2.0), rel=1e-12)
    assert clipped["a"][1] == 0.0


def test_clip_passes_nan_to_the_finite_check():
    store = make_store(a=[1.0, 2.0])
    clipped = clip_global_norm({"a": Tensor([np.nan, 1.0])}, 5.0)
    assert np.isnan(clipped["a"][0]) and clipped["a"][1] == 1.0
    with pytest.raises(NumericError, match="'a'"):
        adam_step(store, clipped, AdamState(store), lr=0.01)
    assert np.array_equal(store["a"].values, [1.0, 2.0])


def test_clip_disabled():
    grads = {"a": Tensor([30.0])}
    assert clip_global_norm(grads, 0)["a"][0] == 30.0
    assert clip_global_norm(grads, None)["a"][0] == 30.0


def test_lr_must_be_positive():
    store = make_store(a=[1.0])
    with pytest.raises(ContractError):
        sgd_step(store, {"a": Tensor([1.0])}, lr=0.0)
    with pytest.raises(ContractError):
        adam_step(store, {"a": Tensor([1.0])}, AdamState(store), lr=-1.0)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ContractError):
            sgd_step(store, {"a": Tensor([1.0])}, lr=lr)
        state = AdamState(store)
        with pytest.raises(ContractError):
            adam_step(store, {"a": Tensor([1.0])}, state, lr=lr)
        assert state.t == 0
        assert state.m["a"][0] == 0.0 and state.v["a"][0] == 0.0
    assert store["a"].values[0] == 1.0


def _check_three_textbook_steps(store, make_grads, lr=0.01):
    """Run three Adam steps and compare each bit for bit with the textbook formula."""
    state = AdamState(store)
    theta = {name: t.values.copy() for name, t in store.items()}
    m = {name: np.zeros(vals.shape) for name, vals in theta.items()}
    v = {name: np.zeros(vals.shape) for name, vals in theta.items()}
    for t in range(1, 4):
        grads = make_grads()
        grads_before = {name: g.copy() for name, g in grads.items()}
        adam_step(store, grads, state, lr=lr)
        for name, g in grads_before.items():
            m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
            v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m[name] / (1.0 - ADAM_BETA1 ** t)
            v_hat = v[name] / (1.0 - ADAM_BETA2 ** t)
            theta[name] = theta[name] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            assert np.array_equal(store[name].values, theta[name])
            assert np.array_equal(state.m[name], m[name])
            assert np.array_equal(state.v[name], v[name])
            assert np.array_equal(grads[name], grads_before[name])
    return state


def test_adam_blocks_with_partial_last_block_bit_equal_to_textbook():
    rng = np.random.default_rng(5)
    shape = (5, ADAM_BLOCK // 2)  # 2.5 blocks
    store = make_store(W=rng.normal(size=shape), b=rng.normal(size=3))
    _check_three_textbook_steps(
        store, lambda: {"W": rng.normal(size=shape), "b": rng.normal(size=3)})


def test_adam_fortran_ordered_parameter_bit_equal_to_textbook():
    rng = np.random.default_rng(6)
    shape = (130, 300)
    store = make_store(W=np.zeros(shape))
    store.set_values("W", np.asfortranarray(rng.normal(size=shape)))
    assert store["W"].values.flags.f_contiguous
    state = _check_three_textbook_steps(store, lambda: {"W": rng.normal(size=shape)})
    assert state.m["W"].flags.c_contiguous and state.v["W"].flags.c_contiguous


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
    rng = np.random.default_rng(8)
    shape = (3, ADAM_BLOCK)
    store = make_store(W=rng.normal(size=shape))
    old = store["W"].values
    old_copy = old.copy()
    g = rng.normal(size=shape)
    g[1, 7] = np.inf
    with pytest.raises(NumericError, match="non-finite update for parameter 'W'"), \
            np.errstate(invalid="ignore"):  # inf / inf in the step
        adam_step(store, {"W": g}, AdamState(store), lr=0.01)
    assert store["W"].values is old
    assert np.array_equal(old, old_copy)


def test_adam_rejects_moments_whose_flat_view_would_copy():
    store = make_store(W=np.ones((3, 4)))
    state = AdamState(store)
    state.m["W"] = np.asfortranarray(state.m["W"])
    with pytest.raises(ContractError, match="C-contiguous"):
        adam_step(store, {"W": np.ones((3, 4))}, state, lr=0.01)
    assert state.t == 0
