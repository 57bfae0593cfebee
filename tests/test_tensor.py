import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import assert_grads_close, finite_diff_grads
from mkgd import tensor as T
from mkgd.errors import ContractError, DimensionError, NumericError, VocabError
from mkgd.params import ParamStore
from mkgd.tensor import Tape, Tensor, backward


def test_softmax_uniform_logits():
    out = T.softmax(T.tensor([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.values, [0.25, 0.25, 0.25, 0.25], atol=1e-12)


def test_sigmoid_at_zero():
    assert T.sigmoid(T.tensor([0.0])).values[0] == pytest.approx(0.5, abs=1e-15)


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 1))
    got = T.matmul(T.tensor(a), T.tensor(b)).values
    # naive triple-loop oracle
    want = np.zeros((2, 1))
    for i in range(2):
        for j in range(1):
            for k in range(3):
                want[i, j] += a[i, k] * b[k, j]
    assert np.allclose(got, want, atol=1e-15)


def test_matmul_vector_cases():
    A = T.tensor([[1.0, 2.0], [3.0, 4.0]])
    v = T.tensor([1.0, -1.0])
    assert np.allclose(T.matmul(A, v).values, [-1.0, -1.0])
    assert np.allclose(T.matmul(v, A).values, [-2.0, -2.0])


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(DimensionError) as err:
        T.matmul(T.tensor([[1.0, 2.0]]), T.tensor([[1.0, 2.0]]))
    assert "matmul" in str(err.value)
    assert "(1, 2)" in str(err.value)
    with pytest.raises(DimensionError):
        T.add(T.tensor([1.0, 2.0]), T.tensor([1.0, 2.0, 3.0]))


def test_non_finite_result_raises():
    with pytest.raises(NumericError):
        T.matmul(T.tensor([1e200]), T.tensor([[1e200]]))
    with pytest.raises(NumericError):
        T.log(T.tensor([0.0]))


def test_log_floor():
    out = T.log(T.tensor([0.0, 1.0]), floor=1e-12)
    assert out.values[0] == pytest.approx(math.log(1e-12))
    assert out.values[1] == 0.0


def test_softmax_empty_axis_rejected():
    with pytest.raises(ContractError):
        T.softmax(Tensor(np.zeros((0,))))


def test_gather_rejects_out_of_range():
    table = T.tensor([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(VocabError):
        T.gather(table, [2])


def test_backward_square():
    store = ParamStore(0)
    x = store.add("x", [3.0])
    tape = Tape()
    tape.watch(store)
    with tape:
        loss = T.sum_(T.mul(x, x))
    grads = backward(tape, loss)
    assert grads["x"].values[0] == pytest.approx(6.0, abs=1e-12)


def test_backward_sigmoid_at_zero():
    store = ParamStore(0)
    x = store.add("x", [0.0])
    tape = Tape()
    tape.watch(store)
    with tape:
        loss = T.sum_(T.sigmoid(x))
    grads = backward(tape, loss)
    assert grads["x"].values[0] == pytest.approx(0.25, abs=1e-12)


def test_backward_requires_scalar_loss():
    store = ParamStore(0)
    x = store.add("x", [1.0, 2.0])
    tape = Tape()
    tape.watch(store)
    with tape:
        y = T.mul(x, x)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_backward_requires_recorded_loss():
    store = ParamStore(0)
    store.add("x", [1.0])
    tape = Tape()
    tape.watch(store)
    loss = T.tensor([1.0])
    with pytest.raises(ContractError):
        backward(tape, loss)


def test_unreachable_params_get_zero_gradients():
    store = ParamStore(0)
    x = store.add("x", [2.0])
    store.add("unused", [[1.0, 2.0], [3.0, 4.0]])
    tape = Tape()
    tape.watch(store)
    with tape:
        loss = T.sum_(T.mul(x, x))
    grads = backward(tape, loss)
    assert np.array_equal(grads["unused"].values, np.zeros((2, 2)))


def test_backward_twice_is_identical():
    store = ParamStore(3)
    w = store.create("w", (4, 3), init="uniform")
    x = T.tensor(np.arange(3.0))
    tape = Tape()
    tape.watch(store)
    with tape:
        loss = T.sum_(T.tanh(T.matmul(w, x)))
    first = backward(tape, loss)
    nodes_before = [tuple(n[:2]) for n in tape.nodes]
    second = backward(tape, loss)
    assert [tuple(n[:2]) for n in tape.nodes] == nodes_before
    assert np.array_equal(first["w"].values, second["w"].values)


def test_mlp_gradients_match_finite_differences():
    # 2-layer MLP with a scalar loss; the oracle is central differences.
    rng = np.random.default_rng(5)
    store = ParamStore(0)
    W0 = store.add("W0", rng.normal(size=(5, 4)) * 0.5)
    b0 = store.add("b0", rng.normal(size=5) * 0.1)
    W1 = store.add("W1", rng.normal(size=(1, 5)) * 0.5)
    b1 = store.add("b1", rng.normal(size=1) * 0.1)
    x = rng.normal(size=4)

    def forward():
        h = T.tanh(T.add(T.matmul(W0, T.tensor(x)), b0))
        out = T.add(T.matmul(W1, h), b1)
        return T.sum_(T.mul(out, out))

    tape = Tape()
    tape.watch(store)
    with tape:
        loss = forward()
    analytic = backward(tape, loss)
    numeric = finite_diff_grads(store, lambda: forward().item())
    assert_grads_close(analytic, numeric)


PRIMITIVE_CASES = [
    ("add", lambda p, c: T.add(p, c), (3,), (3,)),
    ("add_scalar", lambda p, c: T.add(p, c), (3,), (1,)),
    ("add_rows", lambda p, c: T.add(c, p), (3,), (2, 3)),
    ("sub", lambda p, c: T.sub(p, c), (3,), (3,)),
    ("sub_rows", lambda p, c: T.sub(c, p), (3,), (2, 3)),
    ("mul", lambda p, c: T.mul(p, c), (3,), (3,)),
    ("mul_scalar", lambda p, c: T.mul(c, p), (1,), (4,)),
    ("matmul_mm", lambda p, c: T.matmul(p, c), (2, 3), (3, 2)),
    ("matmul_mv", lambda p, c: T.matmul(p, c), (2, 3), (3,)),
    ("matmul_vm", lambda p, c: T.matmul(p, c), (3,), (3, 2)),
    ("concat", lambda p, c: T.concat([p, c]), (3,), (2,)),
    ("concat_cols", lambda p, c: T.concat([p, c], axis=1), (2, 2), (2, 3)),
    ("stack", lambda p, c: T.stack([p, c]), (3,), (3,)),
    ("slice", lambda p, c: T.slice_(p, 1, 3), (4,), None),
    ("gather", lambda p, c: T.gather(p, [0, 2, 0]), (3, 2), None),
    ("sigmoid", lambda p, c: T.sigmoid(p), (4,), None),
    ("tanh", lambda p, c: T.tanh(p), (4,), None),
    ("softmax", lambda p, c: T.softmax(p), (4,), None),
    ("log", lambda p, c: T.log(T.sigmoid(p)), (4,), None),
    ("sum", lambda p, c: p, (4,), None),
    ("reshape", lambda p, c: T.reshape(p, (2, 2)), (4,), None),
    ("transpose", lambda p, c: T.matmul(T.transpose(p), c), (2, 3), (2,)),
]


@pytest.mark.parametrize("name,build,p_shape,c_shape", PRIMITIVE_CASES)
def test_primitive_gradients_match_finite_differences(name, build, p_shape, c_shape):
    # 20 random points per primitive, downstream of a smooth scalar head.
    for point in range(20):
        rng = np.random.default_rng(1000 + 17 * point)
        store = ParamStore(0)
        p = store.add("p", rng.normal(size=p_shape) * 0.8)
        const = T.tensor(rng.normal(size=c_shape) * 0.8) if c_shape else None
        out_shape = build(p, const).shape
        probe = T.tensor(rng.normal(size=out_shape))

        def forward():
            out = build(p, const)
            if out.shape:
                return T.sum_(T.tanh(T.mul(out, probe)))
            return T.tanh(out)

        tape = Tape()
        tape.watch(store)
        with tape:
            loss = forward()
        analytic = backward(tape, loss)
        numeric = finite_diff_grads(store, lambda: forward().item())
        assert_grads_close(analytic, numeric)


@pytest.mark.parametrize("gather_first", [True, False], ids=["gather-first", "dense-first"])
def test_leaf_reached_by_gather_and_dense_op_matches_finite_differences(gather_first):
    # The reverse sweep meets the later-recorded use first, so the two tape
    # orders start the leaf's gradient from a scattered and a dense part.
    rng = np.random.default_rng(21)
    store = ParamStore(0)
    W = store.add("W", rng.normal(size=(4, 3)) * 0.8)
    x = T.tensor(rng.normal(size=3))
    probe = T.tensor(rng.normal(size=(3, 3)))

    def rows():
        return T.sum_(T.tanh(T.mul(T.gather(W, [2, 0, 2]), probe)))

    def dense():
        return T.sum_(T.tanh(T.matmul(W, x)))

    def forward():
        first, second = (rows, dense) if gather_first else (dense, rows)
        a = first()
        return T.add(a, second())

    tape = Tape()
    tape.watch(store)
    with tape:
        loss = forward()
    analytic = backward(tape, loss)
    numeric = finite_diff_grads(store, lambda: forward().item())
    assert_grads_close(analytic, numeric)


def test_transpose_rejects_non_matrix():
    with pytest.raises(DimensionError):
        T.transpose(T.tensor([1.0, 2.0]))


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
def test_softmax_simplex_property(logits):
    out = T.softmax(T.tensor(logits)).values
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) <= 1e-9


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mul_matches_numpy_elementwise(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=5)
    b = rng.normal(size=5)
    assert np.array_equal(T.mul(T.tensor(a), T.tensor(b)).values, a * b)
