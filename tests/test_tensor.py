import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import assert_grads_close, finite_diff_grads, store_of
from mkgd import tensor as T
from mkgd.data import Vocab
from mkgd.dialogue import DialogueGoal, DialogueSample, KnowledgeGraph, KnowledgeTriplet
from mkgd.errors import ContractError, DimensionError, NumericError, VocabError
from mkgd.model import DialogueModel
from mkgd.params import ParamStore
from mkgd.tensor import Tape, Tensor, backward


def test_softmax_uniform_logits():
    out = T.softmax(T.Tensor([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.values, [0.25, 0.25, 0.25, 0.25], atol=1e-12)


def test_sigmoid_at_zero():
    assert T.sigmoid(T.Tensor([0.0])).values[0] == pytest.approx(0.5, abs=1e-15)


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 1))
    got = T.matmul(T.Tensor(a), T.Tensor(b)).values
    # naive triple-loop oracle
    want = np.zeros((2, 1))
    for i in range(2):
        for j in range(1):
            for k in range(3):
                want[i, j] += a[i, k] * b[k, j]
    assert np.allclose(got, want, atol=1e-15)


def test_matmul_vector_cases():
    A = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    v = T.Tensor([1.0, -1.0])
    assert np.allclose(T.matmul(A, v).values, [-1.0, -1.0])
    with pytest.raises(DimensionError):
        T.matmul(v, A)


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(DimensionError) as err:
        T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[1.0, 2.0]]))
    assert "matmul" in str(err.value)
    assert "(1, 2)" in str(err.value)
    with pytest.raises(DimensionError):
        T.add(T.Tensor([1.0, 2.0]), T.Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionError):
        T.mul(T.Tensor(np.ones((3, 2))), T.Tensor(np.ones((3, 4))))
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor(np.ones((2, 3, 4))), T.Tensor(np.ones((3, 4, 2))))
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor(np.ones((3, 4))), T.Tensor(np.ones((2, 4, 2))))
    with pytest.raises(DimensionError):
        T.stack([T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2)))])


def test_non_finite_result_raises():
    # The overflow and log(0) are deliberate; only the NumericError matters.
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(NumericError):
            T.matmul(T.Tensor([[1e200]]), T.Tensor([1e200]))
        with pytest.raises(NumericError):
            T.log(T.Tensor([0.0]))


def test_affine_rejects_a_bad_pair_and_a_bias_that_does_not_broadcast():
    a, w = T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 4)))
    bad_pairs = [((a, T.Tensor(np.ones((4, 2)))),),  # inner sizes differ
                 ((a, T.Tensor(np.ones(3))),),  # a 1-d w
                 ((a, w), (T.Tensor(np.ones((5, 3))), w))]  # products of two shapes
    for pairs in bad_pairs:
        with pytest.raises(DimensionError, match="affine"):
            T.affine(pairs, T.Tensor(np.zeros(4)))
    for b_shape in [(3,), (2, 1, 4), (3, 4)]:
        with pytest.raises(DimensionError, match="affine: bias"):
            T.affine(((a, w),), T.Tensor(np.zeros(b_shape)))
    with pytest.raises(ContractError):
        T.affine((), T.Tensor(np.zeros(4)))


def test_affine_is_bit_equal_to_the_matmul_and_add_composition():
    rng = np.random.default_rng(7)
    x, W, h, U = (T.Tensor(rng.normal(size=s)) for s in [(2, 3, 4), (2, 4, 5),
                                                          (2, 3, 5), (2, 5, 5)])
    b = T.Tensor(rng.normal(size=(2, 1, 5)))
    want = T.add(T.add(T.matmul(x, W), T.matmul(h, U)), b).values
    assert np.array_equal(T.affine(((x, W), (h, U)), b).values, want)


def test_fp_trap_names_an_overflowing_affine():
    big = T.Tensor(np.full((2, 2), 1e200))
    with pytest.raises(NumericError, match="non-finite result in op 'affine'"), T.fp_trap():
        T.affine(((big, big),), T.Tensor(np.zeros(2)))
    # The overflow is in adding the bias to a finite product.
    near = T.Tensor([[1e308]])
    with pytest.raises(NumericError, match="non-finite result in op 'affine'"), T.fp_trap():
        T.affine(((near, T.Tensor([[1.0]])),), near)


PRODUCTS = {
    "matmul": lambda a, w: T.matmul(a, w),
    "affine": lambda a, w: T.affine(((a, w),), T.Tensor(np.zeros(w.shape[-1]))),
}


@pytest.mark.parametrize("kind", list(PRODUCTS))
def test_fp_trap_passes_a_product_whose_squares_overflow(kind):
    # Finite entries of 1e200: the sum of squares overflows, the scan must not.
    a, w = T.Tensor([[1e100, 0.0], [0.0, -1e100]]), T.Tensor([[1e100, 1.0], [1.0, 1e100]])
    with T.fp_trap():
        out = PRODUCTS[kind](a, w)
    assert out.values.tolist() == [[1e200, 1e100], [-1e100, -1e200]]


@pytest.mark.parametrize("trapped", [True, False], ids=["trapped", "untrapped"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("kind", list(PRODUCTS))
def test_a_non_finite_product_names_its_op_inside_and_outside_the_trap(kind, bad, trapped):
    # A NaN input reaches the result with no floating-point flag, so only the scan
    # catches it; BLAS may flag an inf as invalid, which the trap names too.
    a, w = T.Tensor([[1.0, bad], [2.0, 3.0]]), T.Tensor(np.ones((2, 3)))
    with pytest.raises(NumericError, match=f"non-finite result in op '{kind}'"):
        if trapped:
            with T.fp_trap():
                PRODUCTS[kind](a, w)
        else:
            with np.errstate(invalid="ignore"):
                PRODUCTS[kind](a, w)


# Every operand shape matmul admits: 2-d@2-d, 3-d@3-d, 3-d@2-d, 3-d@1-d, 2-d@1-d.
MATMUL_SHAPES = [((2, 3), (3, 4)), ((2, 2, 3), (2, 3, 4)), ((2, 2, 3), (3, 4)),
                 ((2, 2, 3), (3,)), ((2, 3), (3,))]


@pytest.mark.parametrize("a_shape,b_shape", MATMUL_SHAPES)
def test_fp_trap_names_an_overflowing_matmul(a_shape, b_shape):
    a, b = T.Tensor(np.full(a_shape, 1e200)), T.Tensor(np.full(b_shape, 1e200))
    with pytest.raises(NumericError, match="non-finite result in op 'matmul'"), T.fp_trap():
        T.matmul(a, b)


def test_fp_trap_names_an_overflow_in_a_threaded_matmul():
    # Large enough for BLAS to split across threads, whose floating-point flags
    # the trap does not see; only the last block's corner element overflows.
    a, b = np.ones((300, 300)), np.ones((300, 2000))
    a[-1], b[:, -1] = 1e200, 1e200
    with pytest.raises(NumericError, match="non-finite result in op 'matmul'"), T.fp_trap():
        T.matmul(T.Tensor(a), T.Tensor(b))


def test_fp_trap_catches_a_cancellation_inside_matmul():
    # The products are +inf and -inf; their sum is NaN.
    with pytest.raises(NumericError, match="op 'matmul'"), T.fp_trap():
        T.matmul(T.Tensor([[1e200, 1e200]]), T.Tensor([1e200, -1e200]))


@pytest.mark.parametrize("kind,a,b", [("mul", 1e200, 1e200), ("add", 1e308, 1e308),
                                      ("sub", 1e308, -1e308)])
def test_fp_trap_names_an_overflowing_elementwise_op(kind, a, b):
    with pytest.raises(NumericError, match=f"non-finite result in op '{kind}'"), T.fp_trap():
        getattr(T, kind)(T.Tensor([1.0, a]), T.Tensor([[1.0], [b]]))


def test_fp_trap_names_sum_and_log():
    with pytest.raises(NumericError, match="op 'sum'"), T.fp_trap():
        T.sum_(T.Tensor([1e308, 1e308]))
    with pytest.raises(NumericError, match="op 'log'"), T.fp_trap():
        T.log(T.Tensor([1.0, 0.0]))


def test_fp_trap_ignores_underflow():
    with T.fp_trap():
        out = T.softmax(T.Tensor([0.0, -1e30]))
    assert out.values.tolist() == [1.0, 0.0]


def test_fp_trap_nests_and_restores_the_error_state():
    before = np.geterr()
    with pytest.raises(NumericError, match="op 'mul'"), T.fp_trap():
        with T.fp_trap():
            T.mul(T.Tensor([2.0]), T.Tensor([3.0]))
        # Leaving the inner scope leaves the outer one trapping.
        assert T._TRAPPING.get()
        T.mul(T.Tensor([1e200]), T.Tensor([1e200]))
    assert not T._TRAPPING.get()
    assert np.geterr() == before


def test_fp_trap_in_one_thread_leaves_another_scanning():
    entered, release = threading.Event(), threading.Event()

    def hold_a_scope():
        with T.fp_trap():
            entered.set()
            release.wait(10)

    worker = threading.Thread(target=hold_a_scope)
    worker.start()
    try:
        assert entered.wait(10)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="op 'mul'"):
            T.mul(T.Tensor([1e200]), T.Tensor([1e200]))
    finally:
        release.set()
        worker.join(10)
    assert not worker.is_alive()


# ---------------------------------------------------------------------------
# products and passes over two threads


def split_threads_alive():
    return [t for t in threading.enumerate() if t.name == "mkgd-split" and t.is_alive()]


def record_product_splits(monkeypatch, split_muladds=1):
    """Lower SPLIT_MULADDS; record (thread name, output shape) for each half of every split."""
    halves, half = [], T._product_half

    def recorded(kind, a, b, out):
        halves.append((threading.current_thread().name, out.shape))
        half(kind, a, b, out)

    monkeypatch.setattr(T, "_product_half", recorded)
    monkeypatch.setattr(T, "SPLIT_MULADDS", split_muladds)
    return halves


# (rows, inner, cols) of x @ W^T: split by rows, by columns, and the paper's
# teacher-forced and BOW logits, V=30000 and H=300.
AFFINE_SPLITS = [(37, 13, 5), (3, 13, 50), (13, 300, 3001), (10, 300, 30000), (1, 300, 30000)]


@pytest.mark.parametrize("rows,inner,cols", AFFINE_SPLITS)
def test_affine_split_over_two_threads_is_bit_equal(monkeypatch, rows, inner, cols):
    rng = np.random.default_rng(rows * cols)
    x, y = (T.Tensor(rng.normal(size=(rows, inner))) for _ in range(2))
    W, U = (T.Tensor(rng.normal(size=(cols, inner))) for _ in range(2))
    b = T.Tensor(rng.normal(size=cols))

    def logits():
        return T.affine(((x, T.transpose(W)), (y, T.transpose(U))), b).values

    one = logits()
    halves = record_product_splits(monkeypatch)
    two = logits()
    assert np.array_equal(one, two)
    main = threading.current_thread().name
    first = (rows // 2, cols) if rows >= cols else (rows, cols // 2)
    second = (rows - first[0], cols) if rows >= cols else (rows, cols - first[1])
    assert sorted(halves) == sorted([("mkgd-split", first), (main, second)] * 2)
    assert split_threads_alive() == []


# (rows, cols) of the weight, and K, the rows of the stacked input: odd row
# counts, outer products (K = 1), and the paper's out.W gradient at K = 10.
SETTLE_SPLITS = [((53, 6), 1), ((53, 6), 10), ((6, 53), 10), ((53, 6), 301), ((7, 9), 301),
                 ((30000, 300), 10)]


@pytest.mark.parametrize("transposed", [False, True], ids=["plain", "transposed"])
@pytest.mark.parametrize("w_shape,k", SETTLE_SPLITS)
def test_weight_gradient_split_over_two_threads_is_bit_equal(monkeypatch, w_shape, k,
                                                              transposed):
    # A plain weight gets a^T g, one behind a transpose node g^T a; either is
    # formed into the weight's gradient slot, half on each thread.
    rng = np.random.default_rng(k)
    store = store_of({"W": rng.normal(size=w_shape)})
    W = store["W"]
    x = T.Tensor(rng.normal(size=(k, w_shape[1] if transposed else w_shape[0])))
    c = T.Tensor(rng.normal(size=(k, w_shape[0] if transposed else w_shape[1])))

    def grad():
        tape = Tape()
        tape.watch(store)
        with tape:
            out = T.matmul(x, T.transpose(W) if transposed else W)
            loss = T.sum_(T.mul(out, c))
        return backward(tape, loss)["W"].values

    one = grad()
    halves = record_product_splits(monkeypatch)
    two = grad()
    assert np.array_equal(one, two)
    rows, cols = w_shape
    first = (rows // 2, cols) if rows >= cols else (rows, cols // 2)
    assert [h[1] for h in halves if h[0] == "mkgd-split"] == [first]
    assert len(halves) == 2
    assert split_threads_alive() == []


def test_products_below_the_split_size_and_3d_products_run_on_one_thread(monkeypatch):
    halves = record_product_splits(monkeypatch, split_muladds=4 * 5 * 6)
    small = T.affine(((T.Tensor(np.ones((4, 5))), T.Tensor(np.ones((5, 5)))),),
                     T.Tensor(np.zeros(5)))
    stacked = T.affine(((T.Tensor(np.ones((2, 40, 5))), T.Tensor(np.ones((2, 5, 6)))),),
                       T.Tensor(np.zeros(6)))
    assert small.shape == (4, 5) and stacked.shape == (2, 40, 6)
    assert halves == []
    T.affine(((T.Tensor(np.ones((4, 5))), T.Tensor(np.ones((5, 6)))),), T.Tensor(np.zeros(6)))
    assert len(halves) == 2


@pytest.mark.parametrize("row", [0, 3], ids=["worker", "caller"])
def test_fp_trap_names_affine_when_a_split_half_overflows(monkeypatch, row):
    # The worker raises under the caller's error state; its error, raised again
    # in the caller, still names the primitive, not a frame of the split.
    halves = record_product_splits(monkeypatch)
    a = np.ones((4, 3))
    a[row] = 1e200
    big = T.Tensor(np.full((3, 2), 1e200))
    with pytest.raises(NumericError, match="^non-finite result in op 'affine'$"), T.fp_trap():
        T.affine(((T.Tensor(a), big),), T.Tensor(np.zeros(2)))
    assert len(halves) == 2
    assert split_threads_alive() == []


@pytest.mark.parametrize("fails", [("first",), ("second",), ("first", "second")],
                         ids=["worker", "caller", "both"])
def test_in_two_threads_raises_a_half_error_once_both_halves_end(fails):
    ended = []

    def half(name):
        if name in fails:
            raise ValueError(name)
        time.sleep(0.05)  # the other half fails first, and must wait for this one
        ended.append(name)

    with pytest.raises(ValueError, match=f"^{fails[0]}$"):
        T.in_two_threads(half, ("first",), ("second",))
    assert sorted(ended) == sorted({"first", "second"} - set(fails))
    assert split_threads_alive() == []


def test_in_two_threads_runs_the_first_half_in_the_callers_context():
    seen = {}

    def half(name):
        seen[name] = (threading.current_thread().name, np.geterr()["over"], T._TRAPPING.get())

    with T.fp_trap():
        T.in_two_threads(half, ("first",), ("second",))
    main = threading.current_thread().name
    assert seen == {"first": ("mkgd-split", "raise", True), "second": (main, "raise", True)}
    assert split_threads_alive() == []


def test_log_floor():
    out = T.log(T.Tensor([0.0, 1.0]), floor=1e-12)
    assert out.values[0] == pytest.approx(math.log(1e-12))
    assert out.values[1] == 0.0


def test_softmax_empty_axis_rejected():
    with pytest.raises(ContractError):
        T.softmax(Tensor(np.zeros((0,))))


def test_gather_returns_exact_rows():
    store = ParamStore(0)
    with store.building():
        table = store.create("emb.W", (6, 3), init="uniform")
    rows = T.gather(table, [4, 1, 4])
    assert rows.shape == (3, 3)
    for row, index in zip(rows.values, [4, 1, 4]):
        assert np.array_equal(row, table.values[index])


def test_gather_rejects_out_of_range():
    table = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(VocabError):
        T.gather(table, [2])
    with pytest.raises(VocabError):
        T.gather(table, [1, -1])


@pytest.mark.parametrize("bad", [-1, 2, -2**63, 2**63 - 1])
def test_gather_names_the_first_bad_index(bad):
    # A 2-d index names its first bad index in C order; column order would name -3.
    table = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    for index in ([1, bad, 0, -3], [[1, bad], [-3, 0]]):
        with pytest.raises(VocabError) as err:
            T.gather(table, np.array(index))
        assert str(err.value) == f"gather: index {bad} out of range for table of 2 rows"


@pytest.mark.parametrize("indices", [[1.7], [True, False], np.array([1.0, 0.0])],
                         ids=["float", "bool-mask", "float-array"])
def test_gather_rejects_non_integer_indices(indices):
    # Converting would read row 1 for 1.7, and rows 1 and 0 for the mask.
    table = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ContractError) as err:
        T.gather(table, indices)
    assert str(err.value) == f"gather needs integer indices, got dtype {np.asarray(indices).dtype}"


@pytest.mark.parametrize("index", [1, np.int64(1), np.array(1), [], np.zeros((2, 0), np.int64)],
                         ids=["int", "numpy-int", "0-d-array", "empty", "empty-2d"])
def test_gather_rejects_a_0d_or_empty_index(index):
    with pytest.raises(ContractError):
        T.gather(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), index)


def test_gather_of_a_2d_index_is_the_flat_gather_reshaped():
    # A repeated row scatters several rows into one, in the C order of the index.
    rng = np.random.default_rng(14)
    values = {"W": rng.normal(size=(5, 3))}
    index = np.array([[4, 1, 4], [0, 4, 1]], dtype=np.int32)
    probe = T.Tensor(rng.normal(size=(2, 3, 3)))
    results = []
    for gather in (lambda W: T.gather(W, index),
                   lambda W: T.reshape(T.gather(W, index.reshape(-1)), (2, 3, 3))):
        store = store_of(values)
        tape = Tape()
        tape.watch(store)
        with tape:
            rows = gather(store["W"])
            loss = T.sum_(T.tanh(T.mul(rows, probe)))
        results.append((rows.values, backward(tape, loss)["W"].values))
    (got, got_grad), (want, want_grad) = results
    assert got.shape == (2, 3, 3)
    assert np.array_equal(got, want) and np.array_equal(got_grad, want_grad)


def test_reshape_rejects_a_shape_that_changes_the_element_count():
    for shape in [(3,), (2, 3), (-1, 4), (4, 0)]:
        with pytest.raises(DimensionError) as err:
            T.reshape(T.Tensor(np.ones(4)), shape)
        assert str(err.value) == f"reshape: (4,) -> {shape} changes element count"


def test_backward_square():
    store = store_of({"x": [3.0]})
    x = store["x"]
    tape = Tape()
    tape.watch(store)
    with tape:
        loss = T.sum_(T.mul(x, x))
    grads = backward(tape, loss)
    assert grads["x"].values[0] == pytest.approx(6.0, abs=1e-12)


def test_tape_records_once_and_detaches_its_parameters():
    store = store_of({"x": [3.0]})
    x = store["x"]
    tape = Tape()
    tape.watch(store)
    with tape:
        loss = T.sum_(T.mul(x, x))
    # the parameter no longer keeps the tape alive, and backward still reaches it
    assert x.tape is None and x.node_id is None
    assert backward(tape, loss)["x"].values[0] == pytest.approx(6.0, abs=1e-12)
    with pytest.raises(ContractError):
        with tape:
            pass


def test_backward_sigmoid_at_zero():
    store = store_of({"x": [0.0]})
    x = store["x"]
    tape = Tape()
    tape.watch(store)
    with tape:
        loss = T.sum_(T.sigmoid(x))
    grads = backward(tape, loss)
    assert grads["x"].values[0] == pytest.approx(0.25, abs=1e-12)


def test_backward_requires_scalar_loss():
    store = store_of({"x": [1.0, 2.0]})
    x = store["x"]
    tape = Tape()
    tape.watch(store)
    with tape:
        y = T.mul(x, x)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_backward_requires_recorded_loss():
    store = store_of({"x": [1.0]})
    tape = Tape()
    tape.watch(store)
    loss = T.Tensor([1.0])
    with pytest.raises(ContractError):
        backward(tape, loss)


def test_unreachable_params_get_zero_gradients():
    store = store_of({"x": [2.0], "unused": [[1.0, 2.0], [3.0, 4.0]]})
    x = store["x"]
    tape = Tape()
    tape.watch(store)
    with tape:
        loss = T.sum_(T.mul(x, x))
    grads = backward(tape, loss)
    assert np.array_equal(grads["unused"].values, np.zeros((2, 2)))


def test_backward_twice_is_identical():
    store = ParamStore(3)
    with store.building():
        w = store.create("w", (4, 3), init="uniform")
    x = T.Tensor(np.arange(3.0))
    tape = Tape()
    tape.watch(store)
    with tape:
        loss = T.sum_(T.tanh(T.matmul(w, x)))
    first = backward(tape, loss)
    nodes_before = [tuple(n[:2]) for n in tape.nodes]
    second = backward(tape, loss)
    assert [tuple(n[:2]) for n in tape.nodes] == nodes_before
    assert np.array_equal(first["w"].values, second["w"].values)


def test_backward_peak_memory_does_not_grow_with_chain_length():
    # Each node's gradient is dropped once its rule has run, so a chain of
    # ops holds a few vectors' worth of gradients at a time, however long.
    size = 20_000
    nbytes = size * 8

    def peak(length):
        store = store_of({"x": np.linspace(-1.0, 1.0, size)})
        x = store["x"]
        tape = Tape()
        tape.watch(store)
        with tape:
            h = x
            for _ in range(length):
                h = T.tanh(h)
            loss = T.sum_(h)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            backward(tape, loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(10), peak(80)
    assert long < short + 2 * nbytes, (short, long)
    assert long < 8 * nbytes, long


def test_transposed_weight_gradient_is_made_once_c_ordered():
    # backward forms W's gradient as g^T a at the transpose node, in W's own
    # layout, so no swapped (V, H) view is copied on its way to W.
    rng = np.random.default_rng(8)
    store = store_of({"W": rng.normal(size=(4096, 256)) * 0.01, "b": np.zeros(4096)})
    W, b = (store[name] for name in ("W", "b"))
    x = T.Tensor(rng.normal(size=(8, 256)))
    tape = Tape()
    tape.watch(store)
    with tape:
        loss = T.sum_(T.affine(((x, T.transpose(W)),), b))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        grads = backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * W.values.nbytes, peak
    assert grads["W"].values.flags.c_contiguous
    assert np.allclose(grads["W"].values, np.broadcast_to(x.values.sum(axis=0), (4096, 256)))


def test_mlp_gradients_match_finite_differences():
    # 2-layer MLP with a scalar loss; the oracle is central differences.
    rng = np.random.default_rng(5)
    store = store_of({
        "W0": rng.normal(size=(5, 4)) * 0.5,
        "b0": rng.normal(size=5) * 0.1,
        "W1": rng.normal(size=(1, 5)) * 0.5,
        "b1": rng.normal(size=1) * 0.1,
    })
    W0, b0, W1, b1 = (store[name] for name in ("W0", "b0", "W1", "b1"))
    x = rng.normal(size=4)

    def forward():
        h = T.tanh(T.add(T.matmul(W0, T.Tensor(x)), b0))
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
    # W rows^T, transposed back: a left operand reached through two transposes
    ("matmul_w_rows_t", lambda p, c: T.transpose(T.matmul(p, T.transpose(c))), (4, 3), (2, 3)),
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
    # shapes admitted by numpy broadcasting and batched matmul
    ("add_col", lambda p, c: T.add(p, c), (3, 1), (3, 4)),
    ("sub_col", lambda p, c: T.sub(c, p), (3, 1), (3, 4)),
    ("mul_col", lambda p, c: T.mul(c, p), (3, 1), (3, 4)),
    ("add_mid_axis", lambda p, c: T.add(c, p), (2, 1, 3), (2, 4, 3)),
    ("matmul_batched", lambda p, c: T.matmul(p, c), (2, 3, 4), (2, 4, 2)),
    ("matmul_batched_rhs", lambda p, c: T.matmul(c, p), (2, 4, 2), (2, 3, 4)),
    ("matmul_batch_by_matrix", lambda p, c: T.matmul(p, c), (2, 3, 4), (4, 2)),
    ("matmul_shared_matrix", lambda p, c: T.matmul(c, p), (4, 2), (2, 3, 4)),
    ("matmul_batch_by_vector", lambda p, c: T.matmul(p, c), (2, 3, 4), (4,)),
    ("matmul_shared_vector", lambda p, c: T.matmul(c, p), (4,), (2, 3, 4)),
    ("stack_matrices", lambda p, c: T.stack([p, c, p]), (2, 3), (2, 3)),
    ("stack_axis1", lambda p, c: T.stack([c, p], axis=1), (2, 3), (2, 3)),
    ("concat_last_of_3d", lambda p, c: T.concat([p, c], axis=2), (2, 3, 2), (2, 3, 1)),
    # the stacked gate matrices of a lockstep gru_encode
    ("transpose_3d", lambda p, c: T.matmul(c, T.transpose(p)), (2, 4, 3), (2, 3, 3)),
    # a right operand's deferred a^T g terms: two of them stacked, and one
    # settled onto a gradient another rule started
    ("matmul_rhs_twice", lambda p, c: T.matmul(T.matmul(c, p), p), (3, 3), (2, 4, 3)),
    ("matmul_rhs_and_add", lambda p, c: T.add(T.matmul(c, p), p), (3, 3), (2, 3, 3)),
    # affine: a shared 2-d w twice in one node, a batched 3-d w, a transposed
    # view, a GRU cell's (G, 1, H) bias, and a pair recorded on no tape
    ("affine_shared_matrix", lambda p, c: T.affine(((c, p), (T.tanh(c), p)), _const(2)),
     (4, 2), (2, 3, 4)),
    ("affine_batched", lambda p, c: T.affine(((c, p), (T.mul(c, c), p)), _const(1, 3)),
     (2, 4, 3), (2, 3, 4)),
    ("affine_transposed_view", lambda p, c: T.affine(((c, T.transpose(p)),), _const(3)),
     (3, 4), (2, 4)),
    ("affine_stacked_bias", lambda p, c: T.affine(((c, _const(2, 5, 3)),
                                                   (T.tanh(c), _const(2, 5, 3))), p),
     (2, 1, 3), (2, 4, 5)),
    ("affine_untaped_pair", lambda p, c: T.affine(((p, _const(3, 4)), (c, _const(2, 4))),
                                                  _const(4)),
     (2, 3), (2, 2)),
    # a transposed weight's deferred products, settled as g^T a at the
    # transpose: read by two affine nodes, stacked 3-d and read twice by one,
    # and with a direct gradient of its own added swapped
    ("transpose_read_by_two_affines", lambda p, c: _two_affines(c, T.transpose(p)),
     (3, 4), (2, 4)),
    ("transpose_stacked_3d",
     lambda p, c: _one_affine_twice(c, T.transpose(T.stack([p, T.tanh(p)]))),
     (3, 4), (2, 5, 4)),
    ("transpose_with_direct_grad", lambda p, c: _affine_plus_sum(c, T.transpose(p)),
     (3, 4), (2, 4)),
    # one input stacked twice: a parameter's two parts meet in its slot, an
    # inner node's second part is added onto the first, handed over uncopied
    ("stack_same_leaf_twice", lambda p, c: T.stack([p, p]), (2, 3), None),
    ("stack_same_inner_twice", lambda p, c: _stack_twice(T.tanh(T.mul(p, c))), (2, 3), (2, 3)),
    ("stack_of_stacks", lambda p, c: T.stack([_stack_twice(T.tanh(p)), T.stack([c, p])]),
     (2, 3), (2, 3)),
    # a, b and t each a row of p; then p as a GRU state, b and the gates' input
    ("lerp", lambda p, c: T.lerp(*(T.slice_(p, i, i + 1) for i in range(3))), (3, 4), None),
    ("lerp_state", lambda p, c: T.lerp(T.tanh(T.mul(p, c)), p, T.sigmoid(T.add(p, c))),
     (2, 3), (2, 3)),
    # an embedding and every cell parameter cut from p; ids repeat, so rows
    # of the embedding's gradient take several terms
    ("gru_run_one_cell", lambda p, c: _gru_run_of(p, [[0, 2], [1, 1], [2, 0]]), (45,), None),
    ("gru_run_stacked", lambda p, c: _gru_run_of(p, [[[0, 2], [1, 1]], [[2, 2], [0, 1]],
                                                     [[1, 0], [2, 2]]]),
     (81,), None),
]


def _gru_run_of(p, ids):
    """gru_run over a (3, 3) embedding and G cells of H=2, every one of them cut from p."""
    ids = np.array(ids)
    G = ids.shape[1] if ids.ndim == 3 else 1
    parts, start = [], 0
    for shape in [(3, 3)] + [(2, 3), (2, 2), (2,)] * 3 * G:
        parts.append(T.reshape(T.slice_(p, start, start + math.prod(shape)), shape))
        start += math.prod(shape)
    return T.gru_run(parts[0], [parts[1 + 9 * g:10 + 9 * g] for g in range(G)], ids)


def _stack_twice(a):
    return T.stack([a, a])


def _two_affines(c, wt):
    return T.add(T.affine(((c, wt),), _const(3)), T.affine(((T.tanh(c), wt),), _const(3)))


def _one_affine_twice(c, wt):
    return T.affine(((c, wt), (T.tanh(c), wt)), _const(2, 1, 3))


def _affine_plus_sum(c, wt):
    return T.add(T.affine(((c, wt),), _const(3)), T.sum_(T.mul(wt, wt)))


def _const(*shape):
    """A fixed constant of this shape, the same on every call."""
    return T.Tensor(np.linspace(-0.9, 0.7, math.prod(shape)).reshape(shape))


@pytest.mark.parametrize("name,build,p_shape,c_shape", PRIMITIVE_CASES)
def test_primitive_gradients_match_finite_differences(name, build, p_shape, c_shape):
    # 20 random points per primitive, downstream of a smooth scalar head.
    for point in range(20):
        rng = np.random.default_rng(1000 + 17 * point)
        store = store_of({"p": rng.normal(size=p_shape) * 0.8})
        p = store["p"]
        const = T.Tensor(rng.normal(size=c_shape) * 0.8) if c_shape else None
        out_shape = build(p, const).shape
        probe = T.Tensor(rng.normal(size=out_shape))

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


def test_every_node_kind_a_model_records_has_a_finite_difference_case():
    # One long history beside a graph of 3: the history runs step stacked
    # (G = 2) and the triplets apart (G = 1). A fused primitive lands with
    # its case in PRIMITIVE_CASES, named for its kind.
    vocab = Vocab(["a", "b", "c", "r0", "r1"])
    graph = KnowledgeGraph([KnowledgeTriplet("a", "r0", "b"), KnowledgeTriplet("b", "r1", "c"),
                            KnowledgeTriplet("c", "r0", "a b")],
                           DialogueGoal(("[start]", "a", "b")))
    sample = DialogueSample(history=vocab.encode("a r0 b c a b r1".split()),
                            response=vocab.encode(["b", "c"]) + [vocab.EOS],
                            graph=graph, gold_triplet=1)
    model = DialogueModel(vocab, 3, 4, seed=2)
    tape = Tape()
    tape.watch(model.store)
    with tape:
        model.forward([sample])
    assert sorted(saved[0].ndim for kind, _, saved in tape.nodes if kind == "gru_run") == [2, 3]
    names = [name for name, *_ in PRIMITIVE_CASES]
    kinds = {kind for kind, _, _ in tape.nodes} - {"leaf"}
    missing = {k for k in kinds if not any(n == k or n.startswith(k + "_") for n in names)}
    assert kinds >= {"gru_run", "affine", "lerp", "gather"} and not missing, missing


@pytest.mark.parametrize("gather_first", [True, False], ids=["gather-first", "dense-first"])
def test_leaf_reached_by_gather_and_dense_op_matches_finite_differences(gather_first):
    # The reverse sweep meets the later-recorded use first, so the two tape
    # orders start the leaf's gradient from a scattered and a dense part.
    rng = np.random.default_rng(21)
    store = store_of({"W": rng.normal(size=(4, 3)) * 0.8})
    W = store["W"]
    x = T.Tensor(rng.normal(size=3))
    probe = T.Tensor(rng.normal(size=(3, 3)))

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


def test_a_tape_watches_one_store_and_backward_lays_its_gradients_out_as_it():
    rng = np.random.default_rng(30)
    store = store_of({
        "W": rng.normal(size=(3, 2)),
        "unused": rng.normal(size=4),
        "b": rng.normal(size=2),
    })
    W, b = (store[name] for name in ("W", "b"))
    tape = Tape()
    tape.watch(store)
    with pytest.raises(ContractError, match="one parameter store"):
        tape.watch(ParamStore(0))
    with tape:
        loss = T.sum_(T.tanh(T.add(T.matmul(T.Tensor(rng.normal(size=(5, 3))), W), b)))
    grads = backward(tape, loss)
    assert grads.store is store and grads.flat.shape == (store.size,)
    assert list(grads) == [name for name, _ in store.items()]
    for name, view in store.views(grads.flat).items():
        assert grads[name].values.base is grads.flat
        assert np.shares_memory(grads[name].values, view)
        assert np.array_equal(grads[name].values, view)
    assert not grads["unused"].values.any() and grads["W"].values.any()


def test_backward_results_own_their_memory_and_match_finite_differences():
    # Rules that hand back their own output gradient (add, to both inputs) or
    # a view of it (reshape, transpose) must not let two gradients share memory:
    # each is its own slot of the one gradient vector.
    rng = np.random.default_rng(31)
    store = store_of({
        "a": rng.normal(size=(2, 3)),
        "x": rng.normal(size=(2, 3)),
        "y": rng.normal(size=(2, 3)),
        "b": rng.normal(size=(3, 2)),
        "c": rng.normal(size=(3, 2)),
    })
    a, x, y, b, c = (store[name] for name in ("a", "x", "y", "b", "c"))
    probe = T.Tensor(rng.normal(size=(2, 3)))

    def forward():
        parts = [T.add(a, a), T.add(x, y), T.reshape(b, (2, 3)), T.transpose(c)]
        total = parts[0]
        for part in parts[1:]:
            total = T.add(total, T.mul(part, probe))
        return T.sum_(T.tanh(total))

    tape = Tape()
    tape.watch(store)
    with tape:
        loss = forward()
    analytic = backward(tape, loss)
    assert_grads_close(analytic, finite_diff_grads(store, lambda: forward().item()))
    arrays = [g.values for g in analytic.values()]
    for i, first in enumerate(arrays):
        assert first.base is analytic.flat and first.flags.c_contiguous
        for second in arrays[i + 1:]:
            assert not np.shares_memory(first, second)


def test_transpose_rejects_non_matrix():
    with pytest.raises(DimensionError):
        T.transpose(T.Tensor([1.0, 2.0]))
    with pytest.raises(DimensionError):
        T.transpose(T.Tensor(np.zeros((2, 2, 2, 2))))


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
def test_softmax_simplex_property(logits):
    out = T.softmax(T.Tensor(logits)).values
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) <= 1e-9


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mul_matches_numpy_elementwise(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=5)
    b = rng.normal(size=5)
    assert np.array_equal(T.mul(T.Tensor(a), T.Tensor(b)).values, a * b)


def test_untaped_primitives_record_nothing_and_taped_ones_record_exact_inputs():
    rng = np.random.default_rng(41)
    store = store_of({"W": rng.normal(size=(3, 2)) * 0.5, "b": rng.normal(size=3) * 0.5})
    W, b = (store[name] for name in ("W", "b"))
    x = T.Tensor(rng.normal(size=2))
    with Tape():
        stale = T.tanh(T.Tensor(rng.normal(size=3)))
    stale_id = stale.node_id

    def forward():
        h = T.sigmoid(T.add(T.matmul(W, x), b))
        both = T.stack([h, stale])
        return T.sum_(T.mul(both, T.tanh(h)))

    untaped = forward()
    assert untaped.node_id is None and untaped.tape is None

    tape = Tape()
    tape.watch(store)
    with tape:
        loss = forward()
    # A constant and a tensor of an exited tape are both -1.
    assert [(kind, ids) for kind, ids, _ in tape.nodes] == [
        ("leaf", ()), ("leaf", ()),
        ("matmul", (0, -1)), ("add", (2, 1)), ("sigmoid", (3,)),
        ("stack", (4, -1)), ("tanh", (4,)), ("mul", (5, 6)), ("sum", (7,)),
    ]
    assert stale.node_id == stale_id and stale.tape is not tape
    assert loss.values == untaped.values
    assert_grads_close(backward(tape, loss), finite_diff_grads(store, lambda: forward().item()))


def _is_float64_array(values):
    return type(values) is np.ndarray and values.dtype == np.float64


@pytest.mark.parametrize("name,build,p_shape,c_shape", PRIMITIVE_CASES)
def test_primitive_results_are_float64_arrays_taped_and_untaped(name, build, p_shape, c_shape):
    rng = np.random.default_rng(3)
    store = store_of({"p": rng.normal(size=p_shape)})
    p = store["p"]
    const = T.Tensor(rng.normal(size=c_shape)) if c_shape else None

    def run():
        out = build(p, const)
        return out, T.sum_(out)

    untaped = run()
    tape = Tape()
    tape.watch(store)
    with tape:
        taped = run()
    for out in untaped + taped:
        assert _is_float64_array(out.values)
    for out in untaped:
        assert out.node_id is None and out.tape is None
    assert taped[1].tape is tape and taped[1].node_id == len(tape.nodes) - 1
    assert np.array_equal(untaped[0].values, taped[0].values)


def test_scalar_results_are_0d_float64_arrays():
    x, y = T.Tensor([1.0, 2.0]), T.Tensor([3.0, -4.0])
    a, b = T.Tensor(1.5), T.Tensor(-2.0)
    # numpy itself hands back scalars for these.
    assert not isinstance(np.sum(x.values), np.ndarray)
    assert not isinstance(a.values * b.values, np.ndarray)

    def run():
        return [T.add(T.sum_(x), T.sum_(y)), T.mul(a, b), T.sub(a, b),
                T.sigmoid(a), T.tanh(b), T.log(a)]

    untaped = run()
    with Tape():
        taped = run()
    for out in untaped + taped:
        assert _is_float64_array(out.values) and out.shape == ()
    assert [out.item() for out in untaped[:3]] == [2.0, -3.0, 3.5]
    assert [out.item() for out in taped] == [out.item() for out in untaped]
    # matmul admits no 1-d left operand, so it makes no scalar.
    with pytest.raises(DimensionError):
        T.matmul(x, y)


def _two_branch_sigmoid(v):
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 745.0, -745.0, 1e308, -1e308]


@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(EDGE_FLOATS)), min_size=1, max_size=8))
def test_sigmoid_is_bit_equal_to_the_two_branch_formula(values):
    v = np.array(values, dtype=np.float64)
    want = _two_branch_sigmoid(v).view(np.int64)
    assert np.array_equal(T.sigmoid(T.Tensor(v)).values.view(np.int64), want)
    with T.fp_trap():
        got = T.sigmoid(T.Tensor(v)).values
    assert np.array_equal(got.view(np.int64), want)


@pytest.mark.parametrize("inner", [False, True], ids=["leaves", "inner-nodes"])
def test_lerp_is_bit_equal_to_the_add_mul_sub_composition(inner):
    # As in a GRU step: h also feeds a node recorded before the update.
    rng = np.random.default_rng(15)
    values = {name: rng.normal(size=(4, 3)) for name in ("c", "h", "z")}
    probe = T.Tensor(rng.normal(size=(4, 3)))
    results = []
    for lerp in (T.lerp, lambda a, b, t: T.add(a, T.mul(t, T.sub(b, a)))):
        store = store_of(values)
        c, h, z = (store[name] for name in ("c", "h", "z"))
        tape = Tape()
        tape.watch(store)
        with tape:
            gate = T.tanh(h)
            if inner:
                c, z = T.tanh(c), T.sigmoid(z)
            out = lerp(c, h, z)
            loss = T.sum_(T.tanh(T.add(T.mul(out, probe), gate)))
        results.append((out.values, backward(tape, loss)))
    (got, got_grads), (want, want_grads) = results
    assert np.array_equal(got, want)
    for name in ("c", "h", "z"):
        assert np.array_equal(got_grads[name].values, want_grads[name].values), name


def test_lerp_rejects_inputs_of_different_shapes():
    a, row = T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros(3))
    for args in ((a, a, row), (a, row, a), (row, a, a)):
        with pytest.raises(DimensionError) as err:
            T.lerp(*args)
        assert str(err.value) == ("lerp: shapes " + ", ".join(str(t.shape) for t in args[:2])
                                  + f" and {args[2].shape} differ")
