import hashlib
import struct
import weakref

import numpy as np
import pytest

from helpers import gradients, store_of
from mkgd import tensor as T
from mkgd.config import make_run_config
from mkgd.data import build_vocab
from mkgd.errors import ContractError, DataError
from mkgd.model import DialogueModel
from mkgd.optim import AdamState, adam_step, sgd_step
from mkgd.params import (
    CHECKPOINT_MAGIC,
    ParamStore,
    load_checkpoint,
    save_checkpoint,
    split_checkpoint,
)
from mkgd.tensor import Tape, backward


def test_unique_names_enforced():
    store = ParamStore(0)
    with pytest.raises(ContractError, match="inside building"):
        store.create("w", (2,))
    with store.building():
        store.create("w", (2,))
        with pytest.raises(ContractError, match="duplicate parameter name 'w'"):
            store.create("w", (2,))
        with pytest.raises(ContractError, match="built once"):
            with store.building():
                pass
    # A built store cannot grow: every write after the build installs a whole vector.
    with pytest.raises(ContractError, match="built once"):
        with store.building():
            pass
    with pytest.raises(ContractError, match="inside building"):
        store.create("v", (2,))
    assert [name for name, _ in store.items()] == ["w"] and store.size == 2


def test_seeded_init_is_reproducible():
    a = ParamStore(42)
    b = ParamStore(42)
    with a.building(), b.building():
        wa = a.create("w", (4, 4), init="uniform")
        wb = b.create("w", (4, 4), init="uniform")
    assert np.array_equal(wa.values, wb.values)


def test_init_kinds():
    store = ParamStore(1)
    with store.building():
        u = store.create("u", (64,), init="uniform")
        z = store.create("z", (8,), init="zeros")
        x = store.create("x", (16, 16), init="xavier")
    assert np.abs(u.values).max() <= 0.08
    assert np.array_equal(z.values, np.zeros(8))
    assert np.abs(x.values).max() <= np.sqrt(6.0 / 32)


def test_snapshot_restore_bit_exact_after_training():
    store = ParamStore(9)
    with store.building():
        store.create("w", (3, 3), init="uniform")
        store.create("b", (3,), init="zeros")
    snap = store.snapshot()
    # a few updates, then restore
    state = AdamState(store)
    for _ in range(3):
        grads = gradients(store, {"w": np.ones((3, 3)), "b": np.ones(3)})
        adam_step(store, grads, state, lr=0.05)
    assert not np.array_equal(store["w"].values, snap["w"])
    store.restore(snap)
    assert np.array_equal(store["w"].values, snap["w"])
    assert np.array_equal(store["b"].values, snap["b"])
    # restored copies are independent of the snapshot dict
    sgd_step(store, gradients(store, {"w": np.ones((3, 3)), "b": np.zeros(3)}), lr=1.0)
    assert not np.array_equal(store["w"].values, snap["w"])


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    store = ParamStore(7)
    with store.building():
        store.create("model.embed.W", (5, 3), init="uniform")
        store.create("model.out.b", (5,), init="xavier")
        store.create("scalarish", (1,), init="uniform")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store)
    arrays = load_checkpoint(path)
    assert list(arrays.keys()) == [name for name, _ in store.items()]
    for name, vals in arrays.items():
        assert vals.dtype == np.float64
        assert np.array_equal(vals, store[name].values)
    # byte-identical on re-save
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(path2, store_of(arrays))
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_magic_guard(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTME" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_adam_state_rides_in_same_container(tmp_path):
    # Older meta-train runs wrote optimizer state under '/adam/'; such
    # checkpoints still load, with the state set apart from the parameters.
    store = store_of({"w": np.random.default_rng(3).normal(size=(2, 2)), "/adam/t": [1.0],
                      "/adam/m/w": np.full((2, 2), 0.05)})
    path = tmp_path / "with_state.ckpt"
    save_checkpoint(path, store)
    params, adam = split_checkpoint(load_checkpoint(path))
    assert set(params) == {"w"}
    assert np.array_equal(params["w"], store["w"].values)
    assert set(adam) == {"t", "m/w"}
    assert adam["t"] == 1.0


def test_truncated_or_corrupt_checkpoint_raises_data_error(tmp_path):
    store = store_of({"layer.W": np.random.default_rng(5).normal(size=(2, 3)),
                      "layer.b": np.zeros(2), "scalar": 1.5})
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, store)
    data = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(DataError):
            load_checkpoint(cut)
    # an entry name that is not UTF-8
    bad_name = (CHECKPOINT_MAGIC + struct.pack("<II", 1, 1) + b"\xff"
                + struct.pack("<I", 0) + struct.pack("<d", 0.0))
    cut.write_bytes(bad_name)
    with pytest.raises(DataError):
        load_checkpoint(cut)


@pytest.mark.parametrize("shape,payload", [
    ((2,), [1.0, float("nan")]),
    ((1,), [float("-inf")]),
    ((0, 2**32 - 1, 2**32 - 1, 2**32 - 1), []),  # zero size, but the dims overflow
])
def test_non_finite_or_impossible_checkpoint_entry_raises_data_error(tmp_path, shape, payload):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1) + struct.pack("<I", 1) + b"w"
                     + struct.pack(f"<I{len(shape)}I", len(shape), *shape)
                     + struct.pack(f"<{len(payload)}d", *payload))
    with pytest.raises(DataError, match="'w'"):
        load_checkpoint(path)


def test_duplicate_checkpoint_entry_raises_data_error(tmp_path):
    entry = struct.pack("<I", 1) + b"w" + struct.pack("<II", 1, 1)
    path = tmp_path / "dup.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 2)
                     + entry + struct.pack("<d", 1.0) + entry + struct.pack("<d", 2.0))
    with pytest.raises(DataError, match="duplicate entry 'w'"):
        load_checkpoint(path)


def test_restore_rejects_wrong_names():
    store = store_of({"a": np.zeros(2), "b": np.zeros(3)})
    with pytest.raises(ContractError, match=r"missing \['b'\], extra \['c'\]"):
        store.restore({"a": np.zeros(2), "c": np.zeros(3)})
    with pytest.raises(ContractError, match="shape mismatch for parameter 'b'"):
        store.restore({"a": np.zeros(2), "b": np.zeros(2)})


def assert_views_one_vector(store):
    """Every parameter is a C-ordered view of the store's vector, at its own slot."""
    vector = store.vector
    assert vector.flags.c_contiguous and vector.shape == (store.size,)
    slots = store.views(vector)
    for name, t in store.items():
        assert t.values.base is vector and t.values.flags.c_contiguous
        assert t.values.shape == slots[name].shape
        assert t.values.ctypes.data == slots[name].ctypes.data


def test_every_parameter_views_the_one_vector_after_each_update():
    rng = np.random.default_rng(12)
    store = ParamStore(2)
    with store.building():
        store.create("W", (3, 4), init="xavier")
        store.create("b", (4,), init="zeros")
        store.create("U", (2, 3))
        store.create("c", (0,))
        store.create("v", (5,), init="xavier")
    assert store.size == 12 + 4 + 6 + 0 + 5
    assert_views_one_vector(store)
    fortran = np.asfortranarray(rng.normal(size=(3, 4)))
    store.restore({**store.snapshot(), "W": fortran})
    assert np.array_equal(store["W"].values, fortran)
    assert_views_one_vector(store)
    store.restore(store.snapshot())
    assert_views_one_vector(store)
    grads = gradients(store, {name: rng.normal(size=t.shape) for name, t in store.items()})
    sgd_step(store, grads, lr=0.1)
    assert_views_one_vector(store)
    adam_step(store, grads, AdamState(store), lr=0.1)
    assert_views_one_vector(store)
    snap = store.snapshot()
    assert list(snap) == [name for name, _ in store.items()]
    for name, vals in snap.items():
        assert np.array_equal(vals, store[name].values)
        assert not np.shares_memory(vals, store.vector)


def test_model_load_values_keeps_every_parameter_a_view(tmp_path):
    cfg = make_run_config("desk")
    vocab = build_vocab([f"w{i}" for i in range(30)], 30)
    model = DialogueModel(vocab, cfg.embed_dim, cfg.hidden_dim, seed=3)
    assert_views_one_vector(model.store)
    other = DialogueModel(vocab, cfg.embed_dim, cfg.hidden_dim, seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, other.store)
    model.load_values(load_checkpoint(path))
    assert_views_one_vector(model.store)
    assert np.array_equal(model.store.vector, other.store.vector)


def test_building_draws_the_bits_of_generator_uniform():
    specs = [("E", (7, 3), "uniform"), ("b", (3,), "zeros"), ("W", (3, 5), "xavier"),
             ("v", (4,), "xavier"), ("U", (2, 2), "uniform")]
    built = ParamStore(5)
    with built.building():
        for name, shape, init in specs:
            t = built.create(name, shape, init)
            # Zeros of the right shape, outside the vector, until building ends.
            assert t.shape == shape and not t.values.any() and built.size > built.vector.size
    # The draws are those of Generator.uniform over each shape, in creation order.
    rng = np.random.default_rng(5)
    for name, shape, init in specs:
        if init == "zeros":
            want = np.zeros(shape)
        else:
            bound = 0.08 if init == "uniform" else np.sqrt(6.0 / (shape[-1] + shape[0]))
            want = rng.uniform(-bound, bound, shape)
        assert np.array_equal(built[name].values, want)


def test_store_without_seed_starts_at_zero():
    store = ParamStore(None)
    with store.building():
        store.create("W", (3, 3))
        store.create("v", (2,), init="xavier")
    assert store.size == 11 and not store.vector.any()


def two_param_store(rng):
    return store_of({"W": rng.normal(size=(3, 2)), "b": rng.normal(size=2)})


@pytest.mark.parametrize("held", ["vector", "values", "tape"])
def test_no_step_writes_a_values_array_that_anything_holds(held):
    rng = np.random.default_rng(13)
    store = two_param_store(rng)
    tape = Tape()
    tape.watch(store)
    with tape:
        loss = T.sum_(T.tanh(T.add(T.matmul(T.Tensor(rng.normal(size=(5, 3))), store["W"]),
                                   store["b"])))
    grads = backward(tape, loss)
    kept = {"vector": store.vector, "values": store["W"].values, "tape": tape}[held]
    if held != "tape":
        del tape, loss  # the tape saved views of the vector too
    saved = ([a for _, _, parts in kept.nodes for a in parts if isinstance(a, np.ndarray)]
             if held == "tape" else [kept])
    assert any(np.shares_memory(a, store.vector) for a in saved)
    before = [a.copy() for a in saved]
    state = AdamState(store)
    for step in (lambda: adam_step(store, grads, state, lr=0.1),
                 lambda: sgd_step(store, grads, lr=0.1)) * 2:
        step()
    # The third and fourth steps reuse a vector, never the held one.
    assert not any(np.shares_memory(a, store.vector) for a in saved)
    for a, copy in zip(saved, before):
        assert np.array_equal(a, copy)
    if held == "tape":
        again = backward(kept, loss)
        assert np.array_equal(again.flat, grads.flat)


# Each step covers all parameters.
@pytest.mark.parametrize("step", ["adam", "sgd", "restore"],
                         ids=["adam-all", "sgd-all", "restore-all"])
def test_with_nothing_held_a_step_installs_the_vector_the_last_one_retired(step):
    rng = np.random.default_rng(14)
    store = two_param_store(rng)
    grads = gradients(store, {name: rng.normal(size=t.shape) for name, t in store.items()})
    snap = store.snapshot()
    state = AdamState(store)
    run = {"adam": lambda: adam_step(store, grads, state, lr=0.1),
           "sgd": lambda: sgd_step(store, grads, lr=0.1),
           "restore": lambda: store.restore(snap)}[step]
    b = store["b"].values.copy()
    first = weakref.ref(store.vector)
    run()
    second = weakref.ref(store.vector)
    assert second() is not first()
    run()
    assert store.vector is first()
    run()
    assert store.vector is second()
    assert_views_one_vector(store)
    if step == "restore":
        assert np.array_equal(store["b"].values, b)


# sha256 of save_checkpoint for a fresh desk-preset model (the vocabulary of
# w0..w399 cut to 200 entries, seed 7), and after three Adam steps at the
# preset's alpha on standard normal gradients drawn per parameter in store
# order from default_rng(11). Neither path multiplies matrices, so neither
# depends on BLAS or the CPU count.
DESK_CHECKPOINT_SHA256 = "21697aa976a8d051c919ed7a21436d3e3308e7ab5d5252e06b6a61841a073a44"
DESK_AFTER_ADAM_SHA256 = "717961323c3abeb6b63b3684fa6c2c427cf33eba778c787c578a85bdc44e3038"


def test_desk_checkpoint_bits_are_pinned(tmp_path):
    cfg = make_run_config("desk")
    vocab = build_vocab([f"w{i}" for i in range(2 * cfg.max_vocab)], cfg.max_vocab)
    model = DialogueModel(vocab, cfg.embed_dim, cfg.hidden_dim, seed=7)
    path = tmp_path / "desk.ckpt"

    def digest():
        save_checkpoint(path, model.store)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert digest() == DESK_CHECKPOINT_SHA256
    rng = np.random.default_rng(11)
    state = AdamState(model.store)
    for _ in range(3):
        grads = {name: rng.standard_normal(t.shape) for name, t in model.store.items()}
        adam_step(model.store, gradients(model.store, grads), state, cfg.alpha)
    assert digest() == DESK_AFTER_ADAM_SHA256
