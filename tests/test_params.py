import struct

import numpy as np
import pytest

from mkgd.errors import ContractError, DataError
from mkgd.optim import AdamState, adam_step, sgd_step
from mkgd.params import (
    CHECKPOINT_MAGIC,
    ParamStore,
    load_checkpoint,
    save_checkpoint,
    split_checkpoint,
)
from mkgd.tensor import Tensor


def test_unique_names_enforced():
    store = ParamStore(0)
    store.create("w", (2,))
    with pytest.raises(ContractError):
        store.create("w", (2,))


def test_seeded_init_is_reproducible():
    a = ParamStore(42)
    b = ParamStore(42)
    wa = a.create("w", (4, 4), init="uniform")
    wb = b.create("w", (4, 4), init="uniform")
    assert np.array_equal(wa.values, wb.values)
    assert a.names() == b.names()


def test_init_kinds():
    store = ParamStore(1)
    u = store.create("u", (64,), init="uniform")
    assert np.abs(u.values).max() <= 0.08
    z = store.create("z", (8,), init="zeros")
    assert np.array_equal(z.values, np.zeros(8))
    x = store.create("x", (16, 16), init="xavier")
    assert np.abs(x.values).max() <= np.sqrt(6.0 / 32)


def test_snapshot_restore_bit_exact_after_training():
    store = ParamStore(9)
    store.create("w", (3, 3), init="uniform")
    store.create("b", (3,), init="zeros")
    snap = store.snapshot()
    # a few updates, then restore
    state = AdamState(store)
    for _ in range(3):
        grads = {"w": Tensor(np.ones((3, 3))), "b": Tensor(np.ones(3))}
        adam_step(store, grads, state, lr=0.05)
    assert not np.array_equal(store["w"].values, snap["w"])
    store.restore(snap)
    assert np.array_equal(store["w"].values, snap["w"])
    assert np.array_equal(store["b"].values, snap["b"])
    # restored copies are independent of the snapshot dict
    sgd_step(store, {"w": Tensor(np.ones((3, 3)))}, lr=1.0)
    assert not np.array_equal(store["w"].values, snap["w"])


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    store = ParamStore(7)
    store.create("model.embed.W", (5, 3), init="uniform")
    store.create("model.out.b", (5,), init="xavier")
    store.create("scalarish", (1,), init="uniform")
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store)
    arrays = load_checkpoint(path)
    assert list(arrays.keys()) == store.names()
    for name, vals in arrays.items():
        assert vals.dtype == np.float64
        assert np.array_equal(vals, store[name].values)
    # byte-identical on re-save
    path2 = tmp_path / "again.ckpt"
    restored = ParamStore(0)
    for name, vals in arrays.items():
        restored.add(name, vals)
    save_checkpoint(path2, restored)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_magic_guard(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTME" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_adam_state_rides_in_same_container(tmp_path):
    # Older meta-train runs wrote optimizer state under '/adam/'; such
    # checkpoints still load, with the state set apart from the parameters.
    store = ParamStore(3)
    store.create("w", (2, 2), init="uniform")
    store.add("/adam/t", [1.0])
    store.add("/adam/m/w", np.full((2, 2), 0.05))
    path = tmp_path / "with_state.ckpt"
    save_checkpoint(path, store)
    params, adam = split_checkpoint(load_checkpoint(path))
    assert set(params) == {"w"}
    assert np.array_equal(params["w"], store["w"].values)
    assert set(adam) == {"t", "m/w"}
    assert adam["t"] == 1.0


def test_truncated_or_corrupt_checkpoint_raises_data_error(tmp_path):
    store = ParamStore(5)
    store.create("layer.W", (2, 3), init="uniform")
    store.create("layer.b", (2,), init="zeros")
    store.add("scalar", 1.5)
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


def test_duplicate_checkpoint_entry_raises_data_error(tmp_path):
    entry = struct.pack("<I", 1) + b"w" + struct.pack("<II", 1, 1)
    path = tmp_path / "dup.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 2)
                     + entry + struct.pack("<d", 1.0) + entry + struct.pack("<d", 2.0))
    with pytest.raises(DataError, match="duplicate entry 'w'"):
        load_checkpoint(path)


def test_restore_rejects_wrong_names():
    store = ParamStore(0)
    store.create("a", (2,))
    with pytest.raises(ContractError):
        store.restore({"b": np.zeros(2)})
