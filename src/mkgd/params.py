"""Named parameter storage, seeded initialization, and the checkpoint format.

Checkpoint layout (binary, little-endian): the magic bytes ``MKGD1``, a u32
entry count, then per entry a u32 name length, the UTF-8 name, a u32 rank,
``rank`` u32 shape dims, and the row-major float64 payload. Round-trips are
bit-exact. A non-finite value marks a corrupt file, since ``set_values``
never stores one; ``load_checkpoint`` rejects it. Entries under the
``/adam/`` name prefix, written by older versions, are optimizer state;
``split_checkpoint`` sets them apart.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ContractError, DataError, NumericError
from .tensor import Tensor

CHECKPOINT_MAGIC = b"MKGD1"
INIT_UNIFORM_RANGE = 0.08


class ParamStore:
    """Ordered map of trainable tensors, snapshotable bit-exactly."""

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)
        self._entries = {}

    def create(self, name, shape, init="uniform"):
        """Create and register a parameter.

        init: "uniform" (recurrent weights and embeddings, +-0.08),
        "xavier" (projection matrices), or "zeros" (biases).
        """
        if name in self._entries:
            raise ContractError(f"duplicate parameter name {name!r}")
        shape = tuple(shape)
        if init == "zeros":
            vals = np.zeros(shape)
        elif init == "uniform":
            vals = self._rng.uniform(-INIT_UNIFORM_RANGE, INIT_UNIFORM_RANGE, shape)
        elif init == "xavier":
            fan_in = shape[-1] if len(shape) > 1 else shape[0]
            fan_out = shape[0]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            vals = self._rng.uniform(-bound, bound, shape)
        else:
            raise ContractError(f"unknown init {init!r}")
        t = Tensor(vals)
        self._entries[name] = t
        return t

    def __getitem__(self, name):
        return self._entries[name]

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    def names(self):
        return list(self._entries.keys())

    def items(self):
        return self._entries.items()

    def snapshot(self):
        """Copy of every value array; independent of later training steps."""
        return {name: t.values.copy() for name, t in self._entries.items()}

    def restore(self, snap):
        if set(snap.keys()) != set(self._entries.keys()):
            raise ContractError("snapshot names do not match store entries")
        for name, vals in snap.items():
            t = self._entries[name]
            if vals.shape != t.values.shape:
                raise ContractError(f"snapshot shape mismatch for {name!r}")
            t.values = vals.copy()

    def set_values(self, name, values):
        t = self._entries[name]
        values = np.asarray(values, dtype=np.float64)
        if values.shape != t.values.shape:
            raise ContractError(f"shape mismatch for parameter {name!r}")
        if not np.all(np.isfinite(values)):
            raise NumericError(f"non-finite update for parameter {name!r}")
        t.values = values


def save_checkpoint(path, store):
    """Write a parameter store to disk."""
    arrays = {name: t.values for name, t in store.items()}
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(arrays)))
        for name, vals in arrays.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", vals.ndim))
            for dim in vals.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(vals, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint into an ordered name -> float64 array map."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    off = len(CHECKPOINT_MAGIC)

    def take(size):
        nonlocal off
        if off + size > len(data):
            raise DataError(f"{path}: truncated checkpoint")
        start = off
        off += size
        return start

    def read(fmt):
        return struct.unpack_from(fmt, data, take(struct.calcsize(fmt)))

    (count,) = read("<I")
    arrays = {}
    for _ in range(count):
        (name_len,) = read("<I")
        start = take(name_len)
        try:
            name = data[start:off].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: entry name is not UTF-8") from exc
        (rank,) = read("<I")
        shape = tuple(read(f"<{rank}I")) if rank else ()
        if name in arrays:
            raise DataError(f"{path}: duplicate entry {name!r}")
        n = math.prod(shape)
        payload = np.frombuffer(data, dtype="<f8", count=n, offset=take(8 * n))
        if not np.isfinite(payload).all():
            raise DataError(f"{path}: entry {name!r} holds a non-finite value")
        try:
            arrays[name] = payload.reshape(shape).astype(np.float64)
        except ValueError as exc:  # an empty shape whose other dims overflow
            raise DataError(f"{path}: entry {name!r} has impossible shape {shape}") from exc
    if off != len(data):
        raise DataError(f"{path}: trailing bytes after last entry")
    return arrays


def split_checkpoint(arrays):
    """Split a loaded checkpoint into (parameters, '/adam/'-prefixed state)."""
    params, adam = {}, {}
    for name, vals in arrays.items():
        if name.startswith("/adam/"):
            adam[name[len("/adam/"):]] = vals
        else:
            params[name] = vals
    return params, adam
