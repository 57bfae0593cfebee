"""Named parameters in one float64 vector, seeded initialization, and the checkpoint format.

A ParamStore lays its parameters out back to back, in creation order, in
one contiguous vector, and each parameter's Tensor values are a C-ordered
view of its slot. So an optimizer step, a snapshot or a restore works on
one array. A store is built once: every parameter is created inside one
``building()``, which allocates the vector and draws the values straight
into their views. After that, every write installs a whole new vector and
re-points every view at it. It writes the vector the last install retired
when nothing else holds it (``spare``), else a new one, so no step writes
a values array that anything still holds.

Checkpoint layout (binary, little-endian): the magic bytes ``MKGD1``, a u32
entry count, then per entry a u32 name length, the UTF-8 name, a u32 rank,
``rank`` u32 shape dims, and the row-major float64 payload. Round-trips are
bit-exact. A non-finite value marks a corrupt file, since the optimizers
install no non-finite value; ``load_checkpoint`` rejects it. Entries under
the ``/adam/`` name prefix, written by older versions, are optimizer state;
``split_checkpoint`` sets them apart.
"""

from __future__ import annotations

import bisect
import math
import struct
import sys
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DataError
from .tensor import Tensor

CHECKPOINT_MAGIC = b"MKGD1"
INIT_UNIFORM_RANGE = 0.08
# float64 values drawn and scaled at a time, so the scaling passes stay in cache
DRAW_BLOCK = 2 ** 14


class ParamStore:
    """Ordered map of trainable tensors, each a view of one vector, snapshotable bit-exactly.

    seed None draws nothing: every parameter starts at zero.
    """

    def __init__(self, seed=0):
        self._rng = None if seed is None else np.random.default_rng(seed)
        self._entries = {}
        self._slots = {}  # name -> (start, stop, shape) in the vector
        self._size = 0
        self._vector = np.zeros(0)
        self._spare = None  # the vector the last install retired, of the same size
        self._pending = []  # (name, init) of parameters created but not yet drawn
        self._building = False

    def create(self, name, shape, init="uniform"):
        """Create and register a parameter; only inside ``building()``.

        init: "uniform" (recurrent weights and embeddings, +-0.08),
        "xavier" (projection matrices), or "zeros" (biases).
        """
        if not self._building:
            raise ContractError("parameters are created inside building()")
        if name in self._entries:
            raise ContractError(f"duplicate parameter name {name!r}")
        if init not in ("uniform", "xavier", "zeros"):
            raise ContractError(f"unknown init {init!r}")
        shape = tuple(shape)
        placeholder = np.zeros(shape)  # untouched pages cost no memory
        t = self._entries[name] = Tensor(placeholder)
        start = self._size
        self._size += placeholder.size
        self._slots[name] = (start, self._size, shape)
        self._pending.append((name, init))
        return t

    @contextmanager
    def building(self):
        """Create every parameter inside; on leaving, allocate the vector and draw them.

        A store is built once. Draws follow creation order. Inside, a new
        parameter holds zeros of its shape that are not part of the vector.
        """
        if self._building or self._entries:
            raise ContractError("a store is built once, by one building()")
        self._building = True
        try:
            yield self
        finally:
            self._building = False
            self._draw()

    def _draw(self):
        """Allocate the vector for every created parameter, then draw them in order.

        Adjacent parameters of one bound are drawn as one range: the
        generator fills values in order either way.
        """
        vector = np.zeros(self._size)
        runs = []  # [start, stop, bound] of ranges to draw
        for name, init in self._pending:
            if init == "zeros" or self._rng is None:
                continue
            start, stop, shape = self._slots[name]
            if init == "uniform":
                bound = INIT_UNIFORM_RANGE
            else:
                fan_in = shape[-1] if len(shape) > 1 else shape[0]
                bound = math.sqrt(6.0 / (fan_in + shape[0]))
            if runs and runs[-1][1] == start and runs[-1][2] == bound:
                runs[-1][1] = stop
            else:
                runs.append([start, stop, bound])
        for start, stop, bound in runs:
            # uniform(-bound, bound) is -bound + (2 * bound) * random(): the same bits.
            for lo in range(start, stop, DRAW_BLOCK):
                block = vector[lo:min(lo + DRAW_BLOCK, stop)]
                self._rng.random(out=block)
                block *= 2 * bound
                block += -bound
        self._pending = []
        self._install(vector, self.views(vector))

    def __getitem__(self, name):
        return self._entries[name]

    @property
    def size(self):
        """The number of values in every parameter together."""
        return self._size

    @property
    def vector(self):
        """The one vector every parameter's values view."""
        return self._vector

    def items(self):
        return self._entries.items()

    def views(self, vector):
        """Name -> that parameter's slot of a vector laid out as this store, as a view."""
        return {name: vector[start:stop].reshape(shape)
                for name, (start, stop, shape) in self._slots.items()}

    def install(self, vector):
        """Make a C-contiguous float64 vector of `size` values the one every parameter views."""
        if not (type(vector) is np.ndarray and vector.dtype == np.float64
                and vector.shape == (self._size,) and vector.flags.c_contiguous):
            raise ContractError(f"a store of {self._size} values needs a C-contiguous "
                                f"float64 vector of that size")
        self._install(vector, self.views(vector))

    def _install(self, vector, views):
        for name, view in views.items():
            self._entries[name].values = view
        retired, self._vector = self._vector, vector
        self._spare = retired if retired.size == vector.size else None

    def spare(self):
        """A vector of `size` values for a step to write and then install.

        It is the vector the last install retired when nothing but the store
        holds it, else a new one. Every numpy view of the vector holds a
        reference to it, so a parameter's old values, an array a tape saved,
        or any other view or reference a caller kept each keep it out.
        """
        # Two references: the store's and getrefcount's argument.
        if self._spare is not None and sys.getrefcount(self._spare) == 2:
            return self._spare
        return np.empty(self._size)

    def name_at(self, index):
        """The name of the parameter whose slot holds vector position index."""
        starts = [start for start, _, _ in self._slots.values()]
        return list(self._slots)[bisect.bisect_right(starts, index) - 1]

    def snapshot(self):
        """Name -> values, views of one copy of the vector; independent of later training steps."""
        return self.views(self._vector.copy())

    def restore(self, arrays):
        """Install one copy of name -> values, as a snapshot or a checkpoint holds them.

        The names and shapes must be the store's. The values are not checked
        for finiteness: a snapshot comes from the store, and a checkpoint's
        arrays have passed ``load_checkpoint``.
        """
        if arrays.keys() != self._slots.keys():
            missing = sorted(self._slots.keys() - arrays.keys())
            extra = sorted(arrays.keys() - self._slots.keys())
            raise ContractError(f"parameter names do not match the store "
                                f"(missing {missing[:3]}, extra {extra[:3]})")
        for name, (_, _, shape) in self._slots.items():
            if arrays[name].shape != shape:
                raise ContractError(f"shape mismatch for parameter {name!r}")
        parts = [arrays[name].reshape(-1) for name in self._slots]
        self.install(np.concatenate(parts, out=self.spare()) if parts else np.zeros(0))


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
