"""Reverse-mode automatic differentiation over dense float64 tensors.

A forward pass records primitive applications onto an explicit Tape (one
tape per training step, creation order == topological order). backward()
sweeps the tape once in reverse and returns gradients for every watched
parameter. Everything is float64: the engine is desk-scale and the
finite-difference checks in the test suite need the precision.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, NumericError, VocabError

_ACTIVE_TAPE = None


class Tensor:
    """A dense n-dimensional float64 value, optionally attached to a tape."""

    __slots__ = ("values", "node_id", "tape")

    def __init__(self, values, node_id=None, tape=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.node_id = node_id
        self.tape = tape

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def item(self):
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, node_id={self.node_id})"


def tensor(values):
    """Build a constant tensor (never receives gradients)."""
    return Tensor(values)


class Tape:
    """Ordered record of one forward pass.

    Nodes are (kind, input_node_ids, saved) tuples appended in creation
    order; every node's inputs precede it, so a single reverse sweep in
    backward() visits each node exactly once. Use as a context manager to
    enable recording.
    """

    def __init__(self):
        self.nodes = []
        self.watched = {}  # param name -> leaf node id

    def watch(self, store):
        """Register every entry of a ParamStore as a leaf node."""
        for name, t in store.items():
            self.watch_tensor(t, name)

    def watch_tensor(self, t, name):
        if name in self.watched:
            raise ContractError(f"duplicate watch name {name!r}")
        nid = len(self.nodes)
        self.nodes.append(("leaf", (), (t.shape,)))
        t.node_id = nid
        t.tape = self
        self.watched[name] = nid

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a tape is already recording")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False


def _node_id(t, tape):
    if tape is not None and t.tape is tape and t.node_id is not None:
        return t.node_id
    return -1


def _out(kind, values, input_ids, saved):
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite result in op {kind!r}")
    tape = _ACTIVE_TAPE
    if tape is None:
        return Tensor(values)
    nid = len(tape.nodes)
    tape.nodes.append((kind, input_ids, saved))
    return Tensor(values, node_id=nid, tape=tape)


def _ids(tensors):
    tape = _ACTIVE_TAPE
    return tuple(_node_id(t, tape) for t in tensors)


def _broadcastable(a, b):
    """Equal shapes, a scalar side, or 2-d plus a per-row vector."""
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return True
    return (a.ndim == 2 and b.shape == (a.shape[1],)) or \
           (b.ndim == 2 and a.shape == (b.shape[1],))


# ---------------------------------------------------------------------------
# primitives


def add(a, b):
    if not _broadcastable(a.values, b.values):
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _out("add", a.values + b.values, _ids((a, b)), (a.shape, b.shape))


def sub(a, b):
    if not _broadcastable(a.values, b.values):
        raise DimensionError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    return _out("sub", a.values - b.values, _ids((a, b)), (a.shape, b.shape))


def mul(a, b):
    if not _broadcastable(a.values, b.values):
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return _out("mul", a.values * b.values, _ids((a, b)), (a.values, b.values))


def matmul(a, b):
    av, bv = a.values, b.values
    if av.ndim == 0 or bv.ndim == 0 or av.ndim > 2 or bv.ndim > 2:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = av @ bv
    return _out("matmul", out, _ids((a, b)), (av, bv))


def concat(parts, axis=0):
    if not parts:
        raise ContractError("concat of zero tensors")
    ndim = parts[0].values.ndim
    if ndim == 0 or any(p.values.ndim != ndim for p in parts) or axis >= ndim:
        raise DimensionError(
            f"concat: parts must share rank > axis={axis}, got "
            + ", ".join(str(p.shape) for p in parts)
        )
    vals = np.concatenate([p.values for p in parts], axis=axis)
    sizes = tuple(p.values.shape[axis] for p in parts)
    return _out("concat", vals, _ids(parts), (sizes, axis))


def stack(rows):
    if not rows:
        raise ContractError("stack of zero tensors")
    shape = rows[0].shape
    if any(r.values.ndim != 1 or r.shape != shape for r in rows):
        raise DimensionError(
            "stack: rows must be equal-length vectors, got "
            + ", ".join(str(r.shape) for r in rows)
        )
    vals = np.stack([r.values for r in rows], axis=0)
    return _out("stack", vals, _ids(rows), (len(rows),))


def slice_(t, start, stop):
    n = t.values.shape[0] if t.values.ndim >= 1 else 0
    if t.values.ndim == 0 or not (0 <= start < stop <= n):
        raise DimensionError(f"slice: range [{start}:{stop}] invalid for shape {t.shape}")
    return _out("slice", t.values[start:stop], _ids((t,)), (t.shape, start, stop))


def gather(table, indices):
    """Pick rows of a 2-d table by index; the embedding lookup primitive."""
    tv = table.values
    if tv.ndim != 2:
        raise DimensionError(f"gather: table must be 2-d, got {table.shape}")
    idx = list(indices)
    if not idx:
        raise ContractError("gather with no indices")
    for i in idx:
        if not (0 <= int(i) < tv.shape[0]):
            raise VocabError(f"gather: index {i} out of range for table of {tv.shape[0]} rows")
    idx = np.asarray(idx, dtype=np.int64)
    return _out("gather", tv[idx], _ids((table,)), (tv.shape, idx))


def transpose(t):
    """Swap the two axes of a 2-d tensor."""
    if t.values.ndim != 2:
        raise DimensionError(f"transpose: tensor must be 2-d, got {t.shape}")
    return _out("transpose", t.values.T, _ids((t,)), ())


def sigmoid(t):
    v = t.values
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _out("sigmoid", out, _ids((t,)), (out,))


def tanh(t):
    out = np.tanh(t.values)
    return _out("tanh", out, _ids((t,)), (out,))


def softmax(t):
    """Softmax over the last axis (shift-stabilized)."""
    v = t.values
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ContractError(f"softmax over empty axis, shape {t.shape}")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    return _out("softmax", out, _ids((t,)), (out,))


def log(t, floor=0.0):
    """Natural log; with floor > 0, computes log(max(x, floor))."""
    v = t.values if floor <= 0.0 else np.maximum(t.values, floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(v)
    return _out("log", out, _ids((t,)), (t.values, floor))


def sum_(t):
    return _out("sum", np.sum(t.values), _ids((t,)), (t.shape,))


def reshape(t, shape):
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != t.values.size:
        raise DimensionError(f"reshape: {t.shape} -> {shape} changes element count")
    return _out("reshape", t.values.reshape(shape), _ids((t,)), (t.shape,))


# ---------------------------------------------------------------------------
# backward


def _reduce_to(grad, shape):
    """Collapse a gradient onto a (possibly broadcast) input shape."""
    if grad.shape == shape:
        return grad
    if len(shape) == 1 and grad.ndim == 2 and grad.shape[1] == shape[0]:
        return grad.sum(axis=0)
    return np.sum(grad).reshape(shape)


def _vjp(kind, saved, out_grad):
    if kind == "add":
        a_shape, b_shape = saved
        return (_reduce_to(out_grad, a_shape), _reduce_to(out_grad, b_shape))
    if kind == "sub":
        a_shape, b_shape = saved
        return (_reduce_to(out_grad, a_shape), _reduce_to(-out_grad, b_shape))
    if kind == "mul":
        av, bv = saved
        return (_reduce_to(out_grad * bv, av.shape), _reduce_to(out_grad * av, bv.shape))
    if kind == "matmul":
        av, bv = saved
        if av.ndim == 2 and bv.ndim == 2:
            return (out_grad @ bv.T, av.T @ out_grad)
        if av.ndim == 2 and bv.ndim == 1:
            return (out_grad[:, None] * bv[None, :], av.T @ out_grad)
        # (n,) @ (n,p)
        return (bv @ out_grad, av[:, None] * out_grad[None, :])
    if kind == "concat":
        sizes, axis = saved
        grads, off = [], 0
        for s in sizes:
            grads.append(out_grad[off:off + s] if axis == 0 else out_grad[:, off:off + s])
            off += s
        return tuple(grads)
    if kind == "stack":
        (n,) = saved
        return tuple(out_grad[i] for i in range(n))
    if kind == "slice":
        in_shape, start, stop = saved
        g = np.zeros(in_shape)
        g[start:stop] = out_grad
        return (g,)
    if kind == "gather":
        # Row-sparse: backward scatters (idx, rows) into the table's gradient.
        _, idx = saved
        return ((idx, out_grad),)
    if kind == "transpose":
        return (out_grad.T,)
    if kind == "sigmoid":
        (out,) = saved
        return (out_grad * out * (1.0 - out),)
    if kind == "tanh":
        (out,) = saved
        return (out_grad * (1.0 - out * out),)
    if kind == "softmax":
        (out,) = saved
        dot = np.sum(out_grad * out, axis=-1, keepdims=True)
        return (out * (out_grad - dot),)
    if kind == "log":
        in_vals, floor = saved
        if floor > 0.0:
            clipped = np.maximum(in_vals, floor)
            return (np.where(in_vals >= floor, out_grad / clipped, 0.0),)
        return (out_grad / in_vals,)
    if kind == "sum":
        (in_shape,) = saved
        return (np.broadcast_to(out_grad, in_shape).copy(),)
    if kind == "reshape":
        (in_shape,) = saved
        return (out_grad.reshape(in_shape),)
    raise ContractError(f"no backward rule for op {kind!r}")


def backward(tape, loss):
    """Return gradients of a scalar loss for every watched parameter.

    Watched parameters unreachable from the loss get zero gradients. The
    tape is not mutated, so a second call returns identical results.

    Each node's gradient is one C-ordered array owned here: the first
    contribution is copied (add, sub, reshape and transpose hand back views
    of their output gradient) and later ones are added in place. A gather
    contributes (indices, rows), scattered into a zero table made once per
    node.
    """
    if loss.tape is not tape or loss.node_id is None:
        raise ContractError("loss was not recorded on this tape")
    if loss.values.size != 1:
        raise ContractError(f"loss must be a scalar, got shape {loss.shape}")

    grads = [None] * len(tape.nodes)
    grads[loss.node_id] = np.ones_like(loss.values)
    for i in range(loss.node_id, -1, -1):
        g = grads[i]
        if g is None:
            continue
        kind, input_ids, saved = tape.nodes[i]
        if kind == "leaf":
            continue
        in_grads = _vjp(kind, saved, g)
        for nid, ig in zip(input_ids, in_grads):
            if nid < 0:
                continue
            if kind == "gather":
                if grads[nid] is None:
                    grads[nid] = np.zeros(saved[0])
                np.add.at(grads[nid], *ig)
            elif grads[nid] is None:
                grads[nid] = np.array(ig, dtype=np.float64, order="C")
            else:
                grads[nid] += ig

    out = {}
    for name, nid in tape.watched.items():
        g = grads[nid]
        if g is None:
            (shape,) = tape.nodes[nid][2]
            g = np.zeros(shape)
        out[name] = Tensor(g)
    return out
