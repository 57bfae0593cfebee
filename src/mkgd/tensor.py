"""Reverse-mode automatic differentiation over dense float64 tensors.

A forward pass records primitive applications onto an explicit Tape (one
tape per training step, creation order == topological order). backward()
sweeps the tape once in reverse and returns the gradient of every parameter
of the watched store, each a view of one vector laid out as the store, so
the optimizers update the store's one vector from one array. With no tape
recording, a primitive records nothing and reads
no input node ids. Everything is float64: the engine is desk-scale and the
finite-difference checks in the test suite need the precision.

A primitive raises NumericError on a non-finite result. Inside fp_trap, the
scope each model call runs in, numpy's floating-point traps catch the first
elementwise op that makes inf or NaN, and matmul and affine results are
scanned with one dot product; outside it every result is scanned. The
command line, not the engine, silences numpy's floating-point warnings with
one np.errstate.
"""

from __future__ import annotations

import contextvars
import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import ContractError, DimensionError, NumericError, VocabError

_ACTIVE_TAPE = None
# Inside fp_trap numpy raises on overflow, invalid and divide. Per context, as
# numpy's own error state is, so one thread's scope never skips another's scan.
_TRAPPING = ContextVar("mkgd_fp_trap", default=False)
# A 2-d product of at least this many multiply-adds is split across two threads.
# At paper dims the vocabulary logits and the (V, H) weight gradients reach it
# (the BOW head's, 30000 x 1 x 300, just); no desk-preset product, at most about
# 3M at V=200, does.
SPLIT_MULADDS = 2 ** 23


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


class Tape:
    """Ordered record of one forward pass.

    Nodes are (kind, input_node_ids, saved) tuples appended in creation
    order; every node's inputs precede it, so a single reverse sweep in
    backward() visits each node exactly once. Use as a context manager to
    record, once: leaving it detaches the watched parameters, so they do
    not keep the tape alive.
    """

    def __init__(self):
        self.nodes = []
        self.store = None  # the watched ParamStore
        self.watched = {}  # param name -> leaf node id
        self.leaves = []  # the watched Tensors; None once recording has ended

    def watch(self, store):
        """Register every entry of a ParamStore as a leaf node; a tape watches one store."""
        if self.store is not None:
            raise ContractError("a tape watches one parameter store")
        self.store = store
        for name, t in store.items():
            nid = len(self.nodes)
            self.nodes.append(("leaf", (), (t.shape,)))
            t.node_id = nid
            t.tape = self
            self.watched[name] = nid
            self.leaves.append(t)

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a tape is already recording")
        if self.leaves is None:
            raise ContractError("a tape records once; use a fresh Tape")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        for t in self.leaves:
            t.node_id = t.tape = None
        self.leaves = None
        return False


@contextmanager
def fp_trap():
    """Raise NumericError at the first primitive that makes inf or NaN, scanning only products.

    Inputs must be finite, as parameters are, so a floating-point flag fires
    at the op that first makes a non-finite value; the op is named from the
    innermost primitive frame of the trapped error. A product split by
    in_two_threads raises in its worker under the same error state, and the
    error reaches the caller. Flags are per thread, though, and a BLAS left
    unpinned may split a large matmul across threads of its own, so matmul
    and affine results are still scanned. Underflow stays ignored: the
    masked softmax and sigmoid's exp(-|v|) underflow to 0 by design. Scopes
    nest.
    """
    token = _TRAPPING.set(True)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            yield
    except FloatingPointError as exc:
        kind = _trapped_kind(exc.__traceback__)
        raise NumericError(f"non-finite result in op {kind!r}") from None
    finally:
        _TRAPPING.reset(token)


def _trapped_kind(tb):
    """The op kind of the innermost frame of this module in a traceback."""
    kind = None
    while tb is not None:
        frame = tb.tb_frame
        if frame.f_globals is globals():
            # _elementwise names its op; every other primitive is named by its function.
            kind = frame.f_locals.get("kind", frame.f_code.co_name.rstrip("_"))
        tb = tb.tb_next
    return kind


def in_two_threads(fn, first, second):
    """Run fn(*first) on a new thread and fn(*second) on the calling one; return once both end.

    The new thread runs in the caller's contextvars context, so numpy's
    error state and the fp_trap scope hold there too. An error the new
    thread raised is raised here, after both halves have finished, and
    wins over one the caller's half raised. So no thread outlives the call,
    and nothing the halves write changes after it returns.
    """
    raised = []

    def run():
        try:
            fn(*first)
        except BaseException as exc:
            raised.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(run,),
                              name="mkgd-split")
    thread.start()
    try:
        fn(*second)
    finally:
        thread.join()
        if raised:
            raise raised[0]


def _out(kind, values, inputs, saved):
    """Wrap a primitive's fresh float64 result; under a tape, record it.

    Only a recording tape reads input node ids (-1 for an input of another
    tape or of none). np.sum, and a ufunc on 0-d inputs, return numpy scalars.
    """
    if type(values) is not np.ndarray:
        values = np.asarray(values)
    if _TRAPPING.get():
        # A BLAS worker thread's overflow sets no flag the trap sees (see fp_trap).
        finite = (kind != "matmul" and kind != "affine") or _squares_finite(values)
    else:
        finite = np.isfinite(values).all()
    if not finite:
        raise NumericError(f"non-finite result in op {kind!r}")
    out = Tensor.__new__(Tensor)
    out.values = values
    tape = out.tape = _ACTIVE_TAPE
    if tape is None:
        out.node_id = None
    else:
        out.node_id = len(tape.nodes)
        ids = tuple([t.node_id if t.tape is tape else -1 for t in inputs])
        tape.nodes.append((kind, ids, saved))
    return out


def _squares_finite(values):
    """Whether every entry is finite: one dot product, or a scan if the sum of squares is not.

    Only inside fp_trap, where the dot raises rather than warns on overflow.
    """
    flat = values.reshape(-1)
    try:
        if math.isfinite(np.dot(flat, flat)):
            return True
    except FloatingPointError:
        pass
    return np.isfinite(values).all()


# ---------------------------------------------------------------------------
# primitives


def _elementwise(kind, fn, a, b, saved):
    """Apply a numpy binary op under numpy broadcasting; backward reduces back."""
    try:
        out = fn(a.values, b.values)
    except ValueError:
        raise DimensionError(f"{kind}: incompatible shapes {a.shape} and {b.shape}") from None
    return _out(kind, out, (a, b), saved)


def add(a, b):
    return _elementwise("add", np.add, a, b, (a.shape, b.shape))


def sub(a, b):
    return _elementwise("sub", np.subtract, a, b, (a.shape, b.shape))


def mul(a, b):
    return _elementwise("mul", np.multiply, a, b, (a.values, b.values))


def _operands(op, a, b, min_b_ndim=1):
    """The values of a matmul's operands, checked: see matmul."""
    av, bv = a.values, b.values
    ok = (2 <= av.ndim <= 3 and min_b_ndim <= bv.ndim <= 3
          and av.shape[-1] == bv.shape[0 if bv.ndim == 1 else -2]
          and (bv.ndim < 3 or (av.ndim == 3 and av.shape[0] == bv.shape[0])))
    if not ok:
        raise DimensionError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    return av, bv


def _product(kind, a, b, out=None):
    """a @ b, written into out when given; a 2-d product of SPLIT_MULADDS multiply-adds splits.

    The split halves the longer output axis, each half one np.matmul into
    its slice of the one output array, so each entry is summed over the
    same inner axis as without the split. kind names the op whose product
    this is, for fp_trap.
    """
    if a.ndim != 2 or b.ndim != 2 or a.size * b.shape[1] < SPLIT_MULADDS:
        return a @ b if out is None else np.matmul(a, b, out=out)
    rows, cols = a.shape[0], b.shape[1]
    if out is None:
        out = np.empty((rows, cols))
    if rows >= cols:
        mid = rows // 2
        halves = (a[:mid], b, out[:mid]), (a[mid:], b, out[mid:])
    else:
        mid = cols // 2
        halves = (a, b[:, :mid], out[:, :mid]), (a, b[:, mid:], out[:, mid:])
    in_two_threads(_product_half, (kind, *halves[0]), (kind, *halves[1]))
    return out


def _product_half(kind, a, b, out):
    # kind is a local so that _trapped_kind names the op, not this frame.
    np.matmul(a, b, out=out)


def matmul(a, b):
    """numpy matmul of a 2- or 3-d a by a 1- to 3-d b; a 3-d b needs a 3-d a of equal batch size.

    A 3-d a is a batch of matrices over its leading axis, sharing a 1- or 2-d b.
    """
    av, bv = _operands("matmul", a, b)
    return _out("matmul", av @ bv, (a, b), (av, bv))


def affine(pairs, b):
    """a_1 @ w_1 + ... + a_k @ w_k + b as one node; each (a, w) as matmul admits it, w 2- or 3-d.

    The products, all of one shape, are summed in order and b is added last,
    as add(add(matmul, matmul), b) would, so the result is bit-equal to it.
    """
    if not pairs:
        raise ContractError("affine of zero products")
    saved = tuple(_operands("affine", a, w, min_b_ndim=2) for a, w in pairs)
    out = _product("affine", *saved[0])
    for av, wv in saved[1:]:
        product = _product("affine", av, wv)
        if product.shape != out.shape:
            raise DimensionError(f"affine: products of shape {out.shape} and {product.shape}")
        out += product
    try:
        out += b.values
    except ValueError:
        raise DimensionError(f"affine: bias {b.shape} does not broadcast to {out.shape}") from None
    return _out("affine", out, [t for pair in pairs for t in pair] + [b], (saved, b.shape))


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
    return _out("concat", vals, parts, (sizes, axis))


def stack(parts, axis=0):
    """Join equal-shape tensors along a new axis."""
    if not parts:
        raise ContractError("stack of zero tensors")
    shape = parts[0].shape
    if any(p.shape != shape for p in parts) or not 0 <= axis <= len(shape):
        raise DimensionError(
            f"stack: parts must share one shape (axis={axis}), got "
            + ", ".join(str(p.shape) for p in parts)
        )
    vals = np.stack([p.values for p in parts], axis=axis)
    return _out("stack", vals, parts, (len(parts), axis))


def slice_(t, start, stop):
    n = t.values.shape[0] if t.values.ndim >= 1 else 0
    if t.values.ndim == 0 or not (0 <= start < stop <= n):
        raise DimensionError(f"slice: range [{start}:{stop}] invalid for shape {t.shape}")
    return _out("slice", t.values[start:stop], (t,), (t.shape, start, stop))


def gather(table, indices):
    """Pick rows of a 2-d table by index; the embedding lookup primitive."""
    tv = table.values
    if tv.ndim != 2:
        raise DimensionError(f"gather: table must be 2-d, got {table.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or not idx.size:
        raise ContractError(f"gather needs a non-empty list of indices, got shape {idx.shape}")
    # One unsigned compare: a negative index reads as a huge one.
    bad = idx.view(np.uint64) >= tv.shape[0]
    if bad.any():
        raise VocabError(f"gather: index {idx[bad][0]} out of range "
                         f"for table of {tv.shape[0]} rows")
    return _out("gather", tv[idx], (table,), (tv.shape, idx))


def transpose(t):
    """Swap the last two axes of a 2-d tensor, or of each matrix of a 3-d one."""
    if not 2 <= t.values.ndim <= 3:
        raise DimensionError(f"transpose: tensor must be 2- or 3-d, got {t.shape}")
    return _out("transpose", np.swapaxes(t.values, -1, -2), (t,), ())


def sigmoid(t):
    v = t.values
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0, e) / (1.0 + e)
    return _out("sigmoid", out, (t,), (out,))


def tanh(t):
    out = np.tanh(t.values)
    return _out("tanh", out, (t,), (out,))


def softmax(t):
    """Softmax over the last axis (shift-stabilized)."""
    v = t.values
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ContractError(f"softmax over empty axis, shape {t.shape}")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    return _out("softmax", out, (t,), (out,))


def log(t, floor=0.0):
    """Natural log; with floor > 0, computes log(max(x, floor))."""
    v = t.values if floor <= 0.0 else np.maximum(t.values, floor)
    return _out("log", np.log(v), (t,), (t.values, floor))


def sum_(t):
    return _out("sum", np.sum(t.values), (t,), (t.shape,))


def reshape(t, shape):
    shape = tuple(shape)
    if math.prod(shape) != t.values.size:
        raise DimensionError(f"reshape: {t.shape} -> {shape} changes element count")
    return _out("reshape", t.values.reshape(shape), (t,), (t.shape,))


# ---------------------------------------------------------------------------
# backward


def _reduce_to(grad, shape):
    """Sum a gradient over the axes numpy broadcast an input of `shape` along."""
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    if lead:
        grad = grad.sum(axis=tuple(range(lead)))
    ones = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if ones:
        grad = grad.sum(axis=ones, keepdims=True)
    return grad


class _Outer:
    """A matmul's gradient for its right operand, a^T g, left for backward to multiply.

    A weight stepped through a recurrence gets one such term per step;
    backward stacks them along the rows and forms one product per node
    instead of one per step.
    """

    __slots__ = ("a", "g")

    def __init__(self, a, g):
        self.a = a
        self.g = g


def _settle(outers, swapped=False, out=None):
    """The sum of a^T g over a node's _Outer terms, as one product over their stacked rows.

    swapped forms the transpose, g^T a, which comes out C-ordered. The
    product goes into `out` when one is given.
    """
    if len(outers) == 1:
        a, g = outers[0].a, outers[0].g
    else:
        a = np.concatenate([o.a for o in outers], axis=-2)
        g = np.concatenate([o.g for o in outers], axis=-2)
    if swapped:
        return _product("backward", np.swapaxes(g, -1, -2), a, out=out)
    return _product("backward", np.swapaxes(a, -1, -2), g, out=out)


def _matmul_grads(av, bv, out_grad):
    """The gradients of av @ bv for a and for b; a 2- or 3-d b's is an _Outer term."""
    if bv.ndim == 1:
        # (..., n) @ (n,): an outer product back to a, a contraction over
        # every leading axis back to b.
        n = bv.shape[0]
        return (out_grad[..., None] * bv, av.reshape(-1, n).T @ out_grad.reshape(-1))
    da = out_grad @ np.swapaxes(bv, -1, -2)
    if bv.ndim == 3:
        return (da, _Outer(av, out_grad))
    # A shared 2-d b collects the products of every leading index of a.
    n, p = bv.shape
    return (da, _Outer(av.reshape(-1, n), out_grad.reshape(-1, p)))


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
        return _matmul_grads(*saved, out_grad)
    if kind == "affine":
        pairs, b_shape = saved
        grads = [g for av, wv in pairs for g in _matmul_grads(av, wv, out_grad)]
        return grads + [_reduce_to(out_grad, b_shape)]
    if kind == "concat":
        sizes, axis = saved
        lead = (slice(None),) * axis
        grads, off = [], 0
        for s in sizes:
            grads.append(out_grad[lead + (slice(off, off + s),)])
            off += s
        return tuple(grads)
    if kind == "stack":
        _, axis = saved
        return tuple(np.moveaxis(out_grad, axis, 0))
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
        return (np.swapaxes(out_grad, -1, -2),)
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


def _owned(ig, g):
    """Whether a rule's fresh result can become a node's gradient without a copy.

    Views (add, sub and reshape hand back their output gradient or a view of
    it) and the node's own gradient are shared with other nodes, so they are
    copied instead.
    """
    return (isinstance(ig, np.ndarray) and ig is not g and ig.base is None
            and ig.dtype == np.float64 and ig.flags.c_contiguous)


class Gradients(dict):
    """Parameter name -> gradient Tensor, each a view of `flat`, one vector laid out as `store`.

    backward returns one; clip_global_norm returns one over the same
    vector, with the global `norm` and, when the clip fires, the `scale`.
    The gradient an optimizer applies is `flat`, times `scale` when it is
    set; the optimizers take it only for the store they update.
    """

    def __init__(self, store, flat, grads, norm=None, scale=None):
        super().__init__(grads)
        self.store = store
        self.flat = flat
        self.norm = norm
        self.scale = scale


def backward(tape, loss):
    """Return the gradients of a scalar loss for every parameter of the watched store.

    The result is a Gradients over one zeroed vector laid out as the store,
    so parameters unreachable from the loss get zero gradients. The tape is
    not mutated, so a second call returns identical results.

    Each node's gradient is one C-ordered array owned here, and a
    parameter's is its slot of the vector. An inner node's first
    contribution is kept when a rule made it fresh, or when it is a
    C-contiguous part of a stack's gradient, which the stack drops right
    after; it is copied otherwise. A parameter's first contribution is
    copied into its slot. Later contributions are added in place. A gather
    contributes (indices, rows), scattered into a zero table made once per
    node, or into the slot. A matmul contributes its right operand's a^T g
    as an _Outer term, and a node's terms become one product, written into
    the slot of a parameter with no gradient yet, when the sweep reaches
    it. At a transpose node the product is formed as g^T a, already
    C-ordered in the layout of the transposed input, and the node's own
    gradient, if any, is added to it swapped; the input gets the sum
    uncopied. A node's gradient is dropped once its rule has run, so memory
    holds the gradients of the frontier of the sweep, not of the whole
    tape; parameters keep theirs.
    """
    if loss.tape is not tape or loss.node_id is None:
        raise ContractError("loss was not recorded on this tape")
    if loss.values.size != 1:
        raise ContractError(f"loss must be a scalar, got shape {loss.shape}")
    store = tape.store
    flat = np.zeros(0 if store is None else store.size)
    views = {} if store is None else store.views(flat)
    slots = {nid: views[name] for name, nid in tape.watched.items()}

    grads = [None] * len(tape.nodes)
    grads[loss.node_id] = np.ones_like(loss.values)
    outers = {}  # node id -> its pending _Outer terms
    for i in range(loss.node_id, -1, -1):
        kind, input_ids, saved = tape.nodes[i]
        g = grads[i]
        if i in outers and kind == "transpose":
            nid = input_ids[0]
            ig = _settle(outers.pop(i), swapped=True,
                         out=slots.get(nid) if grads[nid] is None else None)
            if g is not None:
                ig += np.swapaxes(g, -1, -2)
            in_grads = (ig,)
        else:
            if i in outers:
                product = _settle(outers.pop(i), out=slots.get(i) if g is None else None)
                if g is None:
                    g = grads[i] = product
                else:
                    g += product
            if g is None or kind == "leaf":
                continue
            in_grads = _vjp(kind, saved, g)
        grads[i] = None
        for nid, ig in zip(input_ids, in_grads):
            if nid < 0:
                continue
            if kind == "gather":
                if grads[nid] is None:
                    grads[nid] = slots[nid] if nid in slots else np.zeros(saved[0])
                np.add.at(grads[nid], *ig)
            elif type(ig) is _Outer:
                outers.setdefault(nid, []).append(ig)
            elif grads[nid] is not None:
                grads[nid] += ig
            elif nid in slots:
                grads[nid] = slots[nid]
                if ig is not slots[nid]:
                    np.copyto(slots[nid], ig)
            elif _owned(ig, g) or (kind == "stack" and ig.flags.c_contiguous):
                grads[nid] = ig
            else:
                grads[nid] = np.array(ig, dtype=np.float64, order="C")
    return Gradients(store, flat, {name: Tensor(slots[nid])
                                   for name, nid in tape.watched.items()})
