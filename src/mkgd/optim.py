"""Update rules over a ParamStore's one vector: gradient descent, Adam and norm clipping.

The optimizers take one gradient form: a Gradients over one vector laid
out as the store they update, backward's or clip_global_norm's result for
it. Clip leaves the vector as it is and sets the scale; a step multiplies
each part of the vector by the scale in cache, before it first reads it.
A step builds the new values in the store's spare vector, the one its last
install retired when nothing else holds it, and installs it only when
every value is finite. So it writes neither the gradients nor a values
array that anything still holds.

One rule decides threading, by size alone: a pass over at least
ADAM_SPLIT_BLOCKS blocks of ADAM_BLOCK values, Adam's update or clip's dot
products, runs in two halves through tensor.in_two_threads, the first on
a new thread, and ends only when both have. Each value, and the norm,
comes out as on one thread, whatever the CPU count.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, NumericError
from .tensor import Gradients, in_two_threads

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# float64 values per Adam block: 256 KiB per array, so a block's six arrays stay in a 2 MiB L2
ADAM_BLOCK = 2 ** 15
# Adam and clip split a pass across two threads from this many blocks (2^20 values):
# a split lost at 2^16 and 2^17 values
ADAM_SPLIT_BLOCKS = 32


def _flat_grads(params, grads):
    """grads' gradient vector, once grads is checked to be a Gradients over params."""
    if not (isinstance(grads, Gradients) and grads.store is params
            and grads.flat.size == params.size):
        raise ContractError("gradients must be a Gradients over the store being updated")
    return grads.flat


def _non_finite(params, vector, start):
    """The NumericError naming the parameter of vector's first non-finite value."""
    index = start + int(np.argmin(np.isfinite(vector)))
    return NumericError(f"non-finite update for parameter {params.name_at(index)!r}")


def _splits(size):
    """Whether a pass over size values is split across two threads: from ADAM_SPLIT_BLOCKS blocks."""
    return -(-size // ADAM_BLOCK) >= ADAM_SPLIT_BLOCKS


def _cut(sizes):
    """The k that parts arrays of these sizes into [:k] and [k:] of most equal totals.

    0 when they do not split: fewer than two arrays, or fewer values in all
    than _splits asks for.
    """
    if len(sizes) < 2 or not _splits(sum(sizes)):
        return 0
    ends = np.cumsum(sizes[:-1])
    return int(np.argmin(np.abs(2 * ends - sum(sizes)))) + 1


def _dots(arrays, dots, lo, hi):
    """dots[i] = arrays[i] . arrays[i] for i in lo:hi."""
    for i in range(lo, hi):
        dots[i] = float(np.vdot(arrays[i], arrays[i]))


def clip_global_norm(grads, max_norm):
    """grads with its global L2 norm and the scale that brings that norm to max_norm.

    grads is a Gradients over the vector of its store with no scale yet,
    as backward returns it. Returns a Gradients over the same vector, left
    unwritten, whose `norm` is the norm before clipping and whose `scale`
    is max_norm / norm when the norm exceeds max_norm, else None; the
    optimizers apply the scale. max_norm <= 0 or None disables clipping,
    and the norm is still taken. The sum of squares adds each parameter's
    dot product in store order. If it overflows, the norm is taken again on
    gradients divided by the largest |g|. A NaN norm gets no scale, so the
    NaN reaches the optimizer's finite check.

    From ADAM_SPLIT_BLOCKS blocks in all, as for Adam, a new thread takes
    the dot products of the leading parameters, about half the values,
    while the caller takes the rest; they are still added in store order,
    so the norm is the same.
    """
    flat = _flat_grads(getattr(grads, "store", None), grads)
    if grads.scale is not None:
        raise ContractError("gradients are clipped already: clip backward's Gradients once")
    arrays = list(grads.store.views(flat).values())
    dots = [0.0] * len(arrays)
    cut = _cut([gv.size for gv in arrays])
    if cut:
        in_two_threads(_dots, (arrays, dots, 0, cut), (arrays, dots, cut, len(arrays)))
    else:
        _dots(arrays, dots, 0, len(arrays))
    total = 0.0
    for dot in dots:
        total += dot
    norm = np.sqrt(total)
    if math.isinf(total):
        big = max((float(np.max(np.abs(gv))) for gv in arrays if gv.size), default=0.0)
        if math.isfinite(big):
            scaled = (gv / big for gv in arrays)
            norm = big * np.sqrt(sum(float(np.vdot(s, s)) for s in scaled))
    clips = max_norm is not None and max_norm > 0 and norm > max_norm
    return Gradients(grads.store, flat, grads, float(norm), max_norm / norm if clips else None)


def _check_lr(lr):
    if not (math.isfinite(lr) and lr > 0):
        raise ContractError(f"lr must be positive and finite, got {lr}")


def sgd_step(params, grads, lr):
    """theta <- theta - lr * g, g being grads' vector times its scale when it has one."""
    _check_lr(lr)
    g = _flat_grads(params, grads)
    new = params.spare()
    if grads.scale is not None:
        g = np.multiply(g, grads.scale, out=new)
    np.subtract(params.vector, np.multiply(g, lr, out=new), out=new)
    if not np.isfinite(new).all():
        raise _non_finite(params, new, 0)
    params.install(new)
    return params


class AdamState:
    """First/second moment vectors, laid out as the store, plus the shared step counter.

    A step that fails after its checks, as on a non-finite update, leaves
    the counter and the moments advanced; it marks the state spent, and
    adam_step refuses a spent state.
    """

    def __init__(self, params):
        self.t = 0
        self.m = np.zeros(params.size)
        self.v = np.zeros(params.size)
        self.spent = False


def _adam_range(params, flats, begin, end, b1t, b2t, lr, scale, buf):
    """Update values begin:end of params' vector, one ADAM_BLOCK block at a time.

    flats are the gradient, moments, old values and new values, laid out as
    params; scale the gradient's, or None; buf a scratch buffer, at least
    one block wide, that no other thread uses. A block's gradient times
    scale is made in buf, which the step first writes after its last read
    of the gradient, and the step is built in the new values' block. Stops
    at the first block with a non-finite value.
    """
    g_flat, m_flat, v_flat, theta_flat, new_flat = flats
    for lo in range(begin, end, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, end)
        g, m, v = g_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
        step, denom = new_flat[lo:hi], buf[: hi - lo]
        if scale is not None:
            g = np.multiply(g, scale, out=denom)
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, g, out=step), 1.0 - ADAM_BETA2, out=step)
        # theta - lr * m_hat / (sqrt(v_hat) + eps)
        np.multiply(np.divide(m, b1t, out=step), lr, out=step)
        np.sqrt(np.divide(v, b2t, out=denom), out=denom)
        step /= np.add(denom, ADAM_EPS, out=denom)
        if not np.isfinite(np.subtract(theta_flat[lo:hi], step, out=step)).all():
            raise _non_finite(params, step, lo)


def adam_step(params, grads, state, lr):
    """One bias-corrected Adam update; increments the step counter once.

    The update runs over ADAM_BLOCK-value blocks of the store's vector, so
    every block's dozen passes stay in cache. Within a block the gradient
    is multiplied by grads' scale, when it has one, the moments are updated
    in place and the step is built in the new vector's block and one
    scratch buffer, with the arithmetic and its order of the textbook
    formula on the scaled gradient. The new vector is the store's spare
    (the one the last step retired, when nothing else holds it), so no step
    writes a values array that anything still holds. The new values are
    finite-checked block by block and installed only when complete, so a
    non-finite value installs nothing and names its parameter. Such a
    failure leaves the state spent: its next step raises ContractError.

    A vector of at least ADAM_SPLIT_BLOCKS blocks is split into two
    contiguous block ranges: a new thread updates the first while the
    caller updates the second. numpy releases the GIL inside each ufunc, so
    on two CPUs the halves overlap. Both halves finish before the vector is
    installed or an error raised, and every value is computed the same way
    whichever thread computes it.
    """
    _check_lr(lr)
    if state.spent:
        raise ContractError("optimizer state is spent: an earlier adam_step with it failed")
    g = _flat_grads(params, grads)
    for moment in (state.m, state.v):
        if not (type(moment) is np.ndarray and moment.dtype == np.float64
                and moment.shape == (params.size,) and moment.flags.c_contiguous):
            raise ContractError(f"optimizer state is not a C-contiguous float64 vector "
                                f"of the store's {params.size} values")
    state.spent = True  # until the new values are installed
    state.t += 1
    coeffs = (1.0 - ADAM_BETA1 ** state.t, 1.0 - ADAM_BETA2 ** state.t, lr, grads.scale)
    size, new = params.size, params.spare()
    flats = (g, state.m, state.v, params.vector, new)
    buf = np.empty(min(ADAM_BLOCK, size))
    if _splits(size):
        mid = -(-size // ADAM_BLOCK) // 2 * ADAM_BLOCK
        in_two_threads(_adam_range, (params, flats, 0, mid, *coeffs, np.empty_like(buf)),
                       (params, flats, mid, size, *coeffs, buf))
    else:
        _adam_range(params, flats, 0, size, *coeffs, buf)
    params.install(new)
    state.spent = False
    return params, state
