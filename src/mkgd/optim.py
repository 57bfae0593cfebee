"""Update rules over a ParamStore's one vector: gradient descent, Adam and norm clipping.

backward's gradients, and clip_global_norm's result for them, are a
Gradients over one vector laid out as the store, which the optimizers
read whole. Any other name -> gradient map is first copied into such a
vector, over the slots it covers; parameters it does not cover keep their
values and moments. A step builds the new values in the store's spare
vector, the one its last install retired when nothing else holds it, and
installs it only when every value is finite. So it writes neither the
gradients nor a values array that anything still holds.

One rule decides threading, by size alone: a pass over at least
ADAM_SPLIT_BLOCKS blocks of ADAM_BLOCK values, Adam's update or clip's dot
products and scaling, runs in two halves through tensor.in_two_threads,
the first on a new thread, and ends only when both have. Each value, and
the norm, comes out as on one thread, whatever the CPU count.
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


def _values(g):
    return g.values if hasattr(g, "values") else np.asarray(g, dtype=np.float64)


def _flat_grads(params, grads):
    """(gradient vector laid out as params, the (start, stop) ranges of it grads cover)."""
    if isinstance(grads, Gradients) and grads.store is params and grads.flat.size == params.size:
        return grads.flat, [(0, params.size)]
    flat = np.empty(params.size)
    slots = []
    for name, g in grads.items():
        if name not in params:
            raise ContractError(f"gradient for unknown parameter {name!r}")
        gv, pv = _values(g), params[name].values
        if gv.shape != pv.shape:
            raise ContractError(
                f"gradient shape {gv.shape} does not match parameter "
                f"{name!r} of shape {pv.shape}"
            )
        start, stop = params.slot(name)
        flat[start:stop] = gv.reshape(-1)
        slots.append((start, stop))
    ranges = []
    for start, stop in sorted(slots):
        if ranges and ranges[-1][1] == start:
            ranges[-1] = (ranges[-1][0], stop)
        else:
            ranges.append((start, stop))
    return flat, ranges


def _new_vector(params, ranges):
    """The vector a step writes: the store's spare, uncovered values carried over."""
    new = params.spare()
    if ranges != [(0, params.size)]:
        np.copyto(new, params.vector)
    return new


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
    """Scale the whole gradient map so its global L2 norm is <= max_norm.

    max_norm <= 0 disables clipping. Returns a name -> array map, a
    Gradients over one (scaled) vector when grads is one. The sum of squares
    adds each gradient's dot product in map order. If it overflows, the norm
    is taken again on gradients divided by the largest |g|; a NaN gradient
    passes through unscaled, for the optimizer's finite check to reject.

    From ADAM_SPLIT_BLOCKS blocks in all, as for Adam, a new thread takes
    the dot products of the leading gradients, about half the values, while
    the caller takes the rest; they are still added in map order, so the
    norm is the same. Scaling a Gradients' vector splits it the same way.
    """
    out = {name: _values(g) for name, g in grads.items()}
    arrays = list(out.values())
    dots = [0.0] * len(arrays)
    cut = _cut([gv.size for gv in arrays])
    if cut:
        in_two_threads(_dots, (arrays, dots, 0, cut), (arrays, dots, cut, len(arrays)))
    else:
        _dots(arrays, dots, 0, len(arrays))
    total = 0.0
    for dot in dots:
        total += dot
    if max_norm is not None and max_norm > 0:
        norm = np.sqrt(total)
        if math.isinf(total):
            big = max((float(np.max(np.abs(gv))) for gv in out.values() if gv.size), default=0.0)
            if math.isfinite(big):
                scaled = (gv / big for gv in out.values())
                norm = big * np.sqrt(sum(float(np.vdot(s, s)) for s in scaled))
        if norm > max_norm:
            scale = max_norm / norm
            if isinstance(grads, Gradients):
                flat = np.empty_like(grads.flat)
                if _splits(flat.size):
                    mid = flat.size // 2
                    in_two_threads(np.multiply, (grads.flat[:mid], scale, flat[:mid]),
                                   (grads.flat[mid:], scale, flat[mid:]))
                else:
                    np.multiply(grads.flat, scale, out=flat)
                return Gradients(grads.store, flat, grads.store.views(flat))
            return {name: gv * scale for name, gv in out.items()}
    return Gradients(grads.store, grads.flat, out) if isinstance(grads, Gradients) else out


def _check_lr(lr):
    if not (math.isfinite(lr) and lr > 0):
        raise ContractError(f"lr must be positive and finite, got {lr}")


def sgd_step(params, grads, lr):
    """theta <- theta - lr * g for every parameter covered by grads."""
    _check_lr(lr)
    g, ranges = _flat_grads(params, grads)
    theta = params.vector
    new = _new_vector(params, ranges)
    for lo, hi in ranges:
        out = new[lo:hi]
        np.subtract(theta[lo:hi], np.multiply(g[lo:hi], lr, out=out), out=out)
        if not np.isfinite(out).all():
            raise _non_finite(params, out, lo)
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


def _adam_range(params, flats, begin, end, b1t, b2t, lr, buf):
    """Update values begin:end of params' vector, one ADAM_BLOCK block at a time.

    flats are the gradient, moments, old values and new values, laid out as
    params; buf a scratch buffer, at least one block wide, that no other
    thread uses. The step is built in the new values' block. Stops at the
    first block with a non-finite value.
    """
    g_flat, m_flat, v_flat, theta_flat, new_flat = flats
    for lo in range(begin, end, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, end)
        g, m, v = g_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
        step, denom = new_flat[lo:hi], buf[: hi - lo]
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
    every block's dozen passes stay in cache. Within a block the moments
    are updated in place and the step is built in the new vector's block
    and one scratch buffer, with the arithmetic and its order of the
    textbook formula. The new vector is the store's spare (the one the
    last step retired, when nothing else holds it), so no step writes a
    values array that anything still holds. The new values are
    finite-checked block by block and installed only when complete, so a
    non-finite value installs nothing and names its parameter. Such a
    failure leaves the state spent: its next step raises ContractError.

    A range of at least ADAM_SPLIT_BLOCKS blocks is split into two
    contiguous block ranges: a new thread updates the first while the
    caller updates the second. numpy releases the GIL inside each ufunc, so
    on two CPUs the halves overlap. Both halves finish before the vector is
    installed or an error raised, and every value is computed the same way
    whichever thread computes it.
    """
    _check_lr(lr)
    if state.spent:
        raise ContractError("optimizer state is spent: an earlier adam_step with it failed")
    g, ranges = _flat_grads(params, grads)
    for moment in (state.m, state.v):
        if not (type(moment) is np.ndarray and moment.dtype == np.float64
                and moment.shape == (params.size,) and moment.flags.c_contiguous):
            raise ContractError(f"optimizer state is not a C-contiguous float64 vector "
                                f"of the store's {params.size} values")
    state.spent = True  # until the new values are installed
    state.t += 1
    coeffs = (1.0 - ADAM_BETA1 ** state.t, 1.0 - ADAM_BETA2 ** state.t, lr)
    theta = params.vector
    new = _new_vector(params, ranges)
    flats = (g, state.m, state.v, theta, new)
    buf = np.empty(min(ADAM_BLOCK, max((hi - lo for lo, hi in ranges), default=0)))
    for lo, hi in ranges:
        if _splits(hi - lo):
            blocks = -(-(hi - lo) // ADAM_BLOCK)
            mid = lo + blocks // 2 * ADAM_BLOCK
            in_two_threads(_adam_range, (params, flats, lo, mid, *coeffs, np.empty_like(buf)),
                           (params, flats, mid, hi, *coeffs, buf))
        else:
            _adam_range(params, flats, lo, hi, *coeffs, buf)
    params.install(new)
    state.spent = False
    return params, state
