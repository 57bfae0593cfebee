"""Parameter update rules: plain gradient descent and Adam, plus norm clipping."""

from __future__ import annotations

import contextvars
import math
import threading

import numpy as np

from .errors import ContractError, NumericError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# float64 values per Adam block: 128 KiB per array, so a block's arrays stay in cache
ADAM_BLOCK = 2 ** 14


def _grad_values(params, grads):
    pairs = []
    for name, g in grads.items():
        if name not in params:
            raise ContractError(f"gradient for unknown parameter {name!r}")
        gv = g.values if hasattr(g, "values") else np.asarray(g, dtype=np.float64)
        pv = params[name].values
        if gv.shape != pv.shape:
            raise ContractError(
                f"gradient shape {gv.shape} does not match parameter "
                f"{name!r} of shape {pv.shape}"
            )
        pairs.append((name, gv))
    return pairs


def clip_global_norm(grads, max_norm):
    """Scale the whole gradient map so its global L2 norm is <= max_norm.

    max_norm <= 0 disables clipping. Returns a plain name -> array map. If
    the sum of squares overflows, the norm is taken again on gradients
    divided by the largest |g|; a NaN gradient passes through unscaled, for
    the optimizer's finite check to reject.
    """
    out = {}
    total = 0.0
    for name, g in grads.items():
        gv = g.values if hasattr(g, "values") else np.asarray(g, dtype=np.float64)
        out[name] = gv
        total += float(np.vdot(gv, gv))
    if max_norm is None or max_norm <= 0:
        return out
    norm = np.sqrt(total)
    if math.isinf(total):
        big = max((float(np.max(np.abs(gv))) for gv in out.values() if gv.size), default=0.0)
        if math.isfinite(big):
            scaled = (gv / big for gv in out.values())
            norm = big * np.sqrt(sum(float(np.vdot(s, s)) for s in scaled))
    if norm > max_norm:
        scale = max_norm / norm
        out = {name: gv * scale for name, gv in out.items()}
    return out


def _check_lr(lr):
    if not (math.isfinite(lr) and lr > 0):
        raise ContractError(f"lr must be positive and finite, got {lr}")


def sgd_step(params, grads, lr):
    """theta <- theta - lr * g for every parameter covered by grads."""
    _check_lr(lr)
    for name, gv in _grad_values(params, grads):
        params.set_values(name, params[name].values - lr * gv)
    return params


class AdamState:
    """First/second moment accumulators plus the shared step counter.

    The moments are C-contiguous whatever the parameters' layout, so their
    flat views alias them.
    """

    def __init__(self, params):
        self.t = 0
        self.m = {name: np.zeros(t.shape) for name, t in params.items()}
        self.v = {name: np.zeros(t.shape) for name, t in params.items()}


def _start(fn, *args):
    """Run fn(*args) on a new thread in the caller's contextvars context.

    numpy's error state is a context variable, so the thread sees the
    caller's. Returns a join that waits for the thread and raises what fn
    raised.
    """
    raised = []

    def run():
        try:
            fn(*args)
        except BaseException as exc:
            raised.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(run,),
                              name="mkgd-adam")
    thread.start()

    def join():
        thread.join()
        if raised:
            raise raised[0]

    return join


def _adam_range(name, flats, begin, end, b1t, b2t, lr, bufs):
    """Update flat values begin:end of one parameter, one ADAM_BLOCK block at a time.

    flats are the flat gradient, moments, old values and new values; bufs
    the two scratch buffers, at least one block wide, that no other thread
    uses.
    """
    g_flat, m_flat, v_flat, theta_flat, new_flat = flats
    step_buf, denom_buf = bufs
    for lo in range(begin, end, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, end)
        g, m, v = g_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
        step, denom = step_buf[: hi - lo], denom_buf[: hi - lo]
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, g, out=step), 1.0 - ADAM_BETA2, out=step)
        # theta - lr * m_hat / (sqrt(v_hat) + eps)
        np.multiply(np.divide(m, b1t, out=step), lr, out=step)
        np.sqrt(np.divide(v, b2t, out=denom), out=denom)
        step /= np.add(denom, ADAM_EPS, out=denom)
        if not np.isfinite(np.subtract(theta_flat[lo:hi], step, out=new_flat[lo:hi])).all():
            raise NumericError(f"non-finite update for parameter {name!r}")


def adam_step(params, grads, state, lr):
    """One bias-corrected Adam update; increments the step counter once.

    Each parameter is updated over ADAM_BLOCK-value blocks of its flattened
    arrays, so every block's dozen passes stay in cache. Within a block the
    moments are updated in place and the step is built in two scratch
    buffers, with the arithmetic and its order of the textbook formula; the
    new values go into a fresh array, finite-checked block by block and
    installed only when complete. Neither the gradients nor the parameters'
    previous value arrays are written.

    A parameter of more than one block is split into two contiguous block
    ranges: a new thread updates the first while the caller updates the
    second. numpy releases the GIL inside each ufunc, so on two CPUs the
    halves overlap. Both halves finish before the parameter is installed,
    the next one started, or an error raised, and every value is computed
    the same way whichever thread computes it.
    """
    _check_lr(lr)
    work = []
    for name, gv in _grad_values(params, grads):
        if name not in state.m:
            raise ContractError(f"optimizer state missing parameter {name!r}")
        m_par, v_par = state.m[name], state.v[name]
        if not (m_par.flags.c_contiguous and v_par.flags.c_contiguous
                and m_par.shape == v_par.shape == gv.shape):
            raise ContractError(f"optimizer state for {name!r} is not C-contiguous "
                                f"of shape {gv.shape}")
        work.append((name, gv, m_par, v_par))
    state.t += 1
    coeffs = (1.0 - ADAM_BETA1 ** state.t, 1.0 - ADAM_BETA2 ** state.t, lr)
    width = min(ADAM_BLOCK, max((gv.size for _, gv, _, _ in work), default=0))
    bufs, helper_bufs = (np.empty(width), np.empty(width)), None
    for name, gv, m_par, v_par in work:
        theta = params[name].values
        new = np.empty(theta.shape)
        flats = (gv.reshape(-1), m_par.reshape(-1), v_par.reshape(-1),
                 theta.reshape(-1), new.reshape(-1))
        # The first half of the blocks, rounded down: 0 below two blocks.
        mid = -(-new.size // ADAM_BLOCK) // 2 * ADAM_BLOCK
        if mid:
            helper_bufs = helper_bufs or (np.empty(width), np.empty(width))
            join = _start(_adam_range, name, flats, 0, mid, *coeffs, helper_bufs)
            try:
                _adam_range(name, flats, mid, new.size, *coeffs, bufs)
            finally:
                join()
        else:
            _adam_range(name, flats, 0, new.size, *coeffs, bufs)
        params[name].values = new
    return params, state
