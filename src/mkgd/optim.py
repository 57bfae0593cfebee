"""Parameter update rules: plain gradient descent and Adam, plus norm clipping."""

from __future__ import annotations

import numpy as np

from .errors import ContractError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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

    max_norm <= 0 disables clipping. Returns a plain name -> array map.
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
    if norm > max_norm:
        scale = max_norm / norm
        out = {name: gv * scale for name, gv in out.items()}
    return out


def sgd_step(params, grads, lr):
    """theta <- theta - lr * g for every parameter covered by grads."""
    if lr <= 0:
        raise ContractError(f"lr must be positive, got {lr}")
    for name, gv in _grad_values(params, grads):
        params.set_values(name, params[name].values - lr * gv)
    return params


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self, params):
        self.t = 0
        self.m = {name: np.zeros_like(t.values) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.values) for name, t in params.items()}


def adam_step(params, grads, state, lr):
    """One bias-corrected Adam update; increments the step counter once.

    The moments are updated in place and the step is built in two work
    arrays, the second of which becomes the parameter's new values; the
    arithmetic and its order are those of the textbook formula. Neither
    the gradients nor the parameters' previous value arrays are written.
    """
    if lr <= 0:
        raise ContractError(f"lr must be positive, got {lr}")
    pairs = _grad_values(params, grads)
    state.t += 1
    b1t = 1.0 - ADAM_BETA1 ** state.t
    b2t = 1.0 - ADAM_BETA2 ** state.t
    for name, gv in pairs:
        if name not in state.m:
            raise ContractError(f"optimizer state missing parameter {name!r}")
        m, v = state.m[name], state.v[name]
        step, denom = np.empty_like(m), np.empty_like(v)
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        m *= ADAM_BETA1
        m += np.multiply(gv, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(gv, gv, out=step), 1.0 - ADAM_BETA2, out=step)
        # theta - lr * m_hat / (sqrt(v_hat) + eps)
        np.multiply(np.divide(m, b1t, out=step), lr, out=step)
        np.sqrt(np.divide(v, b2t, out=denom), out=denom)
        step /= np.add(denom, ADAM_EPS, out=denom)
        params.set_values(name, np.subtract(params[name].values, step, out=denom))
    return params, state
