"""Spans around the program's public functions, installed from outside.

Each traced function is replaced, in every ``mkgd`` namespace that binds it,
by a wrapper that records a span (name, start, end, parent span). Self time
is a span's duration minus the time its child spans cover. Spans stay in
memory and are written out when the run ends.

Tensor primitives are not wrapped: an episode runs about 180k of them, so
wrapping would measure the tracer. They are counted from the tape passed to
``tensor.backward`` instead, together with the bytes that today's
vector-Jacobian products allocate, derived from the shapes each node saved:
a dense (V, E) table per gather, and an outer product per matrix-vector or
vector-matrix matmul. A change to those rules needs this count changed too.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

from mkgd import data, layers, meta, metrics, model, optim, params, tensor

# (span name, owner, attribute). Classes are patched in place; functions are
# replaced wherever a module binds the same object, since callers look them
# up in their own namespace (mkgd.meta.backward, mkgd.model.attend, ...).
SPANS = (
    ("tensor.backward", tensor, "backward"),
    ("layers.gru_encode", layers, "gru_encode"),
    ("layers.GruCell.step", layers.GruCell, "step"),
    ("layers.attend", layers, "attend"),
    ("layers.mlp_forward", layers, "mlp_forward"),
    ("model.batch_objective", model.DialogueModel, "batch_objective"),
    ("model.forward", model.DialogueModel, "forward"),
    ("model.encode_history", model.DialogueModel, "encode_history"),
    ("model.encode_response", model.DialogueModel, "encode_response"),
    ("model.encode_knowledge", model.DialogueModel, "encode_knowledge"),
    ("model.decode_with_knowledge", model.DialogueModel, "decode_with_knowledge"),
    ("model.prior_distribution", model, "prior_distribution"),
    ("model.posterior_distribution", model, "posterior_distribution"),
    ("model.kl_div_loss", model, "kl_div_loss"),
    ("model.nll_loss", model, "nll_loss"),
    ("model.bow_loss", model, "bow_loss"),
    ("model.generate", model.DialogueModel, "generate"),
    ("model.score", model.DialogueModel, "score"),
    ("model.clone", model.DialogueModel, "clone"),
    ("meta.inner_update", meta, "inner_update"),
    ("meta.meta_batch_step", meta, "meta_batch_step"),
    ("meta.validation_loss", meta, "validation_loss"),
    ("meta.adapt", meta, "adapt"),
    ("optim.clip_global_norm", optim, "clip_global_norm"),
    ("optim.adam_step", optim, "adam_step"),
    ("params.snapshot", params.ParamStore, "snapshot"),
    ("params.restore", params.ParamStore, "restore"),
    ("params.load_checkpoint", params, "load_checkpoint"),
    ("metrics.Evaluator.add", metrics.Evaluator, "add"),
    ("metrics.Evaluator.report", metrics.Evaluator, "report"),
    ("data.load_task_pool", data, "load_task_pool"),
    ("data.build_vocab", data, "build_vocab"),
    ("data.tasks_from_raw", data, "tasks_from_raw"),
)
SPAN_NAMES = tuple(name for name, _, _ in SPANS)

TAPE_KINDS = ("matmul", "gather", "add", "sub", "mul", "concat", "stack", "slice",
              "softmax", "sigmoid", "tanh", "log", "sum", "reshape")
TAPE_NODES = "tensor.tape_nodes"
DENSE_GRAD = "tensor.gather.dense_grad_mb"
OUTER_GRAD = "tensor.matvec.outer_grad_mb"
TAPE_COUNTERS = (TAPE_NODES,) + tuple(f"{TAPE_NODES}.{k}" for k in TAPE_KINDS) + (
    DENSE_GRAD, OUTER_GRAD)


def _mkgd_modules():
    return [m for n, m in sys.modules.items() if n == "mkgd" or n.startswith("mkgd.")]


class Tracer:
    """Records spans and tape counts while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1]
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # [span index, seconds covered by child spans]
        self._patches = []

    def _wrap(self, name, fn, before=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                # Counting is tracer work: keep it out of the caller's self time.
                t = perf_counter()
                before(*args, **kwargs)
                if stack:
                    stack[-1][1] += perf_counter() - t
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1][0] if stack else -1])
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
                self.self_s[name] += end - start - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += end - start

        return traced

    def _count_tape(self, tape, loss):
        counts = self.counts
        for kind, _, saved in tape.nodes:
            if kind == "leaf":
                continue
            counts[TAPE_NODES] += 1
            counts[f"{TAPE_NODES}.{kind}"] += 1
            if kind == "gather":
                rows, cols = saved[0]
                counts[DENSE_GRAD] += 8 * rows * cols
            elif kind == "matmul":
                a, b = saved
                if a.ndim == 2 and b.ndim == 1:
                    counts[OUTER_GRAD] += 8 * a.size
                elif a.ndim == 1 and b.ndim == 2:
                    counts[OUTER_GRAD] += 8 * b.size

    def install(self):
        for name, owner, attr in SPANS:
            before = self._count_tape if name == "tensor.backward" else None
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original, before))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, before)
            for module in _mkgd_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Copies of the running totals, to split set-up from operations."""
        return Counter(self.self_s), Counter(self.calls), Counter(self.counts)

    def layer_metrics(self, at_setup_end, n_ops):
        """Per-operation self seconds, calls and tape counts.

        Work done during the one traced set-up is counted once, as if it
        were one more operation's worth: data loading shows per set-up, the
        rest per operation.
        """
        setup_s, setup_calls, _ = at_setup_end
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = setup_s[name] + (self.self_s[name] - setup_s[name]) / n_ops
            out[f"{name}.calls"] = (setup_calls[name]
                                    + (self.calls[name] - setup_calls[name]) / n_ops)
        for name in TAPE_COUNTERS:
            scale = 1e6 if name in (DENSE_GRAD, OUTER_GRAD) else 1
            out[name] = self.counts[name] / scale / n_ops
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
