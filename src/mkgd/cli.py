"""Operator entry point.

Subcommands: synth, meta-train, train-baseline, adapt-eval, chat.
Exit codes: 0 success, 2 usage/data error, 3 numeric failure.

The configuration flags are generated from the RunConfig fields: name, type,
help text and the defaults the help states all come from the field and
PRESETS. meta-train and train-baseline leave the checks of a training split
to the trainers they call. Each input has one way in: adapt-eval's support
size is --k-support, and chat reads its turns from stdin as UTF-8 text.
main runs numpy's bundled OpenBLAS on one thread, so a command's output does
not depend on the CPU count.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import data as D
from .config import FIELD_TYPES, PRESETS, RunConfig, make_run_config
from .dialogue import START_MARKER
from .errors import ContractError, DataError, DimensionError, NumericError, VocabError
from .meta import TaskSampler, adapt, meta_train, supervised_train
from .metrics import Evaluator
from .model import DialogueModel, infer_dims
from .params import load_checkpoint, save_checkpoint, split_checkpoint

# Errors that mean bad input or usage: main reports them on one line and exits 2.
INPUT_ERRORS = (DataError, ContractError, VocabError, DimensionError, OSError)


# The one configuration flag not named after its RunConfig field.
_RENAMED_FLAGS = {"early_stop_patience": "--patience"}


def _add_config_flags(parser):
    """--preset, --config, and one flag per RunConfig field, built from the field."""
    g = parser.add_argument_group("configuration")
    g.add_argument("--preset", choices=sorted(PRESETS), default="desk",
                   help="named scale preset; 'paper' is the full-corpus scale")
    g.add_argument("--config", default=None, metavar="FILE",
                   help="key=value config file (overrides the preset)")
    desk = PRESETS["desk"]
    for f in fields(RunConfig):
        said = f"config default {f.default}"
        if f.name in desk:
            said += f", desk preset {desk[f.name]}"
        g.add_argument(_RENAMED_FLAGS.get(f.name, "--" + f.name.replace("_", "-")),
                       dest=f.name, type=FIELD_TYPES[f.name], default=None,
                       help=f"{f.metadata['help']} ({said})")


def _config_from_args(args):
    overrides = {name: getattr(args, name, None) for name in RunConfig.__dataclass_fields__}
    return make_run_config(preset=args.preset, config_path=args.config,
                           overrides=overrides)


def _load_model(checkpoint_path, vocab_path, loss_weights):
    arrays = load_checkpoint(checkpoint_path)
    params, _ = split_checkpoint(arrays)
    vocab = D.Vocab.load(vocab_path)
    V, E, H = infer_dims(params)
    if V != len(vocab):
        raise DataError(
            f"checkpoint vocab size {V} does not match vocabulary file ({len(vocab)})"
        )
    # Every value comes from the checkpoint, so nothing is drawn.
    model = DialogueModel(vocab, E, H, seed=None, loss_weights=loss_weights)
    model.load_values(params)
    return model


def _split_tasks(raw_tasks, which, seed):
    train, valid, test = D.split_pool(raw_tasks, seed=seed)
    return {"train": train, "valid": valid, "test": test, "all": raw_tasks}[which]


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    spec = D.SyntheticTaskSpec(
        n_entities=args.entities, n_relations=args.relations,
        n_triplets=args.triplets, n_samples=args.samples_per_task,
        seed=args.seed,
    )
    raw = D.synth_raw_tasks(spec, args.tasks)
    D.save_task_pool(args.out, raw)
    manifest = {
        "seed": spec.seed,
        "tasks": len(raw),
        "samples": sum(len(t.samples) for t in raw),
        "triplets": sum(len(t.knowledge) for t in raw),
        "entities": spec.n_entities,
        "relations": spec.n_relations,
    }
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {len(raw)} tasks to {args.out}")
    return 0


def _check_output_paths(args, inputs, outputs):
    """Reject, before any work is done, an output path that cannot be written,
    two outputs that name one file and an output that names an input file.
    inputs and outputs are dests of args; an input left unset is skipped."""
    seen = {os.path.realpath(getattr(args, dest)): "--" + dest.replace("_", "-")
            for dest in inputs if getattr(args, dest)}
    for dest in outputs:
        path = getattr(args, dest)
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise DataError(f"output path {path} is a directory")
        if not os.path.isdir(parent):
            raise DataError(f"output path {path}: directory {parent} does not exist")
        if not os.access(parent, os.W_OK):
            raise DataError(f"output path {path}: directory {parent} is not writable")
        flag = "--" + dest.replace("_", "-")
        other = seen.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise DataError(f"{other} and {flag} name the same file {path}")


def _train_command(args, train):
    """The body meta-train and train-baseline share.

    The output paths are checked first. Both trainers validate each round on
    the query sets of the validation split when every validation task splits
    into k_support + k_query samples, and train without validation otherwise.
    train(model, train_raw, val_tasks, cfg) returns (TrainResult, stdout line
    on success), and the trainer it calls rejects a training split it cannot
    use. No file is written before it returns, so an input error leaves no
    output behind.
    """
    _check_output_paths(args, ("pool", "config"), ("vocab_out", "checkpoint_out", "log_out"))
    cfg = _config_from_args(args)
    raw = D.load_task_pool(args.pool)
    train_raw, valid_raw, _ = D.split_pool(raw, seed=cfg.seed)
    vocab = D.build_vocab(D.raw_task_token_stream(raw), cfg.max_vocab)
    model = DialogueModel(vocab, cfg.embed_dim, cfg.hidden_dim,
                          seed=cfg.seed, loss_weights=cfg.loss_weights())
    need, val_tasks = cfg.k_support + cfg.k_query, None
    if valid_raw and all(len(raw_task.samples) >= need for raw_task in valid_raw):
        val_tasks = D.tasks_from_raw(valid_raw, vocab, cfg.k_support, cfg.k_query, seed=cfg.seed)
    result, done = train(model, train_raw, val_tasks, cfg)
    vocab.save(args.vocab_out)
    save_checkpoint(args.checkpoint_out, model.store)
    result.log.write(args.log_out)
    if result.diverged:
        print("training diverged; best checkpoint retained", file=sys.stderr)
        return 3
    print(done)
    return 0


def cmd_meta_train(args):
    def train(model, train_raw, val_tasks, cfg):
        train_tasks = D.tasks_from_raw(train_raw, model.vocab, cfg.k_support, cfg.k_query,
                                       seed=cfg.seed)
        _, result = meta_train(model, TaskSampler(train_tasks, seed=cfg.seed), cfg, val_tasks)
        return result, f"trained {result.episodes} episodes; checkpoint at {args.checkpoint_out}"

    return _train_command(args, train)


def cmd_train_baseline(args):
    def train(model, train_raw, val_tasks, cfg):
        samples = [s for raw_task in train_raw
                   for s in D.raw_task_to_samples(raw_task, model.vocab)]
        _, result = supervised_train(model, samples, cfg, val_tasks)
        return result, f"baseline checkpoint at {args.checkpoint_out}"

    return _train_command(args, train)


def cmd_adapt_eval(args):
    if args.report_out:
        _check_output_paths(args, ("pool", "checkpoint", "vocab", "config"), ("report_out",))
    cfg = _config_from_args(args)
    model = _load_model(args.checkpoint, args.vocab, cfg.loss_weights())
    raw = _split_tasks(D.load_task_pool(args.pool), args.split, cfg.seed)
    if not raw:
        raise DataError(f"split {args.split!r} holds no tasks")
    tasks = D.tasks_from_raw(raw, model.vocab, cfg.k_support, cfg.k_query, seed=cfg.seed)

    pre = Evaluator(max_len=cfg.max_len)
    post = Evaluator(max_len=cfg.max_len)
    for task in tasks:
        pre.add(model, task.query)
        adapted, _, _ = adapt(model, task, cfg)
        post.add(adapted, task.query)
    pre_report, post_report = pre.report(), post.report()
    payload = json.dumps({"pre": asdict(pre_report), "post": asdict(post_report)}, indent=2)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload)
    return 0


def cmd_chat(args):
    cfg = _config_from_args(args)
    model = _load_model(args.checkpoint, args.vocab, cfg.loss_weights())
    graph = D.load_graph(args.graph)

    history = model.vocab.encode([START_MARKER])
    for line in _stdin_lines():
        if not line.strip():
            print("you> ", flush=True)
            continue
        history = history + model.vocab.encode(D.tokenize(line))
        response_ids, selected = model.generate(history, graph, cfg.max_len)
        text = " ".join(model.vocab.decode(response_ids))
        triplet = graph.triplets[selected]
        print(f"bot: {text}")
        print(f"triplet: {triplet.head} {triplet.relation} {triplet.tail}")
        history = history + response_ids
    return 0


def _stdin_lines():
    """stdin's lines, read as UTF-8; bytes that are not UTF-8 raise DataError."""
    sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    with D.utf8_errors("stdin"):
        yield from sys.stdin


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mkgd",
        description="Meta-learned knowledge-grounded dialogue generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic task pool",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--tasks", type=int, default=50, help="number of tasks to generate")
    p.add_argument("--seed", type=int, default=7, help="generator seed")
    p.add_argument("--out", required=True, help="output pool path (JSON lines)")
    spec = D.SyntheticTaskSpec
    p.add_argument("--entities", type=int, default=spec.n_entities, help="entity pool size")
    p.add_argument("--relations", type=int, default=spec.n_relations, help="relation pool size")
    p.add_argument("--triplets", type=int, default=spec.n_triplets, help="triplets per graph")
    p.add_argument("--samples-per-task", type=int, default=spec.n_samples,
                   dest="samples_per_task", help="dialogue samples per task")
    p.set_defaults(func=cmd_synth)

    for name, func, text in (
        ("meta-train", cmd_meta_train, "run the episodic meta-training loop"),
        ("train-baseline", cmd_train_baseline, "train the non-meta supervised baseline"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--pool", required=True, help="task pool path")
        p.add_argument("--checkpoint-out", required=True, dest="checkpoint_out",
                       help="where to write the kept checkpoint")
        p.add_argument("--vocab-out", required=True, dest="vocab_out",
                       help="where to write the vocabulary file")
        p.add_argument("--log-out", required=True, dest="log_out",
                       help="where to write the training log (CSV)")
        _add_config_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("adapt-eval", help="adapt to held-out tasks and report metrics",
                       description="Adapt to each task on --k-support samples and report "
                       "metrics on --k-query others, before and after adaptation.")
    p.add_argument("--pool", required=True, help="task pool path")
    p.add_argument("--checkpoint", required=True, help="checkpoint to evaluate")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--report-out", default=None, dest="report_out",
                   help="where to write the pre/post report JSON")
    p.add_argument("--split", choices=["train", "valid", "test", "all"],
                   default="test", help="pool split to evaluate (default test)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_adapt_eval)

    p = sub.add_parser("chat", help="interactive generation over one knowledge graph",
                       description="Reply to each line of stdin, read as UTF-8 text.")
    p.add_argument("--checkpoint", required=True, help="checkpoint to load")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--graph", required=True,
                   help="JSON file with 'goal' and 'knowledge' fields")
    _add_config_flags(p)
    p.set_defaults(func=cmd_chat)

    return parser


def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled scipy-openblas; None for any other BLAS.

    The library is the one numpy's wheels keep in numpy.libs, found by name
    without its build hash.
    """
    site = Path(np.__file__).resolve().parent.parent
    for path in sorted(site.glob("numpy.libs/libscipy_openblas64_*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy loaded: one file is loaded once
        try:
            get, set_ = (lib.scipy_openblas_get_num_threads64_,
                         lib.scipy_openblas_set_num_threads64_)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def blas_on_one_thread():
    """Run BLAS on one thread inside the scope, so no product's sums depend on the CPU count.

    OpenBLAS sizes its thread pool from the CPUs it sees when numpy loads
    it, which is before any environment variable set here would count. Only
    numpy's bundled scipy-openblas is pinned; any other BLAS is left as it is.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A non-finite result raises NumericError, trapped inside each model call
        # and found by a scan elsewhere; numpy's warnings would only repeat it.
        with blas_on_one_thread(), np.errstate(over="ignore", invalid="ignore",
                                               divide="ignore"):
            return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
