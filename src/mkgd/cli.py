"""Operator entry point.

Subcommands: synth, meta-train, train-baseline, adapt-eval, chat.
Exit codes: 0 success, 2 usage/data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import data as D
from .config import RunConfig, make_run_config
from .dialogue import START_MARKER
from .errors import ContractError, DataError, DimensionError, NumericError, VocabError
from .meta import TaskSampler, TrainingLog, adapt, meta_train, supervised_train
from .metrics import Evaluator
from .model import DialogueModel, infer_dims
from .params import load_checkpoint, save_checkpoint, split_checkpoint


def _add_config_flags(parser):
    g = parser.add_argument_group("configuration")
    g.add_argument("--preset", choices=["desk", "paper"], default="desk",
                   help="named scale preset; 'paper' is the full-corpus scale")
    g.add_argument("--config", default=None, metavar="FILE",
                   help="key=value config file (overrides the preset)")
    g.add_argument("--seed", type=int, default=None,
                   help="run seed (config default 7; MKGD_SEED also accepted)")
    g.add_argument("--embed-dim", type=int, default=None, dest="embed_dim",
                   help="embedding size (config default 300, desk preset 32)")
    g.add_argument("--hidden-dim", type=int, default=None, dest="hidden_dim",
                   help="hidden size (config default 300, desk preset 32)")
    g.add_argument("--max-vocab", type=int, default=None, dest="max_vocab",
                   help="vocabulary cap (config default 30000, desk preset 200)")
    g.add_argument("--max-len", type=int, default=None, dest="max_len",
                   help="maximum generated length (config default 20)")
    g.add_argument("--alpha", type=float, default=None,
                   help="inner learning rate (config default 0.0001, desk preset 0.005)")
    g.add_argument("--beta", type=float, default=None,
                   help="meta learning rate (config default 0.0001, desk preset 0.005)")
    g.add_argument("--num-tasks", type=int, default=None, dest="num_tasks",
                   help="tasks per episode (config default 5)")
    g.add_argument("--k-support", type=int, default=None, dest="k_support",
                   help="support samples per task (config default 8)")
    g.add_argument("--k-query", type=int, default=None, dest="k_query",
                   help="query samples per task (config default 14)")
    g.add_argument("--inner-steps", type=int, default=None, dest="inner_steps",
                   help="inner update steps (config default 4)")
    g.add_argument("--test-update-steps", type=int, default=None, dest="test_update_steps",
                   help="adaptation steps at test time (config default 10)")
    g.add_argument("--inner-optimizer", choices=["sgd", "adam"], default=None,
                   dest="inner_optimizer", help="inner-loop optimizer (config default adam)")
    g.add_argument("--meta-optimizer", choices=["sgd", "adam"], default=None,
                   dest="meta_optimizer", help="outer-loop optimizer (config default adam)")
    g.add_argument("--max-episodes", type=int, default=None, dest="max_episodes",
                   help="training episode cap (config default 100, desk preset 40)")
    g.add_argument("--patience", type=int, default=None, dest="early_stop_patience",
                   help="early-stop patience in episodes (config default 10, desk preset 8)")
    g.add_argument("--clip-norm", type=float, default=None, dest="clip_norm",
                   help="global gradient-norm clip, <= 0 disables (config default 5.0)")
    g.add_argument("--w-kl", type=float, default=None, dest="w_kl",
                   help="selection-KL loss weight (config default 1.0)")
    g.add_argument("--w-nll", type=float, default=None, dest="w_nll",
                   help="token-NLL loss weight (config default 1.0)")
    g.add_argument("--w-bow", type=float, default=None, dest="w_bow",
                   help="bag-of-words loss weight (config default 1.0)")


def _config_from_args(args):
    overrides = {name: getattr(args, name, None) for name in RunConfig.__dataclass_fields__}
    return make_run_config(preset=args.preset, config_path=args.config,
                           overrides=overrides)


def _load_model(checkpoint_path, vocab_path, loss_weights=(1.0, 1.0, 1.0)):
    arrays = load_checkpoint(checkpoint_path)
    params, _ = split_checkpoint(arrays)
    vocab = D.Vocab.load(vocab_path)
    V, E, H = infer_dims(params)
    if V != len(vocab):
        raise DataError(
            f"checkpoint vocab size {V} does not match vocabulary file ({len(vocab)})"
        )
    model = DialogueModel(vocab, E, H, seed=0, loss_weights=loss_weights)
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
        seed=args.seed if args.seed is not None else 7,
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


def cmd_meta_train(args):
    cfg = _config_from_args(args)
    raw = D.load_task_pool(args.pool)
    train_raw, valid_raw, _ = D.split_pool(raw, seed=cfg.seed)
    if len(train_raw) < cfg.num_tasks:
        raise DataError(
            f"training split has {len(train_raw)} tasks, need >= {cfg.num_tasks}"
        )
    vocab = D.build_vocab(D.raw_task_token_stream(raw), cfg.max_vocab)
    vocab.save(args.vocab_out)

    model = DialogueModel(vocab, cfg.embed_dim, cfg.hidden_dim,
                          seed=cfg.seed, loss_weights=cfg.loss_weights())
    mcfg = cfg.meta_config()
    train_tasks = D.tasks_from_raw(train_raw, vocab, mcfg.k_support, mcfg.k_query,
                                   seed=cfg.seed)
    val_tasks = D.tasks_from_raw(valid_raw, vocab, mcfg.k_support, mcfg.k_query,
                                 seed=cfg.seed) if valid_raw else None
    sampler = TaskSampler(train_tasks, seed=cfg.seed)

    model, result = meta_train(model, sampler, mcfg, val_tasks)
    save_checkpoint(args.checkpoint_out, model.store)
    result.log.write(args.log_out)
    if result.diverged:
        print("training diverged; best checkpoint retained", file=sys.stderr)
        return 3
    print(f"trained {result.episodes} episodes; checkpoint at {args.checkpoint_out}")
    return 0


def cmd_train_baseline(args):
    cfg = _config_from_args(args)
    raw = D.load_task_pool(args.pool)
    train_raw, _, _ = D.split_pool(raw, seed=cfg.seed)
    if not train_raw:
        raise DataError("training split is empty")
    vocab = D.build_vocab(D.raw_task_token_stream(raw), cfg.max_vocab)
    vocab.save(args.vocab_out)

    model = DialogueModel(vocab, cfg.embed_dim, cfg.hidden_dim,
                          seed=cfg.seed, loss_weights=cfg.loss_weights())
    samples = []
    for raw_task in train_raw:
        samples.extend(D.raw_task_to_samples(raw_task, vocab))
    log = TrainingLog()
    batch = cfg.num_tasks * (cfg.k_support + cfg.k_query)
    supervised_train(model, samples, cfg.meta_config(), batch_size=batch,
                     seed=cfg.seed, log=log)
    save_checkpoint(args.checkpoint_out, model.store)
    log.write(args.log_out)
    print(f"baseline checkpoint at {args.checkpoint_out}")
    return 0


def cmd_adapt_eval(args):
    cfg = _config_from_args(args)
    model = _load_model(args.checkpoint, args.vocab, cfg.loss_weights())
    raw = _split_tasks(D.load_task_pool(args.pool), args.split, cfg.seed)
    if not raw:
        raise DataError(f"split {args.split!r} holds no tasks")
    mcfg = cfg.meta_config()
    support_size = args.support_size or mcfg.k_support
    tasks = D.tasks_from_raw(raw, model.vocab, support_size, mcfg.k_query,
                             seed=cfg.seed)

    pre = Evaluator(max_len=cfg.max_len)
    post = Evaluator(max_len=cfg.max_len)
    for task in tasks:
        pre.add(model, task.query)
        adapted, _, _ = adapt(model, task, mcfg)
        post.add(adapted, task.query)
    pre_report, post_report = pre.report(), post.report()
    payload = json.dumps({"pre": json.loads(pre_report.to_json()),
                          "post": json.loads(post_report.to_json())}, indent=2)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload)
    return 0


def cmd_chat(args):
    cfg = _config_from_args(args)
    model = _load_model(args.checkpoint, args.vocab, cfg.loss_weights())
    graph = D.load_graph(args.graph)

    if args.script:
        with D.open_text(args.script) as fh:
            lines = fh.read().splitlines()
    else:
        lines = (line.rstrip("\n") for line in sys.stdin)

    history = model.vocab.encode([START_MARKER])
    for line in lines:
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
    p.add_argument("--entities", type=int, default=20, help="entity pool size")
    p.add_argument("--relations", type=int, default=6, help="relation pool size")
    p.add_argument("--triplets", type=int, default=4, help="triplets per graph")
    p.add_argument("--samples-per-task", type=int, default=24,
                   dest="samples_per_task", help="dialogue samples per task")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("meta-train", help="run the episodic meta-training loop")
    p.add_argument("--pool", required=True, help="task pool path")
    p.add_argument("--checkpoint-out", required=True, dest="checkpoint_out",
                   help="where to write the best checkpoint")
    p.add_argument("--vocab-out", required=True, dest="vocab_out",
                   help="where to write the vocabulary file")
    p.add_argument("--log-out", required=True, dest="log_out",
                   help="where to write the training log (CSV)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_meta_train)

    p = sub.add_parser("train-baseline", help="train the non-meta supervised baseline")
    p.add_argument("--pool", required=True, help="task pool path")
    p.add_argument("--checkpoint-out", required=True, dest="checkpoint_out",
                   help="where to write the checkpoint")
    p.add_argument("--vocab-out", required=True, dest="vocab_out",
                   help="where to write the vocabulary file")
    p.add_argument("--log-out", required=True, dest="log_out",
                   help="where to write the training log (CSV)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train_baseline)

    p = sub.add_parser("adapt-eval", help="adapt to held-out tasks and report metrics")
    p.add_argument("--pool", required=True, help="task pool path")
    p.add_argument("--checkpoint", required=True, help="checkpoint to evaluate")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--report-out", default=None, dest="report_out",
                   help="where to write the pre/post report JSON")
    p.add_argument("--split", choices=["train", "valid", "test", "all"],
                   default="test", help="pool split to evaluate (default test)")
    p.add_argument("--support-size", type=int, default=None, dest="support_size",
                   help="override support size per task (default k_support)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_adapt_eval)

    p = sub.add_parser("chat", help="interactive generation over one knowledge graph")
    p.add_argument("--checkpoint", required=True, help="checkpoint to load")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--graph", required=True,
                   help="JSON file with 'goal' and 'knowledge' fields")
    p.add_argument("--script", default=None,
                   help="read user turns from this file instead of stdin")
    _add_config_flags(p)
    p.set_defaults(func=cmd_chat)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, ContractError, VocabError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
