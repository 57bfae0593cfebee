"""Rebuild the desk checkpoint and vocabulary kept in bench/fixture/.

    python3 bench/make_fixture.py

Meta-trains a desk-preset model from FIXTURE_SEED on this benchmark's own
task pool, the way `mkgd meta-train` does, and writes the best-validation
parameters (without optimizer state) and the vocabulary. The adapt-eval-desk
and chat-desk workloads load these files, so two commits measured against
each other use the same weights. When the checkpoint format changes on
purpose (a new magic), rebuild the fixture with this script, never by hand,
then regenerate those two workloads' golden values:

    python3 bench/make_golden.py --workload adapt-eval-desk chat-desk
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from run import ROOT, import_program

FIXTURE_SEED = 2004
EPISODES = 12


def main():
    import_program()
    from mkgd import data, meta, params
    from mkgd.config import make_run_config
    from mkgd.model import DialogueModel
    from workloads import FIXTURE_CHECKPOINT, FIXTURE_VOCAB, synth_pool, token_universe, write_pool

    cfg = make_run_config("desk", overrides={"seed": FIXTURE_SEED, "max_episodes": EPISODES})
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
        raw = data.load_task_pool(write_pool(Path(workdir) / "pool.jsonl",
                                             synth_pool(FIXTURE_SEED)))
    train_raw, valid_raw, _ = data.split_pool(raw, seed=cfg.seed)
    vocab = data.build_vocab(data.raw_task_token_stream(raw), cfg.max_vocab)
    missing = [tok for tok in token_universe() if tok not in vocab]
    if missing:
        raise SystemExit(f"error: fixture vocabulary lacks {missing}")

    model = DialogueModel(vocab, cfg.embed_dim, cfg.hidden_dim,
                          seed=cfg.seed, loss_weights=cfg.loss_weights())
    mcfg = cfg.meta_config()
    train = data.tasks_from_raw(train_raw, vocab, mcfg.k_support, mcfg.k_query, seed=cfg.seed)
    valid = data.tasks_from_raw(valid_raw, vocab, mcfg.k_support, mcfg.k_query, seed=cfg.seed)
    model, result = meta.meta_train(model, meta.TaskSampler(train, seed=cfg.seed), mcfg, valid)
    if result.diverged:
        raise SystemExit("error: fixture training diverged")

    FIXTURE_CHECKPOINT.parent.mkdir(exist_ok=True)
    params.save_checkpoint(FIXTURE_CHECKPOINT, model.store)
    vocab.save(FIXTURE_VOCAB)
    print(f"{result.episodes} episodes, best validation loss {result.best_val!r}; "
          f"wrote {FIXTURE_CHECKPOINT.name} and {FIXTURE_VOCAB.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
