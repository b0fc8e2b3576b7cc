import numpy as np, time
from dataclasses import replace
from longvid.config import default_config
from longvid import pipeline as PL
from longvid.data import generate, stack_batch
from longvid.engine import Tape

def train_with_evals(cfg, train, ev, total_steps, eval_every):
    model = PL.build_stage1_model(cfg, cfg.seed)
    state = PL.TrainState.fresh(model.params(), stage="stage1", seed=cfg.seed)
    steps_per_epoch = max(1, len(train) // cfg.train.batch_size)
    warmup = round(cfg.train.warmup_epochs * steps_per_epoch)
    evals = []
    for step, idx in enumerate(PL.batch_indices(len(train), cfg.train.batch_size, total_steps, cfg.seed)):
        lr = PL.lr_at(step, total_steps, warmup, cfg.train.learning_rate)
        tokens, pad, patches = stack_batch([train[i] for i in idx])
        for p in state.params.values(): p.zero_grad()
        with Tape() as tape:
            total, lg, lm = PL.stage1_batch_loss(model, cfg, tokens, pad, patches, step)
            tape.backward(total)
        PL.adamw_step(state, lr, cfg)
        if (step+1) % eval_every == 0:
            r = PL.eval_retrieval(model, ev)
            evals.append((step+1, round(total.item(),3), r.r_at_1))
    return evals

for seed in (0, 1):
    cfg = replace(default_config(), seed=seed)
    train, ev = generate(cfg.data, seed)
    for tag, weight in (("mtc", 1.0), ("glob", 0.0)):
        c = replace(cfg, losses=replace(cfg.losses, mtc_weight=weight))
        ev_curve = train_with_evals(c, train, ev, 1200, 150)
        print(f"seed {seed} {tag}: " + "  ".join(f"{s}:{r:.2f}" for s, _, r in ev_curve), flush=True)
