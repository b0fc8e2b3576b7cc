"""One benchmark workload in its own process.

Run by run.py, never by hand: it sets up a workload, runs one warm-up
round on pretrain and finetune (checked; its training call is not counted:
the first training call of a process is 20-50% slower than later ones, its
evaluations are not), then runs whole timed rounds of the workload's
operations until `--seconds` have passed (at least two, so that rounds of
one seed can be compared), then the workload's final operation if it has
one, checks every output, and prints one JSON line with the set-up time,
the per-round timings and, with `--trace 1`, the per-layer metrics.

The program is driven only through its public functions, in the order the
CLI reaches them:

- pretrain: gen-data (generate, write_shard), train-stage1 (read_shard,
  train_stage1 writing its metrics and checkpoint), eval-retrieval
  (load_checkpoint, build_stage1_model, load_params, eval_retrieval).
- finetune: gen-data, a stage-1 checkpoint written and read back, then
  train-stage2 (train_stage2 writing its artifacts) and vtm_eval_accuracy.
- verify: gradcheck (gradcheck_stage1 on the gradcheck profile of the
  default config, seeds 0, 1, 2) in every round, then, as the final
  operation, one paper-shaped forward through the text, video and cross
  encoders with no tape, batch 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from longvid import config, encoders, pipeline
from longvid import data as datamod
from longvid.engine import constant, no_tape

import checks

# 40 steps run past the one-epoch (32-step) warmup of the default config, so
# the lr check covers both the warmup and the linear-decay branch.
PRETRAIN_STEPS = 40
FINETUNE_STEPS = 40
GRADCHECK_SEEDS = (0, 1, 2)
# Evaluations (0.2-0.5 s) are repeated inside a round, and every rate is the
# median over every timed call of the run: the speed of one call swings by
# 15-20% from one few-second stretch of the machine to the next.
EVAL_REPEATS = 4
FROZEN = pipeline.STAGE2_FROZEN_PREFIXES
# the shapes tier-1's paper-shaped forward smoke test asserts
PAPER_SHAPES = {
    "text.tokens": (1, 201, 1024),
    "video.clip_feats": (1, 4, 512),
    "video.video_feat": (1, 1024),
    "video.feature_map": (1, 32, 3, 5, 1024),
    "cross.tokens": (1, 393, 1024),
}


def _data(cfg, work: Path):
    """gen-data, then the shards read back as train-stage1 reads them."""
    train, eval_ = datamod.generate(cfg.data, cfg.seed)
    datamod.write_shard(work / "train.shard", train, cfg.data)
    datamod.write_shard(work / "eval.shard", eval_, cfg.data)
    train, _ = datamod.read_shard(work / "train.shard")
    eval_, _ = datamod.read_shard(work / "eval.shard")
    return train, eval_


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


def setup_pretrain(seed: int, work: Path):
    cfg = config.load_config(seed=seed)
    train, eval_ = _data(cfg, work)
    return SimpleNamespace(cfg=cfg, train=train, eval=eval_, work=work, first_ckpt=None)


def round_pretrain(ctx, i: int, ops: list) -> dict:
    cfg, tr = ctx.cfg, ctx.cfg.train
    out = ctx.work / f"round{i}"
    (_, _, rows), train_s = timed(ops, pipeline.train_stage1, cfg, ctx.train, out_dir=out, steps=PRETRAIN_STEPS)
    checks.check_rows(rows, "loss_total", "loss_global", "loss_mtc", cfg.losses.mtc_weight)
    checks.check_lr(rows, PRETRAIN_STEPS, len(ctx.train), tr.batch_size, tr.warmup_epochs, tr.learning_rate)
    checks.check_loss_decreases(rows)
    ckpt = (out / "stage1.ckpt").read_bytes()
    if ctx.first_ckpt is None:
        ctx.first_ckpt = ckpt
    checks.check_same_bytes(ctx.first_ckpt, ckpt, f"stage-1 checkpoints of rounds 0 and {i}")

    params, _, _ = pipeline.load_checkpoint(out / "stage1.ckpt")
    model = pipeline.build_stage1_model(cfg, cfg.seed)
    pipeline.load_params(model.params(), params, required_prefixes=FROZEN)
    evals = [timed(ops, pipeline.eval_retrieval, model, ctx.eval) for _ in range(EVAL_REPEATS)]
    paras, vids = pipeline.encode_eval(model, ctx.eval)
    for report, _ in evals:
        checks.check_retrieval(report, paras, vids, len(ctx.eval))
    shutil.rmtree(out)
    return {"grad": [[PRETRAIN_STEPS * tr.batch_size, train_s]], "eval": [[r.count, s] for r, s in evals]}


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------


def setup_finetune(seed: int, work: Path):
    cfg = config.load_config(seed=seed)
    train, eval_ = _data(cfg, work)
    stage1 = pipeline.build_stage1_model(cfg, cfg.seed)
    written = {k: p.data.copy() for k, p in stage1.params().items()}
    pipeline.save_checkpoint(work / "stage1.ckpt", stage1.params(), "stage1", 0)
    params, _, _ = pipeline.load_checkpoint(work / "stage1.ckpt")
    checks.check_arrays_equal(written, params, "stage-1 checkpoint read back")
    return SimpleNamespace(cfg=cfg, train=train, eval=eval_, work=work, stage1=params, frozen_before=written)


def round_finetune(ctx, i: int, ops: list) -> dict:
    cfg, tr = ctx.cfg, ctx.cfg.train
    out = ctx.work / f"round{i}"
    (model, _, rows), train_s = timed(ops, pipeline.train_stage2, cfg, ctx.stage1, ctx.train, out_dir=out, steps=FINETUNE_STEPS)
    checks.check_rows(rows, "loss_total", "loss_mlm", "loss_vtm", cfg.losses.vtm_weight)
    checks.check_lr(rows, FINETUNE_STEPS, len(ctx.train), tr.batch_size, tr.warmup_epochs, tr.learning_rate)
    after = {k: p.data for k, p in model.params().items() if k.startswith(FROZEN)}
    checks.check_arrays_equal(ctx.frozen_before, after, "frozen parameters after stage 2")

    items = (len(ctx.eval) // tr.batch_size) * tr.batch_size
    evals = [timed(ops, pipeline.vtm_eval_accuracy, model, cfg, ctx.eval) for _ in range(EVAL_REPEATS)]
    for accuracy, _ in evals:
        checks.check_vtm_accuracy(accuracy, len(ctx.eval), tr.batch_size)
    shutil.rmtree(out)
    return {"grad": [[FINETUNE_STEPS * tr.batch_size, train_s]], "eval": [[items, s] for _, s in evals]}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def setup_verify(seed: int, work: Path):
    gcfg = pipeline.gradcheck_config(config.default_config())
    sizes = {k: p.size for k, p in pipeline.build_stage1_model(gcfg, 0).params().items()}
    pcfg = config.build_config(config.merge_config_dict(config.paper_shaped_overlay()))
    rng = np.random.default_rng(seed)
    text = encoders.TextEncoder(pcfg.model, pcfg.data, rng)
    video = encoders.VideoEncoder(pcfg.model, pcfg.data, rng)
    cross = encoders.CrossEncoder(pcfg.model, pcfg.data, rng)
    ids = rng.integers(config.NUM_SPECIAL, pcfg.data.vocab_size, size=(1, pcfg.data.clips, pcfg.data.max_tokens))
    ids[:, :, 0] = config.CLS_ID
    patches = rng.normal(size=(1, pcfg.data.frames, pcfg.data.patch_rows, pcfg.data.patch_cols, pcfg.data.patch_dim))
    return SimpleNamespace(
        gcfg=gcfg,
        expected_checked=checks.gradcheck_count(sizes, len(GRADCHECK_SEEDS)),
        text=text,
        video=video,
        cross=cross,
        ids=ids,
        patches=patches,
    )


def round_verify(ctx, i: int, ops: list) -> dict:
    report, seconds = timed(ops, pipeline.gradcheck_stage1, ctx.gcfg, seeds=GRADCHECK_SEEDS)
    checks.check_gradcheck(report.checked, len(report.failures), ctx.expected_checked)
    return {"grad": [[report.checked, seconds]]}


def final_verify(ctx, ops: list) -> dict:
    def paper_forward():
        with ctx.scope("paper_forward"), no_tape():
            tout = ctx.text.forward(ctx.ids, ctx.ids != config.PAD_ID)
            vout = ctx.video.forward(constant(ctx.patches))
            out = ctx.cross.forward(tout.tokens, tout.key_mask, vout.feature_map)
        return {
            "text.tokens": tout.tokens.data,
            "video.clip_feats": vout.clip_feats.data,
            "video.video_feat": vout.video_feat.data,
            "video.feature_map": vout.feature_map.data,
            "cross.tokens": out.tokens.data,
        }

    outputs, forward_s = timed(ops, paper_forward)
    checks.check_outputs(outputs, PAPER_SHAPES)
    return {"eval": [[1, forward_s]]}


# set-up, one round, whether a warm-up round comes first, the final
# operation after the timed rounds. The first gradcheck of a process is not
# slower than later ones, so verify spends no time on a warm-up.
WORKLOADS = {
    "pretrain": (setup_pretrain, round_pretrain, True, None),
    "finetune": (setup_finetune, round_finetune, True, None),
    "verify": (setup_verify, round_verify, False, final_verify),
}
MIN_ROUNDS = 2


def timed(ops: list, fn, *args, **kwargs):
    """One operation of the program and its wall time; `ops` collects one
    name per attempt."""
    ops.append(fn.__name__)
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    setup, run_round, warm_up, finish = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.begin_unit("setup")
    args.work.mkdir(parents=True, exist_ok=True)
    ctx = setup(args.seed, args.work)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    if tracer is not None:
        tracer.end_unit()
    ctx.scope = tracer.scope if tracer is not None else lambda kind: nullcontext()

    # Every round starts from a collected heap, as every CLI command starts in
    # a fresh process: the cyclic garbage a round leaves (the program's dead
    # tapes) is not collected inside the next round's timed calls, and the
    # peak RSS does not grow with the number of rounds the machine's speed
    # allowed.
    def one_round(i):
        gc.collect()
        return run_round(ctx, i, ops)

    warmup, rounds, final, ops, failed, errors = None, [], None, [], 0, []
    try:
        if warm_up:
            warmup = one_round(0)
        start = time.monotonic()
        while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
            rounds.append(one_round(len(rounds) + warm_up))
        if finish is not None:
            final = finish(ctx, ops)
    except checks.CheckFailed as e:
        errors.append(str(e))
    except Exception as e:  # a failed operation of the program: report it, stop the run
        failed += 1
        errors.append(f"{ops[-1] if ops else 'setup'}: {type(e).__name__}: {e}")
    result.update(
        warmup=warmup,
        rounds=rounds,
        final=final,
        attempted=len(ops),
        failed=failed,
        errors=errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        errors.extend(tracer.errors)
        if not tracer.video_checks:
            errors.append("no VideoEncoder.forward call was checked against the cost model")
        result["per_layer"] = tracing.per_layer_metrics(tracer, args.workload)
        result["video_checks"] = tracer.video_checks
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
