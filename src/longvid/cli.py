"""Command-line front end.

Subcommands: gen-data, train-stage1, train-stage2, eval-retrieval,
gradcheck, analyze-cost. Every subcommand validates the config first,
honors --dry-run (validate, print the plan, touch nothing), and exits
nonzero on validation or numerical failure. Seed precedence:
--seed flag > HTWA_SEED environment variable > config file > default.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from .attention import ScheduleError, StageSpec, WindowSchedule
from .config import Config, ConfigError, dump_config, load_config
from .costmodel import fixed_window_schedule, render_table, report_csv_rows, schedule_cost

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_GRADCHECK = 4

SEED_ENV_VAR = "HTWA_SEED"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file (nested key: value document)")
    p.add_argument("--seed", type=int, help=f"seed override (beats {SEED_ENV_VAR} and the file)")
    p.add_argument("--set", dest="overrides", action="append", default=[], metavar="PATH=VALUE", help="dotted-path config override, repeatable")
    p.add_argument("--dry-run", action="store_true", help="validate and print the plan, touch nothing")
    p.add_argument("--dump-config", action="store_true", help="print the effective config and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="longvid", description="Desk-scale long-form video-language training testbed.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic train/eval shards")
    _add_common(p)
    p.add_argument("--out", help="output directory (default: data.out_dir)")

    p = sub.add_parser("train-stage1", help="train the dual encoders (contrastive alignment)")
    _add_common(p)
    p.add_argument("--steps", type=int, help="step budget override")
    p.add_argument("--out", help="output directory (default: train.out_dir)")

    p = sub.add_parser("train-stage2", help="train the cross-modal encoder on a stage-1 checkpoint")
    _add_common(p)
    p.add_argument("--steps", type=int, help="step budget override")
    p.add_argument("--checkpoint", help="stage-1 checkpoint path (default: <out>/stage1.ckpt)")
    p.add_argument("--out", help="output directory (default: train.out_dir)")

    p = sub.add_parser("eval-retrieval", help="paragraph-to-video retrieval on the eval split")
    _add_common(p)
    p.add_argument("--checkpoint", help="stage-1 checkpoint path (default: <out>/stage1.ckpt)")
    p.add_argument("--out", help="output directory (default: train.out_dir)")

    p = sub.add_parser("gradcheck", help="finite-difference check of the end-to-end stage-1 gradients")
    _add_common(p)
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--out", help="report directory (default: train.out_dir)")

    p = sub.add_parser("analyze-cost", help="analytic multiply-add model of the video trunk")
    _add_common(p)
    p.add_argument("--schedule", help="comma-separated temporal windows (default: configured stages)")
    p.add_argument("--frames", type=int, help="frame count (default: data.clips * data.frames_per_clip)")
    p.add_argument("--out", help="output directory (default: train.out_dir)")
    return parser


def _load(args) -> Config:
    seed = args.seed
    if seed is None and os.environ.get(SEED_ENV_VAR):
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}: expected an integer, got {os.environ[SEED_ENV_VAR]!r}")
    return load_config(args.config, overrides=args.overrides, seed=seed)


def _plan(lines: list[str]) -> int:
    print("dry run; plan:")
    for line in lines:
        print(f"  - {line}")
    return EXIT_OK


def cmd_gen_data(args, cfg: Config) -> int:
    from .data import generate, write_shard

    out = Path(args.out or cfg.data.out_dir)
    if args.dry_run:
        return _plan(
            [
                f"generate {cfg.data.train_samples} train + {cfg.data.eval_samples} eval samples (seed {cfg.seed})",
                f"write {out / 'train.shard'} and {out / 'eval.shard'}",
            ]
        )
    train, eval_ = generate(cfg.data, cfg.seed)
    write_shard(out / "train.shard", train, cfg.data)
    write_shard(out / "eval.shard", eval_, cfg.data)
    print(f"wrote {len(train)} train / {len(eval_)} eval samples under {out}")
    return EXIT_OK


# The shard header fields that must agree with the run's data config.
_SHARD_CONFIG_FIELDS = (
    "clips",
    "frames_per_clip",
    "patch_rows",
    "patch_cols",
    "patch_dim",
    "max_tokens",
    "vocab_size",
    "topic_dim",
)


def _load_split(cfg: Config, split: str):
    """The samples of one split ("train" or "eval"): read from its shard
    under data.out_dir if there is one, else generated."""
    from .data import generate, read_shard

    shard = Path(cfg.data.out_dir) / f"{split}.shard"
    if shard.exists():
        samples, meta = read_shard(shard)
        for name in _SHARD_CONFIG_FIELDS:
            if meta[name] != getattr(cfg.data, name):
                raise ConfigError(
                    f"{shard}: written with data.{name}={meta[name]}, but the config has {getattr(cfg.data, name)}"
                )
        return samples
    train, eval_ = generate(cfg.data, cfg.seed)
    return train if split == "train" else eval_


def cmd_train_stage1(args, cfg: Config) -> int:
    from .pipeline import DivergenceError, train_stage1

    out = Path(args.out or cfg.train.out_dir)
    steps = args.steps if args.steps is not None else cfg.train.stage1_steps
    if args.dry_run:
        return _plan(
            [
                f"train stage 1 for {steps} steps, batch {cfg.train.batch_size}, seed {cfg.seed}",
                f"write {out / 'stage1_metrics.csv'} and {out / 'stage1.ckpt'}",
            ]
        )
    data = _load_split(cfg, "train")
    try:
        _, state, rows = train_stage1(cfg, data, out_dir=out, steps=steps)
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"stage 1 done: {state.step} steps, final loss {rows[-1]['loss_total']:.6f}, artifacts under {out}")
    return EXIT_OK


def cmd_train_stage2(args, cfg: Config) -> int:
    from .pipeline import DivergenceError, MissingCheckpointError, load_checkpoint, train_stage2

    out = Path(args.out or cfg.train.out_dir)
    ckpt = Path(args.checkpoint) if args.checkpoint else out / "stage1.ckpt"
    steps = args.steps if args.steps is not None else cfg.train.stage2_steps
    if args.dry_run:
        return _plan(
            [
                f"load stage-1 checkpoint {ckpt}",
                f"train stage 2 for {steps} steps with frozen encoders, seed {cfg.seed}",
                f"write {out / 'stage2_metrics.csv'} and {out / 'stage2.ckpt'}",
            ]
        )
    try:
        stage1_params, _, _ = load_checkpoint(ckpt)
    except MissingCheckpointError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    data = _load_split(cfg, "train")
    try:
        _, state, rows = train_stage2(cfg, stage1_params, data, out_dir=out, steps=steps)
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"stage 2 done: {state.step} steps, final loss {rows[-1]['loss_total']:.6f}, artifacts under {out}")
    return EXIT_OK


def cmd_eval_retrieval(args, cfg: Config) -> int:
    from .pipeline import (
        MissingCheckpointError,
        build_stage1_model,
        eval_retrieval,
        load_checkpoint,
        load_params,
        write_retrieval_csv,
    )

    out = Path(args.out or cfg.train.out_dir)
    ckpt = Path(args.checkpoint) if args.checkpoint else out / "stage1.ckpt"
    if args.dry_run:
        return _plan(
            [
                f"load stage-1 checkpoint {ckpt}",
                f"rank {cfg.data.eval_samples} eval videos per paragraph",
                f"write {out / 'retrieval.csv'}",
            ]
        )
    try:
        params, _, _ = load_checkpoint(ckpt)
    except MissingCheckpointError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    model = build_stage1_model(cfg, cfg.seed)
    load_params(model.params(), params, required_prefixes=("text.", "video.", "heads."))
    report = eval_retrieval(model, _load_split(cfg, "eval"))
    write_retrieval_csv(out / "retrieval.csv", report)
    print(
        f"retrieval over {report.count} items: R@1 {report.r_at_1:.4f}  R@5 {report.r_at_5:.4f}  MedR {report.median_rank:.1f}"
    )
    return EXIT_OK


def cmd_gradcheck(args, cfg: Config) -> int:
    from .pipeline import gradcheck_config, gradcheck_stage1

    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        raise ConfigError(f"--seeds: expected comma-separated integers, got {args.seeds!r}")
    out = Path(args.out or cfg.train.out_dir)
    if args.dry_run:
        return _plan(
            [
                f"finite-difference check of stage-1 gradients at reduced dims, seeds {list(seeds)}",
                f"write {out / 'gradcheck.txt'}",
            ]
        )
    report = gradcheck_stage1(gradcheck_config(cfg), seeds=seeds)
    out.mkdir(parents=True, exist_ok=True)
    text = report.render()
    (out / "gradcheck.txt").write_text(text + "\n")
    print(text)
    return EXIT_OK if report.ok else EXIT_GRADCHECK


def cmd_analyze_cost(args, cfg: Config) -> int:
    frames = args.frames if args.frames is not None else cfg.data.frames
    base = cfg.model.video.schedule
    if args.schedule:
        try:
            windows = [int(w) for w in args.schedule.split(",")]
        except ValueError:
            raise ConfigError(f"--schedule: expected comma-separated integers, got {args.schedule!r}")
        if len(windows) == len(base.stages):
            stages = tuple(
                StageSpec(s.layers, s.dim, s.heads, w, s.spatial_window, s.merge)
                for s, w in zip(base.stages, windows)
            )
        else:
            tpl = base.stages[0]
            stages = tuple(
                StageSpec(1, tpl.dim, tpl.heads, w, None, tpl.merge if i == 0 else 1)
                for i, w in enumerate(windows)
            )
        schedule = WindowSchedule(stages)
    else:
        schedule = base
    grid = (cfg.data.patch_rows, cfg.data.patch_cols)
    try:
        report = schedule_cost(schedule, frames, grid, cfg.data.patch_dim, cfg.model.video.ffn_ratio)
    except (ScheduleError, ValueError) as e:
        raise ConfigError(f"--schedule/--frames: {e}")
    out = Path(args.out or cfg.train.out_dir)
    if args.dry_run:
        return _plan(
            [
                f"cost model for windows {list(schedule.temporal_windows)} on {frames} frames",
                f"write {out / 'cost.csv'}",
            ]
        )
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "cost.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(report_csv_rows(report))
    print(render_table(report))
    fixed = schedule_cost(fixed_window_schedule(schedule, frames), frames, grid, cfg.data.patch_dim, cfg.model.video.ffn_ratio)
    print(f"hierarchical total: {report.total}  fixed-{frames} total: {fixed.total}  ratio: {fixed.total / report.total:.3f}x")
    return EXIT_OK


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-stage1": cmd_train_stage1,
    "train-stage2": cmd_train_stage2,
    "eval-retrieval": cmd_eval_retrieval,
    "gradcheck": cmd_gradcheck,
    "analyze-cost": cmd_analyze_cost,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.dump_config:
            print(dump_config(cfg), end="")
            return EXIT_OK
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
