"""Command-line front end.

Subcommands: gen-data, train-stage1, train-stage2, eval-retrieval,
gradcheck, analyze-cost. Each ``cmd_*`` returns its plan and its action;
``main`` validates the config first, then prints the plan under --dry-run
(touching nothing) or runs the action, and maps every validation or
numerical failure to a nonzero exit code. ``--steps`` and ``--out`` are
spellings of dotted config paths, applied after the ``--set`` list. Seed
precedence: --seed flag > HTWA_SEED environment variable > config file >
default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .attention import StageSpec, WindowSchedule
from .config import Config, ConfigError, check_field, dump_config, load_config
from .costmodel import fixed_window_schedule, render_table, report_csv_rows, schedule_cost
from .data import csv_bytes, generate, load_split, write_artifact, write_shard
from .pipeline import (
    STAGE2_FROZEN_PREFIXES,
    DivergenceError,
    build_stage1_model,
    eval_retrieval,
    gradcheck_config,
    gradcheck_stage1,
    load_checkpoint,
    load_params,
    train_stage1,
    train_stage2,
    write_retrieval_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_GRADCHECK = 4

SEED_ENV_VAR = "HTWA_SEED"


def _add_common(p: argparse.ArgumentParser, out: str = "train.out_dir", steps: str | None = None) -> None:
    """The options every subcommand takes. ``--out`` (and ``--steps``, where
    given) spell the dotted config path named here."""
    p.add_argument("--config", help="config file (nested key: value document)")
    p.add_argument("--seed", type=int, help=f"seed override (beats {SEED_ENV_VAR} and the file)")
    p.add_argument("--set", dest="overrides", action="append", default=[], metavar="PATH=VALUE", help="dotted-path config override, repeatable")
    p.add_argument("--dry-run", action="store_true", help="validate and print the plan, touch nothing")
    p.add_argument("--dump-config", action="store_true", help="print the effective config and exit")
    p.add_argument("--out", metavar="DIR", help=f"output directory (same as --set {out}=DIR)")
    aliases = {"out": out}
    if steps:
        p.add_argument("--steps", type=int, metavar="N", help=f"step budget (same as --set {steps}=N)")
        aliases["steps"] = steps
    p.set_defaults(aliases=aliases)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="longvid", description="Desk-scale long-form video-language training testbed.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic train/eval shards")
    _add_common(p, out="data.out_dir")

    p = sub.add_parser("train-stage1", help="train the dual encoders (contrastive alignment)")
    _add_common(p, steps="train.stage1_steps")

    p = sub.add_parser("train-stage2", help="train the cross-modal encoder on a stage-1 checkpoint")
    _add_common(p, steps="train.stage2_steps")
    p.add_argument("--checkpoint", help="stage-1 checkpoint path (default: <out>/stage1.ckpt)")

    p = sub.add_parser("eval-retrieval", help="paragraph-to-video retrieval on the eval split")
    _add_common(p)
    p.add_argument("--checkpoint", help="stage-1 checkpoint path (default: <out>/stage1.ckpt)")

    p = sub.add_parser("gradcheck", help="finite-difference check of the end-to-end stage-1 gradients")
    _add_common(p)
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")

    p = sub.add_parser("analyze-cost", help="analytic multiply-add model of the video trunk")
    _add_common(p)
    p.add_argument("--schedule", help="comma-separated temporal windows (default: configured stages)")
    p.add_argument("--frames", type=int, help="frame count (default: data.clips * data.frames_per_clip)")
    return parser


def _load(args) -> Config:
    seed = args.seed
    if seed is None and os.environ.get(SEED_ENV_VAR):
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}: expected an integer, got {os.environ[SEED_ENV_VAR]!r}")
    # The aliases follow the --set list, so a flag beats --set. A JSON string
    # is a YAML string, so json.dumps passes a value through verbatim.
    aliases = [f"{path}={json.dumps(getattr(args, name))}" for name, path in args.aliases.items() if getattr(args, name) is not None]
    return load_config(args.config, overrides=args.overrides + aliases, seed=seed)


def _out_dir(args, cfg: Config) -> Path:
    """The command's output directory: the config path that --out spells.
    Refused when it, or the nearest path above it that exists, is not a
    directory, so that no work is done before a write that must fail."""
    path = args.aliases["out"]
    section, name = path.split(".")
    out = Path(getattr(getattr(cfg, section), name))
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{path}: {existing} is not a directory")
    return out


def cmd_gen_data(args, cfg: Config):
    out = _out_dir(args, cfg)

    def run() -> int:
        train, eval_ = generate(cfg.data, cfg.seed)
        write_shard(out / "train.shard", train, cfg.data)
        write_shard(out / "eval.shard", eval_, cfg.data)
        print(f"wrote {len(train)} train / {len(eval_)} eval samples under {out}")
        return EXIT_OK

    return [
        f"generate {cfg.data.train_samples} train + {cfg.data.eval_samples} eval samples (seed {cfg.seed})",
        f"write {out / 'train.shard'} and {out / 'eval.shard'}",
    ], run


def cmd_train_stage1(args, cfg: Config):
    if cfg.losses.mtc_weight > 0 and cfg.data.clips < 2:
        raise ConfigError(f"losses.mtc_weight: MTC needs data.clips >= 2, got {cfg.data.clips}; set losses.mtc_weight=0 for one clip")
    out = _out_dir(args, cfg)

    def run() -> int:
        _, state, rows = train_stage1(cfg, load_split(cfg.data, cfg.seed, "train"), out_dir=out)
        print(f"stage 1 done: {state.step} steps, final loss {rows[-1]['loss_total']:.6f}, artifacts under {out}")
        return EXIT_OK

    return [
        f"train stage 1 for {cfg.train.stage1_steps} steps, batch {cfg.train.batch_size}, seed {cfg.seed}",
        f"write {out / 'stage1_metrics.csv'} and {out / 'stage1.ckpt'}",
    ], run


def cmd_train_stage2(args, cfg: Config):
    out = _out_dir(args, cfg)
    ckpt = Path(args.checkpoint if args.checkpoint is not None else out / "stage1.ckpt")

    def run() -> int:
        stage1_params, _, _ = load_checkpoint(ckpt)
        _, state, rows = train_stage2(cfg, stage1_params, load_split(cfg.data, cfg.seed, "train"), out_dir=out)
        print(f"stage 2 done: {state.step} steps, final loss {rows[-1]['loss_total']:.6f}, artifacts under {out}")
        return EXIT_OK

    return [
        f"load stage-1 checkpoint {ckpt}",
        f"train stage 2 for {cfg.train.stage2_steps} steps with frozen encoders, seed {cfg.seed}",
        f"write {out / 'stage2_metrics.csv'} and {out / 'stage2.ckpt'}",
    ], run


def cmd_eval_retrieval(args, cfg: Config):
    out = _out_dir(args, cfg)
    ckpt = Path(args.checkpoint if args.checkpoint is not None else out / "stage1.ckpt")

    def run() -> int:
        params, _, _ = load_checkpoint(ckpt)
        model = build_stage1_model(cfg, cfg.seed)
        load_params(model.params(), params, required_prefixes=STAGE2_FROZEN_PREFIXES)
        report = eval_retrieval(model, load_split(cfg.data, cfg.seed, "eval"))
        write_retrieval_csv(out / "retrieval.csv", report)
        print(
            f"retrieval over {report.count} items: R@1 {report.r_at_1:.4f}  R@5 {report.r_at_5:.4f}  MedR {report.median_rank:.1f}"
        )
        return EXIT_OK

    return [
        f"load stage-1 checkpoint {ckpt}",
        f"rank {cfg.data.eval_samples} eval videos per paragraph",
        f"write {out / 'retrieval.csv'}",
    ], run


def cmd_gradcheck(args, cfg: Config):
    try:
        seeds = tuple(check_field("seed", int(s)) for s in args.seeds.split(","))
    except ConfigError as e:
        raise ConfigError(f"--seeds: {e}") from None
    except ValueError:
        raise ConfigError(f"--seeds: expected comma-separated integers, got {args.seeds!r}") from None
    out = _out_dir(args, cfg)

    def run() -> int:
        report = gradcheck_stage1(gradcheck_config(cfg), seeds=seeds)
        text = report.render()
        write_artifact(out / "gradcheck.txt", [(text + "\n").encode()])
        print(text)
        return EXIT_OK if report.ok else EXIT_GRADCHECK

    return [
        f"finite-difference check of stage-1 gradients at reduced dims, seeds {list(seeds)}",
        f"write {out / 'gradcheck.txt'}",
    ], run


def cmd_analyze_cost(args, cfg: Config):
    frames = args.frames if args.frames is not None else cfg.data.frames
    grid = (cfg.data.patch_rows, cfg.data.patch_cols)
    base = cfg.model.video.schedule
    try:
        windows = [int(w) for w in args.schedule.split(",")] if args.schedule else None
    except ValueError:
        raise ConfigError(f"--schedule: expected comma-separated integers, got {args.schedule!r}") from None
    # Everything that can refuse the input runs before the plan, the
    # fixed-window comparison included.
    try:
        if windows is None:
            schedule = base
        elif len(windows) == len(base.stages):
            schedule = WindowSchedule(tuple(replace(s, temporal_window=w) for s, w in zip(base.stages, windows)))
        else:
            tpl = base.stages[0]
            schedule = WindowSchedule(
                tuple(StageSpec(1, tpl.dim, tpl.heads, w, None, tpl.merge if i == 0 else 1) for i, w in enumerate(windows))
            )
        ffn = cfg.model.video.ffn_ratio
        report = schedule_cost(schedule, frames, grid, cfg.data.patch_dim, ffn)
        fixed = schedule_cost(fixed_window_schedule(schedule, frames), frames, grid, cfg.data.patch_dim, ffn)
    except ValueError as e:  # ScheduleError included
        raise ConfigError(f"--schedule/--frames: {e}") from None
    out = _out_dir(args, cfg)

    def run() -> int:
        write_artifact(out / "cost.csv", [csv_bytes(report_csv_rows(report))])
        print(render_table(report))
        print(f"hierarchical total: {report.total}  fixed-{frames} total: {fixed.total}  ratio: {fixed.total / report.total:.3f}x")
        return EXIT_OK

    return [
        f"cost model for windows {list(schedule.temporal_windows)} on {frames} frames",
        f"write {out / 'cost.csv'}",
    ], run


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
        plan, run = _COMMANDS[args.command](args, cfg)
        if args.dry_run:
            print("dry run; plan:")
            for line in plan:
                print(f"  - {line}")
            return EXIT_OK
        return run()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:  # a missing checkpoint
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
