"""Time the training steps or evaluations of two longvid source trees in one process.

    OPENBLAS_NUM_THREADS=1 python3 scripts/alternate_steps.py \
        --parent <parent checkout>/src --change src --stage 1 --blocks 14 --steps 10
    python3 scripts/alternate_steps.py --parent <parent checkout>/src --change src --op eval

Two runs of one benchmark in two processes can read a few percent apart on
identical code, so a smaller move needs both versions timed in one process.
This script imports the `longvid` package of each tree under its own name
(`longvid_parent`, `longvid_change`; the package imports itself relatively),
builds each side's default-config model and train split, and then runs
blocks of training steps through each side's own `train_stage1` or
`train_stage2`, alternating the sides and which side starts a block. A step
is timed from its `lr_at` call to the end of its `adamw_step`, so model
builds and stage two's frozen encoding fall outside it. With `--op eval` a
block is instead `--steps` calls of each side's `eval_retrieval` on its
default-config stage-one model (`build_stage1_model` at the config's seed)
over the default config's 100 eval items, each call timed whole. One
untimed block per side runs first.

It prints each side's median ms/step over the blocks (a block's value is the
mean of its steps), the median and quartiles of the per-block change/parent
ratio, how many blocks each side won, whether the two sides' metric rows
were equal in every block, and whether both sides ended every block with
bitwise-equal trained parameters (`pipeline.digest_params`): equal metric
rows do not prove equal checkpoints. For `--op eval` it prints per-call
medians and whether both sides' retrieval reports and `encode_eval`
arrays were bitwise equal in every block.

Both sides share one C heap, so what a change does to how the process's
memory is freed and faulted back in between steps does not show here: the
other side's allocations change it. perfbench's separate processes show it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

TRAIN_SAMPLES = 64  # enough whole batches for any block; keeps stage two's frozen encode short


def load_tree(src: Path, name: str):
    """The `longvid` package under `src`, imported as `name`."""
    pkg = src / "longvid"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One tree's trainer, with `lr_at` and `adamw_step` wrapped to time each
    step, and its retrieval evaluation."""

    def __init__(self, src: Path, name: str, stage: int):
        pkg = load_tree(src, name)
        self.pipeline, self.stage = pkg.pipeline, stage
        self.cfg = pkg.config.default_config()
        train, self.eval = pkg.data.generate(self.cfg.data, self.cfg.seed)
        self.train = train[:TRAIN_SAMPLES]
        self.stage1 = self.pipeline.build_stage1_model(self.cfg, self.cfg.seed)
        self.stage1_params = {k: p.data.copy() for k, p in self.stage1.params().items()}
        self.step_s: list[float] = []
        lr_at, adamw_step = self.pipeline.lr_at, self.pipeline.adamw_step
        begun = []

        def timed_lr_at(*args):
            begun.append(time.perf_counter())
            return lr_at(*args)

        def timed_adamw_step(*args):
            adamw_step(*args)
            self.step_s.append(time.perf_counter() - begun.pop())

        self.pipeline.lr_at, self.pipeline.adamw_step = timed_lr_at, timed_adamw_step

    def block(self, steps: int) -> tuple[float, list[dict], str]:
        """Mean seconds per step of one fresh run of `steps` steps, its metric
        rows and the digest of its trained parameters."""
        self.step_s.clear()
        if self.stage == 1:
            _, state, rows = self.pipeline.train_stage1(self.cfg, self.train, steps=steps)
        else:
            _, state, rows = self.pipeline.train_stage2(self.cfg, self.stage1_params, self.train, steps=steps)
        return statistics.fmean(self.step_s), rows, self.pipeline.digest_params(state.params)

    def eval_block(self, calls: int) -> tuple[float, list[dict], str]:
        """Mean seconds per `eval_retrieval` call over `calls` calls, their
        reports as dicts (each side has its own report class) and the digest
        of `encode_eval`'s paragraph and video arrays."""
        seconds, reports = [], []
        for _ in range(calls):
            begun = time.perf_counter()
            report = self.pipeline.eval_retrieval(self.stage1, self.eval)
            seconds.append(time.perf_counter() - begun)
            reports.append(dataclasses.asdict(report))
        digest = hashlib.sha256()
        for a in self.pipeline.encode_eval(self.stage1, self.eval):
            digest.update(a.tobytes())
        return statistics.fmean(seconds), reports, digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent's src directory")
    ap.add_argument("--change", type=Path, required=True, help="the change's src directory")
    ap.add_argument("--op", choices=("train", "eval"), default="train")
    ap.add_argument("--stage", type=int, choices=(1, 2), default=1, help="the stage trained by --op train")
    ap.add_argument("--blocks", type=int, default=14)
    ap.add_argument("--steps", type=int, default=10, help="steps, or eval calls, per block")
    args = ap.parse_args(argv)
    if args.blocks < 1 or args.steps < 1:
        ap.error("--blocks and --steps must be at least 1")

    sides = {"parent": Side(args.parent, "longvid_parent", args.stage), "change": Side(args.change, "longvid_change", args.stage)}
    run = {name: side.eval_block if args.op == "eval" else side.block for name, side in sides.items()}
    for name in sides:
        run[name](args.steps)
    per_step = {name: [] for name in sides}
    same_rows = same_params = True
    for b in range(args.blocks):
        order = ("parent", "change") if b % 2 == 0 else ("change", "parent")
        rows, digests = {}, {}
        for name in order:
            seconds, rows[name], digests[name] = run[name](args.steps)
            per_step[name].append(seconds)
        same_rows &= rows["parent"] == rows["change"]
        same_params &= digests["parent"] == digests["change"]

    ratios = [c / p for p, c in zip(per_step["parent"], per_step["change"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else (ratios[0],) * 3
    if args.op == "eval":
        title, unit, outputs, digested = "eval", "call", "retrieval reports", "encode_eval arrays"
    else:
        title, unit, outputs, digested = f"stage {args.stage}", "step", "metric rows", "trained parameters"
    print(f"{title}: {args.blocks} blocks of {args.steps} {unit}s per side")
    for name, values in per_step.items():
        print(f"  {name:6s} median {1e3 * statistics.median(values):.2f} ms/{unit}")
    print(f"  change/parent per-block ratio: median {statistics.median(ratios):.3f} (quartiles {q1:.3f}, {q3:.3f})")
    print(f"  blocks won: change {sum(r < 1 for r in ratios)}, parent {sum(r > 1 for r in ratios)}")
    print(f"  {outputs} equal in every block: {'yes' if same_rows else 'no'}")
    print(f"  {digested} bitwise equal in every block: {'yes' if same_params else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
