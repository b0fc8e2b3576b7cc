"""Trace the memory of one untaped video trunk forward, stage by stage.

    PYTHONPATH=src python3 scripts/trunk_memory.py [--base paper|default] \
        [--set PATH=VALUE ...]

Builds the video encoder of the paper-shaped config
(`config.paper_shaped_overlay`, the default base) or of the default config,
with the dotted-path overrides applied on top, draws one video of normal
patches from the same generator (seeded with SEED), and runs
`VideoEncoder.forward` once off the tape under tracemalloc. It prints each
stage's output grid shape and traced high-water: the most bytes allocated
since the forward began, grids that earlier stages left alive included,
while that stage ran. The same follows for the forward's tail (final layer
norm and pooling), then the process's `ru_maxrss` and a sha256 of each
output (`clip_feats`, `video_feat` and `feature_map`). The per-stage
figures come from wrapping the encoder's `stage_grids`, the walk that
`forward` consumes.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import tracemalloc

import numpy as np

from longvid.config import ConfigError, apply_overrides, build_config, merge_config_dict, paper_shaped_overlay
from longvid.encoders import VideoEncoder
from longvid.engine import constant, no_tape

MIB = 2**20
SEED = 0  # of the parameters and the patches


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", choices=("paper", "default"), default="paper", help="the config the overrides apply to")
    ap.add_argument("--set", dest="overrides", action="append", default=[], metavar="PATH=VALUE", help="dotted-path config override, repeatable")
    args = ap.parse_args(argv)
    try:
        cfg = build_config(apply_overrides(merge_config_dict(paper_shaped_overlay() if args.base == "paper" else None), args.overrides))
    except ConfigError as e:
        ap.error(str(e))

    rng = np.random.default_rng(SEED)
    video = VideoEncoder(cfg.model, cfg.data, rng)
    d = cfg.data
    patches = constant(rng.normal(size=(1, d.frames, d.patch_rows, d.patch_cols, d.patch_dim)))

    stages = []
    walk = video.stage_grids

    def traced_walk(x):
        for grid in walk(x):
            stages.append((grid.shape, tracemalloc.get_traced_memory()[1]))
            tracemalloc.reset_peak()
            yield grid
            del grid  # as forward drops it

    video.stage_grids = traced_walk
    tracemalloc.start()
    try:
        with no_tape():
            out = video.forward(patches)
        tail = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    print(f"{args.base} config, {len(args.overrides)} overrides, seed {SEED}")
    for i, (shape, peak) in enumerate(stages):
        print(f"stage {i}: grid {shape}, traced high-water {peak / MIB:.2f} MiB")
    print(f"tail: traced high-water {tail / MIB:.2f} MiB")
    print(f"ru_maxrss: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")
    for name in ("clip_feats", "video_feat", "feature_map"):
        print(f"sha256 {name}: {hashlib.sha256(getattr(out, name).data.tobytes()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
