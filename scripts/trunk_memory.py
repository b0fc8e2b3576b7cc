"""Trace the memory of one video trunk forward, stage by stage.

    PYTHONPATH=src python3 scripts/trunk_memory.py [--base paper|default] \
        [--taped] [--set PATH=VALUE ...]

Builds the video encoder of the paper-shaped config
(`config.paper_shaped_overlay`, the default base) or of the default config,
with the dotted-path overrides applied on top, draws one video of normal
patches from the same generator (seeded with SEED), and runs
`VideoEncoder.forward` once under tracemalloc.

Off the tape (the default), it prints each stage's output grid shape and
traced high-water: the most bytes allocated since the forward began, grids
that earlier stages left alive included, while that stage ran. The same
follows for the forward's tail (final layer norm and pooling).

With --taped, the forward records on a tape and the loss is the sum of
`video_feat`. Per stage, and for the tail with the loss, it prints the ops
recorded, the bytes of their distinct output buffers (a view counts with
the buffer it views, once) and their op-private bytes: arrays that the
recorded backwards hold and that are no op's output or input, such as the
attention op's probabilities. Then it splits the forward's op-output bytes
by the kind of op that produced each buffer (the name its recorded
backward is defined in: matmul, layernorm, qkv_attention, ...), and
prints the bytes traced as held after the forward, the backward's traced
high-water and a sha256 of the parameter gradients, in `flatten_params`
order.

Then come the process's `ru_maxrss` and a sha256 of each output
(`clip_feats`, `video_feat` and `feature_map`). The per-stage figures come
from wrapping the encoder's `stage_grids`, the walk that `forward`
consumes.

On the default base, --taped last takes the census of one whole
default-config training step of each stage, on the first batch of the
train split at SEED, as its backward would begin (`step_census`): the ops
recorded, their op-output and op-private bytes, and how many products of
the `wq`, `wk`, `wv` and `fc1.w` weights the forward formed and how many
of them are still alive.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import tracemalloc
import weakref
from dataclasses import replace
from types import FunctionType

import numpy as np

from longvid.config import ConfigError, apply_overrides, build_config, default_config, merge_config_dict, paper_shaped_overlay
from longvid.data import generate, stack_batch
from longvid.encoders import VideoEncoder
from longvid.engine import DiffArray, Tape, constant, no_tape, ops
from longvid.engine import sum as asum
from longvid.params import flatten_params
from longvid.pipeline import build_stage1_model, build_stage2_model, encode_frozen, stage1_batch_loss, stage2_batch_loss

MIB = 2**20
SEED = 0  # of the parameters and the patches, and of a step's train split
PRODUCT_WEIGHTS = (".wq", ".wk", ".wv", "fc1.w")  # path endings of the weights `step_census` watches


def _buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory a views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _held(backward_fn) -> list[np.ndarray]:
    """The arrays a recorded backward holds: through its closure's cells,
    looking into DiffArrays, tuples, lists, dict values and the closures of
    the functions it holds (a wrapped backward's, say), each object once.
    Attributes of other objects are not searched."""
    held, seen, todo = [], set(), [backward_fn]
    while todo:  # a stack: a recursive closure would be a cycle keeping `held` alive
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, DiffArray):
            value = value.data
        if isinstance(value, np.ndarray):
            held.append(value)
        elif isinstance(value, (tuple, list)):
            todo.extend(value)
        elif isinstance(value, dict):
            todo.extend(value.values())
        elif isinstance(value, FunctionType):
            todo.extend(cell.cell_contents for cell in value.__closure__ or ())
    return held


def tape_census(ops, ends: list[int]) -> list[tuple[int, int]]:
    """(distinct op-output bytes, op-private bytes) of each run of tape ops
    ending at the indices `ends`. A buffer counts once, in the first run
    that reaches it."""
    known = {id(_buffer(a.data)) for op in ops for a in (op.output, *op.inputs)}
    counted: set[int] = set()
    census = []
    for start, end in zip([0, *ends], ends):
        outputs = private = 0
        for op in ops[start:end]:
            buf = _buffer(op.output.data)
            if id(buf) not in counted:
                counted.add(id(buf))
                outputs += buf.nbytes
            for a in _held(op.backward_fn):
                buf = _buffer(a)
                if id(buf) not in known and id(buf) not in counted:
                    counted.add(id(buf))
                    private += buf.nbytes
        census.append((outputs, private))
    return census


def output_bytes_by_kind(ops) -> dict[str, int]:
    """Distinct op-output bytes of the ops, by the kind of the first op whose
    output reaches each buffer, as `tape_census` counts them: the name of the
    function its recorded backward is defined in."""
    counted: set[int] = set()
    kinds: dict[str, int] = {}
    for op in ops:
        buf = _buffer(op.output.data)
        if id(buf) not in counted:
            counted.add(id(buf))
            kind = op.backward_fn.__qualname__.split(".")[0]
            kinds[kind] = kinds.get(kind, 0) + buf.nbytes
    return kinds


def step_census(stage: int) -> tuple[int, int, int, int, list[str]]:
    """(ops, distinct op-output bytes, op-private bytes, products formed,
    products held) of the tape of one default-config training step of
    `stage` (1 or 2), on the first batch of the train split at SEED, once
    its loss is formed. Products formed counts the products of the
    PRODUCT_WEIGHTS weights through `ops.matmul` in the forward; products
    held are the paths of those weights, once per product, whose product is
    still alive then, by a weak reference to the product's buffer."""
    cfg = default_config()
    batch = generate(replace(cfg.data, train_samples=cfg.train.batch_size, eval_samples=1), SEED)[0]
    if stage == 1:
        model = build_stage1_model(cfg, cfg.seed)
    else:
        stage1 = {k: p.data for k, p in build_stage1_model(cfg, cfg.seed).params().items()}
        model = build_stage2_model(cfg, cfg.seed, stage1)
        frozen = encode_frozen(model.stage1, batch)
    watched = {id(p.data): path for path, p in model.params().items() if path.endswith(PRODUCT_WEIGHTS)}
    products, matmul = [], ops.matmul

    def watched_matmul(a, b):
        out = matmul(a, b)
        if id(b.data) in watched:
            products.append((watched[id(b.data)], weakref.ref(out.data)))
        return out

    ops.matmul = watched_matmul
    try:
        with Tape() as tape:
            if stage == 1:
                stage1_batch_loss(model, cfg, *stack_batch(batch), 0)
            else:
                stage2_batch_loss(model, cfg, batch, 0, frozen)
    finally:
        ops.matmul = matmul
    (outputs, private), = tape_census(tape.ops, [len(tape)])
    return len(tape), outputs, private, len(products), [path for path, product in products if product() is not None]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", choices=("paper", "default"), default="paper", help="the config the overrides apply to")
    ap.add_argument("--taped", action="store_true", help="record the forward on a tape and run its backward")
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

    tape = Tape()
    stages = []  # per stage: grid shape, traced high-water, tape length at its exit
    walk = video.stage_grids

    def traced_walk(x):
        for grid in walk(x):
            stages.append((grid.shape, tracemalloc.get_traced_memory()[1], len(tape)))
            tracemalloc.reset_peak()
            yield grid
            del grid  # as forward drops it

    video.stage_grids = traced_walk
    tracemalloc.start()
    try:
        if args.taped:
            with tape:
                out = video.forward(patches)
                loss = asum(out.video_feat)
            held = tracemalloc.get_traced_memory()[0]
            ends = [n for _, _, n in stages] + [len(tape)]
            census = tape_census(tape.ops, ends)
            kinds = output_bytes_by_kind(tape.ops)
            tracemalloc.reset_peak()
            tape.backward(loss)
            backward_peak = tracemalloc.get_traced_memory()[1]
        else:
            with no_tape():
                out = video.forward(patches)
            tail = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    print(f"{args.base} config, {len(args.overrides)} overrides, seed {SEED}{', taped' if args.taped else ''}")
    if args.taped:
        ops = np.diff([0, *ends])
        for i, (shape, _, _) in enumerate(stages):
            print(f"stage {i}: grid {shape}, {ops[i]} ops, op outputs {census[i][0] / MIB:.3f} MiB, op-private {census[i][1] / MIB:.3f} MiB")
        print(f"tail: {ops[-1]} ops, op outputs {census[-1][0] / MIB:.3f} MiB, op-private {census[-1][1] / MIB:.3f} MiB")
        for kind, nbytes in sorted(kinds.items(), key=lambda kv: -kv[1]):
            print(f"op outputs of {kind}: {nbytes / MIB:.3f} MiB")
        print(f"forward: traced {held / MIB:.2f} MiB held")
        print(f"backward: traced high-water {backward_peak / MIB:.2f} MiB")
        grads = hashlib.sha256()
        for p in flatten_params(video.params).values():
            grads.update(p.grad.tobytes())
        print(f"sha256 grads: {grads.hexdigest()}")
    else:
        for i, (shape, peak, _) in enumerate(stages):
            print(f"stage {i}: grid {shape}, traced high-water {peak / MIB:.2f} MiB")
        print(f"tail: traced high-water {tail / MIB:.2f} MiB")
    print(f"ru_maxrss: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")
    for name in ("clip_feats", "video_feat", "feature_map"):
        print(f"sha256 {name}: {hashlib.sha256(getattr(out, name).data.tobytes()).hexdigest()}")
    if args.taped and args.base == "default":
        for stage in (1, 2):
            n, outputs, private, formed, held = step_census(stage)
            print(
                f"stage-{stage} step: tape of {n} ops; op outputs {outputs / MIB:.3f} MiB; op-private {private / MIB:.3f} MiB;"
                f" products of {'/'.join(w.lstrip('.') for w in PRODUCT_WEIGHTS)} formed: {formed}, held: {len(held)}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
