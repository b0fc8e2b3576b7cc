"""Per-layer tracing from outside the program.

`install` replaces the public functions of each layer of `longvid` with
wrappers that time every call and add its duration to the current unit of
work. A unit is one training step
(from the `lr_at` call that starts it to the `adamw_step` that ends it), one
loss evaluation inside `gradcheck_stage1`, one evaluation call, one
paper-shaped forward, or the set-up. Matmuls are counted apart: calls, time
and multiply-adds. Every `VideoEncoder.forward` call is also checked
against the cost model: the multiply-adds its matmuls perform must equal
`costmodel.schedule_cost(...).total` times the batch size.

`per_layer_metrics` reduces the units to the metrics in BENCHMARK.json,
each a median over the units of the kind the table below names for the
workload. A layer a workload does not run reports 0.
"""

from __future__ import annotations

import statistics
import sys
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

from checks import CheckFailed, check_multiply_adds


class Tracer:
    def __init__(self):
        self.open: list[str] = []
        self.units: list[dict] = []
        self.unit: dict | None = None
        self.calls: dict[str, list[float]] = defaultdict(list)
        self.multiply_adds = 0
        self.tapes = weakref.WeakSet()
        self.video_checks = 0
        self.errors: list[str] = []

    # units ---------------------------------------------------------------

    def begin_unit(self, kind: str) -> None:
        self.end_unit()
        self.unit = {"kind": kind, "start": perf_counter(), "values": Counter()}

    def end_unit(self) -> None:
        if self.unit is not None:
            self.unit["values"]["unit"] = (perf_counter() - self.unit["start"]) * 1e3
            self.units.append(self.unit)
            self.unit = None

    @contextmanager
    def scope(self, kind: str):
        self.begin_unit(kind)
        try:
            yield
        finally:
            self.end_unit()

    def add(self, key: str, value: float) -> None:
        if self.unit is not None:
            self.unit["values"][key] += value

    # wrapped calls -------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` timed as `name`; a name nested in itself counts once."""

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            outermost = name not in self.open
            self.open.append(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.open.pop()
                if outermost:
                    self.calls[name].append((t1 - t0) * 1e3)
                    self.add(name, (t1 - t0) * 1e3)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------


def _replace(original, replacement) -> None:
    """Point every longvid module name bound to `original` at `replacement`."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("longvid"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    from longvid import attention, config, costmodel, data, encoders, objectives, pipeline
    from longvid.engine import Tape, active_tape, ops

    def function(module, attr: str, name: str, before=None, after=None):
        original = getattr(module, attr)
        _replace(original, tracer.wrap(name, original, before, after))

    def method(cls, attr: str, name: str, before=None, after=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), before, after))

    # engine ---------------------------------------------------------------
    matmul = ops.matmul

    @wraps(matmul)
    def counted_matmul(a, b):
        t0 = perf_counter()
        out = matmul(a, b)
        tracer.add("engine.matmul", (perf_counter() - t0) * 1e3)
        inner = a.shape[-1]
        tracer.multiply_adds += out.size * inner
        tracer.add("engine.matmul_calls", 1)
        tracer.add("engine.multiply_adds", out.size * inner)
        return out

    _replace(matmul, counted_matmul)

    def tape_born(result, tape):
        tracer.tapes.add(tape)

    def tape_size(tape, loss):
        tracer.add("engine.tape_ops", len(tape.ops))
        tracer.add("engine.tape_mb", sum(op.output.data.nbytes for op in tape.ops) / 1e6)

    method(Tape, "__init__", "engine.tape_init", after=tape_born)
    method(Tape, "backward", "engine.backward", before=tape_size)

    # attention --------------------------------------------------------------
    function(attention, "windowed_mha", "attention.windowed_mha")
    function(attention, "multi_head_attention", "attention.full_mha")

    # encoders ---------------------------------------------------------------
    def frozen(name):
        """Encoder forwards made off-tape count as frozen-encoder time."""

        def after(result, *args, **kwargs):
            if active_tape() is None:
                tracer.add("encoders.frozen", tracer.calls[name][-1])

        return after

    def video_mas(fn):
        """VideoEncoder.forward checked against the cost model."""

        @wraps(fn)
        def checked(self, patches):
            before = tracer.multiply_adds
            out = fn(self, patches)
            counted = tracer.multiply_adds - before
            analytic = patches.shape[0] * costmodel.schedule_cost(
                self.schedule, self.frames, self.grid, self.patch_dim, self.ffn_ratio
            ).total
            tracer.add("costmodel.video_multiply_adds", analytic)
            tracer.video_checks += 1
            try:
                check_multiply_adds(counted, analytic, "VideoEncoder.forward")
            except CheckFailed as e:
                tracer.errors.append(str(e))
            return out

        return checked

    encoders.VideoEncoder.forward = video_mas(encoders.VideoEncoder.forward)
    method(encoders.TextEncoder, "forward", "encoders.text", after=frozen("encoders.text"))
    method(encoders.VideoEncoder, "forward", "encoders.video", after=frozen("encoders.video"))
    method(encoders.CrossEncoder, "forward", "encoders.cross")
    for cls in (encoders.TextEncoder, encoders.VideoEncoder, encoders.CrossEncoder, encoders.ContrastiveHeads, encoders.CrossHeads):
        method(cls, "__init__", "encoders.build")

    # objectives -------------------------------------------------------------
    function(objectives, "mtc_loss", "objectives.mtc")
    function(objectives, "global_contrastive_loss", "objectives.global")
    function(objectives, "mlm_loss", "objectives.mlm_vtm")
    function(objectives, "vtm_loss", "objectives.mlm_vtm")

    # pipeline ---------------------------------------------------------------
    def step_begins(*args, **kwargs):
        if "pipeline.train" in tracer.open:
            tracer.begin_unit("step")
            tracer.add("engine.live_tapes", len(tracer.tapes))

    def step_ends(*args, **kwargs):
        if tracer.unit is not None and tracer.unit["kind"] == "step":
            tracer.end_unit()

    def loss_eval_begins(*args, **kwargs):
        if "pipeline.gradcheck" in tracer.open:
            tracer.begin_unit("loss_eval")

    def loss_eval_ends(*args, **kwargs):
        if tracer.unit is not None and tracer.unit["kind"] == "loss_eval":
            tracer.end_unit()

    function(pipeline, "lr_at", "pipeline.lr_at", before=step_begins)
    function(pipeline, "adamw_step", "pipeline.adamw", after=step_ends)
    function(pipeline, "train_stage1", "pipeline.train", after=step_ends)
    function(pipeline, "train_stage2", "pipeline.train", after=step_ends)
    for attr in ("stage1_batch_loss", "stage2_batch_loss"):
        function(pipeline, attr, "pipeline.forward", before=loss_eval_begins, after=loss_eval_ends)
    function(pipeline, "gradcheck_stage1", "pipeline.gradcheck")
    function(pipeline, "encode_eval", "pipeline.encode_eval")
    for attr in ("eval_retrieval", "vtm_eval_accuracy"):
        function(pipeline, attr, "pipeline.eval", before=lambda *a, **k: tracer.begin_unit("eval"), after=lambda *a, **k: tracer.end_unit())
    function(pipeline, "save_checkpoint", "pipeline.checkpoint_write")
    function(pipeline, "load_checkpoint", "pipeline.checkpoint_read")

    # data -------------------------------------------------------------------
    function(data, "generate", "data.generate")
    function(data, "write_shard", "data.shard_write")
    function(data, "read_shard", "data.shard_read")
    for attr in ("stack_batch", "mask_tokens", "vtm_pairs"):
        function(data, attr, "data.batch_prep")

    # config -----------------------------------------------------------------
    for attr in ("load_config", "default_config", "build_config"):
        function(config, attr, "config.build")


# ---------------------------------------------------------------------------
# reduction to metrics
# ---------------------------------------------------------------------------

TRAIN = {"pretrain": "step", "finetune": "step"}
FORWARD = {"pretrain": "step", "finetune": "step", "verify": "paper_forward"}
LOSS = {"pretrain": "step", "verify": "loss_eval"}
SETUP = {"pretrain": "setup", "finetune": "setup", "verify": "setup"}


def _loop_other(v):
    return v["unit"] - v["pipeline.forward"] - v["engine.backward"] - v["pipeline.adamw"]


def _rank(v):
    return v["unit"] - v["pipeline.encode_eval"]


# name, unit, better, value of one unit of work, unit kind per workload, reduction
PER_LAYER = [
    ("engine.tape_ops_per_step", "count", "lower", "engine.tape_ops", TRAIN, "median"),
    ("engine.backward_ms_per_step", "ms", "lower", "engine.backward", TRAIN, "median"),
    ("engine.tape_mb_per_step", "MB", "lower", "engine.tape_mb", TRAIN, "median"),
    ("engine.live_tapes_max", "count", "lower", "engine.live_tapes", TRAIN, "max"),
    ("engine.matmul_calls", "count", "lower", "engine.matmul_calls", FORWARD, "median"),
    ("engine.matmul_ms", "ms", "lower", "engine.matmul", FORWARD, "median"),
    ("engine.multiply_adds", "count", "lower", "engine.multiply_adds", FORWARD, "median"),
    ("attention.windowed_mha_ms", "ms", "lower", "attention.windowed_mha", FORWARD, "median"),
    ("attention.full_mha_ms", "ms", "lower", "attention.full_mha", FORWARD, "median"),
    ("encoders.text_ms", "ms", "lower", "encoders.text", FORWARD, "median"),
    ("encoders.video_ms", "ms", "lower", "encoders.video", FORWARD, "median"),
    ("encoders.cross_ms", "ms", "lower", "encoders.cross", FORWARD, "median"),
    ("encoders.frozen_ms_per_step", "ms", "lower", "encoders.frozen", TRAIN, "median"),
    ("encoders.build_s", "s", "lower", "encoders.build", SETUP, "seconds"),
    ("objectives.mtc_ms", "ms", "lower", "objectives.mtc", LOSS, "median"),
    ("objectives.global_ms", "ms", "lower", "objectives.global", LOSS, "median"),
    ("objectives.mlm_vtm_ms", "ms", "lower", "objectives.mlm_vtm", {"finetune": "step"}, "median"),
    ("pipeline.forward_ms_per_step", "ms", "lower", "pipeline.forward", TRAIN, "median"),
    ("pipeline.adamw_ms_per_step", "ms", "lower", "pipeline.adamw", TRAIN, "median"),
    ("pipeline.loop_other_ms_per_step", "ms", "lower", _loop_other, TRAIN, "median"),
    ("pipeline.encode_eval_ms", "ms", "lower", "pipeline.encode_eval", {"pretrain": "eval"}, "median"),
    ("pipeline.rank_ms", "ms", "lower", _rank, {"pretrain": "eval"}, "median"),
    ("pipeline.gradcheck_loss_evals", "count", "lower", None, {"verify": "loss_eval"}, "per_gradcheck"),
    ("pipeline.gradcheck_loss_eval_ms", "ms", "lower", "unit", {"verify": "loss_eval"}, "median"),
    ("pipeline.checkpoint_write_ms", "ms", "lower", "pipeline.checkpoint_write", {"pretrain": "call", "finetune": "setup"}, "median"),
    ("pipeline.checkpoint_read_ms", "ms", "lower", "pipeline.checkpoint_read", {"pretrain": "call", "finetune": "setup"}, "median"),
    ("data.generate_ms", "ms", "lower", "data.generate", SETUP, "median"),
    ("data.shard_write_ms", "ms", "lower", "data.shard_write", SETUP, "median"),
    ("data.shard_read_ms", "ms", "lower", "data.shard_read", SETUP, "median"),
    ("data.batch_prep_ms_per_step", "ms", "lower", "data.batch_prep", TRAIN, "median"),
    ("config.build_ms", "ms", "lower", "config.build", SETUP, "median"),
    ("costmodel.video_multiply_adds", "count", "lower", "costmodel.video_multiply_adds", FORWARD, "median"),
]


def per_layer_metrics(tracer: Tracer, workload: str) -> dict[str, dict]:
    out = {}
    for name, unit, _, key, kinds, reduce in PER_LAYER:
        kind = kinds.get(workload)
        value = 0.0
        if kind == "call":
            value = statistics.median(tracer.calls[key]) if tracer.calls[key] else 0.0
        elif kind is not None:
            units = [u["values"] for u in tracer.units if u["kind"] == kind]
            if reduce == "per_gradcheck":
                value = len(units) / max(1, len(tracer.calls["pipeline.gradcheck"]))
            elif units:
                values = [key(v) if callable(key) else v[key] for v in units]
                value = max(values) if reduce == "max" else statistics.median(values)
                if reduce == "seconds":
                    value /= 1e3
        out[name] = {"value": value, "unit": unit}
    return out
