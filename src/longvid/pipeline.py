"""Two-stage trainer, retrieval evaluation, and the gradient-check harness.

Stage one trains the text and video encoders with the global + temporal
contrastive objective. Stage two freezes them (excluded from the optimizer,
each sample's outputs encoded once, off-tape) and trains the cross-modal
encoder with masked-token prediction and video-text matching. Every random
draw is keyed by (seed, stream, step), so identical config + seed reproduces
metrics and checkpoints byte for byte.
"""

from __future__ import annotations

import ctypes
import hashlib
import struct
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .config import PAD_ID, Config, ConfigError, build_config, merge_config_dict, warmup_step_count
from .data import (
    ArtifactReader,
    CorruptFileError as CorruptCheckpointError,  # a checkpoint's bytes do not decode as its format requires
    PairedSample,
    csv_bytes,
    generate,
    mask_tokens,
    read_artifact,
    stack_batch,
    vtm_pairs,
    write_artifact,
)
from .encoders import (
    ContrastiveHeads,
    CrossEncoder,
    CrossHeads,
    TextEncoder,
    VideoEncoder,
    encode_pair,
)
from .engine import DiffArray, Tape, check_gradients, constant, no_tape
from .engine.check import GradMismatch
from .engine.ops import _pieces
from .objectives import (
    MtcSampling,
    global_contrastive_loss,
    mlm_loss,
    mtc_loss,
    stage1_loss,
    stage2_loss,
    vtm_accuracy,
    vtm_loss,
)
from .params import flatten_params

# rng stream tags
_INIT_STREAM = 201
_EPOCH_STREAM = 202
_MTC_STREAM = 203
_MASK_STREAM = 204
_VTM_STREAM = 205
_GRADCHECK_STREAM = 206

METRICS_COLUMNS = ["step", "lr", "loss_total", "loss_global", "loss_mtc", "loss_mlm", "loss_vtm"]

CKPT_MAGIC = b"LVCK"
CKPT_VERSION = 1


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; the last good state was saved."""


class MissingCheckpointError(FileNotFoundError):
    """A required checkpoint file does not exist."""


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


@dataclass
class Stage1Model:
    text: TextEncoder
    video: VideoEncoder
    heads: ContrastiveHeads

    def param_tree(self) -> dict:
        return {"text": self.text.params, "video": self.video.params, "heads": self.heads.params}

    def params(self) -> dict[str, DiffArray]:
        return flatten_params(self.param_tree())


@dataclass
class Stage2Model:
    stage1: Stage1Model
    cross: CrossEncoder
    cross_heads: CrossHeads

    def param_tree(self) -> dict:
        tree = self.stage1.param_tree()
        tree["cross"] = self.cross.params
        tree["cross_heads"] = self.cross_heads.params
        return tree

    def params(self) -> dict[str, DiffArray]:
        return flatten_params(self.param_tree())


STAGE2_FROZEN_PREFIXES = ("text.", "video.", "heads.")


def build_stage1_model(cfg: Config, seed: int) -> Stage1Model:
    rng = np.random.default_rng([seed, _INIT_STREAM, 1])
    return Stage1Model(
        text=TextEncoder(cfg.model, cfg.data, rng),
        video=VideoEncoder(cfg.model, cfg.data, rng),
        heads=ContrastiveHeads(cfg.model, cfg.data, rng),
    )


def build_stage2_model(cfg: Config, seed: int, stage1_params: dict[str, np.ndarray]) -> Stage2Model:
    stage1 = build_stage1_model(cfg, seed)
    load_params(stage1.params(), stage1_params, required_prefixes=STAGE2_FROZEN_PREFIXES)
    rng = np.random.default_rng([seed, _INIT_STREAM, 2])
    cross = CrossEncoder(cfg.model, cfg.data, rng)
    cross_heads = CrossHeads(cfg.model.cross.dim, cfg.data.vocab_size, rng)
    return Stage2Model(stage1=stage1, cross=cross, cross_heads=cross_heads)


def load_params(target: dict[str, DiffArray], source: dict[str, np.ndarray], required_prefixes=()) -> None:
    for path, p in target.items():
        if path in source:
            if source[path].shape != p.data.shape:
                raise ConfigError(f"checkpoint {path}: shape {source[path].shape} != model {p.data.shape}")
            p.data[...] = source[path]
        elif any(path.startswith(pref) for pref in required_prefixes):
            raise ConfigError(f"checkpoint missing required parameter {path}")


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    """The trainable parameters, in `trainable_paths` order, as one float64
    vector `data`, with their gradients `grad` and AdamW's moments in the same
    layout; each trainable parameter's `.data` and `.grad` are views of `data`
    and `grad`. Frozen parameters keep their own arrays and a `None` grad."""

    params: dict[str, DiffArray]
    trainable_paths: list[str]
    data: np.ndarray
    grad: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray
    step: int
    stage: str

    @classmethod
    def fresh(cls, params: dict[str, DiffArray], stage: str, frozen=()) -> "TrainState":
        """Moves the parameters outside the `frozen` prefixes into one vector."""
        paths = sorted(k for k in params if not k.startswith(tuple(frozen)))
        n = sum(params[k].size for k in paths)
        data, grad, start = np.empty(n), np.zeros(n), 0
        for k in paths:
            p = params[k]
            view = slice(start, start + p.size)
            data[view] = p.data.reshape(-1)
            p.data, p.grad = data[view].reshape(p.shape), grad[view].reshape(p.shape)
            start += p.size
        return cls(params, paths, data, grad, np.zeros(n), np.zeros(n), step=0, stage=stage)


def lr_at(step: int, total_steps: int, warmup_steps: int, peak: float) -> float:
    """Linear warmup to the peak, then linear decay toward zero."""
    if warmup_steps > 0 and step < warmup_steps:
        return peak * (step + 1) / warmup_steps
    remaining = max(1, total_steps - warmup_steps)
    return peak * max(0.0, (total_steps - step) / remaining)


def adamw_step(state: TrainState, lr: float, cfg: Config) -> None:
    """One decoupled-weight-decay adaptive update of the trainable vector, in
    place and in pieces of `CHUNK` entries; an unreached gradient is 0."""
    t = state.step + 1
    b1, b2 = cfg.train.beta1, cfg.train.beta2
    eps = cfg.train.adam_eps
    wd = cfg.train.weight_decay
    for s in _pieces(state.data.size, 1):
        p, g, m, v = state.data[s], state.grad[s], state.adam_m[s], state.adam_v[s]
        m[:] = b1 * m + (1 - b1) * g
        v[:] = b2 * v + (1 - b2) * (g * g)
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * p)
    state.step = t


def batch_indices(n: int, batch_size: int, steps: int, seed: int):
    """Fixed-size minibatches, reshuffled each epoch, tail dropped."""
    if batch_size > n:
        raise ConfigError(f"batch size {batch_size} exceeds dataset size {n}")
    order = np.empty(0, dtype=np.int64)
    pos = 0
    epoch = 0
    for _ in range(steps):
        if pos + batch_size > len(order):
            order = np.random.default_rng([seed, _EPOCH_STREAM, epoch]).permutation(n)
            epoch += 1
            pos = 0
        yield order[pos : pos + batch_size]
        pos += batch_size


# ---------------------------------------------------------------------------
# metrics / checkpoint io
# ---------------------------------------------------------------------------


def write_metrics_csv(path: str | Path, rows: list[dict]) -> None:
    write_artifact(path, [csv_bytes([METRICS_COLUMNS, *([row.get(c) for c in METRICS_COLUMNS] for row in rows)])])


def save_checkpoint(path: str | Path, params: dict, stage: str, step: int) -> None:
    """Versioned binary map of parameter path to float64 array."""
    items = sorted((k, (v.data if isinstance(v, DiffArray) else np.asarray(v, dtype=np.float64))) for k, v in params.items())

    def chunks():
        stage_b = stage.encode()
        yield CKPT_MAGIC + struct.pack("<IHQI", CKPT_VERSION, len(stage_b), step, len(items)) + stage_b
        for key, arr in items:
            kb = key.encode()
            yield struct.pack(f"<H{len(kb)}sB{arr.ndim}I", len(kb), kb, arr.ndim, *arr.shape)
            yield arr.astype("<f8").tobytes()

    write_artifact(path, chunks())


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], str, int]:
    def body(r: ArtifactReader):
        stage_len, step, count = r.unpack("<HQI")
        stage = r.text(stage_len, "stage name")
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (klen,) = r.unpack("<H")
            key = r.text(klen, "parameter name")
            (ndim,) = r.unpack("<B")
            params[key] = r.array(r.unpack(f"<{ndim}I"), "<f8")
        return params, stage, step

    return read_artifact(path, "checkpoint file", CKPT_MAGIC, CKPT_VERSION, body, missing=MissingCheckpointError)


def digest_params(params: dict, prefixes: tuple[str, ...] = ()) -> str:
    """sha256 over sorted (path, bytes); restricted to prefixes if given."""
    h = hashlib.sha256()
    for key in sorted(params):
        if prefixes and not any(key.startswith(p) for p in prefixes):
            continue
        arr = params[key].data if isinstance(params[key], DiffArray) else np.asarray(params[key])
        h.update(key.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the training loop of both stages
# ---------------------------------------------------------------------------


def _reuse_freed_heap() -> None:
    """Lets the C heap that one training step frees serve the next step.

    A step allocates and frees its whole tape, tens of MB. By default glibc
    returns a freed heap top to the kernel, and the next step faults the
    same pages in again: about 10,000 minor faults and a quarter of a default
    stage-1 step on a 2-core box. Keeping 64 MiB at the heap top when it
    trims (M_TOP_PAD) stops that. Setting it also freezes glibc's moving
    mmap threshold, so M_MMAP_THRESHOLD fixes that at 32 MiB, the most it
    moves to on 64-bit. A C library without mallopt is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # a C library other than glibc
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-2, 64 << 20)  # M_TOP_PAD


def _train(
    cfg: Config,
    state: TrainState,
    n_train: int,
    total_steps: int,
    out_dir: str | Path | None,
    batch_loss,
) -> list[dict]:
    """The step loop of both stages: `batch_loss(idx, step)` gathers the
    train rows `idx` and returns the total loss and the stage's named
    losses. Writes `<stage>_metrics.csv` and `<stage>.ckpt` under out_dir,
    if given."""
    warmup = warmup_step_count(cfg.train, n_train)
    _reuse_freed_heap()
    rows: list[dict] = []

    for step, idx in enumerate(batch_indices(n_train, cfg.train.batch_size, total_steps, cfg.seed)):
        lr = lr_at(step, total_steps, warmup, cfg.train.learning_rate)
        state.grad[:] = 0.0
        with Tape() as tape:
            total, losses = batch_loss(idx, step)
            loss_val = total.item()
            if not np.isfinite(loss_val):
                if out_dir is not None:
                    save_checkpoint(Path(out_dir) / f"{state.stage}_lastgood.ckpt", state.params, state.stage, step)
                raise DivergenceError(f"non-finite loss at step {step}; last good parameters saved")
            tape.backward(total)
        adamw_step(state, lr, cfg)
        row = dict.fromkeys(METRICS_COLUMNS)
        row.update(step=step, lr=lr, loss_total=loss_val)
        row.update((name, None if loss is None else loss.item()) for name, loss in losses.items())
        rows.append(row)

    if out_dir is not None:
        out_dir = Path(out_dir)
        write_metrics_csv(out_dir / f"{state.stage}_metrics.csv", rows)
        save_checkpoint(out_dir / f"{state.stage}.ckpt", state.params, state.stage, state.step)
    return rows


# ---------------------------------------------------------------------------
# stage-one training
# ---------------------------------------------------------------------------


def stage1_batch_loss(model: Stage1Model, cfg: Config, tokens, pad, patches, step: int):
    """Forward of one stage-one batch; returns (total, global, mtc) losses.
    The MTC draws are keyed by `cfg.seed` and the step."""
    lo = cfg.losses
    pair = encode_pair(model.text, model.video, model.heads, tokens, pad, constant(patches))
    l_global = global_contrastive_loss(pair.video_rep, pair.paragraph_rep, lo.temperature)
    l_mtc = None
    if lo.mtc_weight > 0.0:
        sampling = MtcSampling(lo.anchor_count, lo.candidate_count, lo.cross_negative_count)
        l_mtc = mtc_loss(
            pair.clip_reps, pair.sentence_reps, sampling, lo.temperature, seed_key=(cfg.seed, _MTC_STREAM, step)
        )
    total = stage1_loss(l_global, l_mtc, lo.mtc_weight)
    return total, l_global, l_mtc


def train_stage1(
    cfg: Config,
    train_data: list[PairedSample],
    out_dir: str | Path | None = None,
    steps: int | None = None,
) -> tuple[Stage1Model, TrainState, list[dict]]:
    model = build_stage1_model(cfg, cfg.seed)
    state = TrainState.fresh(model.params(), stage="stage1")

    def batch_loss(idx: np.ndarray, step: int):
        batch = stack_batch([train_data[i] for i in idx])
        total, l_global, l_mtc = stage1_batch_loss(model, cfg, *batch, step)
        return total, {"loss_global": l_global, "loss_mtc": l_mtc}

    total_steps = steps if steps is not None else cfg.train.stage1_steps
    return model, state, _train(cfg, state, len(train_data), total_steps, out_dir, batch_loss)


# ---------------------------------------------------------------------------
# stage-two training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrozenFeatures:
    """The frozen stage-one encoders' outputs, one row per sample."""

    text_tokens: np.ndarray  # (N, 1 + M*L, d_text) paragraph-level text tokens
    key_mask: np.ndarray  # (N, 1 + M*L) True where attendable
    feature_map: np.ndarray  # (N, T, Hf, Wf, d_video) final video stage
    paragraph_feat: np.ndarray  # (N, d_text)
    video_feat: np.ndarray  # (N, d_video)

    def rows(self, idx) -> "FrozenFeatures":
        return FrozenFeatures(*(getattr(self, f.name)[idx] for f in fields(self)))


def encode_frozen(stage1: Stage1Model, samples: list[PairedSample], batch_size: int = 16) -> FrozenFeatures:
    """Text and video encodings of `samples`, batched, with no tape.

    Both encoders are row-independent, so a row does not depend on the
    batch it was encoded in."""
    parts = []
    with no_tape():
        for start in range(0, len(samples), batch_size):
            tokens, pad, patches = stack_batch(samples[start : start + batch_size])
            tout = stage1.text.forward(tokens, pad)
            vout = stage1.video.forward(constant(patches))
            parts.append((tout.tokens.data, tout.key_mask, vout.feature_map.data, tout.paragraph_feat.data, vout.video_feat.data))
    return FrozenFeatures(*(np.concatenate(col) for col in zip(*parts)))


def stage2_batch_loss(model: Stage2Model, cfg: Config, batch: list[PairedSample], step: int, frozen: FrozenFeatures):
    """Two cross-modal forwards per step: masked-token prediction over the
    matched pair, and matching over probabilistically replaced videos.

    `frozen` is the batch's rows of `encode_frozen`. Only the masked text
    depends on the step: its forward runs here, off tape. The unmasked text
    tokens and the video feature maps are read from `frozen`, and
    `vtm_pairs` swaps feature-map rows as it would swap the patches they
    were encoded from. The mask and replacement draws are keyed by
    `cfg.seed` and the step."""
    lo = cfg.losses
    tokens = np.stack([s.tokens for s in batch])
    masked = mask_tokens(tokens, lo.mask_rate, np.random.default_rng([cfg.seed, _MASK_STREAM, step]), cfg.data.vocab_size)
    mixed, labels = vtm_pairs(frozen.feature_map, lo.vtm_replace_prob, np.random.default_rng([cfg.seed, _VTM_STREAM, step]))

    with no_tape():
        tout_masked = model.stage1.text.forward(masked.token_ids, tokens != PAD_ID)

    cross_m = model.cross.forward(tout_masked.tokens, tout_masked.key_mask, constant(frozen.feature_map))
    L = cfg.data.max_tokens
    joint_positions = np.stack(
        [masked.positions[:, 0], 1 + masked.positions[:, 1] * L + masked.positions[:, 2]], axis=1
    ) if len(masked.positions) else np.zeros((0, 2), dtype=np.int64)
    l_mlm = mlm_loss(cross_m.tokens, joint_positions, masked.labels, model.cross_heads.params["mlm"])

    cross_v = model.cross.forward(constant(frozen.text_tokens), frozen.key_mask, constant(mixed))
    l_vtm = vtm_loss(cross_v.cls_feat, labels, model.cross_heads.params["vtm"])
    return stage2_loss(l_mlm, l_vtm, lo.vtm_weight), l_mlm, l_vtm


def train_stage2(
    cfg: Config,
    stage1_params: dict[str, np.ndarray],
    train_data: list[PairedSample],
    out_dir: str | Path | None = None,
    steps: int | None = None,
) -> tuple[Stage2Model, TrainState, list[dict]]:
    """Trains the cross encoder and its heads on frozen stage-one encoders.

    The whole train split is encoded once by `encode_frozen`, before the
    first step; each step gathers its batch's rows and runs only the masked
    text forward and the two taped cross forwards."""
    model = build_stage2_model(cfg, cfg.seed, stage1_params)
    state = TrainState.fresh(model.params(), stage="stage2", frozen=STAGE2_FROZEN_PREFIXES)
    frozen = encode_frozen(model.stage1, train_data)

    def batch_loss(idx: np.ndarray, step: int):
        batch = [train_data[i] for i in idx]
        total, l_mlm, l_vtm = stage2_batch_loss(model, cfg, batch, step, frozen.rows(idx))
        return total, {"loss_mlm": l_mlm, "loss_vtm": l_vtm}

    total_steps = steps if steps is not None else cfg.train.stage2_steps
    return model, state, _train(cfg, state, len(train_data), total_steps, out_dir, batch_loss)


def vtm_eval_accuracy(model: Stage2Model, cfg: Config, eval_data: list[PairedSample]) -> float:
    """Matching accuracy on held-out pairs at the configured replace rate,
    over the eval split's whole batches. The replacements are drawn from one
    fixed stream, the same for every call."""
    B = cfg.train.batch_size
    n = len(eval_data) // B * B
    if n == 0:
        return 0.0
    frozen = encode_frozen(model.stage1, eval_data[:n])
    rng = np.random.default_rng([9, _VTM_STREAM, 10**6])
    correct = 0
    with no_tape():
        for start in range(0, n, B):
            batch = frozen.rows(slice(start, start + B))
            mixed, labels = vtm_pairs(batch.feature_map, cfg.losses.vtm_replace_prob, rng)
            out = model.cross.forward(constant(batch.text_tokens), batch.key_mask, constant(mixed))
            correct += vtm_accuracy(out.cls_feat, labels, model.cross_heads.params["vtm"]) * B
    return correct / n


# ---------------------------------------------------------------------------
# retrieval evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetrievalReport:
    r_at_1: float
    r_at_5: float
    median_rank: float
    count: int


def encode_eval(model: Stage1Model, samples: list[PairedSample], batch_size: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Paragraph and video representations of an eval split (no tape)."""
    frozen = encode_frozen(model, samples, batch_size)
    with no_tape():
        paras = model.heads.project("text", constant(frozen.paragraph_feat))
        vids = model.heads.project("video", constant(frozen.video_feat))
    return paras.data, vids.data


def ranks_from_similarity(sim: np.ndarray) -> np.ndarray:
    """1-based rank of the matching column for each row (strict comparisons,
    so any strictly monotone transform of sim leaves ranks unchanged)."""
    n = sim.shape[0]
    diag = sim[np.arange(n), np.arange(n)]
    return (sim > diag[:, None]).sum(axis=1) + 1


def retrieval_report(sim: np.ndarray) -> RetrievalReport:
    ranks = ranks_from_similarity(sim)
    return RetrievalReport(
        r_at_1=float((ranks <= 1).mean()),
        r_at_5=float((ranks <= 5).mean()),
        median_rank=float(np.median(ranks)),
        count=int(len(ranks)),
    )


def eval_retrieval(model: Stage1Model, eval_data: list[PairedSample], batch_size: int = 16) -> RetrievalReport:
    """Rank all eval videos for each paragraph by global similarity."""
    if not eval_data:
        raise ConfigError("eval split is empty")
    paras, vids = encode_eval(model, eval_data, batch_size)
    return retrieval_report(paras @ vids.T)


def write_retrieval_csv(path: str | Path, report: RetrievalReport) -> None:
    write_artifact(path, [csv_bytes([["r_at_1", "r_at_5", "median_rank", "count"], list(asdict(report).values())])])


# ---------------------------------------------------------------------------
# gradient-check harness
# ---------------------------------------------------------------------------


@dataclass
class GradcheckReport:
    seeds: tuple[int, ...]
    checked: int
    failures: list[tuple[str, GradMismatch]] = field(default_factory=list)  # (parameter path, mismatch)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"gradcheck: {self.checked} entries over seeds {list(self.seeds)}"]
        if self.ok:
            lines.append("result: PASS (0 failures)")
        else:
            lines.append(f"result: FAIL ({len(self.failures)} failures)")
            for path, m in self.failures[:50]:
                lines.append(f"  {path}[{m.flat_index}]: analytic={m.analytic!r} numeric={m.numeric!r}")
        return "\n".join(lines)


def gradcheck_config(base: Config) -> Config:
    """Tiny-dims profile derived from a config: same loss surface, desk-size
    everything else, so exhaustive head checks stay fast."""
    doc = merge_config_dict({})
    doc["seed"] = base.seed
    doc["losses"] = asdict(base.losses)
    doc["losses"]["anchor_count"] = min(base.losses.anchor_count, 2)
    doc["losses"]["candidate_count"] = min(base.losses.candidate_count, 2)
    doc["data"].update(
        {
            "train_samples": 4,
            "eval_samples": 2,
            "clips": 2,
            "frames_per_clip": 2,
            "patch_rows": 2,
            "patch_cols": 2,
            "patch_dim": 4,
            "max_tokens": 4,
            "min_tokens": 3,
            "content_vocab": 16,
            "topic_dim": 4,
        }
    )
    doc["model"] = {
        "contrastive_dim": 8,
        "text": {"dim": 8, "heads": 2, "sentence_layers": 1, "paragraph_layers": 1, "ffn_ratio": 2},
        "video": {
            "ffn_ratio": 2,
            "clip_pool_steps": 0,
            "stages": [
                {"layers": 1, "dim": 8, "heads": 2, "temporal_window": 2, "merge": 2, "spatial_window": "full"},
                {"layers": 1, "dim": 8, "heads": 2, "temporal_window": 4, "merge": 1, "spatial_window": "full"},
            ],
        },
        "cross": {"dim": 8, "heads": 2, "layers": 1, "ffn_ratio": 2, "pool_window": [1, 1], "pool_stride": [1, 1]},
    }
    doc["train"] = asdict(base.train)
    doc["train"]["batch_size"] = 2
    return build_config(doc)


class ReplayedEncoder:
    """Stand-in for an encoder whose parameters stay fixed: `forward` returns
    the output the encoder gave, off-tape, on the inputs this was built from,
    and refuses any other inputs."""

    def __init__(self, encoder, *inputs):
        with no_tape():
            self.output = encoder.forward(*inputs)
        self.inputs = inputs

    def forward(self, *inputs):
        same = len(inputs) == len(self.inputs) and all(
            np.array_equal(getattr(a, "data", a), getattr(b, "data", b)) for a, b in zip(inputs, self.inputs)
        )
        if not same:
            raise ValueError("replayed encoder called with inputs other than the ones it was built from")
        return self.output


def gradcheck_stage1(
    cfg: Config,
    seeds: tuple[int, ...] = (0, 1, 2),
    max_random_entries: int = 200,
) -> GradcheckReport:
    """End-to-end finite differences of the stage-one loss.

    Checks every entry of the contrastive heads' parameters plus a seeded
    random 1% of everything else (at most `max_random_entries`), per seed,
    at `check_gradients`' default step and tolerances. The analytic side is
    one taped loss on the real model; each numeric evaluation re-runs only
    the encoder that owns the perturbed entry (none for a head entry).
    """
    report = GradcheckReport(seeds=tuple(seeds), checked=0)
    for seed in seeds:
        run_cfg = replace(cfg, seed=seed)
        model = build_stage1_model(run_cfg, seed)
        data, _ = generate(run_cfg.data, seed)
        tokens, pad, patches = stack_batch(data[: run_cfg.train.batch_size])
        flat = model.params()
        paths, arrays = list(flat), list(flat.values())

        def loss_on(m: Stage1Model):
            return lambda *_: stage1_batch_loss(m, run_cfg, tokens, pad, patches, step=0)[0]

        # A numeric evaluation re-runs only the encoder that owns the perturbed
        # array (its path's first component); the others replay their outputs,
        # which no parameter of that owner feeds.
        text, video = ReplayedEncoder(model.text, tokens, pad), ReplayedEncoder(model.video, constant(patches))
        numeric = {
            "text": loss_on(replace(model, video=video)),
            "video": loss_on(replace(model, text=text)),
            "heads": loss_on(replace(model, text=text, video=video)),
        }

        # every head entry, then a seeded fraction of the rest: {array index: flat indices}
        picked = {k: list(range(a.size)) for k, a in enumerate(arrays) if paths[k].startswith("heads.")}
        rest = [(k, i) for k, a in enumerate(arrays) if k not in picked for i in range(a.size)]
        rng = np.random.default_rng([seed, _GRADCHECK_STREAM])
        want = min(max_random_entries, max(1, int(len(rest) * 0.01)))
        for j in sorted(rng.choice(len(rest), size=min(want, len(rest)), replace=False)):
            k, i = rest[j]
            picked.setdefault(k, []).append(i)

        result = check_gradients(
            loss_on(model), arrays, entries=picked, numeric_loss=lambda k: numeric[paths[k].split(".")[0]]
        )
        report.failures += [(paths[m.array_index], m) for m in result.mismatches]
        report.checked += result.checked
    return report
