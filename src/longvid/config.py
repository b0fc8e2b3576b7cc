"""Run configuration: defaults, file loading, overrides, strict validation.

The config file is a nested ``key: value`` document (YAML subset). Unknown
keys are rejected with their full path; flag overrides use the same dotted
paths. Every scalar a run needs lives here: loss temperature and weights,
sampling sizes, model dims, the window schedule, data dims, optimizer
settings, seeds and paths.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .attention import ScheduleError, StageSpec, WindowSchedule

# Special token ids; content tokens start at NUM_SPECIAL.
PAD_ID = 0
CLS_ID = 1
MASK_ID = 2
NUM_SPECIAL = 3


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key path."""


DEFAULTS: dict = {
    "seed": 0,
    "data": {
        "train_samples": 256,
        "eval_samples": 100,
        "clips": 4,
        "frames_per_clip": 8,
        "patch_rows": 4,
        "patch_cols": 4,
        "patch_dim": 8,
        "max_tokens": 8,
        "min_tokens": 6,
        "content_vocab": 128,
        "topic_dim": 8,
        "openings": 16,
        "opening_jitter": 0.25,
        "walk_step": 0.6,
        "patch_noise": 0.05,
        "token_temperature": 0.15,
        "out_dir": "data/toy",
    },
    "model": {
        "contrastive_dim": 32,
        "text": {
            "dim": 32,
            "heads": 4,
            "sentence_layers": 2,
            "paragraph_layers": 2,
            "ffn_ratio": 4,
        },
        "video": {
            "ffn_ratio": 4,
            "clip_pool_steps": 0,
            "stages": [
                {"layers": 1, "dim": 32, "heads": 4, "temporal_window": 2, "merge": 2, "spatial_window": "full"},
                {"layers": 1, "dim": 32, "heads": 4, "temporal_window": 4, "merge": 2, "spatial_window": "full"},
                {"layers": 1, "dim": 32, "heads": 4, "temporal_window": 8, "merge": 1, "spatial_window": "full"},
                {"layers": 1, "dim": 32, "heads": 4, "temporal_window": 16, "merge": 1, "spatial_window": "full"},
                {"layers": 1, "dim": 32, "heads": 4, "temporal_window": 32, "merge": 1, "spatial_window": "full"},
            ],
        },
        "cross": {
            "dim": 32,
            "heads": 4,
            "layers": 2,
            "ffn_ratio": 4,
            "pool_window": [1, 1],
            "pool_stride": [1, 1],
        },
    },
    "losses": {
        "temperature": 0.05,
        "mtc_weight": 1.0,
        "vtm_weight": 10.0,
        "anchor_count": 2,
        "candidate_count": 2,
        "cross_negative_count": 3,
        "mask_rate": 0.15,
        "vtm_replace_prob": 0.5,
    },
    "train": {
        "batch_size": 8,
        "stage1_steps": 2000,
        "stage2_steps": 1000,
        "learning_rate": 1e-3,
        "weight_decay": 0.05,
        "warmup_epochs": 1.0,
        "beta1": 0.9,
        "beta2": 0.999,
        "adam_eps": 1e-8,
        "out_dir": "runs/toy",
    },
}


@dataclass(frozen=True)
class DataConfig:
    train_samples: int
    eval_samples: int
    clips: int
    frames_per_clip: int
    patch_rows: int
    patch_cols: int
    patch_dim: int
    max_tokens: int
    min_tokens: int
    content_vocab: int
    topic_dim: int
    openings: int
    opening_jitter: float
    walk_step: float
    patch_noise: float
    token_temperature: float
    out_dir: str

    @property
    def frames(self) -> int:
        return self.clips * self.frames_per_clip

    @property
    def vocab_size(self) -> int:
        return self.content_vocab + NUM_SPECIAL


@dataclass(frozen=True)
class TextModelConfig:
    dim: int
    heads: int
    sentence_layers: int
    paragraph_layers: int
    ffn_ratio: int


@dataclass(frozen=True)
class VideoModelConfig:
    schedule: WindowSchedule
    ffn_ratio: int
    clip_pool_steps: int


@dataclass(frozen=True)
class CrossModelConfig:
    dim: int
    heads: int
    layers: int
    ffn_ratio: int
    pool_window: tuple[int, int]
    pool_stride: tuple[int, int]


@dataclass(frozen=True)
class ModelConfig:
    contrastive_dim: int
    text: TextModelConfig
    video: VideoModelConfig
    cross: CrossModelConfig


@dataclass(frozen=True)
class LossConfig:
    temperature: float
    mtc_weight: float
    vtm_weight: float
    anchor_count: int
    candidate_count: int
    cross_negative_count: int
    mask_rate: float
    vtm_replace_prob: float


@dataclass(frozen=True)
class TrainSettings:
    batch_size: int
    stage1_steps: int
    stage2_steps: int
    learning_rate: float
    weight_decay: float
    warmup_epochs: float
    beta1: float
    beta2: float
    adam_eps: float
    out_dir: str


@dataclass(frozen=True)
class Config:
    seed: int
    data: DataConfig
    model: ModelConfig
    losses: LossConfig
    train: TrainSettings
    raw: dict = field(repr=False, compare=False, default_factory=dict)


# ---------------------------------------------------------------------------
# dict plumbing
# ---------------------------------------------------------------------------


def _reject_unknown(given: dict, allowed: dict, path: str = "") -> None:
    for key, value in given.items():
        here = f"{path}.{key}" if path else str(key)
        if key not in allowed:
            raise ConfigError(f"{here}: unknown key")
        if isinstance(allowed[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected a mapping")
            _reject_unknown(value, allowed[key], here)


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _stage_template() -> dict:
    return DEFAULTS["model"]["video"]["stages"][0]


def merge_config_dict(overlay: dict | None) -> dict:
    """Defaults deep-merged with an overlay document; unknown keys rejected."""
    overlay = overlay or {}
    if not isinstance(overlay, dict):
        raise ConfigError("config document must be a mapping")
    probe = copy.deepcopy(DEFAULTS)
    # Stage lists are replaced wholesale, so validate their keys per entry.
    stages = overlay.get("model", {}).get("video", {}).get("stages") if isinstance(overlay.get("model", {}), dict) else None
    if stages is not None:
        if not isinstance(stages, list) or not stages:
            raise ConfigError("model.video.stages: expected a non-empty list")
        for i, st in enumerate(stages):
            if not isinstance(st, dict):
                raise ConfigError(f"model.video.stages[{i}]: expected a mapping")
            _reject_unknown(st, _stage_template(), f"model.video.stages[{i}]")
        probe["model"]["video"]["stages"] = stages
        overlay = copy.deepcopy(overlay)
        overlay["model"]["video"] = dict(overlay["model"]["video"])
        del overlay["model"]["video"]["stages"]
    _reject_unknown(overlay, probe, "")
    merged = _deep_merge(probe, overlay)
    return merged


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply ``dotted.path=value`` overrides (values parsed as YAML scalars)."""
    doc = copy.deepcopy(doc)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}': expected dotted.path=value")
        path, _, raw = item.partition("=")
        keys = path.strip().split(".")
        node = doc
        for k in keys[:-1]:
            if not isinstance(node, dict) or k not in node:
                raise ConfigError(f"{path}: unknown key")
            node = node[k]
        if not isinstance(node, dict) or keys[-1] not in node:
            raise ConfigError(f"{path}: unknown key")
        node[keys[-1]] = yaml.safe_load(raw)
    return doc


def _expect(cond: bool, path: str, reason: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {reason}")


def _coerce_int(doc, path, minimum=None) -> int:
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise ConfigError(f"{path}: expected an integer, got {doc!r}")
    if minimum is not None and doc < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {doc}")
    return doc


# A decimal or scientific number; YAML 1.1 reads 1e-3 and 1.0e9 as strings.
_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _coerce_float(doc, path, minimum=None, positive=False) -> float:
    if isinstance(doc, str) and _NUMBER.fullmatch(doc):
        doc = float(doc)
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {doc!r}")
    v = float(doc)
    if positive and v <= 0:
        raise ConfigError(f"{path}: must be > 0, got {v}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {v}")
    return v


def _parse_spatial_window(value, path) -> tuple[int, int] | None:
    if value in ("full", None):
        return None
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return (_coerce_int(value[0], path, 1), _coerce_int(value[1], path, 1))
    raise ConfigError(f"{path}: expected 'full' or [h, w], got {value!r}")


def build_config(doc: dict) -> Config:
    """Validate a merged document and build the typed config."""
    d = doc["data"]
    data = DataConfig(
        train_samples=_coerce_int(d["train_samples"], "data.train_samples", 1),
        eval_samples=_coerce_int(d["eval_samples"], "data.eval_samples", 1),
        clips=_coerce_int(d["clips"], "data.clips", 1),
        frames_per_clip=_coerce_int(d["frames_per_clip"], "data.frames_per_clip", 1),
        patch_rows=_coerce_int(d["patch_rows"], "data.patch_rows", 1),
        patch_cols=_coerce_int(d["patch_cols"], "data.patch_cols", 1),
        patch_dim=_coerce_int(d["patch_dim"], "data.patch_dim", 1),
        max_tokens=_coerce_int(d["max_tokens"], "data.max_tokens", 2),
        min_tokens=_coerce_int(d["min_tokens"], "data.min_tokens", 2),
        content_vocab=_coerce_int(d["content_vocab"], "data.content_vocab", 2),
        topic_dim=_coerce_int(d["topic_dim"], "data.topic_dim", 1),
        openings=_coerce_int(d["openings"], "data.openings", 1),
        opening_jitter=_coerce_float(d["opening_jitter"], "data.opening_jitter", minimum=0.0),
        walk_step=_coerce_float(d["walk_step"], "data.walk_step", minimum=0.0),
        patch_noise=_coerce_float(d["patch_noise"], "data.patch_noise", minimum=0.0),
        token_temperature=_coerce_float(d["token_temperature"], "data.token_temperature", positive=True),
        out_dir=str(d["out_dir"]),
    )
    _expect(data.min_tokens <= data.max_tokens, "data.min_tokens", "must be <= data.max_tokens")

    t = doc["model"]["text"]
    text = TextModelConfig(
        dim=_coerce_int(t["dim"], "model.text.dim", 1),
        heads=_coerce_int(t["heads"], "model.text.heads", 1),
        sentence_layers=_coerce_int(t["sentence_layers"], "model.text.sentence_layers", 1),
        paragraph_layers=_coerce_int(t["paragraph_layers"], "model.text.paragraph_layers", 1),
        ffn_ratio=_coerce_int(t["ffn_ratio"], "model.text.ffn_ratio", 1),
    )
    _expect(text.dim % text.heads == 0, "model.text.dim", f"not divisible by heads {text.heads}")

    v = doc["model"]["video"]
    stages = []
    for i, st in enumerate(v["stages"]):
        here = f"model.video.stages[{i}]"
        try:
            stages.append(
                StageSpec(
                    layers=_coerce_int(st["layers"], f"{here}.layers", 1),
                    dim=_coerce_int(st["dim"], f"{here}.dim", 1),
                    heads=_coerce_int(st["heads"], f"{here}.heads", 1),
                    temporal_window=_coerce_int(st["temporal_window"], f"{here}.temporal_window", 1),
                    spatial_window=_parse_spatial_window(st.get("spatial_window", "full"), f"{here}.spatial_window"),
                    merge=_coerce_int(st.get("merge", 1), f"{here}.merge", 1),
                )
            )
        except KeyError as e:
            raise ConfigError(f"{here}: missing key {e.args[0]}") from None
        except ScheduleError as e:
            raise ConfigError(f"{here}: {e}") from None
    schedule = WindowSchedule(tuple(stages))
    try:
        schedule.validate(data.frames, (data.patch_rows, data.patch_cols))
    except ScheduleError as e:
        raise ConfigError(f"model.video.stages: {e}") from None
    _expect(
        data.frames_per_clip in schedule.temporal_windows,
        "model.video.stages",
        f"no stage has temporal_window == frames_per_clip ({data.frames_per_clip}); clip representations need one",
    )
    video = VideoModelConfig(
        schedule=schedule,
        ffn_ratio=_coerce_int(v["ffn_ratio"], "model.video.ffn_ratio", 1),
        clip_pool_steps=_coerce_int(v["clip_pool_steps"], "model.video.clip_pool_steps", 0),
    )
    # The clip stage map must survive clip_pool_steps halvings.
    clip_stage = clip_stage_index(schedule, data.frames_per_clip)
    ch, cw = schedule.grid_after(clip_stage, (data.patch_rows, data.patch_cols))
    div = 2**video.clip_pool_steps
    _expect(
        ch % div == 0 and cw % div == 0,
        "model.video.clip_pool_steps",
        f"{video.clip_pool_steps} 2x2 mean-pools need the clip-stage grid {(ch, cw)} divisible by {div}",
    )

    c = doc["model"]["cross"]
    pw = c["pool_window"]
    ps = c["pool_stride"]
    _expect(isinstance(pw, (list, tuple)) and len(pw) == 2, "model.cross.pool_window", "expected [h, w]")
    _expect(isinstance(ps, (list, tuple)) and len(ps) == 2, "model.cross.pool_stride", "expected [h, w]")
    cross = CrossModelConfig(
        dim=_coerce_int(c["dim"], "model.cross.dim", 1),
        heads=_coerce_int(c["heads"], "model.cross.heads", 1),
        layers=_coerce_int(c["layers"], "model.cross.layers", 1),
        ffn_ratio=_coerce_int(c["ffn_ratio"], "model.cross.ffn_ratio", 1),
        pool_window=(_coerce_int(pw[0], "model.cross.pool_window", 1), _coerce_int(pw[1], "model.cross.pool_window", 1)),
        pool_stride=(_coerce_int(ps[0], "model.cross.pool_stride", 1), _coerce_int(ps[1], "model.cross.pool_stride", 1)),
    )
    _expect(cross.dim % cross.heads == 0, "model.cross.dim", f"not divisible by heads {cross.heads}")
    fh, fw = schedule.grid_after(len(stages) - 1, (data.patch_rows, data.patch_cols))
    _expect(
        cross.pool_window[0] <= fh and cross.pool_window[1] <= fw,
        "model.cross.pool_window",
        f"window {cross.pool_window} exceeds the final feature grid {(fh, fw)}",
    )

    model = ModelConfig(
        contrastive_dim=_coerce_int(doc["model"]["contrastive_dim"], "model.contrastive_dim", 1),
        text=text,
        video=video,
        cross=cross,
    )

    lo = doc["losses"]
    losses = LossConfig(
        temperature=_coerce_float(lo["temperature"], "losses.temperature", positive=True),
        mtc_weight=_coerce_float(lo["mtc_weight"], "losses.mtc_weight", minimum=0.0),
        vtm_weight=_coerce_float(lo["vtm_weight"], "losses.vtm_weight", minimum=0.0),
        anchor_count=_coerce_int(lo["anchor_count"], "losses.anchor_count", 1),
        candidate_count=_coerce_int(lo["candidate_count"], "losses.candidate_count", 1),
        cross_negative_count=_coerce_int(lo["cross_negative_count"], "losses.cross_negative_count", 0),
        mask_rate=_coerce_float(lo["mask_rate"], "losses.mask_rate", positive=True),
        vtm_replace_prob=_coerce_float(lo["vtm_replace_prob"], "losses.vtm_replace_prob", minimum=0.0),
    )
    _expect(losses.mask_rate < 1.0, "losses.mask_rate", "must be in (0, 1)")
    _expect(losses.vtm_replace_prob <= 1.0, "losses.vtm_replace_prob", "must be in [0, 1]")
    _expect(losses.anchor_count <= data.clips, "losses.anchor_count", f"must be <= data.clips ({data.clips})")
    _expect(losses.candidate_count <= data.clips, "losses.candidate_count", f"must be <= data.clips ({data.clips})")

    tr = doc["train"]
    train = TrainSettings(
        batch_size=_coerce_int(tr["batch_size"], "train.batch_size", 1),
        stage1_steps=_coerce_int(tr["stage1_steps"], "train.stage1_steps", 1),
        stage2_steps=_coerce_int(tr["stage2_steps"], "train.stage2_steps", 1),
        learning_rate=_coerce_float(tr["learning_rate"], "train.learning_rate", positive=True),
        weight_decay=_coerce_float(tr["weight_decay"], "train.weight_decay", minimum=0.0),
        warmup_epochs=_coerce_float(tr["warmup_epochs"], "train.warmup_epochs", minimum=0.0),
        beta1=_coerce_float(tr["beta1"], "train.beta1", minimum=0.0),
        beta2=_coerce_float(tr["beta2"], "train.beta2", minimum=0.0),
        adam_eps=_coerce_float(tr["adam_eps"], "train.adam_eps", positive=True),
        out_dir=str(tr["out_dir"]),
    )

    seed = _coerce_int(doc["seed"], "seed", 0)
    return Config(seed=seed, data=data, model=model, losses=losses, train=train, raw=copy.deepcopy(doc))


def clip_stage_index(schedule: WindowSchedule, frames_per_clip: int) -> int:
    """First stage whose temporal window equals the per-clip frame count."""
    for i, s in enumerate(schedule.stages):
        if s.temporal_window == frames_per_clip:
            return i
    raise ConfigError(f"no stage with temporal_window == {frames_per_clip}")


def load_config(path: str | Path | None = None, overrides: list[str] | None = None, seed: int | None = None) -> Config:
    """Config from defaults <- file <- dotted overrides <- explicit seed."""
    overlay: dict = {}
    if path is not None:
        text = Path(path).read_text()
        loaded = yaml.safe_load(text)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config document must be a mapping")
        overlay = loaded
    doc = merge_config_dict(overlay)
    if overrides:
        doc = apply_overrides(doc, overrides)
    if seed is not None:
        doc["seed"] = int(seed)
    return build_config(doc)


def default_config() -> Config:
    return build_config(merge_config_dict({}))


def dump_config(cfg: Config) -> str:
    """The effective config as the nested key: value text format."""
    return yaml.safe_dump(cfg.raw, sort_keys=False, default_flow_style=False)


def paper_shaped_overlay() -> dict:
    """A config shaped like the full-scale production model (forward-only
    smoke tests; far too heavy to train here)."""
    return {
        "data": {
            "train_samples": 2,
            "eval_samples": 2,
            "clips": 4,
            "frames_per_clip": 8,
            "patch_rows": 24,
            "patch_cols": 40,
            "patch_dim": 192,
            "max_tokens": 50,
            "min_tokens": 50,
            "content_vocab": 256,
        },
        "model": {
            "contrastive_dim": 256,
            "text": {"dim": 1024, "heads": 16, "sentence_layers": 8, "paragraph_layers": 4},
            "video": {
                "clip_pool_steps": 1,
                "stages": [
                    {"layers": 2, "dim": 128, "heads": 4, "temporal_window": 2, "merge": 1, "spatial_window": [3, 5]},
                    {"layers": 2, "dim": 256, "heads": 8, "temporal_window": 4, "merge": 2, "spatial_window": [3, 5]},
                    {"layers": 14, "dim": 512, "heads": 16, "temporal_window": 8, "merge": 2, "spatial_window": [3, 5]},
                    {"layers": 4, "dim": 512, "heads": 16, "temporal_window": 16, "merge": 1, "spatial_window": [3, 5]},
                    {"layers": 2, "dim": 1024, "heads": 32, "temporal_window": 32, "merge": 2, "spatial_window": [3, 5]},
                ],
            },
            "cross": {"dim": 1024, "heads": 16, "layers": 12, "pool_window": [2, 3], "pool_stride": [1, 1]},
        },
    }
