"""Run configuration: defaults, file loading, overrides, strict validation.

The frozen dataclasses are the one schema: each field states its type, its
default and its lower bound (``min``, or ``positive`` for > 0, in the field
metadata). The config file is a nested ``key: value`` document (YAML subset).
A file, ``--set`` overrides and ``build_config`` all end in one walk over the
dataclasses, which rejects unknown keys with their full path and coerces each
value by its annotation. Every scalar a run needs lives here: loss temperature
and weights, sampling sizes, model dims, the window schedule, data dims,
optimizer settings, seeds and paths.
"""

from __future__ import annotations

import copy
import functools
import math
import re
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import yaml

from .attention import ScheduleError, StageSpec, WindowSchedule, check_heads

# Special token ids; content tokens start at NUM_SPECIAL.
PAD_ID = 0
CLS_ID = 1
MASK_ID = 2
NUM_SPECIAL = 3


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key path."""


def _f(default, **bound):
    """A field with its default and its bound (``min=`` or ``positive=True``)."""
    return field(default=default, metadata=bound)


@dataclass(frozen=True)
class DataConfig:
    train_samples: int = _f(256, min=1)
    eval_samples: int = _f(100, min=1)
    clips: int = _f(4, min=1)
    frames_per_clip: int = _f(8, min=1)
    patch_rows: int = _f(4, min=1)
    patch_cols: int = _f(4, min=1)
    patch_dim: int = _f(8, min=1)
    max_tokens: int = _f(8, min=2)
    min_tokens: int = _f(6, min=2)
    content_vocab: int = _f(128, min=2)
    topic_dim: int = _f(8, min=1)
    openings: int = _f(16, min=1)
    opening_jitter: float = _f(0.25, min=0.0)
    walk_step: float = _f(0.6, min=0.0)
    patch_noise: float = _f(0.05, min=0.0)
    token_temperature: float = _f(0.15, positive=True)
    out_dir: str = "data/toy"

    @property
    def frames(self) -> int:
        return self.clips * self.frames_per_clip

    @property
    def vocab_size(self) -> int:
        return self.content_vocab + NUM_SPECIAL


@dataclass(frozen=True)
class TextModelConfig:
    dim: int = _f(32, min=1)
    heads: int = _f(4, min=1)
    sentence_layers: int = _f(2, min=1)
    paragraph_layers: int = _f(2, min=1)
    ffn_ratio: int = _f(4, min=1)


@dataclass(frozen=True)
class VideoModelConfig:
    ffn_ratio: int = _f(4, min=1)
    clip_pool_steps: int = _f(0, min=0)
    stages: tuple[StageSpec, ...] = tuple(
        StageSpec(1, 32, 4, window, None, merge) for window, merge in ((2, 2), (4, 2), (8, 1), (16, 1), (32, 1))
    )

    @property
    def schedule(self) -> WindowSchedule:
        return WindowSchedule(self.stages)


@dataclass(frozen=True)
class CrossModelConfig:
    dim: int = _f(32, min=1)
    heads: int = _f(4, min=1)
    layers: int = _f(2, min=1)
    ffn_ratio: int = _f(4, min=1)
    pool_window: tuple[int, int] = _f((1, 1), min=1)
    pool_stride: tuple[int, int] = _f((1, 1), min=1)


@dataclass(frozen=True)
class ModelConfig:
    contrastive_dim: int = _f(32, min=1)
    text: TextModelConfig = field(default_factory=TextModelConfig)
    video: VideoModelConfig = field(default_factory=VideoModelConfig)
    cross: CrossModelConfig = field(default_factory=CrossModelConfig)


@dataclass(frozen=True)
class LossConfig:
    temperature: float = _f(0.05, positive=True)
    mtc_weight: float = _f(1.0, min=0.0)
    vtm_weight: float = _f(10.0, min=0.0)
    anchor_count: int = _f(2, min=1)
    candidate_count: int = _f(2, min=1)
    cross_negative_count: int = _f(3, min=0)
    mask_rate: float = _f(0.15, positive=True)
    vtm_replace_prob: float = _f(0.5, min=0.0)


@dataclass(frozen=True)
class TrainSettings:
    batch_size: int = _f(8, min=2)  # in-batch negatives need a second pair
    stage1_steps: int = _f(2000, min=1)
    stage2_steps: int = _f(1000, min=1)
    learning_rate: float = _f(1e-3, positive=True)
    weight_decay: float = _f(0.05, min=0.0)
    warmup_epochs: float = _f(1.0, min=0.0)
    beta1: float = _f(0.9, min=0.0)
    beta2: float = _f(0.999, min=0.0)
    adam_eps: float = _f(1e-8, positive=True)
    out_dir: str = "runs/toy"


@dataclass(frozen=True)
class Config:
    seed: int = _f(0, min=0)
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    losses: LossConfig = field(default_factory=LossConfig)
    train: TrainSettings = field(default_factory=TrainSettings)


# ---------------------------------------------------------------------------
# the walk: document -> typed config
# ---------------------------------------------------------------------------

_PAIR = tuple[int, int]
_STAGES = tuple[StageSpec, ...]
_hints = functools.cache(typing.get_type_hints)
_SCALARS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}

# A decimal or scientific number; YAML 1.1 reads 1e-3 and 1.0e9 as strings.
_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _build(cls, doc, path: str):
    """An instance of the dataclass ``cls`` from a mapping; keys it leaves
    out take the field defaults."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config document'}: expected a mapping, got {doc!r}")
    hints, prefix = _hints(cls), f"{path}." if path else ""
    for key in doc:
        if key not in hints:
            raise ConfigError(f"{prefix}{key}: unknown key")
    values = {}
    for f in fields(cls):
        if f.name in doc:
            values[f.name] = _coerce(hints[f.name], doc[f.name], prefix + f.name, f.metadata)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}: missing key {f.name}")
    try:
        return cls(**values)
    except ScheduleError as e:
        raise ConfigError(f"{path}: {e}") from None


def _coerce(tp, value, path: str, bound):
    if is_dataclass(tp):
        return _build(tp, value, path)
    if tp == _STAGES:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{path}: expected a non-empty list, got {value!r}")
        return tuple(_build(StageSpec, st, f"{path}[{i}]") for i, st in enumerate(value))
    if tp in (_PAIR, _PAIR | None):
        if tp != _PAIR and value in ("full", None):
            return None
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            shape = "[h, w]" if tp == _PAIR else "'full' or [h, w]"
            raise ConfigError(f"{path}: expected {shape}, got {value!r}")
        return tuple(_coerce(int, v, path, bound) for v in value)
    if tp is float and isinstance(value, str) and _NUMBER.fullmatch(value):
        value = float(value)
    accepts, kind = _SCALARS[tp]
    if not isinstance(value, accepts) or (tp is not str and (isinstance(value, bool) or not math.isfinite(value))):
        raise ConfigError(f"{path}: expected {kind}, got {value!r}")
    value = tp(value)
    if bound.get("positive") and value <= 0:
        raise ConfigError(f"{path}: must be > 0, got {value}")
    if "min" in bound and value < bound["min"]:
        raise ConfigError(f"{path}: must be >= {bound['min']}, got {value}")
    return value


def check_field(path: str, value):
    """``value`` coerced by the type of the field at the dotted ``path`` and
    checked against its bound, as the walk checks a document."""
    *sections, name = path.split(".")
    cls = functools.reduce(lambda c, key: _hints(c)[key], sections, Config)
    (f,) = (f for f in fields(cls) if f.name == name)
    return _coerce(_hints(cls)[name], value, path, f.metadata)


def _expect(cond: bool, path: str, reason: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {reason}")


def _shape_rule(path: str, check, *args):
    """check(*args), a shape rule of the attention module, failing under path."""
    try:
        return check(*args)
    except ScheduleError as e:
        raise ConfigError(f"{path}: {e}") from None


def _check_rules(cfg: Config) -> None:
    """The rules that tie fields together, the upper bounds of two rates and
    of AdamW's betas, and a finite warmup."""
    data, model, losses = cfg.data, cfg.model, cfg.losses
    grid = (data.patch_rows, data.patch_cols)
    _expect(data.min_tokens <= data.max_tokens, "data.min_tokens", "must be <= data.max_tokens")
    _shape_rule("model.text.dim", check_heads, model.text.dim, model.text.heads)
    schedule = model.video.schedule
    _shape_rule("model.video.stages", schedule.validate, data.frames, grid)
    layout = schedule.layout(data.frames, grid, data.patch_dim)
    # The clip stage map must survive clip_pool_steps halvings.
    ch, cw = layout[_shape_rule("model.video.stages", schedule.clip_stage, data.frames_per_clip)].grid
    div = 2**model.video.clip_pool_steps
    _expect(
        ch % div == 0 and cw % div == 0,
        "model.video.clip_pool_steps",
        f"{model.video.clip_pool_steps} 2x2 mean-pools need the clip-stage grid {(ch, cw)} divisible by {div}",
    )
    cross = model.cross
    _shape_rule("model.cross.dim", check_heads, cross.dim, cross.heads)
    fh, fw = layout[-1].grid
    _expect(
        cross.pool_window[0] <= fh and cross.pool_window[1] <= fw,
        "model.cross.pool_window",
        f"window {cross.pool_window} exceeds the final feature grid {(fh, fw)}",
    )
    _expect(losses.mask_rate < 1.0, "losses.mask_rate", "must be in (0, 1)")
    _expect(losses.vtm_replace_prob <= 1.0, "losses.vtm_replace_prob", "must be in [0, 1]")
    _expect(losses.anchor_count <= data.clips, "losses.anchor_count", f"must be <= data.clips ({data.clips})")
    _expect(losses.candidate_count <= data.clips, "losses.candidate_count", f"must be <= data.clips ({data.clips})")
    _expect(cfg.train.beta1 < 1.0, "train.beta1", "must be in [0, 1)")
    _expect(cfg.train.beta2 < 1.0, "train.beta2", "must be in [0, 1)")
    warmup_step_count(cfg.train, data.train_samples)


def warmup_step_count(train: TrainSettings, n_train: int) -> int:
    """The warmup's length in steps: `train.warmup_epochs` epochs of the
    whole batches of `n_train` rows. Refused when it is not finite."""
    per_epoch = max(1, n_train // train.batch_size)
    steps = train.warmup_epochs * per_epoch
    _expect(math.isfinite(steps), "train.warmup_epochs", f"{train.warmup_epochs} epochs of {per_epoch} steps is not a finite step count")
    return round(steps)


def build_config(doc: dict) -> Config:
    """Validate a config document and build the typed config; keys the
    document leaves out take their defaults."""
    cfg = _build(Config, doc, "")
    _check_rules(cfg)
    return cfg


# ---------------------------------------------------------------------------
# documents: defaults, files, overrides, dumps
# ---------------------------------------------------------------------------


def _to_doc(value):
    """The document form of a config value. Stages list ``merge`` before
    ``spatial_window``, and a full spatial window as "full"."""
    if isinstance(value, StageSpec):
        doc = {k: getattr(value, k) for k in ("layers", "dim", "heads", "temporal_window", "merge")}
        doc["spatial_window"] = "full" if value.spatial_window is None else list(value.spatial_window)
        return doc
    if is_dataclass(value):
        return {f.name: _to_doc(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_doc(v) for v in value]
    return value


def _parse_yaml(text: str, where: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"{where}: malformed YAML{at}: {getattr(e, 'problem', None) or type(e).__name__}") from None


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def merge_config_dict(overlay: dict | None) -> dict:
    """The default document deep-merged with an overlay document. Lists,
    such as the stages, are replaced whole; ``build_config`` checks the
    result."""
    overlay = overlay or {}
    if not isinstance(overlay, dict):
        raise ConfigError("config document must be a mapping")
    return _deep_merge(_to_doc(Config()), overlay)


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
        node[keys[-1]] = _parse_yaml(raw, f"override '{item}'")
    return doc


def load_config(path: str | Path | None = None, overrides: list[str] | None = None, seed: int | None = None) -> Config:
    """Config from defaults <- file <- dotted overrides <- explicit seed."""
    overlay: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text (byte {e.start})") from None
        except OSError as e:
            raise ConfigError(f"{path}: cannot read ({e.strerror})") from None
        loaded = _parse_yaml(text, str(path))
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
    return build_config({})


def dump_config(cfg: Config) -> str:
    """The effective config as the nested key: value text format."""
    return yaml.safe_dump(_to_doc(cfg), sort_keys=False, default_flow_style=False)


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
