"""Synthetic long-form video/paragraph data with controllable temporal
alignment.

Each sample carries M latent topic vectors produced by a bounded-step random
walk, so temporal distance and topic distance correlate. Clip m's frames are
noisy linear images of topic m; sentence m's tokens are drawn from a
topic-conditioned vocabulary distribution. The latent topics are kept on each
sample as ground truth for probes.

The module also holds the one reader and the one writer of every artifact
(shards, checkpoints, CSVs and reports).
"""

from __future__ import annotations

import csv
import io
import math
import struct
import uuid
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import CLS_ID, ConfigError, DataConfig, MASK_ID, NUM_SPECIAL, PAD_ID

# rng stream tags (mixed into the seed sequence so streams never collide)
_GLOBAL_STREAM = 101
_SAMPLE_STREAM = 102

SHARD_MAGIC = b"LVDS"
SHARD_VERSION = 1


@dataclass(frozen=True)
class PairedSample:
    """One aligned long-form sample: M clips of N frames + M sentences."""

    sample_id: int
    topics: np.ndarray  # (M, topic_dim)
    patches: np.ndarray  # (M, N, H, W, patch_dim) float64
    tokens: np.ndarray  # (M, L) int64, [CLS] first, [PAD] tail
    lengths: np.ndarray  # (M,) int64 real token counts incl. [CLS]


@dataclass
class MaskedBatch:
    """Token grid after masking-for-prediction."""

    token_ids: np.ndarray  # (B, M, L) with replacements applied
    positions: np.ndarray  # (k, 3) rows of (batch, sentence, token)
    labels: np.ndarray  # (k,) original ids at the masked positions


class GeneratorMatrices:
    """Seed-fixed structure shared by every sample of a dataset: topic-to-
    patch and topic-to-token-logit maps, plus the shared opening anchors.

    Walks start near one of a small set of openings, so a single clip (or
    sentence) is ambiguous across samples and only longer context identifies
    an item; that is what makes more frames genuinely worth having.
    """

    def __init__(self, cfg: DataConfig, seed: int):
        rng = np.random.default_rng([seed, _GLOBAL_STREAM])
        self.patch_map = rng.normal(size=(cfg.patch_dim, cfg.topic_dim)) / np.sqrt(cfg.topic_dim)
        self.token_map = rng.normal(size=(cfg.content_vocab, cfg.topic_dim)) / np.sqrt(cfg.topic_dim)
        anchors = rng.normal(size=(cfg.openings, cfg.topic_dim))
        self.opening_anchors = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _walk_topics(cfg: DataConfig, mats: GeneratorMatrices, rng: np.random.Generator) -> np.ndarray:
    topics = np.empty((cfg.clips, cfg.topic_dim))
    start = mats.opening_anchors[int(rng.integers(cfg.openings))]
    z = _unit(start + cfg.opening_jitter * rng.normal(size=cfg.topic_dim))
    topics[0] = z
    for m in range(1, cfg.clips):
        z = _unit(z + cfg.walk_step * rng.normal(size=cfg.topic_dim))
        topics[m] = z
    return topics


def generate_sample(cfg: DataConfig, mats: GeneratorMatrices, seed: int, sample_id: int) -> PairedSample:
    rng = np.random.default_rng([seed, _SAMPLE_STREAM, sample_id])
    topics = _walk_topics(cfg, mats, rng)

    patches = np.empty((cfg.clips, cfg.frames_per_clip, cfg.patch_rows, cfg.patch_cols, cfg.patch_dim))
    for m in range(cfg.clips):
        base = mats.patch_map @ topics[m]
        noise = rng.normal(scale=cfg.patch_noise, size=patches[m].shape)
        patches[m] = base + noise

    tokens = np.full((cfg.clips, cfg.max_tokens), PAD_ID, dtype=np.int64)
    lengths = np.empty(cfg.clips, dtype=np.int64)
    for m in range(cfg.clips):
        logits = mats.token_map @ topics[m] / cfg.token_temperature
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        length = int(rng.integers(cfg.min_tokens, cfg.max_tokens + 1))
        tokens[m, 0] = CLS_ID
        # Distinct tokens per sentence: degenerate one-word sentences would
        # otherwise recur verbatim across samples with nearby topics.
        tokens[m, 1:length] = NUM_SPECIAL + rng.choice(cfg.content_vocab, size=length - 1, p=probs, replace=False)
        lengths[m] = length
    return PairedSample(sample_id=sample_id, topics=topics, patches=patches, tokens=tokens, lengths=lengths)


def generate(cfg: DataConfig, seed: int) -> tuple[list[PairedSample], list[PairedSample]]:
    """Deterministic train/eval datasets with disjoint sample ids."""
    mats = GeneratorMatrices(cfg, seed)
    train = [generate_sample(cfg, mats, seed, i) for i in range(cfg.train_samples)]
    eval_ = [
        generate_sample(cfg, mats, seed, cfg.train_samples + i) for i in range(cfg.eval_samples)
    ]
    return train, eval_


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def stack_batch(samples: list[PairedSample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(token_ids (B, M, L), pad_mask, patches (B, M*N, H, W, p))."""
    tokens = np.stack([s.tokens for s in samples])
    pad = tokens != PAD_ID
    patches = np.stack([s.patches.reshape(-1, *s.patches.shape[2:]) for s in samples])
    return tokens, pad, patches


def truncate_clips(sample: PairedSample, clips: int) -> PairedSample:
    """Short-form view of a long-form sample: its first `clips` pairs.

    Used by the frame-count comparison: a model trained on fewer frames gets
    to see only this much of each item, train and eval alike.
    """
    if not 1 <= clips <= sample.topics.shape[0]:
        raise ValueError(f"cannot take {clips} clips from {sample.topics.shape[0]}")
    return PairedSample(
        sample_id=sample.sample_id,
        topics=sample.topics[:clips].copy(),
        patches=sample.patches[:clips].copy(),
        tokens=sample.tokens[:clips].copy(),
        lengths=sample.lengths[:clips].copy(),
    )


# ---------------------------------------------------------------------------
# masking for masked-token prediction
# ---------------------------------------------------------------------------


def mask_tokens(token_ids: np.ndarray, rate: float, rng: np.random.Generator, vocab_size: int) -> MaskedBatch:
    """BERT-style masking of non-special tokens.

    Selects positions at `rate`; of those, 80% become [MASK], 10% a random
    content token, 10% stay unchanged. Special tokens are never selected.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"mask rate must be in (0, 1), got {rate}")
    out = token_ids.copy()
    maskable = token_ids >= NUM_SPECIAL
    coins = rng.random(token_ids.shape)
    chosen = maskable & (coins < rate)
    positions = np.argwhere(chosen)
    labels = token_ids[chosen]

    action = rng.random(len(positions))
    replace_random = rng.integers(NUM_SPECIAL, vocab_size, size=len(positions))
    for i, (pos, a) in enumerate(zip(positions, action)):
        idx = tuple(pos)
        if a < 0.8:
            out[idx] = MASK_ID
        elif a < 0.9:
            out[idx] = replace_random[i]
        # else: keep the original token
    return MaskedBatch(token_ids=out, positions=positions, labels=labels)


# ---------------------------------------------------------------------------
# matched/mismatched pairing for the matching task
# ---------------------------------------------------------------------------


def vtm_pairs(patches: np.ndarray, prob: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Replace each sample's video by another sample's with probability
    `prob`; returns (patches, labels) with label 0 at replaced rows."""
    B = patches.shape[0]
    if B < 2:
        raise ValueError(f"pairing needs a batch of >= 2, got {B}")
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"replace probability must be in [0, 1], got {prob}")
    out = patches.copy()
    labels = np.ones(B, dtype=np.int64)
    for i in range(B):
        if rng.random() < prob:
            donor = int(rng.integers(B - 1))
            if donor >= i:
                donor += 1
            out[i] = patches[donor]
            labels[i] = 0
    return out, labels


# ---------------------------------------------------------------------------
# artifact io: one reader and one writer for shards, checkpoints and reports
# ---------------------------------------------------------------------------


class CorruptFileError(ConfigError):
    """A shard or checkpoint path is not a regular file, or its bytes do not decode as its format requires."""


class TruncatedFileError(CorruptFileError):
    """A shard or checkpoint ends before the bytes its header promises."""


class ArtifactReader:
    """Bounded reads from an open shard or checkpoint: a corrupt header's
    huge byte count is refused before anything is allocated."""

    def __init__(self, fh, path: Path, kind: str):
        self.fh, self.path, self.kind = fh, path, kind
        self.left = fh.seek(0, 2)
        fh.seek(0)

    def corrupt(self, what: str) -> CorruptFileError:
        return CorruptFileError(f"{self.path}: corrupt {self.kind} ({what})")

    def take(self, n: int) -> bytes:
        if n > self.left:
            raise TruncatedFileError(f"{self.path}: truncated file (wanted {n} bytes at offset {self.fh.tell()}, {self.left} left)")
        self.left -= n
        return self.fh.read(n)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int, what: str) -> str:
        raw = self.take(n)
        try:
            return raw.decode()
        except UnicodeDecodeError:
            raise self.corrupt(f"{what} at offset {self.fh.tell() - n} is not UTF-8") from None

    def array(self, shape: tuple[int, ...], stored: str, dtype=np.float64) -> np.ndarray:
        """A writable `dtype` copy of the next array, stored as `stored`."""
        raw = self.take(np.dtype(stored).itemsize * math.prod(shape))
        try:
            return np.frombuffer(raw, dtype=stored).reshape(shape).astype(dtype)
        except ValueError as e:  # more dims than numpy allows, or a zero-size shape too large to index
            raise self.corrupt(f"array shape {shape} at offset {self.fh.tell() - len(raw)}: {e}") from None


def read_artifact(path: str | Path, kind: str, magic: bytes, version: int, read_body, missing=FileNotFoundError):
    """Open a `kind` file, check its magic and u32 version, and return
    `read_body(reader)`. Bytes after the body's last field are refused."""
    path = Path(path)
    if not path.exists():
        raise missing(f"{kind} not found: {path}")
    if not path.is_file():
        raise CorruptFileError(f"{path}: not a {kind} (not a regular file)")
    with open(path, "rb") as fh:
        reader = ArtifactReader(fh, path, kind)
        found = reader.take(len(magic))
        if found != magic:
            raise CorruptFileError(f"{path}: not a {kind} (magic {found!r})")
        (found,) = reader.unpack("<I")
        if found != version:
            raise CorruptFileError(f"{path}: unsupported {kind} version {found} (this reader knows {version})")
        body = read_body(reader)
        if reader.left:
            raise reader.corrupt(f"{reader.left} trailing bytes after the last field, at offset {fh.tell()}")
    return body


def write_artifact(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the chunks to a temporary file beside path, then move it into place: a failed
    write leaves what was at path before, and no temporary file. Creates parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_bytes(rows: Iterable[Iterable]) -> bytes:
    """Rows as comma-separated lines, each ending in a bare newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


# after the magic and version: these u32 fields, then per sample its u64 id, f8 topics (M, topic_dim),
# f8 patches (M, N, H, W, p), u4 tokens (M, L) and u4 lengths (M,)
_SHARD_FIELDS = ("clips", "frames_per_clip", "patch_rows", "patch_cols", "patch_dim", "max_tokens", "vocab_size", "count", "topic_dim")


def write_shard(path: str | Path, samples: list[PairedSample], cfg: DataConfig) -> None:
    dims = [len(samples) if name == "count" else getattr(cfg, name) for name in _SHARD_FIELDS]

    def chunks():
        yield SHARD_MAGIC + struct.pack(f"<I{len(dims)}I", SHARD_VERSION, *dims)
        for s in samples:
            yield struct.pack("<Q", s.sample_id)
            yield s.topics.astype("<f8").tobytes()
            yield s.patches.astype("<f8").tobytes()
            yield s.tokens.astype("<u4").tobytes()
            yield s.lengths.astype("<u4").tobytes()

    write_artifact(path, chunks())


def read_shard(path: str | Path) -> tuple[list[PairedSample], dict]:
    def body(r: ArtifactReader):
        dims = r.unpack(f"<{len(_SHARD_FIELDS)}I")
        M, N, H, W, p, L, vocab_size, count, dz = dims
        samples = []
        for i in range(count):
            (sid,) = r.unpack("<Q")
            topics = r.array((M, dz), "<f8")
            patches = r.array((M, N, H, W, p), "<f8")
            tokens = r.array((M, L), "<u4", np.int64)
            no_cls = np.flatnonzero(tokens[:, 0] != CLS_ID) if L else range(M)  # the text encoder reads [CLS] first
            if tokens.size and tokens.max() >= vocab_size:
                raise r.corrupt(f"sample {i} (id {sid}): token id {tokens.max()} is not below vocab_size {vocab_size}")
            if len(no_cls):
                raise r.corrupt(f"sample {i} (id {sid}): sentence {no_cls[0]} does not start with [CLS]")
            lengths = r.array((M,), "<u4", np.int64)
            samples.append(PairedSample(sid, topics, patches, tokens, lengths))
        return samples, dict(zip(_SHARD_FIELDS, dims))

    return read_artifact(path, "data shard", SHARD_MAGIC, SHARD_VERSION, body)


def load_split(cfg: DataConfig, seed: int, split: str) -> list[PairedSample]:
    """The samples of one split ("train" or "eval"): read from its shard
    under ``cfg.out_dir`` if there is one, else generated. A shard whose
    header disagrees with ``cfg`` in any field but its count is refused."""
    shard = Path(cfg.out_dir) / f"{split}.shard"
    if not shard.exists():
        train, eval_ = generate(cfg, seed)
        return train if split == "train" else eval_
    samples, meta = read_shard(shard)
    for name, value in meta.items():
        if name != "count" and value != getattr(cfg, name):
            raise ConfigError(f"{shard}: written with data.{name}={value}, but the config has {getattr(cfg, name)}")
    return samples


# ---------------------------------------------------------------------------
# probes (sanity that the alignment task is solvable)
# ---------------------------------------------------------------------------


def clip_observation(sample: PairedSample) -> np.ndarray:
    """Mean patch vector of each clip: (M, patch_dim)."""
    return sample.patches.mean(axis=(1, 2, 3))


def sentence_observation(sample: PairedSample, vocab_size: int) -> np.ndarray:
    """Normalized content-token histogram of each sentence: (M, vocab)."""
    M, L = sample.tokens.shape
    hist = np.zeros((M, vocab_size))
    for m in range(M):
        real = sample.tokens[m, 1 : sample.lengths[m]]
        for t in real:
            hist[m, t] += 1.0
        hist[m] /= max(1, len(real))
    return hist


def nearest_topic_accuracy(observations: np.ndarray, fit_targets: np.ndarray, samples: list[PairedSample]) -> float:
    """Fit a least-squares linear probe from observations to topics, then
    score nearest-neighbor matching against each sample's own M topics."""
    probe, *_ = np.linalg.lstsq(observations, fit_targets, rcond=None)
    predicted = observations @ probe
    M = samples[0].topics.shape[0]
    hits = 0
    total = 0
    for i, s in enumerate(samples):
        for m in range(M):
            z = predicted[i * M + m]
            dists = np.linalg.norm(s.topics - z, axis=1)
            hits += int(np.argmin(dists) == m)
            total += 1
    return hits / total
