"""Training objectives.

Stage one aligns the two encoders: a symmetric in-batch contrastive loss on
whole-video / whole-paragraph representations, plus the temporal contrastive
loss that pulls each sampled clip representation toward the temporally
nearest sampled sentence (and vice versa) against the remaining candidates
and cross-sample negatives. Stage two trains the cross-modal encoder with
masked-token prediction and 2-class video-text matching.

All representation inputs are expected unit-norm over the last axis; every
loss is a nonnegative scalar DiffArray.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import params as P
from .engine import DiffArray, EngineError
from .engine import ops as O


@dataclass(frozen=True)
class MtcSampling:
    """Sampling sizes for the temporal contrastive loss: anchor count,
    candidate count, and cross-sample negative count."""

    anchors: int
    candidates: int
    cross_negatives: int

    def __post_init__(self):
        if self.anchors < 1:
            raise EngineError("anchor count must be >= 1")
        if self.candidates < 1:
            raise EngineError("candidate count must be >= 1")
        if self.cross_negatives < 0:
            raise EngineError("cross-negative count must be >= 0")


def select_positive(anchor: int, candidates: list[int]) -> int:
    """Candidate with minimal temporal distance; ties break to lower index."""
    if not candidates:
        raise EngineError("candidate set must be non-empty")
    best = candidates[0]
    for q in candidates[1:]:
        if abs(anchor - q) < abs(best - anchor) or (abs(anchor - q) == abs(best - anchor) and q < best):
            best = q
    return best


def mtc_pair_loss(
    anchor_reps: DiffArray,
    candidate_reps: DiffArray,
    negatives: DiffArray | None,
    sampling: MtcSampling,
    temperature: float,
    rng: np.random.Generator,
) -> DiffArray:
    """Temporal contrastive loss for one aligned pair of sequences.

    anchor_reps / candidate_reps: (M, d) unit-norm rows of the two
    modalities. Draws the anchor and candidate index sets without
    replacement, then for each anchor scores the candidates plus the given
    cross-sample negatives and cross-entropies against the temporally
    nearest candidate.
    """
    M = anchor_reps.shape[0]
    if M < 2:
        raise EngineError(f"need >= 2 representations per side, got {M}")
    if candidate_reps.shape[0] != M:
        raise EngineError(f"sequence lengths differ: {M} vs {candidate_reps.shape[0]}")
    if sampling.anchors > M or sampling.candidates > M:
        raise EngineError(f"cannot sample {sampling.anchors}/{sampling.candidates} from {M} positions")
    if temperature <= 0:
        raise EngineError("temperature must be > 0")

    anchor_idx = np.sort(rng.choice(M, size=sampling.anchors, replace=False))
    cand_idx = np.sort(rng.choice(M, size=sampling.candidates, replace=False))

    anchors = O.take(anchor_reps, anchor_idx, axis=0)  # (k, d)
    cands = O.take(candidate_reps, cand_idx, axis=0)  # (|K|, d)
    logits = O.scale(O.matmul(anchors, O.transpose(cands)), 1.0 / temperature)
    if negatives is not None and negatives.shape[0] > 0:
        neg = O.scale(O.matmul(anchors, O.transpose(negatives)), 1.0 / temperature)
        logits = O.concat([logits, neg], axis=1)

    labels = np.array(
        [list(cand_idx).index(select_positive(int(p), [int(q) for q in cand_idx])) for p in anchor_idx],
        dtype=np.int64,
    )
    return O.cross_entropy_logits(logits, labels)


def _draw_cross_negatives(
    reps: DiffArray, exclude: int, count: int, rng: np.random.Generator
) -> DiffArray | None:
    """count rows drawn from all samples except `exclude`, flattened over
    (sample, position)."""
    if count == 0:
        return None
    B, M, d = reps.shape
    pool = np.array([(b, m) for b in range(B) if b != exclude for m in range(M)], dtype=np.int64)
    pick = rng.choice(len(pool), size=count, replace=len(pool) < count)
    flat = O.reshape(reps, (B * M, d))
    return O.take(flat, pool[pick, 0] * M + pool[pick, 1], axis=0)


_DIRECTION_TAGS = {"v2t": 1, "t2v": 2}


def sample_rng(seed_key, direction: str, sample_key: int) -> np.random.Generator:
    """The per-(direction, sample) stream used by the batch loss; exposed so
    oracles can reproduce the exact draws."""
    return np.random.default_rng([*seed_key, _DIRECTION_TAGS[direction], sample_key])


def mtc_loss(
    clip_reps: DiffArray,
    sentence_reps: DiffArray,
    sampling: MtcSampling,
    temperature: float,
    seed_key,
    sample_keys: list[int] | None = None,
    negatives_fn=None,
) -> DiffArray:
    """Batch temporal contrastive loss, averaged over both directions.

    clip_reps / sentence_reps: (B, M, d) unit-norm. Every draw comes from a
    stream keyed by (seed_key, direction, sample key). The sample key is the
    batch position unless `sample_keys` gives one per sample, so with the
    default (every program call) a sample's draws depend on where it sits in
    the batch. `sample_keys` exists for the duplication-invariance test,
    which gives two copies of a sample the same key. Cross-sample negatives
    come from the other samples' representations of the candidate modality
    (sentences when clips anchor, clips when sentences anchor);
    `negatives_fn(direction, sample, rng)` overrides the draw for tests.
    """
    B, M, d = clip_reps.shape
    if sentence_reps.shape != (B, M, d):
        raise EngineError(f"shape mismatch: {clip_reps.shape} vs {sentence_reps.shape}")
    if sample_keys is not None and len(sample_keys) != B:
        raise EngineError(f"sample_keys length {len(sample_keys)} != batch {B}")
    sampling_eff = sampling
    if B == 1 and sampling.cross_negatives > 0:
        warnings.warn("batch of one sample has no cross-sample negatives; using none", stacklevel=2)
        sampling_eff = MtcSampling(sampling.anchors, sampling.candidates, 0)

    def one_direction(anchors_all: DiffArray, cands_all: DiffArray, direction: str) -> DiffArray:
        per_sample = []
        for b in range(B):
            rng = sample_rng(seed_key, direction, sample_keys[b] if sample_keys else b)
            if negatives_fn is not None:
                negs = negatives_fn(direction, b, rng)
            else:
                negs = _draw_cross_negatives(cands_all, b, sampling_eff.cross_negatives, rng)
            a = O.reshape(O.take(anchors_all, np.array([b]), axis=0), (M, d))
            c = O.reshape(O.take(cands_all, np.array([b]), axis=0), (M, d))
            per_sample.append(mtc_pair_loss(a, c, negs, sampling_eff, temperature, rng))
        total = per_sample[0]
        for term in per_sample[1:]:
            total = O.add(total, term)
        return O.scale(total, 1.0 / B)

    v2t = one_direction(clip_reps, sentence_reps, "v2t")
    t2v = one_direction(sentence_reps, clip_reps, "t2v")
    return O.scale(O.add(v2t, t2v), 0.5)


def global_contrastive_loss(video_reps: DiffArray, paragraph_reps: DiffArray, temperature: float) -> DiffArray:
    """Symmetric in-batch contrastive loss over (B, d) unit-norm rows."""
    if temperature <= 0:
        raise EngineError("temperature must be > 0")
    B = video_reps.shape[0]
    if B < 2:
        raise EngineError(f"need a batch of >= 2 for in-batch negatives, got {B}")
    if paragraph_reps.shape != video_reps.shape:
        raise EngineError(f"shape mismatch: {video_reps.shape} vs {paragraph_reps.shape}")
    logits = O.scale(O.matmul(video_reps, O.transpose(paragraph_reps)), 1.0 / temperature)
    diag = np.arange(B)
    v2t = O.cross_entropy_logits(logits, diag)
    t2v = O.cross_entropy_logits(O.transpose(logits), diag)
    return O.scale(O.add(v2t, t2v), 0.5)


def mlm_loss(
    token_feats: DiffArray,
    masked_positions: np.ndarray,
    labels: np.ndarray,
    mlm_head: dict,
) -> DiffArray:
    """Mean cross-entropy at masked positions only.

    token_feats: (B, n, d) joint token outputs; masked_positions: (k, 2)
    rows of (batch, token index); labels: (k,) original ids.
    """
    masked_positions = np.asarray(masked_positions, dtype=np.int64)
    if masked_positions.size == 0:
        warnings.warn("no masked positions; masked-token loss defined as 0", stacklevel=2)
        return O.scale(O.sum(O.mul(token_feats, 0.0)), 0.0)
    B, n, d = token_feats.shape
    flat_idx = masked_positions[:, 0] * n + masked_positions[:, 1]
    gathered = O.take(O.reshape(token_feats, (B * n, d)), flat_idx, axis=0)
    logits = P.linear(gathered, mlm_head)
    return O.cross_entropy_logits(logits, labels)


def vtm_loss(cls_feats: DiffArray, labels: np.ndarray, vtm_head: dict) -> DiffArray:
    """2-class cross-entropy on the projected [CLS]; label 1 = matched."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() > 1:
        raise EngineError("match labels must be 0 or 1")
    logits = P.linear(cls_feats, vtm_head)
    return O.cross_entropy_logits(logits, labels)


def vtm_accuracy(cls_feats: DiffArray, labels: np.ndarray, vtm_head: dict) -> float:
    logits = P.linear(cls_feats, vtm_head)
    pred = logits.data.argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())


def stage1_loss(global_term: DiffArray, mtc_term: DiffArray | None, mtc_weight: float) -> DiffArray:
    """Stage-one objective: global + weight * temporal term."""
    if mtc_term is None or mtc_weight == 0.0:
        return global_term
    return O.add(global_term, O.scale(mtc_term, mtc_weight))


def stage2_loss(mlm_term: DiffArray, vtm_term: DiffArray, vtm_weight: float) -> DiffArray:
    """Stage-two objective: masked-token + weight * matching term."""
    return O.add(mlm_term, O.scale(vtm_term, vtm_weight))


# ---------------------------------------------------------------------------
# independent scalar oracles (pure python, used by tests and the demos)
# ---------------------------------------------------------------------------


def brute_force_positive(anchor: int, candidates: list[int]) -> int:
    """Exhaustive positive selection: scan all candidates for the minimum
    |anchor - q|, keeping the lowest index on ties."""
    best_q = None
    best_d = None
    for q in sorted(candidates):
        dist = abs(anchor - q)
        if best_d is None or dist < best_d:
            best_q, best_d = q, dist
    return best_q


def brute_force_pair_loss(
    anchor_rows: np.ndarray,
    candidate_rows: np.ndarray,
    negative_rows: np.ndarray | None,
    anchor_idx: np.ndarray,
    cand_idx: np.ndarray,
    temperature: float,
) -> float:
    """Scalar recomputation of the temporal pair loss with math.exp/log."""
    total = 0.0
    cand_list = [int(q) for q in cand_idx]
    for p in anchor_idx:
        pos = brute_force_positive(int(p), cand_list)
        a = anchor_rows[int(p)]
        num = math.exp(float(np.dot(a, candidate_rows[pos])) / temperature)
        den = 0.0
        for q in cand_list:
            den += math.exp(float(np.dot(a, candidate_rows[q])) / temperature)
        if negative_rows is not None:
            for row in negative_rows:
                den += math.exp(float(np.dot(a, row)) / temperature)
        total += -math.log(num / den)
    return total / len(anchor_idx)
