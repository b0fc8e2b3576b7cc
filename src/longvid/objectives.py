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

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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


def positive_labels(anchor_pos: np.ndarray, cand_pos: np.ndarray) -> np.ndarray:
    """Index into each row of ascending candidate positions (..., K) of the
    temporally nearest candidate of each anchor position (..., k); argmin
    keeps the first minimum, so ties break to the lower position."""
    return np.abs(anchor_pos[..., :, None] - cand_pos[..., None, :]).argmin(axis=-1)


def _mtc_kernel(
    anchor_flat: DiffArray,
    cand_flat: DiffArray,
    anchor_rows: np.ndarray,
    cand_rows: np.ndarray,
    negatives: DiffArray | None,
    labels: np.ndarray,
    temperature: float,
) -> DiffArray:
    """Mean over B samples of each sample's mean anchor cross-entropy.

    anchor_flat / cand_flat: (B·M, d) rows; anchor_rows (B, k) and
    cand_rows (B, K) index them; negatives: (B, n, d) or None. Each anchor
    scores its sample's candidates, then its sample's negatives.
    """
    B = labels.shape[0]
    cands = O.take(cand_flat, cand_rows)  # (B, K, d)
    if negatives is not None:
        cands = O.concat([cands, negatives], axis=1)  # (B, K + n, d)
    anchors = O.take(anchor_flat, anchor_rows)  # (B, k, d)
    logits = O.scale(O.matmul(anchors, O.transpose(cands, (0, 2, 1))), 1.0 / temperature)
    return O.scale(O.sum(O.cross_entropy_logits(logits, labels)), 1.0 / B)


_DIRECTION_TAGS = {"v2t": 1, "t2v": 2}


def sample_rng(seed_key, direction: str, sample_key: int) -> np.random.Generator:
    """The per-(direction, sample) stream used by the batch loss; exposed so
    oracles can reproduce the exact draws."""
    return np.random.default_rng([*seed_key, _DIRECTION_TAGS[direction], sample_key])


class MtcPlan(NamedTuple):
    """Index plan of one direction over the flat (B·M, d) batch: anchor rows
    (B, k), candidate rows (B, K), cross-sample negative rows (B, n) and the
    label of each anchor among its candidates (B, k). Read-only."""

    anchor_rows: np.ndarray
    candidate_rows: np.ndarray
    negative_rows: np.ndarray
    labels: np.ndarray


@functools.lru_cache(maxsize=2)
def mtc_plan(seed_key: tuple, direction: str, sample_keys: tuple, M: int, sampling: MtcSampling) -> MtcPlan:
    """Every draw of one direction of `mtc_loss`, from the stream of each
    (direction, sample key): first the sample's cross-sample negatives,
    with replacement only when the B·M − M rows of the other samples are
    fewer than asked, then its anchors, then its candidates, each set
    without replacement and sorted. Sample b's rows are b·M plus positions.

    Pure in its arguments, so cached: the two entries hold both directions
    of one loss key, which the numeric evaluations of a gradient check all
    share.
    """
    B, n = len(sample_keys), sampling.cross_negatives
    pool = (B - 1) * M
    negative_rows = np.empty((B, n), dtype=np.int64)
    anchor_rows = np.empty((B, sampling.anchors), dtype=np.int64)
    cand_rows = np.empty((B, sampling.candidates), dtype=np.int64)
    for b, key in enumerate(sample_keys):
        rng = sample_rng(seed_key, direction, key)
        if n:
            # row j of the pool, which leaves out sample b's own M rows
            j = rng.choice(pool, size=n, replace=pool < n)
            negative_rows[b] = j + M * (j >= b * M)
        anchor_rows[b] = b * M + np.sort(rng.choice(M, size=sampling.anchors, replace=False))
        cand_rows[b] = b * M + np.sort(rng.choice(M, size=sampling.candidates, replace=False))
    plan = MtcPlan(anchor_rows, cand_rows, negative_rows, positive_labels(anchor_rows, cand_rows))
    for rows in plan:
        rows.flags.writeable = False
    return plan


def mtc_loss(clip_reps: DiffArray, sentence_reps: DiffArray, sampling: MtcSampling, temperature: float, seed_key) -> DiffArray:
    """Batch temporal contrastive loss, averaged over both directions.

    clip_reps / sentence_reps: (B, M, d) unit-norm. Every draw of a sample
    comes from the stream keyed by (seed_key, direction, batch position),
    as `mtc_plan` lays it out, so a sample's draws depend on where it sits
    in the batch. Cross-sample negatives come from the other samples'
    representations of the candidate modality (sentences when clips anchor,
    clips when sentences anchor).
    """
    B, M, d = clip_reps.shape
    if sentence_reps.shape != (B, M, d):
        raise EngineError(f"shape mismatch: {clip_reps.shape} vs {sentence_reps.shape}")
    if M < 2:
        raise EngineError(f"need >= 2 representations per side, got {M}")
    if sampling.anchors > M or sampling.candidates > M:
        raise EngineError(f"cannot sample {sampling.anchors}/{sampling.candidates} from {M} positions")
    if temperature <= 0:
        raise EngineError("temperature must be > 0")
    if B == 1 and sampling.cross_negatives > 0:
        warnings.warn("batch of one sample has no cross-sample negatives; using none", stacklevel=2)
        sampling = MtcSampling(sampling.anchors, sampling.candidates, 0)
    seed_key = tuple(seed_key)
    clips, sentences = O.reshape(clip_reps, (B * M, d)), O.reshape(sentence_reps, (B * M, d))

    def one_direction(direction: str, anchor_flat: DiffArray, cand_flat: DiffArray) -> DiffArray:
        plan = mtc_plan(seed_key, direction, tuple(range(B)), M, sampling)
        negatives = O.take(cand_flat, plan.negative_rows) if sampling.cross_negatives else None
        return _mtc_kernel(anchor_flat, cand_flat, plan.anchor_rows, plan.candidate_rows, negatives, plan.labels, temperature)

    v2t = one_direction("v2t", clips, sentences)
    t2v = one_direction("t2v", sentences, clips)
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
