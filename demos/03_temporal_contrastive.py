"""The temporal contrastive loss on synthetic aligned sequences.

Shows the nearest-in-time positive rule, the cross-sample negatives, and
that temporally aligned representations score a lower loss than a shuffled
alignment. The loss of one sample is recomputed by the pure-python oracle
from the draws of the loss's own plan.
"""

import numpy as np

from longvid.config import default_config
from longvid.data import generate
from longvid.engine import constant
from longvid.objectives import (
    MtcSampling,
    brute_force_pair_loss,
    brute_force_positive,
    mtc_loss,
    mtc_plan,
    positive_labels,
)

# Positive selection: min |anchor - candidate|, ties to the lower position.
for anchor, cands in ((1, [0, 3]), (2, [1, 3])):
    picked = cands[positive_labels(np.array([anchor]), np.array(cands))[0]]
    print(f"anchor={anchor}, candidates {cands} -> {picked}")
    assert picked == brute_force_positive(anchor, cands)

rng = np.random.default_rng(0)
M, d = 4, 16
base = rng.normal(size=(1, M, d))
base /= np.linalg.norm(base, axis=-1, keepdims=True)

sampling = MtcSampling(anchors=2, candidates=2, cross_negatives=0)
aligned = mtc_loss(constant(base), constant(base), sampling, 0.05, seed_key=(1,))
shuffled = mtc_loss(constant(base), constant(base[:, ::-1].copy()), sampling, 0.05, seed_key=(1,))
print(f"\naligned loss {aligned.item():.4f} < shuffled loss {shuffled.item():.4f}: {aligned.item() < shuffled.item()}")

# Oracle recomputation with math.exp/log over the same draws, both
# directions averaged as the loss averages them.
oracle = 0.0
for direction in ("v2t", "t2v"):
    plan = mtc_plan((1,), direction, (0,), M, sampling)
    oracle += brute_force_pair_loss(base[0], base[0], None, plan.anchor_rows[0], plan.candidate_rows[0], 0.05) / 2
print(f"engine {aligned.item():.12f} vs oracle {oracle:.12f}, diff {abs(aligned.item() - oracle):.2e}")
assert abs(aligned.item() - oracle) < 1e-10

# Batch form on generated data: clip reps of sample i against sentence reps,
# negatives drawn from the other samples, both directions averaged.
cfg = default_config()
train, _ = generate(cfg.data, 0)
topics = np.stack([s.topics for s in train[:6]])
reps = topics / np.linalg.norm(topics, axis=-1, keepdims=True)
noisy = reps + 0.05 * rng.normal(size=reps.shape)
noisy /= np.linalg.norm(noisy, axis=-1, keepdims=True)
loss = mtc_loss(constant(reps), constant(noisy), MtcSampling(2, 2, 3), 0.05, seed_key=(0, 0))
print(f"\nbatch loss on topic-aligned reps: {loss.item():.4f}")
loss_rolled = mtc_loss(constant(reps), constant(np.roll(noisy, 1, axis=0)), MtcSampling(2, 2, 3), 0.05, seed_key=(0, 0))
print(f"batch loss with misaligned pairing: {loss_rolled.item():.4f}")
