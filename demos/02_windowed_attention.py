"""Temporal window attention: locality, the masked-full-attention oracle,
and how receptive fields grow through the hierarchical schedule.
"""

import numpy as np

from longvid.attention import (
    StageSpec,
    WindowSchedule,
    WindowSpec,
    init_attention_params,
    masked_full_attention_reference,
    receptive_field,
    relative_index_map,
    window_merge,
    window_partition,
    windowed_mha,
)
from longvid.engine import constant

rng = np.random.default_rng(0)

# 8 frames of a 2x2 patch grid, 16-dim tokens, attention within windows of 2.
dim, heads = 16, 4
spec = WindowSpec(temporal=2)
params = init_attention_params(rng, dim, heads, window=(2, 2, 2))
index = relative_index_map((2, 2, 2))
tokens = rng.normal(size=(1, 8, 2, 2, dim))


def attend(grid):
    """What a video stage does: gather the grid into windows, attend inside
    each window, merge back to the grid."""
    windows = window_partition(constant(grid), spec)
    return window_merge(windowed_mha(windows, params, heads, index), spec, 8, 2, 2).data


windows = window_partition(constant(tokens), spec)
print(f"windows: {windows.shape[1]} temporal blocks of {windows.shape[2]} tokens")
out = attend(tokens)

# Locality: perturb a frame in window 0; windows 1..3 must not move a bit.
bumped = tokens.copy()
bumped[:, 0] += 5.0
unchanged = np.array_equal(out[:, 2:], attend(bumped)[:, 2:])
print(f"perturb frame 0 -> frames 2..7 bit-identical: {unchanged}")

# Oracle: full attention over all 32 tokens with an additive -1e9 mask
# between windows must give the same answer through different code.
ref = masked_full_attention_reference(constant(tokens), spec, params, heads)
print(f"windowed vs masked-full-attention, max |diff| = {np.abs(out - ref.data).max():.2e}")

# Receptive fields under the default five-stage schedule 2 -> 32.
schedule = WindowSchedule(tuple(StageSpec(1, dim, heads, w) for w in (2, 4, 8, 16, 32)))
for depth in range(1, 6):
    partial = WindowSchedule(schedule.stages[:depth])
    rf = receptive_field(partial, 5, 32)
    windows = [s.temporal_window for s in partial.stages]
    print(f"after stages {windows}: frame 5 sees {len(rf)} frames "
          f"[{min(rf)}..{max(rf)}]")
