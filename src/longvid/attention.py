"""Multi-head self-attention restricted to temporal (and spatial) windows.

A token grid is a DiffArray of shape (T, H, W, dim): T time steps, H x W
spatial patches. A window spec slices the grid into T/w temporal blocks,
each further tiled by the spatial window; attention runs independently
inside every block, so influence across blocks is exactly zero by
construction. Schedules stack stages of growing temporal window so late
layers see the whole clip sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import params as P
from .engine import DiffArray
from .engine import ops as O


class ScheduleError(ValueError):
    """Invalid window schedule or window spec."""


def check_heads(dim: int, heads: int) -> None:
    """The head rule: heads split dim evenly."""
    if heads < 1 or dim % heads:
        raise ScheduleError(f"dim {dim} not divisible by heads {heads}")


@dataclass(frozen=True)
class WindowSpec:
    """Attention window for one layer.

    spatial is (h, w) in patches, or None for the full spatial extent.
    """

    temporal: int
    spatial: tuple[int, int] | None = None

    def resolve_spatial(self, grid_h: int, grid_w: int) -> tuple[int, int]:
        return (grid_h, grid_w) if self.spatial is None else self.spatial

    def validate(self, t: int, grid_h: int, grid_w: int) -> None:
        sh, sw = self.resolve_spatial(grid_h, grid_w)
        if min(self.temporal, sh, sw) < 1:
            raise ScheduleError(f"window {(self.temporal, sh, sw)} must be positive")
        if t % self.temporal or grid_h % sh or grid_w % sw:
            raise ScheduleError(f"window {(self.temporal, sh, sw)} does not divide (T, H, W) = {(t, grid_h, grid_w)}")


@dataclass(frozen=True)
class StageSpec:
    """One stage of the hierarchical schedule. The field metadata gives the
    config's lower bounds."""

    layers: int = field(metadata={"min": 1})
    dim: int = field(metadata={"min": 1})
    heads: int = field(metadata={"min": 1})
    temporal_window: int = field(metadata={"min": 1})
    spatial_window: tuple[int, int] | None = field(default=None, metadata={"min": 1})
    merge: int = field(default=1, metadata={"min": 1})  # spatial patch-merge factor applied before the stage

    def __post_init__(self):
        if self.layers < 1 or self.dim < 1 or self.heads < 1:
            raise ScheduleError("stage layers/dim/heads must be positive")
        check_heads(self.dim, self.heads)
        if self.temporal_window < 1 or self.merge < 1:
            raise ScheduleError("temporal window and merge factor must be positive")


@dataclass(frozen=True)
class StageLayout:
    """Where one stage sits in the trunk: its spec and window, the (h, w) grid
    after its merge, its (t, sh, sw) window shape and the width it receives."""

    stage: StageSpec
    spec: WindowSpec
    grid: tuple[int, int]
    window: tuple[int, int, int]
    d_in: int

    @property
    def projects(self) -> bool:  # a linear map precedes the stage
        return self.stage.merge > 1 or self.d_in != self.stage.dim


@dataclass(frozen=True)
class WindowSchedule:
    """Ordered stages; temporal windows grow and end at the full frame count."""

    stages: tuple[StageSpec, ...]

    def __post_init__(self):
        if not self.stages:
            raise ScheduleError("schedule needs at least one stage")

    @property
    def temporal_windows(self) -> tuple[int, ...]:
        return tuple(s.temporal_window for s in self.stages)

    def layout(self, frames: int, grid: tuple[int, int], patch_dim: int) -> tuple[StageLayout, ...]:
        """The one walk over the stages of a trunk of frames x grid patches of
        width patch_dim. It checks that each merge and each window divides its
        grid, and nothing else, so fixed-window cost schedules pass."""
        (h, w), d_in, out = grid, patch_dim, []
        for s in self.stages:
            if h % s.merge or w % s.merge:
                raise ScheduleError(f"merge {s.merge} does not divide grid {(h, w)}")
            h, w = h // s.merge, w // s.merge
            spec = WindowSpec(s.temporal_window, s.spatial_window)
            spec.validate(frames, h, w)
            out.append(StageLayout(s, spec, (h, w), (s.temporal_window, *spec.resolve_spatial(h, w)), d_in))
            d_in = s.dim
        return tuple(out)

    def validate(self, frames: int, grid: tuple[int, int]) -> None:
        """The rules of a trainable trunk: windows grow, the last spans every
        frame, and the layout holds."""
        windows = self.temporal_windows
        if any(a > b for a, b in zip(windows, windows[1:])):
            raise ScheduleError(f"temporal windows must be non-decreasing, got {windows}")
        if windows[-1] != frames:
            raise ScheduleError(f"last temporal window {windows[-1]} must equal frame count {frames}")
        self.layout(frames, grid, patch_dim=0)  # the input width checks nothing

    def clip_stage(self, frames_per_clip: int) -> int:
        """First stage whose temporal window equals the per-clip frame count;
        its output yields the clip representations."""
        if frames_per_clip not in self.temporal_windows:
            raise ScheduleError(f"no stage has temporal_window == frames_per_clip ({frames_per_clip}); clip representations need one")
        return self.temporal_windows.index(frames_per_clip)


# ---------------------------------------------------------------------------
# window partitioning
# ---------------------------------------------------------------------------


def window_counts(t: int, h: int, w: int, spec: WindowSpec) -> tuple[int, int, int]:
    sh, sw = spec.resolve_spatial(h, w)
    return t // spec.temporal, h // sh, w // sw


def window_partition(tokens: DiffArray, spec: WindowSpec) -> DiffArray:
    """(B, T, H, W, C) -> (B, windows, tokens_per_window, C).

    Window order is temporal-major, then spatial rows, then columns; tokens
    inside a window keep (time, row, col) order.
    """
    B, T, H, W, C = tokens.shape
    spec.validate(T, H, W)
    sh, sw = spec.resolve_spatial(H, W)
    nt, nh, nw = window_counts(T, H, W, spec)
    x = O.reshape(tokens, (B, nt, spec.temporal, nh, sh, nw, sw, C))
    x = O.transpose(x, (0, 1, 3, 5, 2, 4, 6, 7))
    return O.reshape(x, (B, nt * nh * nw, spec.temporal * sh * sw, C))


def window_merge(blocks: DiffArray, spec: WindowSpec, t: int, h: int, w: int) -> DiffArray:
    """Inverse of window_partition."""
    B = blocks.shape[0]
    sh, sw = spec.resolve_spatial(h, w)
    nt, nh, nw = window_counts(t, h, w, spec)
    x = O.reshape(blocks, (B, nt, nh, nw, spec.temporal, sh, sw, blocks.shape[-1]))
    x = O.transpose(x, (0, 1, 4, 2, 5, 3, 6, 7))
    return O.reshape(x, (B, t, h, w, blocks.shape[-1]))


# ---------------------------------------------------------------------------
# attention parameters
# ---------------------------------------------------------------------------


def relative_index_map(window: tuple[int, int, int]) -> np.ndarray:
    """Pairwise relative-offset index for tokens of one (w, sh, sw) window:
    entry (p, q) is the row of token p's offset to token q in a table of
    (2w-1)(2sh-1)(2sw-1) offsets. Built from one axis's offsets at a time,
    with no (n, n, 3) offset array."""
    index = 0
    for c, n in zip(np.unravel_index(np.arange(np.prod(window)), window), window):
        index = index * (2 * n - 1) + (c[:, None] - c + (n - 1))
    return index


def init_attention_params(rng: np.random.Generator, dim: int, heads: int, window: tuple[int, int, int] | None = None) -> dict:
    """Projections for one attention layer, plus a learned relative-position
    bias table when a window shape is given (video layers)."""
    check_heads(dim, heads)
    p = {
        "wq": P.normal(rng, (dim, dim)),
        "bq": P.zeros((dim,)),
        "wk": P.normal(rng, (dim, dim)),
        "bk": P.zeros((dim,)),
        "wv": P.normal(rng, (dim, dim)),
        "bv": P.zeros((dim,)),
        "wo": P.normal(rng, (dim, dim)),
        "bo": P.zeros((dim,)),
    }
    if window is not None:
        w, sh, sw = window
        table_rows = (2 * w - 1) * (2 * sh - 1) * (2 * sw - 1)
        p["rel_bias"] = P.normal(rng, (table_rows, heads))
    return p


# ---------------------------------------------------------------------------
# attention forward paths
# ---------------------------------------------------------------------------


def _mha(x: DiffArray, p: dict, heads: int, bias: DiffArray | np.ndarray | None, index: np.ndarray | None = None) -> DiffArray:
    """The attention core: one `qkv_attention` op projects q, k and v from
    x (..., n, dim) and attends over the heads, and the output projection
    follows. bias is the op's one additive input: a learned DiffArray, a
    constant mask, None, or, with index, a relative-position table that the
    op looks up itself. Every attention layer runs it."""
    a = O.qkv_attention(x, *(p[name] for name in ("wq", "bq", "wk", "bk", "wv", "bv")), heads, bias, index)
    return P.linear(a, p, "o")


def _table_bias(table: DiffArray, index: np.ndarray) -> DiffArray:
    """The (heads, t, t) bias of a (rows, heads) relative-position table
    looked up through index = relative_index_map(window), in recorded ops:
    one gather from the transposed table. The masked oracle places it;
    `qkv_attention` makes the same gather inside the op."""
    return O.take(O.transpose(table), index, axis=1)


def multi_head_attention(x: DiffArray, p: dict, heads: int, add_mask: np.ndarray | None = None) -> DiffArray:
    """Full self-attention over the last two axes of x (..., n, dim), with
    an optional additive mask broadcastable to (..., heads, n, n)."""
    return _mha(x, p, heads, add_mask)


def windowed_mha(windows: DiffArray, p: dict, heads: int, index: np.ndarray) -> DiffArray:
    """Attention inside each window of `windows` (..., t, dim), already in
    window layout (`window_partition`), with the relative-position table
    p["rel_bias"] looked up through index = relative_index_map(window) by
    the attention op, which gathers each head group's (hg, t, t) bias
    itself."""
    return _mha(windows, p, heads, p["rel_bias"], index)


def masked_full_attention_reference(tokens: DiffArray, spec: WindowSpec, p: dict, heads: int) -> DiffArray:
    """Oracle path: full attention over the flattened grid with an additive
    cross-window mask, added to the relative bias placed block-locally; the
    sum is the attention op's one bias. Must match window_partition,
    windowed_mha and window_merge elementwise. It shares the projections and
    the attention op with them; the mask, not the window partition, keeps
    each token's attention inside its window.
    """
    squeeze = tokens.ndim == 4
    if squeeze:
        tokens = O.reshape(tokens, (1, *tokens.shape))
    B, T, H, W, C = tokens.shape
    n = T * H * W

    # Flatten in window order so the mask is block-diagonal.
    xw = window_partition(tokens, spec)
    flat = O.reshape(xw, (B, n, C))
    nwin, t = xw.shape[1], xw.shape[2]

    bias = np.full((n, n), -1e9)  # the cross-window mask
    for b in range(nwin):
        bias[b * t : (b + 1) * t, b * t : (b + 1) * t] = 0.0

    block = _table_bias(p["rel_bias"], relative_index_map((spec.temporal, *spec.resolve_spatial(H, W))))
    zero = O.scale(block, 0.0)
    rows = [O.concat([block if j == i else zero for j in range(nwin)], axis=2) for i in range(nwin)]
    bias = O.add(O.concat(rows, axis=1), bias)  # (heads, n, n)

    out = _mha(flat, p, heads, bias)
    merged = window_merge(O.reshape(out, (B, nwin, t, C)), spec, T, H, W)
    if squeeze:
        merged = O.reshape(merged, (T, H, W, C))
    return merged


# ---------------------------------------------------------------------------
# receptive fields
# ---------------------------------------------------------------------------


def receptive_field(schedule: WindowSchedule, frame: int, frames: int) -> frozenset[int]:
    """Input frames that can influence the given output frame.

    Interval propagation: every layer with temporal window w expands the
    reachable set to the union of the aligned w-blocks it touches. Spatial
    merges never mix time steps, so they do not appear here.
    """
    if not 0 <= frame < frames:
        raise ScheduleError(f"frame {frame} outside [0, {frames})")
    reach = {frame}
    for stage in schedule.stages:
        w = stage.temporal_window
        WindowSpec(w).validate(frames, 1, 1)
        for _ in range(stage.layers):
            blocks = {f // w for f in reach}
            reach = set()
            for b in blocks:
                reach.update(range(b * w, (b + 1) * w))
    return frozenset(reach)
