"""Analytical multiply-add model for windowed spatio-temporal attention.

Counting convention (published here, and in every report header): exact
multiply-adds of matrix products only. That covers q/k/v/out projections,
spatial patch-merge projections, attention score and weighted-sum products,
and the two feed-forward matmuls. Softmax, bias adds, layernorm and other
elementwise work are excluded; they are immaterial next to the matmuls.

The analytic counts must equal the engine's instrumented counter exactly on
a real trunk forward; that equality is tested, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attention import WindowSchedule, WindowSpec


@dataclass(frozen=True)
class AttentionFlops:
    """Multiply-adds of one windowed attention layer."""

    projections: int  # q, k, v, out
    scores: int
    weighted_sums: int

    @property
    def score_sum(self) -> int:
        return self.scores + self.weighted_sums

    @property
    def total(self) -> int:
        return self.projections + self.scores + self.weighted_sums


def attention_flops(
    frames: int,
    spatial_tokens: int,
    dim: int,
    heads: int,
    temporal_window: int,
    spatial_window_tokens: int | None = None,
) -> AttentionFlops:
    """Exact multiply-adds of one attention layer over frames x spatial_tokens.

    Projections: 4 * T * S * d^2. Scores and weighted sums: windows of
    w * s tokens each contribute (w*s)^2 * d per product, and the head count
    cancels (h heads of width d/h). With the full spatial extent per window
    (the default) the score+sum total reduces to 2 * T * w * S^2 * d,
    linear in the temporal window.
    """
    if temporal_window < 1 or frames % temporal_window:
        raise ValueError(f"temporal window {temporal_window} must divide frame count {frames}")
    if dim % heads:
        raise ValueError(f"dim {dim} not divisible by heads {heads}")
    s = spatial_tokens if spatial_window_tokens is None else spatial_window_tokens
    if spatial_tokens % s:
        raise ValueError(f"spatial window tokens {s} must divide spatial tokens {spatial_tokens}")
    tokens = frames * spatial_tokens
    windows = (frames // temporal_window) * (spatial_tokens // s)
    window_tokens = temporal_window * s
    per_product = windows * window_tokens * window_tokens * dim
    return AttentionFlops(
        projections=4 * tokens * dim * dim,
        scores=per_product,
        weighted_sums=per_product,
    )


@dataclass(frozen=True)
class StageCost:
    """Multiply-adds of one stage (merge projection folded into projections)."""

    stage: int
    temporal_window: int
    layers: int
    tokens: int
    projections: int
    attn_scores: int
    attn_sums: int
    feed_forward: int

    @property
    def total(self) -> int:
        return self.projections + self.attn_scores + self.attn_sums + self.feed_forward


@dataclass(frozen=True)
class CostReport:
    stages: tuple[StageCost, ...]
    peak_activation_elems: int

    @property
    def projections(self) -> int:
        return sum(s.projections for s in self.stages)

    @property
    def attn_scores(self) -> int:
        return sum(s.attn_scores for s in self.stages)

    @property
    def attn_sums(self) -> int:
        return sum(s.attn_sums for s in self.stages)

    @property
    def feed_forward(self) -> int:
        return sum(s.feed_forward for s in self.stages)

    @property
    def total(self) -> int:
        return sum(s.total for s in self.stages)


def schedule_cost(
    schedule: WindowSchedule,
    frames: int,
    grid: tuple[int, int],
    patch_dim: int,
    ffn_ratio: int = 4,
) -> CostReport:
    """Exact trunk cost of a staged encoder: merges + attention + feed-forward.

    Mirrors the encoder implementation: a merge projection exists only when
    the merge factor exceeds 1 or the width changes; feed-forward is two
    matmuls of ratio `ffn_ratio`.

    Validation here is per-stage divisibility only: hypothetical fixed-window
    schedules (cost comparisons) need not end at the full frame count the way
    a trainable encoder must.
    """
    for i, s in enumerate(schedule.stages):
        WindowSpec(s.temporal_window, s.spatial_window).validate(frames, *schedule.grid_after(i, grid))
    h, w = grid
    d_in = patch_dim
    stages: list[StageCost] = []
    peak = 0
    for i, s in enumerate(schedule.stages):
        h, w = h // s.merge, w // s.merge
        tokens = frames * h * w
        merge_mas = 0
        if s.merge > 1 or d_in != s.dim:
            merge_mas = tokens * (d_in * s.merge * s.merge) * s.dim
        sh, sw = s.spatial_window if s.spatial_window is not None else (h, w)
        per_layer = attention_flops(frames, h * w, s.dim, s.heads, s.temporal_window, sh * sw)
        ffn = 2 * ffn_ratio * tokens * s.dim * s.dim
        stages.append(
            StageCost(
                stage=i,
                temporal_window=s.temporal_window,
                layers=s.layers,
                tokens=tokens,
                projections=merge_mas + s.layers * per_layer.projections,
                attn_scores=s.layers * per_layer.scores,
                attn_sums=s.layers * per_layer.weighted_sums,
                feed_forward=s.layers * ffn,
            )
        )
        windows = (frames // s.temporal_window) * ((h * w) // (sh * sw))
        peak = max(
            peak,
            tokens * s.dim,
            windows * s.heads * (s.temporal_window * sh * sw) ** 2,
            tokens * ffn_ratio * s.dim,
        )
        d_in = s.dim
    return CostReport(stages=tuple(stages), peak_activation_elems=peak)


def fixed_window_schedule(schedule: WindowSchedule, window: int) -> WindowSchedule:
    """Same stages with one temporal window everywhere (cost comparisons)."""
    from dataclasses import replace

    return WindowSchedule(tuple(replace(s, temporal_window=window) for s in schedule.stages))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

CSV_COLUMNS = [
    "stage",
    "temporal_window",
    "layers",
    "tokens",
    "projections_mas",
    "attn_scores_mas",
    "attn_sums_mas",
    "feed_forward_mas",
    "total_mas",
]


def report_csv_rows(report: CostReport) -> list[list]:
    rows = [list(CSV_COLUMNS)]
    for s in report.stages:
        rows.append(
            [s.stage, s.temporal_window, s.layers, s.tokens, s.projections, s.attn_scores, s.attn_sums, s.feed_forward, s.total]
        )
    return rows


def render_table(report: CostReport) -> str:
    """Aligned text table with totals and the counting convention."""
    rows = report_csv_rows(report)
    rows.append(
        ["total", "", "", "", report.projections, report.attn_scores, report.attn_sums, report.feed_forward, report.total]
    )
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
    lines = ["# exact multiply-adds of matmuls only (projections incl. merges, attention scores/sums, feed-forward)"]
    for r in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    lines.append(f"peak activation elements: {report.peak_activation_elems}")
    return "\n".join(lines)
