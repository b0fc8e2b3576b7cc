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

from dataclasses import dataclass, replace

from .attention import WindowSchedule, WindowSpec, check_heads


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
    s = spatial_tokens if spatial_window_tokens is None else spatial_window_tokens
    WindowSpec(temporal_window, (1, s)).validate(frames, 1, spatial_tokens)  # S tokens as a 1 x S grid
    check_heads(dim, heads)
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

    Reads the encoder's own layout: a merge projection exists only where
    the layout says the stage projects; feed-forward is two matmuls of ratio
    `ffn_ratio`.

    The layout checks per-stage divisibility only: hypothetical fixed-window
    schedules (cost comparisons) need not end at the full frame count the way
    a trainable encoder must.
    """
    stages: list[StageCost] = []
    peak = 0
    for i, st in enumerate(schedule.layout(frames, grid, patch_dim)):
        s, (h, w), (t, sh, sw) = st.stage, st.grid, st.window
        tokens = frames * h * w
        merge_mas = tokens * (st.d_in * s.merge * s.merge) * s.dim if st.projects else 0
        per_layer = attention_flops(frames, h * w, s.dim, s.heads, t, sh * sw)
        ffn = 2 * ffn_ratio * tokens * s.dim * s.dim
        stages.append(
            StageCost(
                stage=i,
                temporal_window=t,
                layers=s.layers,
                tokens=tokens,
                projections=merge_mas + s.layers * per_layer.projections,
                attn_scores=s.layers * per_layer.scores,
                attn_sums=s.layers * per_layer.weighted_sums,
                feed_forward=s.layers * ffn,
            )
        )
        windows = (frames // t) * ((h * w) // (sh * sw))
        peak = max(
            peak,
            tokens * s.dim,
            windows * s.heads * (t * sh * sw) ** 2,
            tokens * ffn_ratio * s.dim,
        )
    return CostReport(stages=tuple(stages), peak_activation_elems=peak)


def fixed_window_schedule(schedule: WindowSchedule, window: int) -> WindowSchedule:
    """Same stages with one temporal window everywhere (cost comparisons)."""
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
