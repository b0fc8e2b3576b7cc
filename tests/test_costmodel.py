"""Cost-model contracts: exact instrumented equality, scaling laws,
schedule comparisons."""

import numpy as np
import pytest

from longvid.attention import StageSpec, WindowSchedule
from longvid.config import build_config, default_config, merge_config_dict, paper_shaped_overlay
from longvid.costmodel import (
    attention_flops,
    fixed_window_schedule,
    render_table,
    report_csv_rows,
    schedule_cost,
)
from longvid.encoders import VideoEncoder
from longvid.engine import constant, count_multiply_adds


# ---------------------------------------------------------------------------
# attention layer formula
# ---------------------------------------------------------------------------


def test_score_sum_linear_in_window():
    a2 = attention_flops(32, 15, 512, 8, 2)
    a32 = attention_flops(32, 15, 512, 8, 32)
    assert a32.score_sum == 16 * a2.score_sum
    assert a32.projections == a2.projections


def test_degenerate_window_single_token():
    a = attention_flops(7, 1, 16, 2, 1)
    assert a.score_sum == 2 * 7 * 16


def test_head_count_cancels():
    assert attention_flops(8, 4, 64, 2, 4).score_sum == attention_flops(8, 4, 64, 8, 4).score_sum


def test_quadratic_in_spatial_tokens():
    a1 = attention_flops(8, 5, 32, 2, 2)
    a2 = attention_flops(8, 10, 32, 2, 2)
    assert a2.score_sum == 4 * a1.score_sum


def test_attention_flops_rejects_bad_window():
    with pytest.raises(ValueError):
        attention_flops(10, 4, 16, 2, 3)


# ---------------------------------------------------------------------------
# instrumented equality
# ---------------------------------------------------------------------------


def _instrumented_trunk_mas(cfg):
    rng = np.random.default_rng(0)
    enc = VideoEncoder(cfg.model, cfg.data, rng)
    patches = constant(
        rng.normal(size=(1, cfg.data.frames, cfg.data.patch_rows, cfg.data.patch_cols, cfg.data.patch_dim))
    )
    with count_multiply_adds() as counter:
        enc.feature_maps(patches)
    return counter.multiply_adds


def test_analytic_equals_instrumented_default_schedule():
    cfg = default_config()
    report = schedule_cost(
        cfg.model.video.schedule, cfg.data.frames, (cfg.data.patch_rows, cfg.data.patch_cols),
        cfg.data.patch_dim, cfg.model.video.ffn_ratio,
    )
    assert report.total == _instrumented_trunk_mas(cfg)


def test_analytic_equals_instrumented_spatial_windows():
    # Sub-grid spatial windows and a width-changing merge-free stage.
    doc = merge_config_dict(
        {
            "data": {"patch_rows": 4, "patch_cols": 6, "patch_dim": 6, "clips": 2, "frames_per_clip": 2},
            "model": {
                "video": {
                    "stages": [
                        {"layers": 2, "dim": 8, "heads": 2, "temporal_window": 2, "merge": 2, "spatial_window": [1, 3]},
                        {"layers": 1, "dim": 12, "heads": 3, "temporal_window": 4, "merge": 1, "spatial_window": [2, 3]},
                    ],
                    "ffn_ratio": 3,
                    "clip_pool_steps": 0,
                },
            },
            "losses": {"anchor_count": 2, "candidate_count": 2},
        }
    )
    cfg = build_config(doc)
    report = schedule_cost(cfg.model.video.schedule, 4, (4, 6), 6, 3)
    assert report.total == _instrumented_trunk_mas(cfg)


def test_analytic_equals_instrumented_paper_shaped_structure():
    # Paper-shaped stage structure at reduced dims (exact equality must hold
    # for merge chains, equal-dim merge-free stages, and 3x5 windows).
    doc = merge_config_dict(paper_shaped_overlay())
    doc["data"].update({"patch_dim": 12})
    for st, dim, heads in zip(doc["model"]["video"]["stages"], (8, 16, 32, 32, 64), (2, 4, 4, 4, 8)):
        st["dim"] = dim
        st["heads"] = heads
        st["layers"] = min(st["layers"], 2)
    doc["model"]["text"] = {"dim": 16, "heads": 2, "sentence_layers": 1, "paragraph_layers": 1, "ffn_ratio": 2}
    doc["model"]["cross"] = {"dim": 16, "heads": 2, "layers": 1, "ffn_ratio": 2, "pool_window": [2, 3], "pool_stride": [1, 1]}
    doc["model"]["contrastive_dim"] = 8
    cfg = build_config(doc)
    report = schedule_cost(cfg.model.video.schedule, 32, (24, 40), 12, 4)
    assert report.total == _instrumented_trunk_mas(cfg)


# ---------------------------------------------------------------------------
# schedule comparisons
# ---------------------------------------------------------------------------


def _toy_schedule():
    return default_config().model.video.schedule


def test_hierarchical_cheaper_than_fixed_max():
    cfg = default_config()
    grid = (cfg.data.patch_rows, cfg.data.patch_cols)
    hier = schedule_cost(_toy_schedule(), 32, grid, cfg.data.patch_dim)
    fixed = schedule_cost(fixed_window_schedule(_toy_schedule(), 32), 32, grid, cfg.data.patch_dim)
    assert hier.attn_scores + hier.attn_sums < fixed.attn_scores + fixed.attn_sums
    assert hier.total < fixed.total


def test_fixed_cost_strictly_increasing_in_window():
    cfg = default_config()
    grid = (cfg.data.patch_rows, cfg.data.patch_cols)
    totals = [
        schedule_cost(fixed_window_schedule(_toy_schedule(), w), 32, grid, cfg.data.patch_dim).total
        for w in (4, 8, 16, 32)
    ]
    assert all(a < b for a, b in zip(totals, totals[1:]))


def test_all_windows_two_equals_fixed_two_field_by_field():
    cfg = default_config()
    grid = (cfg.data.patch_rows, cfg.data.patch_cols)
    stages = tuple(
        StageSpec(s.layers, s.dim, s.heads, 2, s.spatial_window, s.merge) for s in _toy_schedule().stages
    )
    a = schedule_cost(WindowSchedule(stages), 2, grid, cfg.data.patch_dim)
    b = schedule_cost(fixed_window_schedule(_toy_schedule(), 2), 2, grid, cfg.data.patch_dim)
    for sa, sb in zip(a.stages, b.stages):
        assert sa == sb
    assert a.peak_activation_elems == b.peak_activation_elems


@pytest.mark.parametrize("seed", range(5))
def test_hierarchical_below_fixed_max_on_random_schedules(seed):
    rng = np.random.default_rng(seed)
    frames = 16
    choices = [1, 2, 4, 8, 16]
    windows = sorted(int(choices[i]) for i in rng.integers(0, len(choices), size=3))
    windows[-1] = frames
    stages = tuple(StageSpec(1, 16, 2, w) for w in windows)
    sched = WindowSchedule(stages)
    hier = schedule_cost(sched, frames, (2, 2), 4)
    fixed = schedule_cost(fixed_window_schedule(sched, frames), frames, (2, 2), 4)
    if any(w != frames for w in windows):
        assert hier.total < fixed.total
    else:
        assert hier.total == fixed.total


def test_totals_are_sums_of_parts():
    cfg = default_config()
    report = schedule_cost(_toy_schedule(), 32, (4, 4), cfg.data.patch_dim)
    for s in report.stages:
        assert s.total == s.projections + s.attn_scores + s.attn_sums + s.feed_forward
    assert report.total == sum(s.total for s in report.stages)
    assert isinstance(report.total, int)


def test_csv_rows_and_table():
    cfg = default_config()
    report = schedule_cost(_toy_schedule(), 32, (4, 4), cfg.data.patch_dim)
    rows = report_csv_rows(report)
    assert len(rows) == 1 + len(report.stages)  # header + stage rows
    table = render_table(report)
    assert "multiply-adds" in table
    assert str(report.total) in table
